// lospice: the MNA circuit simulator.
//
// Stands in for the commercial simulator the paper verifies with.  Supports
// DC operating point (Newton with gmin and source stepping), DC sweeps, AC
// small-signal analysis, small-signal noise analysis (adjoint method) and
// transient analysis (trapezoidal).  MOS devices are evaluated through the
// exact same device::MosModel code the sizing tool uses.
#pragma once

#include <complex>
#include <memory>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "device/mos_model.hpp"
#include "tech/technology.hpp"

namespace lo::sim {

/// Solve-path selector.  DC operating points, sweeps, AC and noise are
/// bit-identical across the modes; transients agree within the Newton
/// tolerance (the golden solver tests prove both).  The modes differ in
/// how much work and memory traffic they spend getting there.
enum class SolverMode {
  /// LU factor reuse across the AC excitation block, skeleton re-stamping
  /// of only the reactive matrix entries per frequency, a simulator-owned
  /// workspace so the Newton loop allocates nothing, and the folded
  /// transient (see Simulator::transient).
  kFast,
  /// The pre-optimization path: one-shot LU per solve, full re-assembly
  /// per frequency or Newton iteration, fresh buffers per call.  Kept
  /// alive verbatim as the golden baseline the fast path is benchmarked
  /// and compared against.
  kReference,
};

struct SimOptions {
  double gminFloor = 1e-12;   ///< Final gmin left on every node [S].
  double absTolV = 1e-9;      ///< Newton voltage-update tolerance [V].
  double relTol = 1e-6;
  int maxNewtonIters = 150;
  double maxStepV = 0.3;      ///< Per-iteration voltage damping limit [V].
  double tempK = 300.15;
  SolverMode solver = SolverMode::kFast;
};

/// Cumulative hot-path counters, per Simulator instance.  Instrumentation
/// only -- never part of any analysis result.
struct SimStats {
  long newtonIterations = 0;  ///< Newton steps across every DC solve.
  long luFactorizations = 0;  ///< Complex factorizations (fast AC/noise path).
  long luSolves = 0;          ///< Triangular solves against reused factors.
  long acPoints = 0;          ///< (frequency, excitation) pairs solved.
  long warmStartHits = 0;     ///< Warm operating points solved from the seed.
  long warmStartMisses = 0;   ///< Warm attempts that fell back to the cold ladder.
  long tranSteps = 0;              ///< Transient time steps taken.
  long tranNewtonIterations = 0;   ///< Newton steps across every transient step.
  long tranDeviceEvaluations = 0;  ///< MOS model evaluations inside transients.
  long tranUnknowns = 0;           ///< Newton system size of the latest transient.
};

/// One excitation of the shared AC small-signal system.  The system matrix
/// is excitation-independent, so a batch of these shares each frequency
/// point's factorization (Simulator::acBatch).
struct AcExcitation {
  enum class Kind {
    kCircuitSources,    ///< The circuit's own acMag/acPhase fields (ac()).
    kVsourceBranch,     ///< Unit (1 V, 0 deg) drive on one V-source branch (acFrom()).
    kCurrentInjection,  ///< Unit AC current from `pos` into `neg` (output-impedance probe).
  };
  Kind kind = Kind::kCircuitSources;
  std::string vsource;                      ///< kVsourceBranch: the driven source.
  circuit::NodeId pos = circuit::kGround;   ///< kCurrentInjection terminals.
  circuit::NodeId neg = circuit::kGround;

  [[nodiscard]] static AcExcitation circuitSources() { return {}; }
  [[nodiscard]] static AcExcitation unitVsource(std::string name) {
    AcExcitation e;
    e.kind = Kind::kVsourceBranch;
    e.vsource = std::move(name);
    return e;
  }
  [[nodiscard]] static AcExcitation unitCurrent(circuit::NodeId pos, circuit::NodeId neg) {
    AcExcitation e;
    e.kind = Kind::kCurrentInjection;
    e.pos = pos;
    e.neg = neg;
    return e;
  }
};

/// DC operating point: node voltages, source branch currents, and the full
/// per-device small-signal picture.  Mos op entries are scaled by the device
/// multiplier (they describe the whole parallel combination).
struct DcSolution {
  bool converged = false;
  int iterations = 0;
  std::vector<double> nodeVoltages;              ///< Indexed by NodeId.
  std::vector<double> vsourceCurrents;           ///< Per circuit.vsources entry.
  std::vector<device::MosOpPoint> mosOps;        ///< Per circuit.mosfets entry.

  [[nodiscard]] double voltage(circuit::NodeId n) const { return nodeVoltages.at(n); }
};

struct AcPoint {
  double freq = 0.0;
  std::vector<std::complex<double>> nodeV;   ///< Indexed by NodeId; [0] is 0.
  std::vector<std::complex<double>> vsourceI;  ///< Branch current per V source.

  [[nodiscard]] std::complex<double> at(circuit::NodeId n) const { return nodeV.at(n); }
};

struct NoisePoint {
  double freq = 0.0;
  double outputPsd = 0.0;    ///< Output noise voltage PSD [V^2/Hz].
  double inputRefPsd = 0.0;  ///< Input-referred PSD [V^2/Hz].
  double gainMag = 0.0;      ///< |vout / vin| used for input referral.
};

struct TranPoint {
  double time = 0.0;
  std::vector<double> nodeV;  ///< Indexed by NodeId.
};

class SimulationError : public std::runtime_error {
 public:
  explicit SimulationError(const std::string& what) : std::runtime_error(what) {}
};

class Simulator {
 public:
  /// The circuit, technology and model must outlive the simulator.
  /// A Simulator owns per-instance scratch buffers: share one instance
  /// across threads only with external synchronisation (the codebase
  /// convention is one local Simulator per worker).
  Simulator(const circuit::Circuit& circuit, const tech::Technology& technology,
            const device::MosModel& model, SimOptions options = {});
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// DC operating point with gmin stepping and, on failure, source stepping.
  /// Throws SimulationError when no continuation converges.
  [[nodiscard]] DcSolution dcOperatingPoint() const;

  /// Carry-over Newton state for warm-started operating points.  Opaque:
  /// obtain one default-constructed (invalid, first solve runs cold) or
  /// from warmStartFrom(), and pass it to successive dcOperatingPoint()
  /// calls over the same circuit -- or over equal-layout neighbours, as a
  /// DC sweep or a Monte Carlo trial sequence produces.
  class WarmStart {
   public:
    WarmStart() = default;
    [[nodiscard]] bool valid() const { return valid_; }
    void reset() {
      x_.clear();
      valid_ = false;
    }

   private:
    friend class Simulator;
    std::vector<double> x_;
    bool valid_ = false;
  };

  /// Seed carry-over state from a converged solution of this circuit (or
  /// one with the identical unknown layout).  Node voltages and V-source
  /// branch currents are carried; dependent-source branch currents start
  /// at zero, exactly as the DC sweep continuation has always seeded
  /// them.  Throws std::invalid_argument on a layout mismatch.
  [[nodiscard]] WarmStart warmStartFrom(const DcSolution& seed) const;

  /// Warm-started operating point: when `warm` holds usable state, run
  /// Newton directly from it at the final gmin; otherwise -- or when that
  /// refuses to converge -- fall back to the full cold continuation
  /// ladder.  On return `warm` carries this solution, ready for the next
  /// neighbouring point.  Throws SimulationError only if the cold path
  /// fails too.
  [[nodiscard]] DcSolution dcOperatingPoint(WarmStart& warm) const;

  /// Sweep the DC value of V source `vsrcName` and solve at each point
  /// (continuation from the previous point).
  struct SweepPoint {
    double value = 0.0;
    DcSolution solution;
  };
  [[nodiscard]] std::vector<SweepPoint> dcSweep(const std::string& vsrcName, double start,
                                                double stop, int points) const;

  /// AC analysis about `op` over a log frequency grid.
  [[nodiscard]] std::vector<AcPoint> ac(const DcSolution& op, double fStart, double fStop,
                                        int pointsPerDecade) const;

  /// AC analysis with the excitation moved onto one named V source: every
  /// source's own acMag/acPhase is ignored and a unit (1 V, 0 deg)
  /// excitation drives `sourceName`'s branch instead.  Numerically
  /// identical to ac() on a copy of the circuit whose only non-zero acMag
  /// is 1.0 on that source -- supply-rejection measurements (PSRR) without
  /// mutating the netlist.  Throws SimulationError on an unknown source.
  [[nodiscard]] std::vector<AcPoint> acFrom(const DcSolution& op,
                                            const std::string& sourceName,
                                            double fStart, double fStop,
                                            int pointsPerDecade) const;

  /// Solve a whole excitation block over one frequency grid: the system
  /// matrix does not depend on the excitation, so in the fast solver mode
  /// every frequency point is factored once and each excitation costs only
  /// a pair of triangular solves.  Returns one curve per excitation, in
  /// order; each is bit-identical to the equivalent ac()/acFrom() call.
  [[nodiscard]] std::vector<std::vector<AcPoint>> acBatch(
      const DcSolution& op, const std::vector<AcExcitation>& excitations,
      double fStart, double fStop, int pointsPerDecade) const;

  /// Small-signal noise at node `out`, input-referred to V source
  /// `inputVsrc` (adjoint network method: one extra solve per frequency).
  [[nodiscard]] std::vector<NoisePoint> noise(const DcSolution& op, circuit::NodeId out,
                                              const std::string& inputVsrc, double fStart,
                                              double fStop, int pointsPerDecade) const;

  /// Fixed-step trapezoidal transient from the DC operating point.
  ///
  /// kFast solves a folded system: a node held by a grounded V source is
  /// pinned to the source's value at each step, so its KCL row, its
  /// column and the source's branch current leave the Newton system.  A
  /// pinned node therefore follows its source exactly, even across an
  /// edge larger than SimOptions::maxStepV, where kReference damps it like
  /// any other node and reaches the same point in more iterations.  Each
  /// MOS is evaluated once per Newton iteration: the step-start
  /// evaluation that sets the capacitances is iteration 0's bias, and
  /// later iterations need only MosModel::conductances().
  [[nodiscard]] std::vector<TranPoint> transient(double tStop, double dt) const;

  [[nodiscard]] const SimOptions& options() const { return options_; }

  /// Hot-path counters accumulated since construction (instrumentation
  /// for bench/ext_sim; results never depend on them).
  [[nodiscard]] const SimStats& stats() const { return stats_; }

 private:
  struct Workspace;
  [[nodiscard]] Workspace& ws() const;
  [[nodiscard]] bool newtonSolve(std::vector<double>& x, double gmin, double srcScale,
                                 int maxIters, int* itersOut) const;
  [[nodiscard]] DcSolution finalizeSolution(const std::vector<double>& x, int iters) const;
  [[nodiscard]] device::MosOpPoint evalMos(const circuit::Mos& mos,
                                           const std::vector<double>& x) const;
  [[nodiscard]] std::size_t unknownCount() const;
  void packContinuation(const DcSolution& sol, std::vector<double>& x) const;
  [[nodiscard]] AcPoint extractAcPoint(double freq,
                                       const std::vector<std::complex<double>>& sol) const;
  [[nodiscard]] std::size_t vsourceIndexOrThrow(const std::string& name,
                                                const char* context) const;
  [[nodiscard]] std::vector<TranPoint> transientFolded(double tStop, double dt) const;
  [[nodiscard]] std::vector<TranPoint> transientReference(double tStop, double dt) const;
  [[nodiscard]] std::vector<std::vector<AcPoint>> acSolveGridFast(
      const DcSolution& op, const std::vector<AcExcitation>& excitations,
      const std::vector<double>& freqs, const std::string& failPrefix) const;

  const circuit::Circuit& circuit_;
  const tech::Technology& tech_;
  const device::MosModel& model_;
  SimOptions options_;
  mutable std::unique_ptr<Workspace> ws_;
  mutable SimStats stats_;
};

/// Trapezoidal integration of a tabulated PSD over [f0, f1] on the log grid
/// the analysis produced; returns total mean-square value [V^2].
[[nodiscard]] double integratePsd(const std::vector<NoisePoint>& points, double f0,
                                  double f1, bool inputReferred);

}  // namespace lo::sim
