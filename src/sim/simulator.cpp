#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "sim/linear.hpp"
#include "tech/units.hpp"

namespace lo::sim {

namespace {

using circuit::NodeId;
using Cplx = std::complex<double>;

/// Scale an op point so it describes `mult` identical devices in parallel.
device::MosOpPoint scaleByMult(device::MosOpPoint op, double mult) {
  op.id *= mult;
  op.gm *= mult;
  op.gds *= mult;
  op.gmb *= mult;
  op.cgs *= mult;
  op.cgd *= mult;
  op.cgb *= mult;
  op.cdb *= mult;
  op.csb *= mult;
  op.thermalNoisePsd *= mult;
  op.flickerCoeff *= mult;
  return op;
}

/// Log-spaced frequency grid, inclusive of both endpoints.
std::vector<double> logGrid(double fStart, double fStop, int pointsPerDecade) {
  if (fStart <= 0 || fStop <= fStart || pointsPerDecade < 1) {
    throw std::invalid_argument("bad frequency grid");
  }
  std::vector<double> freqs;
  const double decades = std::log10(fStop / fStart);
  const int n = std::max(2, static_cast<int>(std::ceil(decades * pointsPerDecade)) + 1);
  for (int i = 0; i < n; ++i) {
    freqs.push_back(fStart * std::pow(10.0, decades * i / (n - 1)));
  }
  return freqs;
}

/// One reactive entry of the AC system: the fast solve path replays these
/// per frequency as `a(r, c) += j * w * value` over a frequency-independent
/// skeleton, in the exact program order assembleAc stamps them.  That
/// replay is bit-identical to a full re-stamp: capacitor stamps add a pure
/// imaginary to the accumulating entry, and the +0.0 real additions they
/// carry along in assembleAc are IEEE no-ops (no skeleton entry's real
/// part can be -0.0: every entry starts at +0.0 and addition never turns
/// +0.0 negative).
struct CapStampOp {
  std::size_t r = 0;
  std::size_t c = 0;
  double value = 0.0;  ///< Signed capacitance [F].
};

}  // namespace

/// Per-instance scratch arena.  kFast solves run entirely inside these
/// buffers, so steady-state Newton iterations and AC frequency points
/// perform no heap allocation; kReference deliberately keeps the original
/// per-call allocation shape instead.
struct Simulator::Workspace {
  // DC / transient Newton buffers.
  DenseMatrix<double> a;
  std::vector<double> rhs;
  std::vector<double> xNew;
  // AC skeleton: frequency-independent stamps plus the reactive replay
  // list and the excite-mode source vector.
  DenseMatrix<Cplx> acBase;
  std::vector<CapStampOp> capOps;
  std::vector<Cplx> acSourceRhs;
  // Per-frequency realised matrix, factorization pivots and RHS.
  DenseMatrix<Cplx> acA;
  DenseMatrix<Cplx> acAdj;
  std::vector<Cplx> acRhs;
  std::vector<std::size_t> perm;
  std::vector<std::size_t> permAdj;
};

Simulator::Simulator(const circuit::Circuit& circuit, const tech::Technology& technology,
                     const device::MosModel& model, SimOptions options)
    : circuit_(circuit), tech_(technology), model_(model), options_(options) {}

Simulator::~Simulator() = default;

Simulator::Workspace& Simulator::ws() const {
  if (!ws_) ws_ = std::make_unique<Workspace>();
  return *ws_;
}

std::size_t Simulator::unknownCount() const {
  return static_cast<std::size_t>(circuit_.nodeCount() - 1) + circuit_.vsources.size() +
         circuit_.vcvs.size();
}

device::MosOpPoint Simulator::evalMos(const circuit::Mos& mos,
                                      const std::vector<double>& x) const {
  auto v = [&](NodeId n) { return n == circuit::kGround ? 0.0 : x[n - 1]; };
  const double vd = v(mos.drain), vg = v(mos.gate), vs = v(mos.source), vb = v(mos.bulk);
  if (mos.vtoDelta != 0.0 || mos.kpScale != 1.0) {
    // Per-device mismatch knobs (Monte Carlo statistical verification).
    tech::MosModelCard card = tech_.card(mos.type);
    card.vto += mos.vtoDelta;
    card.kp *= mos.kpScale;
    const device::MosOpPoint op =
        model_.evaluate(card, mos.geo, vg - vs, vd - vs, vb - vs, options_.tempK);
    return scaleByMult(op, mos.mult);
  }
  const device::MosOpPoint op = model_.evaluate(tech_.card(mos.type), mos.geo, vg - vs,
                                                vd - vs, vb - vs, options_.tempK);
  return scaleByMult(op, mos.mult);
}

// ---------------------------------------------------------------------------
// DC: Newton iteration with companion-model stamping.
// ---------------------------------------------------------------------------

bool Simulator::newtonSolve(std::vector<double>& x, double gmin, double srcScale,
                            int maxIters, int* itersOut) const {
  const std::size_t nUnknowns = unknownCount();
  const std::size_t nNodes = static_cast<std::size_t>(circuit_.nodeCount() - 1);
  // kFast iterates inside the workspace arena; kReference keeps the
  // original buffers-per-call shape.  Both run the same arithmetic on the
  // same values, so the solutions are bit-identical.
  const bool fast = options_.solver == SolverMode::kFast;
  DenseMatrix<double> aLocal;
  std::vector<double> rhsLocal;
  DenseMatrix<double>& a = fast ? ws().a : aLocal;
  std::vector<double>& rhs = fast ? ws().rhs : rhsLocal;
  if (a.size() != nUnknowns) a = DenseMatrix<double>(nUnknowns);
  rhs.resize(nUnknowns);

  auto idx = [](NodeId n) -> std::ptrdiff_t { return n - 1; };  // Ground maps to -1.
  auto v = [&](NodeId n) { return n == circuit::kGround ? 0.0 : x[n - 1]; };

  for (int iter = 0; iter < maxIters; ++iter) {
    a.clear();
    std::fill(rhs.begin(), rhs.end(), 0.0);

    for (std::size_t i = 0; i < nNodes; ++i) a.stamp(i, i, gmin);

    for (const circuit::Resistor& r : circuit_.resistors) {
      const double g = 1.0 / r.ohms;
      a.stamp(idx(r.a), idx(r.a), g);
      a.stamp(idx(r.b), idx(r.b), g);
      a.stamp(idx(r.a), idx(r.b), -g);
      a.stamp(idx(r.b), idx(r.a), -g);
    }

    for (const circuit::ISource& s : circuit_.isources) {
      const double i0 = srcScale * s.wave.dcValue();
      if (idx(s.pos) >= 0) rhs[idx(s.pos)] -= i0;
      if (idx(s.neg) >= 0) rhs[idx(s.neg)] += i0;
    }

    std::size_t branch = nNodes;
    for (const circuit::VSource& s : circuit_.vsources) {
      a.stamp(idx(s.pos), branch, 1.0);
      a.stamp(idx(s.neg), branch, -1.0);
      a.stamp(branch, idx(s.pos), 1.0);
      a.stamp(branch, idx(s.neg), -1.0);
      rhs[branch] = srcScale * s.wave.dcValue();
      ++branch;
    }
    for (const circuit::Vcvs& e : circuit_.vcvs) {
      a.stamp(idx(e.pos), branch, 1.0);
      a.stamp(idx(e.neg), branch, -1.0);
      a.stamp(branch, idx(e.pos), 1.0);
      a.stamp(branch, idx(e.neg), -1.0);
      a.stamp(branch, idx(e.cp), -e.gain);
      a.stamp(branch, idx(e.cn), e.gain);
      ++branch;
    }

    for (const circuit::Mos& m : circuit_.mosfets) {
      const device::MosOpPoint op = evalMos(m, x);
      const double vgs = v(m.gate) - v(m.source);
      const double vds = v(m.drain) - v(m.source);
      const double vbs = v(m.bulk) - v(m.source);
      // Linearised drain current i_d = Ieq + gm vgs + gds vds + gmb vbs.
      const double ieq = op.id - op.gm * vgs - op.gds * vds - op.gmb * vbs;
      const auto d = idx(m.drain), g = idx(m.gate), s = idx(m.source), b = idx(m.bulk);
      a.stamp(d, g, op.gm);
      a.stamp(d, d, op.gds);
      a.stamp(d, b, op.gmb);
      a.stamp(d, s, -(op.gm + op.gds + op.gmb));
      a.stamp(s, g, -op.gm);
      a.stamp(s, d, -op.gds);
      a.stamp(s, b, -op.gmb);
      a.stamp(s, s, op.gm + op.gds + op.gmb);
      if (d >= 0) rhs[d] -= ieq;
      if (s >= 0) rhs[s] += ieq;
    }

    std::vector<double> xNewLocal;
    std::vector<double>& xNew = fast ? ws().xNew : xNewLocal;
    if (fast) {
      xNew.assign(rhs.begin(), rhs.end());
    } else {
      xNewLocal = rhs;
    }
    if (!luSolve(a, xNew)) return false;

    double maxDelta = 0.0;
    for (std::size_t i = 0; i < nUnknowns; ++i) {
      double delta = xNew[i] - x[i];
      const double limit = i < nNodes ? options_.maxStepV : 1e9;  // Damp voltages only.
      delta = std::clamp(delta, -limit, limit);
      x[i] += delta;
      maxDelta = std::max(maxDelta, std::abs(delta) /
                                        (options_.absTolV + options_.relTol * std::abs(x[i])));
    }
    ++stats_.newtonIterations;
    if (itersOut) ++*itersOut;
    if (maxDelta < 1.0 && iter > 0) return true;
  }
  return false;
}

DcSolution Simulator::finalizeSolution(const std::vector<double>& x, int iters) const {
  DcSolution sol;
  sol.converged = true;
  sol.iterations = iters;
  sol.nodeVoltages.assign(circuit_.nodeCount(), 0.0);
  for (int n = 1; n < circuit_.nodeCount(); ++n) sol.nodeVoltages[n] = x[n - 1];
  const std::size_t nNodes = static_cast<std::size_t>(circuit_.nodeCount() - 1);
  sol.vsourceCurrents.resize(circuit_.vsources.size());
  for (std::size_t i = 0; i < circuit_.vsources.size(); ++i) {
    sol.vsourceCurrents[i] = x[nNodes + i];
  }
  sol.mosOps.reserve(circuit_.mosfets.size());
  for (const circuit::Mos& m : circuit_.mosfets) sol.mosOps.push_back(evalMos(m, x));
  return sol;
}

DcSolution Simulator::dcOperatingPoint() const {
  std::vector<double> x(unknownCount(), 0.0);
  int iters = 0;

  // Gmin stepping.
  bool ok = true;
  for (double gmin = 1e-2; gmin >= options_.gminFloor * 0.99; gmin /= 10.0) {
    ok = newtonSolve(x, gmin, 1.0, options_.maxNewtonIters, &iters);
    if (!ok) break;
  }
  if (!ok) {
    // Source stepping fallback.
    std::fill(x.begin(), x.end(), 0.0);
    ok = true;
    for (int step = 1; step <= 20 && ok; ++step) {
      ok = newtonSolve(x, options_.gminFloor, step / 20.0, options_.maxNewtonIters, &iters);
    }
  }
  if (!ok) throw SimulationError("DC operating point did not converge");
  return finalizeSolution(x, iters);
}

void Simulator::packContinuation(const DcSolution& sol, std::vector<double>& x) const {
  // Only node voltages and V-source branch currents carry over; dependent
  // source branch entries keep whatever the previous Newton left (the
  // continuation seeding the DC sweep has always used).
  for (int n = 1; n < circuit_.nodeCount(); ++n) x[n - 1] = sol.nodeVoltages[n];
  const std::size_t nNodes = static_cast<std::size_t>(circuit_.nodeCount() - 1);
  for (std::size_t k = 0; k < circuit_.vsources.size(); ++k) {
    x[nNodes + k] = sol.vsourceCurrents[k];
  }
}

Simulator::WarmStart Simulator::warmStartFrom(const DcSolution& seed) const {
  if (seed.nodeVoltages.size() != static_cast<std::size_t>(circuit_.nodeCount()) ||
      seed.vsourceCurrents.size() != circuit_.vsources.size()) {
    throw std::invalid_argument("warmStartFrom: solution does not match circuit layout");
  }
  WarmStart warm;
  warm.x_.assign(unknownCount(), 0.0);
  packContinuation(seed, warm.x_);
  warm.valid_ = true;
  return warm;
}

DcSolution Simulator::dcOperatingPoint(WarmStart& warm) const {
  if (warm.valid_ && warm.x_.size() == unknownCount()) {
    // One Newton run at the final gmin, straight from the seed.
    int iters = 0;
    if (newtonSolve(warm.x_, options_.gminFloor, 1.0, options_.maxNewtonIters, &iters)) {
      ++stats_.warmStartHits;
      return finalizeSolution(warm.x_, iters);
    }
  }
  ++stats_.warmStartMisses;
  DcSolution sol = dcOperatingPoint();  // Throws when the cold ladder fails too.
  if (warm.x_.size() != unknownCount()) warm.x_.assign(unknownCount(), 0.0);
  packContinuation(sol, warm.x_);
  warm.valid_ = true;
  return sol;
}

std::vector<Simulator::SweepPoint> Simulator::dcSweep(const std::string& vsrcName,
                                                      double start, double stop,
                                                      int points) const {
  if (points < 2) throw std::invalid_argument("dcSweep needs at least 2 points");
  circuit::Circuit copy = circuit_;
  circuit::VSource* src = copy.findVSource(vsrcName);
  if (!src) throw SimulationError("dcSweep: no V source named " + vsrcName);

  // Each point continues from its neighbour through the warm-start seam;
  // the first point (and any point the warm Newton refuses) runs the full
  // cold ladder inside dcOperatingPoint(WarmStart&).
  Simulator sub(copy, tech_, model_, options_);
  std::vector<SweepPoint> out;
  out.reserve(points);
  WarmStart warm;
  for (int i = 0; i < points; ++i) {
    const double value = start + (stop - start) * i / (points - 1);
    src->wave = circuit::Waveform::makeDc(value);
    out.push_back({value, sub.dcOperatingPoint(warm)});
  }
  return out;
}

// ---------------------------------------------------------------------------
// AC.
// ---------------------------------------------------------------------------

namespace {

/// Assemble the complex MNA matrix at angular frequency w about `op`.
/// When `excite` is false all independent sources are zeroed (noise use).
void assembleAc(const circuit::Circuit& ckt, const std::vector<device::MosOpPoint>& ops,
                double w, double gmin, bool excite, DenseMatrix<Cplx>& a,
                std::vector<Cplx>& rhs) {
  const std::size_t nNodes = static_cast<std::size_t>(ckt.nodeCount() - 1);
  a.clear();
  std::fill(rhs.begin(), rhs.end(), Cplx{});
  auto idx = [](NodeId n) -> std::ptrdiff_t { return n - 1; };

  for (std::size_t i = 0; i < nNodes; ++i) a.stamp(i, i, Cplx{gmin, 0});

  auto stampAdmittance = [&](NodeId p, NodeId q, Cplx y) {
    a.stamp(idx(p), idx(p), y);
    a.stamp(idx(q), idx(q), y);
    a.stamp(idx(p), idx(q), -y);
    a.stamp(idx(q), idx(p), -y);
  };

  for (const circuit::Resistor& r : ckt.resistors) {
    stampAdmittance(r.a, r.b, Cplx{1.0 / r.ohms, 0});
  }
  for (const circuit::Capacitor& c : ckt.capacitors) {
    stampAdmittance(c.a, c.b, Cplx{0, w * c.farads});
  }

  for (std::size_t i = 0; i < ckt.mosfets.size(); ++i) {
    const circuit::Mos& m = ckt.mosfets[i];
    const device::MosOpPoint& op = ops[i];
    const auto d = idx(m.drain), g = idx(m.gate), s = idx(m.source), b = idx(m.bulk);
    // Transconductances: current into drain controlled by vgs / vbs.
    a.stamp(d, g, Cplx{op.gm, 0});
    a.stamp(d, s, Cplx{-op.gm, 0});
    a.stamp(s, g, Cplx{-op.gm, 0});
    a.stamp(s, s, Cplx{op.gm, 0});
    a.stamp(d, b, Cplx{op.gmb, 0});
    a.stamp(d, s, Cplx{-op.gmb, 0});
    a.stamp(s, b, Cplx{-op.gmb, 0});
    a.stamp(s, s, Cplx{op.gmb, 0});
    stampAdmittance(m.drain, m.source, Cplx{op.gds, 0});
    // Capacitances.
    stampAdmittance(m.gate, m.source, Cplx{0, w * op.cgs});
    stampAdmittance(m.gate, m.drain, Cplx{0, w * op.cgd});
    stampAdmittance(m.gate, m.bulk, Cplx{0, w * op.cgb});
    stampAdmittance(m.drain, m.bulk, Cplx{0, w * op.cdb});
    stampAdmittance(m.source, m.bulk, Cplx{0, w * op.csb});
  }

  std::size_t branch = nNodes;
  for (const circuit::VSource& s : ckt.vsources) {
    a.stamp(idx(s.pos), branch, Cplx{1, 0});
    a.stamp(idx(s.neg), branch, Cplx{-1, 0});
    a.stamp(branch, idx(s.pos), Cplx{1, 0});
    a.stamp(branch, idx(s.neg), Cplx{-1, 0});
    if (excite && s.acMag != 0.0) {
      rhs[branch] = std::polar(s.acMag, s.acPhase * M_PI / 180.0);
    }
    ++branch;
  }
  for (const circuit::Vcvs& e : ckt.vcvs) {
    a.stamp(idx(e.pos), branch, Cplx{1, 0});
    a.stamp(idx(e.neg), branch, Cplx{-1, 0});
    a.stamp(branch, idx(e.pos), Cplx{1, 0});
    a.stamp(branch, idx(e.neg), Cplx{-1, 0});
    a.stamp(branch, idx(e.cp), Cplx{-e.gain, 0});
    a.stamp(branch, idx(e.cn), Cplx{e.gain, 0});
    ++branch;
  }
  if (excite) {
    for (const circuit::ISource& s : ckt.isources) {
      if (s.acMag == 0.0) continue;
      if (idx(s.pos) >= 0) rhs[idx(s.pos)] -= Cplx{s.acMag, 0};
      if (idx(s.neg) >= 0) rhs[idx(s.neg)] += Cplx{s.acMag, 0};
    }
  }
}

/// Frequency-independent half of assembleAc: every stamp except the
/// capacitive ones lands in `base` (their imaginary parts are all +0.0);
/// the capacitive stamps are recorded in `capOps` in assembleAc's program
/// order for per-frequency replay; `sourceRhs` is the excite-mode RHS,
/// which carries no frequency dependence either.  realizeAcMatrix(base,
/// capOps, w) then reproduces assembleAc's matrix bit for bit.
void buildAcSkeleton(const circuit::Circuit& ckt, const std::vector<device::MosOpPoint>& ops,
                     double gmin, DenseMatrix<Cplx>& base, std::vector<CapStampOp>& capOps,
                     std::vector<Cplx>& sourceRhs) {
  const std::size_t nNodes = static_cast<std::size_t>(ckt.nodeCount() - 1);
  base.clear();
  capOps.clear();
  std::fill(sourceRhs.begin(), sourceRhs.end(), Cplx{});
  auto idx = [](NodeId n) -> std::ptrdiff_t { return n - 1; };

  for (std::size_t i = 0; i < nNodes; ++i) base.stamp(i, i, Cplx{gmin, 0});

  auto stampAdmittance = [&](NodeId p, NodeId q, Cplx y) {
    base.stamp(idx(p), idx(p), y);
    base.stamp(idx(q), idx(q), y);
    base.stamp(idx(p), idx(q), -y);
    base.stamp(idx(q), idx(p), -y);
  };
  auto recordCap = [&](NodeId p, NodeId q, double c) {
    auto rec = [&](std::ptrdiff_t r, std::ptrdiff_t col, double v) {
      if (r < 0 || col < 0) return;  // Ground, as DenseMatrix::stamp skips it.
      capOps.push_back({static_cast<std::size_t>(r), static_cast<std::size_t>(col), v});
    };
    rec(idx(p), idx(p), c);
    rec(idx(q), idx(q), c);
    rec(idx(p), idx(q), -c);
    rec(idx(q), idx(p), -c);
  };

  for (const circuit::Resistor& r : ckt.resistors) {
    stampAdmittance(r.a, r.b, Cplx{1.0 / r.ohms, 0});
  }
  for (const circuit::Capacitor& c : ckt.capacitors) {
    recordCap(c.a, c.b, c.farads);
  }

  for (std::size_t i = 0; i < ckt.mosfets.size(); ++i) {
    const circuit::Mos& m = ckt.mosfets[i];
    const device::MosOpPoint& op = ops[i];
    const auto d = idx(m.drain), g = idx(m.gate), s = idx(m.source), b = idx(m.bulk);
    base.stamp(d, g, Cplx{op.gm, 0});
    base.stamp(d, s, Cplx{-op.gm, 0});
    base.stamp(s, g, Cplx{-op.gm, 0});
    base.stamp(s, s, Cplx{op.gm, 0});
    base.stamp(d, b, Cplx{op.gmb, 0});
    base.stamp(d, s, Cplx{-op.gmb, 0});
    base.stamp(s, b, Cplx{-op.gmb, 0});
    base.stamp(s, s, Cplx{op.gmb, 0});
    stampAdmittance(m.drain, m.source, Cplx{op.gds, 0});
    recordCap(m.gate, m.source, op.cgs);
    recordCap(m.gate, m.drain, op.cgd);
    recordCap(m.gate, m.bulk, op.cgb);
    recordCap(m.drain, m.bulk, op.cdb);
    recordCap(m.source, m.bulk, op.csb);
  }

  std::size_t branch = nNodes;
  for (const circuit::VSource& s : ckt.vsources) {
    base.stamp(idx(s.pos), branch, Cplx{1, 0});
    base.stamp(idx(s.neg), branch, Cplx{-1, 0});
    base.stamp(branch, idx(s.pos), Cplx{1, 0});
    base.stamp(branch, idx(s.neg), Cplx{-1, 0});
    if (s.acMag != 0.0) {
      sourceRhs[branch] = std::polar(s.acMag, s.acPhase * M_PI / 180.0);
    }
    ++branch;
  }
  for (const circuit::Vcvs& e : ckt.vcvs) {
    base.stamp(idx(e.pos), branch, Cplx{1, 0});
    base.stamp(idx(e.neg), branch, Cplx{-1, 0});
    base.stamp(branch, idx(e.pos), Cplx{1, 0});
    base.stamp(branch, idx(e.neg), Cplx{-1, 0});
    base.stamp(branch, idx(e.cp), Cplx{-e.gain, 0});
    base.stamp(branch, idx(e.cn), Cplx{e.gain, 0});
    ++branch;
  }
  for (const circuit::ISource& s : ckt.isources) {
    if (s.acMag == 0.0) continue;
    if (idx(s.pos) >= 0) sourceRhs[idx(s.pos)] -= Cplx{s.acMag, 0};
    if (idx(s.neg) >= 0) sourceRhs[idx(s.neg)] += Cplx{s.acMag, 0};
  }
}

/// Realise the AC matrix at angular frequency w: copy the skeleton and
/// replay the recorded capacitive stamps.  w * (-c) == -(w * c) exactly in
/// IEEE arithmetic, so signed replay values reproduce assembleAc's
/// negated-admittance stamps bit for bit.
void realizeAcMatrix(const DenseMatrix<Cplx>& base, const std::vector<CapStampOp>& capOps,
                     double w, DenseMatrix<Cplx>& a) {
  a = base;
  for (const CapStampOp& op : capOps) {
    a.at(op.r, op.c) += Cplx{0.0, w * op.value};
  }
}

}  // namespace

AcPoint Simulator::extractAcPoint(double freq, const std::vector<Cplx>& sol) const {
  AcPoint p;
  p.freq = freq;
  p.nodeV.assign(circuit_.nodeCount(), Cplx{});
  for (int n = 1; n < circuit_.nodeCount(); ++n) p.nodeV[n] = sol[n - 1];
  const std::size_t nNodes = static_cast<std::size_t>(circuit_.nodeCount() - 1);
  p.vsourceI.resize(circuit_.vsources.size());
  for (std::size_t i = 0; i < circuit_.vsources.size(); ++i) {
    p.vsourceI[i] = sol[nNodes + i];
  }
  return p;
}

std::size_t Simulator::vsourceIndexOrThrow(const std::string& name,
                                           const char* context) const {
  for (std::size_t i = 0; i < circuit_.vsources.size(); ++i) {
    if (circuit_.vsources[i].name == name) return i;
  }
  throw SimulationError(std::string(context) + ": no V source named " + name);
}

std::vector<std::vector<AcPoint>> Simulator::acSolveGridFast(
    const DcSolution& op, const std::vector<AcExcitation>& excitations,
    const std::vector<double>& freqs, const std::string& failPrefix) const {
  const std::size_t nUnknowns = unknownCount();
  const std::size_t nNodes = static_cast<std::size_t>(circuit_.nodeCount() - 1);
  Workspace& w = ws();
  if (w.acBase.size() != nUnknowns) w.acBase = DenseMatrix<Cplx>(nUnknowns);
  w.acSourceRhs.resize(nUnknowns);
  w.acRhs.resize(nUnknowns);
  buildAcSkeleton(circuit_, op.mosOps, options_.gminFloor, w.acBase, w.capOps,
                  w.acSourceRhs);

  // Resolve excitation targets once (the public callers validated names).
  std::vector<std::size_t> branchOf(excitations.size(), 0);
  for (std::size_t e = 0; e < excitations.size(); ++e) {
    const AcExcitation& ex = excitations[e];
    if (ex.kind == AcExcitation::Kind::kVsourceBranch) {
      branchOf[e] = nNodes + vsourceIndexOrThrow(ex.vsource, "acBatch");
    } else if (ex.kind == AcExcitation::Kind::kCurrentInjection) {
      if (ex.pos >= circuit_.nodeCount() || ex.neg >= circuit_.nodeCount()) {
        throw SimulationError("acBatch: injection node out of range");
      }
    }
  }

  std::vector<std::vector<AcPoint>> out(excitations.size());
  for (auto& curve : out) curve.reserve(freqs.size());
  for (double f : freqs) {
    // One factorization per frequency; every excitation reuses it.
    realizeAcMatrix(w.acBase, w.capOps, 2.0 * M_PI * f, w.acA);
    if (!luFactorize(w.acA, w.perm)) {
      throw SimulationError(failPrefix + std::to_string(f));
    }
    ++stats_.luFactorizations;
    for (std::size_t e = 0; e < excitations.size(); ++e) {
      const AcExcitation& ex = excitations[e];
      switch (ex.kind) {
        case AcExcitation::Kind::kCircuitSources:
          w.acRhs.assign(w.acSourceRhs.begin(), w.acSourceRhs.end());
          break;
        case AcExcitation::Kind::kVsourceBranch:
          std::fill(w.acRhs.begin(), w.acRhs.end(), Cplx{});
          w.acRhs[branchOf[e]] = Cplx{1.0, 0.0};
          break;
        case AcExcitation::Kind::kCurrentInjection:
          std::fill(w.acRhs.begin(), w.acRhs.end(), Cplx{});
          if (ex.pos != circuit::kGround) w.acRhs[ex.pos - 1] -= Cplx{1.0, 0};
          if (ex.neg != circuit::kGround) w.acRhs[ex.neg - 1] += Cplx{1.0, 0};
          break;
      }
      luSolveFactored(w.acA, w.perm, w.acRhs);
      ++stats_.luSolves;
      ++stats_.acPoints;
      out[e].push_back(extractAcPoint(f, w.acRhs));
    }
  }
  return out;
}

std::vector<AcPoint> Simulator::ac(const DcSolution& op, double fStart, double fStop,
                                   int pointsPerDecade) const {
  const std::vector<double> freqs = logGrid(fStart, fStop, pointsPerDecade);
  if (options_.solver == SolverMode::kFast) {
    return std::move(acSolveGridFast(op, {AcExcitation::circuitSources()}, freqs,
                                     "AC solve failed at f=")[0]);
  }
  const std::size_t nUnknowns = unknownCount();
  std::vector<AcPoint> out;
  out.reserve(freqs.size());
  DenseMatrix<Cplx> a(nUnknowns);
  std::vector<Cplx> rhs(nUnknowns);
  for (double f : freqs) {
    assembleAc(circuit_, op.mosOps, 2.0 * M_PI * f, options_.gminFloor, true, a, rhs);
    if (!luSolve(a, rhs)) throw SimulationError("AC solve failed at f=" + std::to_string(f));
    ++stats_.acPoints;
    out.push_back(extractAcPoint(f, rhs));
  }
  return out;
}

std::vector<AcPoint> Simulator::acFrom(const DcSolution& op,
                                       const std::string& sourceName, double fStart,
                                       double fStop, int pointsPerDecade) const {
  const std::size_t srcIndex = vsourceIndexOrThrow(sourceName, "acFrom");
  const std::vector<double> freqs = logGrid(fStart, fStop, pointsPerDecade);
  if (options_.solver == SolverMode::kFast) {
    return std::move(acSolveGridFast(op, {AcExcitation::unitVsource(sourceName)}, freqs,
                                     "acFrom solve failed at f=")[0]);
  }
  const std::size_t nUnknowns = unknownCount();
  const std::size_t nNodes = static_cast<std::size_t>(circuit_.nodeCount() - 1);
  std::vector<AcPoint> out;
  out.reserve(freqs.size());
  DenseMatrix<Cplx> a(nUnknowns);
  std::vector<Cplx> rhs(nUnknowns);
  for (double f : freqs) {
    // Assemble with every source silenced, then drive the selected branch
    // equation with the unit excitation (the same seam the noise analysis
    // uses for its forward solve).
    assembleAc(circuit_, op.mosOps, 2.0 * M_PI * f, options_.gminFloor, false, a, rhs);
    rhs[nNodes + srcIndex] = Cplx{1.0, 0.0};
    if (!luSolve(a, rhs)) {
      throw SimulationError("acFrom solve failed at f=" + std::to_string(f));
    }
    ++stats_.acPoints;
    out.push_back(extractAcPoint(f, rhs));
  }
  return out;
}

std::vector<std::vector<AcPoint>> Simulator::acBatch(
    const DcSolution& op, const std::vector<AcExcitation>& excitations, double fStart,
    double fStop, int pointsPerDecade) const {
  for (const AcExcitation& ex : excitations) {
    if (ex.kind == AcExcitation::Kind::kVsourceBranch) {
      (void)vsourceIndexOrThrow(ex.vsource, "acBatch");
    }
  }
  const std::vector<double> freqs = logGrid(fStart, fStop, pointsPerDecade);
  if (options_.solver == SolverMode::kFast) {
    return acSolveGridFast(op, excitations, freqs, "acBatch solve failed at f=");
  }
  // Reference mode decomposes the batch into the one-shot primitives it
  // replaces; the fast path above is bit-identical to this.
  const std::size_t nUnknowns = unknownCount();
  std::vector<std::vector<AcPoint>> out;
  out.reserve(excitations.size());
  for (const AcExcitation& ex : excitations) {
    switch (ex.kind) {
      case AcExcitation::Kind::kCircuitSources:
        out.push_back(ac(op, fStart, fStop, pointsPerDecade));
        break;
      case AcExcitation::Kind::kVsourceBranch:
        out.push_back(acFrom(op, ex.vsource, fStart, fStop, pointsPerDecade));
        break;
      case AcExcitation::Kind::kCurrentInjection: {
        if (ex.pos >= circuit_.nodeCount() || ex.neg >= circuit_.nodeCount()) {
          throw SimulationError("acBatch: injection node out of range");
        }
        std::vector<AcPoint> curve;
        curve.reserve(freqs.size());
        DenseMatrix<Cplx> a(nUnknowns);
        std::vector<Cplx> rhs(nUnknowns);
        for (double f : freqs) {
          assembleAc(circuit_, op.mosOps, 2.0 * M_PI * f, options_.gminFloor, false, a, rhs);
          if (ex.pos != circuit::kGround) rhs[ex.pos - 1] -= Cplx{1.0, 0};
          if (ex.neg != circuit::kGround) rhs[ex.neg - 1] += Cplx{1.0, 0};
          if (!luSolve(a, rhs)) {
            throw SimulationError("acBatch solve failed at f=" + std::to_string(f));
          }
          ++stats_.acPoints;
          curve.push_back(extractAcPoint(f, rhs));
        }
        out.push_back(std::move(curve));
        break;
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Noise (adjoint method).
// ---------------------------------------------------------------------------

std::vector<NoisePoint> Simulator::noise(const DcSolution& op, circuit::NodeId out,
                                         const std::string& inputVsrc, double fStart,
                                         double fStop, int pointsPerDecade) const {
  std::size_t inputIndex = circuit_.vsources.size();
  for (std::size_t i = 0; i < circuit_.vsources.size(); ++i) {
    if (circuit_.vsources[i].name == inputVsrc) {
      inputIndex = i;
      break;
    }
  }
  if (inputIndex == circuit_.vsources.size()) {
    throw SimulationError("noise: no V source named " + inputVsrc);
  }

  const std::vector<double> freqs = logGrid(fStart, fStop, pointsPerDecade);
  const std::size_t nUnknowns = unknownCount();
  const std::size_t nNodes = static_cast<std::size_t>(circuit_.nodeCount() - 1);
  const double kT4 = 4.0 * kBoltzmann * options_.tempK;

  const bool fast = options_.solver == SolverMode::kFast;
  std::vector<NoisePoint> result;
  result.reserve(freqs.size());
  DenseMatrix<Cplx> aLocal;
  std::vector<Cplx> workLocal;
  DenseMatrix<Cplx>& a = fast ? ws().acA : aLocal;
  std::vector<Cplx>& work = fast ? ws().acRhs : workLocal;
  if (a.size() != nUnknowns) a = DenseMatrix<Cplx>(nUnknowns);
  work.resize(nUnknowns);
  if (fast) {
    // Assemble once; each frequency point re-realises only the reactive
    // entries.  The adjoint still needs its own factorization (pivoting on
    // the transposed matrix differs), but the assembly is shared and the
    // transpose starts from the realised copy.
    Workspace& w = ws();
    if (w.acBase.size() != nUnknowns) w.acBase = DenseMatrix<Cplx>(nUnknowns);
    w.acSourceRhs.resize(nUnknowns);
    buildAcSkeleton(circuit_, op.mosOps, options_.gminFloor, w.acBase, w.capOps,
                    w.acSourceRhs);
  }

  for (double f : freqs) {
    const double w = 2.0 * M_PI * f;

    Cplx gain;
    if (fast) {
      Workspace& wk = ws();
      realizeAcMatrix(wk.acBase, wk.capOps, w, a);
      wk.acAdj = a;  // Keep the realised matrix for the adjoint transpose.
      std::fill(work.begin(), work.end(), Cplx{});
      work[nNodes + inputIndex] = Cplx{1.0, 0.0};
      if (!luFactorize(a, wk.perm)) throw SimulationError("noise: forward solve failed");
      ++stats_.luFactorizations;
      luSolveFactored(a, wk.perm, work);
      ++stats_.luSolves;
      gain = out == circuit::kGround ? Cplx{} : work[out - 1];

      // Adjoint: solve Y^T z = e_out; |z_p - z_q|^2 is the squared
      // transfer from a unit current injected between (p, q) to the
      // output voltage.
      for (std::size_t r = 0; r < nUnknowns; ++r) {
        for (std::size_t c = r + 1; c < nUnknowns; ++c) {
          std::swap(wk.acAdj.at(r, c), wk.acAdj.at(c, r));
        }
      }
      std::fill(work.begin(), work.end(), Cplx{});
      if (out != circuit::kGround) work[out - 1] = Cplx{1.0, 0.0};
      if (!luFactorize(wk.acAdj, wk.permAdj)) {
        throw SimulationError("noise: adjoint solve failed");
      }
      ++stats_.luFactorizations;
      luSolveFactored(wk.acAdj, wk.permAdj, work);
      ++stats_.luSolves;
    } else {
      // Forward gain: unit excitation on the designated input source only.
      assembleAc(circuit_, op.mosOps, w, options_.gminFloor, false, a, work);
      work[nNodes + inputIndex] = Cplx{1.0, 0.0};
      if (!luSolve(a, work)) throw SimulationError("noise: forward solve failed");
      gain = out == circuit::kGround ? Cplx{} : work[out - 1];

      // Adjoint: solve Y^T z = e_out; |z_p - z_q|^2 is the squared transfer
      // from a unit current injected between (p, q) to the output voltage.
      assembleAc(circuit_, op.mosOps, w, options_.gminFloor, false, a, work);
      // Transpose in place.
      for (std::size_t r = 0; r < nUnknowns; ++r) {
        for (std::size_t c = r + 1; c < nUnknowns; ++c) std::swap(a.at(r, c), a.at(c, r));
      }
      std::fill(work.begin(), work.end(), Cplx{});
      if (out != circuit::kGround) work[out - 1] = Cplx{1.0, 0.0};
      if (!luSolve(a, work)) throw SimulationError("noise: adjoint solve failed");
    }

    auto z = [&](NodeId n) { return n == circuit::kGround ? Cplx{} : work[n - 1]; };
    double psd = 0.0;
    for (std::size_t i = 0; i < circuit_.mosfets.size(); ++i) {
      const circuit::Mos& m = circuit_.mosfets[i];
      const device::MosOpPoint& mos = op.mosOps[i];
      const double s = mos.thermalNoisePsd + mos.flickerCoeff / f;
      psd += s * std::norm(z(m.drain) - z(m.source));
    }
    for (const circuit::Resistor& r : circuit_.resistors) {
      psd += kT4 / r.ohms * std::norm(z(r.a) - z(r.b));
    }

    NoisePoint p;
    p.freq = f;
    p.outputPsd = psd;
    p.gainMag = std::abs(gain);
    p.inputRefPsd = p.gainMag > 1e-30 ? psd / (p.gainMag * p.gainMag) : 0.0;
    result.push_back(p);
  }
  return result;
}

double integratePsd(const std::vector<NoisePoint>& points, double f0, double f1,
                    bool inputReferred) {
  double total = 0.0;
  for (std::size_t i = 0; i + 1 < points.size(); ++i) {
    const double fa = points[i].freq, fb = points[i + 1].freq;
    if (fb <= f0 || fa >= f1) continue;
    const double a = inputReferred ? points[i].inputRefPsd : points[i].outputPsd;
    const double b = inputReferred ? points[i + 1].inputRefPsd : points[i + 1].outputPsd;
    const double lo = std::max(fa, f0), hi = std::min(fb, f1);
    total += 0.5 * (a + b) * (hi - lo);
  }
  return total;
}

// ---------------------------------------------------------------------------
// Transient (fixed-step trapezoidal).
// ---------------------------------------------------------------------------

namespace {

/// Trapezoidal capacitor companion state.
struct CapBranch {
  NodeId a = circuit::kGround, b = circuit::kGround;
  double c = 0.0;
  double iPrev = 0.0;
};

/// Explicit capacitors first, then five per MOS (cgs, cgd, cgb, cdb, csb)
/// whose values every step refreshes from the device evaluation.
std::vector<CapBranch> capBranches(const circuit::Circuit& ckt) {
  std::vector<CapBranch> caps;
  for (const circuit::Capacitor& c : ckt.capacitors) caps.push_back({c.a, c.b, c.farads, 0});
  for (const circuit::Mos& m : ckt.mosfets) {
    caps.push_back({m.gate, m.source, 0, 0});
    caps.push_back({m.gate, m.drain, 0, 0});
    caps.push_back({m.gate, m.bulk, 0, 0});
    caps.push_back({m.drain, m.bulk, 0, 0});
    caps.push_back({m.source, m.bulk, 0, 0});
  }
  return caps;
}

/// Where one full-MNA unknown lands in the folded system: a reduced
/// unknown, a pinned (known) value, or neither (ground).
struct Ref {
  int var = -1;  ///< Reduced unknown index.
  int pin = -1;  ///< Pinned-node index.
};

/// A two-terminal admittance's stamp offsets, (a,a) (b,b) (a,b) (b,a).
struct Admittance {
  int aa = -1, bb = -1, ab = -1, ba = -1;
  int rowA = -1, rowB = -1;  ///< Reduced KCL rows, -1 when dropped.
};

struct FoldedMos {
  const circuit::Mos* mos = nullptr;
  tech::MosModelCard card;  ///< Mismatch knobs applied.
  int rowD = -1, rowS = -1;
  int dg = -1, dd = -1, db = -1, ds = -1, sg = -1, sd = -1, sb = -1, ss = -1;
};

/// The kFast transient's netlist, compiled once per transient() call.
///
/// A node held by a grounded V source is pinned: each step fixes it to the
/// source's value, so its KCL row, its column and the source's branch
/// current leave the Newton system.  What remains -- free nodes first,
/// then the branch currents of floating V sources and VCVSs -- is the
/// reduced system A (n x n).  Stamps into a pinned column land in P
/// (n x pins) and reach the right-hand side as -P * pinned.  Every stamp
/// resolves here, once, to a flat offset into one [A | P] buffer (both
/// row-major); -1 drops a stamp into ground or a pinned row.
struct FoldedPlan {
  struct Pin {
    const circuit::Waveform* wave = nullptr;
    double sign = 1.0;  ///< -1 when the source's pos terminal is ground.
    NodeId node = circuit::kGround;
  };
  struct Drive {  ///< An RHS entry driven by a source waveform.
    const circuit::Waveform* wave = nullptr;
    int row = -1;
    double sign = 1.0;
  };

  std::size_t n = 0;          ///< Reduced unknowns.
  std::size_t freeNodes = 0;  ///< Unknowns [0, freeNodes) are node voltages.
  std::vector<Ref> node;      ///< Per NodeId.
  std::vector<NodeId> nodeOf;   ///< Per free-node unknown.
  std::vector<int> vsourceVar;  ///< Per V source: branch unknown or -1.
  std::vector<Pin> pins;
  std::vector<double> base;     ///< [A | P] with the static stamps (gmin, R, branches).
  std::vector<Drive> drives;    ///< I sources and floating V sources.
  std::vector<Admittance> caps; ///< Parallel to capBranches().
  std::vector<FoldedMos> mosfets;

  [[nodiscard]] int slot(Ref row, Ref col) const {
    if (row.var < 0) return -1;
    if (col.var >= 0) return row.var * static_cast<int>(n) + col.var;
    if (col.pin >= 0) {
      return static_cast<int>(n * n + static_cast<std::size_t>(row.var) * pins.size()) +
             col.pin;
    }
    return -1;
  }
  [[nodiscard]] Admittance admittance(NodeId a, NodeId b) const {
    const Ref ra = node[a], rb = node[b];
    return {slot(ra, ra), slot(rb, rb), slot(ra, rb), slot(rb, ra), ra.var, rb.var};
  }
};

inline void stamp(double* buf, int at, double k) {
  if (at >= 0) buf[at] += k;
}

inline void stampAdmittance(double* buf, const Admittance& y, double k) {
  stamp(buf, y.aa, k);
  stamp(buf, y.bb, k);
  stamp(buf, y.ab, -k);
  stamp(buf, y.ba, -k);
}

FoldedPlan compileFoldedPlan(const circuit::Circuit& ckt, const tech::Technology& tech,
                             double gmin) {
  FoldedPlan plan;
  plan.node.assign(static_cast<std::size_t>(ckt.nodeCount()), Ref{});
  // Pin every node a grounded V source holds (the first such source wins;
  // a second one on the same node stays a branch, as in full MNA).
  plan.vsourceVar.assign(ckt.vsources.size(), -1);
  std::vector<bool> folded(ckt.vsources.size(), false);
  for (std::size_t i = 0; i < ckt.vsources.size(); ++i) {
    const circuit::VSource& s = ckt.vsources[i];
    const bool posGround = s.pos == circuit::kGround;
    if (posGround == (s.neg == circuit::kGround)) continue;
    const NodeId held = posGround ? s.neg : s.pos;
    Ref& r = plan.node[static_cast<std::size_t>(held)];
    if (r.pin >= 0) continue;
    r.pin = static_cast<int>(plan.pins.size());
    plan.pins.push_back({&s.wave, posGround ? -1.0 : 1.0, held});
    folded[i] = true;
  }
  for (NodeId n = 1; n < ckt.nodeCount(); ++n) {
    Ref& r = plan.node[static_cast<std::size_t>(n)];
    if (r.pin >= 0) continue;
    r.var = static_cast<int>(plan.nodeOf.size());
    plan.nodeOf.push_back(n);
  }
  plan.freeNodes = plan.nodeOf.size();
  int next = static_cast<int>(plan.freeNodes);
  for (std::size_t i = 0; i < ckt.vsources.size(); ++i) {
    if (!folded[i]) plan.vsourceVar[i] = next++;
  }
  const int firstVcvs = next;
  plan.n = static_cast<std::size_t>(next) + ckt.vcvs.size();
  plan.base.assign(plan.n * (plan.n + plan.pins.size()), 0.0);
  double* base = plan.base.data();
  const auto nodeRef = [&plan](NodeId id) { return plan.node[static_cast<std::size_t>(id)]; };

  for (std::size_t k = 0; k < plan.freeNodes; ++k) base[k * plan.n + k] += gmin;
  for (const circuit::Resistor& r : ckt.resistors) {
    stampAdmittance(base, plan.admittance(r.a, r.b), 1.0 / r.ohms);
  }
  for (const circuit::ISource& s : ckt.isources) {
    // Current flows pos -> neg through the source.
    if (nodeRef(s.pos).var >= 0) plan.drives.push_back({&s.wave, nodeRef(s.pos).var, -1.0});
    if (nodeRef(s.neg).var >= 0) plan.drives.push_back({&s.wave, nodeRef(s.neg).var, 1.0});
  }
  const auto stampBranch = [&](const Ref& br, NodeId pos, NodeId neg) {
    stamp(base, plan.slot(nodeRef(pos), br), 1.0);
    stamp(base, plan.slot(nodeRef(neg), br), -1.0);
    stamp(base, plan.slot(br, nodeRef(pos)), 1.0);
    stamp(base, plan.slot(br, nodeRef(neg)), -1.0);
  };
  for (std::size_t i = 0; i < ckt.vsources.size(); ++i) {
    if (plan.vsourceVar[i] < 0) continue;
    const circuit::VSource& s = ckt.vsources[i];
    stampBranch({plan.vsourceVar[i], -1}, s.pos, s.neg);
    plan.drives.push_back({&s.wave, plan.vsourceVar[i], 1.0});
  }
  for (std::size_t i = 0; i < ckt.vcvs.size(); ++i) {
    const circuit::Vcvs& e = ckt.vcvs[i];
    const Ref br{firstVcvs + static_cast<int>(i), -1};
    stampBranch(br, e.pos, e.neg);
    stamp(base, plan.slot(br, nodeRef(e.cp)), -e.gain);
    stamp(base, plan.slot(br, nodeRef(e.cn)), e.gain);
  }

  for (const CapBranch& cb : capBranches(ckt)) plan.caps.push_back(plan.admittance(cb.a, cb.b));

  for (const circuit::Mos& m : ckt.mosfets) {
    FoldedMos f;
    f.mos = &m;
    f.card = tech.card(m.type);
    if (m.vtoDelta != 0.0 || m.kpScale != 1.0) {
      // Per-device mismatch knobs (Monte Carlo statistical verification).
      f.card.vto += m.vtoDelta;
      f.card.kp *= m.kpScale;
    }
    const Ref d = nodeRef(m.drain), g = nodeRef(m.gate), s = nodeRef(m.source),
              b = nodeRef(m.bulk);
    f.rowD = d.var;
    f.rowS = s.var;
    f.dg = plan.slot(d, g);
    f.dd = plan.slot(d, d);
    f.db = plan.slot(d, b);
    f.ds = plan.slot(d, s);
    f.sg = plan.slot(s, g);
    f.sd = plan.slot(s, d);
    f.sb = plan.slot(s, b);
    f.ss = plan.slot(s, s);
    plan.mosfets.push_back(f);
  }
  return plan;
}

}  // namespace

std::vector<TranPoint> Simulator::transient(double tStop, double dt) const {
  if (tStop <= 0 || dt <= 0) throw std::invalid_argument("transient: bad time arguments");
  return options_.solver == SolverMode::kFast ? transientFolded(tStop, dt)
                                              : transientReference(tStop, dt);
}

std::vector<TranPoint> Simulator::transientFolded(double tStop, double dt) const {
  const FoldedPlan plan = compileFoldedPlan(circuit_, tech_, options_.gminFloor);
  std::vector<CapBranch> caps = capBranches(circuit_);
  const std::size_t mosCapBase = circuit_.capacitors.size();
  const std::size_t n = plan.n;
  const std::size_t nPins = plan.pins.size();
  const std::size_t nMos = plan.mosfets.size();
  stats_.tranUnknowns = static_cast<long>(n);

  // Start from the DC operating point.  `v` holds every node voltage by
  // NodeId (ground included) for device evaluation and capacitor history;
  // `x` holds the reduced unknowns.
  const DcSolution op0 = dcOperatingPoint();
  std::vector<double> v = op0.nodeVoltages;
  std::vector<double> x(n, 0.0);
  for (std::size_t k = 0; k < plan.freeNodes; ++k) x[k] = v[plan.nodeOf[k]];
  for (std::size_t i = 0; i < circuit_.vsources.size(); ++i) {
    if (plan.vsourceVar[i] >= 0) x[plan.vsourceVar[i]] = op0.vsourceCurrents[i];
  }

  std::vector<TranPoint> out;
  out.push_back({0.0, v});

  DenseMatrix<double> a(n);
  std::vector<double> stepBuf, work, stepRhs(n), rhs(n), pinV(nPins), vPrev;
  std::vector<std::size_t> perm;
  std::vector<device::MosConductance> g(nMos);

  const int steps = static_cast<int>(std::ceil(tStop / dt));
  for (int step = 1; step <= steps; ++step) {
    const double t = std::min(step * dt, tStop);
    for (std::size_t k = 0; k < nPins; ++k) {
      pinV[k] = plan.pins[k].sign * plan.pins[k].wave->at(t);
    }
    // Step-start device evaluation: its bias is exactly iteration 0's, so
    // it sets the capacitances and linearises the first iteration.
    for (std::size_t i = 0; i < nMos; ++i) {
      const circuit::Mos& m = *plan.mosfets[i].mos;
      const double vs = v[m.source];
      const device::MosOpPoint op = model_.evaluate(plan.mosfets[i].card, m.geo,
                                                    v[m.gate] - vs, v[m.drain] - vs,
                                                    v[m.bulk] - vs, options_.tempK);
      g[i] = {op.id * m.mult, op.gm * m.mult, op.gds * m.mult, op.gmb * m.mult};
      caps[mosCapBase + 5 * i + 0].c = op.cgs * m.mult;
      caps[mosCapBase + 5 * i + 1].c = op.cgd * m.mult;
      caps[mosCapBase + 5 * i + 2].c = op.cgb * m.mult;
      caps[mosCapBase + 5 * i + 3].c = op.cdb * m.mult;
      caps[mosCapBase + 5 * i + 4].c = op.csb * m.mult;
    }
    stats_.tranDeviceEvaluations += static_cast<long>(nMos);
    vPrev = v;

    // Everything constant over the step: static stamps, sources at t and
    // the capacitor companions.
    stepBuf = plan.base;
    std::fill(stepRhs.begin(), stepRhs.end(), 0.0);
    for (const FoldedPlan::Drive& d : plan.drives) stepRhs[d.row] += d.sign * d.wave->at(t);
    for (std::size_t k = 0; k < caps.size(); ++k) {
      const CapBranch& cb = caps[k];
      if (cb.c <= 0) continue;
      const double geq = 2.0 * cb.c / dt;
      const double ieq = geq * (vPrev[cb.a] - vPrev[cb.b]) + cb.iPrev;
      const Admittance& y = plan.caps[k];
      stampAdmittance(stepBuf.data(), y, geq);
      if (y.rowA >= 0) stepRhs[y.rowA] += ieq;
      if (y.rowB >= 0) stepRhs[y.rowB] -= ieq;
    }

    bool converged = false;
    for (int iter = 0; iter < options_.maxNewtonIters; ++iter) {
      if (iter > 0) {
        for (std::size_t i = 0; i < nMos; ++i) {
          const circuit::Mos& m = *plan.mosfets[i].mos;
          const double vs = v[m.source];
          const device::MosConductance c =
              model_.conductances(plan.mosfets[i].card, m.geo, v[m.gate] - vs,
                                  v[m.drain] - vs, v[m.bulk] - vs, options_.tempK);
          g[i] = {c.id * m.mult, c.gm * m.mult, c.gds * m.mult, c.gmb * m.mult};
        }
        stats_.tranDeviceEvaluations += static_cast<long>(nMos);
      }
      work = stepBuf;
      rhs = stepRhs;
      for (std::size_t i = 0; i < nMos; ++i) {
        const FoldedMos& f = plan.mosfets[i];
        const circuit::Mos& m = *f.mos;
        const device::MosConductance& op = g[i];
        const double vgs = v[m.gate] - v[m.source];
        const double vds = v[m.drain] - v[m.source];
        const double vbs = v[m.bulk] - v[m.source];
        // Linearised drain current i_d = Ieq + gm vgs + gds vds + gmb vbs.
        const double ieq = op.id - op.gm * vgs - op.gds * vds - op.gmb * vbs;
        double* w = work.data();
        stamp(w, f.dg, op.gm);
        stamp(w, f.dd, op.gds);
        stamp(w, f.db, op.gmb);
        stamp(w, f.ds, -(op.gm + op.gds + op.gmb));
        stamp(w, f.sg, -op.gm);
        stamp(w, f.sd, -op.gds);
        stamp(w, f.sb, -op.gmb);
        stamp(w, f.ss, op.gm + op.gds + op.gmb);
        if (f.rowD >= 0) rhs[f.rowD] -= ieq;
        if (f.rowS >= 0) rhs[f.rowS] += ieq;
      }
      // Pinned columns to the right-hand side: rhs -= P * pinned.
      const double* p = work.data() + n * n;
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t k = 0; k < nPins; ++k) rhs[r] -= p[r * nPins + k] * pinV[k];
      }
      std::copy(work.begin(), work.begin() + static_cast<std::ptrdiff_t>(n * n), a.data());
      if (!luFactorize(a, perm)) throw SimulationError("transient: singular matrix");
      luSolveFactored(a, perm, rhs);
      ++stats_.tranNewtonIterations;

      double maxDelta = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        double delta = rhs[k] - x[k];
        // Damp voltages only.
        const double limit = k < plan.freeNodes ? options_.maxStepV : 1e9;
        delta = std::clamp(delta, -limit, limit);
        x[k] += delta;
        maxDelta = std::max(maxDelta, std::abs(delta) / (options_.absTolV +
                                                         options_.relTol * std::abs(x[k])));
      }
      for (std::size_t k = 0; k < plan.freeNodes; ++k) v[plan.nodeOf[k]] = x[k];
      for (std::size_t k = 0; k < nPins; ++k) v[plan.pins[k].node] = pinV[k];
      if (maxDelta < 1.0 && iter > 0) {
        converged = true;
        break;
      }
    }
    if (!converged) {
      throw SimulationError("transient: Newton failed at t=" + std::to_string(t));
    }
    // Commit capacitor branch currents for the next step.
    for (CapBranch& cb : caps) {
      if (cb.c <= 0) continue;
      const double geq = 2.0 * cb.c / dt;
      const double vPrevAb = vPrev[cb.a] - vPrev[cb.b];
      const double vNow = v[cb.a] - v[cb.b];
      cb.iPrev = geq * (vNow - vPrevAb) - cb.iPrev;
    }
    ++stats_.tranSteps;
    out.push_back({t, v});
  }
  return out;
}

std::vector<TranPoint> Simulator::transientReference(double tStop, double dt) const {
  std::vector<CapBranch> caps = capBranches(circuit_);
  const std::size_t mosCapBase = circuit_.capacitors.size();

  const std::size_t nUnknowns = unknownCount();
  const std::size_t nNodes = static_cast<std::size_t>(circuit_.nodeCount() - 1);
  auto idx = [](NodeId n) -> std::ptrdiff_t { return n - 1; };
  stats_.tranUnknowns = static_cast<long>(nUnknowns);

  // Start from the DC operating point (sources at their t=0 values; the
  // Waveform DC value is the t=0 value for all supported kinds).
  DcSolution op0 = dcOperatingPoint();
  std::vector<double> x(nUnknowns, 0.0);
  for (int n = 1; n < circuit_.nodeCount(); ++n) x[n - 1] = op0.nodeVoltages[n];
  for (std::size_t i = 0; i < circuit_.vsources.size(); ++i) {
    x[nNodes + i] = op0.vsourceCurrents[i];
  }

  std::vector<TranPoint> out;
  auto record = [&](double t) {
    TranPoint p;
    p.time = t;
    p.nodeV.assign(circuit_.nodeCount(), 0.0);
    for (int n = 1; n < circuit_.nodeCount(); ++n) p.nodeV[n] = x[n - 1];
    out.push_back(std::move(p));
  };
  record(0.0);

  DenseMatrix<double> a(nUnknowns);
  std::vector<double> rhs(nUnknowns);
  auto vOf = [&](const std::vector<double>& vec, NodeId n) {
    return n == circuit::kGround ? 0.0 : vec[n - 1];
  };

  const int steps = static_cast<int>(std::ceil(tStop / dt));
  for (int step = 1; step <= steps; ++step) {
    const double t = std::min(step * dt, tStop);
    // Update MOS capacitance values at the start-of-step bias.
    for (std::size_t i = 0; i < circuit_.mosfets.size(); ++i) {
      const device::MosOpPoint op = evalMos(circuit_.mosfets[i], x);
      caps[mosCapBase + 5 * i + 0].c = op.cgs;
      caps[mosCapBase + 5 * i + 1].c = op.cgd;
      caps[mosCapBase + 5 * i + 2].c = op.cgb;
      caps[mosCapBase + 5 * i + 3].c = op.cdb;
      caps[mosCapBase + 5 * i + 4].c = op.csb;
    }
    stats_.tranDeviceEvaluations += static_cast<long>(circuit_.mosfets.size());
    const std::vector<double> xPrev = x;

    bool converged = false;
    for (int iter = 0; iter < options_.maxNewtonIters; ++iter) {
      a.clear();
      std::fill(rhs.begin(), rhs.end(), 0.0);
      for (std::size_t i = 0; i < nNodes; ++i) a.stamp(i, i, options_.gminFloor);

      for (const circuit::Resistor& r : circuit_.resistors) {
        const double g = 1.0 / r.ohms;
        a.stamp(idx(r.a), idx(r.a), g);
        a.stamp(idx(r.b), idx(r.b), g);
        a.stamp(idx(r.a), idx(r.b), -g);
        a.stamp(idx(r.b), idx(r.a), -g);
      }
      for (const circuit::ISource& s : circuit_.isources) {
        const double i0 = s.wave.at(t);
        if (idx(s.pos) >= 0) rhs[idx(s.pos)] -= i0;
        if (idx(s.neg) >= 0) rhs[idx(s.neg)] += i0;
      }
      std::size_t branch = nNodes;
      for (const circuit::VSource& s : circuit_.vsources) {
        a.stamp(idx(s.pos), branch, 1.0);
        a.stamp(idx(s.neg), branch, -1.0);
        a.stamp(branch, idx(s.pos), 1.0);
        a.stamp(branch, idx(s.neg), -1.0);
        rhs[branch] = s.wave.at(t);
        ++branch;
      }
      for (const circuit::Vcvs& e : circuit_.vcvs) {
        a.stamp(idx(e.pos), branch, 1.0);
        a.stamp(idx(e.neg), branch, -1.0);
        a.stamp(branch, idx(e.pos), 1.0);
        a.stamp(branch, idx(e.neg), -1.0);
        a.stamp(branch, idx(e.cp), -e.gain);
        a.stamp(branch, idx(e.cn), e.gain);
        ++branch;
      }
      for (const circuit::Mos& m : circuit_.mosfets) {
        const device::MosOpPoint op = evalMos(m, x);
        const double vgs = vOf(x, m.gate) - vOf(x, m.source);
        const double vds = vOf(x, m.drain) - vOf(x, m.source);
        const double vbs = vOf(x, m.bulk) - vOf(x, m.source);
        const double ieq = op.id - op.gm * vgs - op.gds * vds - op.gmb * vbs;
        const auto d = idx(m.drain), g = idx(m.gate), s = idx(m.source), b = idx(m.bulk);
        a.stamp(d, g, op.gm);
        a.stamp(d, d, op.gds);
        a.stamp(d, b, op.gmb);
        a.stamp(d, s, -(op.gm + op.gds + op.gmb));
        a.stamp(s, g, -op.gm);
        a.stamp(s, d, -op.gds);
        a.stamp(s, b, -op.gmb);
        a.stamp(s, s, op.gm + op.gds + op.gmb);
        if (d >= 0) rhs[d] -= ieq;
        if (s >= 0) rhs[s] += ieq;
      }
      stats_.tranDeviceEvaluations += static_cast<long>(circuit_.mosfets.size());
      // Trapezoidal capacitor companions.
      for (const CapBranch& cb : caps) {
        if (cb.c <= 0) continue;
        const double geq = 2.0 * cb.c / dt;
        const double vPrev = vOf(xPrev, cb.a) - vOf(xPrev, cb.b);
        const double ieq = geq * vPrev + cb.iPrev;
        a.stamp(idx(cb.a), idx(cb.a), geq);
        a.stamp(idx(cb.b), idx(cb.b), geq);
        a.stamp(idx(cb.a), idx(cb.b), -geq);
        a.stamp(idx(cb.b), idx(cb.a), -geq);
        if (idx(cb.a) >= 0) rhs[idx(cb.a)] += ieq;
        if (idx(cb.b) >= 0) rhs[idx(cb.b)] -= ieq;
      }

      std::vector<double> xNew = rhs;
      if (!luSolve(a, xNew)) throw SimulationError("transient: singular matrix");
      ++stats_.tranNewtonIterations;
      double maxDelta = 0.0;
      for (std::size_t i = 0; i < nUnknowns; ++i) {
        double delta = xNew[i] - x[i];
        const double limit = i < nNodes ? options_.maxStepV : 1e9;
        delta = std::clamp(delta, -limit, limit);
        x[i] += delta;
        maxDelta = std::max(maxDelta, std::abs(delta) / (options_.absTolV +
                                                         options_.relTol * std::abs(x[i])));
      }
      if (maxDelta < 1.0 && iter > 0) {
        converged = true;
        break;
      }
    }
    if (!converged) {
      throw SimulationError("transient: Newton failed at t=" + std::to_string(t));
    }
    // Commit capacitor branch currents for the next step.
    for (CapBranch& cb : caps) {
      if (cb.c <= 0) continue;
      const double geq = 2.0 * cb.c / dt;
      const double vPrev = vOf(xPrev, cb.a) - vOf(xPrev, cb.b);
      const double vNow = vOf(x, cb.a) - vOf(x, cb.b);
      cb.iPrev = geq * (vNow - vPrev) - cb.iPrev;
    }
    ++stats_.tranSteps;
    record(t);
  }
  return out;
}

}  // namespace lo::sim
