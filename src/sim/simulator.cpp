#include "sim/simulator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>

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

/// `mos`'s model card with its per-device mismatch knobs (Monte Carlo
/// statistical verification) applied.
tech::MosModelCard deviceCard(const tech::Technology& tech, const circuit::Mos& mos) {
  tech::MosModelCard card = tech.card(mos.type);
  card.vto += mos.vtoDelta;
  card.kp *= mos.kpScale;
  return card;
}

/// A MOS device's vgs, vds and vbs, from node voltages indexed by NodeId.
struct MosBias {
  double vgs = 0.0, vds = 0.0, vbs = 0.0;
};

MosBias biasOf(const circuit::Mos& m, const std::vector<double>& v) {
  const double vs = v[m.source];
  return {v[m.gate] - vs, v[m.drain] - vs, v[m.bulk] - vs};
}

/// A MOS device's Newton linearisation, i_d = ieq + gm vgs + gds vds +
/// gmb vbs, scaled by its multiplier.
struct MosLinear {
  double gm = 0.0, gds = 0.0, gmb = 0.0, ieq = 0.0;
};

/// `op` (a conductances() or evaluate() result at bias `b`) linearised.
template <typename Op>
MosLinear linearise(const Op& op, double mult, const MosBias& b) {
  MosLinear l{op.gm * mult, op.gds * mult, op.gmb * mult, 0.0};
  l.ieq = op.id * mult - l.gm * b.vgs - l.gds * b.vds - l.gmb * b.vbs;
  return l;
}

/// Newton's damped update x += clamp(xNew - x), the node voltages (the
/// unknowns [0, freeNodes)) limited to maxStepV.  True when every unknown
/// moved within absTolV + relTol * |x|.
bool dampedUpdate(const SimOptions& o, std::size_t freeNodes, const std::vector<double>& xNew,
                  std::vector<double>& x) {
  double maxDelta = 0.0;
  for (std::size_t k = 0; k < x.size(); ++k) {
    const double limit = k < freeNodes ? o.maxStepV : 1e9;  // Damp voltages only.
    const double delta = std::clamp(xNew[k] - x[k], -limit, limit);
    x[k] += delta;
    maxDelta = std::max(maxDelta, std::abs(delta) / (o.absTolV + o.relTol * std::abs(x[k])));
  }
  return maxDelta < 1.0;
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

/// One MOS device's latest evaluation inside a transient: the terminal
/// voltages it was taken at, its linearisation at that bias, and its cgs,
/// cgd, cgb, cdb and csb (scaled by the multiplier).  The terminals start
/// as NaN, which no voltage is within tolerance of, so the first use
/// evaluates.
struct MosRecord {
  static constexpr double kUnset = std::numeric_limits<double>::quiet_NaN();
  double vd = kUnset, vg = kUnset, vs = kUnset, vb = kUnset;
  MosLinear lin;
  std::array<double, 5> caps{};
};

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

/// A MOSFET's conductance stamp offsets and reduced KCL rows.
struct MosSlots {
  int rowD = -1, rowS = -1;
  int dg = -1, dd = -1, db = -1, ds = -1, sg = -1, sd = -1, sb = -1, ss = -1;
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

/// Linearised drain current i_d = Ieq + gm vgs + gds vds + gmb vbs: the
/// conductance half of the stamp.
inline void stampMos(double* buf, const MosSlots& f, double gm, double gds, double gmb) {
  stamp(buf, f.dg, gm);
  stamp(buf, f.dd, gds);
  stamp(buf, f.db, gmb);
  stamp(buf, f.ds, -(gm + gds + gmb));
  stamp(buf, f.sg, -gm);
  stamp(buf, f.sd, -gds);
  stamp(buf, f.sb, -gmb);
  stamp(buf, f.ss, gm + gds + gmb);
}

/// The Ieq half: the drain current's constant term on the right-hand side.
inline void stampIeq(std::vector<double>& rhs, const MosSlots& f, double ieq) {
  if (f.rowD >= 0) rhs[f.rowD] -= ieq;
  if (f.rowS >= 0) rhs[f.rowS] += ieq;
}

/// The system an analysis solves, compiled once per Simulator.  DC solves
/// the plan that pins nothing: full MNA, nodes by NodeId, then every V
/// source's branch current, then the VCVSs'.  The transient and
/// small-signal analyses solve the folded plan.
///
/// A node held by a grounded V source is pinned: its value is known (the
/// source's value at a transient step, its excitation in a small-signal
/// analysis), so its KCL row, its column and the source's branch current
/// leave the LU.  What remains -- free nodes first, then the branch
/// currents of floating V sources and VCVSs -- is the reduced system A
/// (n x n).  Stamps into a pinned column land in P (n x pins) and reach the
/// right-hand side as -P * pinned.  The pinned nodes' own KCL rows land in
/// Q (pins x (n + pins)), which nothing factors: a pinned source's branch
/// current is what its node's row leaves over once the solve is done.
/// Every stamp resolves here, once, to a flat offset into one [A | P ; Q]
/// buffer (each block row-major, in that order); -1 drops a stamp into
/// ground.  Element values are not part of the plan: each analysis stamps
/// them afresh.
struct StampPlan {
  struct Pin {
    std::size_t vsource = 0;  ///< The pinning source's circuit.vsources index.
    double sign = 1.0;        ///< -1 when the source's pos terminal is ground.
    NodeId node = circuit::kGround;
  };
  struct Drive {  ///< A reduced RHS entry driven by a source waveform.
    const circuit::Waveform* wave = nullptr;
    int row = -1;
    double sign = 1.0;
  };

  std::size_t n = 0;          ///< Reduced unknowns.
  std::size_t freeNodes = 0;  ///< Unknowns [0, freeNodes) are node voltages.
  std::vector<Ref> node;      ///< Per NodeId.
  std::vector<NodeId> nodeOf;   ///< Per free-node unknown.
  std::vector<int> vsourceVar;  ///< Per V source: branch unknown or -1.
  std::vector<int> vsourcePin;  ///< Per V source: the pin it holds or -1.
  std::vector<Pin> pins;
  std::vector<Drive> drives;     ///< I sources and floating V sources.
  std::vector<Admittance> caps;  ///< Parallel to capBranches().
  std::vector<MosSlots> mosfets;

  [[nodiscard]] std::size_t width() const { return n + pins.size(); }
  [[nodiscard]] std::size_t entries() const { return width() * width(); }

  [[nodiscard]] int slot(Ref row, Ref col) const {
    const int nn = static_cast<int>(n), w = static_cast<int>(width());
    const int c = col.var >= 0 ? col.var : col.pin >= 0 ? nn + col.pin : -1;
    if (c < 0) return -1;
    if (row.var >= 0) return c < nn ? row.var * nn + c : nn * nn + row.var * (w - nn) + c - nn;
    if (row.pin >= 0) return nn * w + row.pin * w + c;
    return -1;
  }
  [[nodiscard]] Admittance admittance(NodeId a, NodeId b) const {
    const Ref ra = node[a], rb = node[b];
    return {slot(ra, ra), slot(rb, rb), slot(ra, rb), slot(rb, ra), ra.var, rb.var};
  }
  /// Node `id`'s row (and column) in [A | P ; Q] order: its reduced
  /// unknown, n + its pin, or -1 for ground.
  [[nodiscard]] int row(NodeId id) const {
    const Ref r = node[id];
    return r.var >= 0 ? r.var : r.pin >= 0 ? static_cast<int>(n) + r.pin : -1;
  }
  /// Node `id`'s phasor given the reduced solution and the pinned values.
  [[nodiscard]] Cplx value(NodeId id, const std::vector<Cplx>& x,
                           const std::vector<Cplx>& pinned) const {
    const Ref r = node[id];
    return r.var >= 0 ? x[r.var] : r.pin >= 0 ? pinned[r.pin] : Cplx{};
  }
  /// Scatter the reduced solution and the pinned values into `v`, node
  /// voltages indexed by NodeId (ground untouched).
  void voltages(const std::vector<double>& x, const std::vector<double>& pinned,
                std::vector<double>& v) const {
    for (std::size_t k = 0; k < freeNodes; ++k) v[nodeOf[k]] = x[k];
    for (std::size_t k = 0; k < pins.size(); ++k) v[pins[k].node] = pinned[k];
  }
  /// Seed the unknowns from an operating point: the free node voltages and
  /// the branch currents of the V sources left in the system.  VCVS
  /// branches keep what `x` holds.
  void seed(const DcSolution& op, std::vector<double>& x) const {
    for (std::size_t k = 0; k < freeNodes; ++k) x[k] = op.nodeVoltages[nodeOf[k]];
    for (std::size_t i = 0; i < vsourceVar.size(); ++i) {
      if (vsourceVar[i] >= 0) x[static_cast<std::size_t>(vsourceVar[i])] = op.vsourceCurrents[i];
    }
  }

  /// The value-independent stamps: gmin on every node, resistors, branch
  /// incidences and VCVS gains.
  void stampStatic(const circuit::Circuit& ckt, double gmin, double* buf) const {
    for (NodeId id = 1; id < ckt.nodeCount(); ++id) stamp(buf, slot(node[id], node[id]), gmin);
    for (const circuit::Resistor& r : ckt.resistors) {
      stampAdmittance(buf, admittance(r.a, r.b), 1.0 / r.ohms);
    }
    const auto stampBranch = [&](Ref br, NodeId pos, NodeId neg) {
      stamp(buf, slot(node[pos], br), 1.0);
      stamp(buf, slot(node[neg], br), -1.0);
      stamp(buf, slot(br, node[pos]), 1.0);
      stamp(buf, slot(br, node[neg]), -1.0);
    };
    for (std::size_t i = 0; i < ckt.vsources.size(); ++i) {
      const circuit::VSource& s = ckt.vsources[i];
      if (vsourceVar[i] >= 0) stampBranch({vsourceVar[i], -1}, s.pos, s.neg);
    }
    const int firstVcvs = static_cast<int>(n - ckt.vcvs.size());
    for (std::size_t i = 0; i < ckt.vcvs.size(); ++i) {
      const circuit::Vcvs& e = ckt.vcvs[i];
      const Ref br{firstVcvs + static_cast<int>(i), -1};
      stampBranch(br, e.pos, e.neg);
      stamp(buf, slot(br, node[e.cp]), -e.gain);
      stamp(buf, slot(br, node[e.cn]), e.gain);
    }
  }
};

StampPlan compileStampPlan(const circuit::Circuit& ckt, bool pin) {
  StampPlan plan;
  plan.node.assign(static_cast<std::size_t>(ckt.nodeCount()), Ref{});
  // With `pin`, pin every node a grounded V source holds (the first such
  // source wins; a second one on the same node stays a branch, as in full
  // MNA).
  plan.vsourceVar.assign(ckt.vsources.size(), -1);
  plan.vsourcePin.assign(ckt.vsources.size(), -1);
  for (std::size_t i = 0; pin && i < ckt.vsources.size(); ++i) {
    const circuit::VSource& s = ckt.vsources[i];
    const bool posGround = s.pos == circuit::kGround;
    if (posGround == (s.neg == circuit::kGround)) continue;
    const NodeId held = posGround ? s.neg : s.pos;
    Ref& r = plan.node[static_cast<std::size_t>(held)];
    if (r.pin >= 0) continue;
    r.pin = static_cast<int>(plan.pins.size());
    plan.vsourcePin[i] = r.pin;
    plan.pins.push_back({i, posGround ? -1.0 : 1.0, held});
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
    if (plan.vsourcePin[i] < 0) plan.vsourceVar[i] = next++;
  }
  plan.n = static_cast<std::size_t>(next) + ckt.vcvs.size();

  for (const circuit::ISource& s : ckt.isources) {
    // Current flows pos -> neg through the source.
    if (const int r = plan.node[s.pos].var; r >= 0) plan.drives.push_back({&s.wave, r, -1.0});
    if (const int r = plan.node[s.neg].var; r >= 0) plan.drives.push_back({&s.wave, r, 1.0});
  }
  for (std::size_t i = 0; i < ckt.vsources.size(); ++i) {
    const int var = plan.vsourceVar[i];
    if (var >= 0) plan.drives.push_back({&ckt.vsources[i].wave, var, 1.0});
  }
  for (const CapBranch& cb : capBranches(ckt)) plan.caps.push_back(plan.admittance(cb.a, cb.b));
  for (const circuit::Mos& m : ckt.mosfets) {
    const Ref d = plan.node[m.drain], g = plan.node[m.gate], s = plan.node[m.source],
              b = plan.node[m.bulk];
    plan.mosfets.push_back({d.var, s.var, plan.slot(d, g), plan.slot(d, d), plan.slot(d, b),
                            plan.slot(d, s), plan.slot(s, g), plan.slot(s, d), plan.slot(s, b),
                            plan.slot(s, s)});
  }
  return plan;
}

/// A small-signal excitation on the plan: the current it injects into
/// each row ([A | P ; Q] row order) and the value it holds each pinned
/// node at.
struct FoldedDrive {
  std::vector<Cplx> inject;
  std::vector<Cplx> pinned;
};

}  // namespace

/// Per-instance scratch arena.  Solves run entirely inside these buffers,
/// so steady-state Newton iterations and AC frequency points perform no
/// heap allocation.
struct Simulator::Workspace {
  // The plans, compiled on first use: DC's pins nothing; the other
  // analyses' pins every node a grounded V source holds.
  std::optional<StampPlan> dcPlan, foldedPlan;
  // DC Newton: one solve's static stamps and device cards; each
  // iteration's node voltages (by NodeId), matrix and right-hand side,
  // which the solve turns into the next iterate.
  std::vector<double> base, v, rhs;
  std::vector<tech::MosModelCard> cards;
  DenseMatrix<double> a;
  // Small-signal: one operating point's conductance and capacitance
  // stamps, each frequency's factored A and realised P and Q blocks, the
  // excitations and the reduced solution.
  std::vector<double> g, c;
  DenseMatrix<Cplx> acA;
  std::vector<Cplx> acPQ;
  std::vector<FoldedDrive> drives;
  std::vector<Cplx> acX;
  std::vector<std::size_t> perm;  ///< The latest factorization's pivots.

  const StampPlan& planFor(const circuit::Circuit& ckt, bool pin) {
    std::optional<StampPlan>& plan = pin ? foldedPlan : dcPlan;
    if (!plan) plan = compileStampPlan(ckt, pin);
    return *plan;
  }
};

Simulator::Simulator(const circuit::Circuit& circuit, const tech::Technology& technology,
                     const device::MosModel& model, SimOptions options)
    : circuit_(circuit), tech_(technology), model_(model), options_(options) {}

Simulator::~Simulator() = default;

Simulator::Workspace& Simulator::ws() const {
  if (!ws_) ws_ = std::make_unique<Workspace>();
  return *ws_;
}

device::MosOpPoint Simulator::evalMos(const circuit::Mos& mos,
                                      const std::vector<double>& v) const {
  ++stats_.dcDeviceEvaluations;
  const MosBias b = biasOf(mos, v);
  return scaleByMult(
      model_.evaluate(deviceCard(tech_, mos), mos.geo, b.vgs, b.vds, b.vbs, options_.tempK),
      mos.mult);
}

// ---------------------------------------------------------------------------
// DC: Newton iteration on the plan that pins nothing.
// ---------------------------------------------------------------------------

bool Simulator::newtonSolve(std::vector<double>& x, double gmin, double srcScale,
                            int maxIters, int* itersOut) const {
  Workspace& w = ws();
  const StampPlan& plan = w.planFor(circuit_, false);
  const std::size_t n = plan.n;
  // Constant over the solve: gmin, resistors, branches and VCVS gains, and
  // each device's card.
  w.base.assign(plan.entries(), 0.0);
  plan.stampStatic(circuit_, gmin, w.base.data());
  w.cards.clear();
  for (const circuit::Mos& m : circuit_.mosfets) w.cards.push_back(deviceCard(tech_, m));
  w.v.assign(static_cast<std::size_t>(circuit_.nodeCount()), 0.0);
  if (w.a.size() != n) w.a = DenseMatrix<double>(n);

  for (int iter = 0; iter < maxIters; ++iter) {
    std::copy(w.base.begin(), w.base.end(), w.a.data());
    w.rhs.assign(n, 0.0);
    for (const StampPlan::Drive& d : plan.drives) {
      w.rhs[d.row] += d.sign * (srcScale * d.wave->dcValue());
    }
    plan.voltages(x, {}, w.v);
    for (std::size_t i = 0; i < w.cards.size(); ++i) {
      // The stamps need only id/gm/gds/gmb: conductances() is that part
      // of evaluate().
      const circuit::Mos& m = circuit_.mosfets[i];
      const MosBias b = biasOf(m, w.v);
      const MosLinear l = linearise(
          model_.conductances(w.cards[i], m.geo, b.vgs, b.vds, b.vbs, options_.tempK), m.mult, b);
      stampMos(w.a.data(), plan.mosfets[i], l.gm, l.gds, l.gmb);
      stampIeq(w.rhs, plan.mosfets[i], l.ieq);
    }
    if (!luFactorize(w.a, w.perm)) return false;
    luSolveFactored(w.a, w.perm, w.rhs);
    const bool within = dampedUpdate(options_, plan.freeNodes, w.rhs, x);
    ++stats_.newtonIterations;
    if (itersOut) ++*itersOut;
    if (within && iter > 0) return true;
  }
  return false;
}

DcSolution Simulator::finalizeSolution(const std::vector<double>& x, int iters) const {
  const StampPlan& plan = ws().planFor(circuit_, false);
  DcSolution sol;
  sol.converged = true;
  sol.iterations = iters;
  sol.nodeVoltages.assign(circuit_.nodeCount(), 0.0);
  plan.voltages(x, {}, sol.nodeVoltages);
  sol.vsourceCurrents.resize(circuit_.vsources.size());
  for (std::size_t i = 0; i < circuit_.vsources.size(); ++i) {
    sol.vsourceCurrents[i] = x[static_cast<std::size_t>(plan.vsourceVar[i])];
  }
  sol.mosOps.reserve(circuit_.mosfets.size());
  for (const circuit::Mos& m : circuit_.mosfets) {
    sol.mosOps.push_back(evalMos(m, sol.nodeVoltages));
  }
  return sol;
}

DcSolution Simulator::dcOperatingPoint() const {
  std::vector<double> x(ws().planFor(circuit_, false).n, 0.0);
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

Simulator::WarmStart Simulator::warmStartFrom(const DcSolution& seed) const {
  if (seed.nodeVoltages.size() != static_cast<std::size_t>(circuit_.nodeCount()) ||
      seed.vsourceCurrents.size() != circuit_.vsources.size()) {
    throw std::invalid_argument("warmStartFrom: solution does not match circuit layout");
  }
  const StampPlan& plan = ws().planFor(circuit_, false);
  WarmStart warm;
  warm.x_.assign(plan.n, 0.0);
  plan.seed(seed, warm.x_);
  warm.valid_ = true;
  return warm;
}

DcSolution Simulator::dcOperatingPoint(WarmStart& warm) const {
  const StampPlan& plan = ws().planFor(circuit_, false);
  if (warm.valid_ && warm.x_.size() == plan.n) {
    // One Newton run at the final gmin, straight from the seed.
    int iters = 0;
    if (newtonSolve(warm.x_, options_.gminFloor, 1.0, options_.maxNewtonIters, &iters)) {
      ++stats_.warmStartHits;
      return finalizeSolution(warm.x_, iters);
    }
  }
  ++stats_.warmStartMisses;
  DcSolution sol = dcOperatingPoint();  // Throws when the cold ladder fails too.
  // VCVS branches keep what the refused warm Newton left, as the DC
  // sweep's continuation always has.
  if (warm.x_.size() != plan.n) warm.x_.assign(plan.n, 0.0);
  plan.seed(sol, warm.x_);
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

/// An operating point's small-signal stamps on the plan: conductances `g`
/// (the static stamps plus each MOS's gm/gds/gmb) and capacitances `c`, so
/// the system at angular frequency w is g + jwc.
void stampSmallSignal(const StampPlan& plan, const circuit::Circuit& ckt,
                      const std::vector<device::MosOpPoint>& ops, double gmin,
                      std::vector<double>& g, std::vector<double>& c) {
  g.assign(plan.entries(), 0.0);
  c.assign(plan.entries(), 0.0);
  plan.stampStatic(ckt, gmin, g.data());
  for (std::size_t k = 0; k < ckt.capacitors.size(); ++k) {
    stampAdmittance(c.data(), plan.caps[k], ckt.capacitors[k].farads);
  }
  const Admittance* mosCaps = plan.caps.data() + ckt.capacitors.size();
  for (std::size_t i = 0; i < ckt.mosfets.size(); ++i) {
    const device::MosOpPoint& op = ops[i];
    stampMos(g.data(), plan.mosfets[i], op.gm, op.gds, op.gmb);
    for (const double cap : {op.cgs, op.cgd, op.cgb, op.cdb, op.csb}) {
      stampAdmittance(c.data(), *mosCaps++, cap);
    }
  }
}

/// Realise g + jwc at angular frequency w: the reduced block A into `a`,
/// the P and Q blocks, in buffer order, into `pq`.
void realizeAc(const StampPlan& plan, const std::vector<double>& g,
               const std::vector<double>& c, double w, DenseMatrix<Cplx>& a,
               std::vector<Cplx>& pq) {
  const std::size_t nn = plan.n * plan.n;
  if (a.size() != plan.n) a = DenseMatrix<Cplx>(plan.n);
  Cplx* ad = a.data();
  for (std::size_t i = 0; i < nn; ++i) ad[i] = Cplx{g[i], w * c[i]};
  pq.resize(g.size() - nn);
  for (std::size_t i = 0; i < pq.size(); ++i) pq[i] = Cplx{g[nn + i], w * c[nn + i]};
}

/// Solve `d` against the factored A: `x` receives the reduced unknowns.
void solveFolded(const StampPlan& plan, const DenseMatrix<Cplx>& lu,
                 const std::vector<std::size_t>& perm, const std::vector<Cplx>& pq,
                 const FoldedDrive& d, std::vector<Cplx>& x) {
  const std::size_t n = plan.n, nPins = plan.pins.size();
  x.assign(d.inject.begin(), d.inject.begin() + static_cast<std::ptrdiff_t>(n));
  // Pinned columns to the right-hand side: x -= P * pinned.
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = 0; k < nPins; ++k) x[r] -= pq[r * nPins + k] * d.pinned[k];
  }
  luSolveFactored(lu, perm, x);
}

/// `ex` on the plan.  `vsource` is a kVsourceBranch excitation's source
/// (circuit.vsources index), resolved by the caller.
void foldExcitation(const StampPlan& plan, const circuit::Circuit& ckt, const AcExcitation& ex,
                    std::size_t vsource, FoldedDrive& d) {
  d.inject.assign(plan.width(), Cplx{});
  d.pinned.assign(plan.pins.size(), Cplx{});
  // A V source's excitation drives its branch row or, when the source pins
  // a node, holds that node at sign * excitation.
  const auto driveSource = [&](std::size_t i, Cplx e) {
    if (const int var = plan.vsourceVar[i]; var >= 0) {
      d.inject[static_cast<std::size_t>(var)] = e;
    } else {
      const auto k = static_cast<std::size_t>(plan.vsourcePin[i]);
      d.pinned[k] = plan.pins[k].sign * e;
    }
  };
  // Current `i` flows pos -> neg through the source.
  const auto injectCurrent = [&](NodeId pos, NodeId neg, double i) {
    if (const int r = plan.row(pos); r >= 0) d.inject[static_cast<std::size_t>(r)] -= i;
    if (const int r = plan.row(neg); r >= 0) d.inject[static_cast<std::size_t>(r)] += i;
  };
  switch (ex.kind) {
    case AcExcitation::Kind::kCircuitSources:
      for (std::size_t i = 0; i < ckt.vsources.size(); ++i) {
        const circuit::VSource& s = ckt.vsources[i];
        if (s.acMag != 0.0) driveSource(i, std::polar(s.acMag, s.acPhase * M_PI / 180.0));
      }
      for (const circuit::ISource& s : ckt.isources) {
        if (s.acMag != 0.0) injectCurrent(s.pos, s.neg, s.acMag);
      }
      break;
    case AcExcitation::Kind::kVsourceBranch:
      driveSource(vsource, Cplx{1.0, 0.0});
      break;
    case AcExcitation::Kind::kCurrentInjection:
      injectCurrent(ex.pos, ex.neg, 1.0);
      break;
  }
}

/// The AcPoint of one folded solve: pinned nodes read their excitation,
/// and a pinning source's branch current is its node's KCL residual.
AcPoint foldedAcPoint(const StampPlan& plan, const circuit::Circuit& ckt, double freq,
                      const std::vector<Cplx>& pq, const FoldedDrive& d,
                      const std::vector<Cplx>& x) {
  AcPoint p;
  p.freq = freq;
  p.nodeV.assign(ckt.nodeCount(), Cplx{});
  for (NodeId id = 1; id < ckt.nodeCount(); ++id) p.nodeV[id] = plan.value(id, x, d.pinned);
  const std::size_t n = plan.n, nPins = plan.pins.size(), w = plan.width();
  p.vsourceI.resize(ckt.vsources.size());
  for (std::size_t i = 0; i < ckt.vsources.size(); ++i) {
    if (const int var = plan.vsourceVar[i]; var >= 0) {
      p.vsourceI[i] = x[static_cast<std::size_t>(var)];
      continue;
    }
    // The pinned node's row: Q x + Q_pins pinned + sign * I = injected.
    const auto k = static_cast<std::size_t>(plan.vsourcePin[i]);
    const Cplx* q = pq.data() + n * nPins + k * w;
    Cplx residual = d.inject[n + k];
    for (std::size_t c = 0; c < n; ++c) residual -= q[c] * x[c];
    for (std::size_t j = 0; j < nPins; ++j) residual -= q[n + j] * d.pinned[j];
    p.vsourceI[i] = plan.pins[k].sign * residual;
  }
  return p;
}

}  // namespace

std::size_t Simulator::vsourceIndexOrThrow(const std::string& name,
                                           const char* context) const {
  for (std::size_t i = 0; i < circuit_.vsources.size(); ++i) {
    if (circuit_.vsources[i].name == name) return i;
  }
  throw SimulationError(std::string(context) + ": no V source named " + name);
}

void Simulator::requireNode(NodeId node, const char* context) const {
  if (node < 0 || node >= circuit_.nodeCount()) {
    throw SimulationError(std::string(context) + ": node out of range");
  }
}

void Simulator::requireOperatingPoint(const DcSolution& op) const {
  if (op.nodeVoltages.size() != static_cast<std::size_t>(circuit_.nodeCount()) ||
      op.vsourceCurrents.size() != circuit_.vsources.size() ||
      op.mosOps.size() != circuit_.mosfets.size()) {
    throw std::invalid_argument("small-signal analysis: operating point does not match "
                                "circuit layout");
  }
}

std::vector<std::vector<AcPoint>> Simulator::acSolveGrid(
    const DcSolution& op, const std::vector<AcExcitation>& excitations,
    const std::vector<double>& freqs, const std::string& failPrefix) const {
  Workspace& w = ws();
  const StampPlan& plan = w.planFor(circuit_, true);
  // Resolve every excitation onto the plan once (the public callers
  // validated them).
  w.drives.resize(excitations.size());
  for (std::size_t e = 0; e < excitations.size(); ++e) {
    const AcExcitation& ex = excitations[e];
    const std::size_t vsource = ex.kind == AcExcitation::Kind::kVsourceBranch
                                    ? vsourceIndexOrThrow(ex.vsource, "acBatch")
                                    : 0;
    foldExcitation(plan, circuit_, ex, vsource, w.drives[e]);
  }
  stampSmallSignal(plan, circuit_, op.mosOps, options_.gminFloor, w.g, w.c);

  std::vector<std::vector<AcPoint>> out(excitations.size());
  for (auto& curve : out) curve.reserve(freqs.size());
  for (double f : freqs) {
    // One factorization per frequency; every excitation reuses it.
    realizeAc(plan, w.g, w.c, 2.0 * M_PI * f, w.acA, w.acPQ);
    if (!luFactorize(w.acA, w.perm)) {
      throw SimulationError(failPrefix + std::to_string(f));
    }
    ++stats_.luFactorizations;
    for (std::size_t e = 0; e < excitations.size(); ++e) {
      solveFolded(plan, w.acA, w.perm, w.acPQ, w.drives[e], w.acX);
      ++stats_.luSolves;
      ++stats_.acPoints;
      out[e].push_back(foldedAcPoint(plan, circuit_, f, w.acPQ, w.drives[e], w.acX));
    }
  }
  return out;
}

std::vector<AcPoint> Simulator::ac(const DcSolution& op, double fStart, double fStop,
                                   int pointsPerDecade) const {
  requireOperatingPoint(op);
  return std::move(acSolveGrid(op, {AcExcitation::circuitSources()},
                               logGrid(fStart, fStop, pointsPerDecade),
                               "AC solve failed at f=")[0]);
}

std::vector<AcPoint> Simulator::acFrom(const DcSolution& op,
                                       const std::string& sourceName, double fStart,
                                       double fStop, int pointsPerDecade) const {
  (void)vsourceIndexOrThrow(sourceName, "acFrom");
  requireOperatingPoint(op);
  return std::move(acSolveGrid(op, {AcExcitation::unitVsource(sourceName)},
                               logGrid(fStart, fStop, pointsPerDecade),
                               "acFrom solve failed at f=")[0]);
}

std::vector<std::vector<AcPoint>> Simulator::acBatch(
    const DcSolution& op, const std::vector<AcExcitation>& excitations, double fStart,
    double fStop, int pointsPerDecade) const {
  for (const AcExcitation& ex : excitations) {
    if (ex.kind == AcExcitation::Kind::kVsourceBranch) {
      (void)vsourceIndexOrThrow(ex.vsource, "acBatch");
    } else if (ex.kind == AcExcitation::Kind::kCurrentInjection) {
      requireNode(ex.pos, "acBatch");
      requireNode(ex.neg, "acBatch");
    }
  }
  requireOperatingPoint(op);
  return acSolveGrid(op, excitations, logGrid(fStart, fStop, pointsPerDecade),
                     "acBatch solve failed at f=");
}

// ---------------------------------------------------------------------------
// Noise (adjoint method).
// ---------------------------------------------------------------------------

std::vector<NoisePoint> Simulator::noise(const DcSolution& op, circuit::NodeId out,
                                         const std::string& inputVsrc, double fStart,
                                         double fStop, int pointsPerDecade) const {
  const std::size_t inputIndex = vsourceIndexOrThrow(inputVsrc, "noise");
  requireOperatingPoint(op);
  requireNode(out, "noise");
  const std::vector<double> freqs = logGrid(fStart, fStop, pointsPerDecade);
  const double kT4 = 4.0 * kBoltzmann * options_.tempK;

  // The folded system, driven by a unit excitation on the input.
  Workspace& wk = ws();
  const StampPlan& plan = wk.planFor(circuit_, true);
  wk.drives.resize(1);
  foldExcitation(plan, circuit_, AcExcitation::unitVsource(inputVsrc), inputIndex,
                 wk.drives[0]);
  stampSmallSignal(plan, circuit_, op.mosOps, options_.gminFloor, wk.g, wk.c);
  const int outVar = plan.node[out].var;

  std::vector<NoisePoint> result;
  result.reserve(freqs.size());
  for (double f : freqs) {
    realizeAc(plan, wk.g, wk.c, 2.0 * M_PI * f, wk.acA, wk.acPQ);
    if (!luFactorize(wk.acA, wk.perm)) throw SimulationError("noise: forward solve failed");
    ++stats_.luFactorizations;
    solveFolded(plan, wk.acA, wk.perm, wk.acPQ, wk.drives[0], wk.acX);
    ++stats_.luSolves;
    const Cplx gain = plan.value(out, wk.acX, wk.drives[0].pinned);

    // Adjoint on the same factors: solve A^T z = e_out; |z_p - z_q|^2 is
    // the squared transfer from a unit current injected between (p, q) to
    // the output voltage.  A pinned output never moves, so every transfer
    // to it is zero.
    wk.acX.assign(plan.n, Cplx{});
    if (outVar >= 0) {
      wk.acX[static_cast<std::size_t>(outVar)] = Cplx{1.0, 0.0};
      luSolveFactoredTransposed(wk.acA, wk.perm, wk.acX);
      ++stats_.luSolves;
    }

    // A current injected into ground or a pinned node moves nothing: its z
    // is zero.
    auto z = [&](NodeId n) {
      const int var = plan.node[n].var;
      return var >= 0 ? wk.acX[static_cast<std::size_t>(var)] : Cplx{};
    };
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

std::vector<TranPoint> Simulator::transient(double tStop, double dt) const {
  if (tStop <= 0 || dt <= 0) throw std::invalid_argument("transient: bad time arguments");
  // Refuses a NaN or infinite count too: the loops cast it to int.
  if (!(std::ceil(tStop / dt) <= std::numeric_limits<int>::max())) {
    throw std::invalid_argument("transient: step count does not fit in an int");
  }
  const StampPlan& plan = ws().planFor(circuit_, true);
  std::vector<CapBranch> caps = capBranches(circuit_);
  const std::size_t mosCapBase = circuit_.capacitors.size();
  const std::size_t n = plan.n;
  const std::size_t nPins = plan.pins.size();
  const std::size_t nMos = circuit_.mosfets.size();
  stats_.tranUnknowns = static_cast<long>(n);
  std::vector<tech::MosModelCard> cards;
  cards.reserve(nMos);
  for (const circuit::Mos& m : circuit_.mosfets) cards.push_back(deviceCard(tech_, m));
  std::vector<double> base(plan.entries(), 0.0);
  plan.stampStatic(circuit_, options_.gminFloor, base.data());

  // Start from the DC operating point.  `v` holds every node voltage by
  // NodeId (ground included) for device evaluation and capacitor history;
  // `x` holds the reduced unknowns.
  const DcSolution op0 = dcOperatingPoint();
  std::vector<double> v = op0.nodeVoltages;
  std::vector<double> x(n, 0.0);
  plan.seed(op0, x);

  // Steps of dt, the last one ending at tStop.  A remainder within
  // rounding of zero adds no step (1.1e-6 / 1e-7 reads 11.000000000000002);
  // a last step within rounding of dt (tStop a multiple of dt) keeps dt,
  // and with it every other step's stamps; any other last step integrates
  // over its own, shorter length.
  const int steps = std::max(1, static_cast<int>(std::ceil(tStop / dt - 1e-9)));
  const double lastStep = tStop - (steps - 1) * dt;
  const bool shortLast = lastStep < dt * (1.0 - 1e-9);
  std::vector<TranPoint> out;
  out.reserve(static_cast<std::size_t>(steps) + 1);
  out.push_back({0.0, v});

  DenseMatrix<double> a(n);
  std::vector<double> stepBuf, work, stepRhs(n), rhs(n), pinV(nPins), vPrev;
  std::vector<std::size_t> perm;

  // Each device's latest evaluation.  A device is evaluated again only
  // when one of its terminals has moved past the Newton tolerance since
  // then; until it does, its record's linearisation is stamped as it
  // stands.  `capsBehind`: the step's capacitor stamps are not built yet,
  // or some record is newer than them.  `refactor`: some stamp changed
  // since the factors in `a`.
  std::vector<MosRecord> dev(nMos);
  bool capsBehind = true, refactor = true;
  const auto still = [&](double now, double then) {
    return std::abs(now - then) <= options_.absTolV + options_.relTol * std::abs(now);
  };
  const auto refresh = [&](std::size_t i) {
    const circuit::Mos& m = circuit_.mosfets[i];
    MosRecord& r = dev[i];
    if (still(v[m.drain], r.vd) && still(v[m.gate], r.vg) && still(v[m.source], r.vs) &&
        still(v[m.bulk], r.vb)) {
      return;
    }
    r.vd = v[m.drain];
    r.vg = v[m.gate];
    r.vs = v[m.source];
    r.vb = v[m.bulk];
    const MosBias b = biasOf(m, v);
    const device::MosOpPoint op =
        model_.evaluate(cards[i], m.geo, b.vgs, b.vds, b.vbs, options_.tempK);
    r.lin = linearise(op, m.mult, b);
    r.caps = {op.cgs * m.mult, op.cgd * m.mult, op.cgb * m.mult, op.cdb * m.mult,
              op.csb * m.mult};
    ++stats_.tranDeviceEvaluations;
    capsBehind = refactor = true;
  };

  for (int step = 1; step <= steps; ++step) {
    const double t = std::min(step * dt, tStop);
    const double h = step == steps && shortLast ? lastStep : dt;
    if (h != dt) capsBehind = true;  // The companions' 2C/h change.
    for (std::size_t k = 0; k < nPins; ++k) {
      pinV[k] = plan.pins[k].sign * circuit_.vsources[plan.pins[k].vsource].wave.at(t);
    }
    // Step start.  A converged step ends within tolerance of its last
    // iterate, so only the first step evaluates here.
    for (std::size_t i = 0; i < nMos; ++i) refresh(i);
    // The step's capacitances: every device's latest, held for the step
    // and its commit (a later evaluation waits for the next step).
    if (capsBehind) {
      for (std::size_t i = 0; i < nMos; ++i) {
        for (std::size_t k = 0; k < 5; ++k) caps[mosCapBase + 5 * i + k].c = dev[i].caps[k];
      }
      stepBuf = base;
      for (std::size_t k = 0; k < caps.size(); ++k) {
        if (caps[k].c > 0) stampAdmittance(stepBuf.data(), plan.caps[k], 2.0 * caps[k].c / h);
      }
      capsBehind = false;
      refactor = true;
    }
    vPrev = v;

    // Everything else constant over the step: sources at t and the
    // capacitor companions' history currents.
    std::fill(stepRhs.begin(), stepRhs.end(), 0.0);
    for (const StampPlan::Drive& d : plan.drives) stepRhs[d.row] += d.sign * d.wave->at(t);
    for (std::size_t k = 0; k < caps.size(); ++k) {
      const CapBranch& cb = caps[k];
      if (cb.c <= 0) continue;
      const double geq = 2.0 * cb.c / h;
      const double ieq = geq * (vPrev[cb.a] - vPrev[cb.b]) + cb.iPrev;
      const Admittance& y = plan.caps[k];
      if (y.rowA >= 0) stepRhs[y.rowA] += ieq;
      if (y.rowB >= 0) stepRhs[y.rowB] -= ieq;
    }

    bool converged = false;
    for (int iter = 0; iter < options_.maxNewtonIters; ++iter) {
      if (iter > 0) {
        for (std::size_t i = 0; i < nMos; ++i) refresh(i);
      }
      // Unchanged stamps keep their factors: only the right-hand side is new.
      if (refactor) {
        work = stepBuf;
        for (std::size_t i = 0; i < nMos; ++i) {
          const MosLinear& l = dev[i].lin;
          stampMos(work.data(), plan.mosfets[i], l.gm, l.gds, l.gmb);
        }
        std::copy(work.begin(), work.begin() + static_cast<std::ptrdiff_t>(n * n), a.data());
        if (!luFactorize(a, perm)) throw SimulationError("transient: singular matrix");
        ++stats_.tranFactorizations;
        refactor = false;
      }
      rhs = stepRhs;
      for (std::size_t i = 0; i < nMos; ++i) stampIeq(rhs, plan.mosfets[i], dev[i].lin.ieq);
      // Pinned columns to the right-hand side: rhs -= P * pinned.
      const double* p = work.data() + n * n;
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t k = 0; k < nPins; ++k) rhs[r] -= p[r * nPins + k] * pinV[k];
      }
      luSolveFactored(a, perm, rhs);
      ++stats_.tranNewtonIterations;
      const bool within = dampedUpdate(options_, plan.freeNodes, rhs, x);
      plan.voltages(x, pinV, v);
      if (within && iter > 0) {
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
      const double geq = 2.0 * cb.c / h;
      const double vPrevAb = vPrev[cb.a] - vPrev[cb.b];
      const double vNow = v[cb.a] - v[cb.b];
      cb.iPrev = geq * (vNow - vPrevAb) - cb.iPrev;
    }
    ++stats_.tranSteps;
    out.push_back({t, v});
  }
  return out;
}

}  // namespace lo::sim
