// Golden-value harness for the simulator hot-path rewrite.
//
// SolverMode::kReference keeps the pre-optimization full-MNA solve path
// alive verbatim.  DC operating points and sweeps must match it BIT FOR
// BIT -- full double precision, byte-identical -- on both amplifier
// topologies.  The fast transient, AC, noise and AC-batch paths solve a
// folded system instead (nodes held by grounded V sources leave the LU),
// so they part from full MNA at LU rounding: small-signal phasors are held
// to kSmallSignalTol of their curve's largest magnitude, and noise PSDs and
// measured figures to kSmallSignalTol relative.  The fast transient also
// stamps a device's last evaluation until the device moves past the Newton
// tolerance, so its samples are held to that tolerance where the circuit
// moves, and to kTranTolV on the AC testbenches, whose sources hold
// still.  The companion system-level proof is the
// differential oracle's engine_reference_solver path (testkit), which
// compares whole engine runs over the 50-point corpus.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "circuit/ota.hpp"
#include "circuit/two_stage.hpp"
#include "core/engine.hpp"
#include "core/topology.hpp"
#include "device/folding.hpp"
#include "sim/measure.hpp"
#include "sim/simulator.hpp"
#include "sizing/ota_sizer.hpp"
#include "sizing/two_stage.hpp"
#include "sizing/verify.hpp"
#include "tech/technology.hpp"
#include "verify/verify.hpp"

namespace lo::sim {
namespace {

using circuit::Circuit;
using circuit::NodeId;
using circuit::Waveform;

const tech::Technology kTech = tech::Technology::generic060();

// ---------------------------------------------------------------------------
// Bit-level comparison plumbing.  EXPECT_EQ on doubles would call -0.0 and
// +0.0 equal; the golden contract is byte identity, so compare the bits.

[[nodiscard]] std::uint64_t bitsOf(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

#define EXPECT_BIT_EQ(a, b) \
  EXPECT_EQ(bitsOf(a), bitsOf(b)) << #a " = " << (a) << " vs " #b " = " << (b)

/// FNV-1a over raw double bytes: the "digest" half of the byte-identity
/// proof -- two solution sets agree iff their digests agree.
class Fnv1a {
 public:
  void add(double v) {
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &v, sizeof(double));
    for (unsigned char byte : bytes) {
      h_ ^= byte;
      h_ *= 1099511628211ULL;
    }
  }
  void add(const std::complex<double>& v) {
    add(v.real());
    add(v.imag());
  }
  template <typename T>
  void add(const std::vector<T>& vs) {
    for (const T& v : vs) add(v);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

void digestSolution(Fnv1a& h, const DcSolution& sol) {
  h.add(static_cast<double>(sol.iterations));
  h.add(sol.nodeVoltages);
  h.add(sol.vsourceCurrents);
  for (const device::MosOpPoint& op : sol.mosOps) {
    h.add(op.id);
    h.add(op.vgs);
    h.add(op.vds);
    h.add(op.vbs);
    h.add(op.vth);
    h.add(op.veff);
    h.add(op.vdsat);
    h.add(op.gm);
    h.add(op.gds);
    h.add(op.gmb);
    h.add(op.cgs);
    h.add(op.cgd);
    h.add(op.cgb);
    h.add(op.cdb);
    h.add(op.csb);
    h.add(op.thermalNoisePsd);
    h.add(op.flickerCoeff);
  }
}

void expectSolutionBitEqual(const DcSolution& a, const DcSolution& b) {
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.iterations, b.iterations);
  ASSERT_EQ(a.nodeVoltages.size(), b.nodeVoltages.size());
  for (std::size_t i = 0; i < a.nodeVoltages.size(); ++i) {
    EXPECT_BIT_EQ(a.nodeVoltages[i], b.nodeVoltages[i]);
  }
  ASSERT_EQ(a.vsourceCurrents.size(), b.vsourceCurrents.size());
  for (std::size_t i = 0; i < a.vsourceCurrents.size(); ++i) {
    EXPECT_BIT_EQ(a.vsourceCurrents[i], b.vsourceCurrents[i]);
  }
  ASSERT_EQ(a.mosOps.size(), b.mosOps.size());
  Fnv1a ha, hb;
  digestSolution(ha, a);
  digestSolution(hb, b);
  EXPECT_EQ(ha.value(), hb.value()) << "mos op digests diverge";
}

/// Bound between the folded small-signal solve and full MNA, relative to
/// the largest magnitude of any phasor in the curve, node voltage or branch
/// current (phasors), or to the value itself (noise PSDs, gains and
/// measured figures).  A pinned source's branch current is a KCL residual,
/// so its error scales with the largest current into its node: the
/// amplifier testbenches' 1 F feedback capacitor carries far more than the
/// common-mode source it hangs off.
constexpr double kSmallSignalTol = 1e-9;

#define EXPECT_REL_NEAR(a, b)                                  \
  EXPECT_LE(std::abs((a) - (b)), kSmallSignalTol * std::abs(b)) \
      << #a " = " << (a) << " vs " #b " = " << (b)

void expectAcWithin(const std::vector<AcPoint>& a, const std::vector<AcPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  double scale = 0.0;
  for (const AcPoint& p : b) {
    for (const auto& v : p.nodeV) scale = std::max(scale, std::abs(v));
    for (const auto& i : p.vsourceI) scale = std::max(scale, std::abs(i));
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_BIT_EQ(a[i].freq, b[i].freq);
    ASSERT_EQ(a[i].nodeV.size(), b[i].nodeV.size());
    for (std::size_t n = 0; n < a[i].nodeV.size(); ++n) {
      EXPECT_LE(std::abs(a[i].nodeV[n] - b[i].nodeV[n]), kSmallSignalTol * scale)
          << "f=" << a[i].freq << " node " << n;
    }
    ASSERT_EQ(a[i].vsourceI.size(), b[i].vsourceI.size());
    for (std::size_t n = 0; n < a[i].vsourceI.size(); ++n) {
      EXPECT_LE(std::abs(a[i].vsourceI[n] - b[i].vsourceI[n]), kSmallSignalTol * scale)
          << "f=" << a[i].freq << " source " << n;
    }
  }
}

void expectNoiseWithin(const std::vector<NoisePoint>& a, const std::vector<NoisePoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_BIT_EQ(a[i].freq, b[i].freq);
    EXPECT_REL_NEAR(a[i].outputPsd, b[i].outputPsd);
    EXPECT_REL_NEAR(a[i].inputRefPsd, b[i].inputRefPsd);
    EXPECT_REL_NEAR(a[i].gainMag, b[i].gainMag);
  }
}

/// Per-sample bound between the folded and the full-MNA transient on a
/// circuit that sits at its operating point: the two solve different (but
/// equivalent) linear systems, so they part at LU rounding, far inside the
/// Newton tolerance.
constexpr double kTranTolV = 1e-9;

void expectTranWithin(const std::vector<TranPoint>& a, const std::vector<TranPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_BIT_EQ(a[i].time, b[i].time);
    ASSERT_EQ(a[i].nodeV.size(), b[i].nodeV.size());
    for (std::size_t n = 0; n < a[i].nodeV.size(); ++n) {
      EXPECT_NEAR(a[i].nodeV[n], b[i].nodeV[n], kTranTolV)
          << "t=" << a[i].time << " node " << n;
    }
  }
}

// ---------------------------------------------------------------------------
// Shared sized designs (sizing is deterministic; one run serves the suite).

struct Designs {
  std::unique_ptr<device::MosModel> model = device::MosModel::create("ekv");
  sizing::SizingResult ota;
  sizing::TwoStageSizingResult twoStage;
  Designs() {
    sizing::OtaSizer sizer(kTech, *model);
    ota = sizer.size(sizing::OtaSpecs{}, sizing::SizingPolicy::case2());
    sizing::TwoStageSizer ts(kTech, *model);
    twoStage = ts.size(sizing::OtaSpecs{}, sizing::SizingPolicy::case2());
  }
};

const Designs& designs() {
  static Designs d;
  return d;
}

[[nodiscard]] SimOptions optionsFor(SolverMode mode) {
  SimOptions opt;
  opt.tempK = kTech.temperature;
  opt.solver = mode;
  return opt;
}

/// The full golden sweep for one amplifier AC testbench: every analysis the
/// verification tier runs, fast vs reference -- DC bit for bit, the rest
/// within their bounds.  `c` carries the
/// differential excitation (VDIFF acMag=1); `quiet` is the same testbench
/// with every acMag zeroed, for the probe-circuit comparison.  Both must
/// expose "out" and V sources "VDIFF" / "VDD" / "VCM".
void runGoldenSuite(const Circuit& c, const Circuit& quiet,
                    const device::MosModel& model) {
  const NodeId out = *c.findNode("out");
  Simulator fast(c, kTech, model, optionsFor(SolverMode::kFast));
  Simulator ref(c, kTech, model, optionsFor(SolverMode::kReference));

  // DC operating point, including the full per-device small-signal set.
  const DcSolution opF = fast.dcOperatingPoint();
  const DcSolution opR = ref.dcOperatingPoint();
  expectSolutionBitEqual(opF, opR);

  // Full-band differential AC via the circuit's own sources.
  expectAcWithin(fast.ac(opF, 10.0, 1e9, 6), ref.ac(opR, 10.0, 1e9, 6));

  // Excitation moved onto a branch at solve time.
  expectAcWithin(fast.acFrom(opF, "VDD", 10.0, 1e4, 4),
                 ref.acFrom(opR, "VDD", 10.0, 1e4, 4));

  // A whole excitation block against the equivalent individual reference
  // calls (one factorization per frequency serves every curve), and bit
  // for bit against the equivalent individual fast calls.
  const std::vector<AcExcitation> block = {
      AcExcitation::circuitSources(),
      AcExcitation::unitVsource("VCM"),
      AcExcitation::unitVsource("VDD"),
      AcExcitation::unitCurrent(circuit::kGround, out),
  };
  const auto batch = fast.acBatch(opF, block, 10.0, 1e4, 4);
  ASSERT_EQ(batch.size(), block.size());
  expectAcWithin(batch[0], ref.ac(opR, 10.0, 1e4, 4));
  expectAcWithin(batch[1], ref.acFrom(opR, "VCM", 10.0, 1e4, 4));
  expectAcWithin(batch[2], ref.acFrom(opR, "VDD", 10.0, 1e4, 4));
  const auto vddFast = fast.acFrom(opF, "VDD", 10.0, 1e4, 4);
  for (std::size_t i = 0; i < vddFast.size(); ++i) {
    for (std::size_t n = 0; n < vddFast[i].nodeV.size(); ++n) {
      EXPECT_BIT_EQ(batch[2][i].nodeV[n].real(), vddFast[i].nodeV[n].real());
      EXPECT_BIT_EQ(batch[2][i].nodeV[n].imag(), vddFast[i].nodeV[n].imag());
    }
  }
  // Reference rout probe: the pre-PR idiom was a dedicated IPROBE current
  // source baked into an otherwise quiet netlist; unitCurrent replaces it.
  // The current injection ignores the circuit's own acMags, so it must
  // match a reference run over the quiet copy with the probe baked in.
  Circuit probed = quiet;
  probed.addISource("IPROBE", circuit::kGround, out, Waveform::makeDc(0.0), 1.0);
  Simulator refProbe(probed, kTech, model, optionsFor(SolverMode::kReference));
  const DcSolution opP = refProbe.dcOperatingPoint();
  const auto routRef = refProbe.ac(opP, 10.0, 1e4, 4);
  ASSERT_EQ(batch[3].size(), routRef.size());
  for (std::size_t i = 0; i < routRef.size(); ++i) {
    EXPECT_REL_NEAR(std::abs(batch[3][i].at(out)), std::abs(routRef[i].at(out)));
  }

  // Noise (adjoint method) and its band integral.
  const auto nzF = fast.noise(opF, out, "VDIFF", 1.0, 1e8, 8);
  const auto nzR = ref.noise(opR, out, "VDIFF", 1.0, 1e8, 8);
  expectNoiseWithin(nzF, nzR);
  EXPECT_REL_NEAR(integratePsd(nzF, 1.0, 1e7, true), integratePsd(nzR, 1.0, 1e7, true));
  EXPECT_REL_NEAR(integratePsd(nzF, 1.0, 1e7, false), integratePsd(nzR, 1.0, 1e7, false));

  // Transient (trapezoidal, DC-op initial condition).
  expectTranWithin(fast.transient(50e-9, 0.5e-9), ref.transient(50e-9, 0.5e-9));

  // The fast path must actually have taken the fast path.
  EXPECT_GT(fast.stats().luFactorizations, 0);
  EXPECT_GT(fast.stats().luSolves, fast.stats().luFactorizations);
  EXPECT_EQ(ref.stats().luFactorizations, 0);
}

TEST(SimGolden, FoldedCascodeSuiteBitIdenticalAcrossSolverModes) {
  sizing::OtaVerifier v(kTech, *designs().model);
  const Circuit c = v.buildAcTestbench(designs().ota.design, nullptr, 1.0, 0.0, 0.0);
  const Circuit quiet = v.buildAcTestbench(designs().ota.design, nullptr, 0.0, 0.0, 0.0);
  runGoldenSuite(c, quiet, *designs().model);
}

TEST(SimGolden, TwoStageSuiteBitIdenticalAcrossSolverModes) {
  const circuit::TwoStageOtaDesign& d = designs().twoStage.design;
  const sizing::AmpInstantiateFn instantiate = [&](Circuit& cc) {
    circuit::instantiateTwoStage(cc, d);
  };
  const Circuit c =
      sizing::buildAmpAcTestbench(instantiate, d.inputCm, nullptr, 1.0, 0.0, 0.0);
  const Circuit quiet =
      sizing::buildAmpAcTestbench(instantiate, d.inputCm, nullptr, 0.0, 0.0, 0.0);
  runGoldenSuite(c, quiet, *designs().model);
}

TEST(SimGolden, DcSweepBitIdenticalAcrossSolverModes) {
  // CMOS inverter transfer curve: the sweep exercises the warm-start
  // continuation on the fast side against the fresh-simulator-per-point
  // reference implementation.
  Circuit c;
  const auto in = c.node("in"), out = c.node("out"), vdd = c.node("vdd");
  device::MosGeometry gn, gp;
  gn.w = 10e-6;
  gn.l = 0.6e-6;
  device::applyUnfoldedGeometry(kTech.rules, gn);
  gp = gn;
  gp.w = 25e-6;
  device::applyUnfoldedGeometry(kTech.rules, gp);
  c.addVSource("VDD", vdd, circuit::kGround, Waveform::makeDc(3.3));
  c.addVSource("VIN", in, circuit::kGround, Waveform::makeDc(0.0));
  c.addMos("MN", out, in, circuit::kGround, circuit::kGround, tech::MosType::kNmos, gn);
  c.addMos("MP", out, in, vdd, vdd, tech::MosType::kPmos, gp);

  for (const char* modelName : {"level1", "ekv"}) {
    const auto model = device::MosModel::create(modelName);
    Simulator fast(c, kTech, *model, optionsFor(SolverMode::kFast));
    Simulator ref(c, kTech, *model, optionsFor(SolverMode::kReference));
    const auto sweepF = fast.dcSweep("VIN", 0.0, 3.3, 34);
    const auto sweepR = ref.dcSweep("VIN", 0.0, 3.3, 34);
    ASSERT_EQ(sweepF.size(), sweepR.size());
    for (std::size_t i = 0; i < sweepF.size(); ++i) {
      EXPECT_BIT_EQ(sweepF[i].value, sweepR[i].value);
      expectSolutionBitEqual(sweepF[i].solution, sweepR[i].solution);
    }
  }
}

TEST(SimGolden, AnalyticConductancesMatchCentralDifferences) {
  // The analytic gm/gds/gmb against central differences of
  // currentNormalized (h = 1e-6, the step the model's old stencil used,
  // with its clamps), over a seeded grid that covers reverse mode
  // (vds < 0, where the source/drain swap engages), cutoff and weak
  // inversion.  The difference is fourth order: the old three-point
  // stencil's own h^2 error reaches 1.5e-7 of gds on this grid, at a
  // weak-inversion Level-1 PMOS whose triode knee sits within a few mV of
  // vds = 0 (it converges on the analytic value as h shrinks).
  std::mt19937 rng(2024);
  std::uniform_real_distribution<double> uVgs(-0.5, 3.0);
  std::uniform_real_distribution<double> uVds(-2.0, 2.0);
  std::uniform_real_distribution<double> uVbs(-2.0, 0.0);
  constexpr double h = 1e-6;

  device::MosGeometry geo;
  geo.w = 40e-6;
  geo.l = 1.2e-6;
  device::applyUnfoldedGeometry(kTech.rules, geo);

  for (const char* modelName : {"level1", "ekv"}) {
    const auto model = device::MosModel::create(modelName);
    for (const tech::MosModelCard* card : {&kTech.nmos, &kTech.pmos}) {
      for (int i = 0; i < 5000; ++i) {
        const double bias[3] = {uVgs(rng), uVds(rng), uVbs(rng)};
        // d/d(bias[k]) of the normalised current.
        const auto stencil = [&](int k) {
          const auto id = [&](double step) {
            double v[3] = {bias[0], bias[1], bias[2]};
            v[k] += step;
            return model->currentNormalized(*card, geo, v[0], v[1], v[2], 300.15);
          };
          return (8.0 * (id(h) - id(-h)) - (id(2 * h) - id(-2 * h))) / (12.0 * h);
        };
        const double gm = std::max(stencil(0), 0.0);
        const double gds = std::max(stencil(1), 1e-15);
        const double gmb = std::max(stencil(2), 0.0);
        // conductances() takes real-polarity voltages.
        const double p = card->polarity();
        const device::MosConductance a =
            model->conductances(*card, geo, p * bias[0], p * bias[1], p * bias[2], 300.15);
        EXPECT_BIT_EQ(a.id, p * model->currentNormalized(*card, geo, bias[0], bias[1],
                                                          bias[2], 300.15));
        const double bound = 1e-7 * std::max({a.gm, a.gds, a.gmb}) + 1e-15;
        for (const auto& [analytic, numeric] :
             {std::pair{a.gm, gm}, std::pair{a.gds, gds}, std::pair{a.gmb, gmb}}) {
          EXPECT_LE(std::abs(analytic - numeric), bound)
              << modelName << " vgs=" << bias[0] << " vds=" << bias[1] << " vbs=" << bias[2]
              << " analytic=" << analytic << " stencil=" << numeric;
        }
      }
    }
  }
}

TEST(SimGolden, MeasureAmplifierMatchesLegacyFourCircuitStructure) {
  // measureAmplifier used to bake each excitation into its own testbench
  // copy (diff acMag=1, cm acMag=1, acFrom supply, IPROBE rout circuit) and
  // solve a fresh DC op for every one.  The restructured single-testbench /
  // acBatch flow must reproduce those numbers exactly.  This replays the
  // legacy structure inline on the reference solver and compares against
  // measureAmplifier in BOTH solver modes.
  const auto& d = designs().ota.design;
  const device::MosModel& model = *designs().model;
  const sizing::AmpInstantiateFn instantiate = [&](Circuit& c) {
    circuit::instantiateOta(c, d);
  };
  const sizing::VerifyOptions vOpt;
  const double fLow = vOpt.fStart;

  double legacyGainDb = 0.0, legacyGbw = 0.0, legacyPm = 0.0, legacyOffset = 0.0;
  double legacyPower = 0.0, legacyCmrr = 0.0, legacyPsrr = 0.0, legacyRout = 0.0;
  {  // Differential open-loop circuit with acMag baked onto VDIFF.
    const Circuit c =
        sizing::buildAmpAcTestbench(instantiate, d.inputCm, nullptr, 1.0, 0.0, 0.0);
    Simulator sim(c, kTech, model, optionsFor(SolverMode::kReference));
    const DcSolution op = sim.dcOperatingPoint();
    const NodeId out = *c.findNode("out");
    legacyOffset = (op.voltage(*c.findNode("inp")) - op.voltage(out)) * 1e3;
    for (std::size_t i = 0; i < c.vsources.size(); ++i) {
      if (c.vsources[i].name == "VDD") {
        legacyPower = std::abs(op.vsourceCurrents[i]) * d.vdd * 1e3;
      }
    }
    const auto ac = sim.ac(op, fLow, vOpt.fStop, vOpt.pointsPerDecade);
    const AcCurve adm = curveAt(ac, out);
    legacyGainDb = toDb(dcGain(adm));
    legacyGbw = unityGainFrequency(adm);
    legacyPm = phaseMarginDeg(adm);
  }
  {  // Common-mode circuit with acMag baked onto VCM.
    const Circuit c =
        sizing::buildAmpAcTestbench(instantiate, d.inputCm, nullptr, 0.0, 1.0, 0.0);
    Simulator sim(c, kTech, model, optionsFor(SolverMode::kReference));
    const DcSolution op = sim.dcOperatingPoint();
    const auto ac = sim.ac(op, fLow, 10.0 * fLow, 4);
    const double acm = dcGain(curveAt(ac, *c.findNode("out")));
    legacyCmrr = toDb(std::pow(10.0, legacyGainDb / 20.0) / std::max(acm, 1e-12));
  }
  {  // Supply rejection via acFrom on a quiet circuit.
    const Circuit c =
        sizing::buildAmpAcTestbench(instantiate, d.inputCm, nullptr, 0.0, 0.0, 0.0);
    Simulator sim(c, kTech, model, optionsFor(SolverMode::kReference));
    const DcSolution op = sim.dcOperatingPoint();
    const auto ac = sim.acFrom(op, "VDD", fLow, 10.0 * fLow, 4);
    const double avdd = dcGain(curveAt(ac, *c.findNode("out")));
    legacyPsrr = toDb(std::pow(10.0, legacyGainDb / 20.0) / std::max(avdd, 1e-12));
  }
  {  // Output resistance via the baked-in IPROBE current source.
    const Circuit c =
        sizing::buildAmpAcTestbench(instantiate, d.inputCm, nullptr, 0.0, 0.0, 1.0);
    Simulator sim(c, kTech, model, optionsFor(SolverMode::kReference));
    const DcSolution op = sim.dcOperatingPoint();
    const auto ac = sim.ac(op, fLow, 10.0 * fLow, 4);
    legacyRout = std::abs(ac.front().at(*c.findNode("out"))) / 1e6;
  }

  for (const bool reference : {false, true}) {
    sizing::VerifyOptions opt;
    opt.referenceSolver = reference;
    const sizing::OtaPerformance p = sizing::measureAmplifier(
        kTech, model, instantiate, d.inputCm, d.vdd, nullptr, opt);
    SCOPED_TRACE(reference ? "referenceSolver" : "fastSolver");
    EXPECT_BIT_EQ(p.offsetMv, legacyOffset);
    EXPECT_BIT_EQ(p.powerMw, legacyPower);
    if (reference) {
      EXPECT_BIT_EQ(p.dcGainDb, legacyGainDb);
      EXPECT_BIT_EQ(p.gbwHz, legacyGbw);
      EXPECT_BIT_EQ(p.phaseMarginDeg, legacyPm);
      EXPECT_BIT_EQ(p.cmrrDb, legacyCmrr);
      EXPECT_BIT_EQ(p.psrrDb, legacyPsrr);
      EXPECT_BIT_EQ(p.outputResistanceMOhm, legacyRout);
    } else {
      EXPECT_REL_NEAR(p.dcGainDb, legacyGainDb);
      EXPECT_REL_NEAR(p.gbwHz, legacyGbw);
      EXPECT_REL_NEAR(p.phaseMarginDeg, legacyPm);
      EXPECT_REL_NEAR(p.cmrrDb, legacyCmrr);
      EXPECT_REL_NEAR(p.psrrDb, legacyPsrr);
      EXPECT_REL_NEAR(p.outputResistanceMOhm, legacyRout);
    }
  }
}

TEST(SimGolden, DigestOfFullAnalysisSetMatchesAcrossModes) {
  // The digest form of the DC byte-identity proof: hash every byte of the
  // operating point the verification tier consumes, in both modes, and
  // require the digests -- not just spot-checked fields -- to collide.
  // The AC curve and noise PSD it feeds are held to kSmallSignalTol, the
  // transients to kTranTolV per sample.
  sizing::OtaVerifier v(kTech, *designs().model);
  const Circuit c = v.buildAcTestbench(designs().ota.design, nullptr, 1.0, 0.0, 0.0);
  const NodeId out = *c.findNode("out");

  std::uint64_t digest[2] = {0, 0};
  std::vector<AcPoint> ac[2];
  std::vector<NoisePoint> nz[2];
  std::vector<TranPoint> tran[2];
  for (const SolverMode mode : {SolverMode::kFast, SolverMode::kReference}) {
    const int side = mode == SolverMode::kFast ? 0 : 1;
    Simulator sim(c, kTech, *designs().model, optionsFor(mode));
    Fnv1a h;
    const DcSolution op = sim.dcOperatingPoint();
    digestSolution(h, op);
    digest[side] = h.value();
    ac[side] = sim.ac(op, 10.0, 1e9, 8);
    nz[side] = sim.noise(op, out, "VDIFF", 1.0, 1e8, 6);
    tran[side] = sim.transient(40e-9, 0.5e-9);
  }
  EXPECT_EQ(digest[0], digest[1]);
  expectAcWithin(ac[0], ac[1]);
  expectNoiseWithin(nz[0], nz[1]);
  expectTranWithin(tran[0], tran[1]);
}

/// The folded (kFast) transient against the full-MNA (kReference) one on
/// one netlist, held to the Newton tolerance per sample:
/// |dv| <= absTolV + relTol * |v|.
void expectFoldedMatchesFullMna(const Circuit& c, const device::MosModel& model,
                                double tStop, double dt) {
  const SimOptions opt = optionsFor(SolverMode::kFast);
  Simulator fast(c, kTech, model, opt);
  Simulator ref(c, kTech, model, optionsFor(SolverMode::kReference));
  const auto a = fast.transient(tStop, dt);
  const auto b = ref.transient(tStop, dt);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_BIT_EQ(a[i].time, b[i].time);
    for (std::size_t n = 0; n < a[i].nodeV.size(); ++n) {
      EXPECT_LE(std::abs(a[i].nodeV[n] - b[i].nodeV[n]),
                opt.absTolV + opt.relTol * std::abs(b[i].nodeV[n]))
          << model.name() << " t=" << a[i].time << " node "
          << c.nodeName(static_cast<NodeId>(n));
    }
  }
  EXPECT_LT(fast.stats().tranUnknowns, ref.stats().tranUnknowns);
  EXPECT_LT(fast.stats().tranDeviceEvaluations, ref.stats().tranDeviceEvaluations);
  // Some devices stood still for some iterations, so the bound above held
  // while the fast path stamped kept evaluations, not only fresh ones.
  EXPECT_LT(fast.stats().tranDeviceEvaluations,
            fast.stats().tranNewtonIterations * static_cast<long>(c.mosfets.size()));
}

TEST(SimGolden, FoldedTransientMatchesFullMnaOnEverySourceKind) {
  // The source wirings the amplifier testbenches never use: a grounded
  // source with pos = ground, a floating V source hanging off a pinned
  // node, a VCVS, a pulsed I source, and a 2 V input edge inside one step
  // -- far beyond maxStepV, so the folded input node jumps where the
  // full-MNA one is damped over several iterations.
  Circuit c;
  const NodeId vdd = c.node("vdd"), vss = c.node("vss"), in = c.node("in");
  const NodeId gate = c.node("gate"), out = c.node("out"), buf = c.node("buf");
  device::MosGeometry gn;
  gn.w = 20e-6;
  gn.l = 0.6e-6;
  device::applyUnfoldedGeometry(kTech.rules, gn);
  device::MosGeometry gp = gn;
  gp.w = 50e-6;
  device::applyUnfoldedGeometry(kTech.rules, gp);
  c.addVSource("VDD", vdd, circuit::kGround, Waveform::makeDc(1.8));
  c.addVSource("VSS", circuit::kGround, vss, Waveform::makeDc(1.5));  // vss = -1.5 V.
  c.addVSource("VIN", in, circuit::kGround,
               Waveform::makePulse(-1.0, 1.0, 5e-9, 0.1e-9, 0.1e-9, 20e-9, 40e-9));
  c.addVSource("VSHIFT", gate, in, Waveform::makeDc(0.2));
  c.addMos("MN", out, gate, vss, vss, tech::MosType::kNmos, gn);
  c.addMos("MP", out, gate, vdd, vdd, tech::MosType::kPmos, gp);
  c.addISource("IB", vdd, out,
               Waveform::makePulse(0.0, 20e-6, 10e-9, 1e-9, 1e-9, 10e-9, 40e-9));
  c.addCapacitor("CL", out, circuit::kGround, 0.5e-12);
  c.addVcvs("EBUF", buf, circuit::kGround, out, vss, 0.5);
  c.addResistor("RBUF", buf, circuit::kGround, 10e3);
  c.addCapacitor("CB", buf, circuit::kGround, 0.2e-12);
  for (const char* modelName : {"level1", "ekv"}) {
    expectFoldedMatchesFullMna(c, *device::MosModel::create(modelName), 60e-9, 1e-9);
  }
}

TEST(SimGolden, FoldedTransientMatchesFullMnaOnSwitchedCapacitorIntegrator) {
  // examples/sc_integrator's network around the sized folded cascode:
  // four switches whose 3.3 V clock edges cross maxStepV twice a period.
  circuit::FoldedCascodeOtaDesign d = designs().ota.design;
  d.cload = 1e-12;
  Circuit c;
  const circuit::OtaNodes nodes = circuit::instantiateOta(c, d);
  const double vcm = d.inputCm, period = 500e-9;
  const NodeId nIn = c.node("vin"), nCm = c.node("vcm");
  const NodeId csl = c.node("csl"), csr = c.node("csr");
  const NodeId ph1 = c.node("ph1"), ph2 = c.node("ph2");
  c.addVSource("VIN", nIn, circuit::kGround, Waveform::makeDc(vcm - 0.10));
  c.addVSource("VCMR", nCm, circuit::kGround, Waveform::makeDc(vcm));
  c.addVSource("PH1", ph1, circuit::kGround,
               Waveform::makePulse(0, 3.3, 10e-9, 2e-9, 2e-9, 0.44 * period, period));
  c.addVSource("PH2", ph2, circuit::kGround,
               Waveform::makePulse(0, 3.3, 10e-9 + period / 2, 2e-9, 2e-9, 0.44 * period,
                                   period));
  c.addCapacitor("CS", csl, csr, 1e-12);
  c.addCapacitor("CF", nodes.inn, nodes.out, 4e-12);
  c.addResistor("RLEAK", nodes.inn, nCm, 1e9);
  device::MosGeometry sw;
  sw.w = 10e-6;
  sw.l = 0.6e-6;
  device::applyUnfoldedGeometry(kTech.rules, sw);
  c.addMos("S1", nIn, ph1, csl, circuit::kGround, tech::MosType::kNmos, sw);
  c.addMos("S2", csr, ph1, nCm, circuit::kGround, tech::MosType::kNmos, sw);
  c.addMos("S3", csl, ph2, nCm, circuit::kGround, tech::MosType::kNmos, sw);
  c.addMos("S4", csr, ph2, nodes.inn, circuit::kGround, tech::MosType::kNmos, sw);
  c.addVSource("VINP", nodes.inp, circuit::kGround, Waveform::makeDc(vcm));
  expectFoldedMatchesFullMna(c, *designs().model, 2.5 * period, 1e-9);
}

/// The netlists post-layout verification simulates for one topology: the
/// engine's case-4 run at default specs, then its extracted design with the
/// layout's parasitics annotated, in the slew and THD testbenches.
struct ExtractedBenches {
  Circuit slew, thd;
  explicit ExtractedBenches(const char* topologyName) {
    const device::MosModel& model = *designs().model;
    core::EngineOptions options;
    options.topology = topologyName;
    const std::unique_ptr<core::Topology> topology =
        core::TopologyRegistry::instance().create(topologyName, kTech, model);
    sizing::OtaSpecs specs;
    if (std::string(topologyName) == core::kTwoStageTopologyName) specs.gbw = 30e6;
    (void)core::SynthesisEngine(kTech, options).run(*topology, specs);
    const verify::VerificationSetup setup = topology->verificationSetup();
    slew = sizing::buildAmpSlewTestbench(setup.postLayout, setup.inputCm, setup.parasitics,
                                         options.verifyOptions);
    thd = verify::buildThdTestbench(setup.postLayout, setup.inputCm, setup.parasitics,
                                    options.postLayoutVerify);
  }
};

const ExtractedBenches& extractedBenches(const char* topologyName) {
  static const ExtractedBenches folded(core::kFoldedCascodeOtaTopologyName);
  static const ExtractedBenches twoStage(core::kTwoStageTopologyName);
  return std::string(topologyName) == core::kTwoStageTopologyName ? twoStage : folded;
}

TEST(SimGolden, FoldedTransientMatchesFullMnaOnTheExtractedNetlists) {
  // What verification simulates: the parasitic-annotated slew testbench
  // over its full 500 ns, and the THD testbench over its settle and
  // analysed cycles, with devices skipped and re-evaluated all through
  // each run.
  const sizing::VerifyOptions slew;
  const verify::VerificationOptions thd;
  const double period = 1.0 / thd.thdFundamentalHz;
  for (const char* topology : {core::kFoldedCascodeOtaTopologyName,
                               core::kTwoStageTopologyName}) {
    SCOPED_TRACE(topology);
    const ExtractedBenches& benches = extractedBenches(topology);
    expectFoldedMatchesFullMna(benches.slew, *designs().model, slew.tranStop, slew.tranStep);
    expectFoldedMatchesFullMna(benches.thd, *designs().model,
                               period * (thd.thdSettleCycles + thd.thdCycles),
                               period / thd.thdSamplesPerCycle);
  }
}

TEST(SimGolden, FoldedTransientEvaluatesOnlyTheDevicesThatMoved) {
  // The annotated folded-cascode slew testbench: 18 unknowns, 1000 steps.
  // Evaluating every device at each Newton iteration reads about 23
  // evaluations per step here; a converged step leaves nothing to evaluate
  // at the next step's start, and a quiescent device is not evaluated.
  const Circuit& c = extractedBenches(core::kFoldedCascodeOtaTopologyName).slew;
  const sizing::VerifyOptions opt;
  Simulator sim(c, kTech, *designs().model, optionsFor(SolverMode::kFast));
  (void)sim.transient(opt.tranStop, opt.tranStep);
  const SimStats& s = sim.stats();
  ASSERT_EQ(s.tranSteps, 1000);
  EXPECT_EQ(s.tranUnknowns, 18);
  const double steps = static_cast<double>(s.tranSteps);
  EXPECT_LE(static_cast<double>(s.tranDeviceEvaluations) / steps, 10.0)
      << s.tranDeviceEvaluations << " evaluations";
  EXPECT_LE(static_cast<double>(s.tranNewtonIterations) / steps, 2.2)
      << s.tranNewtonIterations << " iterations";
}

/// A cascode gain stage wired so the fold meets every source shape: VDD and
/// VB pin their nodes, VIN pins "in" from its neg terminal (pos = ground,
/// so "in" reads -VIN), VSHIFT floats off the pinned input, CVB joins two
/// pinned nodes, EBUF drives a node tied to VDD through RBUF, and IAC feeds
/// its AC current straight into the pinned VDD node.
Circuit pinnedBench() {
  Circuit c;
  const NodeId vdd = c.node("vdd"), in = c.node("in"), gate = c.node("gate");
  const NodeId mid = c.node("mid"), out = c.node("out"), vb = c.node("vb");
  const NodeId buf = c.node("buf");
  device::MosGeometry g;
  g.w = 20e-6;
  g.l = 1e-6;
  device::applyUnfoldedGeometry(kTech.rules, g);
  c.addVSource("VDD", vdd, circuit::kGround, Waveform::makeDc(3.3));
  c.addVSource("VIN", circuit::kGround, in, Waveform::makeDc(-0.9), 1.0, 30.0);
  c.addVSource("VSHIFT", gate, in, Waveform::makeDc(0.1));
  c.addVSource("VB", vb, circuit::kGround, Waveform::makeDc(2.0));
  c.addMos("M1", mid, gate, circuit::kGround, circuit::kGround, tech::MosType::kNmos, g);
  c.addMos("M2", out, vb, mid, circuit::kGround, tech::MosType::kNmos, g);
  c.addResistor("RL", vdd, out, 20e3);
  c.addCapacitor("CL", out, circuit::kGround, 1e-12);
  c.addCapacitor("CVB", vb, vdd, 0.5e-12);
  c.addVcvs("EBUF", buf, circuit::kGround, out, circuit::kGround, 0.5);
  c.addResistor("RBUF", buf, vdd, 10e3);
  c.addISource("IAC", circuit::kGround, vdd, Waveform::makeDc(0.0), 1e-6);
  return c;
}

/// Fast and reference simulators over one circuit, with their (bit-equal)
/// operating points.
struct ModePair {
  Simulator fast, ref;
  DcSolution opF, opR;
  ModePair(const Circuit& c, const device::MosModel& model)
      : fast(c, kTech, model, optionsFor(SolverMode::kFast)),
        ref(c, kTech, model, optionsFor(SolverMode::kReference)),
        opF(fast.dcOperatingPoint()),
        opR(ref.dcOperatingPoint()) {
    expectSolutionBitEqual(opF, opR);
  }
};

TEST(SimGolden, FoldedAcReadsPinnedSourceCurrentsLikeFullMna) {
  // ac() drives VIN (a pinned node, reversed polarity) and IAC (a current
  // into pinned VDD).  Every branch current is compared, the three pinned
  // sources' included: the fold recovers them from their nodes' KCL rows.
  const Circuit c = pinnedBench();
  const ModePair m(c, *designs().model);
  const auto fast = m.fast.ac(m.opF, 1e3, 1e10, 5);
  const auto ref = m.ref.ac(m.opR, 1e3, 1e10, 5);
  expectAcWithin(fast, ref);
  // The branch currents also against their own scale, not the voltages'.
  double iScale = 0.0;
  for (const AcPoint& p : ref) {
    for (const auto& i : p.vsourceI) iScale = std::max(iScale, std::abs(i));
  }
  for (std::size_t k = 0; k < ref.size(); ++k) {
    for (std::size_t i = 0; i < ref[k].vsourceI.size(); ++i) {
      EXPECT_LE(std::abs(fast[k].vsourceI[i] - ref[k].vsourceI[i]), kSmallSignalTol * iScale)
          << c.vsources[i].name << " f=" << ref[k].freq;
    }
  }
  const NodeId in = *c.findNode("in"), vdd = *c.findNode("vdd");
  for (const AcPoint& p : fast) {
    // A pinned node reads its excitation exactly: -VIN, and nothing on VDD.
    EXPECT_EQ(p.at(in), -std::polar(1.0, 30.0 * M_PI / 180.0));
    EXPECT_EQ(p.at(vdd), std::complex<double>{});
    for (const auto& i : p.vsourceI) EXPECT_GT(std::abs(i), 0.0);
  }
}

TEST(SimGolden, FoldedAcFromGroundedSourceMatchesFullMna) {
  // acFrom on a pinned source moves its node by the unit excitation (or
  // its negation for a pos-grounded source) instead of driving a branch.
  const Circuit c = pinnedBench();
  const ModePair m(c, *designs().model);
  for (const char* source : {"VDD", "VIN", "VB", "VSHIFT"}) {
    SCOPED_TRACE(source);
    expectAcWithin(m.fast.acFrom(m.opF, source, 1e3, 1e10, 5),
                   m.ref.acFrom(m.opR, source, 1e3, 1e10, 5));
  }
}

TEST(SimGolden, FoldedUnitCurrentIntoPinnedNodeMovesNothing) {
  // A unit current into pinned VDD only flows out through VDD's branch;
  // into "out" it moves every free node.  Both against full MNA.
  const Circuit c = pinnedBench();
  const ModePair m(c, *designs().model);
  const NodeId vdd = *c.findNode("vdd"), out = *c.findNode("out");
  const std::vector<AcExcitation> block = {AcExcitation::unitCurrent(circuit::kGround, vdd),
                                           AcExcitation::unitCurrent(circuit::kGround, out)};
  const auto fast = m.fast.acBatch(m.opF, block, 1e3, 1e10, 5);
  const auto ref = m.ref.acBatch(m.opR, block, 1e3, 1e10, 5);
  ASSERT_EQ(fast.size(), 2u);
  expectAcWithin(fast[0], ref[0]);
  expectAcWithin(fast[1], ref[1]);
  for (const AcPoint& p : fast[0]) {
    for (const auto& v : p.nodeV) EXPECT_EQ(v, std::complex<double>{});
    // The whole unit current leaves through VDD (pos -> neg inside it).
    EXPECT_EQ(p.vsourceI[0], std::complex<double>(1.0, 0.0));
  }
}

TEST(SimGolden, FoldedNoiseWithGroundedInputSourceMatchesFullMna) {
  // The input-referral gain comes from a pinned source's unit excitation;
  // the adjoint solve reuses the forward factors.
  const Circuit c = pinnedBench();
  const ModePair m(c, *designs().model);
  const NodeId out = *c.findNode("out");
  for (const char* input : {"VIN", "VDD", "VSHIFT"}) {
    SCOPED_TRACE(input);
    const auto fast = m.fast.noise(m.opF, out, input, 1.0, 1e9, 6);
    expectNoiseWithin(fast, m.ref.noise(m.opR, out, input, 1.0, 1e9, 6));
  }
  // One factorization per frequency, shared by the forward and adjoint
  // solves.
  const long points = static_cast<long>(m.fast.noise(m.opF, out, "VIN", 1.0, 1e9, 6).size());
  EXPECT_EQ(m.fast.stats().luFactorizations, 4 * points);
  EXPECT_EQ(m.fast.stats().luSolves, 2 * 4 * points);
}

TEST(SimGolden, SecondGroundedSourceOnAPinnedNodeStaysABranch) {
  // Two grounded sources on one node over-determine it: the first pins the
  // node and the second keeps its branch, so the folded system is exactly
  // as singular as full MNA and both modes refuse it.  (DC refuses it too,
  // so the operating point of this linear circuit is built by hand.)
  Circuit c;
  const NodeId a = c.node("a"), b = c.node("b");
  c.addVSource("V1", a, circuit::kGround, Waveform::makeDc(1.0), 1.0);
  c.addVSource("V2", circuit::kGround, a, Waveform::makeDc(-1.0));
  c.addResistor("R", a, b, 1e3);
  c.addCapacitor("C", b, circuit::kGround, 1e-12);
  DcSolution op;
  op.converged = true;
  op.nodeVoltages.assign(static_cast<std::size_t>(c.nodeCount()), 0.0);
  op.vsourceCurrents.assign(c.vsources.size(), 0.0);
  const auto model = device::MosModel::create("ekv");
  for (const SolverMode mode : {SolverMode::kFast, SolverMode::kReference}) {
    Simulator sim(c, kTech, *model, optionsFor(mode));
    EXPECT_THROW((void)sim.ac(op, 1e3, 1e6, 2), SimulationError);
    EXPECT_THROW((void)sim.acFrom(op, "V2", 1e3, 1e6, 2), SimulationError);
    EXPECT_THROW((void)sim.noise(op, b, "V1", 1e3, 1e6, 2), SimulationError);
  }
  // Without V2 the same network solves in both modes, and agrees.
  Circuit single;
  const NodeId sa = single.node("a"), sb = single.node("b");
  single.addVSource("V1", sa, circuit::kGround, Waveform::makeDc(1.0), 1.0);
  single.addResistor("R", sa, sb, 1e3);
  single.addCapacitor("C", sb, circuit::kGround, 1e-12);
  op.vsourceCurrents.pop_back();
  Simulator fast(single, kTech, *model, optionsFor(SolverMode::kFast));
  Simulator ref(single, kTech, *model, optionsFor(SolverMode::kReference));
  expectAcWithin(fast.ac(op, 1e3, 1e10, 5), ref.ac(op, 1e3, 1e10, 5));
}

TEST(SimGolden, SmallSignalRejectsAnOperatingPointFromAnotherCircuit) {
  // An operating point of a smaller circuit would index past its mosOps.
  const Circuit big = pinnedBench();
  Circuit small;
  const NodeId vdd = small.node("vdd"), out = small.node("out");
  device::MosGeometry g;
  g.w = 20e-6;
  g.l = 1e-6;
  device::applyUnfoldedGeometry(kTech.rules, g);
  small.addVSource("VDD", vdd, circuit::kGround, Waveform::makeDc(3.3));
  small.addResistor("RL", vdd, out, 20e3);
  small.addMos("M1", out, vdd, circuit::kGround, circuit::kGround, tech::MosType::kNmos, g);
  const device::MosModel& model = *designs().model;
  const DcSolution foreign =
      Simulator(small, kTech, model, optionsFor(SolverMode::kFast)).dcOperatingPoint();
  const NodeId bigOut = *big.findNode("out");
  for (const SolverMode mode : {SolverMode::kFast, SolverMode::kReference}) {
    Simulator sim(big, kTech, model, optionsFor(mode));
    EXPECT_THROW((void)sim.ac(foreign, 1e3, 1e6, 2), std::invalid_argument);
    EXPECT_THROW((void)sim.acFrom(foreign, "VDD", 1e3, 1e6, 2), std::invalid_argument);
    EXPECT_THROW((void)sim.acBatch(foreign, {AcExcitation::circuitSources()}, 1e3, 1e6, 2),
                 std::invalid_argument);
    EXPECT_THROW((void)sim.noise(foreign, bigOut, "VIN", 1e3, 1e6, 2), std::invalid_argument);
    // Its own operating point is accepted.
    EXPECT_NO_THROW((void)sim.ac(sim.dcOperatingPoint(), 1e3, 1e6, 2));
  }
}

}  // namespace
}  // namespace lo::sim
