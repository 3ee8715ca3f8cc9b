// Oracles for the simulator.
//
// Every analysis stamps through one compiled stamp plan.  Transient, AC,
// AC-batch and noise analyses solve the folded plan (nodes held by
// grounded V sources leave the LU); DC solves the plan compiled with
// nothing pinned, full MNA's unknowns in full MNA's order.  Each test holds
// them to one of two oracles.
//
//  * Frozen answers (tests/goldens/sim/): what the full-MNA solver this
//    one replaced answered on small netlists.  DC operating points and
//    sweeps are held to kDcRelTol; small-signal phasors to kSmallSignalTol
//    of their curve's largest magnitude, and noise PSDs and measured
//    figures to kSmallSignalTol relative; transients of circuits at rest
//    to kTranTolV per sample, and the source-kinds transient to the Newton
//    tolerance absTolV + relTol * |v|.  golden_file.hpp says how a
//    deliberate change regenerates them.
//  * Refinement (the long transients): the same solver run at absTolV
//    1e-12 and relTol 1e-9, every node at every sample within the default
//    Newton tolerance.
//
// The system-level companion is the differential oracle's frozen corpus
// (tests/differential_test.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "circuit/ota.hpp"
#include "circuit/two_stage.hpp"
#include "core/engine.hpp"
#include "core/topology.hpp"
#include "device/folding.hpp"
#include "golden_file.hpp"
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
using golden::doublesOf;
using service::Json;
using Cplx = std::complex<double>;

const tech::Technology kTech = tech::Technology::generic060();

[[nodiscard]] std::uint64_t bitsOf(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

/// Bit equality: EXPECT_EQ on doubles would call -0.0 and +0.0 equal.
#define EXPECT_BIT_EQ(a, b) \
  EXPECT_EQ(bitsOf(a), bitsOf(b)) << #a " = " << (a) << " vs " #b " = " << (b)

/// Bound on DC operating points, sweeps and the analyses' grids, relative
/// to the frozen value: loose enough for another compiler's rounding, tight
/// enough that any change to the DC algorithm shows.
constexpr double kDcRelTol = 1e-12;

/// Bound between the folded small-signal solve and full MNA, relative to
/// the largest magnitude of any phasor in the curve, node voltage or branch
/// current (phasors), or to the value itself (noise PSDs, gains and
/// measured figures).  A pinned source's branch current is a KCL residual,
/// so its error scales with the largest current into its node: the
/// amplifier testbenches' 1 F feedback capacitor carries far more than the
/// common-mode source it hangs off.
constexpr double kSmallSignalTol = 1e-9;

/// Per-sample bound between the folded and the full-MNA transient on a
/// circuit that sits at its operating point: the two solve different (but
/// equivalent) linear systems, so they part at LU rounding, far inside the
/// Newton tolerance.
constexpr double kTranTolV = 1e-9;

#define EXPECT_REL_WITHIN(a, b, tol)                 \
  EXPECT_LE(std::abs((a) - (b)), (tol) * std::abs(b)) \
      << #a " = " << (a) << " vs " #b " = " << (b)

#define EXPECT_REL_NEAR(a, b) EXPECT_REL_WITHIN(a, b, kSmallSignalTol)

// ---------------------------------------------------------------------------
// Analysis results to and from their golden JSON.

/// The MosOpPoint fields a golden freezes (all but the region label).
constexpr double device::MosOpPoint::*kMosFields[] = {
    &device::MosOpPoint::id,    &device::MosOpPoint::vgs,
    &device::MosOpPoint::vds,   &device::MosOpPoint::vbs,
    &device::MosOpPoint::vth,   &device::MosOpPoint::veff,
    &device::MosOpPoint::vdsat, &device::MosOpPoint::gm,
    &device::MosOpPoint::gds,   &device::MosOpPoint::gmb,
    &device::MosOpPoint::cgs,   &device::MosOpPoint::cgd,
    &device::MosOpPoint::cgb,   &device::MosOpPoint::cdb,
    &device::MosOpPoint::csb,   &device::MosOpPoint::thermalNoisePsd,
    &device::MosOpPoint::flickerCoeff,
};

Json toJson(const DcSolution& op) {
  Json mos = Json::array();
  for (const device::MosOpPoint& m : op.mosOps) {
    Json fields = Json::array();
    for (const auto field : kMosFields) fields.push(m.*field);
    mos.push(std::move(fields));
  }
  Json j = Json::object();
  j.set("iterations", op.iterations);
  j.set("v", golden::toJson(op.nodeVoltages));
  j.set("i", golden::toJson(op.vsourceCurrents));
  j.set("mos", std::move(mos));
  return j;
}

DcSolution dcOf(const Json& j) {
  DcSolution op;
  op.converged = true;
  op.iterations = j.at("iterations").asInt();
  op.nodeVoltages = doublesOf(j.at("v"));
  op.vsourceCurrents = doublesOf(j.at("i"));
  for (const Json& fields : j.at("mos").items()) {
    device::MosOpPoint m;
    for (std::size_t k = 0; k < std::size(kMosFields); ++k) {
      m.*kMosFields[k] = fields.items().at(k).asDouble();
    }
    op.mosOps.push_back(m);
  }
  return op;
}

Json toJson(const std::vector<Cplx>& phasors) {
  Json a = Json::array();
  for (const Cplx& v : phasors) {
    a.push(v.real());
    a.push(v.imag());
  }
  return a;
}

std::vector<Cplx> phasorsOf(const Json& a) {
  const std::vector<double> parts = doublesOf(a);
  std::vector<Cplx> phasors;
  for (std::size_t k = 0; k + 1 < parts.size(); k += 2) {
    phasors.emplace_back(parts[k], parts[k + 1]);
  }
  return phasors;
}

Json toJson(const std::vector<AcPoint>& curve) {
  Json a = Json::array();
  for (const AcPoint& p : curve) {
    Json j = Json::object();
    j.set("f", p.freq);
    j.set("v", toJson(p.nodeV));
    j.set("i", toJson(p.vsourceI));
    a.push(std::move(j));
  }
  return a;
}

std::vector<AcPoint> curveOf(const Json& a) {
  std::vector<AcPoint> curve;
  for (const Json& j : a.items()) {
    curve.push_back({j.at("f").asDouble(), phasorsOf(j.at("v")), phasorsOf(j.at("i"))});
  }
  return curve;
}

Json toJson(const std::vector<NoisePoint>& points) {
  Json a = Json::array();
  for (const NoisePoint& p : points) {
    a.push(golden::toJson({p.freq, p.outputPsd, p.inputRefPsd, p.gainMag}));
  }
  return a;
}

std::vector<NoisePoint> noiseOf(const Json& a) {
  std::vector<NoisePoint> points;
  for (const Json& j : a.items()) {
    const std::vector<double> v = doublesOf(j);
    points.push_back({v.at(0), v.at(1), v.at(2), v.at(3)});
  }
  return points;
}

Json toJson(const std::vector<TranPoint>& samples) {
  Json a = Json::array();
  for (const TranPoint& p : samples) {
    Json j = Json::object();
    j.set("t", p.time);
    j.set("v", golden::toJson(p.nodeV));
    a.push(std::move(j));
  }
  return a;
}

std::vector<TranPoint> tranOf(const Json& a) {
  std::vector<TranPoint> samples;
  for (const Json& j : a.items()) samples.push_back({j.at("t").asDouble(), doublesOf(j.at("v"))});
  return samples;
}

// ---------------------------------------------------------------------------
// Comparisons against frozen answers.

void expectRelWithin(const std::vector<double>& a, const std::vector<double>& b, double tol,
                     const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_LE(std::abs(a[i] - b[i]), tol * std::abs(b[i]))
        << what << "[" << i << "] = " << a[i] << " vs frozen " << b[i];
  }
}

void expectDcWithin(const DcSolution& a, const DcSolution& frozen) {
  EXPECT_TRUE(a.converged);
  EXPECT_EQ(a.iterations, frozen.iterations);
  expectRelWithin(a.nodeVoltages, frozen.nodeVoltages, kDcRelTol, "node voltage");
  expectRelWithin(a.vsourceCurrents, frozen.vsourceCurrents, kDcRelTol, "source current");
  ASSERT_EQ(a.mosOps.size(), frozen.mosOps.size());
  for (std::size_t i = 0; i < a.mosOps.size(); ++i) {
    for (std::size_t k = 0; k < std::size(kMosFields); ++k) {
      const double live = a.mosOps[i].*kMosFields[k], ref = frozen.mosOps[i].*kMosFields[k];
      EXPECT_LE(std::abs(live - ref), kDcRelTol * std::abs(ref))
          << "device " << i << " field " << k << ": " << live << " vs frozen " << ref;
    }
  }
}

void expectAcWithin(const std::vector<AcPoint>& a, const std::vector<AcPoint>& frozen) {
  ASSERT_EQ(a.size(), frozen.size());
  double scale = 0.0;
  for (const AcPoint& p : frozen) {
    for (const auto& v : p.nodeV) scale = std::max(scale, std::abs(v));
    for (const auto& i : p.vsourceI) scale = std::max(scale, std::abs(i));
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_REL_WITHIN(a[i].freq, frozen[i].freq, kDcRelTol);
    ASSERT_EQ(a[i].nodeV.size(), frozen[i].nodeV.size());
    for (std::size_t n = 0; n < a[i].nodeV.size(); ++n) {
      EXPECT_LE(std::abs(a[i].nodeV[n] - frozen[i].nodeV[n]), kSmallSignalTol * scale)
          << "f=" << a[i].freq << " node " << n;
    }
    ASSERT_EQ(a[i].vsourceI.size(), frozen[i].vsourceI.size());
    for (std::size_t n = 0; n < a[i].vsourceI.size(); ++n) {
      EXPECT_LE(std::abs(a[i].vsourceI[n] - frozen[i].vsourceI[n]), kSmallSignalTol * scale)
          << "f=" << a[i].freq << " source " << n;
    }
  }
}

void expectNoiseWithin(const std::vector<NoisePoint>& a, const std::vector<NoisePoint>& frozen) {
  ASSERT_EQ(a.size(), frozen.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_REL_WITHIN(a[i].freq, frozen[i].freq, kDcRelTol);
    EXPECT_REL_NEAR(a[i].outputPsd, frozen[i].outputPsd);
    EXPECT_REL_NEAR(a[i].inputRefPsd, frozen[i].inputRefPsd);
    EXPECT_REL_NEAR(a[i].gainMag, frozen[i].gainMag);
  }
}

/// Every node of every sample within `tolV + relTol * |v|` of the frozen
/// waveform.
void expectTranWithin(const std::vector<TranPoint>& a, const std::vector<TranPoint>& frozen,
                      double tolV, double relTol = 0.0) {
  ASSERT_EQ(a.size(), frozen.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_REL_WITHIN(a[i].time, frozen[i].time, kDcRelTol);
    ASSERT_EQ(a[i].nodeV.size(), frozen[i].nodeV.size());
    for (std::size_t n = 0; n < a[i].nodeV.size(); ++n) {
      EXPECT_LE(std::abs(a[i].nodeV[n] - frozen[i].nodeV[n]),
                tolV + relTol * std::abs(frozen[i].nodeV[n]))
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

[[nodiscard]] SimOptions options() {
  SimOptions opt;
  opt.tempK = kTech.temperature;
  return opt;
}

// ---------------------------------------------------------------------------
// The amplifier AC testbenches.

/// Every analysis the verification tier runs on one amplifier AC
/// testbench, as a golden: the operating point, the full-band AC and the
/// supply, low-band and common-mode curves, |v(out)| of a unit current
/// into "out" (a dedicated IPROBE source on the quiet copy), noise with
/// its band integrals, and the transient at rest.  `c` carries the
/// differential excitation (VDIFF acMag=1); `quiet` is the same testbench
/// with every acMag zeroed.  Both expose "out" and V sources "VDIFF",
/// "VDD" and "VCM".
Json suiteAnswers(const Circuit& c, const Circuit& quiet, const device::MosModel& model) {
  const NodeId out = *c.findNode("out");
  Simulator sim(c, kTech, model, options());
  const DcSolution op = sim.dcOperatingPoint();
  Json j = Json::object();
  j.set("dc", toJson(op));
  j.set("ac", toJson(sim.ac(op, 10.0, 1e9, 6)));
  j.set("ac_from_vdd", toJson(sim.acFrom(op, "VDD", 10.0, 1e4, 4)));
  j.set("ac_low", toJson(sim.ac(op, 10.0, 1e4, 4)));
  j.set("ac_from_vcm", toJson(sim.acFrom(op, "VCM", 10.0, 1e4, 4)));
  Circuit probed = quiet;
  probed.addISource("IPROBE", circuit::kGround, out, Waveform::makeDc(0.0), 1.0);
  Simulator probe(probed, kTech, model, options());
  std::vector<double> rout;
  for (const AcPoint& p : probe.ac(probe.dcOperatingPoint(), 10.0, 1e4, 4)) {
    rout.push_back(std::abs(p.at(out)));
  }
  j.set("rout_probe", golden::toJson(rout));
  const auto nz = sim.noise(op, out, "VDIFF", 1.0, 1e8, 8);
  j.set("noise", toJson(nz));
  j.set("noise_integrals", golden::toJson({integratePsd(nz, 1.0, 1e7, true),
                                           integratePsd(nz, 1.0, 1e7, false)}));
  j.set("tran", toJson(sim.transient(50e-9, 0.5e-9)));
  return j;
}

/// The suite against its golden, the low-band curves through one acBatch
/// block, as the verification tier solves them.
void runGoldenSuite(const std::string& file, const Circuit& c, const Circuit& quiet,
                    const device::MosModel& model) {
  if (golden::rewrite(file, [&] { return suiteAnswers(c, quiet, model); })) {
    GTEST_SKIP() << "rewrote " << file;
  }
  const Json frozen = golden::load(file);
  const NodeId out = *c.findNode("out");
  Simulator sim(c, kTech, model, options());
  const DcSolution op = sim.dcOperatingPoint();
  expectDcWithin(op, dcOf(frozen.at("dc")));
  expectAcWithin(sim.ac(op, 10.0, 1e9, 6), curveOf(frozen.at("ac")));
  const auto vdd = sim.acFrom(op, "VDD", 10.0, 1e4, 4);
  expectAcWithin(vdd, curveOf(frozen.at("ac_from_vdd")));

  // One factorization per frequency serves every curve of the block; each
  // is bit for bit the equivalent individual call.
  const std::vector<AcExcitation> block = {
      AcExcitation::circuitSources(),
      AcExcitation::unitVsource("VCM"),
      AcExcitation::unitVsource("VDD"),
      AcExcitation::unitCurrent(circuit::kGround, out),
  };
  const auto batch = sim.acBatch(op, block, 10.0, 1e4, 4);
  ASSERT_EQ(batch.size(), block.size());
  expectAcWithin(batch[0], curveOf(frozen.at("ac_low")));
  expectAcWithin(batch[1], curveOf(frozen.at("ac_from_vcm")));
  for (std::size_t i = 0; i < vdd.size(); ++i) {
    for (std::size_t n = 0; n < vdd[i].nodeV.size(); ++n) {
      EXPECT_BIT_EQ(batch[2][i].nodeV[n].real(), vdd[i].nodeV[n].real());
      EXPECT_BIT_EQ(batch[2][i].nodeV[n].imag(), vdd[i].nodeV[n].imag());
    }
  }
  // The current injection ignores the circuit's own acMags, so it matches
  // the probe baked into the quiet copy.
  const std::vector<double> rout = doublesOf(frozen.at("rout_probe"));
  ASSERT_EQ(batch[3].size(), rout.size());
  for (std::size_t i = 0; i < rout.size(); ++i) {
    EXPECT_REL_NEAR(std::abs(batch[3][i].at(out)), rout[i]);
  }

  const auto nz = sim.noise(op, out, "VDIFF", 1.0, 1e8, 8);
  expectNoiseWithin(nz, noiseOf(frozen.at("noise")));
  const std::vector<double> integrals = doublesOf(frozen.at("noise_integrals"));
  ASSERT_EQ(integrals.size(), 2u);
  EXPECT_REL_NEAR(integratePsd(nz, 1.0, 1e7, true), integrals[0]);
  EXPECT_REL_NEAR(integratePsd(nz, 1.0, 1e7, false), integrals[1]);

  expectTranWithin(sim.transient(50e-9, 0.5e-9), tranOf(frozen.at("tran")), kTranTolV);

  EXPECT_GT(sim.stats().luFactorizations, 0);
  EXPECT_GT(sim.stats().luSolves, sim.stats().luFactorizations);
}

TEST(SimGolden, FoldedCascodeSuiteMatchesTheFrozenReference) {
  sizing::OtaVerifier v(kTech, *designs().model);
  const Circuit c = v.buildAcTestbench(designs().ota.design, nullptr, 1.0, 0.0, 0.0);
  const Circuit quiet = v.buildAcTestbench(designs().ota.design, nullptr, 0.0, 0.0, 0.0);
  runGoldenSuite("sim/folded_cascode_suite.json", c, quiet, *designs().model);
}

TEST(SimGolden, TwoStageSuiteMatchesTheFrozenReference) {
  const circuit::TwoStageOtaDesign& d = designs().twoStage.design;
  const sizing::AmpInstantiateFn instantiate = [&](Circuit& cc) {
    circuit::instantiateTwoStage(cc, d);
  };
  const Circuit c =
      sizing::buildAmpAcTestbench(instantiate, d.inputCm, nullptr, 1.0, 0.0, 0.0);
  const Circuit quiet =
      sizing::buildAmpAcTestbench(instantiate, d.inputCm, nullptr, 0.0, 0.0, 0.0);
  runGoldenSuite("sim/two_stage_suite.json", c, quiet, *designs().model);
}

TEST(SimGolden, DcSweepMatchesTheFrozenReference) {
  // CMOS inverter transfer curve: the sweep continues each point from its
  // neighbour through the warm-start seam.
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

  const auto answers = [&] {
    Json j = Json::object();
    for (const char* modelName : {"level1", "ekv"}) {
      const auto model = device::MosModel::create(modelName);
      Json sweep = Json::array();
      for (const auto& p : Simulator(c, kTech, *model, options()).dcSweep("VIN", 0.0, 3.3, 34)) {
        Json point = Json::object();
        point.set("value", p.value);
        point.set("dc", toJson(p.solution));
        sweep.push(std::move(point));
      }
      j.set(modelName, std::move(sweep));
    }
    return j;
  };
  const std::string file = "sim/inverter_sweep.json";
  if (golden::rewrite(file, answers)) {
    GTEST_SKIP() << "rewrote " << file;
  }
  const Json frozen = golden::load(file);
  for (const char* modelName : {"level1", "ekv"}) {
    SCOPED_TRACE(modelName);
    const auto model = device::MosModel::create(modelName);
    const auto sweep = Simulator(c, kTech, *model, options()).dcSweep("VIN", 0.0, 3.3, 34);
    const auto& points = frozen.at(modelName).items();
    ASSERT_EQ(sweep.size(), points.size());
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      EXPECT_REL_WITHIN(sweep[i].value, points[i].at("value").asDouble(), kDcRelTol);
      expectDcWithin(sweep[i].solution, dcOf(points[i].at("dc")));
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
  // vds = 0 (it converges on the analytic value as h shrinks).  DC Newton
  // stamps conductances() and reports evaluate(), so the two must return
  // the same id, gm, gds and gmb bits.
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
        const device::MosOpPoint full =
            model->evaluate(*card, geo, p * bias[0], p * bias[1], p * bias[2], 300.15);
        EXPECT_BIT_EQ(a.id, full.id);
        EXPECT_BIT_EQ(a.gm, full.gm);
        EXPECT_BIT_EQ(a.gds, full.gds);
        EXPECT_BIT_EQ(a.gmb, full.gmb);
      }
    }
  }
}

TEST(SimGolden, MeasureAmplifierMatchesLegacyFourCircuitStructure) {
  // measureAmplifier used to bake each excitation into its own testbench
  // copy (diff acMag=1, cm acMag=1, acFrom supply, IPROBE rout circuit) and
  // solve a fresh DC op for every one.  The golden freezes the figures that
  // legacy structure reads; the single-testbench acBatch flow must
  // reproduce them.
  const auto& d = designs().ota.design;
  const device::MosModel& model = *designs().model;
  const sizing::AmpInstantiateFn instantiate = [&](Circuit& c) {
    circuit::instantiateOta(c, d);
  };
  const sizing::VerifyOptions vOpt;
  const double fLow = vOpt.fStart;

  const auto legacyFigures = [&] {
    const SimOptions opt = options();
    Json j = Json::object();
    double gainDb = 0.0;
    {  // Differential open-loop circuit with acMag baked onto VDIFF.
      const Circuit c =
          sizing::buildAmpAcTestbench(instantiate, d.inputCm, nullptr, 1.0, 0.0, 0.0);
      Simulator sim(c, kTech, model, opt);
      const DcSolution op = sim.dcOperatingPoint();
      const NodeId out = *c.findNode("out");
      j.set("offset_mv", (op.voltage(*c.findNode("inp")) - op.voltage(out)) * 1e3);
      for (std::size_t i = 0; i < c.vsources.size(); ++i) {
        if (c.vsources[i].name == "VDD") {
          j.set("power_mw", std::abs(op.vsourceCurrents[i]) * d.vdd * 1e3);
        }
      }
      const AcCurve adm = curveAt(sim.ac(op, fLow, vOpt.fStop, vOpt.pointsPerDecade), out);
      gainDb = toDb(dcGain(adm));
      j.set("dc_gain_db", gainDb);
      j.set("gbw_hz", unityGainFrequency(adm));
      j.set("phase_margin_deg", phaseMarginDeg(adm));
    }
    {  // Common-mode circuit with acMag baked onto VCM.
      const Circuit c =
          sizing::buildAmpAcTestbench(instantiate, d.inputCm, nullptr, 0.0, 1.0, 0.0);
      Simulator sim(c, kTech, model, opt);
      const auto ac = sim.ac(sim.dcOperatingPoint(), fLow, 10.0 * fLow, 4);
      const double acm = dcGain(curveAt(ac, *c.findNode("out")));
      j.set("cmrr_db", toDb(std::pow(10.0, gainDb / 20.0) / std::max(acm, 1e-12)));
    }
    {  // Supply rejection via acFrom on a quiet circuit.
      const Circuit c =
          sizing::buildAmpAcTestbench(instantiate, d.inputCm, nullptr, 0.0, 0.0, 0.0);
      Simulator sim(c, kTech, model, opt);
      const auto ac = sim.acFrom(sim.dcOperatingPoint(), "VDD", fLow, 10.0 * fLow, 4);
      const double avdd = dcGain(curveAt(ac, *c.findNode("out")));
      j.set("psrr_db", toDb(std::pow(10.0, gainDb / 20.0) / std::max(avdd, 1e-12)));
    }
    {  // Output resistance via the baked-in IPROBE current source.
      const Circuit c =
          sizing::buildAmpAcTestbench(instantiate, d.inputCm, nullptr, 0.0, 0.0, 1.0);
      Simulator sim(c, kTech, model, opt);
      const auto ac = sim.ac(sim.dcOperatingPoint(), fLow, 10.0 * fLow, 4);
      j.set("output_resistance_mohm", std::abs(ac.front().at(*c.findNode("out"))) / 1e6);
    }
    return j;
  };
  const std::string file = "sim/legacy_measure.json";
  if (golden::rewrite(file, legacyFigures)) {
    GTEST_SKIP() << "rewrote " << file;
  }
  const Json frozen = golden::load(file);
  const auto figure = [&](const char* name) { return frozen.at(name).asDouble(); };
  const sizing::OtaPerformance p =
      sizing::measureAmplifier(kTech, model, instantiate, d.inputCm, d.vdd, nullptr, vOpt);
  EXPECT_REL_WITHIN(p.offsetMv, figure("offset_mv"), kDcRelTol);
  EXPECT_REL_WITHIN(p.powerMw, figure("power_mw"), kDcRelTol);
  EXPECT_REL_NEAR(p.dcGainDb, figure("dc_gain_db"));
  EXPECT_REL_NEAR(p.gbwHz, figure("gbw_hz"));
  EXPECT_REL_NEAR(p.phaseMarginDeg, figure("phase_margin_deg"));
  EXPECT_REL_NEAR(p.cmrrDb, figure("cmrr_db"));
  EXPECT_REL_NEAR(p.psrrDb, figure("psrr_db"));
  EXPECT_REL_NEAR(p.outputResistanceMOhm, figure("output_resistance_mohm"));
}

// ---------------------------------------------------------------------------
// Transients.

/// The transient solved the folded system, with fewer unknowns than full
/// MNA's nodes and branches, and stamped kept evaluations: some devices
/// stood still for some iterations.
void expectFoldedAndBypassed(const Circuit& c, const SimStats& s) {
  EXPECT_LT(s.tranUnknowns, static_cast<long>(c.nodeCount() - 1 + c.vsources.size() +
                                              c.vcvs.size()));
  EXPECT_LT(s.tranDeviceEvaluations,
            s.tranNewtonIterations * static_cast<long>(c.mosfets.size()));
}

TEST(SimGolden, FoldedTransientMatchesFullMnaOnEverySourceKind) {
  // The source wirings the amplifier testbenches never use: a grounded
  // source with pos = ground, a floating V source hanging off a pinned
  // node, a VCVS, a pulsed I source, and a 2 V input edge inside one step
  // -- far beyond maxStepV, so the folded input node jumps where the
  // full-MNA one was damped over several iterations.  Held to the Newton
  // tolerance per sample.
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

  const auto answers = [&] {
    Json j = Json::object();
    for (const char* modelName : {"level1", "ekv"}) {
      const auto model = device::MosModel::create(modelName);
      j.set(modelName, toJson(Simulator(c, kTech, *model, options()).transient(60e-9, 1e-9)));
    }
    return j;
  };
  const std::string file = "sim/source_kinds.json";
  if (golden::rewrite(file, answers)) {
    GTEST_SKIP() << "rewrote " << file;
  }
  const Json frozen = golden::load(file);
  const SimOptions opt = options();
  for (const char* modelName : {"level1", "ekv"}) {
    SCOPED_TRACE(modelName);
    const auto model = device::MosModel::create(modelName);
    Simulator sim(c, kTech, *model, opt);
    expectTranWithin(sim.transient(60e-9, 1e-9), tranOf(frozen.at(modelName)), opt.absTolV,
                     opt.relTol);
    expectFoldedAndBypassed(c, sim.stats());
  }
}

/// The refinement oracle: `c`'s transient at the default options against
/// the same solver at absTolV 1e-12 and relTol 1e-9, every node at every
/// sample within the default Newton tolerance absTolV + relTol * |v|.
void expectWithinToleranceOfItsRefinement(const Circuit& c, const device::MosModel& model,
                                          double tStop, double dt) {
  const SimOptions opt = options();
  SimOptions tight = opt;
  tight.absTolV = 1e-12;
  tight.relTol = 1e-9;
  Simulator sim(c, kTech, model, opt);
  const auto a = sim.transient(tStop, dt);
  const auto b = Simulator(c, kTech, model, tight).transient(tStop, dt);
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
  expectFoldedAndBypassed(c, sim.stats());
}

TEST(SimGolden, TransientMatchesItsRefinementOnSwitchedCapacitorIntegrator) {
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
  expectWithinToleranceOfItsRefinement(c, *designs().model, 2.5 * period, 1e-9);
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

TEST(SimGolden, TransientMatchesItsRefinementOnTheExtractedNetlists) {
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
    expectWithinToleranceOfItsRefinement(benches.slew, *designs().model, slew.tranStop,
                                         slew.tranStep);
    expectWithinToleranceOfItsRefinement(benches.thd, *designs().model,
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
  Simulator sim(c, kTech, *designs().model, options());
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

// ---------------------------------------------------------------------------
// The fold's source wirings.

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

/// What `answer(sim, op)` returns on the pinned bench.
template <typename Answer>
[[nodiscard]] Json pinnedAnswers(Answer answer) {
  const Circuit c = pinnedBench();
  Simulator sim(c, kTech, *designs().model, options());
  return answer(sim, sim.dcOperatingPoint());
}

TEST(SimGolden, FoldedAcReadsPinnedSourceCurrentsLikeFullMna) {
  // ac() drives VIN (a pinned node, reversed polarity) and IAC (a current
  // into pinned VDD).  Every branch current is compared, the three pinned
  // sources' included: the fold recovers them from their nodes' KCL rows.
  const auto answer = [](const Simulator& sim, const DcSolution& op) {
    Json j = Json::object();
    j.set("dc", toJson(op));
    j.set("ac", toJson(sim.ac(op, 1e3, 1e10, 5)));
    return j;
  };
  const std::string file = "sim/pinned_ac.json";
  if (golden::rewrite(file, [&] { return pinnedAnswers(answer); })) {
    GTEST_SKIP() << "rewrote " << file;
  }
  const Json frozen = golden::load(file);
  const Circuit c = pinnedBench();
  Simulator sim(c, kTech, *designs().model, options());
  const DcSolution op = sim.dcOperatingPoint();
  expectDcWithin(op, dcOf(frozen.at("dc")));
  const auto fast = sim.ac(op, 1e3, 1e10, 5);
  const auto ref = curveOf(frozen.at("ac"));
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

constexpr const char* kPinnedSources[] = {"VDD", "VIN", "VB", "VSHIFT"};

TEST(SimGolden, FoldedAcFromGroundedSourceMatchesFullMna) {
  // acFrom on a pinned source moves its node by the unit excitation (or
  // its negation for a pos-grounded source) instead of driving a branch.
  const auto answer = [](const Simulator& sim, const DcSolution& op) {
    Json j = Json::object();
    for (const char* source : kPinnedSources) {
      j.set(source, toJson(sim.acFrom(op, source, 1e3, 1e10, 5)));
    }
    return j;
  };
  const std::string file = "sim/pinned_ac_from.json";
  if (golden::rewrite(file, [&] { return pinnedAnswers(answer); })) {
    GTEST_SKIP() << "rewrote " << file;
  }
  const Json frozen = golden::load(file);
  const Json live = pinnedAnswers(answer);
  for (const char* source : kPinnedSources) {
    SCOPED_TRACE(source);
    expectAcWithin(curveOf(live.at(source)), curveOf(frozen.at(source)));
  }
}

TEST(SimGolden, FoldedUnitCurrentIntoPinnedNodeMovesNothing) {
  // A unit current into pinned VDD only flows out through VDD's branch;
  // into "out" it moves every free node.
  const Circuit c = pinnedBench();
  const NodeId vdd = *c.findNode("vdd"), out = *c.findNode("out");
  const auto answer = [&](const Simulator& sim, const DcSolution& op) {
    const std::vector<AcExcitation> block = {AcExcitation::unitCurrent(circuit::kGround, vdd),
                                             AcExcitation::unitCurrent(circuit::kGround, out)};
    const auto curves = sim.acBatch(op, block, 1e3, 1e10, 5);
    Json j = Json::object();
    j.set("into_vdd", toJson(curves.at(0)));
    j.set("into_out", toJson(curves.at(1)));
    return j;
  };
  const std::string file = "sim/pinned_unit_current.json";
  if (golden::rewrite(file, [&] { return pinnedAnswers(answer); })) {
    GTEST_SKIP() << "rewrote " << file;
  }
  const Json frozen = golden::load(file);
  const Json live = pinnedAnswers(answer);
  const auto intoVdd = curveOf(live.at("into_vdd"));
  expectAcWithin(intoVdd, curveOf(frozen.at("into_vdd")));
  expectAcWithin(curveOf(live.at("into_out")), curveOf(frozen.at("into_out")));
  for (const AcPoint& p : intoVdd) {
    for (const auto& v : p.nodeV) EXPECT_EQ(v, std::complex<double>{});
    // The whole unit current leaves through VDD (pos -> neg inside it).
    EXPECT_EQ(p.vsourceI[0], std::complex<double>(1.0, 0.0));
  }
}

TEST(SimGolden, FoldedNoiseWithGroundedInputSourceMatchesFullMna) {
  // The input-referral gain comes from a pinned source's unit excitation;
  // the adjoint solve reuses the forward factors.
  constexpr const char* kInputs[] = {"VIN", "VDD", "VSHIFT"};
  const Circuit c = pinnedBench();
  const NodeId out = *c.findNode("out");
  const auto answer = [&](const Simulator& sim, const DcSolution& op) {
    Json j = Json::object();
    for (const char* input : kInputs) j.set(input, toJson(sim.noise(op, out, input, 1.0, 1e9, 6)));
    return j;
  };
  const std::string file = "sim/pinned_noise.json";
  if (golden::rewrite(file, [&] { return pinnedAnswers(answer); })) {
    GTEST_SKIP() << "rewrote " << file;
  }
  const Json frozen = golden::load(file);
  Simulator sim(c, kTech, *designs().model, options());
  const Json live = answer(sim, sim.dcOperatingPoint());
  long points = 0;
  for (const char* input : kInputs) {
    SCOPED_TRACE(input);
    const auto nz = noiseOf(live.at(input));
    expectNoiseWithin(nz, noiseOf(frozen.at(input)));
    points += static_cast<long>(nz.size());
  }
  // One factorization per frequency, shared by the forward and adjoint
  // solves.
  EXPECT_EQ(sim.stats().luFactorizations, points);
  EXPECT_EQ(sim.stats().luSolves, 2 * points);
}

TEST(SimGolden, SecondGroundedSourceOnAPinnedNodeStaysABranch) {
  // Two grounded sources on one node over-determine it: the first pins the
  // node and the second keeps its branch, so the folded system is exactly
  // as singular as full MNA and the simulator refuses it.  (DC refuses it
  // too, so the operating point of this linear circuit is built by hand.)
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
  Simulator sim(c, kTech, *model, options());
  EXPECT_THROW((void)sim.ac(op, 1e3, 1e6, 2), SimulationError);
  EXPECT_THROW((void)sim.acFrom(op, "V2", 1e3, 1e6, 2), SimulationError);
  EXPECT_THROW((void)sim.noise(op, b, "V1", 1e3, 1e6, 2), SimulationError);
  // Without V2 the same network solves: the RC low-pass, with the final
  // gmin on node b, b = 1 / (1 + R gmin + j w R C).
  Circuit single;
  const NodeId sa = single.node("a"), sb = single.node("b");
  single.addVSource("V1", sa, circuit::kGround, Waveform::makeDc(1.0), 1.0);
  single.addResistor("R", sa, sb, 1e3);
  single.addCapacitor("C", sb, circuit::kGround, 1e-12);
  op.vsourceCurrents.pop_back();
  const SimOptions opt = options();
  for (const AcPoint& p : Simulator(single, kTech, *model, opt).ac(op, 1e3, 1e10, 5)) {
    const Cplx expected = 1.0 / Cplx{1.0 + 1e3 * opt.gminFloor, 2.0 * M_PI * p.freq * 1e-9};
    EXPECT_LE(std::abs(p.at(sb) - expected), kSmallSignalTol) << "f=" << p.freq;
    EXPECT_EQ(p.at(sa), Cplx(1.0, 0.0));
  }
}

TEST(SimGolden, SourceSteppingFallbackMatchesTheFrozenReference) {
  // Capped at 8 Newton iterations per solve, the gmin ladder fails on the
  // pinned bench and the operating point comes from the source-stepping
  // fallback (every cap from 5 to 11 takes it; from 12 up the ladder
  // converges on its own).  The frozen iteration count covers the failed
  // ladder and all 20 source steps.
  SimOptions opt = options();
  opt.maxNewtonIters = 8;
  const Circuit c = pinnedBench();
  const auto solve = [&] { return Simulator(c, kTech, *designs().model, opt).dcOperatingPoint(); };
  const std::string file = "sim/source_stepping.json";
  if (golden::rewrite(file, [&] { return toJson(solve()); })) {
    GTEST_SKIP() << "rewrote " << file;
  }
  expectDcWithin(solve(), dcOf(golden::load(file)));
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
  const DcSolution foreign = Simulator(small, kTech, model, options()).dcOperatingPoint();
  const NodeId bigOut = *big.findNode("out");
  Simulator sim(big, kTech, model, options());
  EXPECT_THROW((void)sim.ac(foreign, 1e3, 1e6, 2), std::invalid_argument);
  EXPECT_THROW((void)sim.acFrom(foreign, "VDD", 1e3, 1e6, 2), std::invalid_argument);
  EXPECT_THROW((void)sim.acBatch(foreign, {AcExcitation::circuitSources()}, 1e3, 1e6, 2),
               std::invalid_argument);
  EXPECT_THROW((void)sim.noise(foreign, bigOut, "VIN", 1e3, 1e6, 2), std::invalid_argument);
  // Its own operating point is accepted.
  EXPECT_NO_THROW((void)sim.ac(sim.dcOperatingPoint(), 1e3, 1e6, 2));
}

}  // namespace
}  // namespace lo::sim
