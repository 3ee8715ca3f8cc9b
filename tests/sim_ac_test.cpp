#include <gtest/gtest.h>

#include <cmath>

#include "device/folding.hpp"
#include "sim/measure.hpp"
#include "sim/simulator.hpp"
#include "tech/technology.hpp"

namespace lo::sim {
namespace {

using circuit::Circuit;
using circuit::Waveform;

const tech::Technology kTech = tech::Technology::generic060();

TEST(SimAc, RcLowPassPole) {
  Circuit c;
  const auto in = c.node("in"), out = c.node("out");
  c.addVSource("VIN", in, circuit::kGround, Waveform::makeDc(0.0), 1.0);
  c.addResistor("R1", in, out, 10e3);
  c.addCapacitor("C1", out, circuit::kGround, 1e-9);  // fp = 15.9 kHz.
  const auto model = device::MosModel::create("level1");
  Simulator sim(c, kTech, *model);
  const DcSolution op = sim.dcOperatingPoint();
  const auto ac = sim.ac(op, 10.0, 10e6, 20);
  const AcCurve curve = curveAt(ac, out);

  const double fp = 1.0 / (2 * M_PI * 10e3 * 1e-9);
  // DC gain 1, -3 dB at the pole, -20 dB/dec after: |H| = 1 / sqrt(1 + (f/fp)^2).
  EXPECT_NEAR(dcGain(curve), 1.0, 1e-3);
  for (std::size_t i = 0; i < curve.size(); ++i) {
    const double x = curve.freq[i] / fp;
    EXPECT_NEAR(std::abs(curve.h[i]), 1.0 / std::sqrt(1.0 + x * x), 1e-6) << curve.freq[i];
  }
  // Phase at the pole is -45 degrees.
  const double pm = phaseMarginDeg(curve);  // Unity never crossed from above 1... gain==1 at DC.
  (void)pm;
  const auto phase = unwrappedPhaseDeg(curve);
  // Find the grid point closest to fp.
  std::size_t k = 0;
  for (std::size_t i = 0; i < curve.size(); ++i) {
    if (std::abs(std::log10(curve.freq[i] / fp)) < std::abs(std::log10(curve.freq[k] / fp))) {
      k = i;
    }
  }
  EXPECT_NEAR(phase[k], -45.0, 3.0);
}

TEST(SimAc, DividerIsFrequencyFlat) {
  Circuit c;
  const auto in = c.node("in"), out = c.node("out");
  c.addVSource("VIN", in, circuit::kGround, Waveform::makeDc(1.0), 2.0);
  c.addResistor("R1", in, out, 30e3);
  c.addResistor("R2", out, circuit::kGround, 10e3);
  const auto model = device::MosModel::create("level1");
  Simulator sim(c, kTech, *model);
  const auto ac = sim.ac(sim.dcOperatingPoint(), 1.0, 1e9, 5);
  for (const AcPoint& p : ac) {
    EXPECT_NEAR(std::abs(p.at(out)), 0.5, 1e-6) << p.freq;  // 2 V excitation / 4.
    EXPECT_NEAR(std::arg(p.at(out)), 0.0, 1e-6);
  }
}

class CommonSourceByModel : public ::testing::TestWithParam<const char*> {};

TEST_P(CommonSourceByModel, GainMatchesGmTimesRout) {
  // NMOS common-source stage with resistive load.
  Circuit c;
  const auto in = c.node("in"), out = c.node("out"), vdd = c.node("vdd");
  device::MosGeometry geo;
  geo.w = 40e-6;
  geo.l = 1e-6;
  device::applyUnfoldedGeometry(kTech.rules, geo);
  c.addVSource("VDD", vdd, circuit::kGround, Waveform::makeDc(3.3));
  c.addVSource("VIN", in, circuit::kGround, Waveform::makeDc(1.0), 1.0);
  c.addResistor("RL", vdd, out, 10e3);
  c.addMos("M1", out, in, circuit::kGround, circuit::kGround, tech::MosType::kNmos, geo);

  const auto model = device::MosModel::create(GetParam());
  Simulator sim(c, kTech, *model);
  const DcSolution op = sim.dcOperatingPoint();
  ASSERT_EQ(op.mosOps[0].region, device::MosRegion::kSaturation);

  const auto ac = sim.ac(op, 10.0, 100e3, 10);
  const double gain = dcGain(curveAt(ac, out));
  const double expected =
      op.mosOps[0].gm / (1.0 / 10e3 + op.mosOps[0].gds);
  EXPECT_NEAR(gain, expected, expected * 0.01);
}

INSTANTIATE_TEST_SUITE_P(Models, CommonSourceByModel,
                         ::testing::Values("level1", "ekv"));

TEST(SimAc, CascodeBoostsOutputResistance) {
  // Compare a single device current source with a cascoded one; the output
  // resistance seen at the drain must rise by roughly gm*ro.  A V source at
  // the output provides both the DC bias and the AC probe; Rout = 1/|I|.
  const auto model = device::MosModel::create("level1");
  auto routOf = [&](bool cascode) {
    Circuit c;
    const auto out = c.node("out"), vb = c.node("vb"), vb2 = c.node("vb2");
    device::MosGeometry geo;
    geo.w = 20e-6;
    geo.l = 1e-6;
    device::applyUnfoldedGeometry(kTech.rules, geo);
    c.addVSource("VB", vb, circuit::kGround, Waveform::makeDc(1.2));
    c.addVSource("VOUT", out, circuit::kGround, Waveform::makeDc(2.5), 1.0);
    if (cascode) {
      const auto mid = c.node("mid");
      c.addVSource("VB2", vb2, circuit::kGround, Waveform::makeDc(2.0));
      c.addMos("M1", mid, vb, circuit::kGround, circuit::kGround, tech::MosType::kNmos, geo);
      c.addMos("M2", out, vb2, mid, circuit::kGround, tech::MosType::kNmos, geo);
    } else {
      c.addMos("M1", out, vb, circuit::kGround, circuit::kGround, tech::MosType::kNmos, geo);
    }
    Simulator sim(c, kTech, *model);
    const DcSolution op = sim.dcOperatingPoint();
    const auto ac = sim.ac(op, 1.0, 10.0, 2);
    // VOUT is the second V source added.
    return 1.0 / std::abs(ac.front().vsourceI[1]);
  };
  const double rSingle = routOf(false);
  const double rCascode = routOf(true);
  EXPECT_GT(rCascode, 20.0 * rSingle);
}

TEST(SimAc, MosCapacitancesCreateOutputPole) {
  // Common-source stage loaded only by its own cdb + RL: check the pole
  // location is near 1/(2 pi RL (cdb + cgd*(1+gm RL))) (Miller).
  Circuit c;
  const auto in = c.node("in"), out = c.node("out"), vdd = c.node("vdd");
  device::MosGeometry geo;
  geo.w = 40e-6;
  geo.l = 1e-6;
  device::applyUnfoldedGeometry(kTech.rules, geo);
  c.addVSource("VDD", vdd, circuit::kGround, Waveform::makeDc(3.3));
  c.addVSource("VIN", in, circuit::kGround, Waveform::makeDc(1.0), 1.0);
  c.addResistor("RL", vdd, out, 10e3);
  c.addCapacitor("CL", out, circuit::kGround, 2e-12);
  c.addMos("M1", out, in, circuit::kGround, circuit::kGround, tech::MosType::kNmos, geo);

  const auto model = device::MosModel::create("level1");
  Simulator sim(c, kTech, *model);
  const DcSolution op = sim.dcOperatingPoint();
  ASSERT_EQ(op.mosOps[0].region, device::MosRegion::kSaturation);
  const auto ac = sim.ac(op, 1e3, 10e9, 20);
  const AcCurve curve = curveAt(ac, out);
  const double a0 = dcGain(curve);

  const auto& mos = op.mosOps[0];
  const double rl = 1.0 / (1.0 / 10e3 + mos.gds);
  const double cTotal = 2e-12 + mos.cdb + mos.cgd * (1.0 + mos.gm * rl) * rl / 10e3;
  const double fpExpected = 1.0 / (2 * M_PI * rl * cTotal);
  // Find measured -3 dB frequency.
  double fMeas = 0.0;
  for (std::size_t i = 0; i + 1 < curve.size(); ++i) {
    if (std::abs(curve.h[i]) >= a0 / std::sqrt(2.0) &&
        std::abs(curve.h[i + 1]) < a0 / std::sqrt(2.0)) {
      fMeas = std::sqrt(curve.freq[i] * curve.freq[i + 1]);
      break;
    }
  }
  ASSERT_GT(fMeas, 0.0);
  EXPECT_NEAR(std::log10(fMeas), std::log10(fpExpected), 0.15);
}

}  // namespace
}  // namespace lo::sim
