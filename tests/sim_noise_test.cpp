#include <gtest/gtest.h>

#include <cmath>

#include "device/folding.hpp"
#include "sim/simulator.hpp"
#include "tech/technology.hpp"
#include "tech/units.hpp"

namespace lo::sim {
namespace {

using circuit::Circuit;
using circuit::Waveform;

const tech::Technology kTech = tech::Technology::generic060();

TEST(SimNoise, SingleResistorThermalNoise) {
  // Output PSD across a resistor driven by an ideal source through itself:
  // the divider of two equal resistors shows 4kT * (R || R).
  Circuit c;
  const auto in = c.node("in"), out = c.node("out");
  const double r = 100e3;
  c.addVSource("VIN", in, circuit::kGround, Waveform::makeDc(0.0), 1.0);
  c.addResistor("R1", in, out, r);
  c.addResistor("R2", out, circuit::kGround, r);

  const auto model = device::MosModel::create("level1");
  Simulator sim(c, kTech, *model);
  const DcSolution op = sim.dcOperatingPoint();
  const auto pts = sim.noise(op, out, "VIN", 1e3, 1e6, 5);
  const double expected = 4.0 * kBoltzmann * 300.15 * (r / 2.0);
  for (const NoisePoint& p : pts) {
    EXPECT_NEAR(p.outputPsd, expected, expected * 1e-3) << p.freq;
    // Gain to output is 1/2; input-referred PSD is 4x output.
    EXPECT_NEAR(p.inputRefPsd, 4.0 * expected, 4.0 * expected * 1e-3);
  }
}

TEST(SimNoise, KTOverCIntegral) {
  // Total integrated output noise of an RC filter is kT/C regardless of R.
  Circuit c;
  const auto in = c.node("in"), out = c.node("out");
  const double r = 10e3, cap = 10e-12;
  c.addVSource("VIN", in, circuit::kGround, Waveform::makeDc(0.0), 1.0);
  c.addResistor("R1", in, out, r);
  c.addCapacitor("C1", out, circuit::kGround, cap);

  const auto model = device::MosModel::create("level1");
  Simulator sim(c, kTech, *model);
  const DcSolution op = sim.dcOperatingPoint();
  // Integrate far past the pole (fp = 1.6 MHz): 1 Hz .. 10 GHz.
  const auto pts = sim.noise(op, out, "VIN", 1.0, 10e9, 20);
  const double total = integratePsd(pts, 1.0, 10e9, /*inputReferred=*/false);
  const double expected = kBoltzmann * 300.15 / cap;
  EXPECT_NEAR(total, expected, expected * 0.02);
}

TEST(SimNoise, CommonSourceInputReferredThermalNoise) {
  // Input-referred white noise of a common-source stage: the device's own
  // 4kT(2/3)/gm plus the load resistor referred by 1/(gm^2 RL^2) * 4kT RL.
  Circuit c;
  const auto in = c.node("in"), out = c.node("out"), vdd = c.node("vdd");
  device::MosGeometry geo;
  geo.w = 80e-6;
  geo.l = 1e-6;
  device::applyUnfoldedGeometry(kTech.rules, geo);
  c.addVSource("VDD", vdd, circuit::kGround, Waveform::makeDc(3.3));
  c.addVSource("VIN", in, circuit::kGround, Waveform::makeDc(0.95), 1.0);
  c.addResistor("RL", vdd, out, 10e3);
  c.addMos("M1", out, in, circuit::kGround, circuit::kGround, tech::MosType::kNmos, geo);

  const auto model = device::MosModel::create("level1");
  Simulator sim(c, kTech, *model);
  const DcSolution op = sim.dcOperatingPoint();
  ASSERT_EQ(op.mosOps[0].region, device::MosRegion::kSaturation);
  const double gm = op.mosOps[0].gm;
  const double gout = 1.0 / 10e3 + op.mosOps[0].gds;

  // Measure at a frequency high enough to be past the flicker corner but
  // below any pole (no explicit caps; device caps give >100 MHz poles).
  const auto pts = sim.noise(op, out, "VIN", 1e6, 10e6, 3);
  const double kT4 = 4.0 * kBoltzmann * 300.15;
  const double gainSq = std::pow(gm / gout, 2.0);
  const double flicker = op.mosOps[0].flickerCoeff / pts.front().freq / (gm * gm);
  const double expected =
      (kT4 * (2.0 / 3.0) * gm + kT4 / 10e3) / (gout * gout) / gainSq + flicker;
  EXPECT_NEAR(pts.front().inputRefPsd, expected, expected * 0.05);
}

TEST(SimNoise, FlickerDominatesAtLowFrequency) {
  Circuit c;
  const auto in = c.node("in"), out = c.node("out"), vdd = c.node("vdd");
  device::MosGeometry geo;
  geo.w = 40e-6;
  geo.l = 1e-6;
  device::applyUnfoldedGeometry(kTech.rules, geo);
  c.addVSource("VDD", vdd, circuit::kGround, Waveform::makeDc(3.3));
  c.addVSource("VIN", in, circuit::kGround, Waveform::makeDc(0.95), 1.0);
  c.addResistor("RL", vdd, out, 10e3);
  c.addMos("M1", out, in, circuit::kGround, circuit::kGround, tech::MosType::kNmos, geo);

  const auto model = device::MosModel::create("level1");
  Simulator sim(c, kTech, *model);
  const DcSolution op = sim.dcOperatingPoint();
  const auto pts = sim.noise(op, out, "VIN", 1.0, 10e6, 4);
  // PSD at 1 Hz far exceeds PSD at 10 MHz, and the low-frequency part falls
  // as ~1/f.
  EXPECT_GT(pts.front().outputPsd, 100.0 * pts.back().outputPsd);
  const double ratio = pts.front().outputPsd / pts[1].outputPsd;
  const double fRatio = pts[1].freq / pts.front().freq;
  EXPECT_NEAR(std::log(ratio) / std::log(fRatio), 1.0, 0.15);
}

TEST(SimNoise, UnknownInputSourceThrows) {
  Circuit c;
  c.addResistor("R1", c.node("a"), circuit::kGround, 1e3);
  const auto model = device::MosModel::create("level1");
  Simulator sim(c, kTech, *model);
  const DcSolution op = sim.dcOperatingPoint();
  EXPECT_THROW((void)sim.noise(op, circuit::kGround, "VX", 1.0, 1e6, 5), SimulationError);
}

TEST(SimNoise, OutputAndInjectionNodesOutsideTheCircuitThrow) {
  // An output or injection node the circuit does not have would index
  // past the solver's node table.
  Circuit c;
  const auto a = c.node("a");
  c.addVSource("VIN", a, circuit::kGround, Waveform::makeDc(1.0), 1.0);
  c.addResistor("R1", a, c.node("b"), 1e3);
  c.addResistor("R2", c.node("b"), circuit::kGround, 1e3);
  const auto model = device::MosModel::create("level1");
  Simulator sim(c, kTech, *model);
  const DcSolution op = sim.dcOperatingPoint();
  for (const circuit::NodeId bad : {c.nodeCount(), -1}) {
    EXPECT_THROW((void)sim.noise(op, bad, "VIN", 1.0, 1e6, 5), SimulationError);
    EXPECT_THROW((void)sim.acBatch(op, {AcExcitation::unitCurrent(circuit::kGround, bad)}, 1.0,
                                   1e6, 5),
                 SimulationError);
  }
  EXPECT_NO_THROW((void)sim.noise(op, *c.findNode("b"), "VIN", 1.0, 1e6, 5));
}

}  // namespace
}  // namespace lo::sim
