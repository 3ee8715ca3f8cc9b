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

TEST(SimTran, RcStepResponseMatchesAnalytic) {
  Circuit c;
  const auto in = c.node("in"), out = c.node("out");
  const double r = 10e3, cap = 1e-9, tau = r * cap;
  c.addVSource("VIN", in, circuit::kGround,
               Waveform::makePulse(0.0, 1.0, 0.0, 1e-12, 1e-12, 1.0, 2.0));
  c.addResistor("R1", in, out, r);
  c.addCapacitor("C1", out, circuit::kGround, cap);

  const auto model = device::MosModel::create("level1");
  Simulator sim(c, kTech, *model);
  const auto tran = sim.transient(5 * tau, tau / 200);
  const auto outId = *c.findNode("out");
  for (const TranPoint& p : tran) {
    const double expected = 1.0 - std::exp(-p.time / tau);
    EXPECT_NEAR(p.nodeV[outId], expected, 0.01) << "t=" << p.time;
  }
}

TEST(SimTran, CurrentSourceIntegratesOnCapacitor) {
  // I = C dV/dt: a 1 uA step on 1 pF ramps 1 V/us.  The source is zero at
  // t = 0 so the DC starting point is trivially V = 0.
  Circuit c;
  const auto n = c.node("n");
  c.addISource("I1", circuit::kGround, n,
               Waveform::makePulse(0.0, 1e-6, 100e-9, 1e-12, 1e-12, 1.0, 2.0));
  c.addCapacitor("C1", n, circuit::kGround, 1e-12);
  c.addResistor("RB", n, circuit::kGround, 1e9);  // DC path for the op point.

  const auto model = device::MosModel::create("level1");
  Simulator sim(c, kTech, *model);
  const auto tran = sim.transient(2e-6, 2e-9);
  const auto nId = *c.findNode("n");
  EXPECT_NEAR(tran.front().nodeV[nId], 0.0, 1e-6);
  const SlewRates sr = slewRates(tran, nId, 150e-9, 2e-6);
  EXPECT_NEAR(sr.rising, 1e6, 1e4);  // 1 V/us.
  // End value: 1.9 us of integration.
  EXPECT_NEAR(tran.back().nodeV[nId], 1.9, 0.02);
}

TEST(SimTran, SinSourceReproducedAtNodes) {
  Circuit c;
  const auto in = c.node("in"), out = c.node("out");
  c.addVSource("VIN", in, circuit::kGround, Waveform::makeSin(1.0, 0.5, 1e6));
  c.addResistor("R1", in, out, 1e3);
  c.addResistor("R2", out, circuit::kGround, 1e3);

  const auto model = device::MosModel::create("level1");
  Simulator sim(c, kTech, *model);
  const auto tran = sim.transient(2e-6, 5e-9);
  const auto outId = *c.findNode("out");
  for (const TranPoint& p : tran) {
    const double expected = 0.5 * (1.0 + 0.5 * std::sin(2 * M_PI * 1e6 * p.time));
    EXPECT_NEAR(p.nodeV[outId], expected, 1e-3);
  }
}

TEST(SimTran, NmosSourceFollowerTracksStep) {
  Circuit c;
  const auto in = c.node("in"), out = c.node("out"), vdd = c.node("vdd");
  device::MosGeometry geo;
  geo.w = 50e-6;
  geo.l = 0.6e-6;
  device::applyUnfoldedGeometry(kTech.rules, geo);
  c.addVSource("VDD", vdd, circuit::kGround, Waveform::makeDc(3.3));
  c.addVSource("VIN", in, circuit::kGround,
               Waveform::makePulse(2.0, 2.5, 100e-9, 1e-9, 1e-9, 1e-6, 2e-6));
  // Bulk tied to source: no body effect, so the follower tracks closely.
  c.addMos("M1", vdd, in, out, out, tech::MosType::kNmos, geo);
  c.addISource("IB", out, circuit::kGround, Waveform::makeDc(100e-6));
  c.addCapacitor("CL", out, circuit::kGround, 1e-12);

  const auto model = device::MosModel::create("ekv");
  Simulator sim(c, kTech, *model);
  const auto tran = sim.transient(400e-9, 1e-9);
  const auto outId = *c.findNode("out");
  const double before = tran.front().nodeV[outId];
  const double after = tran.back().nodeV[outId];
  // The follower shifts by ~VGS but tracks the 0.5 V step closely.
  EXPECT_NEAR(after - before, 0.5, 0.05);
}

TEST(SimTran, RejectsBadTimeArguments) {
  Circuit c;
  c.addResistor("R1", c.node("a"), circuit::kGround, 1e3);
  const auto model = device::MosModel::create("level1");
  Simulator sim(c, kTech, *model);
  EXPECT_THROW((void)sim.transient(-1.0, 1e-9), std::invalid_argument);
  EXPECT_THROW((void)sim.transient(1e-6, 0.0), std::invalid_argument);
}

TEST(SimTran, RejectsAStepCountPastInt) {
  // 1e12 steps do not fit the int the step loop counts in; neither do a
  // NaN or infinite count.
  Circuit c;
  c.addResistor("R1", c.node("a"), circuit::kGround, 1e3);
  const auto model = device::MosModel::create("level1");
  Simulator sim(c, kTech, *model);
  EXPECT_THROW((void)sim.transient(1.0, 1e-12), std::invalid_argument);
  EXPECT_THROW((void)sim.transient(1.0, 1e-320), std::invalid_argument);
  EXPECT_THROW((void)sim.transient(std::nan(""), 1e-9), std::invalid_argument);
  EXPECT_THROW((void)sim.transient(1e-6, std::nan("")), std::invalid_argument);
  // 2^31 - 1 steps would still fit; one step past it does not.
  EXPECT_THROW((void)sim.transient(2147483648.0, 1.0), std::invalid_argument);
}

TEST(SimTran, FinalPartialStepIntegratesOverItsOwnLength) {
  // An RC (tau = 1 us) driven by a 100 ns ramp to 1 V, stepped by 100 ns
  // to 250 ns: the last step is half a step long.  Its sample must agree
  // with a finely stepped run to trapezoidal accuracy (the 100 ns steps'
  // own truncation error is 0.6 mV here); integrated over a full step, it
  // would read 0.2204 V, 39 mV high.  A remainder within rounding of zero
  // is no step at all.
  Circuit c;
  const auto in = c.node("in"), out = c.node("out");
  c.addVSource("VIN", in, circuit::kGround,
               Waveform::makePulse(0.0, 1.0, 0.0, 100e-9, 1e-9, 1.0, 2.0));
  c.addResistor("R1", in, out, 1e3);
  c.addCapacitor("C1", out, circuit::kGround, 1e-9);
  const auto model = device::MosModel::create("level1");
  Simulator sim(c, kTech, *model);
  const auto coarse = sim.transient(2.5e-7, 1e-7);
  const auto fine = sim.transient(2.5e-7, 1e-10);
  ASSERT_EQ(coarse.size(), 4u);
  EXPECT_EQ(coarse.back().time, 2.5e-7);
  EXPECT_EQ(fine.back().time, 2.5e-7);
  const auto outId = *c.findNode("out");
  EXPECT_NEAR(coarse.back().nodeV[outId], fine.back().nodeV[outId], 1e-3);
  // 1.1e-6 / 1e-7 reads 11.000000000000002: its ceiling must not add a
  // twelfth step, of zero length, at a time already sampled.
  const auto whole = sim.transient(1.1e-6, 1e-7);
  ASSERT_EQ(whole.size(), 12u);
  for (std::size_t i = 1; i < whole.size(); ++i) EXPECT_LT(whole[i - 1].time, whole[i].time);
  EXPECT_EQ(whole.back().time, 1.1e-6);
}

TEST(SimTran, EnergyConservationOnLinearRc) {
  // Trapezoidal integration is A-stable and nearly lossless: after charging,
  // the capacitor holds its voltage when the source is flat.
  Circuit c;
  const auto in = c.node("in"), out = c.node("out");
  c.addVSource("VIN", in, circuit::kGround,
               Waveform::makePulse(0.0, 1.0, 0.0, 1e-12, 1e-12, 1.0, 2.0));
  c.addResistor("R1", in, out, 1e3);
  c.addCapacitor("C1", out, circuit::kGround, 1e-9);
  const auto model = device::MosModel::create("level1");
  Simulator sim(c, kTech, *model);
  const auto tran = sim.transient(50e-6, 50e-9);  // 50 tau.
  const auto outId = *c.findNode("out");
  EXPECT_NEAR(tran.back().nodeV[outId], 1.0, 1e-6);
}

}  // namespace
}  // namespace lo::sim
