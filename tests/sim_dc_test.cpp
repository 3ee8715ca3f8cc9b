#include <gtest/gtest.h>

#include <cmath>

#include "device/folding.hpp"
#include "sim/simulator.hpp"
#include "tech/technology.hpp"

namespace lo::sim {
namespace {

using circuit::Circuit;
using circuit::Waveform;

const tech::Technology kTech = tech::Technology::generic060();

DcSolution solve(const Circuit& c, const char* modelName = "level1") {
  const auto model = device::MosModel::create(modelName);
  Simulator sim(c, kTech, *model);
  return sim.dcOperatingPoint();
}

TEST(SimDc, ResistorDivider) {
  Circuit c;
  const auto in = c.node("in"), mid = c.node("mid");
  c.addVSource("V1", in, circuit::kGround, Waveform::makeDc(3.0));
  c.addResistor("R1", in, mid, 10e3);
  c.addResistor("R2", mid, circuit::kGround, 20e3);
  const DcSolution sol = solve(c);
  EXPECT_TRUE(sol.converged);
  EXPECT_NEAR(sol.voltage(mid), 2.0, 1e-6);
  // Branch current through V1: 3 V over 30 kOhm flowing out of the source.
  EXPECT_NEAR(sol.vsourceCurrents[0], -1e-4, 1e-9);
}

TEST(SimDc, CurrentSourceIntoResistor) {
  Circuit c;
  const auto n = c.node("n");
  c.addISource("I1", circuit::kGround, n, Waveform::makeDc(1e-3));
  c.addResistor("R1", n, circuit::kGround, 1e3);
  const DcSolution sol = solve(c);
  EXPECT_NEAR(sol.voltage(n), 1.0, 1e-6);
}

TEST(SimDc, VcvsAmplifier) {
  Circuit c;
  const auto in = c.node("in"), out = c.node("out");
  c.addVSource("V1", in, circuit::kGround, Waveform::makeDc(0.01));
  c.addVcvs("E1", out, circuit::kGround, in, circuit::kGround, 100.0);
  c.addResistor("RL", out, circuit::kGround, 1e3);
  const DcSolution sol = solve(c);
  EXPECT_NEAR(sol.voltage(out), 1.0, 1e-6);
}

TEST(SimDc, DiodeConnectedNmosMatchesModelInversion) {
  Circuit c;
  const auto d = c.node("d");
  device::MosGeometry geo;
  geo.w = 50e-6;
  geo.l = 1e-6;
  device::applyUnfoldedGeometry(kTech.rules, geo);
  c.addISource("I1", circuit::kGround, d, Waveform::makeDc(100e-6));
  c.addMos("M1", d, d, circuit::kGround, circuit::kGround, tech::MosType::kNmos, geo);

  const auto model = device::MosModel::create("level1");
  Simulator sim(c, kTech, *model);
  const DcSolution sol = sim.dcOperatingPoint();
  // The solved gate voltage must reproduce the target current.
  const double id =
      model->currentNormalized(kTech.nmos, geo, sol.voltage(d), sol.voltage(d), 0.0, 300.15);
  EXPECT_NEAR(id, 100e-6, 100e-6 * 1e-4);
  EXPECT_EQ(sol.mosOps[0].region, device::MosRegion::kSaturation);
}

class MirrorByModel : public ::testing::TestWithParam<const char*> {};

TEST_P(MirrorByModel, SimpleCurrentMirrorReproducesRatio) {
  Circuit c;
  const auto d1 = c.node("d1"), d2 = c.node("d2"), vdd = c.node("vdd");
  device::MosGeometry g1, g2;
  g1.w = 10e-6;
  g1.l = 2e-6;
  device::applyUnfoldedGeometry(kTech.rules, g1);
  g2 = g1;
  g2.w = 30e-6;  // 1:3 mirror.
  device::applyUnfoldedGeometry(kTech.rules, g2);

  c.addVSource("VDD", vdd, circuit::kGround, Waveform::makeDc(3.3));
  c.addISource("IREF", d1, circuit::kGround, Waveform::makeDc(50e-6));
  c.addMos("M1", d1, d1, vdd, vdd, tech::MosType::kPmos, g1);
  c.addMos("M2", d2, d1, vdd, vdd, tech::MosType::kPmos, g2);
  c.addResistor("RL", d2, circuit::kGround, 10e3);

  const DcSolution sol = solve(c, GetParam());
  const double iOut = sol.voltage(d2) / 10e3;
  // 1:3 ratio within a few percent (finite output resistance).
  EXPECT_NEAR(iOut, 150e-6, 150e-6 * 0.05);
}

INSTANTIATE_TEST_SUITE_P(Models, MirrorByModel, ::testing::Values("level1", "ekv"));

TEST(SimDc, CmosInverterSwitchesState) {
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

  const auto model = device::MosModel::create("ekv");
  Simulator sim(c, kTech, *model);
  const auto sweep = sim.dcSweep("VIN", 0.0, 3.3, 12);
  EXPECT_GT(sweep.front().solution.voltage(out), 3.2);  // Input low -> output high.
  EXPECT_LT(sweep.back().solution.voltage(out), 0.1);   // Input high -> output low.
  // Output is monotonically non-increasing along the sweep.
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    EXPECT_LE(sweep[i].solution.voltage(out), sweep[i - 1].solution.voltage(out) + 1e-6);
  }
}

TEST(SimDc, MultiplierActsAsParallelDevices) {
  Circuit c;
  const auto d = c.node("d"), g = c.node("g");
  device::MosGeometry geo;
  geo.w = 10e-6;
  geo.l = 1e-6;
  device::applyUnfoldedGeometry(kTech.rules, geo);
  c.addVSource("VG", g, circuit::kGround, Waveform::makeDc(1.5));
  c.addVSource("VD", d, circuit::kGround, Waveform::makeDc(2.0));
  c.addMos("M1", d, g, circuit::kGround, circuit::kGround, tech::MosType::kNmos, geo, 4.0);
  const DcSolution sol = solve(c);
  device::MosGeometry wide = geo;
  wide.w = 40e-6;
  const auto model = device::MosModel::create("level1");
  const double idWide = model->currentNormalized(kTech.nmos, wide, 1.5, 2.0, 0.0, 300.15);
  EXPECT_NEAR(std::abs(sol.mosOps[0].id), idWide, idWide * 1e-9);
}

TEST(SimDc, SweepRequiresKnownSource) {
  Circuit c;
  c.addResistor("R1", c.node("a"), circuit::kGround, 1e3);
  const auto model = device::MosModel::create("level1");
  Simulator sim(c, kTech, *model);
  EXPECT_THROW((void)sim.dcSweep("VMISSING", 0, 1, 3), SimulationError);
  EXPECT_THROW((void)sim.dcSweep("VMISSING", 0, 1, 1), std::invalid_argument);
}

TEST(SimDc, FloatingNodeHeldByGmin) {
  // A node with no DC path to ground must still solve (pulled by gmin).
  Circuit c;
  const auto a = c.node("a"), b = c.node("b");
  c.addVSource("V1", a, circuit::kGround, Waveform::makeDc(1.0));
  c.addCapacitor("C1", a, b, 1e-12);
  const DcSolution sol = solve(c);
  EXPECT_TRUE(sol.converged);
  EXPECT_NEAR(sol.voltage(b), 0.0, 1e-6);
}

}  // namespace
}  // namespace lo::sim
