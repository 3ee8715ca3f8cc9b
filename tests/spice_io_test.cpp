#include "circuit/spice_io.hpp"

#include <gtest/gtest.h>

#include <utility>

namespace lo::circuit {
namespace {

// The examples write their synthesised netlists with writeNetlist; this
// pins the text of every card it emits and of every number format.
TEST(NetlistWriter, PinsTheTextOfEveryElementKind) {
  Circuit c;
  c.title = "every element";
  const NodeId in = c.node("in"), out = c.node("out"), vdd = c.node("vdd");
  device::MosGeometry geo;
  geo.w = 33e-6;
  geo.l = 0.8e-6;
  geo.nf = 4;
  geo.ad = 10e-12;
  geo.as = 11e-12;
  geo.pd = 5e-6;
  geo.ps = 6e-6;
  c.addMos("M1", out, in, kGround, kGround, tech::MosType::kNmos, geo, 2.0);
  c.addMos("M2", out, in, vdd, vdd, tech::MosType::kPmos, geo);
  c.addResistor("R1", in, out, 4.7e3);
  c.addCapacitor("C1", out, kGround, 2.2e-12);
  c.addVSource("V1", in, kGround, Waveform::makePulse(0, 3.3, 0, 1e-9, 1e-9, 1e-6, 2e-6),
               0.5, 45.0);
  c.addVSource("V2", vdd, kGround, Waveform::makeSin(1.65, 0.1, 1e6));
  c.addISource("I1", in, out, Waveform::makeDc(1e-6), 1.0);
  c.addVcvs("E1", out, kGround, in, kGround, 12.0);
  EXPECT_EQ(writeNetlist(c),
            "* every element\n"
            "M1 out in 0 0 nmos W=33u L=800n NF=4 AD=10p AS=11p PD=5u PS=6u M=2\n"
            "M2 out in vdd vdd pmos W=33u L=800n NF=4 AD=10p AS=11p PD=5u PS=6u M=1\n"
            "R1 in out 4.7k\n"
            "C1 out 0 2.2p\n"
            "V1 in 0 PULSE(0 3.3 0 1n 1n 1u 2u) AC 500m 45\n"
            "V2 vdd 0 SIN(1.65 100m 1meg)\n"
            "I1 in out DC 1u AC 1\n"
            "E1 out 0 in 0 12\n"
            ".end\n");

  const std::pair<double, const char*> kNumbers[] = {
      {1e15, "1000t"},  {3.3e12, "3.3t"}, {2e9, "2g"},       {1.5e6, "1.5meg"},
      {4.7e3, "4.7k"},  {1.5, "1.5"},     {2.5e-3, "2.5m"},  {2.5e-6, "2.5u"},
      {4.7e-9, "4.7n"}, {1e-12, "1p"},    {100e-15, "100f"}, {0.0, "0"},
      {-3e-3, "-3m"},   {5e-18, "5e-18"},
      // Every digit the value needs, with no rounding.
      {1.23456789e-6, "1.23456789u"}, {33.3333333e-6, "33.3333333u"},
  };
  for (const auto& [value, text] : kNumbers) {
    EXPECT_EQ(formatSpiceNumber(value), text) << value;
  }
}

}  // namespace
}  // namespace lo::circuit
