#include "sizing/ota_sizer.hpp"

#include <gtest/gtest.h>

#include <string>

#include "device/folding.hpp"
#include "sizing/ota_evaluator.hpp"

namespace lo::sizing {
namespace {

using circuit::OtaGroup;

const tech::Technology kTech = tech::Technology::generic060();

class SizerByModel : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<device::MosModel> model_ = device::MosModel::create(GetParam());
};

TEST_P(SizerByModel, ConvergesAndHitsGbwTarget) {
  OtaSizer sizer(kTech, *model_);
  const OtaSpecs specs;
  const SizingResult r = sizer.size(specs, SizingPolicy::case2());
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.predicted.gbwHz, specs.gbw, specs.gbw * 0.01);
  EXPECT_GE(r.predicted.phaseMarginDeg, specs.phaseMarginDeg - 0.5);
  EXPECT_LE(r.predicted.phaseMarginDeg, specs.phaseMarginDeg + 15.0);
}

TEST_P(SizerByModel, DesignIsElectricallySane) {
  OtaSizer sizer(kTech, *model_);
  const OtaSpecs specs;
  const SizingResult r = sizer.size(specs, SizingPolicy::case2());
  const auto& d = r.design;
  EXPECT_GT(d.tailCurrent, 20e-6);
  EXPECT_LT(d.tailCurrent, 2e-3);
  EXPECT_GT(d.cascodeCurrent, 0.3 * d.tailCurrent);
  for (OtaGroup g : circuit::kAllOtaGroups) {
    EXPECT_GT(d.geometry(g).w, 1e-6) << circuit::otaGroupName(g);
    EXPECT_LT(d.geometry(g).w, 2e-3) << circuit::otaGroupName(g);
  }
  // Bias voltages inside the rails.
  for (double v : {d.vp1, d.vbn, d.vc1, d.vc3}) {
    EXPECT_GT(v, 0.0);
    EXPECT_LT(v, specs.vdd);
  }
}

TEST_P(SizerByModel, SnapshotDevicesAllSaturated) {
  OtaSizer sizer(kTech, *model_);
  OtaEvaluator eval(kTech, *model_);
  const OtaSpecs specs;
  const SizingResult r = sizer.size(specs, SizingPolicy::case2());
  const OtaOpSnapshot s = eval.snapshot(r.design, specs.inputCmMid());
  for (const device::MosOpPoint* op :
       {&s.pair, &s.tail, &s.sink, &s.nCasc, &s.pSrc, &s.pCasc}) {
    EXPECT_EQ(op->region, device::MosRegion::kSaturation);
    EXPECT_GT(op->gm, 0.0);
  }
  // Node voltage sanity: gnd < vx < vout < vy < vtail-ish < vdd.
  EXPECT_GT(s.vx, 0.1);
  EXPECT_LT(s.vx, s.vout);
  EXPECT_LT(s.vy, specs.vdd);
  EXPECT_GT(s.vz, s.vy);
  EXPECT_GT(s.vtail, specs.inputCmMid());
}

TEST_P(SizerByModel, GroupCurrentsBalance) {
  OtaSizer sizer(kTech, *model_);
  OtaEvaluator eval(kTech, *model_);
  const OtaSpecs specs;
  const SizingResult r = sizer.size(specs, SizingPolicy::case2());
  const OtaOpSnapshot s = eval.snapshot(r.design, specs.inputCmMid());
  // Each device must carry roughly its planned current at the planned bias.
  EXPECT_NEAR(std::abs(s.pair.id), r.design.tailCurrent / 2, r.design.tailCurrent * 0.1);
  EXPECT_NEAR(std::abs(s.sink.id), r.design.sinkCurrent(), r.design.sinkCurrent() * 0.15);
  EXPECT_NEAR(std::abs(s.pSrc.id), r.design.cascodeCurrent,
              r.design.cascodeCurrent * 0.15);
}

TEST_P(SizerByModel, GbwPastTheModelsRangeFailsInsteadOfNonFiniteFigures) {
  // Finite specs that no device can meet drive the plan to overflow or
  // 0/0: sizing must throw, naming what went non-finite, rather than
  // return NaN figures.
  OtaSizer sizer(kTech, *model_);
  for (const double gbw : {1e30, 1e-300}) {
    OtaSpecs specs;
    specs.gbw = gbw;
    for (const SizingPolicy& policy : {SizingPolicy::case1(), SizingPolicy::case2()}) {
      try {
        const SizingResult r = sizer.size(specs, policy);
        ADD_FAILURE() << "gbw " << gbw << " sized, predicting a GBW of "
                      << r.predicted.gbwHz;
      } catch (const std::exception& e) {
        EXPECT_NE(std::string(e.what()).find("OtaSizer: "), std::string::npos) << e.what();
        EXPECT_NE(std::string(e.what()).find(" is not finite"), std::string::npos)
            << e.what();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Models, SizerByModel, ::testing::Values("level1", "ekv"));

TEST(SizingPolicy, Case1IgnoresJunctions) {
  const auto model = device::MosModel::create("ekv");
  OtaSizer sizer(kTech, *model);
  const OtaSpecs specs;
  const SizingResult r1 = sizer.size(specs, SizingPolicy::case1());
  // Case 1 zeroes the junction figures the sizer leaves on the design.
  EXPECT_EQ(r1.design.inputPair.ad, 0.0);
  EXPECT_EQ(r1.design.nCascode.pd, 0.0);
  const SizingResult r2 = sizer.size(specs, SizingPolicy::case2());
  EXPECT_GT(r2.design.inputPair.ad, 0.0);
}

TEST(SizingPolicy, PessimisticCapsDemandMorePower) {
  // Case 2's over-estimated junctions inflate the capacitance budget, so
  // the sizer provisions more gm -> more current than case 1.
  const auto model = device::MosModel::create("ekv");
  OtaSizer sizer(kTech, *model);
  const OtaSpecs specs;
  const SizingResult r1 = sizer.size(specs, SizingPolicy::case1());
  const SizingResult r2 = sizer.size(specs, SizingPolicy::case2());
  EXPECT_GT(r2.predicted.powerMw, r1.predicted.powerMw);
  // And the extra loading costs DC gain.
  EXPECT_LT(r2.predicted.dcGainDb, r1.predicted.dcGainDb + 0.1);
}

TEST(SizingPolicy, ExactJunctionTemplatesShrinkTheBudget) {
  const auto model = device::MosModel::create("ekv");
  OtaSizer sizer(kTech, *model);
  OtaEvaluator eval(kTech, *model);
  const OtaSpecs specs;
  const SizingResult pess = sizer.size(specs, SizingPolicy::case2());

  // Build exact templates: folded geometry has less diffusion than unfolded.
  SizingPolicy exact;
  exact.exactDiffusion = true;
  for (circuit::OtaGroup g : circuit::kAllOtaGroups) {
    device::MosGeometry tpl = pess.design.geometry(g);
    const device::FoldPlan plan =
        device::planFolds(kTech.rules, tpl.w, 15e-6, device::FoldStyle::kDrainInternal);
    device::applyDiffusionGeometry(kTech.rules, plan, tpl);
    exact.junctionTemplates[g] = tpl;
  }
  const SizingResult ex = sizer.size(specs, exact);
  const auto sPess = eval.snapshot(pess.design, specs.inputCmMid());
  const auto sEx = eval.snapshot(ex.design, specs.inputCmMid());
  EXPECT_LT(eval.capBudget(ex.design, sEx, exact).out,
            eval.capBudget(pess.design, sPess, SizingPolicy::case2()).out);
}

TEST(Evaluator, RoutingParasiticsLowerPredictedBandwidthMargin) {
  const auto model = device::MosModel::create("ekv");
  OtaSizer sizer(kTech, *model);
  OtaEvaluator eval(kTech, *model);
  const OtaSpecs specs;
  const SizingResult r = sizer.size(specs, SizingPolicy::case2());

  layout::ParasiticReport report;
  report.nets["out"].routingCap = 150e-15;
  report.nets["x1"].routingCap = 80e-15;
  SizingPolicy withRouting = SizingPolicy::case2();
  withRouting.routingParasitics = &report;

  const OtaOpSnapshot snap = eval.snapshot(r.design, specs.inputCmMid());
  const OtaPerformance base = eval.evaluate(r.design, snap, SizingPolicy::case2());
  const OtaPerformance loaded = eval.evaluate(r.design, snap, withRouting);
  EXPECT_LT(loaded.gbwHz, base.gbwHz);
  EXPECT_LT(loaded.phaseMarginDeg, base.phaseMarginDeg);
}

TEST(Evaluator, PerformanceFiguresInPhysicalRanges) {
  const auto model = device::MosModel::create("ekv");
  OtaSizer sizer(kTech, *model);
  const OtaSpecs specs;
  const OtaPerformance p = sizer.size(specs, SizingPolicy::case2()).predicted;
  EXPECT_GT(p.dcGainDb, 55.0);
  EXPECT_LT(p.dcGainDb, 90.0);
  EXPECT_GT(p.cmrrDb, 70.0);
  EXPECT_GT(p.slewRateVPerUs, 20.0);
  EXPECT_GT(p.outputResistanceMOhm, 0.2);
  EXPECT_GT(p.inputNoiseUv, 20.0);
  EXPECT_LT(p.inputNoiseUv, 300.0);
  EXPECT_GT(p.thermalNoiseDensityNv, 5.0);
  EXPECT_LT(p.thermalNoiseDensityNv, 50.0);
  EXPECT_GT(p.powerMw, 0.3);
  EXPECT_LT(p.powerMw, 10.0);
  EXPECT_LT(std::abs(p.offsetMv), 5.0);
}

TEST(OperatingChoices, GroupAccessorCoversAllGroups) {
  OperatingChoices c;
  c.of(circuit::OtaGroup::kSink).veff = 0.42;
  EXPECT_DOUBLE_EQ(c.sink.veff, 0.42);
  const OperatingChoices& cc = c;
  EXPECT_DOUBLE_EQ(cc.of(circuit::OtaGroup::kSink).veff, 0.42);
}

}  // namespace
}  // namespace lo::sizing
