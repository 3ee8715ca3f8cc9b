#include "device/mos_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "device/folding.hpp"
#include "device/inversion.hpp"
#include "tech/technology.hpp"
#include "tech/units.hpp"

namespace lo::device {
namespace {

tech::Technology tech060() { return tech::Technology::generic060(); }

MosGeometry defaultGeo(double w = 20e-6, double l = 1e-6) {
  MosGeometry g;
  g.w = w;
  g.l = l;
  applyUnfoldedGeometry(tech060().rules, g);
  return g;
}

// --- Properties shared by both models (parameterised suite). ---

class ModelProperties : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<MosModel> model_ = MosModel::create(GetParam());
  tech::Technology tech_ = tech060();
};

TEST_P(ModelProperties, CurrentIncreasesWithGateDrive) {
  const MosGeometry geo = defaultGeo();
  double prev = -1.0;
  for (double vgs = 0.5; vgs <= 3.0; vgs += 0.1) {
    const double id = model_->currentNormalized(tech_.nmos, geo, vgs, 2.0, 0.0, 300.15);
    EXPECT_GT(id, prev) << "vgs=" << vgs;
    prev = id;
  }
}

TEST_P(ModelProperties, CurrentIncreasesWithVds) {
  const MosGeometry geo = defaultGeo();
  double prev = 0.0;
  for (double vds = 0.05; vds <= 3.0; vds += 0.05) {
    const double id = model_->currentNormalized(tech_.nmos, geo, 1.5, vds, 0.0, 300.15);
    EXPECT_GT(id, prev) << "vds=" << vds;
    prev = id;
  }
}

TEST_P(ModelProperties, CurrentScalesLinearlyWithWidth) {
  MosGeometry geo = defaultGeo();
  const double i1 = model_->currentNormalized(tech_.nmos, geo, 1.5, 2.0, 0.0, 300.15);
  geo.w *= 3.0;
  const double i3 = model_->currentNormalized(tech_.nmos, geo, 1.5, 2.0, 0.0, 300.15);
  EXPECT_NEAR(i3 / i1, 3.0, 1e-9);
}

TEST_P(ModelProperties, SubthresholdCurrentIsTinyButPositive) {
  const MosGeometry geo = defaultGeo();
  const double idOn = model_->currentNormalized(tech_.nmos, geo, 1.5, 2.0, 0.0, 300.15);
  const double idOff = model_->currentNormalized(tech_.nmos, geo, 0.2, 2.0, 0.0, 300.15);
  EXPECT_GT(idOff, 0.0);
  EXPECT_LT(idOff, idOn * 1e-4);
}

TEST_P(ModelProperties, SourceDrainSymmetry) {
  const MosGeometry geo = defaultGeo();
  // Swapping source and drain negates the current: id(vgs,vds,vbs) with the
  // terminals exchanged equals -id measured from the other side.
  const double fwd = model_->currentNormalized(tech_.nmos, geo, 1.5, 1.0, -0.5, 300.15);
  const double rev = model_->currentNormalized(tech_.nmos, geo, 0.5, -1.0, -1.5, 300.15);
  EXPECT_NEAR(rev, -fwd, std::abs(fwd) * 1e-9);
}

TEST_P(ModelProperties, PmosMirrorsNmosBehaviour) {
  const MosGeometry geo = defaultGeo();
  const MosOpPoint op = model_->evaluate(tech_.pmos, geo, -1.5, -2.0, 0.0, 300.15);
  EXPECT_LT(op.id, 0.0);  // PMOS conducts negative drain current.
  EXPECT_GT(op.gm, 0.0);
  EXPECT_GT(op.gds, 0.0);
  EXPECT_EQ(op.region, MosRegion::kSaturation);
}

TEST_P(ModelProperties, BodyEffectRaisesThreshold) {
  EXPECT_GT(model_->threshold(tech_.nmos, -1.0), model_->threshold(tech_.nmos, 0.0));
  EXPECT_GT(model_->threshold(tech_.nmos, -2.0), model_->threshold(tech_.nmos, -1.0));
}

TEST_P(ModelProperties, GmMatchesNumericalDerivative) {
  const MosGeometry geo = defaultGeo();
  const MosOpPoint op = model_->evaluate(tech_.nmos, geo, 1.2, 2.0, 0.0, 300.15);
  const double h = 1e-5;
  const double gmRef =
      (model_->currentNormalized(tech_.nmos, geo, 1.2 + h, 2.0, 0.0, 300.15) -
       model_->currentNormalized(tech_.nmos, geo, 1.2 - h, 2.0, 0.0, 300.15)) /
      (2 * h);
  EXPECT_NEAR(op.gm, gmRef, std::abs(gmRef) * 1e-3);
}

TEST_P(ModelProperties, LongerChannelLowersOutputConductance) {
  MosGeometry geo = defaultGeo();
  const MosOpPoint shortL = model_->evaluate(tech_.nmos, geo, 1.2, 2.0, 0.0, 300.15);
  geo.l = 4e-6;
  const MosOpPoint longL = model_->evaluate(tech_.nmos, geo, 1.2, 2.0, 0.0, 300.15);
  // gds/id (1/VA) must drop substantially with channel length.
  EXPECT_LT(longL.gds / longL.id, 0.5 * shortL.gds / shortL.id);
}

TEST_P(ModelProperties, JunctionCapsShrinkWithReverseBias) {
  const MosGeometry geo = defaultGeo();
  const MosOpPoint lowRev = model_->evaluate(tech_.nmos, geo, 1.2, 0.5, 0.0, 300.15);
  const MosOpPoint highRev = model_->evaluate(tech_.nmos, geo, 1.2, 3.0, 0.0, 300.15);
  EXPECT_LT(highRev.cdb, lowRev.cdb);
  EXPECT_DOUBLE_EQ(highRev.csb, lowRev.csb);  // Source bias unchanged.
}

TEST_P(ModelProperties, NoisePsdsArePhysical) {
  const MosGeometry geo = defaultGeo();
  const MosOpPoint op = model_->evaluate(tech_.nmos, geo, 1.2, 2.0, 0.0, 300.15);
  // Thermal PSD ~ 4kT(2/3)gm.
  const double expected = 4.0 * kBoltzmann * 300.15 * (2.0 / 3.0) * op.gm;
  EXPECT_NEAR(op.thermalNoisePsd, expected, expected * 0.01);
  EXPECT_GT(op.flickerCoeff, 0.0);
}

TEST_P(ModelProperties, TriodeVsSaturationRegionLabels) {
  const MosGeometry geo = defaultGeo();
  EXPECT_EQ(model_->evaluate(tech_.nmos, geo, 2.0, 0.05, 0.0, 300.15).region,
            MosRegion::kTriode);
  EXPECT_EQ(model_->evaluate(tech_.nmos, geo, 1.2, 2.5, 0.0, 300.15).region,
            MosRegion::kSaturation);
  EXPECT_EQ(model_->evaluate(tech_.nmos, geo, 0.0, 2.5, 0.0, 300.15).region,
            MosRegion::kCutoff);
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelProperties, ::testing::Values("level1", "ekv"));

// --- Model-specific checks. ---

TEST(Level1, SquareLawInStrongInversion) {
  const tech::Technology t = tech060();
  Level1Model model;
  const MosGeometry geo = defaultGeo(100e-6, 2e-6);
  // With theta and CLM disabled the current must follow (KP/2)(W/Leff)Veff^2.
  tech::MosModelCard card = t.nmos;
  card.theta = 0.0;
  card.earlyPerMeter = 1e12;  // No CLM.
  const double veff = 0.5;
  const double vgs = card.vto + veff;
  const double id = model.currentNormalized(card, geo, vgs, 2.0, 0.0, 300.15);
  const double expected = 0.5 * card.kp * geo.w / card.leff(geo.l) * veff * veff;
  EXPECT_NEAR(id, expected, expected * 0.02);
}

TEST(Ekv, WeakInversionSlopeIsExponential) {
  const tech::Technology t = tech060();
  EkvModel model;
  const MosGeometry geo = defaultGeo();
  // 100 mV of gate drive deep in weak inversion must change the current by
  // about exp(0.1 / (n vt)).
  const double i1 = model.currentNormalized(t.nmos, geo, 0.30, 1.0, 0.0, 300.15);
  const double i2 = model.currentNormalized(t.nmos, geo, 0.40, 1.0, 0.0, 300.15);
  // EKV slope factor at the pinch-off voltage: n = 1 + gamma / (2 sqrt(phi + vp)).
  const double vp = EkvModel::pinchOff(t.nmos, 0.35);
  const double n = 1.0 + t.nmos.gamma / (2.0 * std::sqrt(t.nmos.phi + vp));
  const double expectedRatio = std::exp(0.1 / (n * thermalVoltage()));
  EXPECT_NEAR(std::log(i2 / i1), std::log(expectedRatio), 0.35);
}

TEST(MosModelFactory, RejectsUnknownName) {
  EXPECT_THROW((void)MosModel::create("bsim4"), std::invalid_argument);
}

// --- Inversion helpers. ---

TEST(Inversion, WidthForCurrentHitsTarget) {
  const tech::Technology t = tech060();
  const auto model = MosModel::create("level1");
  MosGeometry geo = defaultGeo();
  const double target = 150e-6;
  const double w = widthForCurrent(*model, t.nmos, geo, target, 1.3, 1.5, 0.0);
  geo.w = w;
  const double id = model->currentNormalized(t.nmos, geo, 1.3, 1.5, 0.0, 300.15);
  EXPECT_NEAR(id, target, target * 1e-6);
}

TEST(Inversion, VgsForCurrentHitsTarget) {
  const tech::Technology t = tech060();
  const auto model = MosModel::create("ekv");
  const MosGeometry geo = defaultGeo();
  const double target = 80e-6;
  const double vgs = vgsForCurrent(*model, t.nmos, geo, target, 1.5, 0.0, 3.3);
  const double id = model->currentNormalized(t.nmos, geo, vgs, 1.5, 0.0, 300.15);
  EXPECT_NEAR(id, target, target * 1e-6);
}

TEST(Inversion, VgsForCurrentThrowsWhenUnreachable) {
  const tech::Technology t = tech060();
  const auto model = MosModel::create("level1");
  MosGeometry geo = defaultGeo(1e-6, 1e-6);
  EXPECT_THROW((void)vgsForCurrent(*model, t.nmos, geo, 1.0, 1.5, 0.0, 3.3),
               std::runtime_error);
}

TEST(Inversion, RejectsNonPositiveTargets) {
  const tech::Technology t = tech060();
  const auto model = MosModel::create("level1");
  MosGeometry geo = defaultGeo();
  EXPECT_THROW((void)widthForCurrent(*model, t.nmos, geo, -1e-6, 1.3, 1.5, 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)vgsForCurrent(*model, t.nmos, geo, 0.0, 1.5, 0.0, 3.3),
               std::invalid_argument);
}

TEST(Inversion, RejectsNonFiniteTargets) {
  // NaN passes a plain `target <= 0` test, and the Newton step takes its log.
  const tech::Technology t = tech060();
  const auto model = MosModel::create("ekv");
  const MosGeometry geo = defaultGeo();
  for (const double target : {std::nan(""), HUGE_VAL}) {
    EXPECT_THROW((void)widthForCurrent(*model, t.nmos, geo, target, 1.3, 1.5, 0.0),
                 std::invalid_argument)
        << target;
    EXPECT_THROW((void)vgsForCurrent(*model, t.nmos, geo, target, 1.5, 0.0, 3.3),
                 std::invalid_argument)
        << target;
  }
}

/// The bisection vgsForCurrent used to run, kept as the oracle: the bracket
/// [0, vmax] halved until it stops shrinking.
double bisectVgs(const MosModel& model, const tech::MosModelCard& card,
                 const MosGeometry& geo, double targetId, double vds, double vbs,
                 double vmax) {
  double lo = 0.0, hi = vmax;
  for (;;) {
    const double mid = 0.5 * (lo + hi);
    if (mid == lo || mid == hi) return mid;
    const double id = std::abs(model.currentNormalized(card, geo, mid, vds, vbs, 300.15));
    (id < targetId ? lo : hi) = mid;
  }
}

TEST(Inversion, VgsForCurrentMatchesBisectionOracle) {
  // Both models and polarities, targets from 1 nA to 10 mA, drain biases
  // from the triode edge to saturation, with and without body bias, solved
  // cold and from start points inside and outside the bracket.
  const tech::Technology t = tech060();
  const MosGeometry geo = defaultGeo(200e-6, 1e-6);
  const double vmax = 3.3;
  int solved = 0, unreachable = 0;
  for (const char* name : {"level1", "ekv"}) {
    const auto model = MosModel::create(name);
    for (const tech::MosModelCard* card : {&t.nmos, &t.pmos}) {
      for (int decade = 0; decade <= 14; ++decade) {
        const double target = 1e-9 * std::pow(10.0, 0.5 * decade);  // 1 nA .. 10 mA.
        for (const double vds : {0.1, 0.5, 1.5, 3.0}) {
          for (const double vbs : {0.0, -1.2}) {
            SCOPED_TRACE(std::string(name) + (card == &t.nmos ? " nmos" : " pmos") +
                         " target " + std::to_string(target) + " vds " +
                         std::to_string(vds) + " vbs " + std::to_string(vbs));
            if (std::abs(model->currentNormalized(*card, geo, vmax, vds, vbs, 300.15)) <
                target) {
              EXPECT_THROW((void)vgsForCurrent(*model, *card, geo, target, vds, vbs, vmax),
                           std::runtime_error);
              ++unreachable;
              continue;
            }
            const double oracle = bisectVgs(*model, *card, geo, target, vds, vbs, vmax);
            const double cold =
                vgsForCurrent(*model, *card, geo, target, vds, vbs, vmax, 300.15);
            EXPECT_NEAR(cold, oracle, 1e-12);
            for (const double start : {oracle, oracle - 0.05, oracle + 0.2, 0.5 * oracle,
                                       1e-3, vmax - 1e-3}) {
              EXPECT_NEAR(vgsForCurrent(*model, *card, geo, target, vds, vbs, vmax,
                                        300.15, start),
                          oracle, 1e-12)
                  << "start " << start;
            }
            // A start outside (0, vmax) is ignored: the cold solve, bit for bit.
            for (const double start : {0.0, -0.4, vmax, vmax + 1.0, std::nan("")}) {
              EXPECT_EQ(vgsForCurrent(*model, *card, geo, target, vds, vbs, vmax, 300.15,
                                      start),
                        cold)
                  << "start " << start;
            }
            ++solved;
          }
        }
      }
    }
  }
  // Only targets of 3 mA and more at vds <= 0.5 V are out of reach (16).
  EXPECT_EQ(solved + unreachable, 2 * 2 * 15 * 4 * 2);
  EXPECT_LT(unreachable, 24);
}

}  // namespace
}  // namespace lo::device
