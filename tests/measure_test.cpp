#include "sim/measure.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <stdexcept>

namespace lo::sim {
namespace {

/// Build a synthetic curve for H(s) = a0 / ((1 + s/p1)(1 + s/p2)).
AcCurve twoPoleCurve(double a0, double p1, double p2, double fStart = 1.0,
                     double fStop = 1e10, int pointsPerDecade = 40) {
  AcCurve c;
  const int n = static_cast<int>(std::log10(fStop / fStart) * pointsPerDecade) + 1;
  for (int i = 0; i < n; ++i) {
    const double f = fStart * std::pow(10.0, std::log10(fStop / fStart) * i / (n - 1));
    const std::complex<double> s{0.0, 2 * M_PI * f};
    c.freq.push_back(f);
    c.h.push_back(a0 / ((1.0 + s / (2 * M_PI * p1)) * (1.0 + s / (2 * M_PI * p2))));
  }
  return c;
}

TEST(Measure, ToDb) {
  EXPECT_DOUBLE_EQ(toDb(1.0), 0.0);
  EXPECT_NEAR(toDb(1000.0), 60.0, 1e-9);
  EXPECT_NEAR(toDb(1.0 / std::sqrt(2.0)), -3.0103, 1e-3);
}

TEST(Measure, SinglePoleUnityGainFrequency) {
  // One dominant pole: GBW = a0 * p1 (second pole far away).
  const double a0 = 1000.0, p1 = 1e4;
  const AcCurve c = twoPoleCurve(a0, p1, 1e12);
  EXPECT_NEAR(dcGain(c), a0, a0 * 1e-3);
  EXPECT_NEAR(unityGainFrequency(c) / (a0 * p1), 1.0, 0.01);
  // Phase margin ~90 degrees for a single pole.
  EXPECT_NEAR(phaseMarginDeg(c), 90.0, 1.5);
}

TEST(Measure, TwoPolePhaseMargin) {
  // Second pole at the single-pole unity estimate a0*p1: the real crossing
  // moves down to u = f/p2 with u^2 (1 + u^2) = 1, i.e. u = 0.786, giving
  // PM = 90 - atan(0.786) = 51.8 degrees.
  const double a0 = 1000.0, p1 = 1e4;
  const AcCurve c = twoPoleCurve(a0, p1, a0 * p1);
  EXPECT_NEAR(phaseMarginDeg(c), 51.8, 1.5);
}

TEST(Measure, UnityNeverCrossed) {
  const AcCurve c = twoPoleCurve(0.5, 1e4, 1e8);  // Max gain 0.5.
  EXPECT_DOUBLE_EQ(unityGainFrequency(c), 0.0);
  EXPECT_DOUBLE_EQ(phaseMarginDeg(c), 180.0);
}

TEST(Measure, UnwrappedPhaseIsContinuous) {
  const AcCurve c = twoPoleCurve(1000.0, 1e3, 1e5);
  const auto phase = unwrappedPhaseDeg(c);
  for (std::size_t i = 1; i < phase.size(); ++i) {
    EXPECT_LT(std::abs(phase[i] - phase[i - 1]), 45.0);
  }
  // Two poles: phase approaches -180.
  EXPECT_NEAR(phase.back(), -180.0, 2.0);
}

TEST(Measure, SlewRatesOfTriangleWave) {
  std::vector<TranPoint> tran;
  // Triangle: up 2 V/us for 1 us, down 1 V/us for 2 us.
  for (int i = 0; i <= 300; ++i) {
    TranPoint p;
    p.time = i * 1e-8;
    const double t = p.time;
    p.nodeV = {0.0, t < 1e-6 ? 2e6 * t : 2.0 - 1e6 * (t - 1e-6)};
    tran.push_back(std::move(p));
  }
  const SlewRates sr = slewRates(tran, 1);
  EXPECT_NEAR(sr.rising, 2e6, 1e3);
  EXPECT_NEAR(sr.falling, 1e6, 1e3);
  // Window restriction sees only the falling segment.
  const SlewRates srLate = slewRates(tran, 1, 1.5e-6, 3e-6);
  EXPECT_NEAR(srLate.rising, 0.0, 1e-9);
  EXPECT_NEAR(srLate.falling, 1e6, 1e3);
}

TEST(Measure, SlewRatesDegenerateTransients) {
  // Empty and single-sample transients report zero instead of reading
  // past the end.
  const std::vector<TranPoint> empty;
  EXPECT_DOUBLE_EQ(slewRates(empty, 0).rising, 0.0);
  std::vector<TranPoint> one(1);
  one[0].time = 0.0;
  one[0].nodeV = {0.0, 1.0};
  EXPECT_DOUBLE_EQ(slewRates(one, 1).rising, 0.0);
  EXPECT_DOUBLE_EQ(slewRates(one, 1).falling, 0.0);
}

TEST(Measure, SlewRatesInvertedWindowIsZero) {
  std::vector<TranPoint> tran(3);
  for (int i = 0; i < 3; ++i) {
    tran[static_cast<std::size_t>(i)].time = i * 1e-6;
    tran[static_cast<std::size_t>(i)].nodeV = {0.0, static_cast<double>(i)};
  }
  const SlewRates sr = slewRates(tran, 1, 2e-6, 1e-6);  // tStop < tStart.
  EXPECT_DOUBLE_EQ(sr.rising, 0.0);
  EXPECT_DOUBLE_EQ(sr.falling, 0.0);
}

TEST(Measure, SlewRatesConstantWaveformIsZero) {
  std::vector<TranPoint> tran(10);
  for (int i = 0; i < 10; ++i) {
    tran[static_cast<std::size_t>(i)].time = i * 1e-7;
    tran[static_cast<std::size_t>(i)].nodeV = {0.0, 1.5};
  }
  const SlewRates sr = slewRates(tran, 1);
  EXPECT_DOUBLE_EQ(sr.rising, 0.0);
  EXPECT_DOUBLE_EQ(sr.falling, 0.0);
}

TEST(Measure, SlewRatesWindowNarrowerThanStepFallsBack) {
  // 1 us steps, ramp at 1 V/us; a 0.2 us window between samples contains
  // no whole interval -- the fallback reports the overlapping interval's
  // slope instead of a silent zero.
  std::vector<TranPoint> tran(5);
  for (int i = 0; i < 5; ++i) {
    tran[static_cast<std::size_t>(i)].time = i * 1e-6;
    tran[static_cast<std::size_t>(i)].nodeV = {0.0, static_cast<double>(i)};
  }
  const SlewRates sr = slewRates(tran, 1, 1.4e-6, 1.6e-6);
  EXPECT_NEAR(sr.rising, 1e6, 1.0);
  EXPECT_DOUBLE_EQ(sr.falling, 0.0);
}

TEST(Measure, TailSamplesReturnsNewestOldestFirst) {
  std::vector<TranPoint> tran(6);
  for (int i = 0; i < 6; ++i) {
    tran[static_cast<std::size_t>(i)].time = i * 1e-9;
    tran[static_cast<std::size_t>(i)].nodeV = {0.0, 10.0 + i};
  }
  const std::vector<double> tail = tailSamples(tran, 1, 4);
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_DOUBLE_EQ(tail[0], 12.0);
  EXPECT_DOUBLE_EQ(tail[3], 15.0);
  EXPECT_THROW(tailSamples(tran, 1, 7), std::invalid_argument);
}

TEST(Measure, CurveExtractionFromAcPoints) {
  std::vector<AcPoint> ac(2);
  ac[0].freq = 10.0;
  ac[0].nodeV = {{0, 0}, {1.0, 0.0}, {0.25, 0.0}};
  ac[1].freq = 100.0;
  ac[1].nodeV = {{0, 0}, {0.5, 0.0}, {0.25, 0.0}};
  const AcCurve c1 = curveAt(ac, 1);
  EXPECT_DOUBLE_EQ(std::abs(c1.h[0]), 1.0);
  EXPECT_DOUBLE_EQ(std::abs(c1.h[1]), 0.5);
  EXPECT_DOUBLE_EQ(c1.freq[1], 100.0);
}

}  // namespace
}  // namespace lo::sim
