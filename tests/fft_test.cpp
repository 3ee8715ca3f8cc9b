#include "sim/fft.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <stdexcept>
#include <vector>

namespace lo::sim {
namespace {

std::vector<double> sineSamples(std::size_t n, double cyclesInWindow,
                                double amplitude, double phase = 0.0,
                                double dc = 0.0) {
  std::vector<double> samples(n);
  for (std::size_t k = 0; k < n; ++k) {
    samples[k] = dc + amplitude * std::sin(2.0 * M_PI * cyclesInWindow *
                                               static_cast<double>(k) /
                                               static_cast<double>(n) +
                                           phase);
  }
  return samples;
}

/// Direct O(n^2) DFT, the oracle the FFT is checked against.
std::vector<std::complex<double>> directDft(
    const std::vector<std::complex<double>>& x) {
  const std::size_t n = x.size();
  std::vector<std::complex<double>> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc{0.0, 0.0};
    for (std::size_t j = 0; j < n; ++j) {
      const double angle =
          -2.0 * M_PI * static_cast<double>(k) * static_cast<double>(j) /
          static_cast<double>(n);
      acc += x[j] * std::complex<double>{std::cos(angle), std::sin(angle)};
    }
    out[k] = acc;
  }
  return out;
}

TEST(Fft, IsPowerOfTwo) {
  EXPECT_FALSE(isPowerOfTwo(0));
  EXPECT_TRUE(isPowerOfTwo(1));
  EXPECT_TRUE(isPowerOfTwo(2));
  EXPECT_FALSE(isPowerOfTwo(3));
  EXPECT_TRUE(isPowerOfTwo(256));
  EXPECT_FALSE(isPowerOfTwo(255));
}

TEST(Fft, MatchesDirectDft) {
  std::vector<std::complex<double>> x(64);
  for (std::size_t k = 0; k < x.size(); ++k) {
    // Deterministic pseudo-arbitrary data; no randomness needed.
    x[k] = {std::sin(0.37 * static_cast<double>(k)) +
                0.21 * std::cos(1.7 * static_cast<double>(k)),
            std::cos(0.91 * static_cast<double>(k))};
  }
  const std::vector<std::complex<double>> expected = directDft(x);
  std::vector<std::complex<double>> actual = x;
  fftRadix2(actual);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t k = 0; k < actual.size(); ++k) {
    EXPECT_NEAR(actual[k].real(), expected[k].real(), 1e-9) << "bin " << k;
    EXPECT_NEAR(actual[k].imag(), expected[k].imag(), 1e-9) << "bin " << k;
  }
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<std::complex<double>> x(48, {1.0, 0.0});
  EXPECT_THROW(fftRadix2(x), std::invalid_argument);
  std::vector<std::complex<double>> empty;
  EXPECT_THROW(fftRadix2(empty), std::invalid_argument);
}

TEST(Fft, ParsevalHolds) {
  // sum |x|^2 == (1/N) sum |X|^2.
  std::vector<std::complex<double>> x(128);
  for (std::size_t k = 0; k < x.size(); ++k) {
    x[k] = {std::sin(0.13 * static_cast<double>(k)),
            0.5 * std::sin(0.71 * static_cast<double>(k))};
  }
  double timeEnergy = 0.0;
  for (const auto& v : x) timeEnergy += std::norm(v);
  std::vector<std::complex<double>> spectrum = x;
  fftRadix2(spectrum);
  double freqEnergy = 0.0;
  for (const auto& v : spectrum) freqEnergy += std::norm(v);
  freqEnergy /= static_cast<double>(x.size());
  EXPECT_NEAR(freqEnergy, timeEnergy, 1e-9 * timeEnergy);
}

TEST(Fft, AmplitudeSpectrumRecoversToneAndDc) {
  const double amp = 0.75, dc = 1.2;
  const std::vector<double> samples = sineSamples(256, 4.0, amp, 0.3, dc);
  const std::vector<double> spectrum = amplitudeSpectrum(samples);
  ASSERT_EQ(spectrum.size(), 129u);  // N/2 + 1 single-sided bins.
  EXPECT_NEAR(spectrum[0], dc, 1e-9);
  EXPECT_NEAR(spectrum[4], amp, 1e-9);
  // Exact bin alignment: every other bin is empty.
  for (std::size_t k = 1; k < spectrum.size(); ++k) {
    if (k == 4) continue;
    EXPECT_NEAR(spectrum[k], 0.0, 1e-9) << "bin " << k;
  }
}

TEST(Fft, AmplitudeSpectrumTwoTones) {
  std::vector<double> samples = sineSamples(256, 3.0, 1.0);
  const std::vector<double> second = sineSamples(256, 9.0, 0.25);
  for (std::size_t k = 0; k < samples.size(); ++k) samples[k] += second[k];
  const std::vector<double> spectrum = amplitudeSpectrum(samples);
  EXPECT_NEAR(spectrum[3], 1.0, 1e-9);
  EXPECT_NEAR(spectrum[9], 0.25, 1e-9);
  EXPECT_NEAR(spectrum[6], 0.0, 1e-9);
}

TEST(Fft, HannWindowEndpointsAndSum) {
  const std::vector<double> w = hannWindow(8);
  ASSERT_EQ(w.size(), 8u);
  EXPECT_NEAR(w[0], 0.0, 1e-12);        // Periodic variant starts at zero...
  EXPECT_NEAR(w[4], 1.0, 1e-12);        // ...peaks at n/2...
  EXPECT_GT(w[7], 0.0);                 // ...and does NOT return to zero.
  double sum = 0.0;
  for (const double v : w) sum += v;
  EXPECT_NEAR(sum, 4.0, 1e-12);  // Coherent gain of periodic Hann is n/2.
}

TEST(Fft, ThdOfPureToneIsZero) {
  const std::vector<double> samples = sineSamples(256, 4.0, 1.0);
  EXPECT_NEAR(thdPercent(samples, 4, 5), 0.0, 1e-7);
}

TEST(Fft, ThdOfKnownDistortion) {
  // Fundamental amplitude 1 at bin 4, second harmonic 0.03, third 0.04:
  // THD = sqrt(0.03^2 + 0.04^2) / 1 = 5%.
  std::vector<double> samples = sineSamples(256, 4.0, 1.0);
  const std::vector<double> h2 = sineSamples(256, 8.0, 0.03, 0.4);
  const std::vector<double> h3 = sineSamples(256, 12.0, 0.04, 1.1);
  for (std::size_t k = 0; k < samples.size(); ++k) samples[k] += h2[k] + h3[k];
  EXPECT_NEAR(thdPercent(samples, 4, 5), 5.0, 1e-6);
  // Restricting the harmonic count excludes the third harmonic.
  EXPECT_NEAR(thdPercent(samples, 4, 2), 3.0, 1e-6);
}

TEST(Fft, ThdIgnoresHarmonicsBeyondNyquist) {
  // Fundamental at bin 100 of a 256-sample window: the second harmonic
  // (bin 200) is beyond Nyquist (128) and must not contribute.
  const std::vector<double> samples = sineSamples(256, 100.0, 1.0);
  EXPECT_NEAR(thdPercent(samples, 100, 5), 0.0, 1e-7);
}

TEST(Fft, ThdEmptyFundamentalReturnsZero) {
  const std::vector<double> samples(256, 0.0);  // No tone at all.
  EXPECT_DOUBLE_EQ(thdPercent(samples, 4, 5), 0.0);
}

TEST(Fft, ThdRejectsOutOfRangeFundamental) {
  const std::vector<double> samples = sineSamples(256, 4.0, 1.0);
  EXPECT_THROW((void)thdPercent(samples, 0, 5), std::invalid_argument);
  EXPECT_THROW((void)thdPercent(samples, 129, 5), std::invalid_argument);
}

}  // namespace
}  // namespace lo::sim
