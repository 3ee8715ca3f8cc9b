#include "sim/fft.hpp"

#include <cmath>
#include <stdexcept>

namespace lo::sim {

void fftRadix2(std::vector<std::complex<double>>& data) {
  const std::size_t n = data.size();
  if (!isPowerOfTwo(n)) {
    throw std::invalid_argument("fftRadix2: size " + std::to_string(n) +
                                " is not a power of two");
  }
  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = -2.0 * M_PI / static_cast<double>(len);
    const std::complex<double> wlen{std::cos(ang), std::sin(ang)};
    for (std::size_t i = 0; i < n; i += len) {
      std::complex<double> w{1.0, 0.0};
      for (std::size_t k = 0; k < len / 2; ++k) {
        const std::complex<double> u = data[i + k];
        const std::complex<double> v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

std::vector<double> amplitudeSpectrum(const std::vector<double>& samples) {
  const std::size_t n = samples.size();
  std::vector<std::complex<double>> spec(n);
  for (std::size_t i = 0; i < n; ++i) spec[i] = {samples[i], 0.0};
  fftRadix2(spec);
  std::vector<double> amp(n / 2 + 1);
  amp[0] = std::abs(spec[0]) / static_cast<double>(n);
  for (std::size_t k = 1; k < amp.size(); ++k) {
    const double scale = (k == n / 2 ? 1.0 : 2.0) / static_cast<double>(n);
    amp[k] = std::abs(spec[k]) * scale;
  }
  return amp;
}

double thdPercent(const std::vector<double>& samples, std::size_t fundamentalBin,
                  int maxHarmonic) {
  const std::vector<double> amp = amplitudeSpectrum(samples);
  if (fundamentalBin == 0 || fundamentalBin >= amp.size()) {
    throw std::invalid_argument("thdPercent: fundamental bin out of range");
  }
  const double fund = amp[fundamentalBin];
  if (fund <= 0.0) return 0.0;
  double harmSq = 0.0;
  for (int h = 2; h <= maxHarmonic; ++h) {
    const std::size_t bin = fundamentalBin * static_cast<std::size_t>(h);
    if (bin >= amp.size()) break;  // Beyond Nyquist.
    harmSq += amp[bin] * amp[bin];
  }
  return std::sqrt(harmSq) / fund * 100.0;
}

}  // namespace lo::sim
