// Radix-2 FFT and spectral helpers for the transient-based measurements
// (THD).  Deliberately tiny: the verification tier samples an integer
// number of steady-state cycles at a power-of-two rate, so a textbook
// in-place Cooley-Tukey with exact bin alignment is all that is needed --
// no zero padding, no general-length transforms.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace lo::sim {

[[nodiscard]] constexpr bool isPowerOfTwo(std::size_t n) {
  return n != 0 && (n & (n - 1)) == 0;
}

/// In-place radix-2 decimation-in-time FFT.  Throws std::invalid_argument
/// unless data.size() is a power of two.
void fftRadix2(std::vector<std::complex<double>>& data);

/// Single-sided amplitude spectrum of a real signal: result[k] is the
/// amplitude of the k-th bin (result[0] is the DC level; interior bins are
/// scaled by 2/N so a pure tone of amplitude A reports A in its bin).
/// samples.size() must be a power of two.
[[nodiscard]] std::vector<double> amplitudeSpectrum(const std::vector<double>& samples);

/// Total harmonic distortion [%] of a sampled waveform whose fundamental
/// falls exactly on `fundamentalBin`: RMS of harmonics 2..maxHarmonic over
/// the fundamental amplitude.  Harmonic bins beyond Nyquist are ignored.
/// Returns 0 when the fundamental bin is empty (no tone to distort).
[[nodiscard]] double thdPercent(const std::vector<double>& samples,
                                std::size_t fundamentalBin, int maxHarmonic);

}  // namespace lo::sim
