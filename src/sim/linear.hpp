// Dense linear algebra for the MNA engine.
//
// Circuit matrices here are tens of unknowns, so dense LU with partial
// pivoting is both simpler and faster than a sparse package.  The template
// is instantiated with double (DC, transient) and std::complex<double> (AC,
// noise).  Every analysis factors with luFactorize and solves with
// luSolveFactored (or its transpose); the one-shot luSolve is the oracle
// tests/linear_lu_test.cpp holds them to, bit for bit.
#pragma once

#include <cmath>
#include <complex>
#include <stdexcept>
#include <vector>

namespace lo::sim {

template <typename T>
class DenseMatrix {
 public:
  DenseMatrix() = default;
  explicit DenseMatrix(std::size_t n) : n_(n), data_(n * n, T{}) {}

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] T& at(std::size_t r, std::size_t c) { return data_[r * n_ + c]; }
  [[nodiscard]] const T& at(std::size_t r, std::size_t c) const { return data_[r * n_ + c]; }

  /// Row-major storage, for callers that precompute flat offsets
  /// r * size() + c.
  [[nodiscard]] T* data() { return data_.data(); }

 private:
  std::size_t n_ = 0;
  std::vector<T> data_;
};

template <typename T>
[[nodiscard]] double magnitudeOf(const T& v) {
  if constexpr (std::is_same_v<T, std::complex<double>>) {
    return std::abs(v);
  } else {
    return std::abs(static_cast<double>(v));
  }
}

/// Factor A in place by LU with partial pivoting so one factorization can
/// serve many right-hand sides.  After success the diagonal and strict
/// upper triangle hold U, the strict lower triangle holds the elimination
/// multipliers, and perm[col] is the row swapped into `col` at that step.
///
/// The pivot search, swap and elimination updates run in exactly the order
/// luSolve interleaves them with its RHS updates, so
/// luFactorize + luSolveFactored is bit-identical to the one-shot path --
/// the property the solver regression tests lock down.  Returns false (A
/// partially modified) on numerical singularity.
template <typename T>
[[nodiscard]] bool luFactorize(DenseMatrix<T>& a, std::vector<std::size_t>& perm) {
  const std::size_t n = a.size();
  perm.assign(n, 0);
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot.
    std::size_t pivot = col;
    double best = magnitudeOf(a.at(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double m = magnitudeOf(a.at(r, col));
      if (m > best) {
        best = m;
        pivot = r;
      }
    }
    if (best < 1e-300) return false;
    perm[col] = pivot;
    if (pivot != col) {
      // Swap only the active submatrix (columns >= col).  Multipliers
      // already stored in earlier columns stay pinned to the row position
      // where the one-shot path applied them to b: luSolveFactored replays
      // swap / update interleaved per column, so a multiplier moved by a
      // later pivot swap would be applied at the wrong position.  The
      // active part -- and therefore U and every pivot decision -- is
      // unaffected, since those earlier columns are never read again.
      for (std::size_t c = col; c < n; ++c) std::swap(a.at(col, c), a.at(pivot, c));
    }
    // Eliminate below, storing each multiplier where the zero it creates
    // would live.  A multiplier that is exactly zero is stored as-is; the
    // solve skips it just as luSolve skips the whole update.
    const T diag = a.at(col, col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const T factor = a.at(r, col) / diag;
      a.at(r, col) = factor;
      if (factor == T{}) continue;
      for (std::size_t c = col + 1; c < n; ++c) a.at(r, c) -= factor * a.at(col, c);
    }
  }
  return true;
}

/// Apply a luFactorize result to one RHS in place: b becomes x.  Replays
/// the exact swap / update / skip sequence luSolve performs during its
/// elimination, then the same back substitution, so the solution is
/// bit-identical to the one-shot path.
template <typename T>
void luSolveFactored(const DenseMatrix<T>& lu, const std::vector<std::size_t>& perm,
                     std::vector<T>& b) {
  const std::size_t n = lu.size();
  if (b.size() != n || perm.size() != n) {
    throw std::invalid_argument("luSolveFactored: dimension mismatch");
  }
  for (std::size_t col = 0; col < n; ++col) {
    if (perm[col] != col) std::swap(b[col], b[perm[col]]);
    for (std::size_t r = col + 1; r < n; ++r) {
      const T factor = lu.at(r, col);
      if (factor == T{}) continue;
      b[r] -= factor * b[col];
    }
  }
  // Back substitution.
  for (std::size_t i = n; i-- > 0;) {
    T sum = b[i];
    for (std::size_t c = i + 1; c < n; ++c) sum -= lu.at(i, c) * b[c];
    b[i] = sum / lu.at(i, i);
  }
}

/// Apply a luFactorize result of A to one RHS of the transposed system
/// A^T x = b, in place (b becomes x), so an adjoint solve reuses the
/// forward factors.  luFactorize leaves E A = U, with E its row swaps and
/// elimination steps in order; A^T = U^T E^-T, so this runs forward
/// substitution through U^T, then applies E^T: each elimination step's
/// transpose, then that step's swap, last step first.  The transpose is
/// plain, not conjugate.  Agrees with factoring A^T to rounding, not bit
/// for bit: the pivots differ.
template <typename T>
void luSolveFactoredTransposed(const DenseMatrix<T>& lu, const std::vector<std::size_t>& perm,
                               std::vector<T>& b) {
  const std::size_t n = lu.size();
  if (b.size() != n || perm.size() != n) {
    throw std::invalid_argument("luSolveFactoredTransposed: dimension mismatch");
  }
  for (std::size_t i = 0; i < n; ++i) {
    T sum = b[i];
    for (std::size_t r = 0; r < i; ++r) sum -= lu.at(r, i) * b[r];
    b[i] = sum / lu.at(i, i);
  }
  for (std::size_t col = n; col-- > 0;) {
    T sum = b[col];
    for (std::size_t r = col + 1; r < n; ++r) sum -= lu.at(r, col) * b[r];
    b[col] = sum;
    if (perm[col] != col) std::swap(b[col], b[perm[col]]);
  }
}

/// Solve A x = b in place by LU with partial pivoting; returns false when
/// the matrix is numerically singular.  A is destroyed; b becomes x.  The
/// reference the factored path is tested against; no analysis calls it.
template <typename T>
[[nodiscard]] bool luSolve(DenseMatrix<T>& a, std::vector<T>& b) {
  const std::size_t n = a.size();
  if (b.size() != n) throw std::invalid_argument("luSolve: dimension mismatch");
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;

  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot.
    std::size_t pivot = col;
    double best = magnitudeOf(a.at(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double m = magnitudeOf(a.at(r, col));
      if (m > best) {
        best = m;
        pivot = r;
      }
    }
    if (best < 1e-300) return false;
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a.at(col, c), a.at(pivot, c));
      std::swap(b[col], b[pivot]);
    }
    // Eliminate below.
    const T diag = a.at(col, col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const T factor = a.at(r, col) / diag;
      if (factor == T{}) continue;
      a.at(r, col) = T{};
      for (std::size_t c = col + 1; c < n; ++c) a.at(r, c) -= factor * a.at(col, c);
      b[r] -= factor * b[col];
    }
  }
  // Back substitution.
  for (std::size_t i = n; i-- > 0;) {
    T sum = b[i];
    for (std::size_t c = i + 1; c < n; ++c) sum -= a.at(i, c) * b[c];
    b[i] = sum / a.at(i, i);
  }
  return true;
}

}  // namespace lo::sim
