// Property tests for the split factor/solve LU API (linear.hpp).
//
// The hot-path contract is exact: luFactorize + luSolveFactored must
// reproduce the one-shot luSolve BIT FOR BIT, for every matrix the one-shot
// path accepts, and must reject exactly the matrices the one-shot path
// rejects.  The fast AC/noise paths lean on this equivalence to reuse one
// factorization across a whole excitation block without changing a single
// result bit.  luSolveFactoredTransposed (the noise adjoint's solve) is held
// to factoring the transpose within rounding.
#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <random>
#include <vector>

#include "sim/linear.hpp"

namespace lo::sim {
namespace {

using Cplx = std::complex<double>;

template <typename T>
struct Maker;

template <>
struct Maker<double> {
  static double entry(std::mt19937& rng) {
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    return u(rng);
  }
  static double dominant() { return 4.0; }
};

template <>
struct Maker<Cplx> {
  static Cplx entry(std::mt19937& rng) {
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    const double re = u(rng);
    const double im = u(rng);
    return {re, im};
  }
  static Cplx dominant() { return {4.0, 0.0}; }
};

/// Random diagonally-dominant (well-conditioned) system of size n.
template <typename T>
void makeSystem(std::mt19937& rng, std::size_t n, DenseMatrix<T>& a, std::vector<T>& b) {
  a = DenseMatrix<T>(n);
  b.assign(n, T{});
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      a.at(r, c) = Maker<T>::entry(rng);
      if (r == c) a.at(r, c) += Maker<T>::dominant();
    }
    b[r] = Maker<T>::entry(rng);
  }
}

template <typename T>
void expectBitEqual(const std::vector<T>& x, const std::vector<T>& y) {
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    // operator== on double / complex<double> is exact; the generators
    // never produce NaN, so bit equality and == coincide.
    EXPECT_EQ(x[i], y[i]) << "component " << i;
  }
}

template <typename T>
void runBitwiseProperty(std::uint32_t seed, int trials) {
  std::mt19937 rng(seed);
  for (int trial = 0; trial < trials; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(trial) % 40;
    DenseMatrix<T> a;
    std::vector<T> b;
    makeSystem(rng, n, a, b);
    DenseMatrix<T> aCopy = a;
    std::vector<T> bCopy = b;

    ASSERT_TRUE(luSolve(a, b)) << "one-shot rejected a dominant matrix, n=" << n;
    std::vector<std::size_t> perm;
    ASSERT_TRUE(luFactorize(aCopy, perm));
    luSolveFactored(aCopy, perm, bCopy);
    expectBitEqual(b, bCopy);
  }
}

TEST(LinearLu, FactorSolveMatchesOneShotBitwiseReal) {
  runBitwiseProperty<double>(1234, 200);
}

TEST(LinearLu, FactorSolveMatchesOneShotBitwiseComplex) {
  runBitwiseProperty<Cplx>(4321, 200);
}

/// As runBitwiseProperty, on matrices shaped like MNA's: three in four
/// off-diagonal entries exactly zero, so many multipliers are zero and the
/// factored solve skips them, and rows shuffled, so pivoting swaps.  One
/// pivot vector serves every size, growing and shrinking, as a workspace's
/// does.
template <typename T>
void runSparseBitwiseProperty(std::uint32_t seed, int trials) {
  std::mt19937 rng(seed);
  std::bernoulli_distribution zero(0.75);
  std::vector<std::size_t> perm;
  for (int trial = 0; trial < trials; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(trial) * 7 % 40;
    DenseMatrix<T> dominant;
    std::vector<T> b;
    makeSystem(rng, n, dominant, b);
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng);
    DenseMatrix<T> a(n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        const bool diagonal = order[r] == c;
        a.at(r, c) = diagonal || !zero(rng) ? dominant.at(order[r], c) : T{};
      }
    }
    DenseMatrix<T> lu = a;
    std::vector<T> viaFactored = b;
    ASSERT_TRUE(luSolve(a, b)) << "n=" << n;
    ASSERT_TRUE(luFactorize(lu, perm));
    luSolveFactored(lu, perm, viaFactored);
    expectBitEqual(b, viaFactored);
  }
}

TEST(LinearLu, SparseFactorSolveMatchesOneShotBitwiseReal) {
  runSparseBitwiseProperty<double>(5678, 200);
}

TEST(LinearLu, SparseFactorSolveMatchesOneShotBitwiseComplex) {
  runSparseBitwiseProperty<Cplx>(8765, 200);
}

TEST(LinearLu, OneFactorizationServesManyRhsBitwise) {
  std::mt19937 rng(99);
  const std::size_t n = 24;
  DenseMatrix<Cplx> a;
  std::vector<Cplx> unused;
  makeSystem(rng, n, a, unused);

  DenseMatrix<Cplx> lu = a;
  std::vector<std::size_t> perm;
  ASSERT_TRUE(luFactorize(lu, perm));

  for (int rhs = 0; rhs < 8; ++rhs) {
    std::vector<Cplx> b(n);
    for (auto& v : b) v = Maker<Cplx>::entry(rng);
    std::vector<Cplx> viaFactored = b;
    luSolveFactored(lu, perm, viaFactored);

    DenseMatrix<Cplx> aFresh = a;  // One-shot destroys its matrix.
    std::vector<Cplx> viaOneShot = b;
    ASSERT_TRUE(luSolve(aFresh, viaOneShot));
    expectBitEqual(viaOneShot, viaFactored);
  }
}

TEST(LinearLu, PermutationReplayCoversLatePivotSwaps) {
  // Regression for the interleaved-replay seam: a later pivot swap must
  // not relocate multipliers already stored by earlier columns.  This
  // matrix forces a swap at every step (each column's largest entry sits
  // below the diagonal).
  const std::size_t n = 5;
  DenseMatrix<double> a(n);
  std::vector<double> b(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a.at(r, c) = 1.0 / (1.0 + r + 2 * c);
    a.at((r + 1) % n, r) = 10.0 + static_cast<double>(r);
    b[r] = static_cast<double>(r) - 2.0;
  }
  DenseMatrix<double> lu = a;
  std::vector<std::size_t> perm;
  ASSERT_TRUE(luFactorize(lu, perm));
  bool swapped = false;
  for (std::size_t col = 0; col < n; ++col) swapped |= perm[col] != col;
  ASSERT_TRUE(swapped);

  std::vector<double> viaFactored = b;
  luSolveFactored(lu, perm, viaFactored);
  ASSERT_TRUE(luSolve(a, b));
  expectBitEqual(b, viaFactored);
}

TEST(LinearLu, SingularRejectionParity) {
  // Exactly singular: duplicated row.
  DenseMatrix<double> a(3);
  for (std::size_t c = 0; c < 3; ++c) {
    a.at(0, c) = 1.0 + static_cast<double>(c);
    a.at(1, c) = a.at(0, c);
    a.at(2, c) = 5.0 - static_cast<double>(c);
  }
  DenseMatrix<double> a2 = a;
  std::vector<double> b{1.0, 2.0, 3.0};
  std::vector<std::size_t> perm;
  EXPECT_FALSE(luSolve(a, b));
  EXPECT_FALSE(luFactorize(a2, perm));
}

TEST(LinearLu, NearSingularRejectionParity) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(trial) % 10;
    DenseMatrix<double> a;
    std::vector<double> b;
    makeSystem(rng, n, a, b);
    // Scale one row below the 1e-300 pivot threshold and zero its
    // off-diagonal couplings so both paths see the same tiny pivot.
    const std::size_t bad = static_cast<std::size_t>(trial) % n;
    for (std::size_t c = 0; c < n; ++c) a.at(bad, c) = 0.0;
    for (std::size_t r = 0; r < n; ++r) a.at(r, bad) = 0.0;
    a.at(bad, bad) = 1e-301;
    DenseMatrix<double> a2 = a;
    std::vector<double> b2 = b;
    std::vector<std::size_t> perm;
    const bool oneShot = luSolve(a, b);
    const bool factored = luFactorize(a2, perm);
    EXPECT_EQ(oneShot, factored) << "trial " << trial;
    EXPECT_FALSE(factored);
  }
}

TEST(LinearLu, SolveFactoredRejectsDimensionMismatch) {
  DenseMatrix<double> a(3);
  for (std::size_t i = 0; i < 3; ++i) a.at(i, i) = 1.0;
  std::vector<std::size_t> perm;
  ASSERT_TRUE(luFactorize(a, perm));
  std::vector<double> shortB{1.0, 2.0};
  EXPECT_THROW(luSolveFactored(a, perm, shortB), std::invalid_argument);
  std::vector<double> okB{1.0, 2.0, 3.0};
  std::vector<std::size_t> shortPerm{0};
  EXPECT_THROW(luSolveFactored(a, shortPerm, okB), std::invalid_argument);
  EXPECT_THROW(luSolveFactoredTransposed(a, perm, shortB), std::invalid_argument);
  EXPECT_THROW(luSolveFactoredTransposed(a, shortPerm, okB), std::invalid_argument);
}

/// A^T x = b through A's factors against factoring A^T itself.  Each A is
/// a well-conditioned dominant system with its rows shuffled, so partial
/// pivoting must swap rows on the way (the forced pivots the transposed
/// replay has to undo in reverse).
template <typename T>
void runTransposedProperty(std::uint32_t seed, int trials) {
  std::mt19937 rng(seed);
  for (int trial = 0; trial < trials; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(trial) % 39;
    DenseMatrix<T> dominant;
    std::vector<T> b;
    makeSystem(rng, n, dominant, b);
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng);
    if (order[0] == 0) std::swap(order[0], order[1]);  // At least one swap.
    DenseMatrix<T> a(n), at(n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) a.at(r, c) = dominant.at(order[r], c);
    }
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) at.at(r, c) = a.at(c, r);
    }

    DenseMatrix<T> lu = a;
    std::vector<std::size_t> perm;
    ASSERT_TRUE(luFactorize(lu, perm));
    bool swapped = false;
    for (std::size_t col = 0; col < n; ++col) swapped |= perm[col] != col;
    ASSERT_TRUE(swapped) << "n=" << n;
    std::vector<T> viaFactors = b;
    luSolveFactoredTransposed(lu, perm, viaFactors);

    std::vector<T> viaTranspose = b;
    DenseMatrix<T> atCopy = at;
    ASSERT_TRUE(luSolve(atCopy, viaTranspose));
    double scale = 0.0;
    for (const T& v : viaTranspose) scale = std::max(scale, magnitudeOf(v));
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_LE(magnitudeOf(viaFactors[i] - viaTranspose[i]), 1e-12 * scale)
          << "n=" << n << " component " << i;
    }
    // And it really solves the transposed system.
    for (std::size_t r = 0; r < n; ++r) {
      T lhs{};
      for (std::size_t c = 0; c < n; ++c) lhs += at.at(r, c) * viaFactors[c];
      EXPECT_LE(magnitudeOf(lhs - b[r]), 1e-12 * (1.0 + magnitudeOf(b[r]))) << "row " << r;
    }
  }
}

TEST(LinearLu, TransposedSolveMatchesFactoringTheTransposeReal) {
  runTransposedProperty<double>(2468, 120);
}

TEST(LinearLu, TransposedSolveMatchesFactoringTheTransposeComplex) {
  runTransposedProperty<Cplx>(1357, 120);
}

TEST(LinearLu, TransposedSolveUndoesEveryLatePivotSwap) {
  // PermutationReplayCoversLatePivotSwaps's matrix, whose pivot search
  // swaps at every step.  It is ill-conditioned, so the check is backward
  // error: the residual of A^T x = b against the size of its terms.
  const std::size_t n = 5;
  DenseMatrix<Cplx> a(n);
  std::vector<Cplx> b(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a.at(r, c) = Cplx{1.0 / (1.0 + r + 2 * c), 0.0};
    a.at((r + 1) % n, r) = Cplx{10.0 + static_cast<double>(r), 1.0};
    b[r] = Cplx{static_cast<double>(r) - 2.0, 0.5};
  }
  DenseMatrix<Cplx> lu = a;
  std::vector<std::size_t> perm;
  ASSERT_TRUE(luFactorize(lu, perm));
  bool swapped = false;
  for (std::size_t col = 0; col < n; ++col) swapped |= perm[col] != col;
  ASSERT_TRUE(swapped);
  std::vector<Cplx> x = b;
  luSolveFactoredTransposed(lu, perm, x);
  for (std::size_t r = 0; r < n; ++r) {
    Cplx lhs{};
    double terms = std::abs(b[r]);
    for (std::size_t c = 0; c < n; ++c) {
      lhs += a.at(c, r) * x[c];
      terms += std::abs(a.at(c, r) * x[c]);
    }
    EXPECT_LE(std::abs(lhs - b[r]), 1e-14 * terms) << "row " << r;
  }
}

}  // namespace
}  // namespace lo::sim
