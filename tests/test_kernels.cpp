// Determinism proofs for the linalg kernels (DESIGN.md §14): every
// production kernel — four-row interleaved SpMV, SIMD axpy and BiCGSTAB
// triads, SIMD Jacobi apply, the ILU(0) sweeps and the k-panel-blocked banded
// LU — must be bitwise identical to the seed's scalar loops, kept as a
// test-only oracle in kernel_reference.hpp.  Sizes cover odd (n % 4 != 0)
// tails and banded systems below, above and not a multiple of the 64-step
// factorisation panel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "kernel_reference.hpp"
#include "linalg/banded.hpp"
#include "linalg/csr.hpp"
#include "linalg/precond.hpp"
#include "linalg/vector_ops.hpp"
#include "support/rng.hpp"

namespace {

using namespace mg::linalg;
using mg::support::Xoshiro256;
namespace ref = kernel_reference;

// Bitwise equality — EXPECT_EQ on doubles is exact, but spell the intent out
// and catch -0.0 vs 0.0 too.
bool bit_equal(const Vec& a, const Vec& b) {
  if (a.size() != b.size()) return false;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

CsrMatrix random_dominant_matrix(std::size_t n, double density, Xoshiro256& rng) {
  CsrBuilder builder(n, n);
  std::vector<double> row_abs(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && rng.uniform01() < density) {
        const double v = rng.uniform(-1.0, 1.0);
        builder.add(i, j, v);
        row_abs[i] += std::abs(v);
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) builder.add(i, i, row_abs[i] + 1.0 + rng.uniform01());
  return builder.build();
}

Vec random_vec(std::size_t n, Xoshiro256& rng) {
  Vec v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

// ---- SpMV / multiply_sub ----------------------------------------------------

TEST(TiledKernels, SpmvBitwiseMatchesScalarIncludingOddTails) {
  Xoshiro256 rng(17);
  // Odd sizes exercise the 4-row remainder; 16/64 the full blocks.
  for (const std::size_t n : {1u, 2u, 3u, 5u, 7u, 13u, 16u, 33u, 64u, 127u}) {
    const CsrMatrix a = random_dominant_matrix(n, 0.3, rng);
    const Vec x = random_vec(n, rng);
    const Vec b = random_vec(n, rng);

    Vec y_ref, y, s_ref, s;
    ref::spmv(a, x, y_ref);
    a.multiply(x, y);
    ref::multiply_sub(a, b, x, s_ref);
    multiply_sub(a, b, x, s);

    EXPECT_TRUE(bit_equal(y_ref, y)) << "spmv n=" << n;
    EXPECT_TRUE(bit_equal(s_ref, s)) << "multiply_sub n=" << n;
  }
}

// ---- axpy and the fused BiCGSTAB triads -------------------------------------

TEST(TiledKernels, FusedTriadsBitwiseMatchScalar) {
  Xoshiro256 rng(23);
  for (const std::size_t n : {1u, 3u, 4u, 7u, 9u, 64u, 1001u}) {
    const Vec r = random_vec(n, rng), v = random_vec(n, rng);
    const Vec a = random_vec(n, rng), b = random_vec(n, rng);
    const double alpha = 0.37, beta = 1.21, omega = -0.83;

    Vec p_ref = random_vec(n, rng);
    Vec p = p_ref;
    ref::p_update(beta, omega, r, v, p_ref);
    fused_p_update(beta, omega, r, v, p);
    EXPECT_TRUE(bit_equal(p_ref, p)) << "p-update n=" << n;

    Vec x_ref = random_vec(n, rng);
    Vec x = x_ref;
    ref::x_update(alpha, omega, a, b, x_ref);
    fused_x_update(alpha, omega, a, b, x);
    EXPECT_TRUE(bit_equal(x_ref, x)) << "x-update n=" << n;

    Vec y_ref = random_vec(n, rng);
    Vec y = y_ref;
    ref::axpy(alpha, a, y_ref);
    axpy(alpha, a, y);
    EXPECT_TRUE(bit_equal(y_ref, y)) << "axpy n=" << n;
  }
}

// ---- banded LU --------------------------------------------------------------

TEST(TiledKernels, BandedFactorizeBitwiseMatchesScalar) {
  Xoshiro256 rng(31);
  // The blocked factorisation groups pivot steps into panels of 64: cover n
  // below one panel, exactly one and two panels, and ragged multi-panel
  // sizes, with half-bandwidths on both sides of the panel width.
  for (const std::size_t n : {3u, 9u, 17u, 40u, 63u, 64u, 101u, 128u, 131u, 200u}) {
    for (const std::size_t hb : {1u, 3u, 7u, 30u, 70u}) {
      if (hb >= n) continue;
      BandedMatrix ref_m(n, hb);
      BandedMatrix m(n, hb);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = (i > hb ? i - hb : 0); j < std::min(n, i + hb + 1); ++j) {
          // Diagonal dominance keeps the unpivoted elimination stable.
          const double v = i == j ? 4.0 + 2.0 * static_cast<double>(hb) + rng.uniform01()
                                  : rng.uniform(-1.0, 1.0);
          ref_m.set(i, j, v);
          m.set(i, j, v);
        }
      }
      ref::banded_factorize(ref_m);
      m.factorize();
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = (i > hb ? i - hb : 0); j < std::min(n, i + hb + 1); ++j) {
          const double a = ref_m.at(i, j);
          const double b = m.at(i, j);
          ASSERT_EQ(std::memcmp(&a, &b, sizeof a), 0)
              << "n=" << n << " hb=" << hb << " (" << i << "," << j << ")";
        }
      }
    }
  }
}

// ---- preconditioners --------------------------------------------------------

TEST(TiledKernels, PreconditionerApplyBitwiseMatchesScalar) {
  Xoshiro256 rng(47);
  for (const std::size_t n : {5u, 27u, 140u}) {
    const CsrMatrix a = random_dominant_matrix(n, 0.25, rng);
    const Vec r = random_vec(n, rng);

    Vec z_ref, z;
    ref::jacobi_apply(a, r, z_ref);
    JacobiPreconditioner(a).apply(r, z);
    EXPECT_TRUE(bit_equal(z_ref, z)) << "jacobi n=" << n;

    ref::ilu0_apply(ref::ilu0_factor(a), r, z_ref);
    Ilu0Preconditioner(a).apply(r, z);
    EXPECT_TRUE(bit_equal(z_ref, z)) << "ilu0 n=" << n;
  }
}

}  // namespace
