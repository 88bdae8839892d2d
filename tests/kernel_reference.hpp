// Test-only reference oracle for the linalg kernels: the seed's scalar loops,
// one element (or one row) at a time, in the seed's operation order.
//
// Production linalg runs only the SIMD / interleaved / k-panel-blocked
// kernels (DESIGN.md §14).  They promise bitwise identity with these loops,
// and tests/test_kernels.cpp holds them to it.  The test target is built with
// -ffp-contract=off like mg_linalg, so neither side may be contracted to FMA.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "linalg/banded.hpp"
#include "linalg/csr.hpp"
#include "linalg/vector_ops.hpp"

namespace kernel_reference {

using mg::linalg::BandedMatrix;
using mg::linalg::CsrMatrix;
using mg::linalg::Vec;

/// y = A * x, one row at a time.
inline void spmv(const CsrMatrix& a, const Vec& x, Vec& y) {
  y.resize(a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double s = 0.0;
    for (std::size_t k = a.row_ptr()[i]; k < a.row_ptr()[i + 1]; ++k) {
      s += a.values()[k] * x[a.col_idx()[k]];
    }
    y[i] = s;
  }
}

/// y = b - A * x, one row at a time.
inline void multiply_sub(const CsrMatrix& a, const Vec& b, const Vec& x, Vec& y) {
  y.resize(a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double s = b[i];
    for (std::size_t k = a.row_ptr()[i]; k < a.row_ptr()[i + 1]; ++k) {
      s -= a.values()[k] * x[a.col_idx()[k]];
    }
    y[i] = s;
  }
}

/// y += alpha * x.
inline void axpy(double alpha, const Vec& x, Vec& y) {
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

/// BiCGSTAB direction update: p = r + beta * (p - omega * v).
inline void p_update(double beta, double omega, const Vec& r, const Vec& v, Vec& p) {
  for (std::size_t i = 0; i < p.size(); ++i) p[i] = r[i] + beta * (p[i] - omega * v[i]);
}

/// BiCGSTAB solution update: x += alpha * a + omega * b.
inline void x_update(double alpha, double omega, const Vec& a, const Vec& b, Vec& x) {
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += alpha * a[i] + omega * b[i];
}

/// Jacobi apply: z = r / diag(A), with the reciprocal taken once per row.
inline void jacobi_apply(const CsrMatrix& a, const Vec& r, Vec& z) {
  Vec inv_diag = a.diagonal();
  for (double& d : inv_diag) d = 1.0 / d;
  z.resize(r.size());
  for (std::size_t i = 0; i < r.size(); ++i) z[i] = r[i] * inv_diag[i];
}

/// ILU(0) factors of A (IKJ variant on A's pattern) and the index of each
/// row's diagonal entry.
struct Ilu0Factors {
  CsrMatrix lu;
  std::vector<std::size_t> diag;
};

inline Ilu0Factors ilu0_factor(const CsrMatrix& a) {
  Ilu0Factors f{a, std::vector<std::size_t>(a.rows())};
  const std::size_t n = a.rows();
  const auto& row_ptr = f.lu.row_ptr();
  const auto& col_idx = f.lu.col_idx();
  auto& values = f.lu.values();
  for (std::size_t i = 0; i < n; ++i) {
    f.diag[i] = row_ptr[i + 1];
    for (std::size_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      if (col_idx[k] == i) f.diag[i] = k;
    }
    if (f.diag[i] == row_ptr[i + 1]) throw std::runtime_error("reference ilu0: no diagonal");
  }
  for (std::size_t i = 1; i < n; ++i) {
    for (std::size_t kk = row_ptr[i]; kk < row_ptr[i + 1] && col_idx[kk] < i; ++kk) {
      const std::size_t k = col_idx[kk];
      const double factor = values[kk] / values[f.diag[k]];
      values[kk] = factor;
      std::size_t pi = kk + 1;
      for (std::size_t pk = f.diag[k] + 1; pk < row_ptr[k + 1]; ++pk) {
        const std::size_t col = col_idx[pk];
        while (pi < row_ptr[i + 1] && col_idx[pi] < col) ++pi;
        if (pi < row_ptr[i + 1] && col_idx[pi] == col) values[pi] -= factor * values[pk];
      }
    }
  }
  return f;
}

/// ILU(0) apply: forward sweep L y = r (unit diagonal), then backward sweep
/// U z = y, both in row-index order.
inline void ilu0_apply(const Ilu0Factors& f, const Vec& r, Vec& z) {
  const std::size_t n = f.lu.rows();
  const auto& row_ptr = f.lu.row_ptr();
  const auto& col_idx = f.lu.col_idx();
  const auto& values = f.lu.values();
  z.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = r[i];
    for (std::size_t k = row_ptr[i]; k < f.diag[i]; ++k) s -= values[k] * z[col_idx[k]];
    z[i] = s;
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double s = z[ii];
    for (std::size_t k = f.diag[ii] + 1; k < row_ptr[ii + 1]; ++k) {
      s -= values[k] * z[col_idx[k]];
    }
    z[ii] = s / values[f.diag[ii]];
  }
}

/// Unblocked in-place band LU (Doolittle, no pivoting): pivot step k
/// outermost, then each row below it, then each column to its right.
inline void banded_factorize(BandedMatrix& m) {
  const std::size_t n = m.size();
  const std::size_t hb = m.half_bandwidth();
  for (std::size_t k = 0; k < n; ++k) {
    const double pivot = m.at(k, k);
    if (std::abs(pivot) < 1e-300) throw std::runtime_error("reference banded: zero pivot");
    const std::size_t hi = std::min(n - 1, k + hb);
    for (std::size_t i = k + 1; i <= hi; ++i) {
      const double l = m.at(i, k) / pivot;
      m.set(i, k, l);
      for (std::size_t j = k + 1; j <= hi; ++j) m.set(i, j, m.at(i, j) - l * m.at(k, j));
    }
  }
}

}  // namespace kernel_reference
