#include "linalg/banded.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/simd.hpp"
#include "support/check.hpp"

namespace mg::linalg {

BandedMatrix::BandedMatrix(std::size_t n, std::size_t half_bandwidth)
    : n_(n), hb_(half_bandwidth), data_(n * (2 * half_bandwidth + 1), 0.0) {
  MG_REQUIRE(n > 0);
}

BandedMatrix BandedMatrix::from_csr(const CsrMatrix& a, std::size_t half_bandwidth) {
  MG_REQUIRE(a.rows() == a.cols());
  BandedMatrix band(a.rows(), half_bandwidth);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = a.row_ptr()[i]; k < a.row_ptr()[i + 1]; ++k) {
      const std::size_t j = a.col_idx()[k];
      MG_REQUIRE_MSG(band.in_band(i, j), "CSR entry outside declared bandwidth");
      band.set(i, j, a.values()[k]);
    }
  }
  return band;
}

void BandedMatrix::assign_shifted_csr(const CsrMatrix& a, double scale_diag, double scale_a) {
  MG_REQUIRE(a.rows() == n_ && a.cols() == n_);
  std::fill(data_.begin(), data_.end(), 0.0);
  factorized_ = false;
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t k = a.row_ptr()[i]; k < a.row_ptr()[i + 1]; ++k) {
      const std::size_t j = a.col_idx()[k];
      MG_REQUIRE_MSG(in_band(i, j), "CSR entry outside declared bandwidth");
      data_[idx(i, j)] = scale_a * a.values()[k];
    }
    data_[idx(i, i)] += scale_diag;
  }
}

std::size_t BandedMatrix::idx(std::size_t i, std::size_t j) const {
  return i * (2 * hb_ + 1) + (j + hb_ - i);
}

bool BandedMatrix::in_band(std::size_t i, std::size_t j) const {
  return (j + hb_ >= i) && (j <= i + hb_) && i < n_ && j < n_;
}

double BandedMatrix::at(std::size_t i, std::size_t j) const {
  MG_REQUIRE(i < n_ && j < n_);
  if (!in_band(i, j)) return 0.0;
  return data_[idx(i, j)];
}

void BandedMatrix::set(std::size_t i, std::size_t j, double value) {
  MG_REQUIRE(in_band(i, j));
  data_[idx(i, j)] = value;
}

void BandedMatrix::add(std::size_t i, std::size_t j, double value) {
  MG_REQUIRE(in_band(i, j));
  data_[idx(i, j)] += value;
}

void BandedMatrix::multiply(const Vec& x, Vec& y) const {
  MG_REQUIRE(x.size() == n_);
  MG_REQUIRE_MSG(!factorized_, "multiply() after factorize() would use LU factors");
  y.assign(n_, 0.0);
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t j_lo = i >= hb_ ? i - hb_ : 0;
    const std::size_t j_hi = std::min(n_ - 1, i + hb_);
    double s = 0.0;
    for (std::size_t j = j_lo; j <= j_hi; ++j) s += data_[idx(i, j)] * x[j];
    y[i] = s;
  }
}

void BandedMatrix::factorize() {
  MG_REQUIRE(!factorized_);
  // k-panel cache-blocked elimination.  The unblocked loop re-streams
  // the whole ~hb x hb trailing window from memory once per pivot step, which
  // leaves the kernel bandwidth-bound.  Here pivot steps are grouped into
  // panels of kPanel; each target row is brought into cache once per panel
  // and receives all of the panel's updates while hot.  Bitwise identity with
  // the unblocked loop holds because every element d(i,j) still receives its
  // updates  d(i,j) -= l(i,k) * u(k,j)  for k strictly ascending (the k loop
  // is innermost-serial per row), each as a separate multiply and subtract —
  // only the (i,k) iteration order changes, never any element's own
  // operation sequence.  Row segments d[idx(i, k+1 .. k+m)] are contiguous
  // in the band layout, so the SIMD mul-sub kernels apply directly.
  double* __restrict d = data_.data();
  constexpr std::size_t kPanel = 64;
  for (std::size_t k0 = 0; k0 < n_; k0 += kPanel) {
    const std::size_t k1 = std::min(n_, k0 + kPanel);
    // Panel phase: finalize rows k0..k1-1 against the in-panel pivots below
    // them (their updates from earlier panels were applied by those panels'
    // trailing phases).  Pivot checks run in the same ascending-k order as
    // the unblocked loop and see identical values.
    for (std::size_t i = k0; i < k1; ++i) {
      const std::size_t klo = (i > hb_) ? std::max(k0, i - hb_) : k0;
      for (std::size_t k = klo; k < i; ++k) {
        const double l = d[idx(i, k)] / d[idx(k, k)];
        d[idx(i, k)] = l;
        const std::size_t m = std::min(n_ - 1, k + hb_) - k;
        simd::mulsub_row(d + idx(i, k + 1), d + idx(k, k + 1), l, m);
      }
      if (std::abs(d[idx(i, i)]) < 1e-300) {
        throw std::runtime_error("BandedMatrix::factorize: zero pivot at row " + std::to_string(i));
      }
    }
    if (k1 == n_) break;
    // Trailing phase: rows below the panel, four at a time so the pivot-row
    // loads amortise across rows.  Row i participates in step k iff
    // k >= i - hb, so a quad's shared k range starts at the *last* row's
    // lower bound; the earlier rows' few extra leading steps run per-row
    // first (still ascending k per row).
    const std::size_t i_hi = std::min(n_ - 1, k1 - 1 + hb_);
    std::size_t i = k1;
    for (; i + 3 <= i_hi; i += 4) {
      const std::size_t joint_lo = (i + 3 > hb_) ? std::max(k0, i + 3 - hb_) : k0;
      for (std::size_t r = 0; r < 3; ++r) {
        const std::size_t row = i + r;
        const std::size_t klo = (row > hb_) ? std::max(k0, row - hb_) : k0;
        for (std::size_t k = klo; k < joint_lo; ++k) {
          const double l = d[idx(row, k)] / d[idx(k, k)];
          d[idx(row, k)] = l;
          const std::size_t m = std::min(n_ - 1, k + hb_) - k;
          simd::mulsub_row(d + idx(row, k + 1), d + idx(k, k + 1), l, m);
        }
      }
      for (std::size_t k = joint_lo; k < k1; ++k) {
        const double pivot = d[idx(k, k)];
        const double l0 = d[idx(i, k)] / pivot;
        const double l1 = d[idx(i + 1, k)] / pivot;
        const double l2 = d[idx(i + 2, k)] / pivot;
        const double l3 = d[idx(i + 3, k)] / pivot;
        d[idx(i, k)] = l0;
        d[idx(i + 1, k)] = l1;
        d[idx(i + 2, k)] = l2;
        d[idx(i + 3, k)] = l3;
        const std::size_t m = std::min(n_ - 1, k + hb_) - k;
        simd::mulsub_rows4(d + idx(i, k + 1), d + idx(i + 1, k + 1), d + idx(i + 2, k + 1),
                           d + idx(i + 3, k + 1), d + idx(k, k + 1), l0, l1, l2, l3, m);
      }
    }
    for (; i <= i_hi; ++i) {
      const std::size_t klo = (i > hb_) ? std::max(k0, i - hb_) : k0;
      for (std::size_t k = klo; k < k1; ++k) {
        const double l = d[idx(i, k)] / d[idx(k, k)];
        d[idx(i, k)] = l;
        const std::size_t m = std::min(n_ - 1, k + hb_) - k;
        simd::mulsub_row(d + idx(i, k + 1), d + idx(k, k + 1), l, m);
      }
    }
  }
  factorized_ = true;
}

void BandedMatrix::solve(const Vec& b, Vec& x) const {
  MG_REQUIRE(factorized_);
  MG_REQUIRE(b.size() == n_);
  x = b;
  // Forward substitution with unit lower factor.
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t j_lo = i >= hb_ ? i - hb_ : 0;
    double s = x[i];
    for (std::size_t j = j_lo; j < i; ++j) s -= data_[idx(i, j)] * x[j];
    x[i] = s;
  }
  // Back substitution with upper factor.
  for (std::size_t ii = n_; ii-- > 0;) {
    const std::size_t j_hi = std::min(n_ - 1, ii + hb_);
    double s = x[ii];
    for (std::size_t j = ii + 1; j <= j_hi; ++j) s -= data_[idx(ii, j)] * x[j];
    x[ii] = s / data_[idx(ii, ii)];
  }
}

}  // namespace mg::linalg
