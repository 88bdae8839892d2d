// Banded matrix with in-place LU factorisation (no pivoting).
//
// The 5-point stencil on an nx-by-ny grid (lexicographic ordering) yields a
// band of half-width nx; the Rosenbrock stage matrix (I - gamma*h*J) is
// strongly diagonally dominant for the step sizes the controller accepts, so
// unpivoted LU is stable here.  This is the direct baseline the iterative
// solver (BiCGSTAB) is compared against in bench/ablation.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/csr.hpp"
#include "linalg/vector_ops.hpp"

namespace mg::linalg {

class BandedMatrix {
 public:
  /// n-by-n matrix with entries only where |i - j| <= half_bandwidth.
  BandedMatrix(std::size_t n, std::size_t half_bandwidth);

  /// Builds from a CSR matrix; requires every stored entry to lie in band.
  static BandedMatrix from_csr(const CsrMatrix& a, std::size_t half_bandwidth);

  /// Refills the band in place with I*scale_diag + A*scale_a (the Rosenbrock
  /// stage matrix when called with (J, 1, -gamma*h)) and clears the
  /// factorised flag so factorize() can run again — the allocation-free
  /// equivalent of from_csr(shifted_identity(a, ...), hb).  Requires
  /// a.rows() == size() and every entry of `a` in band.
  void assign_shifted_csr(const CsrMatrix& a, double scale_diag, double scale_a);

  std::size_t size() const { return n_; }
  std::size_t half_bandwidth() const { return hb_; }

  double at(std::size_t i, std::size_t j) const;
  void set(std::size_t i, std::size_t j, double value);
  void add(std::size_t i, std::size_t j, double value);

  /// y = A * x (only meaningful before factorize()).
  void multiply(const Vec& x, Vec& y) const;

  /// In-place LU (Doolittle, no pivoting).  Throws on a (near-)zero pivot.
  ///
  /// Pivot steps are blocked into k-panels and the trailing update runs
  /// through the SIMD mul-sub kernels, four target rows against each pivot
  /// row.  Every entry (i, j) still receives its updates
  /// d(i,j) -= l(i,k) * u(k,j) one at a time in ascending k, so the factors
  /// are bitwise identical to the unblocked seed elimination.  The
  /// substitution sweeps in solve() are chain-serial by row and stay scalar.
  void factorize();

  /// Solves A x = b using the factors; requires factorize() first.
  void solve(const Vec& b, Vec& x) const;

  bool factorized() const { return factorized_; }

 private:
  std::size_t idx(std::size_t i, std::size_t j) const;
  bool in_band(std::size_t i, std::size_t j) const;

  std::size_t n_;
  std::size_t hb_;
  std::vector<double> data_;  // row-major band storage, width 2*hb_+1
  bool factorized_ = false;
};

}  // namespace mg::linalg
