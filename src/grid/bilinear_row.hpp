// Row-at-a-time bilinear interpolation between nested grids: the one
// interpolation body behind prolongate() and combine().  Private to mg_grid.
//
// Fine row j lies in coarse row pair (jc, jc+1) with vertical weight ty; fine
// column i = ic*rx + r lies in coarse cell ic with horizontal weight r/rx.
// The loop walks coarse cells and, inside a cell, the rx fine columns it
// owns, so the four corner values stay in registers and the fine row is
// written contiguously.  Every fine node evaluates the seed's expression
//     (1-tx)(1-ty) v00 + tx(1-ty) v10 + (1-tx) ty v01 + tx ty v11
// left to right, with tx and ty computed exactly as the seed did, so the
// result is bitwise the seed's (mg_grid is built with -ffp-contract=off).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "grid/grid2d.hpp"

namespace mg::grid::detail {

class BilinearRowMap {
 public:
  /// Requires the same root and fine.lx >= coarse.lx, fine.ly >= coarse.ly.
  BilinearRowMap(const Grid2D& coarse, const Grid2D& fine);

  /// Interpolates fine row j from `coarse` (the coarse grid's node data) and
  /// hands every fine node of the row to store(out[i], value).
  template <class Store>
  void row(const double* coarse, std::size_t j, double* out, Store store) const {
    // Coarse cell containing fine row j and the vertical interpolation weight.
    const std::size_t jc = std::min(j / ry_, coarse_ny_ - 2);
    const double ty = (static_cast<double>(j) - static_cast<double>(jc * ry_)) / static_cast<double>(ry_);
    const double* lo = coarse + jc * coarse_nx_;
    const double* hi = lo + coarse_nx_;
    const double* tx = tx_.data();
    const std::size_t cells = coarse_nx_ - 1;
    for (std::size_t ic = 0; ic < cells; ++ic) {
      const double v00 = lo[ic];
      const double v10 = lo[ic + 1];
      const double v01 = hi[ic];
      const double v11 = hi[ic + 1];
      double* cell = out + ic * rx_;
      // The last cell also owns the right boundary column (tx = 1).
      const std::size_t n = ic + 1 == cells ? rx_ + 1 : rx_;
      for (std::size_t r = 0; r < n; ++r) {
        store(cell[r], (1.0 - tx[r]) * (1.0 - ty) * v00 + tx[r] * (1.0 - ty) * v10 +
                           (1.0 - tx[r]) * ty * v01 + tx[r] * ty * v11);
      }
    }
  }

 private:
  std::size_t rx_ = 1;
  std::size_t ry_ = 1;
  std::size_t coarse_nx_ = 0;
  std::size_t coarse_ny_ = 0;
  std::vector<double> tx_;  ///< r / rx for r = 0..rx
};

}  // namespace mg::grid::detail
