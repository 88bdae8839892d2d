#include "grid/prolongation.hpp"

#include "grid/bilinear_row.hpp"
#include "support/check.hpp"

namespace mg::grid {

namespace detail {

BilinearRowMap::BilinearRowMap(const Grid2D& coarse, const Grid2D& fine) {
  MG_REQUIRE(coarse.root() == fine.root());
  MG_REQUIRE(fine.lx() >= coarse.lx() && fine.ly() >= coarse.ly());
  rx_ = std::size_t{1} << (fine.lx() - coarse.lx());
  ry_ = std::size_t{1} << (fine.ly() - coarse.ly());
  coarse_nx_ = coarse.nodes_x();
  coarse_ny_ = coarse.nodes_y();
  // For fine column i = ic*rx + r, (i - ic*rx) / rx is r / rx: the integer
  // difference converts to double exactly.
  tx_.resize(rx_ + 1);
  for (std::size_t r = 0; r <= rx_; ++r) tx_[r] = static_cast<double>(r) / static_cast<double>(rx_);
}

}  // namespace detail

Field prolongate(const Field& coarse, const Grid2D& fine_grid) {
  const detail::BilinearRowMap map(coarse.grid(), fine_grid);
  Field fine(fine_grid);
  const std::size_t nx = fine_grid.nodes_x();
  for (std::size_t j = 0; j < fine_grid.nodes_y(); ++j) {
    map.row(coarse.data().data(), j, fine.data().data() + j * nx, [](double& dst, double v) { dst = v; });
  }
  return fine;
}

}  // namespace mg::grid
