// Test-only reference oracle for the grid kernels: the seed's bilinear
// prolongation (bounds-checked Field::at, one fine node at a time) and the
// seed's combination loop (prolongate each term onto its own finest-grid
// field, then add_scaled it into the result, term by term).
//
// Production combine() is one fused row-major pass with no per-term field
// (DESIGN.md §6, "Combination kernel").  It promises bitwise identity with
// these loops, and tests/test_grid.cpp holds it to that.  The test target is
// built with -ffp-contract=off like mg_grid, so neither side may be
// contracted to FMA.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "grid/combination.hpp"
#include "grid/field.hpp"
#include "support/check.hpp"

namespace grid_reference {

using mg::grid::CombinationTerm;
using mg::grid::Field;
using mg::grid::Grid2D;

/// Interpolates `coarse` onto `fine_grid`, one fine node at a time.
inline Field prolongate(const Field& coarse, const Grid2D& fine_grid) {
  const Grid2D& cg = coarse.grid();
  MG_REQUIRE(cg.root() == fine_grid.root());
  MG_REQUIRE(fine_grid.lx() >= cg.lx() && fine_grid.ly() >= cg.ly());

  const std::size_t rx = std::size_t{1} << (fine_grid.lx() - cg.lx());
  const std::size_t ry = std::size_t{1} << (fine_grid.ly() - cg.ly());

  Field fine(fine_grid);
  for (std::size_t j = 0; j < fine_grid.nodes_y(); ++j) {
    const std::size_t jc = std::min(j / ry, cg.nodes_y() - 2);
    const double ty = (static_cast<double>(j) - static_cast<double>(jc * ry)) / static_cast<double>(ry);
    for (std::size_t i = 0; i < fine_grid.nodes_x(); ++i) {
      const std::size_t ic = std::min(i / rx, cg.nodes_x() - 2);
      const double tx = (static_cast<double>(i) - static_cast<double>(ic * rx)) / static_cast<double>(rx);
      const double v00 = coarse.at(ic, jc);
      const double v10 = coarse.at(ic + 1, jc);
      const double v01 = coarse.at(ic, jc + 1);
      const double v11 = coarse.at(ic + 1, jc + 1);
      fine.at(i, j) = (1.0 - tx) * (1.0 - ty) * v00 + tx * (1.0 - ty) * v10 +
                      (1.0 - tx) * ty * v01 + tx * ty * v11;
    }
  }
  return fine;
}

/// Prolongates every component onto `fine` and accumulates it with its
/// coefficient, one whole field per term, in term order.
inline Field combine(const std::vector<CombinationTerm>& terms, const std::vector<Field>& components,
                     const Grid2D& fine) {
  MG_REQUIRE(terms.size() == components.size());
  Field result(fine, 0.0);
  for (std::size_t k = 0; k < terms.size(); ++k) {
    MG_REQUIRE(components[k].grid() == terms[k].grid);
    const Field p = grid_reference::prolongate(components[k], fine);
    result.add_scaled(terms[k].coefficient, p);
  }
  return result;
}

}  // namespace grid_reference
