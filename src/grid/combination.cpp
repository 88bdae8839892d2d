#include "grid/combination.hpp"

#include "grid/bilinear_row.hpp"
#include "support/check.hpp"

namespace mg::grid {

std::vector<Grid2D> family_grids(int root, int lm) {
  std::vector<Grid2D> grids;
  if (lm < 0) return grids;
  grids.reserve(static_cast<std::size_t>(lm) + 1);
  for (int l = 0; l <= lm; ++l) grids.emplace_back(root, l, lm - l);
  return grids;
}

std::vector<CombinationTerm> combination_terms(int root, int level) {
  MG_REQUIRE(level >= 0);
  std::vector<CombinationTerm> terms;
  terms.reserve(component_count(level));
  for (const Grid2D& g : family_grids(root, level - 1)) terms.push_back({g, -1.0, level - 1});
  for (const Grid2D& g : family_grids(root, level)) terms.push_back({g, +1.0, level});
  return terms;
}

Grid2D finest_grid(int root, int level) { return Grid2D(root, level, level); }

Field combine(const std::vector<CombinationTerm>& terms, const std::vector<Field>& components,
              const Grid2D& fine) {
  MG_REQUIRE(terms.size() == components.size());
  std::vector<detail::BilinearRowMap> maps;
  maps.reserve(terms.size());
  for (std::size_t k = 0; k < terms.size(); ++k) {
    MG_REQUIRE(components[k].grid() == terms[k].grid);
    maps.emplace_back(terms[k].grid, fine);
  }
  // One row-major pass: each fine row gathers every term, in term order,
  // while it sits in cache.  Per node this is 0.0 + c_0 p_0 + c_1 p_1 + ...,
  // the same sum, in the same order, as prolongating each term onto its own
  // field and adding the fields term by term.
  Field result(fine, 0.0);
  const std::size_t nx = fine.nodes_x();
  for (std::size_t j = 0; j < fine.nodes_y(); ++j) {
    double* row = result.data().data() + j * nx;
    for (std::size_t k = 0; k < terms.size(); ++k) {
      const double c = terms[k].coefficient;
      maps[k].row(components[k].data().data(), j, row, [c](double& dst, double v) { dst += c * v; });
    }
  }
  return result;
}

std::size_t component_count(int level) {
  MG_REQUIRE(level >= 0);
  return static_cast<std::size_t>(2 * level + 1);
}

}  // namespace mg::grid
