// The traced run's layer-by-layer view of a solve: the sequential program
// composed from the public layer calls (grid::combination_terms ->
// transport::subsolve per grid -> grid::combine), with a span and a registry
// delta around each call, plus timing of the core codec on the same units.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/concurrent_solver.hpp"
#include "transport/seq_solver.hpp"

namespace sgbench {

/// One component grid's share of a sequential solve.
struct GridBudget {
  mg::grid::Grid2D grid{2, 0, 0};
  std::size_t unknowns = 0;        ///< n, interior nodes
  std::size_t half_bandwidth = 0;  ///< hb of the banded stage matrix (interior_x)
  double subsolve_s = 0.0;
  double assemble_s = 0.0;
  double factor_s = 0.0;
  double stage_solve_s = 0.0;
  std::uint64_t factorizations = 0;  ///< stage-cache misses + refreshes
  mg::ros::Ros2Stats stats;
  double factor_flops = 0.0;  ///< computed: factorisations x 2*n*hb^2 (banded) or 6*n (ILU0)
};

struct Composed {
  mg::grid::Field combined{mg::grid::Grid2D(2, 0, 0)};
  std::vector<GridBudget> grids;  ///< in term order
  std::vector<mg::mw::WorkItem> work;
  std::vector<mg::mw::ResultItem> results;
  double wall_s = 0.0;
  double combine_s = 0.0;
  RegistryDelta registry;  ///< over the whole composed solve (single-threaded)
};

/// Runs the sequential program one layer call at a time.  Bit-identical to
/// transport::solve_sequential for the same config (same calls, same order).
Composed compose_sequential(const mg::transport::ProgramConfig& config, SpanLog& spans,
                            std::uint64_t parent);

/// Computed bytes grid::combine moves for `terms` components onto `fine`:
/// per term the prolongated temporary is zero-filled and written, then
/// read with the accumulator and the accumulator written back (5 passes of
/// 8 bytes per fine node), plus the initial zero fill.  Ignores cache hits
/// and write-allocate traffic.
double combine_bytes(std::size_t terms, const mg::grid::Grid2D& fine);

struct CodecTiming {
  double encode_us = 0.0;  ///< per unit, averaged over work and result units
  double decode_us = 0.0;
};

/// Times core/marshal's encode and decode over the given units (repeated
/// until each side has run for at least `min_seconds`).
CodecTiming time_codec(const std::vector<mg::mw::WorkItem>& work,
                       const std::vector<mg::mw::ResultItem>& results, double min_seconds);

/// Adds the transport, rosenbrock and linalg per-layer metrics of a composed
/// solve (or of several, weighted by how many jobs ran each spec).
void put_composed_layers(Outcome& out, const std::vector<const Composed*>& solves,
                         const std::vector<double>& weights);

/// Writes the per-grid-shape budget as a JSON array.
void write_grid_budget(obs::JsonWriter& json, const Composed& c);

}  // namespace sgbench
