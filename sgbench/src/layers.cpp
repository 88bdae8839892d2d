#include "layers.hpp"

#include <algorithm>

#include "core/marshal.hpp"
#include "grid/combination.hpp"
#include "transport/subsolve.hpp"

namespace sgbench {

namespace mgt = mg::transport;

namespace {

/// Computed flops of one stage factorisation: 2*n*hb^2 for banded LU, and
/// 6*n for ILU(0) of the 5-point stencil (one divide and one multiply-add on
/// each of a row's two lower neighbours).
double factor_flops(mgt::StageSolverKind kind, std::size_t n, std::size_t hb) {
  const double dn = static_cast<double>(n);
  const double dhb = static_cast<double>(hb);
  return kind == mgt::StageSolverKind::BandedLU ? 2.0 * dn * dhb * dhb : 6.0 * dn;
}

}  // namespace

Composed compose_sequential(const mgt::ProgramConfig& config, SpanLog& spans,
                            std::uint64_t parent) {
  Composed c;
  const mgt::SubsolveConfig kernel = config.kernel_config();
  const mgt::StageSolverKind kind = kernel.system.solver;
  const Scope whole(spans, "sequential(composed) level " + std::to_string(config.level),
                    "transport", parent);
  c.registry.before = obs::registry().snapshot();

  std::vector<mg::grid::CombinationTerm> terms;
  {
    const Scope s(spans, "combination_terms", "grid", whole.id());
    terms = mg::grid::combination_terms(config.root, config.level);
  }
  std::vector<mg::grid::Field> components;
  components.reserve(terms.size());
  for (std::size_t k = 0; k < terms.size(); ++k) {
    const mg::grid::Grid2D& g = terms[k].grid;
    GridBudget b;
    b.grid = g;
    b.unknowns = g.interior_count();
    b.half_bandwidth = g.interior_x();
    RegistryDelta d;
    d.before = obs::registry().snapshot();
    mgt::SubsolveResult r = [&] {
      const Scope s(spans, "subsolve " + g.name(), "transport", whole.id());
      const double start = now();
      mgt::SubsolveResult result = mgt::subsolve(g, kernel);
      b.subsolve_s = now() - start;
      return result;
    }();
    d.after = obs::registry().snapshot();
    b.assemble_s = d.histogram_sum("linalg.stage_assemble_seconds");
    b.factor_s = d.histogram_sum("linalg.stage_factor_seconds");
    b.stage_solve_s = d.histogram_sum("linalg.stage_solve_seconds");
    b.factorizations =
        d.counter("linalg.stage_cache.misses") + d.counter("linalg.stage_cache.refreshes");
    b.stats = r.stats;
    b.factor_flops = static_cast<double>(b.factorizations) *
                     factor_flops(kind, b.unknowns, b.half_bandwidth);
    c.grids.push_back(b);
    c.work.push_back({k, config.root, g.lx(), g.ly(), kernel});
    c.results.push_back({k, r.solution.data(), r.stats, r.elapsed_seconds});
    components.push_back(std::move(r.solution));
  }
  {
    const Scope s(spans, "combine", "grid", whole.id());
    const double start = now();
    c.combined = mg::grid::combine(terms, components,
                                   mg::grid::finest_grid(config.root, config.level));
    c.combine_s = now() - start;
  }
  c.registry.after = obs::registry().snapshot();
  c.wall_s = whole.seconds();
  return c;
}

double combine_bytes(std::size_t terms, const mg::grid::Grid2D& fine) {
  return 8.0 * static_cast<double>(fine.node_count()) * (1.0 + 5.0 * static_cast<double>(terms));
}

CodecTiming time_codec(const std::vector<mg::mw::WorkItem>& work,
                       const std::vector<mg::mw::ResultItem>& results, double min_seconds) {
  CodecTiming t;
  const double units = static_cast<double>(work.size() + results.size());
  if (units == 0.0) return t;
  std::vector<std::vector<std::uint8_t>> work_bytes;
  std::vector<std::vector<std::uint8_t>> result_bytes;
  std::size_t reps = 0;
  double start = now();
  do {
    work_bytes.clear();
    result_bytes.clear();
    for (const auto& w : work) work_bytes.push_back(mg::mw::encode_work_item(w));
    for (const auto& r : results) result_bytes.push_back(mg::mw::encode_result_item(r));
    ++reps;
  } while (now() - start < min_seconds);
  t.encode_us = (now() - start) * 1e6 / (static_cast<double>(reps) * units);

  reps = 0;
  std::size_t checksum = 0;
  start = now();
  do {
    for (const auto& b : work_bytes) checksum += mg::mw::decode_work_item(b).index;
    for (const auto& b : result_bytes) checksum += mg::mw::decode_result_item(b).node_data.size();
    ++reps;
  } while (now() - start < min_seconds);
  t.decode_us = (now() - start) * 1e6 / (static_cast<double>(reps) * units);
  if (checksum == 0 && !results.empty() && !results.front().node_data.empty()) t.decode_us = 0.0;
  return t;
}

void put_composed_layers(Outcome& out, const std::vector<const Composed*>& solves,
                         const std::vector<double>& weights) {
  double subsolve_s = 0.0, assemble_s = 0.0, factor_s = 0.0, stage_solve_s = 0.0;
  double flops = 0.0, accepted = 0.0, rejected = 0.0, stage_solves = 0.0;
  double hits = 0.0, lookups = 0.0, iterations = 0.0;
  const GridBudget* widest = nullptr;
  const Composed* widest_solve = nullptr;
  for (std::size_t i = 0; i < solves.size(); ++i) {
    const Composed& c = *solves[i];
    const double w = weights[i];
    for (const GridBudget& b : c.grids) {
      subsolve_s += w * b.subsolve_s;
      flops += w * b.factor_flops;
      accepted += w * static_cast<double>(b.stats.accepted);
      rejected += w * static_cast<double>(b.stats.rejected);
      stage_solves += w * static_cast<double>(b.stats.stage_solves);
      if (widest == nullptr || b.subsolve_s > widest->subsolve_s) {
        widest = &b;
        widest_solve = &c;
      }
    }
    const RegistryDelta& d = c.registry;
    assemble_s += w * d.histogram_sum("linalg.stage_assemble_seconds");
    factor_s += w * d.histogram_sum("linalg.stage_factor_seconds");
    stage_solve_s += w * d.histogram_sum("linalg.stage_solve_seconds");
    const double h = static_cast<double>(d.counter("linalg.stage_cache.hits"));
    hits += w * h;
    lookups += w * (h + static_cast<double>(d.counter("linalg.stage_cache.misses") +
                                            d.counter("linalg.stage_cache.refreshes")));
    iterations += w * static_cast<double>(d.counter("linalg.bicgstab_iterations"));
  }
  out.put("transport.subsolve_s", subsolve_s, "s");
  if (widest != nullptr) {
    std::vector<double> times;
    for (const GridBudget& b : widest_solve->grids) times.push_back(b.subsolve_s);
    out.put("transport.max_grid_s", widest->subsolve_s, "s");
    out.put("transport.max_grid_lx", widest->grid.lx(), "count");
    out.put("transport.max_grid_ly", widest->grid.ly(), "count");
    out.put("transport.grid_cost_spread", widest->subsolve_s / median(times), "ratio");
  }
  out.put("rosenbrock.steps_accepted", accepted, "count");
  out.put("rosenbrock.steps_rejected", rejected, "count");
  out.put("rosenbrock.stage_solves", stage_solves, "count");
  out.put("linalg.assemble_s", assemble_s, "s");
  out.put("linalg.factor_s", factor_s, "s");
  out.put("linalg.stage_solve_s", stage_solve_s, "s");
  out.put("linalg.factor_flops", flops, "flop");
  out.put("linalg.cache_hit_rate", lookups > 0.0 ? hits / lookups : 0.0, "ratio");
  out.put("linalg.bicgstab_iterations", iterations, "count");
}

void write_grid_budget(obs::JsonWriter& json, const Composed& c) {
  json.begin_array();
  for (const GridBudget& b : c.grids) {
    json.begin_object();
    json.kv("shape", b.grid.name()).kv("lx", b.grid.lx()).kv("ly", b.grid.ly());
    json.kv("unknowns", static_cast<std::uint64_t>(b.unknowns));
    json.kv("half_bandwidth", static_cast<std::uint64_t>(b.half_bandwidth));
    json.kv("subsolve_s", b.subsolve_s).kv("assemble_s", b.assemble_s);
    json.kv("factor_s", b.factor_s).kv("stage_solve_s", b.stage_solve_s);
    json.kv("factorizations", b.factorizations);
    json.kv("steps_accepted", static_cast<std::uint64_t>(b.stats.accepted));
    json.kv("steps_rejected", static_cast<std::uint64_t>(b.stats.rejected));
    json.kv("stage_solves", static_cast<std::uint64_t>(b.stats.stage_solves));
    json.kv("factor_flops_computed", b.factor_flops);
    json.end_object();
  }
  json.end_array();
}

}  // namespace sgbench
