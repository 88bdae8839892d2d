// paper-l7 and combine-l10: one solver program run end to end, sequentially
// and on the threads substrate, with the program's defaults except the
// stage solver combine-l10 names.  The seed does not change these inputs:
// the paper's problem is fixed, so every seed runs the same work.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <optional>

#include "core/concurrent_solver.hpp"
#include "grid/combination.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace sgbench {
namespace {

namespace mgt = mg::transport;

struct SolverWorkload {
  const char* name;
  int level;
  mgt::StageSolverKind solver;
  /// Nominal wall of one sequential plus one concurrent solve on the 4-core
  /// machine this was sized on.  A run makes floor(seconds / pair_seconds)
  /// sequential solves (at least one) and one concurrent solve more, so its
  /// work does not depend on how fast the machine is today.
  double pair_seconds;
};

mgt::ProgramConfig program_config(const SolverWorkload& w, const Args& args) {
  mgt::ProgramConfig config;
  config.root = 2;
  config.level = args.level >= 0 ? args.level : w.level;
  config.le_tol = 1e-3;
  config.kernel.system.solver = w.solver;
  return config;
}

/// Set-up is what precedes the timed solves: one level-1 concurrent solve,
/// so the runtime's lazy set-up (kernel dispatch, metric registration, first
/// thread creation) is done before timing.
double set_up(const mgt::ProgramConfig& config) {
  const double start = now();
  mgt::ProgramConfig warm = config;
  warm.level = 1;
  mg::mw::solve_concurrent(warm);
  return now() - start;
}

/// Three set-ups, timed into `times`.  Runs take them before the first
/// solve and after every solve, so their median samples the whole run.
void set_ups(const mgt::ProgramConfig& config, std::vector<double>& times) {
  for (int i = 0; i < 3; ++i) times.push_back(set_up(config));
}

void check_errors(Outcome& out, const mgt::ProgramConfig& config,
                  const mg::grid::Field& combined, const char* what) {
  const ErrorNorms e = error_norms(combined, config.kernel.problem, config.kernel.t1);
  if (!e.within()) {
    out.fail(std::string(what) + ": error vs analytic max " + std::to_string(e.max_error) +
             " L2 " + std::to_string(e.l2_error) + " beyond the stated tolerance");
  }
}

void check_identical(Outcome& out, const std::vector<double>& expected,
                     const std::vector<double>& got, const char* what) {
  if (!bit_identical(expected, got)) out.fail(std::string(what) + " is not bit-identical");
}

/// The untraced run: concurrent and sequential solves alternate, starting
/// and ending with a concurrent one, so each median samples the whole run.
/// Every concurrent result must equal the sequential one bit for bit, every
/// sequential result must repeat, and each must meet the analytic-error
/// tolerance.
void run_untraced(const SolverWorkload& w, const Args& args, Outcome& out) {
  const mgt::ProgramConfig config = program_config(w, args);
  std::vector<double> setups;
  set_ups(config, setups);

  const int seq_reps = std::max(1, static_cast<int>(args.seconds / w.pair_seconds));
  std::vector<double> seq_s;
  std::vector<double> conc_s;
  std::vector<double> reference;              // the first sequential result
  std::vector<std::vector<double>> unchecked;  // concurrent results awaiting it
  for (int i = 0; i < 2 * seq_reps + 1; ++i) {
    out.attempt();
    try {
      const double start = now();
      if (i % 2 == 0) {
        mg::mw::ConcurrentResult conc = mg::mw::solve_concurrent(config);
        conc_s.push_back(now() - start);
        std::printf("%s concurrent %.3f s (pool %.3f s, combine %.3f s)\n", w.name,
                    conc_s.back(), conc.solve.subsolve_seconds,
                    conc.solve.prolongation_seconds);
        if (conc.protocol.timed_out) out.fail("solve_concurrent timed out");
        if (args.inject == Inject::Ulp && i == 0) perturb_one_ulp(conc.solve.combined.data());
        unchecked.push_back(std::move(conc.solve.combined.data()));
      } else {
        mgt::SolveResult seq = mgt::solve_sequential(config);
        seq_s.push_back(now() - start);
        std::printf("%s sequential %.3f s\n", w.name, seq_s.back());
        check_errors(out, config, seq.combined, "solve_sequential");
        if (reference.empty()) {
          reference = std::move(seq.combined.data());
        } else {
          check_identical(out, reference, seq.combined.data(), "repeated solve_sequential");
        }
      }
    } catch (const std::exception& e) {
      out.fail(std::string("solve threw: ") + e.what());
    }
    set_ups(config, setups);
    if (reference.empty()) continue;
    for (const auto& c : unchecked) {
      check_identical(out, reference, c, "solve_concurrent vs solve_sequential");
    }
    unchecked.clear();
  }

  double conc_total = 0.0;
  for (const double s : conc_s) conc_total += s;
  out.put("setup_s", median(setups), "s");
  out.put("seq_solve_s", median(seq_s), "s");
  out.put("solve_s", median(conc_s), "s");
  out.put("peak_rss_mb", peak_rss_mb(), "MB");
  // With no service in this workload its one client request is a
  // concurrent solve: the svc_* figures report that request.  A run has
  // too few of them for any percentile above the median to have ten
  // samples beyond it, so p90 reports the median too.
  out.put("svc_p50_s", median(conc_s), "s");
  out.put("svc_p90_s", median(conc_s), "s");
  out.put("svc_jobs_per_s", static_cast<double>(conc_s.size()) / conc_total, "1/s");
}

void run_traced(const SolverWorkload& w, const Args& args, Outcome& out, SpanLog& spans) {
  const mgt::ProgramConfig config = program_config(w, args);
  set_up(config);

  // The untraced baseline of the overhead figure is one concurrent solve;
  // the traced rep composes the sequential program layer by layer and runs
  // the concurrent solve again.  Both concurrent results must equal the
  // composed sequential one bit for bit.
  double untraced_conc_s = 0.0;
  double traced_conc_s = 0.0;
  Composed composed;
  std::optional<mg::mw::ConcurrentResult> conc;
  CodecTiming codec;
  out.attempt(3);
  try {
    double start = now();
    std::vector<double> untraced = mg::mw::solve_concurrent(config).solve.combined.data();
    untraced_conc_s = now() - start;

    spans.enable();
    const Scope rep(spans, std::string(w.name) + " traced rep", "bench");
    composed = compose_sequential(config, spans, rep.id());
    check_errors(out, config, composed.combined, "composed sequential");
    start = now();
    {
      const Scope s(spans, "solve_concurrent", "core", rep.id());
      conc.emplace(mg::mw::solve_concurrent(config));
    }
    traced_conc_s = now() - start;
    if (args.inject == Inject::Ulp) perturb_one_ulp(conc->solve.combined.data());
    check_identical(out, composed.combined.data(), conc->solve.combined.data(),
                    "solve_concurrent vs composed sequential");
    check_identical(out, composed.combined.data(), untraced,
                    "untraced solve_concurrent vs composed sequential");
    const Scope s(spans, "core codec", "core", rep.id());
    codec = time_codec(composed.work, composed.results, 0.1);
  } catch (const std::exception& e) {
    out.fail(std::string("traced solve threw: ") + e.what());
  }
  if (!conc) return;
  // Release the large fields before the triad allocates its arrays.
  composed.combined = mg::grid::Field(mg::grid::Grid2D(config.root, 0, 0));
  conc->solve.combined = mg::grid::Field(mg::grid::Grid2D(config.root, 0, 0));
  const Machine machine = measure_machine();

  put_composed_layers(out, {&composed}, {1.0});
  const mg::grid::Grid2D fine = mg::grid::finest_grid(config.root, config.level);
  const double bytes = combine_bytes(composed.grids.size(), fine);
  out.put("grid.combine_s", composed.combine_s, "s");
  out.put("grid.combine_bytes", bytes, "B");
  out.put("grid.combine_bw_share",
          machine.triad_bytes_per_s > 0.0
              ? bytes / composed.combine_s / machine.triad_bytes_per_s
              : 0.0,
          "ratio");

  double subsolve_s = 0.0;
  const GridBudget* widest = nullptr;
  for (const GridBudget& b : composed.grids) {
    subsolve_s += b.subsolve_s;
    if (widest == nullptr || b.subsolve_s > widest->subsolve_s) widest = &b;
  }
  // Tail: pool time the longest grid of this concurrent run does not cover.
  // Busy share: the grids' uncontended (composed) time over the pool's
  // capacity; contended grid walls would exceed 1 whenever workers
  // outnumber cores.
  const double pool_wall = conc->solve.subsolve_seconds;
  double max_grid = 0.0;
  for (const auto& r : conc->solve.records) max_grid = std::max(max_grid, r.elapsed_seconds);
  const double slots = static_cast<double>(
      std::min<std::size_t>(conc->protocol.workers_created, machine.nproc));
  out.put("core.pool_wall_s", pool_wall, "s");
  out.put("core.tail_s", pool_wall - max_grid, "s");
  out.put("core.busy_share", slots > 0.0 ? subsolve_s / (slots * pool_wall) : 0.0, "ratio");
  out.put("core.rendezvous_wait_s", conc->protocol.rendezvous_wait_seconds, "s");
  out.put("core.marshal_encode_us", codec.encode_us, "us");
  out.put("core.marshal_decode_us", codec.decode_us, "us");
  out.put("manifold.tasks_created", static_cast<double>(conc->tasks.tasks_created), "count");
  out.put("manifold.peak_busy", static_cast<double>(conc->tasks.peak_busy), "count");

  out.put("bench.trace_overhead_share", traced_conc_s / untraced_conc_s - 1.0, "ratio");
  out.put("bench.subsolve_share_of_seq", subsolve_s / composed.wall_s, "ratio");
  out.put("bench.combine_share_of_solve", composed.combine_s / untraced_conc_s, "ratio");
  put_machine(out, machine);
  std::printf("%s traced: subsolve %.3f s of sequential %.3f s (widest %s %.3f s); "
              "combine %.3f s of concurrent %.3f s\n",
              w.name, subsolve_s, composed.wall_s, widest ? widest->grid.name().c_str() : "-",
              widest ? widest->subsolve_s : 0.0, composed.combine_s, untraced_conc_s);

  out.detail.begin_object();
  out.detail.key("machine");
  write_machine(out.detail, machine);
  out.detail.key("per_grid_sequential");
  write_grid_budget(out.detail, composed);
  out.detail.key("per_grid_concurrent").begin_array();
  for (const auto& r : conc->solve.records) {
    out.detail.begin_object().kv("shape", r.grid.name()).kv("subsolve_s", r.elapsed_seconds);
    out.detail.end_object();
  }
  out.detail.end_array();
  out.detail.end_object();
}

void run_solver(const SolverWorkload& w, const Args& args, Outcome& out, SpanLog& spans) {
  if (args.trace) {
    run_traced(w, args, out, spans);
  } else {
    run_untraced(w, args, out);
  }
}

}  // namespace

void run_paper_l7(const Args& args, Outcome& out, SpanLog& spans) {
  run_solver({"paper-l7", 7, mgt::StageSolverKind::BandedLU, 18.0}, args, out, spans);
}

void run_combine_l10(const Args& args, Outcome& out, SpanLog& spans) {
  run_solver({"combine-l10", 10, mgt::StageSolverKind::BiCgStabIlu0, 24.0}, args, out, spans);
}

}  // namespace sgbench
