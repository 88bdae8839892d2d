// sgbench — runs one workload and prints its result as the last line of
// stdout: {"correct", "attempted", "failed", "metrics"}.  Untraced runs
// report the end-to-end metrics, traced runs the per-layer ones; both lists
// are fixed here and mirrored in BENCHMARK.json (the self-tests compare).
//
// Usage: sgbench --workload NAME --seed N --seconds S --trace 0|1
//                [--out DIR] [--level L] [--inject none|ulp|reject]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using namespace sgbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},       {"seq_solve_s", "s"}, {"solve_s", "s"},
    {"peak_rss_mb", "MB"},  {"svc_p50_s", "s"},   {"svc_p90_s", "s"},
    {"svc_jobs_per_s", "1/s"},
};

constexpr MetricDef kPerLayer[] = {
    {"grid.combine_s", "s"},
    {"grid.combine_bytes", "B"},
    {"grid.combine_bw_share", "ratio"},
    {"grid.triad_bytes_per_s", "B/s"},
    {"grid.triad_array_mib", "MiB"},
    {"transport.subsolve_s", "s"},
    {"transport.max_grid_s", "s"},
    {"transport.max_grid_lx", "count"},
    {"transport.max_grid_ly", "count"},
    {"transport.grid_cost_spread", "ratio"},
    {"rosenbrock.steps_accepted", "count"},
    {"rosenbrock.steps_rejected", "count"},
    {"rosenbrock.stage_solves", "count"},
    {"linalg.assemble_s", "s"},
    {"linalg.factor_s", "s"},
    {"linalg.stage_solve_s", "s"},
    {"linalg.factor_flops", "flop"},
    {"linalg.cache_hit_rate", "ratio"},
    {"linalg.bicgstab_iterations", "count"},
    {"core.pool_wall_s", "s"},
    {"core.tail_s", "s"},
    {"core.busy_share", "ratio"},
    {"core.rendezvous_wait_s", "s"},
    {"core.marshal_encode_us", "us"},
    {"core.marshal_decode_us", "us"},
    {"manifold.tasks_created", "count"},
    {"manifold.peak_busy", "count"},
    {"net.round_trip_p50_s", "s"},
    {"net.round_trip_p90_s", "s"},
    {"net.bytes_sent", "B"},
    {"net.bytes_received", "B"},
    {"net.frames_sent", "count"},
    {"net.dispatch_stall_s", "s"},
    {"net.round_trips_failed", "count"},
    {"svc.queue_wait_p50_s", "s"},
    {"svc.run_p50_s", "s"},
    {"svc.lane_busy_share", "ratio"},
    {"svc.tasks_executed", "count"},
    {"svc.task_retries", "count"},
    {"svc.remote_fallbacks", "count"},
    {"svc.cancelled_terms_done", "count"},
    {"svc.gen_late_p90_ms", "ms"},
    {"svc.cancel_p50_s", "s"},
    {"machine.nproc", "count"},
    {"machine.llc_mib", "MiB"},
    {"machine.simd_lanes", "count"},
    {"bench.trace_overhead_share", "ratio"},
    {"bench.subsolve_share_of_seq", "ratio"},
    {"bench.combine_share_of_solve", "ratio"},
    {"bench.spans", "count"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "sgbench: %s\nusage: sgbench --workload paper-l7|combine-l10|svc-tcp --seed N "
               "--seconds S --trace 0|1 [--out DIR] [--level L] [--inject none|ulp|reject]\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out_dir = value;
    } else if (flag == "--level") {
      args.level = std::atoi(value.c_str());
    } else if (flag == "--inject") {
      if (value == "ulp") {
        args.inject = Inject::Ulp;
      } else if (value == "reject") {
        args.inject = Inject::Reject;
      } else if (value != "none") {
        return false;
      }
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && args.seconds > 0.0;
}

/// The result line: the mode's metrics in their fixed order.  A metric a
/// workload does not exercise (net on the solver workloads, the pool on
/// svc-tcp) reads 0.
std::string result_json(const Outcome& out, bool trace, bool& complete) {
  obs::JsonWriter json;
  json.begin_object();
  json.kv("correct", out.failed == 0 && out.attempted > 0);
  json.kv("attempted", out.attempted).kv("failed", out.failed);
  json.key("metrics").begin_object();
  complete = true;
  const auto emit = [&](const MetricDef& def) {
    const Metric* found = nullptr;
    for (const Metric& m : out.metrics) {
      if (m.name == def.name) found = &m;
    }
    if (found != nullptr && found->unit != def.unit) complete = false;
    if (found == nullptr && !trace) complete = false;
    json.key(def.name).begin_object();
    json.kv("value", found != nullptr ? found->value : 0.0).kv("unit", def.unit);
    json.end_object();
  };
  if (trace) {
    for (const MetricDef& def : kPerLayer) emit(def);
  } else {
    for (const MetricDef& def : kEndToEnd) emit(def);
  }
  json.end_object();
  json.end_object();
  return json.str();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) return usage("bad arguments");
  void (*run)(const Args&, Outcome&, SpanLog&) = nullptr;
  if (args.workload == "paper-l7") run = run_paper_l7;
  if (args.workload == "combine-l10") run = run_combine_l10;
  if (args.workload == "svc-tcp") run = run_svc_tcp;
  if (run == nullptr) return usage("unknown workload");

  now();  // starts the run's clock
  Outcome out;
  SpanLog spans;
  try {
    run(args, out, spans);
  } catch (const std::exception& e) {
    out.attempt();
    out.fail(std::string("workload threw: ") + e.what());
  }

  if (args.trace) {
    out.put("bench.spans", static_cast<double>(spans.size()), "count");
    if (!args.out_dir.empty()) {
      const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                               std::to_string(args.seed) + "-spans.json";
      obs::JsonWriter json;
      json.begin_object();
      json.kv("workload", args.workload).kv("seed", args.seed);
      json.key("detail").raw(out.detail.str().empty() ? "null" : out.detail.str());
      json.key("traceEvents");
      spans.write_chrome(json);
      json.end_object();
      if (obs::write_text_file(path, json.str())) {
        std::printf("spans and per-grid budget written to %s\n", path.c_str());
      } else {
        std::fprintf(stderr, "sgbench: cannot write %s\n", path.c_str());
      }
    }
  }

  bool complete = false;
  const std::string line = result_json(out, args.trace, complete);
  if (!complete) {
    std::fprintf(stderr, "sgbench: %s did not report every metric with its unit\n",
                 args.workload.c_str());
    return 3;
  }
  std::printf("%s\n", line.c_str());
  return 0;
}
