// Shared pieces of the sgbench driver: run arguments, the outcome every
// workload fills (operations attempted/failed plus named metrics), the
// benchmark's own in-memory span log, correctness gates, order statistics,
// registry deltas and the machine baseline.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "grid/field.hpp"
#include "obs/json_writer.hpp"
#include "obs/metrics.hpp"
#include "transport/problem.hpp"

namespace sgbench {

namespace obs = mg::obs;

/// Test-only fault injection, so the self-tests can prove the gates trip.
enum class Inject {
  None,
  Ulp,     ///< perturb one value of a checked result by one ulp
  Reject,  ///< svc-tcp: submit one job the engine must reject
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< where the traced run writes its span/budget file
  int level = -1;       ///< override of the workload's level (self-tests)
  Inject inject = Inject::None;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload reports.  Every operation (solve, job, cancel) is counted
/// as attempted; one that throws, is rejected, times out or fails a gate is
/// counted as failed and makes the run incorrect.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Free-form documents written with the trace file (per-grid budget...).
  obs::JsonWriter detail;

  void attempt(std::uint64_t n = 1) { attempted += n; }
  /// Records a failed operation with its reason on stderr.
  void fail(const std::string& why);
  /// Sets a metric (a later put of the same name replaces the value).
  void put(const std::string& name, double value, const std::string& unit);
};

// ---- time and order statistics ----------------------------------------------

/// Seconds on a steady clock since the first call in this process.
double now();

double median(std::vector<double> v);
/// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);

/// Peak resident set of this process (VmHWM), in MB.
double peak_rss_mb();

// ---- the benchmark's own spans ----------------------------------------------

/// Spans the benchmark records around its calls into each layer.  Kept in
/// memory (a mutex-guarded vector) and written once, when the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::string layer;
    double start = 0.0;
    double end = 0.0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t trace = 0;   ///< spans of one request share this
  };

  void enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  /// Reserves a span id (so children can name their parent before it ends).
  std::uint64_t next_id();
  /// Records a finished span; a no-op when disabled.
  void add(Span span);
  std::size_t size() const;
  /// Chrome trace_event JSON of every span ("X" events, one tid per layer).
  void write_chrome(obs::JsonWriter& json) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mutex_;  ///< guards spans_ and next_id_
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

/// RAII span: times its scope and records it into the log when enabled.
class Scope {
 public:
  Scope(SpanLog& log, std::string name, std::string layer, std::uint64_t parent = 0,
        std::uint64_t trace = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint64_t id() const { return span_.id; }
  double seconds() const { return now() - span_.start; }

 private:
  SpanLog& log_;
  SpanLog::Span span_;
};

// ---- gates -------------------------------------------------------------------

/// Bitwise equality of two result vectors (not ==: -0.0 vs 0.0 and NaN
/// payloads count as differences).
bool bit_identical(const std::vector<double>& a, const std::vector<double>& b);

/// The analytic-error gate: a combined solution at t1 must stay within these
/// of the exact solution.  Measured at le_tol 1e-3, root 2: max error
/// 0.8e-2..1.1e-2 and L2 error about 2e-3 at levels 4 to 10.
inline constexpr double kMaxErrorTolerance = 2.5e-2;
inline constexpr double kL2ErrorTolerance = 5e-3;

struct ErrorNorms {
  double max_error = 0.0;
  double l2_error = 0.0;
  bool within() const {
    return max_error <= kMaxErrorTolerance && l2_error <= kL2ErrorTolerance;
  }
};

/// Max and L2 norms of combined - exact at t1 (Field::max_error and
/// l2_error: the analytic solution is sampled node by node, never stored).
ErrorNorms error_norms(const mg::grid::Field& combined, const mg::transport::TransportProblem& p,
                       double t1);

/// Flips the last bit of one value (the self-tests' one-ulp perturbation).
void perturb_one_ulp(std::vector<double>& v);

// ---- registry deltas -----------------------------------------------------------

struct RegistryDelta {
  mg::obs::MetricsSnapshot before;
  mg::obs::MetricsSnapshot after;

  std::uint64_t counter(const std::string& name) const;
  double histogram_sum(const std::string& name) const;
  /// Quantile of a histogram's delta, log-interpolated inside the bucket.
  double histogram_quantile(const std::string& name, double q) const;
  /// Sum over merged worker telemetry: counters "worker.pid<N>.<suffix>".
  std::uint64_t worker_counter(const std::string& suffix) const;
  /// Sum over merged worker histogram sums: gauges "worker.pid<N>.<suffix>.sum".
  double worker_histogram_sum(const std::string& suffix) const;
};

// ---- machine baseline ------------------------------------------------------------

struct Machine {
  unsigned nproc = 0;
  std::string cpu_model;
  double llc_mib = 0.0;
  std::string simd;        ///< ISA the linalg kernels dispatched to
  double simd_lanes = 1;   ///< doubles per vector register of that ISA
  double triad_array_mib = 0.0;
  double triad_bytes_per_s = 0.0;  ///< best of the triad passes
};

/// Identifies the machine and measures a STREAM-style triad a = b + s*c,
/// single-threaded (the combine runs on one thread too).  Each array is 4x
/// the last-level cache unless a ninth of MemAvailable is less.
Machine measure_machine();

void put_machine(Outcome& out, const Machine& m);
void write_machine(obs::JsonWriter& json, const Machine& m);

}  // namespace sgbench
