#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "linalg/simd.hpp"

namespace sgbench {

void Outcome::fail(const std::string& why) {
  ++failed;
  std::fprintf(stderr, "sgbench: gate failed: %s\n", why.c_str());
}

void Outcome::put(const std::string& name, double value, const std::string& unit) {
  const double v = std::isfinite(value) ? value : 0.0;
  for (Metric& m : metrics) {
    if (m.name == name) {
      m = {name, v, unit};
      return;
    }
  }
  metrics.push_back({name, v, unit});
}

double now() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point origin = clock::now();
  return std::chrono::duration<double>(clock::now() - origin).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0.0;
}

// ---- spans -------------------------------------------------------------------

std::uint64_t SpanLog::next_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void SpanLog::add(Span span) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

void SpanLog::write_chrome(obs::JsonWriter& json) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, int> tids;
  json.begin_array();
  for (const Span& s : spans_) {
    const auto [it, inserted] = tids.emplace(s.layer, static_cast<int>(tids.size()) + 1);
    json.begin_object();
    json.kv("name", s.name).kv("cat", s.layer).kv("ph", "X").kv("pid", 1).kv("tid", it->second);
    json.kv("ts", s.start * 1e6).kv("dur", (s.end - s.start) * 1e6);
    json.key("args").begin_object();
    json.kv("id", s.id).kv("parent", s.parent).kv("trace", s.trace);
    json.end_object();
    json.end_object();
  }
  json.end_array();
}

Scope::Scope(SpanLog& log, std::string name, std::string layer, std::uint64_t parent,
             std::uint64_t trace)
    : log_(log),
      span_{std::move(name), std::move(layer), now(), 0.0, log.enabled() ? log.next_id() : 0,
            parent, trace} {}

Scope::~Scope() {
  span_.end = now();
  log_.add(std::move(span_));
}

// ---- gates ---------------------------------------------------------------------

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

ErrorNorms error_norms(const mg::grid::Field& combined, const mg::transport::TransportProblem& p,
                       double t1) {
  const auto exact = [&p, t1](double x, double y) { return p.exact(x, y, t1); };
  return {combined.max_error(exact), combined.l2_error(exact)};
}

void perturb_one_ulp(std::vector<double>& v) {
  if (v.empty()) return;
  double& x = v[v.size() / 2];
  x = std::nextafter(x, x + 1.0);
}

// ---- registry deltas -------------------------------------------------------------

std::uint64_t RegistryDelta::counter(const std::string& name) const {
  return after.counter_or(name) - before.counter_or(name);
}

double RegistryDelta::histogram_sum(const std::string& name) const {
  const auto a = after.histograms.find(name);
  if (a == after.histograms.end()) return 0.0;
  const auto b = before.histograms.find(name);
  return a->second.sum - (b == before.histograms.end() ? 0.0 : b->second.sum);
}

double RegistryDelta::histogram_quantile(const std::string& name, double q) const {
  const auto a = after.histograms.find(name);
  if (a == after.histograms.end()) return 0.0;
  const auto b = before.histograms.find(name);
  const auto& bounds = a->second.upper_bounds;
  std::vector<double> counts(a->second.buckets.size());
  double total = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::uint64_t prior = b == before.histograms.end() ? 0 : b->second.buckets[i];
    counts[i] = static_cast<double>(a->second.buckets[i] - prior);
    total += counts[i];
  }
  if (total == 0.0 || bounds.empty()) return 0.0;
  const double target = q * total;
  double seen = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0.0 || seen + counts[i] < target) {
      seen += counts[i];
      continue;
    }
    if (i >= bounds.size()) return bounds.back();
    const double hi = bounds[i];
    const double lo = i == 0 ? hi / 4.0 : bounds[i - 1];
    const double frac = (target - seen) / counts[i];
    return lo * std::pow(hi / lo, frac);
  }
  return bounds.back();
}

namespace {

bool is_worker_metric(const std::string& name, const std::string& suffix) {
  return name.rfind("worker.pid", 0) == 0 && name.size() > suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0 &&
         name[name.size() - suffix.size() - 1] == '.';
}

}  // namespace

std::uint64_t RegistryDelta::worker_counter(const std::string& suffix) const {
  std::uint64_t total = 0;
  for (const auto& [name, value] : after.counters) {
    if (is_worker_metric(name, suffix)) total += value - before.counter_or(name);
  }
  return total;
}

double RegistryDelta::worker_histogram_sum(const std::string& suffix) const {
  const std::string key = suffix + ".sum";
  double total = 0.0;
  for (const auto& [name, value] : after.gauges) {
    if (is_worker_metric(name, key)) total += value - before.gauge_or(name);
  }
  return total;
}

// ---- machine ------------------------------------------------------------------------

namespace {

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Size of the highest-level data/unified cache of cpu0, in MiB.
double llc_mib() {
  double best_level = 0.0;
  double size_kib = 0.0;
  for (int index = 0; index < 8; ++index) {
    const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    std::ifstream level_file(dir + "/level");
    std::ifstream size_file(dir + "/size");
    std::ifstream type_file(dir + "/type");
    double level = 0.0;
    std::string size;
    std::string type;
    if (!(level_file >> level) || !(size_file >> size) || !(type_file >> type)) continue;
    if (type == "Instruction" || level < best_level) continue;
    double kib = std::atof(size.c_str());
    if (size.back() == 'M') kib *= 1024.0;
    best_level = level;
    size_kib = kib;
  }
  return size_kib / 1024.0;
}

double mem_available_mib() {
  std::ifstream meminfo("/proc/meminfo");
  std::string line;
  while (std::getline(meminfo, line)) {
    if (line.rfind("MemAvailable:", 0) == 0) return std::atof(line.c_str() + 13) / 1024.0;
  }
  return 0.0;
}

double simd_lanes(const std::string& isa) {
  if (isa == "avx512") return 8;
  if (isa == "avx2") return 4;
  return 1;
}

}  // namespace

Machine measure_machine() {
  Machine m;
  m.nproc = std::max(1u, std::thread::hardware_concurrency());
  m.cpu_model = cpu_model();
  m.llc_mib = llc_mib();
  m.simd = mg::linalg::simd::isa_name();
  m.simd_lanes = simd_lanes(m.simd);

  const double wanted_mib = std::max(64.0, 4.0 * m.llc_mib);
  m.triad_array_mib = std::min(wanted_mib, mem_available_mib() / 9.0);
  const std::size_t n = static_cast<std::size_t>(m.triad_array_mib * 1024.0 * 1024.0 / 8.0);
  if (n == 0) return m;
  std::vector<double> a(n, 0.0);
  std::vector<double> b(n, 1.0);
  std::vector<double> c(n, 2.0);
  const double s = 3.0;
  for (int pass = 0; pass < 5; ++pass) {
    const double start = now();
    double* __restrict pa = a.data();
    const double* __restrict pb = b.data();
    const double* __restrict pc = c.data();
    for (std::size_t i = 0; i < n; ++i) pa[i] = pb[i] + s * pc[i];
    const double seconds = now() - start;
    m.triad_bytes_per_s =
        std::max(m.triad_bytes_per_s, 3.0 * 8.0 * static_cast<double>(n) / seconds);
  }
  if (a[n / 2] != 7.0) m.triad_bytes_per_s = 0.0;  // keeps the loop observable
  return m;
}

void put_machine(Outcome& out, const Machine& m) {
  out.put("machine.nproc", m.nproc, "count");
  out.put("machine.llc_mib", m.llc_mib, "MiB");
  out.put("machine.simd_lanes", m.simd_lanes, "count");
  out.put("grid.triad_array_mib", m.triad_array_mib, "MiB");
  out.put("grid.triad_bytes_per_s", m.triad_bytes_per_s, "B/s");
}

void write_machine(obs::JsonWriter& json, const Machine& m) {
  json.begin_object();
  json.kv("nproc", static_cast<std::uint64_t>(m.nproc)).kv("cpu_model", m.cpu_model);
  json.kv("compiler", SGBENCH_COMPILER).kv("build_type", SGBENCH_BUILD_TYPE);
  json.kv("simd", m.simd).kv("llc_mib", m.llc_mib);
  json.kv("triad_array_mib", m.triad_array_mib).kv("triad_bytes_per_s", m.triad_bytes_per_s);
  json.kv("triad_arrays_at_least_4x_llc", m.triad_array_mib >= 4.0 * m.llc_mib);
  json.end_object();
}

}  // namespace sgbench
