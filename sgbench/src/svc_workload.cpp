// svc-tcp: the solve service as a client sees it.  A SolveEngine with 4
// lanes leases 4 forked TCP worker processes through a RemoteEndpoint (the
// program's defaults otherwise: pipeline depth 4, admission 4 running + 16
// queued).  Two phases:
//   loaded  an open loop at a fixed rate; latency runs from each job's due
//           time to the moment the client sees it terminal.  A few level-6
//           jobs are cancelled shortly after submit.
//   burst   a batch the size of the admission capacity is submitted at once
//           and waited out; repeated, the median batch wall is reported.
// The seed fixes the order of the job mix; the mix itself (counts per block
// and per batch) is the same for every seed, so every seed runs equal work.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include "core/remote_worker.hpp"
#include "layers.hpp"
#include "net/remote.hpp"
#include "svc/engine.hpp"
#include "workloads.hpp"

namespace sgbench {
namespace {

namespace mgt = mg::transport;
namespace svc = mg::svc;
namespace net = mg::net;

constexpr std::size_t kWorkers = 4;  ///< TCP worker processes = engine lanes
/// Fleet starts at the head of every round (the last one serves the round).
constexpr int kStartsPerRound = 3;
/// Loaded-phase rate: about a third of the burst capacity (50-75 jobs/s) on
/// the 4-core machine this benchmark was sized on.  That machine's speed
/// drifts by 10-30 % from minute to minute; at 30-40 jobs/s the drift
/// pushed it into saturation (admission rejections) and queueing amplified
/// it, so latency did not repeat from run to run.
constexpr double kRate = 20.0;
/// Loaded mix per block of 50 jobs: 10 heavy, 1 cancelled, the rest light —
/// the burst batch's 4:1 light:heavy ratio, so p50 falls inside the light
/// jobs and p90 inside the heavy ones rather than on the edge between them.
/// A cancel can waste up to about one lane-second on in-flight grids, so
/// cancels stay rare enough to keep the phase below saturation.
constexpr std::size_t kBlock = 50;
constexpr std::size_t kHeavyPerBlock = 10;
constexpr std::size_t kCancelPerBlock = 1;
/// The run is split into rounds of (fleet starts, 2 loaded blocks, 5 bursts,
/// 1 serial batch), so every metric samples the machine across the whole
/// run rather than in one window of it.
constexpr double kRoundSeconds = 10.0;
constexpr std::size_t kBlocksPerRound = 2;
constexpr std::size_t kBurstsPerRound = 5;
constexpr double kCancelDelay = 0.005;
/// Burst batch = the default admission capacity (4 running + 16 queued).
constexpr std::size_t kBurstLight = 16;
constexpr std::size_t kBurstHeavy = 4;
/// A job whose level the engine must reject (self-test injection).
constexpr int kInvalidLevel = 99;
constexpr double kDrainSeconds = 60.0;

struct Levels {
  int light;
  int heavy;
  int cancel;
};

Levels job_levels(const Args& args) {
  const int base = args.level >= 0 ? args.level : 4;
  return {base, base + 1, base + 2};
}

mgt::ProgramConfig program_config(int level) {
  mgt::ProgramConfig config;
  config.root = 2;
  config.level = level;
  config.le_tol = 1e-3;
  return config;
}

svc::JobSpec job_spec(int level, const std::string& tag) {
  svc::JobSpec spec;
  spec.root = 2;
  spec.level = level;
  spec.le_tol = 1e-3;
  spec.tag = tag;
  return spec;
}

/// solve_sequential of one job level: the bit-identity reference of every
/// Done job at that level, computed before any timed phase.
struct Reference {
  int level = 0;
  std::vector<double> nodes;
};

Reference reference(int level, Outcome& out) {
  Reference r;
  r.level = level;
  const mgt::ProgramConfig config = program_config(level);
  out.attempt();
  try {
    mgt::SolveResult s = mgt::solve_sequential(config);
    const ErrorNorms e = error_norms(s.combined, config.kernel.problem, config.kernel.t1);
    if (!e.within()) {
      out.fail("reference level " + std::to_string(level) + " error beyond tolerance");
    }
    r.nodes = std::move(s.combined.data());
  } catch (const std::exception& e) {
    out.fail(std::string("reference solve threw: ") + e.what());
  }
  return r;
}

/// The TCP fleet: forked workers, the endpoint leasing them, the engine.
/// start() must run while the process has no other threads (fork).
class Fleet {
 public:
  Fleet() = default;
  ~Fleet() { stop(); }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  bool start() {
    net::TcpListener listener("127.0.0.1", 0);
    const std::string host = listener.host();
    const std::uint16_t port = listener.port();
    std::fflush(stdout);
    std::fflush(stderr);
    pids_ = net::fork_worker_processes(kWorkers, [&listener, host, port] {
      listener.close();
      return mg::mw::run_subsolve_worker(host, port);
    });
    endpoint_ = std::make_unique<net::RemoteEndpoint>(std::move(listener));
    if (!endpoint_->wait_for_workers(kWorkers, std::chrono::milliseconds(15'000))) return false;
    svc::EngineConfig config;
    config.lanes = kWorkers;
    config.remote = endpoint_.get();
    engine_ = std::make_unique<svc::SolveEngine>(config);
    return true;
  }

  void stop() {
    if (engine_) engine_->shutdown();
    engine_.reset();
    if (endpoint_) endpoint_->shutdown();
    endpoint_.reset();
    if (!pids_.empty()) net::wait_worker_processes(pids_);
    pids_.clear();
  }

  svc::SolveEngine& engine() { return *engine_; }
  net::RemoteEndpoint& endpoint() { return *endpoint_; }

 private:
  std::vector<int> pids_;
  std::unique_ptr<net::RemoteEndpoint> endpoint_;
  std::unique_ptr<svc::SolveEngine> engine_;
};

/// One loaded-phase job: its plan, then what the generator and the
/// collector observed (each field is written by one thread only).
struct LoadedJob {
  int level = 0;
  bool cancel = false;
  double due = 0.0;
  // generator
  std::uint64_t id = 0;
  bool accepted = false;
  double submit_begin = 0.0;
  double submitted = 0.0;
  double cancel_at = 0.0;
  // collector
  double terminal = 0.0;
  svc::JobStatusInfo status;
};

std::vector<LoadedJob> loaded_plan(std::size_t n, const Levels& levels, std::mt19937_64& rng) {
  std::vector<LoadedJob> plan;
  for (std::size_t first = 0; first < n; first += kBlock) {
    std::vector<LoadedJob> block(kBlock);
    for (std::size_t i = 0; i < kBlock; ++i) {
      block[i].level = i < kHeavyPerBlock ? levels.heavy : levels.light;
      if (i >= kHeavyPerBlock && i < kHeavyPerBlock + kCancelPerBlock) {
        block[i].level = levels.cancel;
        block[i].cancel = true;
      }
    }
    std::shuffle(block.begin(), block.end(), rng);
    plan.insert(plan.end(), block.begin(), block.end());
  }
  for (std::size_t i = 0; i < plan.size(); ++i) plan[i].due = static_cast<double>(i) / kRate;
  return plan;
}

struct LoadedResult {
  std::vector<LoadedJob> jobs;
  std::vector<double> busy_samples;  ///< busy_lanes() / lanes, sampled by the collector
};

void sleep_until(double t) {
  const double wait = t - now();
  if (wait > 0.0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
}

/// Runs the open loop: a generator thread submits at due times (and cancels
/// the cancel-targets kCancelDelay after their submit); a collector thread
/// polls the engine and stamps the moment each job is seen terminal.
LoadedResult run_loaded(svc::SolveEngine& engine, std::vector<LoadedJob> plan) {
  LoadedResult result;
  std::mutex watch_mutex;
  std::vector<std::size_t> watching;  // guarded by watch_mutex
  std::atomic<bool> generator_done{false};
  const double t0 = now() + 0.05;
  for (LoadedJob& j : plan) j.due += t0;

  std::thread generator([&] {
    std::deque<std::size_t> cancels;
    std::size_t next = 0;
    while (next < plan.size() || !cancels.empty()) {
      const bool do_cancel =
          !cancels.empty() &&
          (next >= plan.size() || plan[cancels.front()].submitted + kCancelDelay <= plan[next].due);
      if (do_cancel) {
        LoadedJob& j = plan[cancels.front()];
        cancels.pop_front();
        sleep_until(j.submitted + kCancelDelay);
        j.cancel_at = now();
        engine.cancel(j.id);
        continue;
      }
      LoadedJob& j = plan[next];
      sleep_until(j.due);
      j.submit_begin = now();
      const svc::JobTicket ticket =
          engine.submit(job_spec(j.level, "loaded-" + std::to_string(next)));
      j.submitted = now();
      j.accepted = ticket.accepted;
      j.id = ticket.job_id;
      if (j.accepted) {
        if (j.cancel) cancels.push_back(next);
        std::lock_guard<std::mutex> lock(watch_mutex);
        watching.push_back(next);
      }
      ++next;
    }
    generator_done.store(true);
  });

  std::thread collector([&] {
    const double lanes = static_cast<double>(engine.lanes());
    std::size_t last_terminal = engine.terminal_jobs();
    double last_sweep = now();
    for (;;) {
      result.busy_samples.push_back(static_cast<double>(engine.busy_lanes()) / lanes);
      const std::size_t terminal = engine.terminal_jobs();
      if (terminal != last_terminal || now() - last_sweep > 0.002) {
        last_terminal = terminal;
        last_sweep = now();
        std::lock_guard<std::mutex> lock(watch_mutex);
        for (std::size_t k = 0; k < watching.size();) {
          LoadedJob& j = plan[watching[k]];
          const svc::JobStatusInfo st = engine.status(j.id);
          if (svc::is_terminal(st.state)) {
            j.terminal = now();
            j.status = st;
            watching[k] = watching.back();
            watching.pop_back();
          } else {
            ++k;
          }
        }
      }
      {
        std::lock_guard<std::mutex> lock(watch_mutex);
        if (generator_done.load() && watching.empty()) break;
      }
      if (now() > plan.back().due + kDrainSeconds) break;
      std::this_thread::sleep_for(std::chrono::microseconds(250));
    }
  });

  generator.join();
  collector.join();
  result.jobs = std::move(plan);
  return result;
}

/// Checks a Done job's combined field against its reference.
void check_done(Outcome& out, svc::SolveEngine& engine, std::uint64_t id, const Reference& ref,
                bool perturb) {
  svc::JobResultData r = engine.result(id);
  if (perturb) perturb_one_ulp(r.combined_nodes);
  if (!bit_identical(r.combined_nodes, ref.nodes)) {
    out.fail("job " + std::to_string(id) + " (level " + std::to_string(ref.level) +
             ") is not bit-identical to solve_sequential");
  }
}

const Reference& reference_for(const std::vector<Reference>& refs, int level) {
  for (const Reference& r : refs) {
    if (r.level == level) return r;
  }
  return refs.front();
}

struct LoadedFigures {
  std::vector<double> latency_s;  ///< due -> terminal, jobs not cancelled
  std::vector<double> cancel_s;   ///< cancel call -> terminal
  std::vector<double> late_s;     ///< generator lateness per submit
  std::vector<double> queue_wait_s;
  std::vector<double> run_s;
  double cancelled_terms_done = 0.0;
  std::vector<double> busy_samples;
  std::size_t light_done = 0;
  std::size_t heavy_done = 0;
};

/// Gates every loaded job and adds the phase's figures to `f`.
void gate_loaded(const LoadedResult& loaded, svc::SolveEngine& engine,
                 const std::vector<Reference>& refs, const Levels& levels, bool perturb,
                 Outcome& out, SpanLog& spans, LoadedFigures& f) {
  for (const LoadedJob& j : loaded.jobs) {
    out.attempt(j.cancel_at > 0.0 ? 2 : 1);  // the job, and its cancel if one was sent
    f.late_s.push_back(j.submit_begin - j.due);
    if (!j.accepted) {
      out.fail("loaded job (level " + std::to_string(j.level) + ") rejected");
      continue;
    }
    if (j.terminal == 0.0) {
      out.fail("loaded job " + std::to_string(j.id) + " not terminal in time");
      continue;
    }
    const svc::JobState state = j.status.state;
    if (spans.enabled()) {
      const std::uint64_t root = spans.next_id();
      spans.add(
          {"job level " + std::to_string(j.level), "client", j.due, j.terminal, root, 0, j.id});
      spans.add({"submit", "svc", j.submit_begin, j.submitted, spans.next_id(), root, j.id});
      const double run_start = j.submitted + j.status.queue_wait_seconds;
      spans.add({"queue_wait", "svc", j.submitted, run_start, spans.next_id(), root, j.id});
      spans.add({"run", "svc", run_start, run_start + j.status.run_seconds, spans.next_id(), root,
                 j.id});
      if (j.cancel_at > 0.0) {
        spans.add({"cancel_to_terminal", "svc", j.cancel_at, j.terminal, spans.next_id(), root,
                   j.id});
      }
    }
    if (j.cancel) {
      if (j.cancel_at > 0.0 && j.terminal >= j.cancel_at) {
        f.cancel_s.push_back(j.terminal - j.cancel_at);
      }
      if (state == svc::JobState::Cancelled) {
        f.cancelled_terms_done += static_cast<double>(j.status.terms_done);
      } else if (state == svc::JobState::Done) {
        check_done(out, engine, j.id, reference_for(refs, j.level), false);
      } else {
        out.fail("cancelled job " + std::to_string(j.id) + " ended " + svc::to_string(state));
      }
      continue;
    }
    if (state != svc::JobState::Done) {
      out.fail("loaded job " + std::to_string(j.id) + " ended " + svc::to_string(state) + ": " +
               j.status.error);
      continue;
    }
    check_done(out, engine, j.id, reference_for(refs, j.level), perturb);
    perturb = false;
    f.latency_s.push_back(j.terminal - j.due);
    f.queue_wait_s.push_back(j.status.queue_wait_seconds);
    f.run_s.push_back(j.status.run_seconds);
    if (j.level == levels.light) ++f.light_done;
    if (j.level == levels.heavy) ++f.heavy_done;
  }
  f.busy_samples.insert(f.busy_samples.end(), loaded.busy_samples.begin(),
                        loaded.busy_samples.end());
}

/// Waits until every accepted job so far has released its admission slot.
bool wait_slots_free(svc::SolveEngine& engine, std::uint64_t accepted) {
  const double deadline = now() + kDrainSeconds;
  while (engine.terminal_jobs() < accepted) {
    if (now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

struct BatchFigures {
  std::vector<double> burst_s;   ///< batch submitted at once, first submit -> last terminal
  std::vector<double> serial_s;  ///< batch submitted one job at a time
  std::size_t light_done = 0;
  std::size_t heavy_done = 0;
};

/// One batch: kBurstLight light and kBurstHeavy heavy jobs in seeded order.
std::vector<int> batch_levels(const Levels& levels, std::mt19937_64& rng) {
  std::vector<int> batch(kBurstLight, levels.light);
  batch.insert(batch.end(), kBurstHeavy, levels.heavy);
  std::shuffle(batch.begin(), batch.end(), rng);
  return batch;
}

/// Gates a waited-out batch: every job accepted, Done and bit-identical.
/// Returns whether all passed.
bool gate_batch(svc::SolveEngine& engine, const std::vector<int>& batch,
                const std::vector<std::uint64_t>& ids, const std::vector<Reference>& refs,
                const Levels& levels, Outcome& out, BatchFigures& f) {
  out.attempt(batch.size());
  bool ok = ids.size() == batch.size();
  if (!ok) out.fail("batch stopped after a failed job");
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] == 0) {
      out.fail("batch job rejected");
      ok = false;
      continue;
    }
    const svc::JobStatusInfo st = engine.status(ids[i]);
    if (st.state != svc::JobState::Done) {
      out.fail("batch job " + std::to_string(ids[i]) + " ended " + svc::to_string(st.state));
      ok = false;
      continue;
    }
    check_done(out, engine, ids[i], reference_for(refs, batch[i]), false);
    if (batch[i] == levels.light) ++f.light_done;
    if (batch[i] == levels.heavy) ++f.heavy_done;
  }
  return ok;
}

/// Submits `batches` admission-capacity batches, each at once and waited
/// out before the next, and adds their walls to `f`.
void run_bursts(svc::SolveEngine& engine, std::size_t batches, const Levels& levels,
                const std::vector<Reference>& refs, std::mt19937_64& rng, Outcome& out,
                SpanLog& spans, BatchFigures& f) {
  for (std::size_t b = 0; b < batches; ++b) {
    if (!wait_slots_free(engine, engine.counters().accepted)) {
      out.fail("engine did not release its admission slots");
      return;
    }
    const std::vector<int> batch = batch_levels(levels, rng);
    std::vector<std::uint64_t> ids;
    const Scope burst(spans, "burst", "client");
    const double t0 = now();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const Scope s(spans, "submit", "svc", burst.id());
      const svc::JobTicket ticket = engine.submit(job_spec(batch[i], "burst-" + std::to_string(i)));
      ids.push_back(ticket.accepted ? ticket.job_id : 0);
    }
    {
      const Scope s(spans, "wait_terminal", "svc", burst.id());
      for (const std::uint64_t id : ids) {
        if (id != 0) engine.wait_terminal(id, std::chrono::milliseconds(60'000));
      }
    }
    const double wall = now() - t0;
    if (gate_batch(engine, batch, ids, refs, levels, out, f)) f.burst_s.push_back(wall);
  }
}

/// The service's sequential time: one batch submitted one job at a time,
/// each waited out before the next (a closed loop, one job in flight).
void run_serial(svc::SolveEngine& engine, const Levels& levels, const std::vector<Reference>& refs,
                std::mt19937_64& rng, Outcome& out, SpanLog& spans, BatchFigures& f) {
  if (!wait_slots_free(engine, engine.counters().accepted)) {
    out.fail("engine did not release its admission slots");
    return;
  }
  const std::vector<int> batch = batch_levels(levels, rng);
  std::vector<std::uint64_t> ids;
  const Scope serial(spans, "serial batch", "client");
  const double t0 = now();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Scope s(spans, "job", "svc", serial.id());
    const svc::JobTicket ticket = engine.submit(job_spec(batch[i], "serial-" + std::to_string(i)));
    ids.push_back(ticket.accepted ? ticket.job_id : 0);
    if (!ticket.accepted ||
        !engine.wait_terminal(ticket.job_id, std::chrono::milliseconds(60'000))) {
      break;
    }
  }
  const double wall = now() - t0;
  if (gate_batch(engine, batch, ids, refs, levels, out, f)) f.serial_s.push_back(wall);
}

struct Phases {
  std::vector<double> setup_s;
  LoadedFigures loaded;
  BatchFigures batch;
  // Fleet counters summed over the rounds (each round has a fresh fleet).
  std::uint64_t tasks_executed = 0;
  std::uint64_t task_retries = 0;
  std::uint64_t remote_fallbacks = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t dispatch_stall_micros = 0;
  std::uint64_t round_trips_failed = 0;
};

/// Runs `rounds` rounds.  Fleet starts fork, so each happens while the
/// process has no other threads: the previous round's fleet is stopped and
/// its generator and collector joined.
Phases run_rounds(std::size_t rounds, const Levels& levels, const std::vector<Reference>& refs,
                  std::mt19937_64& rng, const Args& args, Outcome& out, SpanLog& spans) {
  Phases p;
  Fleet fleet;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (int i = 0; i < kStartsPerRound; ++i) {
      fleet.stop();
      const double start = now();
      if (!fleet.start()) {
        out.attempt();
        out.fail("TCP workers did not connect");
        return p;
      }
      p.setup_s.push_back(now() - start);
    }
    // Whole blocks, so every seed runs the same mix.
    std::vector<LoadedJob> plan = loaded_plan(kBlocksPerRound * kBlock, levels, rng);
    if (args.inject == Inject::Reject && round == 0) plan.front().level = kInvalidLevel;
    const LoadedResult loaded = run_loaded(fleet.engine(), std::move(plan));
    gate_loaded(loaded, fleet.engine(), refs, levels, args.inject == Inject::Ulp && round == 0,
                out, spans, p.loaded);
    run_bursts(fleet.engine(), kBurstsPerRound, levels, refs, rng, out, spans, p.batch);
    run_serial(fleet.engine(), levels, refs, rng, out, spans, p.batch);

    const svc::EngineCounters e = fleet.engine().counters();
    const net::RemoteCounters n = fleet.endpoint().counters();
    p.tasks_executed += e.tasks_executed;
    p.task_retries += e.task_retries;
    p.remote_fallbacks += e.remote_fallbacks;
    p.bytes_sent += n.bytes_sent;
    p.bytes_received += n.bytes_received;
    p.frames_sent += n.frames_sent;
    p.dispatch_stall_micros += n.dispatch_stall_micros;
    p.round_trips_failed += n.round_trips_failed;
    fleet.stop();
  }
  return p;
}

double burst_rate(const BatchFigures& b) {
  std::vector<double> rates;
  for (const double w : b.burst_s) {
    rates.push_back(static_cast<double>(kBurstLight + kBurstHeavy) / w);
  }
  return median(rates);
}

}  // namespace

void run_svc_tcp(const Args& args, Outcome& out, SpanLog& spans) {
  const Levels levels = job_levels(args);
  std::mt19937_64 rng(args.seed);

  // References first: single-threaded, before any fork.
  const std::vector<Reference> refs = {reference(levels.light, out), reference(levels.heavy, out),
                                       reference(levels.cancel, out)};
  std::vector<Composed> composed;
  if (args.trace) {
    for (const int level : {levels.light, levels.heavy}) {
      composed.push_back(compose_sequential(program_config(level), spans, 0));
    }
  }

  // Untraced runs spend the budget once; traced runs spend half of it
  // untraced (the overhead baseline) and half traced.
  const std::size_t all_rounds =
      std::max<std::size_t>(1, static_cast<std::size_t>(args.seconds / kRoundSeconds + 0.5));
  const std::size_t rounds = args.trace ? std::max<std::size_t>(1, all_rounds / 2) : all_rounds;
  const Phases untraced = run_rounds(rounds, levels, refs, rng, args, out, spans);

  if (!args.trace) {
    std::printf("svc-tcp: %zu loaded jobs, %zu bursts; p50 %.4f s p90 %.4f s; %.1f jobs/s\n",
                untraced.loaded.latency_s.size(), untraced.batch.burst_s.size(),
                median(untraced.loaded.latency_s), quantile(untraced.loaded.latency_s, 0.9),
                burst_rate(untraced.batch));
    out.put("setup_s", median(untraced.setup_s), "s");
    out.put("seq_solve_s", median(untraced.batch.serial_s), "s");
    out.put("solve_s", median(untraced.batch.burst_s), "s");
    out.put("peak_rss_mb", peak_rss_mb(), "MB");
    out.put("svc_p50_s", median(untraced.loaded.latency_s), "s");
    out.put("svc_p90_s", quantile(untraced.loaded.latency_s, 0.9), "s");
    out.put("svc_jobs_per_s", burst_rate(untraced.batch), "1/s");
    return;
  }

  spans.enable();
  RegistryDelta registry;
  registry.before = obs::registry().snapshot();
  const Phases traced = run_rounds(rounds, levels, refs, rng, args, out, spans);
  registry.after = obs::registry().snapshot();

  CodecTiming codec;
  {
    std::vector<mg::mw::WorkItem> work;
    std::vector<mg::mw::ResultItem> results;
    for (const Composed& c : composed) {
      work.insert(work.end(), c.work.begin(), c.work.end());
      results.insert(results.end(), c.results.begin(), c.results.end());
    }
    codec = time_codec(work, results, 0.1);
  }
  const Machine machine = measure_machine();

  const double light_jobs = static_cast<double>(traced.loaded.light_done + traced.batch.light_done);
  const double heavy_jobs = static_cast<double>(traced.loaded.heavy_done + traced.batch.heavy_done);
  put_composed_layers(out, {&composed[0], &composed[1]}, {light_jobs, heavy_jobs});
  // Subsolves ran in the worker processes: their merged telemetry gives the
  // measured linalg and transport times (the counts above stay computed
  // from the references, so they repeat exactly).
  out.put("transport.subsolve_s", registry.worker_histogram_sum("transport.subsolve_seconds"), "s");
  out.put("linalg.assemble_s", registry.worker_histogram_sum("linalg.stage_assemble_seconds"), "s");
  out.put("linalg.factor_s", registry.worker_histogram_sum("linalg.stage_factor_seconds"), "s");
  out.put("linalg.stage_solve_s", registry.worker_histogram_sum("linalg.stage_solve_seconds"), "s");
  const double hits = static_cast<double>(registry.worker_counter("linalg.stage_cache.hits"));
  const double lookups = hits + static_cast<double>(
                                    registry.worker_counter("linalg.stage_cache.misses") +
                                    registry.worker_counter("linalg.stage_cache.refreshes"));
  out.put("linalg.cache_hit_rate", lookups > 0.0 ? hits / lookups : 0.0, "ratio");

  double combine_s = 0.0;
  double bytes = 0.0;
  const double weights[2] = {light_jobs, heavy_jobs};
  for (std::size_t i = 0; i < 2; ++i) {
    combine_s += weights[i] * composed[i].combine_s;
    bytes += weights[i] * combine_bytes(composed[i].grids.size(),
                                        mg::grid::finest_grid(2, refs[i].level));
  }
  out.put("grid.combine_s", combine_s, "s");
  out.put("grid.combine_bytes", bytes, "B");
  out.put("grid.combine_bw_share",
          combine_s > 0.0 && machine.triad_bytes_per_s > 0.0
              ? bytes / combine_s / machine.triad_bytes_per_s
              : 0.0,
          "ratio");
  out.put("core.marshal_encode_us", codec.encode_us, "us");
  out.put("core.marshal_decode_us", codec.decode_us, "us");

  out.put("net.round_trip_p50_s", registry.histogram_quantile("net.round_trip_seconds", 0.5), "s");
  out.put("net.round_trip_p90_s", registry.histogram_quantile("net.round_trip_seconds", 0.9), "s");
  out.put("net.bytes_sent", static_cast<double>(traced.bytes_sent), "B");
  out.put("net.bytes_received", static_cast<double>(traced.bytes_received), "B");
  out.put("net.frames_sent", static_cast<double>(traced.frames_sent), "count");
  out.put("net.dispatch_stall_s", static_cast<double>(traced.dispatch_stall_micros) / 1e6, "s");
  out.put("net.round_trips_failed", static_cast<double>(traced.round_trips_failed), "count");

  const LoadedFigures& lf = traced.loaded;
  out.put("svc.queue_wait_p50_s", median(lf.queue_wait_s), "s");
  out.put("svc.run_p50_s", median(lf.run_s), "s");
  double busy = 0.0;
  for (const double b : lf.busy_samples) busy += b;
  out.put("svc.lane_busy_share",
          lf.busy_samples.empty() ? 0.0 : busy / static_cast<double>(lf.busy_samples.size()),
          "ratio");
  out.put("svc.tasks_executed", static_cast<double>(traced.tasks_executed), "count");
  out.put("svc.task_retries", static_cast<double>(traced.task_retries), "count");
  out.put("svc.remote_fallbacks", static_cast<double>(traced.remote_fallbacks), "count");
  out.put("svc.cancelled_terms_done", lf.cancelled_terms_done, "count");
  out.put("svc.gen_late_p90_ms", quantile(lf.late_s, 0.9) * 1e3, "ms");
  out.put("svc.cancel_p50_s", median(lf.cancel_s), "s");
  const double untraced_wall = median(untraced.batch.burst_s);
  out.put("bench.trace_overhead_share",
          untraced_wall > 0.0 ? median(traced.batch.burst_s) / untraced_wall - 1.0 : 0.0, "ratio");
  put_machine(out, machine);
  std::printf("svc-tcp traced: p50 %.4f s p90 %.4f s; cancel p50 %.4f s over %zu cancels; "
              "%.1f jobs/s\n",
              median(lf.latency_s), quantile(lf.latency_s, 0.9), median(lf.cancel_s),
              lf.cancel_s.size(), burst_rate(traced.batch));

  out.detail.begin_object();
  out.detail.key("machine");
  write_machine(out.detail, machine);
  for (std::size_t i = 0; i < composed.size(); ++i) {
    out.detail.key("per_grid_level_" + std::to_string(refs[i].level));
    write_grid_budget(out.detail, composed[i]);
  }
  out.detail.end_object();
}

}  // namespace sgbench
