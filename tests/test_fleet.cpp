// Tests for the elastic worker fleet: the seeded ChurnPlan and its spec
// parser, the shared FleetCounters contract, churn applied to the threaded
// pool (protocol level and full solve), the virtual-time elastic simulator
// (determinism + exactly-once completion), the elastic TCP endpoint
// (disrupt-driven churn, soft-deadline speculation, duplicate discard), and the
// worker reconnect failure-budget regression.  The one invariant everything
// here asserts from a different angle: however much the fleet churns, every
// work unit is combined exactly once and results stay bit-identical to the
// fault-free sequential solve.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "cluster/cluster_sim.hpp"
#include "cluster/cost_model.hpp"
#include "core/concurrent_solver.hpp"
#include "core/master.hpp"
#include "core/protocol.hpp"
#include "core/remote_worker.hpp"
#include "core/worker.hpp"
#include "fleet/churn.hpp"
#include "manifold/runtime.hpp"
#include "net/frame.hpp"
#include "net/remote.hpp"
#include "net/socket.hpp"
#include "transport/seq_solver.hpp"

namespace {

using namespace mg;
using namespace std::chrono_literals;
using iwim::Unit;

// ---- ChurnPlan ----------------------------------------------------------------------

TEST(ChurnPlan, ScheduleIsDeterministicSortedAndBounded) {
  fleet::ChurnPlanConfig config;
  config.seed = 7;
  config.joins = 3;
  config.leaves = 2;
  config.crashes = 2;
  config.start_seconds = 0.25;
  config.spread_seconds = 1.5;
  const fleet::ChurnPlan a(config), b(config);
  ASSERT_EQ(a.events().size(), 7u);
  ASSERT_EQ(b.events().size(), 7u);

  std::size_t joins = 0, leaves = 0, crashes = 0;
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    const auto& e = a.events()[i];
    EXPECT_EQ(e.kind, b.events()[i].kind);
    EXPECT_DOUBLE_EQ(e.at_seconds, b.events()[i].at_seconds);
    EXPECT_GE(e.at_seconds, config.start_seconds);
    EXPECT_LT(e.at_seconds, config.start_seconds + config.spread_seconds);
    if (i > 0) {
      EXPECT_GE(e.at_seconds, a.events()[i - 1].at_seconds);
    }
    joins += e.kind == fleet::ChurnEventKind::Join;
    leaves += e.kind == fleet::ChurnEventKind::Leave;
    crashes += e.kind == fleet::ChurnEventKind::Crash;
  }
  EXPECT_EQ(joins, config.joins);
  EXPECT_EQ(leaves, config.leaves);
  EXPECT_EQ(crashes, config.crashes);

  config.seed = 8;
  const fleet::ChurnPlan other(config);
  bool any_differs = false;
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    any_differs = any_differs || a.events()[i].kind != other.events()[i].kind ||
                  a.events()[i].at_seconds != other.events()[i].at_seconds;
  }
  EXPECT_TRUE(any_differs) << "a different seed must produce a different schedule";
}

TEST(ChurnPlan, SpecParsingRoundTripsAndRejectsGarbage) {
  const auto config =
      fleet::parse_churn_spec("seed=7,joins=2,leaves=1,crashes=1,start=0.05,spread=0.4");
  EXPECT_EQ(config.seed, 7u);
  EXPECT_EQ(config.joins, 2u);
  EXPECT_EQ(config.leaves, 1u);
  EXPECT_EQ(config.crashes, 1u);
  EXPECT_DOUBLE_EQ(config.start_seconds, 0.05);
  EXPECT_DOUBLE_EQ(config.spread_seconds, 0.4);
  EXPECT_TRUE(config.any());
  EXPECT_FALSE(fleet::parse_churn_spec("").any());
  EXPECT_THROW(fleet::parse_churn_spec("bogus_key=1"), std::invalid_argument);
  EXPECT_THROW(fleet::parse_churn_spec("joins"), std::invalid_argument);
  EXPECT_THROW(fleet::parse_churn_spec("joins=abc"), std::invalid_argument);
}

TEST(FleetCounters, AccumulateAndReportAny) {
  fleet::FleetCounters a;
  EXPECT_FALSE(a.any());
  fleet::FleetCounters b;
  b.joins = 2;
  b.steals = 1;
  b.duplicates = 3;
  a += b;
  a += b;
  EXPECT_EQ(a.joins, 4u);
  EXPECT_EQ(a.steals, 2u);
  EXPECT_EQ(a.duplicates, 6u);
  EXPECT_TRUE(a.any());
}

// ---- the threaded pool under churn ---------------------------------------------------

/// One pool of doubler workers that each hold their unit for `hold`, so a
/// churn schedule inside the hold window always finds running victims.
struct ChurnToyRun {
  std::int64_t total = 0;
  std::size_t abandoned = 0;
  mw::ProtocolStats stats;
};

ChurnToyRun run_churned_pool(std::size_t workers, std::chrono::milliseconds hold,
                             const fleet::ChurnPlanConfig& churn) {
  iwim::Runtime runtime;
  ChurnToyRun run;
  auto master =
      mw::make_master(runtime, "m", [&](mw::MasterApi& api, iwim::ProcessContext&) {
        api.create_pool();
        for (std::size_t k = 0; k < workers; ++k) {
          api.create_worker();
          api.send_work(Unit::of(static_cast<std::int64_t>(k)));
        }
        for (std::size_t k = 0; k < workers; ++k) {
          const Unit unit = api.collect_result();
          if (unit.is<mw::WorkAbandoned>()) {
            ++run.abandoned;
          } else {
            run.total += unit.as<std::int64_t>();
          }
        }
        api.rendezvous();
        api.finished();
      });
  mw::RunOptions options;
  options.retry = fault::RetryPolicy{};
  options.retry->max_attempts = 8;
  options.retry->backoff_initial = 2ms;
  options.churn = churn;
  run.stats = mw::run_main_program(
      runtime, master, mw::make_worker_factory([hold](const Unit& u) {
        std::this_thread::sleep_for(hold);
        return Unit::of(u.as<std::int64_t>() * 2);
      }),
      options);
  runtime.shutdown();
  return run;
}

TEST(ChurnPool, LeaveAndCrashEventsReLeaseWithoutLosingAUnit) {
  fleet::ChurnPlanConfig churn;
  churn.seed = 13;
  churn.leaves = 2;
  churn.crashes = 1;
  churn.start_seconds = 0.01;
  churn.spread_seconds = 0.05;
  // Workers hold their unit well past the churn window, so every event finds
  // a running victim and its unit must be re-leased.
  const ChurnToyRun run = run_churned_pool(8, 150ms, churn);
  EXPECT_EQ(run.abandoned, 0u);
  EXPECT_EQ(run.total, 2 * (7 * 8 / 2));  // 2 * sum(0..7): every unit exactly once
  EXPECT_EQ(run.stats.fleet.leaves, 2u);
  EXPECT_EQ(run.stats.fleet.crashes, 1u);
  EXPECT_EQ(run.stats.fleet.releases, 3u) << "each killed lease re-issued exactly once";
  EXPECT_EQ(run.stats.faults.retries, run.stats.faults.respawns);
}

TEST(ChurnSolve, ThreadsChurnKeepsTheSolveBitExact) {
  transport::ProgramConfig program;
  program.root = 2;
  program.level = 5;
  const auto seq = transport::solve_sequential(program);

  mw::ConcurrentOptions options;
  options.churn = fleet::ChurnPlanConfig{};
  options.churn->seed = 7;
  options.churn->leaves = 2;
  options.churn->crashes = 1;
  options.churn->start_seconds = 0.0;
  options.churn->spread_seconds = 0.05;
  const auto conc = mw::solve_concurrent(program, options);

  // Bit-identity holds whether or not the run outlived the churn window;
  // the event counts are bounded by the plan either way.
  EXPECT_EQ(conc.solve.combined.max_diff(seq.combined), 0.0);
  EXPECT_LE(conc.protocol.fleet.leaves, 2u);
  EXPECT_LE(conc.protocol.fleet.crashes, 1u);
  EXPECT_EQ(conc.protocol.fleet.steals, 0u) << "threads substrate does not steal";
  EXPECT_FALSE(conc.protocol.timed_out);
}

// ---- the virtual-time elastic simulator ----------------------------------------------

TEST(ChurnSim, ElasticRunIsDeterministicAndCompletesEveryTermOnce) {
  const cluster::AthlonCostModel cost;
  const cluster::SimConfig config;
  fleet::ChurnPlanConfig churn;
  churn.seed = 2004;
  churn.joins = 3;
  churn.leaves = 2;
  churn.crashes = 2;
  // The level-8 event horizon (the last term's completion time, before the
  // constant collect/prolongation overheads) is well under a virtual second,
  // so the storm must land very early to fire before the run drains.
  churn.start_seconds = 0.05;
  churn.spread_seconds = 0.2;

  const auto a = cluster::simulate_churn_run(2, 8, 1e-3, cost, config, churn);
  const auto b = cluster::simulate_churn_run(2, 8, 1e-3, cost, config, churn);

  EXPECT_DOUBLE_EQ(a.concurrent_seconds, b.concurrent_seconds);
  EXPECT_EQ(a.completion_order, b.completion_order);
  EXPECT_EQ(a.fleet.joins, b.fleet.joins);
  EXPECT_EQ(a.fleet.releases, b.fleet.releases);

  // Exactly-once completion: the sim's analogue of bit-identity.
  ASSERT_EQ(a.completion_order.size(), a.terms_total);
  std::vector<std::size_t> sorted = a.completion_order;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);

  EXPECT_EQ(a.fleet.joins, churn.joins);
  EXPECT_EQ(a.fleet.leaves + a.fleet.crashes, churn.leaves + churn.crashes);
  EXPECT_GT(a.peak_machines, 0);
  EXPECT_GT(a.weighted_machines, 0.0);
  EXPECT_FALSE(a.machines.times.empty());
}

TEST(ChurnSim, NoChurnDegeneratesToAFixedFleet) {
  const cluster::AthlonCostModel cost;
  const cluster::SimConfig config;
  const auto run =
      cluster::simulate_churn_run(2, 6, 1e-3, cost, config, fleet::ChurnPlanConfig{});
  EXPECT_FALSE(run.fleet.joins || run.fleet.leaves || run.fleet.crashes);
  EXPECT_EQ(run.completion_order.size(), run.terms_total);
  // A fixed fleet's machine series is one flat step: claimed at 0, held to
  // the end.
  EXPECT_EQ(run.peak_machines, run.machines.counts.front());
}

// ---- the elastic TCP endpoint --------------------------------------------------------

/// In-process subsolve workers over loopback (tier-1 stand-in for forked
/// worker processes); they join once the endpoint shuts down.
struct SubsolveWorkers {
  std::vector<std::thread> threads;

  explicit SubsolveWorkers(std::uint16_t port, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      threads.emplace_back([port] { mw::run_subsolve_worker("127.0.0.1", port); });
    }
  }
  ~SubsolveWorkers() {
    for (auto& t : threads) t.join();
  }
};

TEST(ElasticEndpoint, DisruptDrivenChurnKeepsTheSolveBitExact) {
  transport::ProgramConfig program;
  program.root = 2;
  program.level = 3;
  const auto seq = transport::solve_sequential(program);

  net::RemoteEndpoint endpoint(net::TcpListener("127.0.0.1", 0));
  SubsolveWorkers workers(endpoint.port(), 3);
  ASSERT_TRUE(endpoint.wait_for_workers(3, 10s));

  fleet::ChurnPlanConfig churn_config;
  churn_config.seed = 5;
  churn_config.leaves = 1;
  churn_config.crashes = 1;
  churn_config.start_seconds = 0.02;
  churn_config.spread_seconds = 0.2;
  const fleet::ChurnPlan plan(churn_config);
  std::atomic<bool> stop{false};
  std::thread churner([&] { net::drive_churn(endpoint, plan, stop); });

  mw::ConcurrentOptions options;
  options.remote = &endpoint;
  options.retry = fault::RetryPolicy{};
  options.retry->max_attempts = 6;
  options.retry->backoff_initial = 2ms;
  const auto remote = mw::solve_concurrent(program, options);

  stop.store(true);
  churner.join();
  EXPECT_EQ(remote.solve.combined.max_diff(seq.combined), 0.0);
  const net::RemoteCounters c = endpoint.counters();
  EXPECT_EQ(c.fleet_joins, c.accepts) << "every Hello joins the lease set";
  EXPECT_LE(c.fleet_leaves, 1u);
  EXPECT_LE(c.fleet_crashes, 1u);
  endpoint.shutdown();
}

/// A raw fake worker: completes the Hello handshake by hand so the test can
/// hold a lease, answer out of turn, or violate the protocol deliberately.
struct FakeWorker {
  net::Socket sock;
  net::FrameDecoder decoder;

  explicit FakeWorker(std::uint16_t port) {
    sock = net::connect_tcp("127.0.0.1", port, 2000ms);
    EXPECT_TRUE(sock.valid());
    std::uint8_t hello[16] = {};  // pid 0, attempt 0 (bare v1 handshake)
    const auto frame = net::encode_frame(net::FrameType::Hello, 0, hello, sizeof hello);
    EXPECT_TRUE(net::send_all(sock, frame.data(), frame.size()));
  }

  /// Blocks until one frame arrives (the socket stays blocking).
  std::optional<net::Frame> next_frame() {
    std::uint8_t buf[4096];
    for (;;) {
      if (auto f = decoder.next()) return f;
      const std::ptrdiff_t n = sock.recv_some(buf, sizeof buf);
      if (n <= 0) return std::nullopt;
      decoder.feed(buf, static_cast<std::size_t>(n));
    }
  }

  void send_result(std::uint64_t seq, const std::vector<std::uint8_t>& payload) {
    const auto bytes = net::encode_frame(net::FrameType::Result, seq, payload);
    EXPECT_TRUE(net::send_all(sock, bytes.data(), bytes.size()));
  }
};

TEST(ElasticEndpoint, DuplicateResultIsDiscardedAndTheChannelSurvives) {
  net::RemoteEndpointConfig config;
  config.telemetry = false;  // raw payloads: the fake worker speaks v1 frames
  net::RemoteEndpoint endpoint(net::TcpListener("127.0.0.1", 0), config);
  FakeWorker worker(endpoint.port());
  ASSERT_TRUE(endpoint.wait_for_workers(1, 5s));

  auto trip = std::async(std::launch::async, [&] { return endpoint.round_trip({1, 2, 3}); });
  const auto work = worker.next_frame();
  ASSERT_TRUE(work.has_value());
  ASSERT_EQ(work->header.type, net::FrameType::Work);

  // The speculative-loser scenario on one wire: the same lease answered
  // twice.  First Result wins; the echo must be counted and dropped, not
  // treated as a protocol violation.
  worker.send_result(work->header.seq, {9});
  worker.send_result(work->header.seq, {9});
  const auto result = trip.get();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.payload, (std::vector<std::uint8_t>{9}));

  // A second trip over the same channel proves it survived the echo.
  auto again = std::async(std::launch::async, [&] { return endpoint.round_trip({4}); });
  const auto work2 = worker.next_frame();
  ASSERT_TRUE(work2.has_value());
  worker.send_result(work2->header.seq, {8});
  EXPECT_TRUE(again.get().ok);

  const net::RemoteCounters c = endpoint.counters();
  EXPECT_EQ(c.fleet_duplicates, 1u);
  EXPECT_EQ(c.disconnects, 0u);
  EXPECT_EQ(c.round_trips_ok, 2u);
  endpoint.shutdown();
}

TEST(ElasticEndpoint, ResultWithANeverIssuedSeqClosesTheChannel) {
  net::RemoteEndpointConfig config;
  config.telemetry = false;
  net::RemoteEndpoint endpoint(net::TcpListener("127.0.0.1", 0), config);
  FakeWorker worker(endpoint.port());
  ASSERT_TRUE(endpoint.wait_for_workers(1, 5s));

  auto trip = std::async(std::launch::async, [&] { return endpoint.round_trip({1}); });
  const auto work = worker.next_frame();
  ASSERT_TRUE(work.has_value());

  // The dedup ring only forgives seqs the endpoint issued and retired; a seq
  // it never issued is a protocol violation.  The channel closes (the fake
  // worker sees EOF) and the trip it carried fails for the caller to retry.
  worker.send_result(work->header.seq + 1000, {7});
  EXPECT_FALSE(worker.next_frame().has_value());
  const auto result = trip.get();
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("unexpected Result seq"), std::string::npos) << result.error;
  const net::RemoteCounters c = endpoint.counters();
  EXPECT_EQ(c.fleet_duplicates, 0u);
  EXPECT_EQ(c.disconnects, 1u);
  endpoint.shutdown();
}

TEST(ElasticEndpoint, SoftDeadlineCopyWinsWhenTheOriginalCarrierDies) {
  net::RemoteEndpointConfig config;
  config.telemetry = false;
  config.soft_deadline = 50ms;
  net::RemoteEndpoint endpoint(net::TcpListener("127.0.0.1", 0), config);
  FakeWorker slow(endpoint.port());
  ASSERT_TRUE(endpoint.wait_for_workers(1, 5s));

  auto trip = std::async(std::launch::async, [&] { return endpoint.round_trip({1, 2}); });
  const auto original = slow.next_frame();
  ASSERT_TRUE(original.has_value());

  // The slow worker holds its lease past the soft deadline, so a copy goes
  // to the idle second worker under a seq of its own.
  FakeWorker idle(endpoint.port());
  const auto copy = idle.next_frame();
  ASSERT_TRUE(copy.has_value()) << "no speculative copy reached the idle worker";
  ASSERT_EQ(copy->header.type, net::FrameType::Work);
  EXPECT_NE(copy->header.seq, original->header.seq);
  EXPECT_EQ(copy->payload, original->payload);

  // The original carrier dies while the copy is in flight: the copy still
  // carries the trip, so it must not fail.
  slow.sock.close();
  const auto until = std::chrono::steady_clock::now() + 5s;
  while (endpoint.counters().disconnects < 1 && std::chrono::steady_clock::now() < until) {
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_EQ(endpoint.counters().disconnects, 1u);
  EXPECT_EQ(trip.wait_for(50ms), std::future_status::timeout) << "trip failed with its carrier";

  // The copy's Result wins.
  idle.send_result(copy->header.seq, {7});
  const auto result = trip.get();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.payload, (std::vector<std::uint8_t>{7}));

  // A late echo of the original lease is a counted duplicate: it is dropped
  // and the channel survives to carry the next trip.
  idle.send_result(original->header.seq, {1, 2});
  auto again = std::async(std::launch::async, [&] { return endpoint.round_trip({3}); });
  const auto work = idle.next_frame();
  ASSERT_TRUE(work.has_value()) << "the late echo closed the channel";
  idle.send_result(work->header.seq, {4});
  EXPECT_TRUE(again.get().ok);

  const net::RemoteCounters c = endpoint.counters();
  EXPECT_EQ(c.fleet_releases, 1u);
  EXPECT_EQ(c.fleet_duplicates, 1u);
  EXPECT_EQ(c.disconnects, 1u);
  EXPECT_EQ(c.round_trips_failed, 0u);
  endpoint.shutdown();
}

// ---- worker reconnect failure budget (regression) ------------------------------------

/// A TCP server that accepts and immediately RST-closes every connection —
/// the "listener is alive but nobody serves the protocol" failure mode
/// (master crashed, its port recycled by an unrelated process).
struct AcceptAndDropServer {
  net::TcpListener listener{"127.0.0.1", 0};
  std::atomic<bool> stop{false};
  std::thread thread;

  AcceptAndDropServer() {
    // Poll non-blocking: close() cannot wake a thread parked inside a
    // blocking accept(), so the loop must come up for air to see `stop`.
    listener.set_nonblocking(true);
    thread = std::thread([this] {
      while (!stop.load()) {
        net::Socket s = listener.accept();
        if (!s.valid()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          continue;
        }
        const linger lg{1, 0};  // RST on close: the handshake never lands
        ::setsockopt(s.fd(), SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
        s.close();
      }
    });
  }
  ~AcceptAndDropServer() {
    stop.store(true);
    thread.join();
    listener.close();
  }
};

TEST(WorkerLoop, AcceptThenDropBurnsTheFailureBudget) {
  // Regression: the worker loop used to reset its failure budget on any
  // successful TCP connect, so a listener that accepted and dropped every
  // connection kept the worker reconnecting forever.  The budget must only
  // reset once the Hello handshake lands; against a drop-everything server
  // the worker has to give up.
  AcceptAndDropServer server;
  const std::uint16_t port = server.listener.port();
  auto worker = std::async(std::launch::async, [port] {
    net::WorkerLoopOptions options;
    options.max_connect_failures = 4;
    options.reconnect_backoff = 2ms;
    return net::run_worker_loop(
        "127.0.0.1", port,
        [](const std::vector<std::uint8_t>& w) { return w; }, options);
  });
  // RSTs race the Hello send, so the budget burns down over several rounds;
  // the bound is generous but the pre-fix loop never returns at all.
  ASSERT_EQ(worker.wait_for(60s), std::future_status::ready)
      << "worker loop must give up against a drop-everything listener";
  EXPECT_EQ(worker.get(), 0);
}

}  // namespace
