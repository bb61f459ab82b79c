#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/network_model.hpp"

namespace prema::sim {
namespace {

using util::TimeCategory;

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) q.schedule(1.0, [&order, i] { order.push_back(i); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelSuppressesEvent) {
  EventQueue q;
  int fired = 0;
  const EventId a = q.schedule(1.0, [&] { ++fired; });
  q.schedule(2.0, [&] { ++fired; });
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.run_next();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelOfFiredEventIsHarmless) {
  EventQueue q;
  const EventId a = q.schedule(1.0, [] {});
  q.run_next();
  q.cancel(a);  // already fired
  q.cancel(kNoEvent);
  EXPECT_TRUE(q.empty());
  // A fresh event still works and counts correctly.
  q.schedule(2.0, [] {});
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  std::vector<double> times;
  q.schedule(1.0, [&] {
    times.push_back(1.0);
    q.schedule(1.5, [&] { times.push_back(1.5); });
  });
  while (!q.empty()) times.push_back(q.next_time()), q.run_next();
  // next_time observed before each run: 1.0, then 1.5
  EXPECT_EQ(times.size(), 4u);
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId a = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  q.cancel(a);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
}

TEST(EventQueue, ReusedSlotIgnoresTheCancelledHandle) {
  EventQueue q;
  int a_fired = 0;
  int b_fired = 0;
  const EventId a = q.schedule(1.0, [&] { ++a_fired; });
  q.cancel(a);
  const EventId b = q.schedule(2.0, [&] { ++b_fired; });
  ASSERT_NE(a, b);
  // Ids carry their slot in the low 24 bits: B took over A's freed slot.
  ASSERT_EQ(a & 0xFFFFFFu, b & 0xFFFFFFu);
  q.cancel(a);  // A's handle must not reach B through the shared slot
  EXPECT_EQ(q.size(), 1u);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);  // A's stale key at 1.0 is skipped
  while (!q.empty()) q.run_next();
  EXPECT_EQ(a_fired, 0);
  EXPECT_EQ(b_fired, 1);
  q.cancel(b);  // fired: harmless
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, MatchesReferenceModelUnderRandomOps) {
  // Reference: a multimap keeps equal times in insertion order, which is the
  // queue's documented tie-break.
  EventQueue q;
  std::multimap<double, std::uint64_t> ref;  // time -> sequence
  std::vector<std::pair<EventId, std::pair<double, std::uint64_t>>> issued;
  std::mt19937_64 rng(20031);
  std::uint64_t fired = ~std::uint64_t{0};
  const auto fire_and_check = [&](bool via_pop) {
    const auto head = ref.begin();
    ASSERT_DOUBLE_EQ(q.next_time(), head->first);
    if (via_pop) {
      auto [t, fn] = q.pop();
      ASSERT_DOUBLE_EQ(t, head->first);
      fn();
    } else {
      ASSERT_DOUBLE_EQ(q.run_next(), head->first);
    }
    ASSERT_EQ(fired, head->second);
    ref.erase(head);
  };
  for (std::uint64_t seq = 0, op = 0; op < 10000; ++op) {
    const auto r = rng() % 10;
    if (r < 5) {
      const auto t = static_cast<double>(rng() % 8);  // many equal times
      const EventId id = q.schedule(t, [&fired, seq] { fired = seq; });
      issued.push_back({id, {t, seq}});
      ref.emplace(t, seq);
      ++seq;
    } else if (r < 7) {
      if (issued.empty()) continue;
      // Live, fired or already cancelled: only a live one may disappear.
      const auto& [id, key] = issued[rng() % issued.size()];
      q.cancel(id);
      for (auto [it, end] = ref.equal_range(key.first); it != end; ++it) {
        if (it->second == key.second) {
          ref.erase(it);
          break;
        }
      }
    } else if (!ref.empty()) {
      ASSERT_NO_FATAL_FAILURE(fire_and_check(r == 9));
    }
    ASSERT_EQ(q.size(), ref.size());
    ASSERT_EQ(q.empty(), ref.empty());
  }
  while (!ref.empty()) ASSERT_NO_FATAL_FAILURE(fire_and_check(false));
  EXPECT_TRUE(q.empty());
}

TEST(NetworkModel, CostsScaleWithSize) {
  NetworkModel net;
  EXPECT_GT(net.transfer_time(100000), net.transfer_time(100));
  EXPECT_GT(net.send_cpu(100000), net.send_cpu(0));
  EXPECT_GT(net.recv_cpu(100000), net.recv_cpu(0));
  // Latency floor: even an empty message takes at least the wire latency.
  EXPECT_GE(net.transfer_time(0), net.latency_s);
}

TEST(Engine, ComputeSecondsConversion) {
  MachineConfig cfg;
  cfg.mflops = 333.0;
  EXPECT_NEAR(cfg.compute_seconds(500.0), 1.5015, 1e-3);
}

TEST(Engine, ProcAdvanceChargesLedger) {
  MachineConfig cfg;
  cfg.nprocs = 2;
  Engine eng(cfg);
  eng.proc(0).advance(TimeCategory::kComputation, 2.5);
  EXPECT_DOUBLE_EQ(eng.proc(0).clock(), 2.5);
  EXPECT_DOUBLE_EQ(eng.proc(0).ledger().get(TimeCategory::kComputation), 2.5);
  EXPECT_DOUBLE_EQ(eng.proc(1).clock(), 0.0);
}

TEST(Engine, CatchUpChargesGapOnce) {
  MachineConfig cfg;
  cfg.nprocs = 1;
  Engine eng(cfg);
  eng.proc(0).catch_up(3.0);
  eng.proc(0).catch_up(2.0);  // already past; no-op
  EXPECT_DOUBLE_EQ(eng.proc(0).clock(), 3.0);
  EXPECT_DOUBLE_EQ(eng.proc(0).ledger().get(TimeCategory::kIdle), 3.0);
}

TEST(Engine, CatchUpHonoursWaitCategory) {
  MachineConfig cfg;
  cfg.nprocs = 1;
  Engine eng(cfg);
  eng.proc(0).catch_up(1.0, TimeCategory::kSynchronization);
  EXPECT_DOUBLE_EQ(eng.proc(0).ledger().get(TimeCategory::kSynchronization), 1.0);
  EXPECT_DOUBLE_EQ(eng.proc(0).ledger().get(TimeCategory::kIdle), 0.0);
}

TEST(Engine, RunDrainsQueueAndReportsStats) {
  MachineConfig c1; c1.nprocs = 1; Engine eng(c1);
  int fired = 0;
  eng.at(1.0, [&] { ++fired; });
  eng.after(2.0, [&] { ++fired; });
  const RunStats stats = eng.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(stats.events, 2u);
  EXPECT_DOUBLE_EQ(stats.end_time, 2.0);
  EXPECT_FALSE(stats.hit_event_limit);
}

TEST(Engine, EventLimitStopsRunawayLoop) {
  MachineConfig c1; c1.nprocs = 1; Engine eng(c1);
  std::function<void()> loop = [&] { eng.after(1.0, loop); };
  eng.at(0.0, loop);
  const RunStats stats = eng.run(/*max_events=*/100);
  EXPECT_TRUE(stats.hit_event_limit);
  EXPECT_EQ(stats.events, 100u);
}

TEST(Engine, TimeLimitStopsRun) {
  MachineConfig c1; c1.nprocs = 1; Engine eng(c1);
  std::function<void()> loop = [&] { eng.after(1.0, loop); };
  eng.at(0.0, loop);
  const RunStats stats = eng.run(UINT64_MAX, /*max_time=*/10.0);
  EXPECT_TRUE(stats.hit_time_limit);
  EXPECT_LE(stats.end_time, 10.0);
}

TEST(Engine, PerProcRngStreamsAreIndependent) {
  MachineConfig cfg;
  cfg.nprocs = 2;
  cfg.seed = 42;
  Engine a(cfg), b(cfg);
  EXPECT_EQ(a.proc(0).rng().next(), b.proc(0).rng().next());
  Engine c(cfg);
  EXPECT_NE(c.proc(0).rng().next(), c.proc(1).rng().next());
}

TEST(EngineDeathTest, PastEventAborts) {
  MachineConfig c1; c1.nprocs = 1; Engine eng(c1);
  eng.at(5.0, [] {});
  eng.run();
  EXPECT_DEATH(eng.at(1.0, [] {}), "past");
}

}  // namespace
}  // namespace prema::sim
