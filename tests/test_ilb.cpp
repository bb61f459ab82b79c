#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "dmcs/node.hpp"
#include "ilb/balancer.hpp"
#include "ilb/policies/cluster.hpp"
#include "ilb/policies/diffusion.hpp"
#include "ilb/policies/gradient.hpp"
#include "ilb/policies/master.hpp"
#include "ilb/policies/multilist.hpp"
#include "ilb/policies/sfc.hpp"
#include "ilb/policies/work_stealing.hpp"
#include "ilb/policy.hpp"
#include "ilb/scheduler.hpp"
#include "mol/mol.hpp"

namespace prema::ilb {
namespace {

mol::Delivery make_delivery(mol::MobilePtr target, double weight,
                            std::uint64_t delivery_no, std::int64_t tagval = 0) {
  mol::Delivery d;
  d.target = target;
  d.handler = 1;
  d.origin = 0;
  d.weight = weight;
  d.delivery_no = delivery_no;
  util::ByteWriter w;
  w.put<std::int64_t>(tagval);
  d.payload = w.take();
  return d;
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

TEST(Scheduler, FifoWithinObject) {
  Scheduler s;
  const mol::MobilePtr a{0, 1};
  s.enqueue(make_delivery(a, 1.0, 0, 10));
  s.enqueue(make_delivery(a, 1.0, 1, 11));
  s.enqueue(make_delivery(a, 1.0, 2, 12));
  EXPECT_EQ(s.queued_units(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    auto d = s.pick();
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->delivery_no, i);
    s.complete();
  }
  EXPECT_FALSE(s.pick().has_value());
}

TEST(Scheduler, RoundRobinAcrossObjects) {
  Scheduler s;
  const mol::MobilePtr a{0, 1}, b{0, 2};
  s.enqueue(make_delivery(a, 1.0, 0));
  s.enqueue(make_delivery(a, 1.0, 1));
  s.enqueue(make_delivery(b, 1.0, 0));
  s.enqueue(make_delivery(b, 1.0, 1));
  std::vector<mol::MobilePtr> order;
  while (auto d = s.pick()) {
    order.push_back(d->target);
    s.complete();
  }
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], a);
  EXPECT_EQ(order[1], b);
  EXPECT_EQ(order[2], a);
  EXPECT_EQ(order[3], b);
}

TEST(Scheduler, LoadTracksWeightsAndCounts) {
  Scheduler s;
  const mol::MobilePtr a{0, 1};
  s.enqueue(make_delivery(a, 2.5, 0));
  s.enqueue(make_delivery(a, 0.5, 1));
  EXPECT_DOUBLE_EQ(s.load(), 3.0);
  EXPECT_EQ(s.queued_units(), 2u);
  (void)s.pick();
  EXPECT_DOUBLE_EQ(s.load(), 0.5);
  s.complete();
}

TEST(Scheduler, TakeQueuedRemovesObject) {
  Scheduler s;
  const mol::MobilePtr a{0, 1}, b{0, 2};
  s.enqueue(make_delivery(a, 1.0, 0));
  s.enqueue(make_delivery(a, 1.0, 1));
  s.enqueue(make_delivery(b, 1.0, 0));
  auto taken = s.take_queued(a);
  EXPECT_EQ(taken.size(), 2u);
  EXPECT_EQ(s.queued_units(), 1u);
  auto d = s.pick();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->target, b);
  s.complete();
  EXPECT_TRUE(s.take_queued(a).empty());
}

TEST(Scheduler, MigratableLoadsExcludeExecutingObject) {
  Scheduler s;
  const mol::MobilePtr a{0, 1}, b{0, 2};
  s.enqueue(make_delivery(a, 1.0, 0));
  s.enqueue(make_delivery(a, 5.0, 1));
  s.enqueue(make_delivery(b, 2.0, 0));
  auto d = s.pick();  // picks a unit of `a`; `a` still has one queued
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->target, a);
  auto loads = s.migratable_loads();
  ASSERT_EQ(loads.size(), 1u);
  EXPECT_EQ(loads[0].ptr, b);
  s.complete();
  loads = s.migratable_loads();
  ASSERT_EQ(loads.size(), 2u);
  // Sorted heaviest first.
  EXPECT_EQ(loads[0].ptr, a);
  EXPECT_DOUBLE_EQ(loads[0].weight, 5.0);
}

TEST(Scheduler, RoundRobinGoldenOverUnevenQueues) {
  Scheduler s;
  const mol::MobilePtr a{0, 1}, b{0, 2}, c{0, 3};
  s.enqueue(make_delivery(a, 1.0, 0));
  s.enqueue(make_delivery(b, 1.0, 0));
  s.enqueue(make_delivery(a, 1.0, 1));
  s.enqueue(make_delivery(c, 1.0, 0));
  s.enqueue(make_delivery(a, 1.0, 2));
  s.enqueue(make_delivery(c, 1.0, 1));
  std::vector<std::pair<mol::MobilePtr, std::uint64_t>> order;
  const auto pick_one = [&] {
    auto d = s.pick();
    ASSERT_TRUE(d.has_value());
    order.emplace_back(d->target, d->delivery_no);
    s.complete();
  };
  for (int i = 0; i < 3; ++i) pick_one();
  // `b` drained; a new unit puts it back at the tail of the rotation.
  s.enqueue(make_delivery(b, 1.0, 1));
  while (s.has_work()) pick_one();
  const std::vector<std::pair<mol::MobilePtr, std::uint64_t>> golden = {
      {a, 0}, {b, 0}, {c, 0}, {a, 1}, {c, 1}, {b, 1}, {a, 2}};
  EXPECT_EQ(order, golden);
  EXPECT_EQ(s.queued_units(), 0u);
  EXPECT_EQ(s.load(), 0.0);
}

TEST(Scheduler, MatchesReferenceModelUnderRandomOps) {
  // Reference: per-object FIFOs in an ordered map plus a round-robin ready
  // list, with running aggregates updated in the same order as the
  // scheduler's so the weights compare exactly.
  struct Unit {
    std::uint64_t no;
    double weight;
  };
  std::map<mol::MobilePtr, std::deque<Unit>> ref;
  std::deque<mol::MobilePtr> ready;
  std::size_t units = 0;
  double weight = 0.0;
  std::map<mol::MobilePtr, std::uint64_t> next_no;
  mol::MobilePtr executing = mol::kNullMobilePtr;  // null: nothing picked

  Scheduler s;
  std::mt19937_64 rng(2003);
  const double weights[] = {0.0, 0.5, 1.0, 2.25, 3.0};
  for (int op = 0; op < 10000; ++op) {
    const mol::MobilePtr ptr{0, static_cast<std::uint32_t>(rng() % 6)};
    const auto r = rng() % 10;
    if (r < 5) {
      const double w = weights[rng() % 5];
      s.enqueue(make_delivery(ptr, w, next_no[ptr]));
      auto& q = ref[ptr];
      if (q.empty()) ready.push_back(ptr);
      q.push_back({next_no[ptr]++, w});
      ++units;
      weight += w;
    } else if (r < 7) {
      if (!executing.is_null()) {
        s.complete();
        executing = mol::kNullMobilePtr;
      }
      auto d = s.pick();
      ASSERT_EQ(d.has_value(), !ready.empty());
      if (!d) continue;
      const mol::MobilePtr head = ready.front();
      ready.pop_front();
      auto& q = ref[head];
      ASSERT_EQ(d->target, head);
      ASSERT_EQ(d->delivery_no, q.front().no);
      --units;
      weight -= q.front().weight;
      if (units == 0 || weight < 0.0) weight = 0.0;
      q.pop_front();
      if (!q.empty()) ready.push_back(head);
      executing = head;
    } else if (r < 8) {
      if (executing == ptr) continue;
      const auto taken = s.take_queued(ptr);
      auto& q = ref[ptr];
      ASSERT_EQ(taken.size(), q.size());
      for (std::size_t i = 0; i < taken.size(); ++i) {
        ASSERT_EQ(taken[i].delivery_no, q[i].no);
        --units;
        weight -= q[i].weight;
      }
      if (!q.empty() && (units == 0 || weight < 0.0)) weight = 0.0;
      q.clear();
      ready.erase(std::remove(ready.begin(), ready.end(), ptr), ready.end());
    } else {
      std::vector<Scheduler::ObjectLoad> expect;
      for (const auto& [p, q] : ref) {
        if (q.empty() || executing == p) continue;
        Scheduler::ObjectLoad l;
        l.ptr = p;
        l.units = q.size();
        for (const auto& u : q) l.weight += u.weight;
        if (l.weight > 0.0) expect.push_back(l);
      }
      std::stable_sort(expect.begin(), expect.end(),
                       [](const auto& x, const auto& y) { return x.weight > y.weight; });
      const auto got = s.migratable_loads();
      ASSERT_EQ(got.size(), expect.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].ptr, expect[i].ptr) << "op " << op << " row " << i;
        ASSERT_EQ(got[i].units, expect[i].units);
        ASSERT_EQ(got[i].weight, expect[i].weight);
      }
      // The per-object lookup agrees with the list for every object, listed
      // or not (index 6 was never queued).
      for (std::uint32_t i = 0; i <= 6; ++i) {
        const mol::MobilePtr p{0, i};
        double listed = 0.0;
        for (const auto& l : got) {
          if (l.ptr == p) listed = l.weight;
        }
        ASSERT_EQ(s.migratable_weight(p), listed) << "op " << op << " object " << i;
      }
    }
    ASSERT_EQ(s.queued_units(), units);
    ASSERT_EQ(s.load(), weight) << "op " << op;
    ASSERT_EQ(s.has_work(), !ready.empty());
  }
}

TEST(SchedulerDeathTest, GuardsMisuse) {
  Scheduler s;
  EXPECT_DEATH(s.complete(), "without a picked unit");
  const mol::MobilePtr a{0, 1};
  s.enqueue(make_delivery(a, 1.0, 0));
  s.enqueue(make_delivery(a, 1.0, 1));
  (void)s.pick();
  EXPECT_DEATH((void)s.pick(), "while a unit is executing");
  EXPECT_DEATH((void)s.take_queued(a), "executing object");
}

TEST(SchedulerDeathTest, OutOfOrderDeliveryAborts) {
  Scheduler s;
  const mol::MobilePtr a{0, 1};
  s.enqueue(make_delivery(a, 1.0, 5));
  EXPECT_DEATH(s.enqueue(make_delivery(a, 1.0, 4)), "out-of-order");
}

// ---------------------------------------------------------------------------
// Policies against a scripted fake context
// ---------------------------------------------------------------------------

struct SentMsg {
  ProcId dst;
  PolicyTag tag;
  std::vector<std::uint8_t> body;
};

struct Migration {
  mol::MobilePtr ptr;
  ProcId dst;
};

class FakeContext final : public PolicyContext {
 public:
  FakeContext(ProcId rank, int nprocs) : rank_(rank), nprocs_(nprocs), rng_(7) {}

  [[nodiscard]] ProcId rank() const override { return rank_; }
  [[nodiscard]] int nprocs() const override { return nprocs_; }
  [[nodiscard]] double now() const override { return now_; }
  [[nodiscard]] util::Rng& rng() override { return rng_; }
  [[nodiscard]] double local_load() const override { return load_; }
  [[nodiscard]] double low_watermark() const override { return 2.0; }
  [[nodiscard]] double donate_threshold() const override { return 4.0; }
  [[nodiscard]] std::vector<Scheduler::ObjectLoad> migratable() const override {
    return objects_;
  }
  void migrate_object(const mol::MobilePtr& ptr, ProcId dst) override {
    migrations_.push_back({ptr, dst});
    for (auto it = objects_.begin(); it != objects_.end(); ++it) {
      if (it->ptr == ptr) {
        load_ -= it->weight;
        objects_.erase(it);
        break;
      }
    }
  }
  void send_policy(ProcId dst, PolicyTag tag, std::vector<std::uint8_t> body) override {
    sent_.push_back({dst, tag, std::move(body)});
  }
  void charge_seconds(double) override {}
  void request_poll_after(double seconds) override {
    poll_requests_.push_back(seconds);
  }

  // --- scripted topology view (empty/off by default, like a scalar run) ---
  [[nodiscard]] bool topology_enabled() const override { return topology_; }
  [[nodiscard]] std::optional<mol::Coords> object_coords(
      const mol::MobilePtr& ptr) const override {
    const auto it = coords_.find(ptr);
    if (it == coords_.end()) return std::nullopt;
    return it->second;
  }
  [[nodiscard]] std::vector<mol::CommEdge> comm_edges() const override {
    return edges_;
  }
  [[nodiscard]] ProcId object_location(const mol::MobilePtr& ptr) const override {
    const auto it = locations_.find(ptr);
    return it == locations_.end() ? kNoProc : it->second;
  }
  [[nodiscard]] std::vector<GossipSummary> gossip() const override {
    return gossip_;
  }
  void trace_sfc_cut(std::size_t segments, double imbalance) override {
    sfc_cuts_.push_back({segments, imbalance});
  }
  void trace_cluster_merge(ProcId dst, std::size_t objects,
                           double traffic) override {
    cluster_merges_.push_back({dst, objects, traffic});
  }

  void set_load(double load) { load_ = load; }
  void add_object(mol::MobilePtr ptr, double weight) {
    objects_.push_back({ptr, 1, weight});
    load_ += weight;
  }

  struct ClusterMergeEvent {
    ProcId dst;
    std::size_t objects;
    double traffic;
  };

  ProcId rank_;
  int nprocs_;
  util::Rng rng_;
  double now_ = 0.0;
  double load_ = 0.0;
  std::vector<Scheduler::ObjectLoad> objects_;
  std::vector<SentMsg> sent_;
  std::vector<Migration> migrations_;
  std::vector<double> poll_requests_;
  bool topology_ = false;
  std::map<mol::MobilePtr, mol::Coords> coords_;
  std::map<mol::MobilePtr, ProcId> locations_;
  std::vector<mol::CommEdge> edges_;
  std::vector<GossipSummary> gossip_;
  std::vector<std::pair<std::size_t, double>> sfc_cuts_;
  std::vector<ClusterMergeEvent> cluster_merges_;
};

util::ByteReader reader_of(const SentMsg& m) { return util::ByteReader(m.body); }

TEST(WorkStealing, RequestsWhenBelowWatermark) {
  FakeContext ctx(2, 8);
  WorkStealingPolicy p;
  p.init(ctx);
  ctx.set_load(1.0);  // below watermark 2.0
  p.on_poll(ctx);
  ASSERT_EQ(ctx.sent_.size(), 1u);
  EXPECT_EQ(ctx.sent_[0].dst, 3);  // rank ^ 1
  EXPECT_EQ(ctx.sent_[0].tag, 1);  // request
  // No duplicate request while one is outstanding.
  p.on_poll(ctx);
  EXPECT_EQ(ctx.sent_.size(), 1u);
}

TEST(WorkStealing, StaysQuietWhenLoaded) {
  FakeContext ctx(0, 4);
  WorkStealingPolicy p;
  p.init(ctx);
  ctx.set_load(10.0);
  p.on_poll(ctx);
  EXPECT_TRUE(ctx.sent_.empty());
}

TEST(WorkStealing, GrantsMigrationsOnRequest) {
  FakeContext ctx(1, 4);
  WorkStealingPolicy p;
  p.init(ctx);
  for (std::uint32_t i = 0; i < 10; ++i) ctx.add_object({1, i}, 1.0);
  // Peer rank 3 asks with load 0.
  util::ByteWriter w;
  w.put<double>(0.0);
  util::ByteReader r(w.bytes());
  p.on_message(ctx, 3, 1, r);
  // Half the gap (10) is 5 objects, all to rank 3, then a grant message.
  EXPECT_EQ(ctx.migrations_.size(), 5u);
  for (const auto& m : ctx.migrations_) EXPECT_EQ(m.dst, 3);
  ASSERT_EQ(ctx.sent_.size(), 1u);
  EXPECT_EQ(ctx.sent_[0].tag, 3);  // grant
  auto rd = reader_of(ctx.sent_[0]);
  EXPECT_EQ(rd.get<std::uint32_t>(), 5u);
}

TEST(WorkStealing, DeniesWhenPoor) {
  FakeContext ctx(1, 4);
  WorkStealingPolicy p;
  p.init(ctx);
  ctx.add_object({1, 0}, 1.0);  // load 1, below donate threshold
  util::ByteWriter w;
  w.put<double>(0.0);
  util::ByteReader r(w.bytes());
  p.on_message(ctx, 3, 1, r);
  EXPECT_TRUE(ctx.migrations_.empty());
  ASSERT_EQ(ctx.sent_.size(), 1u);
  EXPECT_EQ(ctx.sent_[0].tag, 2);  // deny
}

TEST(WorkStealing, RotatesPartnerOnDenyAndGoesPassive) {
  FakeContext ctx(0, 4);
  WorkStealingParams params;
  params.passive_after_denials = 2;
  WorkStealingPolicy p(params);
  p.init(ctx);
  ctx.set_load(0.0);
  p.on_poll(ctx);  // request #1 to partner 1
  ASSERT_EQ(ctx.sent_.size(), 1u);
  const ProcId first = ctx.sent_[0].dst;
  std::vector<std::uint8_t> e1; util::ByteReader r1(e1);
  p.on_message(ctx, first, 2, r1);  // deny -> rotate + immediate retry
  ASSERT_EQ(ctx.sent_.size(), 2u);
  EXPECT_NE(ctx.sent_[1].dst, first);
  std::vector<std::uint8_t> e2; util::ByteReader r2(e2);
  p.on_message(ctx, ctx.sent_[1].dst, 2, r2);  // deny #2 -> dormant
  EXPECT_EQ(ctx.sent_.size(), 2u);  // no further request
  // Dormancy armed a delayed retry wakeup.
  ASSERT_EQ(ctx.poll_requests_.size(), 1u);
  EXPECT_GT(ctx.poll_requests_[0], 0.0);
  p.on_poll(ctx);
  EXPECT_EQ(ctx.sent_.size(), 2u);  // still dormant (retry time not reached)
  p.on_work_arrived(ctx);
  p.on_poll(ctx);
  EXPECT_EQ(ctx.sent_.size(), 3u);  // begging again
  EXPECT_EQ(p.stats().went_passive, 1u);
  // A dormant wakeup after the backoff elapses also resumes begging.
  std::vector<std::uint8_t> e3; util::ByteReader r3(e3);
  p.on_message(ctx, ctx.sent_[2].dst, 2, r3);
  p.on_message(ctx, ctx.sent_[3].dst, 2, r3);  // dormant again
  ctx.now_ = 1e6;  // well past any backoff
  p.on_poll(ctx);
  EXPECT_EQ(ctx.sent_.size(), 5u);
}

TEST(WorkStealing, GrantKeepsCushionForDonor) {
  FakeContext ctx(1, 4);
  WorkStealingPolicy p;
  p.init(ctx);
  for (std::uint32_t i = 0; i < 5; ++i) ctx.add_object({1, i}, 1.0);
  util::ByteWriter w;
  w.put<double>(4.0);  // requester nearly as loaded as we are
  util::ByteReader r(w.bytes());
  p.on_message(ctx, 2, 1, r);
  // Gap is 1, half-gap 0.5: exactly one object moves; donor keeps >= watermark.
  EXPECT_EQ(ctx.migrations_.size(), 1u);
}

TEST(Diffusion, NeighborsHypercubeAndRing) {
  {
    FakeContext ctx(5, 8);
    DiffusionPolicy p;
    p.init(ctx);
    EXPECT_EQ(p.neighbors(), (std::vector<ProcId>{4, 7, 1}));
  }
  {
    FakeContext ctx(0, 6);
    DiffusionPolicy p;
    p.init(ctx);
    EXPECT_EQ(p.neighbors(), (std::vector<ProcId>{1, 5}));
  }
}

TEST(Diffusion, AnnouncesWithHysteresis) {
  FakeContext ctx(0, 4);
  DiffusionPolicy p;
  p.init(ctx);
  ctx.set_load(10.0);
  p.on_poll(ctx);
  const auto after_first = ctx.sent_.size();
  EXPECT_GT(after_first, 0u);
  p.on_poll(ctx);  // unchanged load: silent
  EXPECT_EQ(ctx.sent_.size(), after_first);
  ctx.set_load(20.0);  // big change: re-announce
  p.on_poll(ctx);
  EXPECT_GT(ctx.sent_.size(), after_first);
}

TEST(Diffusion, PushesTowardLighterNeighbor) {
  FakeContext ctx(0, 4);
  DiffusionPolicy p;
  p.init(ctx);
  for (std::uint32_t i = 0; i < 12; ++i) ctx.add_object({0, i}, 1.0);
  util::ByteWriter w;
  w.put<double>(0.0);
  util::ByteReader r(w.bytes());
  p.on_message(ctx, 1, 1, r);  // neighbor 1 announces load 0
  // alpha * gap / 2 = 0.5 * 12 / 2 = 3 units move.
  EXPECT_EQ(ctx.migrations_.size(), 3u);
  for (const auto& m : ctx.migrations_) EXPECT_EQ(m.dst, 1);
  // A second identical announcement must not re-push blindly: the optimistic
  // accounting raised our view of the neighbor.
  const auto before = ctx.migrations_.size();
  p.on_poll(ctx);
  EXPECT_LE(ctx.migrations_.size() - before, 3u);
}

TEST(Gradient, ProximityReflectsLocalState) {
  FakeContext ctx(1, 4);
  GradientPolicy p;
  p.init(ctx);
  ctx.set_load(0.0);  // underloaded
  p.on_poll(ctx);
  EXPECT_EQ(p.proximity(), 0u);
  // Loaded with unknown neighbours: proximity saturates.
  ctx.set_load(50.0);
  p.on_poll(ctx);
  EXPECT_GT(p.proximity(), 0u);
}

TEST(Gradient, PushesDownhill) {
  FakeContext ctx(1, 4);
  GradientPolicy p;
  p.init(ctx);
  for (std::uint32_t i = 0; i < 10; ++i) ctx.add_object({1, i}, 1.0);
  p.on_poll(ctx);
  EXPECT_TRUE(ctx.migrations_.empty());  // nowhere downhill yet
  util::ByteWriter w;
  w.put<std::uint32_t>(0);  // neighbor 2 says: I'm underloaded
  util::ByteReader r(w.bytes());
  p.on_message(ctx, 2, 1, r);
  ASSERT_FALSE(ctx.migrations_.empty());
  for (const auto& m : ctx.migrations_) EXPECT_EQ(m.dst, 2);
}

TEST(Master, WorkersReportAndAsk) {
  FakeContext ctx(3, 4);
  MasterPolicy p;
  p.init(ctx);
  ctx.set_load(0.5);
  p.on_poll(ctx);
  // A report and a need-work message, both to rank 0.
  ASSERT_EQ(ctx.sent_.size(), 2u);
  EXPECT_EQ(ctx.sent_[0].dst, 0);
  EXPECT_EQ(ctx.sent_[0].tag, 1);
  EXPECT_EQ(ctx.sent_[1].dst, 0);
  EXPECT_EQ(ctx.sent_[1].tag, 2);
  // Not repeated while the ask is pending.
  p.on_poll(ctx);
  EXPECT_EQ(ctx.sent_.size(), 2u);
}

TEST(Master, ManagerPairsNeedyWithHeaviest) {
  FakeContext ctx(0, 4);
  MasterPolicy p;
  p.init(ctx);
  // Reports: rank 1 heavy, rank 2 light.
  {
    util::ByteWriter w;
    w.put<double>(50.0);
    util::ByteReader r(w.bytes());
    p.on_message(ctx, 1, 1, r);
  }
  {
    util::ByteWriter w;
    w.put<double>(0.0);
    util::ByteReader r(w.bytes());
    p.on_message(ctx, 2, 2, r);  // need work
  }
  // Manager commands rank 1 to push toward rank 2.
  ASSERT_FALSE(ctx.sent_.empty());
  const auto& cmd = ctx.sent_.back();
  EXPECT_EQ(cmd.dst, 1);
  EXPECT_EQ(cmd.tag, 3);
  auto r = reader_of(cmd);
  EXPECT_EQ(r.get<ProcId>(), 2);
}

TEST(Master, DonorHonoursPushCommand) {
  FakeContext ctx(1, 4);
  MasterPolicy p;
  p.init(ctx);
  for (std::uint32_t i = 0; i < 10; ++i) ctx.add_object({1, i}, 1.0);
  util::ByteWriter w;
  w.put<ProcId>(2);
  w.put<double>(0.0);
  util::ByteReader r(w.bytes());
  p.on_message(ctx, 0, 3, r);
  EXPECT_EQ(ctx.migrations_.size(), 5u);  // half the gap
  for (const auto& m : ctx.migrations_) EXPECT_EQ(m.dst, 2);
}

TEST(MultiList, LeaderMapping) {
  FakeContext ctx(7, 16);  // group size = 4
  MultiListPolicy p;
  p.init(ctx);
  EXPECT_EQ(p.leader(), 4);
  FakeContext ctx2(4, 16);
  MultiListPolicy p2;
  p2.init(ctx2);
  EXPECT_EQ(p2.leader(), 4);
}

TEST(MultiList, StarvedMemberAsksLeader) {
  FakeContext ctx(5, 16);
  MultiListPolicy p;
  p.init(ctx);
  ctx.set_load(0.0);
  p.on_poll(ctx);
  ASSERT_FALSE(ctx.sent_.empty());
  bool asked = false;
  for (const auto& m : ctx.sent_) {
    if (m.tag == 2) {
      asked = true;
      EXPECT_EQ(m.dst, 4);  // its leader
    }
  }
  EXPECT_TRUE(asked);
}

TEST(MultiList, LeaderPairsWithinGroup) {
  FakeContext ctx(4, 16);  // leader of ranks 4..7
  MultiListPolicy p;
  p.init(ctx);
  {
    util::ByteWriter w;
    w.put<double>(40.0);
    util::ByteReader r(w.bytes());
    p.on_message(ctx, 6, 1, r);  // member 6 reports heavy
  }
  {
    util::ByteWriter w;
    w.put<double>(0.0);
    util::ByteReader r(w.bytes());
    p.on_message(ctx, 5, 2, r);  // member 5 asks
  }
  bool pushed = false;
  for (const auto& m : ctx.sent_) {
    if (m.tag == 3) {
      pushed = true;
      EXPECT_EQ(m.dst, 6);
      auto r = reader_of(m);
      EXPECT_EQ(r.get<ProcId>(), 5);
    }
  }
  EXPECT_TRUE(pushed);
}

// ---------------------------------------------------------------------------
// Topology-aware policies (scripted PolicyContext overrides)
// ---------------------------------------------------------------------------

TEST(Sfc, CoordinatorRecutsAndShipsOutOfSegmentObjects) {
  FakeContext ctx(0, 2);
  ctx.topology_ = true;
  SfcPolicy p;
  p.init(ctx);
  // Two objects in opposite corners of the unit cube: a heavy one near the
  // origin, a light one near the far corner.
  const mol::MobilePtr near{0, 0};
  const mol::MobilePtr far{0, 1};
  ctx.coords_[near] = {0.1, 0.1, 0.1};
  ctx.coords_[far] = {0.9, 0.9, 0.9};
  ctx.add_object(near, 9.0);
  ctx.add_object(far, 1.0);
  ASSERT_NE(p.bucket_of(ctx, near), p.bucket_of(ctx, far));

  // The coordinator's own report is taken at the first poll...
  p.on_poll(ctx);
  EXPECT_EQ(p.stats().reports_sent, 1u);
  EXPECT_TRUE(ctx.sent_.empty());  // rank 0 never wires its report to itself
  // ...and once rank 1's (empty) histogram lands, the picture is complete:
  // segment loads 9 vs 1 against a share of 5 is a 1.8 imbalance -> recut.
  util::ByteWriter w;
  w.put<std::uint32_t>(0);
  util::ByteReader r(w.bytes());
  p.on_message(ctx, 1, 20, r);

  EXPECT_EQ(p.stats().cuts_broadcast, 1u);
  ASSERT_EQ(ctx.sent_.size(), 1u);  // the cut table, broadcast to rank 1
  EXPECT_EQ(ctx.sent_[0].dst, 1);
  EXPECT_EQ(ctx.sent_[0].tag, 21);
  // The far-corner object's segment now belongs to rank 1; it ships.
  ASSERT_EQ(ctx.migrations_.size(), 1u);
  EXPECT_EQ(ctx.migrations_[0].ptr, far);
  EXPECT_EQ(ctx.migrations_[0].dst, 1);
  // The decision was traced with the post-cut segment count and imbalance.
  ASSERT_EQ(ctx.sfc_cuts_.size(), 1u);
  EXPECT_EQ(ctx.sfc_cuts_[0].first, 2u);
  EXPECT_DOUBLE_EQ(ctx.sfc_cuts_[0].second, 1.8);
}

TEST(Sfc, MemberAppliesCutTableFromWire) {
  FakeContext ctx(1, 2);
  ctx.topology_ = true;
  SfcPolicy p;
  p.init(ctx);
  const mol::MobilePtr mine{1, 0};
  ctx.coords_[mine] = {0.05, 0.05, 0.05};  // near the origin: rank 0 territory
  ctx.add_object(mine, 2.0);
  // Cut table: rank 0 owns the lower half of the buckets, rank 1 the upper.
  util::ByteWriter w;
  w.put<std::uint32_t>(2);
  w.put<std::uint32_t>(0);
  w.put<std::uint32_t>(SfcPolicy::kBuckets / 2);
  util::ByteReader r(w.bytes());
  p.on_message(ctx, 0, 21, r);
  ASSERT_EQ(ctx.migrations_.size(), 1u);
  EXPECT_EQ(ctx.migrations_[0].dst, 0);
}

TEST(Sfc, IgnoresForeignTagsAndHashesCoordlessObjects) {
  FakeContext ctx(1, 4);
  ctx.topology_ = true;
  SfcPolicy p;
  p.init(ctx);
  // A stray in-flight work_stealing request (tag 1) from before a policy
  // switch must be ignored, not misdecoded or aborted on.
  util::ByteWriter w;
  w.put<double>(0.0);
  util::ByteReader r(w.bytes());
  p.on_message(ctx, 3, 1, r);
  EXPECT_TRUE(ctx.sent_.empty());
  EXPECT_TRUE(ctx.migrations_.empty());
  // Objects without coordinates hash to a stable in-range bucket.
  const mol::MobilePtr coordless{2, 7};
  const auto b = p.bucket_of(ctx, coordless);
  EXPECT_LT(b, SfcPolicy::kBuckets);
  EXPECT_EQ(b, p.bucket_of(ctx, coordless));
}

TEST(Sfc, BucketMemoFollowsOverwrittenCoordinates) {
  FakeContext ctx(1, 2);
  ctx.topology_ = true;
  SfcPolicy p;
  p.init(ctx);
  const mol::MobilePtr obj{1, 0};
  ctx.coords_[obj] = {0.1, 0.1, 0.1};
  const auto near = p.bucket_of(ctx, obj);
  EXPECT_EQ(near, p.bucket_of(ctx, obj));
  // The application moves the object: the memoized bucket must not be served
  // for the new coordinates, and moving back must restore the old bucket.
  ctx.coords_[obj] = {0.9, 0.9, 0.9};
  const auto far = p.bucket_of(ctx, obj);
  EXPECT_NE(far, near);
  SfcPolicy fresh;
  EXPECT_EQ(far, fresh.bucket_of(ctx, obj));
  ctx.coords_[obj] = {0.1, 0.1, 0.1};
  EXPECT_EQ(p.bucket_of(ctx, obj), near);
  // Losing the coordinates falls back to the pointer hash, as without a memo.
  ctx.coords_.erase(obj);
  EXPECT_EQ(p.bucket_of(ctx, obj), fresh.bucket_of(ctx, obj));
}

/// A rank's histogram report as it travels on the wire.
util::ByteWriter sfc_report(
    const std::vector<std::pair<std::uint32_t, double>>& entries) {
  util::ByteWriter w;
  w.put<std::uint32_t>(static_cast<std::uint32_t>(entries.size()));
  for (const auto& [bucket, load] : entries) {
    w.put<std::uint32_t>(bucket);
    w.put<double>(load);
  }
  return w;
}

TEST(Sfc, CoordinatorMergeMatchesGoldenCutTable) {
  // Three ranks report an overlapping bucket with loads whose floating-point
  // sum depends on the order they are added in: 0.1 + 0.2 + 0.3 in rank
  // order is 0.6000000000000001, in reverse order 0.6. The merge contract is
  // that each bucket sums from 0.0 in rank order, rank 0 first; the golden
  // imbalance below pins that order bit for bit.
  FakeContext ctx(0, 3);
  ctx.topology_ = true;
  SfcPolicy p;
  p.init(ctx);
  const mol::MobilePtr a{0, 0};
  ctx.coords_[a] = {0.1, 0.1, 0.1};
  ctx.add_object(a, 0.1);
  const std::uint32_t ka = p.bucket_of(ctx, a);
  constexpr std::uint32_t kb = SfcPolicy::kBuckets - 2;
  constexpr std::uint32_t kc = SfcPolicy::kBuckets - 1;
  ASSERT_LT(ka, kb);

  p.on_poll(ctx);  // rank 0: {ka: 0.1}
  auto r1 = sfc_report({{ka, 0.2}, {kb, 0.55}});
  util::ByteReader rr1(r1.bytes());
  p.on_message(ctx, 1, 20, rr1);
  EXPECT_EQ(p.stats().cuts_broadcast, 0u);  // rank 2 has not reported yet
  auto r2 = sfc_report({{ka, 0.3}, {kc, 0.55}});
  util::ByteReader rr2(r2.bytes());
  p.on_message(ctx, 2, 20, rr2);

  // Rank loads 0.1 / 0.75 / 0.85 against a share of 1.7 / 3: recut. The
  // merged bucket ka (~0.6) is the heaviest segment of the proposal.
  ASSERT_EQ(p.stats().cuts_broadcast, 1u);
  ASSERT_EQ(ctx.sent_.size(), 2u);
  for (ProcId dst = 1; dst <= 2; ++dst) {
    const auto& m = ctx.sent_[static_cast<std::size_t>(dst - 1)];
    EXPECT_EQ(m.dst, dst);
    EXPECT_EQ(m.tag, 21);
    auto r = reader_of(m);
    ASSERT_EQ(r.get<std::uint32_t>(), 3u);
    EXPECT_EQ(r.get<std::uint32_t>(), 0u);
    EXPECT_EQ(r.get<std::uint32_t>(), kb);
    EXPECT_EQ(r.get<std::uint32_t>(), kc);
    EXPECT_TRUE(r.exhausted());
  }
  EXPECT_TRUE(ctx.migrations_.empty());  // rank 0's object sits in segment 0
  ASSERT_EQ(ctx.sfc_cuts_.size(), 1u);
  EXPECT_EQ(ctx.sfc_cuts_[0].first, 3u);
  // Bit-exact, not DOUBLE_EQ: the summation order is the contract.
  // 0x1.0f0f0f0f0f0f1p+0 is 0.6000000000000001 / (1.7 / 3); the reverse
  // order's 0.6 would give 0x1.0f0f0f0f0f0f0p+0.
  EXPECT_EQ(ctx.sfc_cuts_[0].second, 0x1.0f0f0f0f0f0f1p+0);
}

TEST(Sfc, BelowThresholdRoundBroadcastsAndMigratesNothing) {
  // Rank loads 0.8 / 1.2 (current imbalance 1.2), and the proposed cuts
  // would balance them exactly. Under the default threshold (1.05) that is
  // a recut; with the threshold raised to 1.5 the same round must end with
  // no decision at all.
  for (const double threshold : {1.05, 1.5}) {
    FakeContext ctx(0, 2);
    ctx.topology_ = true;
    SfcParams params;
    params.recut_threshold = threshold;
    SfcPolicy p(params);
    p.init(ctx);
    const mol::MobilePtr mine{0, 0};
    ctx.coords_[mine] = {0.1, 0.1, 0.1};
    ctx.add_object(mine, 0.8);
    const std::uint32_t k = p.bucket_of(ctx, mine);
    ASSERT_GT(k, 0u);
    p.on_poll(ctx);
    auto r1 = sfc_report({{0, 1.0}, {SfcPolicy::kBuckets - 1, 0.2}});
    util::ByteReader r(r1.bytes());
    p.on_message(ctx, 1, 20, r);
    if (threshold < 1.2) {
      EXPECT_EQ(p.stats().cuts_broadcast, 1u);
      EXPECT_EQ(ctx.sent_.size(), 1u);
      EXPECT_EQ(ctx.migrations_.size(), 1u);
      continue;
    }
    EXPECT_EQ(p.stats().cuts_broadcast, 0u);
    EXPECT_TRUE(ctx.sent_.empty());
    EXPECT_TRUE(ctx.migrations_.empty());
    EXPECT_TRUE(ctx.sfc_cuts_.empty());
  }
}

TEST(Cluster, MigratesTowardDominantPartnerAndCoMigratesClique) {
  FakeContext ctx(0, 2);
  ctx.topology_ = true;
  ClusterPolicy p;
  p.init(ctx);
  const mol::MobilePtr a{0, 0};
  const mol::MobilePtr b{0, 1};
  const mol::MobilePtr c{1, 0};  // remote, on rank 1
  ctx.add_object(a, 1.0);
  ctx.add_object(b, 1.0);
  ctx.locations_[a] = 0;
  ctx.locations_[b] = 0;
  ctx.locations_[c] = 1;
  // a talks to remote c twice as much as to local b; b talks only to a.
  ctx.edges_.push_back({a, c, 10, 6000});
  ctx.edges_.push_back({a, b, 5, 3000});
  GossipSummary s;
  s.proc = 1;
  s.load = 0.0;  // rank 1 is idle: a fine destination
  ctx.gossip_.push_back(s);

  ctx.now_ = 1.0;  // past the first eval deadline
  p.on_poll(ctx);

  // a moves to its dominant partner's processor, and b — whose traffic is
  // entirely with a — rides along so the clique stays together.
  ASSERT_EQ(ctx.migrations_.size(), 2u);
  EXPECT_EQ(ctx.migrations_[0].ptr, a);
  EXPECT_EQ(ctx.migrations_[0].dst, 1);
  EXPECT_EQ(ctx.migrations_[1].ptr, b);
  EXPECT_EQ(ctx.migrations_[1].dst, 1);
  EXPECT_EQ(p.stats().objects_moved, 1u);
  EXPECT_EQ(p.stats().co_migrations, 1u);
  ASSERT_EQ(ctx.cluster_merges_.size(), 1u);
  EXPECT_EQ(ctx.cluster_merges_[0].dst, 1);
  EXPECT_EQ(ctx.cluster_merges_[0].objects, 2u);
  EXPECT_DOUBLE_EQ(ctx.cluster_merges_[0].traffic, 9000.0);
}

TEST(Cluster, StaysPutWhenInternalTrafficDominatesOrPeerIsBusy) {
  FakeContext ctx(0, 2);
  ctx.topology_ = true;
  ClusterPolicy p;
  p.init(ctx);
  const mol::MobilePtr a{0, 0};
  const mol::MobilePtr b{0, 1};
  const mol::MobilePtr c{1, 0};
  ctx.add_object(a, 1.0);
  ctx.add_object(b, 1.0);
  ctx.locations_[a] = 0;
  ctx.locations_[b] = 0;
  ctx.locations_[c] = 1;
  // External traffic exists but does not exceed 1.5x internal: no move.
  ctx.edges_.push_back({a, b, 10, 6000});
  ctx.edges_.push_back({a, c, 10, 6000});
  ctx.now_ = 1.0;
  p.on_poll(ctx);
  EXPECT_TRUE(ctx.migrations_.empty());

  // Dominant external traffic, but the gossiped destination load is higher
  // than ours: the overshoot gate holds the object back.
  ctx.edges_.clear();
  ctx.edges_.push_back({a, c, 20, 60000});
  GossipSummary s;
  s.proc = 1;
  s.load = 100.0;
  ctx.gossip_.push_back(s);
  ctx.now_ = 2.0;
  p.on_poll(ctx);
  EXPECT_TRUE(ctx.migrations_.empty());
}

TEST(PolicyFactory, MakesEveryRegisteredPolicy) {
  for (const char* name :
       {"null", "work_stealing", "diffusion", "gradient", "master",
        "multilist", "sfc", "cluster"}) {
    auto p = make_policy(name);
    ASSERT_NE(p, nullptr);
    if (std::string(name) != "null") {
      EXPECT_EQ(p->name(), name);
    }
    // The topology split: exactly sfc and cluster consume the widened view.
    const bool topo = std::string(name) == "sfc" || std::string(name) == "cluster";
    EXPECT_EQ(p->wants_topology(), topo) << name;
  }
}

TEST(PolicyFactoryDeathTest, UnknownNameAborts) {
  EXPECT_DEATH((void)make_policy("simulated_annealing"), "unknown");
}

// ---------------------------------------------------------------------------
// Balancer framework paths: policy wire framing and the gossip digest
// ---------------------------------------------------------------------------

/// A processor at virtual time 0 that records what is sent from it instead
/// of delivering it.
class RecordingNode final : public dmcs::Node {
 public:
  RecordingNode(ProcId rank, int nprocs) : Node(rank, nprocs) {}
  [[nodiscard]] double now() const override { return 0.0; }
  [[nodiscard]] util::Rng& rng() override { return rng_; }
  [[nodiscard]] util::TimeLedger& ledger() override { return ledger_; }
  [[nodiscard]] const dmcs::PollingConfig& polling() const override { return polling_; }
  [[nodiscard]] dmcs::HandlerRegistry& registry() override { return registry_; }
  void send(ProcId dst, dmcs::Message msg) override { sent.emplace_back(dst, std::move(msg)); }
  void send_self_after(double, dmcs::Message) override {}
  void cancel_timers() override {}
  void compute(double, util::TimeCategory) override {}
  void compute_seconds(double, util::TimeCategory) override {}
  void execute(dmcs::Message&&, std::function<void()>) override {}
  [[nodiscard]] bool executing() const override { return false; }
  [[nodiscard]] std::size_t inbox_size() const override { return 0; }

  std::vector<std::pair<ProcId, dmcs::Message>> sent;

 private:
  util::Rng rng_;
  util::TimeLedger ledger_;
  dmcs::PollingConfig polling_;
  dmcs::HandlerRegistry registry_;
};

/// A topology policy that decides nothing, so every message a poll sends
/// is the framework's own.
class QuietTopologyPolicy final : public Policy {
 public:
  [[nodiscard]] std::string_view name() const override { return "quiet"; }
  void on_message(PolicyContext&, ProcId, PolicyTag, util::ByteReader&) override {}
  [[nodiscard]] bool wants_topology() const override { return true; }
  void on_gossip(PolicyContext&, const GossipSummary&) override {}
};

class Blank final : public mol::MobileObject {
 public:
  [[nodiscard]] std::uint32_t type_id() const override { return 1; }
  void serialize(util::ByteWriter&) const override {}
};

/// One rank's balancer over a recording node, an empty scheduler and a MOL
/// with topology accounting on.
struct BalancerRig {
  static constexpr dmcs::HandlerId kWireHandler = 7;
  explicit BalancerRig(int nprocs)
      : node(0, nprocs),
        mol(node, types, 0, 0, 0, 0, 0),
        balancer(node, mol, sched, std::make_unique<QuietTopologyPolicy>(),
                 BalancerConfig{}, kWireHandler) {
    mol.enable_topology();
  }
  RecordingNode node;
  mol::ObjectTypeRegistry types;
  mol::Mol mol;
  Scheduler sched;
  Balancer balancer;
};

TEST(Balancer, SendPolicyFramesTagThenBody) {
  BalancerRig rig(2);
  std::vector<std::uint8_t> big(64 * 1024);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::uint8_t>(i * 31 + 7);
  rig.balancer.send_policy(1, 42, {});
  rig.balancer.send_policy(1, 43, big);

  ASSERT_EQ(rig.node.sent.size(), 2u);
  for (const auto& [dst, msg] : rig.node.sent) {
    EXPECT_EQ(dst, 1);
    EXPECT_EQ(msg.handler, BalancerRig::kWireHandler);
    EXPECT_EQ(msg.src, 0);
    EXPECT_EQ(msg.kind, dmcs::MsgKind::kSystem);
  }
  EXPECT_EQ(rig.node.sent[0].second.payload, std::vector<std::uint8_t>{42});
  std::vector<std::uint8_t> expect{43};
  expect.insert(expect.end(), big.begin(), big.end());
  EXPECT_EQ(rig.node.sent[1].second.payload, expect);
}

TEST(Balancer, GossipCentroidSumsInAscendingPointerOrder) {
  // Each axis holds values whose float sum depends on the order of the
  // additions: in ascending pointer order x = (1e17 - 1e17) + 1 = 1 and
  // y = (1 + 1e17) - 1e17 = 0; descending gives x = 0 and y = 1. The
  // fourth object has no coordinates: it counts as resident but not in
  // the mean.
  BalancerRig rig(3);
  std::vector<mol::MobilePtr> ptrs;
  for (int i = 0; i < 4; ++i) ptrs.push_back(rig.mol.add_object(std::make_unique<Blank>()));
  rig.mol.set_coords(ptrs[0], {1e17, 1.0, 0.25});
  rig.mol.set_coords(ptrs[1], {-1e17, 1e17, 0.5});
  rig.mol.set_coords(ptrs[2], {1.0, -1e17, 0.75});
  rig.balancer.init();
  rig.balancer.poll();

  // One digest per peer, the same bytes for each.
  ASSERT_EQ(rig.node.sent.size(), 2u);
  EXPECT_EQ(rig.node.sent[0].first, 1);
  EXPECT_EQ(rig.node.sent[1].first, 2);
  const auto& payload = rig.node.sent[0].second.payload;
  EXPECT_EQ(rig.node.sent[1].second.payload, payload);
  ASSERT_EQ(payload.size(), sizeof(PolicyTag) + 6 * sizeof(double));
  util::ByteReader r(payload);
  EXPECT_EQ(r.get<PolicyTag>(), Balancer::kGossipTag);
  EXPECT_EQ(r.get<double>(), 0.0);  // t
  EXPECT_EQ(r.get<double>(), 0.0);  // load: nothing queued
  EXPECT_EQ(r.get<std::uint64_t>(), 4u);
  EXPECT_EQ(r.get<double>(), 1.0 / 3.0);
  EXPECT_EQ(r.get<double>(), 0.0);
  EXPECT_EQ(r.get<double>(), 1.5 / 3.0);
  EXPECT_TRUE(r.exhausted());
}

}  // namespace
}  // namespace prema::ilb
