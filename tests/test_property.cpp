// Property-based suites: randomized scenarios sweeping seeds, checking the
// invariants the runtime promises no matter what the workload looks like.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "dmcs/sim_machine.hpp"
#include "graph/generators.hpp"
#include "ilb/scheduler.hpp"
#include "mesh/advancing_front.hpp"
#include "partition/adaptive.hpp"
#include "partition/multilevel.hpp"
#include "prema/runtime.hpp"

namespace prema {
namespace {

using util::ByteReader;
using util::ByteWriter;

// ---------------------------------------------------------------------------
// Runtime-wide property: random bursts of messages from random ranks to
// random objects, under a random policy. Every message is delivered exactly
// once, in per-sender order, objects are conserved, and the run terminates.
// ---------------------------------------------------------------------------

class Cell : public mol::MobileObject {
 public:
  explicit Cell(std::int64_t h = 0) : hits(h) {}
  [[nodiscard]] std::uint32_t type_id() const override { return 1; }
  void serialize(ByteWriter& w) const override { w.put<std::int64_t>(hits); }
  static std::unique_ptr<mol::MobileObject> make(ByteReader& r) {
    return std::make_unique<Cell>(r.get<std::int64_t>());
  }
  std::int64_t hits;
};

class RuntimeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RuntimeFuzz, DeliversEverythingExactlyOnceInOrder) {
  const std::uint64_t seed = GetParam();
  util::Rng plan(seed);
  const int nprocs = static_cast<int>(2 + plan.below(7));        // 2..8
  const int objects = static_cast<int>(4 + plan.below(29));      // 4..32
  const int messages = static_cast<int>(20 + plan.below(181));   // 20..200
  const char* policies[] = {"work_stealing", "diffusion", "master", "multilist"};
  const char* policy = policies[plan.below(4)];

  sim::MachineConfig mcfg;
  mcfg.nprocs = nprocs;
  mcfg.mflops = 1000.0;
  mcfg.seed = seed;
  dmcs::PollingConfig pcfg;
  pcfg.mode = plan.chance(0.5) ? dmcs::PollingMode::kPreemptive
                               : dmcs::PollingMode::kExplicit;
  dmcs::SimMachine machine(mcfg, pcfg);
  machine.set_max_events(20'000'000);

  RuntimeConfig rcfg;
  rcfg.policy = policy;
  Runtime rt(machine, rcfg);
  rt.object_types().add(1, Cell::make);

  // (object, origin) -> sequence values seen, in order.
  std::map<std::pair<std::uint32_t, ProcId>, std::vector<std::int64_t>> seen;
  std::int64_t delivered = 0;
  const auto work = rt.register_object_handler(
      "work", [&](Context& ctx, mol::MobileObject& obj, ByteReader& r,
                  const mol::Delivery& d) {
        static_cast<Cell&>(obj).hits++;
        seen[{d.target.index + (static_cast<std::uint32_t>(d.target.home) << 16),
              d.origin}]
            .push_back(r.get<std::int64_t>());
        ++delivered;
        ctx.compute(0.2 + 4.8 * ctx.rng().uniform());
      });

  // The plan: each rank creates a slice of objects (round-robin) and sends a
  // random number of numbered messages to random objects.
  std::vector<int> per_rank_sends(static_cast<std::size_t>(nprocs), 0);
  for (int m = 0; m < messages; ++m) {
    per_rank_sends[plan.below(static_cast<std::uint64_t>(nprocs))]++;
  }
  const std::uint64_t scenario_seed = plan.next();

  rt.set_main([&, scenario_seed](Context& ctx) {
    for (int i = ctx.rank(); i < objects; i += ctx.nprocs()) {
      ctx.add_object(std::make_unique<Cell>());
    }
    // Deterministic per-rank plan, decoupled from execution randomness.
    util::Rng mine(scenario_seed ^ static_cast<std::uint64_t>(ctx.rank()) * 0x9E37ULL);
    const int sends = per_rank_sends[static_cast<std::size_t>(ctx.rank())];
    for (int s = 0; s < sends; ++s) {
      const int obj = static_cast<int>(mine.below(static_cast<std::uint64_t>(objects)));
      const ProcId home = obj % ctx.nprocs();
      const auto index = static_cast<std::uint32_t>(obj / ctx.nprocs());
      ByteWriter w;
      w.put<std::int64_t>(s);  // per-sender sequence stamp
      ctx.message(mol::MobilePtr{home, index}, work, w.take(), 1.0);
    }
  });

  rt.run();

  EXPECT_EQ(delivered, messages) << "policy " << policy;
  EXPECT_TRUE(rt.termination_detected());
  // Per (object, origin) streams are subsequences of 0,1,2,... in order.
  for (const auto& [key, values] : seen) {
    for (std::size_t i = 1; i < values.size(); ++i) {
      EXPECT_LT(values[i - 1], values[i]) << "policy " << policy;
    }
  }
  // Objects conserved, and total hits equal deliveries.
  std::size_t object_count = 0;
  std::int64_t hits = 0;
  for (ProcId p = 0; p < nprocs; ++p) {
    auto& mol = rt.mol_at(p);
    for (const auto& ptr : mol.local_ptrs()) {
      ++object_count;
      hits += static_cast<Cell*>(mol.find(ptr))->hits;
    }
  }
  EXPECT_EQ(object_count, static_cast<std::size_t>(objects));
  EXPECT_EQ(hits, delivered);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuntimeFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u));

// ---------------------------------------------------------------------------
// Partitioner properties over random graphs.
// ---------------------------------------------------------------------------

class PartitionFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PartitionFuzz, ValidBalancedDeterministic) {
  const std::uint64_t seed = GetParam();
  util::Rng rng(seed);
  const auto n = static_cast<graph::VertexId>(40 + rng.below(200));
  const auto g = graph::random_geometric(n, 0.25, rng);
  const int k = static_cast<int>(2 + rng.below(7));

  part::PartitionOptions opts;
  opts.k = k;
  opts.seed = seed;
  const auto p1 = part::multilevel_kway(g, opts);
  const auto p2 = part::multilevel_kway(g, opts);
  EXPECT_EQ(p1, p2);  // deterministic
  ASSERT_EQ(p1.size(), static_cast<std::size_t>(n));
  for (const auto part : p1) {
    ASSERT_GE(part, 0);
    ASSERT_LT(part, k);
  }
  // Random geometric graphs may be disconnected; the partitioner still has
  // to respect the balance tolerance (with slack for indivisible chunks).
  EXPECT_LE(graph::imbalance(g, p1, k), 1.35);
}

TEST_P(PartitionFuzz, AdaptiveRestoresBalance) {
  const std::uint64_t seed = GetParam();
  util::Rng rng(seed ^ 0xABCDEF);
  const auto side = static_cast<graph::VertexId>(10 + rng.below(15));
  const auto base = graph::grid2d(side, side);
  part::PartitionOptions popts;
  popts.k = 4;
  popts.seed = seed;
  const auto old_part = part::multilevel_kway(base, popts);

  // Random hot rectangle with 4..10x weights.
  graph::GraphBuilder b(base.num_vertices());
  const auto hx = rng.below(static_cast<std::uint64_t>(side / 2));
  const auto hy = rng.below(static_cast<std::uint64_t>(side / 2));
  const double factor = 4.0 + rng.uniform(0.0, 6.0);
  for (graph::VertexId v = 0; v < base.num_vertices(); ++v) {
    const auto x = static_cast<std::uint64_t>(v % side);
    const auto y = static_cast<std::uint64_t>(v / side);
    const bool hot = x >= hx && x < hx + static_cast<std::uint64_t>(side) / 3 &&
                     y >= hy && y < hy + static_cast<std::uint64_t>(side) / 3;
    b.set_vertex_weight(v, hot ? factor : 1.0);
  }
  for (graph::VertexId v = 0; v < base.num_vertices(); ++v) {
    for (const auto u : base.neighbors(v)) {
      if (u > v) b.add_edge(v, u);
    }
  }
  const auto drifted = b.build();

  part::AdaptiveOptions aopts;
  aopts.k = 4;
  aopts.seed = seed;
  const auto res = part::adaptive_repartition(drifted, old_part, aopts);
  EXPECT_LE(graph::imbalance(drifted, res.partition, 4),
            graph::imbalance(drifted, old_part, 4) + 1e-9);
  EXPECT_LE(graph::imbalance(drifted, res.partition, 4), 1.25);
  EXPECT_DOUBLE_EQ(res.cost, res.edge_cut + aopts.alpha * res.migration);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionFuzz,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u, 77u,
                                           88u));

// ---------------------------------------------------------------------------
// Scheduler fuzz: random interleavings of enqueue / pick / complete /
// take_queued keep totals and per-object FIFO intact.
// ---------------------------------------------------------------------------

class SchedulerFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerFuzz, TotalsAndOrderInvariants) {
  util::Rng rng(GetParam());
  ilb::Scheduler s;
  std::map<std::uint32_t, std::uint64_t> next_no;     // per-object next delivery no
  std::map<std::uint32_t, std::uint64_t> last_seen;   // per-object last executed
  std::int64_t enqueued = 0, executed = 0, taken = 0;
  double weight_in = 0.0, weight_out = 0.0;

  for (int step = 0; step < 2000; ++step) {
    const auto action = rng.below(10);
    if (action < 5) {  // enqueue
      const auto obj = static_cast<std::uint32_t>(rng.below(12));
      mol::Delivery d;
      d.target = {0, obj};
      d.handler = 1;
      d.weight = 0.5 + rng.uniform();
      d.delivery_no = next_no[obj]++;
      weight_in += d.weight;
      s.enqueue(std::move(d));
      ++enqueued;
    } else if (action < 9) {  // pick + complete
      if (s.executing()) continue;
      auto d = s.pick();
      if (!d) continue;
      const auto obj = d->target.index;
      auto it = last_seen.find(obj);
      if (it != last_seen.end()) {
        EXPECT_LT(it->second, d->delivery_no);
      }
      last_seen[obj] = d->delivery_no;
      weight_out += d->weight;
      ++executed;
      s.complete();
    } else {  // take a random object's queue (migration)
      if (s.executing()) continue;
      const auto obj = static_cast<std::uint32_t>(rng.below(12));
      for (auto& d : s.take_queued({0, obj})) {
        weight_out += d.weight;
        ++taken;
        // A migrated queue replays elsewhere; locally we just retire it and
        // reset the per-object stream (a fresh residence epoch).
      }
      last_seen.erase(obj);
      next_no[obj] = 0;
      // Re-synchronise our bookkeeping with the scheduler's delivery-number
      // monotonicity requirement: the object restarts from zero only because
      // we also dropped its pending stream entirely.
    }
  }
  while (auto d = s.pick()) {
    weight_out += d->weight;
    ++executed;
    s.complete();
  }
  EXPECT_EQ(enqueued, executed + taken);
  EXPECT_NEAR(weight_in, weight_out, 1e-9);
  EXPECT_EQ(s.queued_units(), 0u);
  EXPECT_NEAR(s.load(), 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerFuzz,
                         ::testing::Values(7u, 17u, 27u, 37u, 47u));

// ---------------------------------------------------------------------------
// Mesher property: for random crack positions the mesh always fills the box
// exactly and the front always closes.
// ---------------------------------------------------------------------------

class MesherFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MesherFuzz, AlwaysFillsTheBox) {
  const std::uint64_t seed = GetParam();
  util::Rng rng(seed);
  const mesh::Vec3 tip{0.1 + 0.8 * rng.uniform(), 0.1 + 0.8 * rng.uniform(),
                       0.1 + 0.8 * rng.uniform()};
  mesh::CrackTipSizing sizing(tip, 0.05 + 0.03 * rng.uniform(), 0.25, 0.3);
  std::vector<mesh::Vec3> pts;
  std::vector<mesh::Face> faces;
  mesh::box_surface({0, 0, 0}, {1, 1, 1}, 4, pts, faces, seed);
  auto interior = mesh::interior_points({0, 0, 0}, {1, 1, 1}, sizing, seed);
  pts.insert(pts.end(), interior.begin(), interior.end());
  mesh::AdvancingFront aft(std::move(pts), std::move(faces));
  const auto stats = aft.run();
  EXPECT_TRUE(stats.completed);
  EXPECT_NEAR(aft.mesh().total_volume(), 1.0, 1e-9);
  EXPECT_GT(aft.mesh().min_quality(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MesherFuzz,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u, 606u));

}  // namespace
}  // namespace prema
