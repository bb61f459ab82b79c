#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "dmcs/sim_machine.hpp"
#include "ilb/policies/sfc.hpp"
#include "ilb/sfc_key.hpp"
#include "mol/comm_graph.hpp"
#include "prema/runtime.hpp"

/// \file test_commgraph.cpp
/// The topology slab behind the sfc/cluster policies: edge-counter
/// bookkeeping, the migration slice (extract/install) conservation law, the
/// associativity of slab merging, golden space-filling-curve keys, and an
/// end-to-end run proving the counters follow migrating objects through the
/// full MOL wire path.

namespace prema {
namespace {

using mol::CommGraph;
using mol::Coords;
using mol::MobilePtr;

// ---------------------------------------------------------------------------
// CommGraph unit tests
// ---------------------------------------------------------------------------

TEST(CommGraph, RecordSendAccumulatesEdgesProcTrafficAndTotals) {
  CommGraph g;
  const MobilePtr a{0, 0}, b{0, 1}, c{1, 0};
  g.record_send(a, b, 0, 100);
  g.record_send(a, b, 0, 100);
  g.record_send(a, c, 1, 50);

  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0].src, a);
  EXPECT_EQ(edges[0].dst, b);
  EXPECT_EQ(edges[0].msgs, 2u);
  EXPECT_EQ(edges[0].bytes, 200u);
  EXPECT_EQ(edges[1].dst, c);
  EXPECT_EQ(edges[1].bytes, 50u);

  const auto by_proc = g.proc_traffic();
  ASSERT_EQ(by_proc.size(), 2u);
  EXPECT_EQ(by_proc[0].proc, 0);
  EXPECT_EQ(by_proc[0].msgs, 2u);
  EXPECT_EQ(by_proc[1].proc, 1);
  EXPECT_EQ(by_proc[1].bytes, 50u);

  EXPECT_EQ(g.totals().msgs, 3u);
  EXPECT_EQ(g.totals().bytes, 250u);
}

TEST(CommGraph, CoordsRegisterOverwriteAndMiss) {
  CommGraph g;
  const MobilePtr a{0, 0};
  EXPECT_FALSE(g.coords(a).has_value());
  g.set_coords(a, {0.25, 0.5, 0.75});
  auto c = g.coords(a);
  ASSERT_TRUE(c.has_value());
  EXPECT_DOUBLE_EQ(c->y, 0.5);
  g.set_coords(a, {1.0, 1.0, 1.0});  // idempotent overwrite, not a merge
  c = g.coords(a);
  ASSERT_TRUE(c.has_value());
  EXPECT_DOUBLE_EQ(c->x, 1.0);
}

TEST(CommGraph, CoordsSurviveOverwriteExtractAndInstall) {
  CommGraph src, dst;
  const MobilePtr a{0, 0}, b{0, 1}, c{2, 7};
  src.set_coords(a, {1.0, 2.0, 3.0});
  src.set_coords(b, {4.0, 5.0, 6.0});
  src.set_coords(a, {7.0, 8.0, 9.0});  // overwrite

  // The slice carries the overwritten coordinates; the neighbour stays.
  const auto slice = src.extract(a);
  ASSERT_TRUE(slice.coords.has_value());
  EXPECT_EQ(*slice.coords, (Coords{7.0, 8.0, 9.0}));
  EXPECT_FALSE(src.coords(a).has_value());
  EXPECT_EQ(src.coords(b), (Coords{4.0, 5.0, 6.0}));

  // Install overwrites stale coordinates at the destination; a slice
  // without coordinates leaves what is there.
  dst.set_coords(a, {0.0, 0.0, 0.0});
  dst.install(a, slice);
  EXPECT_EQ(dst.coords(a), (Coords{7.0, 8.0, 9.0}));
  dst.install(a, CommGraph::ObjectSlice{});
  EXPECT_EQ(dst.coords(a), (Coords{7.0, 8.0, 9.0}));
  EXPECT_FALSE(dst.coords(c).has_value());

  // sum_coords skips objects without coordinates and counts the rest.
  dst.set_coords(c, {1.0, 1.0, 1.0});
  const std::vector<MobilePtr> ptrs{a, b, c};
  const auto s = dst.sum_coords(ptrs);
  EXPECT_EQ(s.count, 2u);
  EXPECT_EQ(s.sum, (Coords{8.0, 9.0, 10.0}));
}

TEST(CommGraph, ExtractTakesOutgoingSliceAndShrinksTotals) {
  CommGraph g;
  const MobilePtr a{0, 0}, b{0, 1};
  g.set_coords(a, {0.1, 0.2, 0.3});
  g.record_send(a, b, 0, 10);
  g.record_send(b, a, 0, 20);  // incoming edge: stays with its sender b

  const auto slice = g.extract(a);
  ASSERT_TRUE(slice.coords.has_value());
  EXPECT_DOUBLE_EQ(slice.coords->z, 0.3);
  ASSERT_EQ(slice.edges.size(), 1u);
  EXPECT_EQ(slice.edges[0].src, a);
  EXPECT_EQ(slice.edges[0].bytes, 10u);

  EXPECT_FALSE(g.coords(a).has_value());
  const auto rest = g.edges();
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].src, b);
  EXPECT_EQ(g.totals().msgs, 1u);
  EXPECT_EQ(g.totals().bytes, 20u);
}

TEST(CommGraph, ExtractInstallPairConservesMachineTotals) {
  CommGraph src, dst;
  const MobilePtr a{0, 0}, b{0, 1}, c{1, 0};
  src.record_send(a, b, 0, 100);
  src.record_send(a, c, 1, 40);
  src.record_send(b, a, 0, 60);
  dst.record_send(c, a, 0, 7);
  const auto total_before = src.totals().bytes + dst.totals().bytes;
  const auto msgs_before = src.totals().msgs + dst.totals().msgs;

  // Migrate a from src to dst, then b after it: totals are conserved at
  // every step, and a's counters keep growing additively at the new home.
  dst.install(a, src.extract(a));
  EXPECT_EQ(src.totals().bytes + dst.totals().bytes, total_before);
  dst.record_send(a, b, 0, 100);
  dst.install(b, src.extract(b));
  EXPECT_EQ(src.totals().msgs + dst.totals().msgs, msgs_before + 1);
  EXPECT_EQ(src.totals().bytes + dst.totals().bytes, total_before + 100);

  const auto edges = dst.edges();
  ASSERT_EQ(edges.size(), 4u);
  EXPECT_EQ(edges[0].src, a);
  EXPECT_EQ(edges[0].dst, b);
  EXPECT_EQ(edges[0].msgs, 2u);  // merged: carried slice + local re-record
  EXPECT_EQ(edges[0].bytes, 200u);
}

TEST(CommGraph, SlabMergeIsAssociative) {
  // Three slabs' worth of edge counts merged in two different orders (and
  // groupings) must produce the identical slab — the property that makes the
  // machine-wide graph well defined no matter the migration schedule.
  const MobilePtr a{0, 0}, b{0, 1}, c{1, 0};
  struct Rec {
    MobilePtr src, dst;
    std::uint64_t msgs, bytes;
  };
  const std::vector<std::vector<Rec>> slabs = {
      {{a, b, 1, 10}, {a, c, 2, 20}},
      {{a, b, 3, 30}, {b, c, 1, 5}},
      {{b, c, 4, 40}, {a, c, 1, 1}},
  };
  auto merge_into = [](CommGraph& g, const std::vector<Rec>& slab) {
    for (const auto& r : slab) g.merge_edge(r.src, r.dst, r.msgs, r.bytes);
  };
  CommGraph left;   // (s0 + s1) + s2
  CommGraph right;  // s0 + (s2 + s1) — different order and grouping
  merge_into(left, slabs[0]);
  merge_into(left, slabs[1]);
  merge_into(left, slabs[2]);
  merge_into(right, slabs[2]);
  merge_into(right, slabs[1]);
  merge_into(right, slabs[0]);

  const auto le = left.edges();
  const auto re = right.edges();
  ASSERT_EQ(le.size(), re.size());
  for (std::size_t i = 0; i < le.size(); ++i) {
    EXPECT_EQ(le[i].src, re[i].src);
    EXPECT_EQ(le[i].dst, re[i].dst);
    EXPECT_EQ(le[i].msgs, re[i].msgs);
    EXPECT_EQ(le[i].bytes, re[i].bytes);
  }
  EXPECT_EQ(left.totals().msgs, right.totals().msgs);
  EXPECT_EQ(left.totals().bytes, right.totals().bytes);
  EXPECT_EQ(left.totals().msgs, 12u);
  EXPECT_EQ(left.totals().bytes, 106u);
}

// ---------------------------------------------------------------------------
// Space-filling-curve keys
// ---------------------------------------------------------------------------

TEST(SfcKey, MortonGoldens) {
  // Bit i of x lands at key bit 3i, y at 3i+1, z at 3i+2.
  EXPECT_EQ(ilb::morton_from_cells(0, 0, 0), 0u);
  EXPECT_EQ(ilb::morton_from_cells(1, 0, 0), 1u);
  EXPECT_EQ(ilb::morton_from_cells(0, 1, 0), 2u);
  EXPECT_EQ(ilb::morton_from_cells(0, 0, 1), 4u);
  // (3,5,7): spread3(3)=0b001001, spread3(5)<<1=0b010000010,
  // spread3(7)<<2=0b100100100 -> 431.
  EXPECT_EQ(ilb::morton_from_cells(3, 5, 7), 431u);
  // Cells beyond the 21-bit grid clamp to the last cell.
  EXPECT_EQ(ilb::morton_from_cells(~0u, 0, 0),
            ilb::morton_from_cells(ilb::kSfcCellMax, 0, 0));
}

TEST(SfcKey, BoxNormalizationAndDegenerateAxes) {
  const ilb::SfcBox unit{{0.0, 0.0, 0.0}, {1.0, 1.0, 1.0}};
  EXPECT_EQ(ilb::morton_key({0.0, 0.0, 0.0}, unit), 0u);
  // Z-order respects octants: the all-low corner precedes the all-high one.
  EXPECT_LT(ilb::morton_key({0.1, 0.1, 0.1}, unit),
            ilb::morton_key({0.9, 0.9, 0.9}, unit));
  // Out-of-box coordinates clamp to the faces instead of wrapping.
  EXPECT_EQ(ilb::morton_key({-3.0, 0.0, 0.0}, unit),
            ilb::morton_key({0.0, 0.0, 0.0}, unit));
  // A degenerate (flat) axis collapses to cell 0: 2-D embeddings work.
  const ilb::SfcBox flat{{0.0, 0.0, 0.5}, {1.0, 1.0, 0.5}};
  EXPECT_EQ(ilb::morton_key({0.3, 0.7, 0.1}, flat),
            ilb::morton_key({0.3, 0.7, 0.9}, flat));
}

TEST(SfcKey, HilbertStartsAtOriginAndVisitsCoarseCellsContiguously) {
  EXPECT_EQ(ilb::hilbert_from_cells(0, 0, 0), 0u);
  // Sample the 4x4x4 coarse grid (top two bits per axis). A correct Hilbert
  // curve traverses each coarse block contiguously, and consecutive blocks
  // are face-adjacent: sorted by key, neighbors must differ by exactly one
  // block step on exactly one axis. Morton fails this (its octant jumps are
  // diagonal); this pins the locality property the sfc policy buys.
  constexpr std::uint32_t kStep = 1u << (ilb::kSfcBitsPerDim - 2);
  std::map<std::uint64_t, std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>>
      by_key;
  for (std::uint32_t x = 0; x < 4; ++x) {
    for (std::uint32_t y = 0; y < 4; ++y) {
      for (std::uint32_t z = 0; z < 4; ++z) {
        by_key[ilb::hilbert_from_cells(x * kStep, y * kStep, z * kStep)] = {x, y, z};
      }
    }
  }
  ASSERT_EQ(by_key.size(), 64u);  // all keys distinct
  auto prev = by_key.begin();
  for (auto it = std::next(by_key.begin()); it != by_key.end(); ++it, ++prev) {
    const auto [px, py, pz] = prev->second;
    const auto [x, y, z] = it->second;
    const int dx = std::abs(static_cast<int>(x) - static_cast<int>(px));
    const int dy = std::abs(static_cast<int>(y) - static_cast<int>(py));
    const int dz = std::abs(static_cast<int>(z) - static_cast<int>(pz));
    EXPECT_EQ(dx + dy + dz, 1) << "jump between coarse cells (" << px << ","
                               << py << "," << pz << ") and (" << x << "," << y
                               << "," << z << ")";
  }
}

// ---------------------------------------------------------------------------
// End-to-end: counters follow objects through real MOL migrations
// ---------------------------------------------------------------------------

/// Minimal migratable object for the ring workload below.
class Node : public mol::MobileObject {
 public:
  [[nodiscard]] std::uint32_t type_id() const override { return 1; }
  void serialize(util::ByteWriter&) const override {}
  static std::unique_ptr<mol::MobileObject> make(util::ByteReader&) {
    return std::make_unique<Node>();
  }
};

TEST(CommGraphIntegration, EdgeCountersConservedUnderSfcMigration) {
  // 16 objects, all born on rank 0, strung along the x axis; each handler
  // passes an 8-byte token to the next object in the ring. The sfc policy
  // recuts the curve and ships objects to their segments mid-run, so the
  // recorded edges must survive extract/install over the real migration
  // wire. Machine-wide totals afterwards equal exactly one edge bump per
  // handler-to-handler send.
  constexpr int kObjects = 16;
  constexpr std::int64_t kHops = 6;
  sim::MachineConfig mcfg;
  mcfg.nprocs = 4;
  mcfg.mflops = 100.0;  // 5 Mflop/unit = 50 ms: slow enough to rebalance
  dmcs::PollingConfig pcfg;
  pcfg.mode = dmcs::PollingMode::kPreemptive;
  pcfg.interval_s = 1e-3;
  dmcs::SimMachine machine(mcfg, pcfg);

  RuntimeConfig rcfg;
  rcfg.policy = "sfc";
  Runtime rt(machine, rcfg);
  rt.object_types().add(1, Node::make);
  const auto pass = rt.register_object_handler(
      "pass", [](Context& ctx, mol::MobileObject&, util::ByteReader& r,
                 const mol::Delivery& d) {
        ctx.compute(5.0);
        const auto hops = r.get<std::int64_t>();
        if (hops > 0) {
          const MobilePtr next{0, (d.target.index + 1) % kObjects};
          util::ByteWriter w;
          w.put<std::int64_t>(hops - 1);
          ctx.message(next, d.handler, w.take(), 1.0);
        }
      });

  rt.set_main([&](Context& ctx) {
    if (ctx.rank() != 0) return;
    for (int i = 0; i < kObjects; ++i) {
      const auto ptr = ctx.add_object(std::make_unique<Node>());
      ctx.set_coords(ptr, {(i + 0.5) / kObjects, 0.5, 0.5});
      util::ByteWriter w;
      w.put<std::int64_t>(kHops);
      ctx.message(ptr, pass, w.take(), 1.0);  // main sends are not recorded
    }
  });
  rt.run();
  ASSERT_TRUE(rt.termination_detected());

  CommGraph::Totals sum;
  std::uint64_t migrations = 0;
  int resident = 0, with_coords = 0;
  for (ProcId p = 0; p < mcfg.nprocs; ++p) {
    auto& m = rt.mol_at(p);
    const auto t = m.comm_graph().totals();
    sum.msgs += t.msgs;
    sum.bytes += t.bytes;
    migrations += m.stats().migrations_in;
    for (const auto& ptr : m.local_ptrs()) {
      ++resident;
      if (m.coords(ptr).has_value()) ++with_coords;
    }
  }
  // One recorded send per handler execution that still had hops left: each
  // of the 16 seeded chains makes kHops sends of 8 bytes.
  EXPECT_EQ(sum.msgs, static_cast<std::uint64_t>(kObjects) * kHops);
  EXPECT_EQ(sum.bytes, static_cast<std::uint64_t>(kObjects) * kHops * 8);
  EXPECT_GT(migrations, 0u);  // ...and migrations actually happened
  // Coordinates rode along with every migrated object.
  EXPECT_EQ(resident, kObjects);
  EXPECT_EQ(with_coords, kObjects);
}

TEST(CommGraphIntegration, TopologyAccountingIsOffForScalarPolicies) {
  // With a scalar policy the runtime never enables topology accounting:
  // coordinate registration is a silent no-op and no edges are recorded, so
  // the migrate wire image (and the determinism contract) is untouched.
  sim::MachineConfig mcfg;
  mcfg.nprocs = 2;
  mcfg.mflops = 1000.0;
  dmcs::SimMachine machine(mcfg);
  RuntimeConfig rcfg;
  rcfg.policy = "null";
  Runtime rt(machine, rcfg);
  rt.object_types().add(1, Node::make);
  const auto work = rt.register_object_handler(
      "work", [](Context& ctx, mol::MobileObject&, util::ByteReader&,
                 const mol::Delivery& d) {
        ctx.compute(1.0);
        if (d.target.index == 0) ctx.message({0, 1}, d.handler, {}, 1.0);
      });
  MobilePtr first;
  rt.set_main([&](Context& ctx) {
    if (ctx.rank() != 0) return;
    first = ctx.add_object(std::make_unique<Node>());
    ctx.set_coords(first, {0.5, 0.5, 0.5});
    ctx.add_object(std::make_unique<Node>());
    ctx.message(first, work, {}, 1.0);
  });
  rt.run();
  EXPECT_FALSE(rt.mol_at(0).topology_enabled());
  EXPECT_FALSE(rt.mol_at(0).coords(first).has_value());
  EXPECT_EQ(rt.mol_at(0).comm_graph().totals().msgs, 0u);
  (void)work;
}

}  // namespace
}  // namespace prema
