#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "dmcs/sim_machine.hpp"
#include "fault/fault_plan.hpp"
#include "mol/mol.hpp"
#include "support/byte_buffer.hpp"

namespace prema::mol {
namespace {

using dmcs::Message;
using dmcs::MsgKind;
using util::ByteReader;
using util::ByteWriter;

/// Trivial migratable object: a named counter.
class Counter : public MobileObject {
 public:
  explicit Counter(std::int64_t v = 0) : value(v) {}
  [[nodiscard]] std::uint32_t type_id() const override { return 1; }
  void serialize(util::ByteWriter& w) const override { w.put<std::int64_t>(value); }
  static std::unique_ptr<MobileObject> make(util::ByteReader& r) {
    return std::make_unique<Counter>(r.get<std::int64_t>());
  }
  std::int64_t value;
};

struct SeenDelivery {
  ProcId at;
  Delivery d;
  double time;
};

/// Harness: SimMachine + MolLayer with recording hooks on every node, plus a
/// "migrate command" handler so tests can ask a remote owner to move an
/// object (a stand-in for what a balancing policy does).
struct MolHarness {
  explicit MolHarness(int nprocs, dmcs::PollingConfig polling = {}) {
    sim::MachineConfig cfg;
    cfg.nprocs = nprocs;
    machine = std::make_unique<dmcs::SimMachine>(cfg, polling);
    layer = std::make_unique<MolLayer>(*machine);
    layer->types().add(1, Counter::make);
    migrate_cmd = machine->registry().add(
        "test.migrate", [this](dmcs::Node& n, Message&& m) {
          ByteReader r(m.payload);
          MobilePtr ptr;
          ptr.home = r.get<ProcId>();
          ptr.index = r.get<std::uint32_t>();
          const auto dst = r.get<ProcId>();
          layer->at(n.rank()).migrate(ptr, dst);
        });
    step_cmd = machine->registry().add(
        "test.step", [this](dmcs::Node& n, Message&& m) {
          ByteReader r(m.payload);
          steps.at(r.get<std::uint32_t>())(n);
        });
    for (ProcId p = 0; p < nprocs; ++p) {
      Mol::Hooks hooks;
      hooks.on_delivery = [this, p](Delivery&& d) {
        seen.push_back({p, std::move(d), machine->sim_node(p).now()});
      };
      hooks.take_queued = [](const MobilePtr&) { return std::vector<Delivery>{}; };
      layer->at(p).set_hooks(std::move(hooks));
    }
  }

  /// Ask `owner` (current holder) to migrate `ptr` to `dst`, from `n`'s rank.
  void send_migrate_cmd(dmcs::Node& n, ProcId owner, const MobilePtr& ptr,
                        ProcId dst) {
    ByteWriter w;
    w.put<ProcId>(ptr.home);
    w.put<std::uint32_t>(ptr.index);
    w.put<ProcId>(dst);
    n.send(owner, Message{migrate_cmd, n.rank(), MsgKind::kApp, w.take()});
  }

  /// Run a registered step function on `dst` as its own handler invocation —
  /// unlike code inside main(), a step observes everything that arrived
  /// before it.
  void send_step(dmcs::Node& n, ProcId dst, std::uint32_t idx) {
    ByteWriter w;
    w.put<std::uint32_t>(idx);
    n.send(dst, Message{step_cmd, n.rank(), MsgKind::kApp, w.take()});
  }

  dmcs::HandlerId migrate_cmd = dmcs::kNoHandler;
  dmcs::HandlerId step_cmd = dmcs::kNoHandler;
  std::vector<std::function<void(dmcs::Node&)>> steps;

  /// Run with per-rank main functions.
  double run(std::vector<std::function<void(dmcs::Node&)>> mains) {
    return machine->run([&, mains](ProcId p) {
      class P : public dmcs::Program {
       public:
        explicit P(std::function<void(dmcs::Node&)> m) : m_(std::move(m)) {}
        void main(dmcs::Node& n) override {
          if (m_) m_(n);
        }

       private:
        std::function<void(dmcs::Node&)> m_;
      };
      return std::make_unique<P>(p < static_cast<ProcId>(mains.size()) ? mains[p]
                                                                       : nullptr);
    });
  }

  std::unique_ptr<dmcs::SimMachine> machine;
  std::unique_ptr<MolLayer> layer;
  std::vector<SeenDelivery> seen;
};

std::vector<std::uint8_t> int_payload(std::int64_t v) {
  ByteWriter w;
  w.put<std::int64_t>(v);
  return w.take();
}

std::int64_t payload_int(const Delivery& d) {
  ByteReader r(d.payload);
  return r.get<std::int64_t>();
}

TEST(MobilePtr, NullAndHashing) {
  EXPECT_TRUE(kNullMobilePtr.is_null());
  MobilePtr a{2, 7}, b{2, 7}, c{2, 8};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(std::hash<MobilePtr>{}(a), std::hash<MobilePtr>{}(b));
  EXPECT_FALSE(a.is_null());
}

TEST(ObjectTypeRegistry, RoundTripsThroughFactory) {
  ObjectTypeRegistry reg;
  reg.add(1, Counter::make);
  EXPECT_TRUE(reg.contains(1));
  EXPECT_FALSE(reg.contains(2));
  Counter original(42);
  ByteWriter w;
  original.serialize(w);
  ByteReader r(w.bytes());
  auto copy = reg.make(1, r);
  EXPECT_EQ(static_cast<Counter&>(*copy).value, 42);
}

TEST(Mol, LocalObjectRegistrationAndLookup) {
  MolHarness h(2);
  MobilePtr ptr;
  h.run({[&](dmcs::Node&) {
    ptr = h.layer->at(0).add_object(std::make_unique<Counter>(5));
  }});
  EXPECT_EQ(ptr.home, 0);
  EXPECT_TRUE(h.layer->at(0).is_local(ptr));
  EXPECT_FALSE(h.layer->at(1).is_local(ptr));
  auto* obj = h.layer->at(0).find(ptr);
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(static_cast<Counter*>(obj)->value, 5);
  EXPECT_EQ(h.layer->at(0).local_count(), 1u);
  EXPECT_EQ(h.layer->at(0).local_ptrs().size(), 1u);
}

TEST(Mol, MessageToLocalObjectDelivers) {
  MolHarness h(1);
  h.run({[&](dmcs::Node&) {
    auto ptr = h.layer->at(0).add_object(std::make_unique<Counter>());
    h.layer->at(0).message(ptr, 7, int_payload(99), 2.5);
  }});
  ASSERT_EQ(h.seen.size(), 1u);
  EXPECT_EQ(h.seen[0].at, 0);
  EXPECT_EQ(h.seen[0].d.handler, 7u);
  EXPECT_EQ(h.seen[0].d.origin, 0);
  EXPECT_DOUBLE_EQ(h.seen[0].d.weight, 2.5);
  EXPECT_EQ(h.seen[0].d.delivery_no, 0u);
  EXPECT_EQ(payload_int(h.seen[0].d), 99);
}

TEST(Mol, MessageToRemoteObjectDelivers) {
  MolHarness h(2);
  MobilePtr ptr;
  h.run({
      [&](dmcs::Node& n) {
        ptr = h.layer->at(0).add_object(std::make_unique<Counter>());
        (void)n;
      },
      [&](dmcs::Node&) {
        // Rank 1 boots after rank 0's main created the object.
        h.layer->at(1).message(ptr, 3, int_payload(11), 1.0);
      },
  });
  ASSERT_EQ(h.seen.size(), 1u);
  EXPECT_EQ(h.seen[0].at, 0);
  EXPECT_EQ(h.seen[0].d.origin, 1);
  EXPECT_EQ(payload_int(h.seen[0].d), 11);
}

TEST(Mol, MigrationMovesObjectStateAndSetsForwarding) {
  MolHarness h(3);
  MobilePtr ptr;
  h.run({
      [&](dmcs::Node&) {
        ptr = h.layer->at(0).add_object(std::make_unique<Counter>(123));
        h.layer->at(0).migrate(ptr, 2);
      },
  });
  EXPECT_FALSE(h.layer->at(0).is_local(ptr));
  ASSERT_TRUE(h.layer->at(2).is_local(ptr));
  EXPECT_EQ(static_cast<Counter*>(h.layer->at(2).find(ptr))->value, 123);
  EXPECT_EQ(h.layer->at(0).stats().migrations_out, 1u);
  EXPECT_EQ(h.layer->at(2).stats().migrations_in, 1u);
}

TEST(Mol, MessagesChaseAMigratedObject) {
  MolHarness h(3);
  MobilePtr ptr;
  h.run({
      [&](dmcs::Node&) {
        ptr = h.layer->at(0).add_object(std::make_unique<Counter>());
        h.layer->at(0).migrate(ptr, 1);
      },
      nullptr,
      [&](dmcs::Node& n) {
        // Rank 2 sends toward the home (rank 0), which must forward to rank 1.
        n.compute_seconds(0.01, util::TimeCategory::kCallback);  // let migration land
        h.layer->at(2).message(ptr, 1, int_payload(7), 1.0);
      },
  });
  ASSERT_EQ(h.seen.size(), 1u);
  EXPECT_EQ(h.seen[0].at, 1);
  EXPECT_EQ(payload_int(h.seen[0].d), 7);
  // Either the home forwarded it, or the home directory already knew; both
  // must leave the object reachable. The home learned the location.
  EXPECT_TRUE(h.layer->at(1).is_local(ptr));
}

TEST(Mol, ForwardingTriggersLocationUpdateToSender) {
  MolHarness h(3);
  MobilePtr ptr;
  // step 0: burn time, then hand off to step 1 as a fresh handler invocation
  // (so the location update that arrived meanwhile is processed in between).
  h.steps.push_back([&](dmcs::Node& n) {
    n.compute_seconds(0.05, util::TimeCategory::kCallback);
    h.send_step(n, 2, 1);
  });
  // step 1: the follow-up message — by now rank 2 knows the real location.
  h.steps.push_back([&](dmcs::Node&) {
    h.layer->at(2).message(ptr, 1, int_payload(2), 1.0);
  });
  h.run({
      [&](dmcs::Node&) {
        ptr = h.layer->at(0).add_object(std::make_unique<Counter>());
        // Move it away immediately; home keeps the directory entry.
        h.layer->at(0).migrate(ptr, 1);
      },
      nullptr,
      [&](dmcs::Node& n) {
        n.compute_seconds(0.01, util::TimeCategory::kCallback);
        h.layer->at(2).message(ptr, 1, int_payload(1), 1.0);  // forwarded
        // Send the follow-up as a separate step so the location update
        // (which arrives while main is still running) gets processed first.
        h.send_step(n, 2, 0);
      },
  });
  ASSERT_EQ(h.seen.size(), 2u);
  EXPECT_EQ(payload_int(h.seen[0].d), 1);
  EXPECT_EQ(payload_int(h.seen[1].d), 2);
  // The second message went straight to rank 1: total forwards in the system
  // stayed at whatever the first message needed.
  const auto total_forwards =
      h.layer->at(0).stats().forwards + h.layer->at(2).stats().forwards;
  EXPECT_EQ(total_forwards, 1u);
}

TEST(Mol, OutOfOrderArrivalsAreResequenced) {
  // Force a genuine overtake across *different* routes: the first message is
  // huge and takes the stale two-hop path (1 -> 0 -> 2); by the time it lands,
  // the sender (also the home) has already learned the new location from the
  // install notification and sent a small second message direct (1 -> 2),
  // which arrives first. The MOL must hold it until the first one shows up.
  MolHarness h(3);
  MobilePtr ptr;
  // step 0 (on rank 1): wait out the install notification, then hop to step 1.
  h.steps.push_back([&](dmcs::Node& n) {
    n.compute_seconds(0.03, util::TimeCategory::kCallback);
    h.send_step(n, 1, 1);
  });
  // step 1 (on rank 1): seq 1, small and — thanks to the refreshed home
  // directory — direct to rank 2, far ahead of the 1 MB seq 0.
  h.steps.push_back([&](dmcs::Node&) {
    h.layer->at(1).message(ptr, 1, int_payload(1), 1.0);
  });
  h.run({
      nullptr,
      [&](dmcs::Node& n) {
        ptr = h.layer->at(1).add_object(std::make_unique<Counter>());
        h.layer->at(1).migrate(ptr, 0);
        n.compute_seconds(0.005, util::TimeCategory::kCallback);
        // seq 0: 1 MB toward rank 0 (stale by the time it lands).
        h.layer->at(1).message(ptr, 1, std::vector<std::uint8_t>(1 << 20, 0xAB), 1.0);
        h.send_step(n, 1, 0);
      },
      [&](dmcs::Node& n) {
        // While seq 0 is on the wire, ask rank 0 to migrate the object here.
        n.compute_seconds(0.007, util::TimeCategory::kCallback);
        h.send_migrate_cmd(n, 0, ptr, 2);
      },
  });
  ASSERT_EQ(h.seen.size(), 2u);
  EXPECT_EQ(h.seen[0].d.delivery_no, 0u);
  EXPECT_EQ(h.seen[1].d.delivery_no, 1u);
  EXPECT_EQ(payload_int(h.seen[1].d), 1);
  EXPECT_EQ(h.seen[0].at, 2);
  EXPECT_EQ(h.seen[1].at, 2);
  // The small message really did arrive early and got buffered.
  EXPECT_EQ(h.layer->at(2).stats().resequenced, 1u);
}

TEST(Mol, PerSenderOrderingHoldsUnderInterleaving) {
  MolHarness h(3);
  MobilePtr ptr;
  h.run({
      [&](dmcs::Node&) {
        ptr = h.layer->at(0).add_object(std::make_unique<Counter>());
      },
      [&](dmcs::Node&) {
        for (int i = 0; i < 5; ++i) h.layer->at(1).message(ptr, 1, int_payload(i), 1.0);
      },
      [&](dmcs::Node&) {
        for (int i = 0; i < 5; ++i) h.layer->at(2).message(ptr, 1, int_payload(i), 1.0);
      },
  });
  ASSERT_EQ(h.seen.size(), 10u);
  std::int64_t next1 = 0, next2 = 0;
  for (const auto& s : h.seen) {
    if (s.d.origin == 1) { EXPECT_EQ(payload_int(s.d), next1++); }
    if (s.d.origin == 2) { EXPECT_EQ(payload_int(s.d), next2++); }
  }
  EXPECT_EQ(next1, 5);
  EXPECT_EQ(next2, 5);
}

TEST(Mol, MigrationCarriesOrderingState) {
  // Send a stream to an object, migrate it mid-stream (from its owner), and
  // check the stream stays in order with continuous delivery numbers.
  MolHarness h(3);
  MobilePtr ptr;
  h.run({
      [&](dmcs::Node&) {
        ptr = h.layer->at(0).add_object(std::make_unique<Counter>());
      },
      [&](dmcs::Node& n) {
        for (int i = 0; i < 3; ++i) h.layer->at(1).message(ptr, 1, int_payload(i), 1.0);
        n.compute_seconds(0.05, util::TimeCategory::kCallback);
        // By now the first batch has been accepted at rank 0. Ask rank 0 to
        // move the object (what a balancing policy would do).
        h.send_migrate_cmd(n, 0, ptr, 2);
        n.compute_seconds(0.05, util::TimeCategory::kCallback);
        for (int i = 3; i < 6; ++i) h.layer->at(1).message(ptr, 1, int_payload(i), 1.0);
      },
  });
  ASSERT_EQ(h.seen.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(payload_int(h.seen[i].d), static_cast<std::int64_t>(i));
    EXPECT_EQ(h.seen[i].d.delivery_no, i);
  }
  EXPECT_EQ(h.seen[0].at, 0);
  EXPECT_EQ(h.seen[5].at, 2);
}

TEST(Mol, LocalPtrsStaySortedAcrossMigrationsInAndOut) {
  // Rank 0 creates six objects, sends some away (one of them on to a third
  // rank) and receives one of rank 1's; every rank's local_ptrs() must come
  // back in pointer order whatever the directory's internal layout.
  MolHarness h(3);
  std::vector<MobilePtr> own;
  MobilePtr guest;
  h.run({
      [&](dmcs::Node& n) {
        for (int i = 0; i < 6; ++i) {
          own.push_back(h.layer->at(0).add_object(std::make_unique<Counter>(i)));
        }
        h.layer->at(0).migrate(own[1], 1);
        h.layer->at(0).migrate(own[4], 2);
        n.compute_seconds(0.01, util::TimeCategory::kCallback);  // let it land
        h.send_migrate_cmd(n, 1, own[1], 2);                      // 0 -> 1 -> 2
      },
      [&](dmcs::Node&) {
        for (int i = 0; i < 3; ++i) {
          const auto ptr = h.layer->at(1).add_object(std::make_unique<Counter>(10 + i));
          if (i == 1) guest = ptr;
        }
        h.layer->at(1).migrate(guest, 0);
      },
  });
  const auto sorted = [](std::vector<MobilePtr> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  const std::vector<MobilePtr> at0 = {own[0], own[2], own[3], own[5], guest};
  const std::vector<MobilePtr> at1 = {MobilePtr{1, 0}, MobilePtr{1, 2}};
  const std::vector<MobilePtr> at2 = {own[1], own[4]};
  EXPECT_EQ(h.layer->at(0).local_ptrs(), sorted(at0));
  EXPECT_EQ(h.layer->at(1).local_ptrs(), sorted(at1));
  EXPECT_EQ(h.layer->at(2).local_ptrs(), sorted(at2));
  for (ProcId p = 0; p < 3; ++p) {
    const auto ptrs = h.layer->at(p).local_ptrs();
    EXPECT_TRUE(std::is_sorted(ptrs.begin(), ptrs.end())) << "rank " << p;
    EXPECT_EQ(ptrs.size(), h.layer->at(p).local_count());
  }
  // The home's directory, refreshed by rank 2's install notice, wins over the
  // forwarding address rank 0 recorded when own[1] left for rank 1.
  EXPECT_EQ(h.layer->at(0).location_hint(own[1]), 2);
  EXPECT_EQ(h.layer->at(0).location_hint(own[4]), 2);
  EXPECT_EQ(h.layer->at(0).location_hint(own[0]), 0);
  EXPECT_EQ(h.layer->at(1).location_hint(guest), 0);
}

// ---------------------------------------------------------------------------
// Adversarial wire: the same ordering contracts must hold when the network
// itself drops, duplicates and reorders messages (reliable transport +
// two-phase migration absorb the faults).
// ---------------------------------------------------------------------------

/// A deliberately hostile schedule: every link drops 10%, duplicates 15% and
/// reorders 30% of messages inside a 2 ms jitter window.
std::shared_ptr<fault::FaultPlan> hostile_plan(int nprocs,
                                               std::uint64_t seed = 7) {
  fault::FaultProfile prof;
  prof.name = "test-hostile";
  prof.link.drop_p = 0.10;
  prof.link.dup_p = 0.15;
  prof.link.reorder_p = 0.30;
  prof.link.reorder_window_s = 2e-3;
  return std::make_shared<fault::FaultPlan>(prof, seed, nprocs);
}

TEST(MolFaults, PerSenderOrderingHoldsUnderAdversarialWire) {
  MolHarness h(3);
  h.machine->set_fault_plan(hostile_plan(3));
  MobilePtr ptr;
  h.run({
      [&](dmcs::Node&) {
        ptr = h.layer->at(0).add_object(std::make_unique<Counter>());
      },
      [&](dmcs::Node&) {
        for (int i = 0; i < 20; ++i) h.layer->at(1).message(ptr, 1, int_payload(i), 1.0);
      },
      [&](dmcs::Node&) {
        for (int i = 0; i < 20; ++i) h.layer->at(2).message(ptr, 1, int_payload(i), 1.0);
      },
  });
  // Exactly once and per-sender FIFO: each origin's stream reads 0..19.
  ASSERT_EQ(h.seen.size(), 40u);
  std::int64_t next1 = 0, next2 = 0;
  for (const auto& s : h.seen) {
    if (s.d.origin == 1) { EXPECT_EQ(payload_int(s.d), next1++); }
    if (s.d.origin == 2) { EXPECT_EQ(payload_int(s.d), next2++); }
  }
  EXPECT_EQ(next1, 20);
  EXPECT_EQ(next2, 20);
}

TEST(MolFaults, MigrationIsTransactionalUnderDupAndReorder) {
  // Move an object across a hostile wire repeatedly: a dropped offer must be
  // retransmitted, a duplicated offer must install exactly one instance, and
  // every handoff must close (no in-transit entries left open).
  MolHarness h(3);
  h.machine->set_fault_plan(hostile_plan(3, 11));
  MobilePtr ptr;
  h.steps.push_back([&](dmcs::Node& n) {
    n.compute_seconds(0.05, util::TimeCategory::kCallback);
    h.send_migrate_cmd(n, 1, ptr, 2);  // hop 2: rank 1 -> rank 2
  });
  h.run({
      [&](dmcs::Node& n) {
        ptr = h.layer->at(0).add_object(std::make_unique<Counter>(77));
        h.layer->at(0).migrate(ptr, 1);  // hop 1: rank 0 -> rank 1
        h.send_step(n, 0, 0);
      },
  });
  // Exactly one live instance, at the final destination, state intact.
  int resident = 0;
  for (ProcId p = 0; p < 3; ++p) {
    if (h.layer->at(p).is_local(ptr)) ++resident;
    EXPECT_EQ(h.layer->at(p).in_transit_count(), 0u) << "open handoff at " << p;
  }
  EXPECT_EQ(resident, 1);
  ASSERT_TRUE(h.layer->at(2).is_local(ptr));
  EXPECT_EQ(static_cast<Counter*>(h.layer->at(2).find(ptr))->value, 77);
  EXPECT_EQ(h.layer->at(0).stats().migrations_out, 1u);
  EXPECT_EQ(h.layer->at(2).stats().migrations_in, 1u);
}

TEST(MolFaults, StreamSurvivesMigrationUnderAdversarialWire) {
  // MigrationCarriesOrderingState, but with the wire fighting back: the
  // stream must still arrive exactly once, in order, with continuous
  // delivery numbers spanning the handoff.
  MolHarness h(3);
  h.machine->set_fault_plan(hostile_plan(3, 23));
  MobilePtr ptr;
  h.run({
      [&](dmcs::Node&) {
        ptr = h.layer->at(0).add_object(std::make_unique<Counter>());
      },
      [&](dmcs::Node& n) {
        for (int i = 0; i < 3; ++i) h.layer->at(1).message(ptr, 1, int_payload(i), 1.0);
        n.compute_seconds(0.05, util::TimeCategory::kCallback);
        h.send_migrate_cmd(n, 0, ptr, 2);
        n.compute_seconds(0.05, util::TimeCategory::kCallback);
        for (int i = 3; i < 6; ++i) h.layer->at(1).message(ptr, 1, int_payload(i), 1.0);
      },
  });
  ASSERT_EQ(h.seen.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(payload_int(h.seen[i].d), static_cast<std::int64_t>(i));
    EXPECT_EQ(h.seen[i].d.delivery_no, i);
  }
}

TEST(MolDeathTest, MessageToNullPointerAborts) {
  MolHarness h(1);
  EXPECT_DEATH(h.run({[&](dmcs::Node&) {
                 h.layer->at(0).message(kNullMobilePtr, 1, {}, 1.0);
               }}),
               "null mobile pointer");
}

TEST(MolDeathTest, MigrateNonLocalAborts) {
  MolHarness h(2);
  EXPECT_DEATH(h.run({[&](dmcs::Node&) {
                 h.layer->at(0).migrate(MobilePtr{1, 0}, 0);
               }}),
               "non-local");
}

}  // namespace
}  // namespace prema::mol
