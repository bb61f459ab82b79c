// Microbenchmarks (google-benchmark, real CPU time): costs of the runtime's
// building blocks — serialization, scheduler operations, MOL bookkeeping,
// policy decision cycles, and the discrete-event engine itself. These
// measure the *implementation*, complementing the virtual-time experiment
// binaries.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <vector>

#include "dmcs/sim_machine.hpp"
#include "ilb/balancer.hpp"
#include "ilb/policies/sfc.hpp"
#include "ilb/scheduler.hpp"
#include "mol/mol.hpp"
#include "sim/event_queue.hpp"
#include "support/byte_buffer.hpp"

namespace {

using namespace prema;

void BM_ByteWriterRoundTrip(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> blob(n, 0xAB);
  for (auto _ : state) {
    util::ByteWriter w(n + 16);
    w.put<std::uint64_t>(42);
    w.put_bytes(blob);
    util::ByteReader r(w.bytes());
    benchmark::DoNotOptimize(r.get<std::uint64_t>());
    benchmark::DoNotOptimize(r.get_bytes());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ByteWriterRoundTrip)->Arg(64)->Arg(1024)->Arg(65536);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  // Schedule n events over `distinct` time values, then drain. (1000, 1000)
  // spreads them out; (110592, 1) is fig3's paper-scale burst: 128 procs x
  // 864 units all pending at one time, every tie broken by sequence.
  const auto n = static_cast<int>(state.range(0));
  const auto distinct = static_cast<int>(state.range(1));
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < n; ++i) {
      q.schedule(static_cast<double>((static_cast<std::int64_t>(i) * 7919) % distinct), [] {});
    }
    while (!q.empty()) q.run_next();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRun)->Args({1000, 1000})->Args({110592, 1});

void BM_EventQueueCancelReschedule(benchmark::State& state) {
  // SimNode::ensure_service: an arrival earlier than a node's pending service
  // event cancels it and schedules a new one. 128 nodes each keep one event
  // pending; per item, one node is pulled forward and the earliest fires.
  constexpr int kNodes = 128;
  sim::EventQueue q;
  std::vector<sim::EventId> pending(kNodes);
  int fired = -1;
  const auto schedule = [&](int p, double t) {
    pending[static_cast<std::size_t>(p)] = q.schedule(t, [&fired, p] { fired = p; });
  };
  for (int p = 0; p < kNodes; ++p) schedule(p, 1.0 + 1e-3 * p);
  double now = 0.0;
  int next = 0;
  for (auto _ : state) {
    q.cancel(pending[static_cast<std::size_t>(next)]);
    schedule(next, now + 1e-4);
    next = (next + 1) % kNodes;
    now = q.run_next();
    schedule(fired, now + 1.0);  // the served node waits for its next arrival
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueCancelReschedule);

void BM_SchedulerEnqueuePick(benchmark::State& state) {
  const auto objects = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    ilb::Scheduler s;
    for (std::uint32_t i = 0; i < objects; ++i) {
      mol::Delivery d;
      d.target = {0, i};
      d.handler = 1;
      d.weight = 1.0;
      d.delivery_no = 0;
      s.enqueue(std::move(d));
    }
    while (auto d = s.pick()) {
      benchmark::DoNotOptimize(d->target);
      s.complete();
    }
  }
  state.SetItemsProcessed(state.iterations() * objects);
}
BENCHMARK(BM_SchedulerEnqueuePick)->Arg(64)->Arg(1024);

void BM_MolLocalMessageDelivery(benchmark::State& state) {
  // One emulated processor delivering messages to a local object — the
  // fast path of Figure 2's ilb_message.
  class Obj : public mol::MobileObject {
   public:
    [[nodiscard]] std::uint32_t type_id() const override { return 1; }
    void serialize(util::ByteWriter&) const override {}
  };
  for (auto _ : state) {
    state.PauseTiming();
    sim::MachineConfig cfg;
    cfg.nprocs = 1;
    dmcs::SimMachine machine(cfg);
    mol::MolLayer layer(machine);
    std::uint64_t delivered = 0;
    mol::Mol::Hooks hooks;
    hooks.on_delivery = [&delivered](mol::Delivery&&) { ++delivered; };
    hooks.take_queued = [](const mol::MobilePtr&) {
      return std::vector<mol::Delivery>{};
    };
    layer.at(0).set_hooks(std::move(hooks));
    state.ResumeTiming();

    class P : public dmcs::Program {
     public:
      explicit P(mol::Mol& mol) : mol_(mol) {}
      void main(dmcs::Node&) override {
        auto ptr = mol_.add_object(std::make_unique<Obj>());
        for (int i = 0; i < 1000; ++i) mol_.message(ptr, 1, {}, 1.0);
      }

     private:
      mol::Mol& mol_;
    };
    machine.run([&](ProcId) { return std::make_unique<P>(layer.at(0)); });
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_MolLocalMessageDelivery);

void BM_ObjectMigrationSerialize(benchmark::State& state) {
  // Serialization cost of a mobile object of the given payload size.
  class Blob : public mol::MobileObject {
   public:
    explicit Blob(std::size_t n) : data(n, 0x5A) {}
    [[nodiscard]] std::uint32_t type_id() const override { return 1; }
    void serialize(util::ByteWriter& w) const override { w.put_vector(data); }
    std::vector<std::uint8_t> data;
  };
  Blob obj(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    util::ByteWriter w;
    obj.serialize(w);
    benchmark::DoNotOptimize(w.bytes().data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ObjectMigrationSerialize)->Arg(1024)->Arg(1 << 20);

// ---------------------------------------------------------------------------
// Policy decision cycles, run against a minimal in-file PolicyContext so the
// figure is the policy layer alone (no emulator, no MOL).
// ---------------------------------------------------------------------------

/// One rank's view for a topology policy: a fixed set of resident objects
/// with coordinates; sends and migrations are counted, not performed, so
/// every iteration sees the same state.
class BenchContext final : public ilb::PolicyContext {
 public:
  BenchContext(ProcId rank, int nprocs) : rank_(rank), nprocs_(nprocs), rng_(1) {}

  [[nodiscard]] ProcId rank() const override { return rank_; }
  [[nodiscard]] int nprocs() const override { return nprocs_; }
  [[nodiscard]] double now() const override { return now_; }
  [[nodiscard]] util::Rng& rng() override { return rng_; }
  [[nodiscard]] double local_load() const override { return load_; }
  [[nodiscard]] double low_watermark() const override { return 2.0; }
  [[nodiscard]] double donate_threshold() const override { return 4.0; }
  [[nodiscard]] std::vector<ilb::Scheduler::ObjectLoad> migratable() const override {
    return objects_;
  }
  void migrate_object(const mol::MobilePtr&, ProcId) override { ++migrations_; }
  void send_policy(ProcId, ilb::PolicyTag, std::vector<std::uint8_t> body) override {
    last_body_ = std::move(body);
    ++sends_;
  }
  void charge_seconds(double) override {}
  void request_poll_after(double) override {}
  [[nodiscard]] bool topology_enabled() const override { return true; }
  [[nodiscard]] std::optional<mol::Coords> object_coords(
      const mol::MobilePtr& ptr) const override {
    const auto it = coords_.find(ptr);
    if (it == coords_.end()) return std::nullopt;
    return it->second;
  }

  /// `n` objects homed on `home`, spread along the x axis in `slot` of
  /// `slots` interleaved lanes, each weighing `weight`.
  void add_objects(ProcId home, int n, int slot, int slots, double weight) {
    for (int i = 0; i < n; ++i) {
      const mol::MobilePtr ptr{home, static_cast<std::uint32_t>(i)};
      const double x = (i * slots + slot + 0.5) / (n * slots);
      coords_[ptr] = {x, 0.5, 0.5};
      objects_.push_back({ptr, 1, weight});
      load_ += weight;
    }
  }

  ProcId rank_;
  int nprocs_;
  util::Rng rng_;
  double now_ = 0.0;
  double load_ = 0.0;
  std::vector<ilb::Scheduler::ObjectLoad> objects_;
  std::map<mol::MobilePtr, mol::Coords> coords_;
  std::vector<std::uint8_t> last_body_;
  std::int64_t sends_ = 0;
  std::int64_t migrations_ = 0;
};

constexpr int kSfcRanks = 16;

void BM_SfcReport(benchmark::State& state) {
  // A member rank's report: bucket every resident object, build the sorted
  // histogram and serialize it for the coordinator.
  const int n = static_cast<int>(state.range(0));
  BenchContext ctx(1, kSfcRanks);
  ctx.add_objects(1, n, 0, 1, 1.0);
  ilb::SfcPolicy policy;
  policy.init(ctx);
  for (auto _ : state) {
    policy.on_poll(ctx);
    benchmark::DoNotOptimize(ctx.last_body_.data());
    ctx.now_ += 1.0;
  }
  if (ctx.sends_ != static_cast<std::int64_t>(state.iterations())) {
    state.SkipWithError("not every poll sent a report");
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SfcReport)->Arg(54)->Arg(864);

void BM_SfcCoordinatorRecut(benchmark::State& state) {
  // The coordinator's full decision cycle: its own report, every other
  // rank's report off the wire, then merge, cut and broadcast. Rank r holds
  // r + 1 load per object in lane r of the x axis, so the placement is
  // imbalanced and every round recuts.
  const int n = static_cast<int>(state.range(0));
  std::vector<std::vector<std::uint8_t>> wire(kSfcRanks);
  for (ProcId r = 1; r < kSfcRanks; ++r) {
    BenchContext member(r, kSfcRanks);
    member.add_objects(r, n, r, kSfcRanks, r + 1.0);
    ilb::SfcPolicy reporter;
    reporter.init(member);
    reporter.on_poll(member);
    wire[static_cast<std::size_t>(r)] = std::move(member.last_body_);
  }
  BenchContext ctx(0, kSfcRanks);
  ctx.add_objects(0, n, 0, kSfcRanks, 1.0);
  ilb::SfcPolicy policy;
  policy.init(ctx);
  for (auto _ : state) {
    policy.on_poll(ctx);
    for (ProcId r = 1; r < kSfcRanks; ++r) {
      util::ByteReader body(wire[static_cast<std::size_t>(r)]);
      policy.on_message(ctx, r, 20, body);
    }
    benchmark::DoNotOptimize(ctx.last_body_.data());
    ctx.now_ += 1.0;
  }
  if (static_cast<std::int64_t>(policy.stats().cuts_broadcast) != state.iterations()) {
    state.SkipWithError("not every round recut");
  }
  state.SetItemsProcessed(state.iterations() * kSfcRanks * n);
}
BENCHMARK(BM_SfcCoordinatorRecut)->Arg(54)->Arg(864);

// ---------------------------------------------------------------------------
// Balancer framework paths around a policy: policy wire framing and the
// gossip digest, over a processor that drops what is sent.
// ---------------------------------------------------------------------------

/// One processor whose clock the benchmark advances by hand; sends are
/// counted and dropped.
class DropNode final : public dmcs::Node {
 public:
  DropNode(ProcId rank, int nprocs) : Node(rank, nprocs) {}
  [[nodiscard]] double now() const override { return now_; }
  [[nodiscard]] util::Rng& rng() override { return rng_; }
  [[nodiscard]] util::TimeLedger& ledger() override { return ledger_; }
  [[nodiscard]] const dmcs::PollingConfig& polling() const override { return polling_; }
  [[nodiscard]] dmcs::HandlerRegistry& registry() override { return registry_; }
  void send(ProcId, dmcs::Message msg) override {
    benchmark::DoNotOptimize(msg.payload.data());
    ++sends_;
  }
  void send_self_after(double, dmcs::Message) override {}
  void cancel_timers() override {}
  void compute(double, util::TimeCategory) override {}
  void compute_seconds(double, util::TimeCategory) override {}
  void execute(dmcs::Message&&, std::function<void()>) override {}
  [[nodiscard]] bool executing() const override { return false; }
  [[nodiscard]] std::size_t inbox_size() const override { return 0; }

  double now_ = 0.0;
  std::int64_t sends_ = 0;

 private:
  util::Rng rng_;
  util::TimeLedger ledger_;
  dmcs::PollingConfig polling_;
  dmcs::HandlerRegistry registry_;
};

/// A topology policy that decides nothing: a poll is the framework's work.
class QuietTopologyPolicy final : public ilb::Policy {
 public:
  [[nodiscard]] std::string_view name() const override { return "quiet"; }
  void on_message(ilb::PolicyContext&, ProcId, ilb::PolicyTag, util::ByteReader&) override {}
  [[nodiscard]] bool wants_topology() const override { return true; }
  void on_gossip(ilb::PolicyContext&, const ilb::GossipSummary&) override {}
};

class Blank final : public mol::MobileObject {
 public:
  [[nodiscard]] std::uint32_t type_id() const override { return 1; }
  void serialize(util::ByteWriter&) const override {}
};

/// Rank 0 of `nprocs`: a balancer over a DropNode, an empty scheduler and a
/// MOL with topology accounting on.
struct BalancerRig {
  explicit BalancerRig(int nprocs)
      : node(0, nprocs),
        mol(node, types, 0, 0, 0, 0, 0),
        balancer(node, mol, sched, std::make_unique<QuietTopologyPolicy>(),
                 ilb::BalancerConfig{}, 1) {
    mol.enable_topology();
  }
  DropNode node;
  mol::ObjectTypeRegistry types;
  mol::Mol mol;
  ilb::Scheduler sched;
  ilb::Balancer balancer;
};

void BM_BalancerSendPolicy(benchmark::State& state) {
  // One policy message: the caller's body (copied in, as a policy hands
  // over a freshly built one) framed behind its tag and sent.
  BalancerRig rig(kSfcRanks);
  const std::vector<std::uint8_t> body(static_cast<std::size_t>(state.range(0)), 0x5A);
  for (auto _ : state) rig.balancer.send_policy(1, 20, body);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_BalancerSendPolicy)->Arg(48)->Arg(4096);

void BM_GossipDigest(benchmark::State& state) {
  // One gossip round on a 16-rank machine: read every resident object's
  // coordinates, average them and send the digest to the 15 peers.
  const int n = static_cast<int>(state.range(0));
  BalancerRig rig(kSfcRanks);
  for (int i = 0; i < n; ++i) {
    const auto ptr = rig.mol.add_object(std::make_unique<Blank>());
    rig.mol.set_coords(ptr, {(i + 0.5) / n, 0.5, 0.5});
  }
  rig.balancer.init();
  for (auto _ : state) {
    rig.balancer.poll();
    rig.node.now_ += 1.0;  // past the gossip interval: every poll gossips
  }
  if (rig.node.sends_ != static_cast<std::int64_t>(state.iterations()) * (kSfcRanks - 1)) {
    state.SkipWithError("not every poll gossiped");
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GossipDigest)->Arg(54)->Arg(864);

}  // namespace

BENCHMARK_MAIN();
