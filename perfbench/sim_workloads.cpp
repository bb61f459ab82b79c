// The two emulator workloads: fig3-paper (the paper's Figure 3 at full
// scale, all six panels) and fig3-sfc (the same unit shape, 16 x 54, under
// the sfc policy, panels (b) and (c)).
//
// Untraced runs time bench::run_synthetic panel by panel. Traced runs time
// the same calls and, for each PREMA panel, also run this file's own driver
// over the public Runtime API with the policy decorator installed and the
// trace sinks on; that driver must reproduce run_synthetic's virtual
// outcome exactly, which run.py checks.

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "bench_support/synthetic.hpp"
#include "dmcs/sim_machine.hpp"
#include "ilb/policies/work_stealing.hpp"
#include "perfbench.hpp"
#include "prema/runtime.hpp"
#include "timed_policy.hpp"

namespace perfbench {

using prema::bench::JsonWriter;
using prema::bench::RunReport;
using prema::bench::SyntheticConfig;
using prema::bench::System;

namespace {

struct SimSpec {
  int nprocs = 0;
  int units_per_proc = 0;
  std::string policy;  ///< "" keeps run_synthetic's per-panel default
  std::vector<System> panels;
};

SimSpec spec_for(const std::string& name) {
  if (name == "fig3-paper") {
    return {128, 864, "",
            {System::kNoLB, System::kPremaExplicit, System::kPremaImplicit,
             System::kStopRepartition, System::kCharmNoSync, System::kCharmSync}};
  }
  return {16, 54, "sfc", {System::kPremaExplicit, System::kPremaImplicit}};
}

/// Figure 3: 50% of units heavy, heavy = 2x light (500 vs 250 Mflop).
SyntheticConfig make_config(const SimSpec& spec, std::uint64_t seed) {
  SyntheticConfig cfg;
  cfg.nprocs = spec.nprocs;
  cfg.units_per_proc = spec.units_per_proc;
  cfg.policy = spec.policy;
  cfg.heavy_fraction = 0.5;
  cfg.heavy_mflop = 500.0;
  cfg.seed = seed;
  return cfg;
}

bool is_prema_panel(System s) {
  return s == System::kNoLB || s == System::kPremaExplicit ||
         s == System::kPremaImplicit;
}

char panel_letter(System s) { return prema::bench::system_panel(s)[1]; }

/// The benchmark's copy of run_synthetic's work unit: its cost and a blob
/// that gives migration its realistic size.
class WorkUnit : public prema::mol::MobileObject {
 public:
  WorkUnit(double mflop, std::size_t blob_bytes)
      : mflop_(mflop), blob_(blob_bytes, 0x5A) {}
  [[nodiscard]] std::uint32_t type_id() const override { return 1; }
  void serialize(prema::util::ByteWriter& w) const override {
    w.put<double>(mflop_);
    w.put_bytes(blob_);
  }
  static std::unique_ptr<prema::mol::MobileObject> make(prema::util::ByteReader& r) {
    const double m = r.get<double>();
    auto obj = std::make_unique<WorkUnit>(m, 0);
    obj->blob_ = r.get_bytes();
    return obj;
  }

  double mflop_;
  std::vector<std::uint8_t> blob_;
};

/// The same grid coordinates run_synthetic registers (cube of side
/// ceil(cbrt(total)), creation order).
prema::mol::Coords unit_coords(std::int64_t g, std::int64_t total) {
  const auto side = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(std::cbrt(static_cast<double>(total)))));
  const double inv = 1.0 / static_cast<double>(side);
  prema::mol::Coords c;
  c.x = (static_cast<double>(g % side) + 0.5) * inv;
  c.y = (static_cast<double>((g / side) % side) + 0.5) * inv;
  c.z = (static_cast<double>(g / (side * side)) + 0.5) * inv;
  return c;
}

/// A PREMA stack for one panel: machine, runtime and timed handler, ready to
/// run. Only traced stacks are run; an untraced one is built as
/// run_synthetic builds it, for the set-up samples. A traced stack installs
/// the policy decorator on every rank and turns the trace sinks on.
struct PremaStack {
  std::unique_ptr<prema::dmcs::SimMachine> machine;
  std::unique_ptr<prema::Runtime> runtime;
  std::deque<PolicyStats> policy_stats;
  std::vector<std::int64_t> executed_by;
  std::vector<double> handler_s_by;
};

std::unique_ptr<PremaStack> build_stack(System sys, const SyntheticConfig& cfg,
                                        bool traced) {
  auto st = std::make_unique<PremaStack>();
  prema::dmcs::PollingConfig pcfg;
  pcfg.mode = sys == System::kPremaImplicit ? prema::dmcs::PollingMode::kPreemptive
                                            : prema::dmcs::PollingMode::kExplicit;
  pcfg.interval_s = cfg.poll_interval_s;
  prema::sim::MachineConfig mcfg;
  mcfg.nprocs = cfg.nprocs;
  mcfg.mflops = cfg.proc_mflops;
  mcfg.seed = cfg.seed;
  st->machine = std::make_unique<prema::dmcs::SimMachine>(mcfg, pcfg);

  prema::RuntimeConfig rcfg;
  // Counters survive ring overflow, so a small ring keeps memory flat.
  rcfg.trace.enabled = traced;
  rcfg.trace.buffer_capacity = 256;
  const std::string policy =
      cfg.policy.empty() ? (sys == System::kNoLB ? "null" : "work_stealing") : cfg.policy;
  rcfg.policy = policy;
  rcfg.balancer.low_watermark = cfg.low_watermark;
  rcfg.balancer.donate_threshold = 2 * cfg.low_watermark;
  const std::size_t grant = cfg.max_grant_objects;
  auto make_inner = [policy, grant]() -> std::unique_ptr<prema::ilb::Policy> {
    if (policy == "work_stealing") {
      prema::ilb::WorkStealingParams params;
      params.max_objects_per_grant = grant;
      return std::make_unique<prema::ilb::WorkStealingPolicy>(params);
    }
    return prema::ilb::make_policy(policy);
  };
  PremaStack* raw = st.get();
  if (traced) {
    rcfg.policy_factory = [raw, make_inner]() -> std::unique_ptr<prema::ilb::Policy> {
      raw->policy_stats.emplace_back();
      return std::make_unique<TimedPolicy>(make_inner(), raw->policy_stats.back());
    };
  } else if (policy == "work_stealing") {
    rcfg.policy_factory = make_inner;
  }
  st->runtime = std::make_unique<prema::Runtime>(*st->machine, rcfg);
  prema::Runtime& rt = *st->runtime;
  rt.object_types().add(1, WorkUnit::make);

  st->executed_by.assign(static_cast<std::size_t>(cfg.nprocs), 0);
  st->handler_s_by.assign(static_cast<std::size_t>(cfg.nprocs), 0.0);
  const auto work = rt.register_object_handler(
      "bench.work", [raw](prema::Context& ctx, prema::mol::MobileObject& obj,
                          prema::util::ByteReader&, const prema::mol::Delivery&) {
        const auto slot = static_cast<std::size_t>(ctx.rank());
        const auto t0 = Clock::now();
        ctx.compute(static_cast<WorkUnit&>(obj).mflop_);
        ++raw->executed_by[slot];
        raw->handler_s_by[slot] += seconds_between(t0, Clock::now());
      });

  const std::int64_t total = static_cast<std::int64_t>(cfg.nprocs) * cfg.units_per_proc;
  rt.set_main([cfg, work, total](prema::Context& ctx) {
    const auto heavy_count = static_cast<std::int64_t>(cfg.heavy_fraction * total);
    const std::int64_t first = static_cast<std::int64_t>(ctx.rank()) * cfg.units_per_proc;
    for (std::int64_t i = 0; i < cfg.units_per_proc; ++i) {
      const std::int64_t g = first + i;
      const double mflop = g < heavy_count ? cfg.heavy_mflop : cfg.light_mflop;
      auto ptr = ctx.add_object(std::make_unique<WorkUnit>(mflop, cfg.unit_payload_bytes));
      ctx.set_coords(ptr, unit_coords(g, total));
      ctx.message(ptr, work, {}, 1.0);
    }
  });
  return st;
}

void write_outcome(JsonWriter& out, double makespan, std::uint64_t migrations,
                   std::int64_t executed, bool audit_ok) {
  out.field("makespan", makespan);
  out.field("migrations", migrations);
  out.field("executed", executed);
  out.field("audit_ok", audit_ok);
}

/// One run_synthetic call, timed, written as an object of the open array
/// (left open for the traced figures).
void timed_synthetic(System sys, const SyntheticConfig& cfg, JsonWriter& out) {
  const auto t0 = Clock::now();
  const RunReport rep = prema::bench::run_synthetic(sys, cfg);
  const double wall = seconds_between(t0, Clock::now());
  const std::int64_t total = static_cast<std::int64_t>(cfg.nprocs) * cfg.units_per_proc;
  out.begin_object();
  out.field("panel", std::string(1, panel_letter(sys)));
  out.field("wall_s", wall);
  // SRP and Charm report no census; all units executed is their audit.
  write_outcome(out, rep.makespan, rep.migrations, rep.executed,
                is_prema_panel(sys) ? rep.audit_ok : rep.executed == total);
}

/// The traced PREMA panel: the benchmark's own driver with the policy
/// decorator, handler timing and trace sinks; writes its outcome and layer
/// figures into the open object.
void traced_panel(System sys, const SyntheticConfig& cfg, JsonWriter& out) {
  const auto t_build = Clock::now();
  auto st = build_stack(sys, cfg, /*traced=*/true);
  const auto t0 = Clock::now();
  const double makespan = st->runtime->run();
  const double run_wall = seconds_between(t0, Clock::now());

  const std::int64_t total = static_cast<std::int64_t>(cfg.nprocs) * cfg.units_per_proc;
  std::int64_t executed = 0;
  double handler_s = 0.0;
  std::uint64_t migrations = 0;
  std::size_t resident = 0;
  std::size_t in_transit = 0;
  for (prema::ProcId p = 0; p < cfg.nprocs; ++p) {
    const auto slot = static_cast<std::size_t>(p);
    executed += st->executed_by[slot];
    handler_s += st->handler_s_by[slot];
    migrations += st->runtime->mol_at(p).stats().migrations_in;
    resident += st->runtime->mol_at(p).local_count();
    in_transit += st->runtime->mol_at(p).in_transit_count();
  }
  PolicyStats ps;
  for (const auto& s : st->policy_stats) ps += s;

  out.begin_object("traced");
  out.field("call_wall_s", seconds_between(t_build, Clock::now()));
  out.field("run_wall_s", run_wall);
  write_outcome(out, makespan, migrations, executed,
                executed == total && resident == static_cast<std::size_t>(total) &&
                    in_transit == 0);
  out.field("events", st->machine->run_stats().events);
  out.field("handler_s", handler_s);
  write_layer_counts(out, ps, sum_counters(*st->machine));
  out.field("term_waves", st->runtime->termination_waves());
  out.field("units", total);
  out.end_object();
}

/// Median time to stand up the PREMA stack of panel (c), which every sim
/// workload runs (machine, runtime, handler, main), torn down between
/// repetitions.
double setup_seconds(const SyntheticConfig& cfg) {
  std::vector<double> samples;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    auto st = build_stack(System::kPremaImplicit, cfg, /*traced=*/false);
    samples.push_back(seconds_between(t0, Clock::now()));
  }
  return median(samples);
}

}  // namespace

bool is_sim_workload(const std::string& name) {
  return name == "fig3-paper" || name == "fig3-sfc";
}

void run_sim_workload(const RunArgs& args, JsonWriter& out) {
  const SimSpec spec = spec_for(args.workload);
  const SyntheticConfig cfg = make_config(spec, args.seed);
  out.field("nprocs", spec.nprocs);
  out.field("units_per_proc", spec.units_per_proc);
  // One untimed call first, so the heap and caches are warm for the set-up
  // samples and the first timed sweep as for the others.
  prema::bench::run_synthetic(spec.panels.front(), cfg);
  out.field("setup_s", setup_seconds(cfg));

  // Whole sweeps while another one still fits in the measuring time (at
  // least one).
  std::vector<double> sweep_walls;
  out.begin_array("calls");
  const auto start = Clock::now();
  double last_sweep = 0.0;
  do {
    const auto s0 = Clock::now();
    double traced_s = 0.0;
    for (const System sys : spec.panels) {
      timed_synthetic(sys, cfg, out);
      if (args.trace && is_prema_panel(sys)) {
        const auto t0 = Clock::now();
        traced_panel(sys, cfg, out);
        traced_s += seconds_between(t0, Clock::now());
      }
      out.end_object();
    }
    last_sweep = seconds_between(s0, Clock::now());
    sweep_walls.push_back(last_sweep - traced_s);
  } while (seconds_between(start, Clock::now()) + last_sweep <= args.seconds);
  out.end_array();
  write_array(out, "sweep_walls_s", sweep_walls);
}

}  // namespace perfbench
