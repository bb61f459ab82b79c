// service-thread: open-loop Poisson arrivals at 0.7 utilization on the
// real-thread backend, 3 ranks, work_stealing. The benchmark owns the
// request shards, the object handler and the on_arrival sink, and times the
// Runtime::run_service call from outside. Traced runs add the policy
// decorator, the trace sinks, handler timing and a mirror of each rank's
// arrival generator, which yields the drawn gap of every arrival and so the
// timer lag (realized minus drawn gap).

#include <sys/resource.h>

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "dmcs/thread_machine.hpp"
#include "perfbench.hpp"
#include "prema/runtime.hpp"
#include "service/arrivals.hpp"
#include "service/ledger.hpp"
#include "timed_policy.hpp"

namespace perfbench {

using prema::bench::JsonWriter;

namespace {

constexpr int kRanks = 3;
constexpr double kMflops = 2000.0;
constexpr double kUtilization = 0.7;
constexpr int kShardsPerRank = 8;
constexpr std::size_t kShardBytes = 512;
constexpr double kEpochS = 25e-3;

prema::service::ArrivalConfig arrival_config(std::uint64_t seed) {
  prema::service::ArrivalConfig a;
  a.model = prema::service::ArrivalModel::kPoisson;
  a.seed = seed;
  // Mean request cost of the bimodal mix, in Mflop.
  const double mean_mflop =
      a.cost_mean_mflop * ((1.0 - a.heavy_fraction) + a.heavy_fraction * a.heavy_mult);
  a.rate_per_proc = kUtilization * kMflops / mean_mflop;
  return a;
}

class RequestShard : public prema::mol::MobileObject {
 public:
  explicit RequestShard(std::size_t blob_bytes) : blob_(blob_bytes, 0x53) {}
  [[nodiscard]] std::uint32_t type_id() const override { return 1; }
  void serialize(prema::util::ByteWriter& w) const override { w.put_bytes(blob_); }
  static std::unique_ptr<prema::mol::MobileObject> make(prema::util::ByteReader& r) {
    auto obj = std::make_unique<RequestShard>(0);
    obj->blob_ = r.get_bytes();
    return obj;
  }

  std::vector<std::uint8_t> blob_;
};

/// SplitMix64 finalizer: client id -> shard slot.
std::uint64_t mix_client(std::uint64_t c) {
  c = (c ^ (c >> 30)) * 0xbf58476d1ce4e5b9ULL;
  c = (c ^ (c >> 27)) * 0x94d049bb133111ebULL;
  return c ^ (c >> 31);
}

/// What one rank records. Each slot is written only by the thread that
/// holds that rank's state lock (handler and sink both run under it).
struct RankLog {
  std::vector<double> sojourn_s;
  std::vector<double> wait_s;
  std::vector<double> lag_s;
  double handler_s = 0.0;
  std::uint64_t arrivals = 0;
  std::uint64_t completions = 0;
  std::uint64_t mirror_mismatches = 0;
  double last_arrival_t = -1.0;
  std::unique_ptr<prema::service::ArrivalGenerator> mirror;
};

/// One service run's machine, runtime, shards and logs.
struct ServiceStack {
  std::unique_ptr<prema::dmcs::ThreadMachine> machine;
  std::unique_ptr<prema::Runtime> runtime;
  std::unique_ptr<prema::service::ServiceLedger> ledger;
  std::deque<PolicyStats> policy_stats;
  std::vector<RankLog> logs;
  std::vector<std::vector<prema::mol::MobilePtr>> shards;
  prema::mol::ObjectHandlerId request_h = 0;
  bool traced = false;
};

std::unique_ptr<ServiceStack> build_stack(std::uint64_t seed, bool traced) {
  auto st = std::make_unique<ServiceStack>();
  st->traced = traced;
  prema::dmcs::ThreadConfig tcfg;
  tcfg.nprocs = kRanks;
  tcfg.mflops = kMflops;
  tcfg.polling.mode = prema::dmcs::PollingMode::kPreemptive;
  tcfg.seed = seed;
  st->machine = std::make_unique<prema::dmcs::ThreadMachine>(tcfg);

  prema::RuntimeConfig rcfg;
  rcfg.policy = "work_stealing";
  rcfg.balancer.low_watermark = 1.0;
  rcfg.balancer.donate_threshold = 2.0;
  rcfg.trace.enabled = traced;
  rcfg.trace.buffer_capacity = 256;
  ServiceStack* raw = st.get();
  if (traced) {
    rcfg.policy_factory = [raw]() -> std::unique_ptr<prema::ilb::Policy> {
      raw->policy_stats.emplace_back();
      return std::make_unique<TimedPolicy>(prema::ilb::make_policy("work_stealing"),
                                           raw->policy_stats.back());
    };
  }
  st->runtime = std::make_unique<prema::Runtime>(*st->machine, rcfg);
  prema::Runtime& rt = *st->runtime;
  rt.object_types().add(1, RequestShard::make);
  st->ledger = std::make_unique<prema::service::ServiceLedger>(kRanks);
  st->logs.resize(kRanks);
  st->shards.resize(kRanks);

  st->request_h = rt.register_object_handler(
      "perfbench.request",
      [raw](prema::Context& ctx, prema::mol::MobileObject&, prema::util::ByteReader& r,
            const prema::mol::Delivery&) {
        const double start = ctx.now();
        const double t_arr = r.get<double>();
        const double cost = r.get<double>();
        ctx.compute(cost);  // spins for real on this backend
        const double end = ctx.now();
        RankLog& log = raw->logs[static_cast<std::size_t>(ctx.rank())];
        log.sojourn_s.push_back(end - t_arr);
        ++log.completions;
        if (raw->traced) {
          log.wait_s.push_back(start - t_arr);
          log.handler_s += end - start;
        }
      });

  rt.set_main([raw](prema::Context& ctx) {
    auto& mine = raw->shards[static_cast<std::size_t>(ctx.rank())];
    for (int i = 0; i < kShardsPerRank; ++i) {
      mine.push_back(ctx.add_object(std::make_unique<RequestShard>(kShardBytes)));
    }
  });
  return st;
}

prema::ServiceConfig service_config(ServiceStack& st, std::uint64_t seed,
                                    double window_s) {
  prema::ServiceConfig svc;
  svc.duration_s = window_s;
  svc.epoch_s = kEpochS;
  svc.arrivals = arrival_config(seed);
  svc.ledger = st.ledger.get();
  ServiceStack* raw = &st;
  if (st.traced) {
    for (int p = 0; p < kRanks; ++p) {
      st.logs[static_cast<std::size_t>(p)].mirror =
          std::make_unique<prema::service::ArrivalGenerator>(svc.arrivals, p, kRanks);
    }
  }
  svc.on_arrival = [raw](prema::Context& ctx, const prema::service::Arrival& a) {
    const double t = ctx.now();
    RankLog& log = raw->logs[static_cast<std::size_t>(ctx.rank())];
    ++log.arrivals;
    if (log.mirror) {
      // The mirror draws in the runtime's order (gap, then arrival), so it
      // holds the gap that preceded this arrival. The first arrival's gap
      // ran from service start, which the sink does not see.
      const double gap = log.mirror->next_gap(t);
      const prema::service::Arrival m = log.mirror->next_arrival();
      if (m.client != a.client || m.cost_mflop != a.cost_mflop) ++log.mirror_mismatches;
      if (log.last_arrival_t >= 0.0) log.lag_s.push_back(t - log.last_arrival_t - gap);
      log.last_arrival_t = t;
    }
    const auto& mine = raw->shards[static_cast<std::size_t>(ctx.rank())];
    const auto slot = static_cast<std::size_t>(mix_client(a.client) % mine.size());
    prema::util::ByteWriter w;
    w.put<double>(t);
    w.put<double>(a.cost_mflop);
    ctx.message(mine[slot], raw->request_h, w.take(), a.cost_mflop);
  };
  return svc;
}

/// Arrivals the drawn schedule places inside the window when every timer
/// fires on time: the offered load of this seed.
std::uint64_t scheduled_arrivals(std::uint64_t seed, double window_s) {
  std::uint64_t n = 0;
  const auto cfg = arrival_config(seed);
  for (int p = 0; p < kRanks; ++p) {
    prema::service::ArrivalGenerator gen(cfg, p, kRanks);
    double t = 0.0;
    for (;;) {
      t += gen.next_gap(t);
      if (t >= window_s) break;
      ++n;
      (void)gen.next_arrival();
    }
  }
  return n;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

std::vector<double> gather(const std::vector<RankLog>& logs,
                           std::vector<double> RankLog::*field, double scale) {
  std::vector<double> out;
  for (const auto& l : logs) {
    for (const double v : l.*field) out.push_back(v * scale);
  }
  return out;
}

/// One timed service window, written as an object of the open array.
void timed_window(std::uint64_t seed, double window_s, bool traced, JsonWriter& out) {
  auto st = build_stack(seed, traced);
  prema::ServiceConfig svc = service_config(*st, seed, window_s);
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  st->runtime->run_service(std::move(svc));
  const double wall = seconds_between(t0, Clock::now());
  const double cpu = cpu_seconds() - cpu0;

  std::uint64_t arrivals = 0;
  std::uint64_t completions = 0;
  std::uint64_t mismatches = 0;
  double handler_s = 0.0;
  std::size_t resident = 0;
  std::size_t in_transit = 0;
  std::uint64_t migrations = 0;
  for (int p = 0; p < kRanks; ++p) {
    const RankLog& log = st->logs[static_cast<std::size_t>(p)];
    arrivals += log.arrivals;
    completions += log.completions;
    mismatches += log.mirror_mismatches;
    handler_s += log.handler_s;
    resident += st->runtime->mol_at(p).local_count();
    in_transit += st->runtime->mol_at(p).in_transit_count();
    migrations += st->runtime->mol_at(p).stats().migrations_in;
  }

  out.begin_object();
  out.field("traced", traced);
  out.field("window_s", window_s);
  out.field("wall_s", wall);
  out.field("cpu_s", cpu);
  out.field("arrivals", arrivals);
  out.field("ledger_arrivals", st->ledger->totals().arrivals);
  out.field("scheduled_arrivals", scheduled_arrivals(seed, window_s));
  out.field("completions", completions);
  out.field("audit_ok", resident == static_cast<std::size_t>(kRanks * kShardsPerRank) &&
                            in_transit == 0);
  out.field("migrations", migrations);
  write_array(out, "sojourn_ms", gather(st->logs, &RankLog::sojourn_s, 1e3));
  if (traced) {
    PolicyStats ps;
    for (const auto& s : st->policy_stats) ps += s;
    const prema::trace::ProcCounters c = sum_counters(*st->machine);
    out.field("mirror_mismatches", mismatches);
    out.field("handler_s", handler_s);
    write_layer_counts(out, ps, c);
    out.field("trace_arrivals", c.service_arrivals);
    out.field("term_waves", st->runtime->termination_waves());
    write_array(out, "wait_ms", gather(st->logs, &RankLog::wait_s, 1e3));
    write_array(out, "timer_lag_ms", gather(st->logs, &RankLog::lag_s, 1e3));
  }
  out.end_object();
}

}  // namespace

bool is_service_workload(const std::string& name) { return name == "service-thread"; }

void run_service_workload(const RunArgs& args, JsonWriter& out) {
  out.field("nprocs", kRanks);
  out.field("offered_rps", kRanks * arrival_config(args.seed).rate_per_proc);
  // A traced run splits its time between an untraced window (the overhead
  // baseline) and a traced one.
  out.begin_array("windows");
  if (args.trace) {
    timed_window(args.seed, 0.4 * args.seconds, /*traced=*/false, out);
    timed_window(args.seed, 0.6 * args.seconds, /*traced=*/true, out);
  } else {
    timed_window(args.seed, args.seconds, /*traced=*/false, out);
  }
  out.end_array();

  // The set-up samples repeat the construction each window paid before its
  // timed call; taken after the windows, they run on a warm process as the
  // sim workloads' samples do.
  std::vector<double> setup;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    auto st = build_stack(args.seed, /*traced=*/false);
    setup.push_back(seconds_between(t0, Clock::now()));
  }
  out.field("setup_s", median(setup));
}

}  // namespace perfbench
