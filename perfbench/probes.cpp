// dmcs ping-pong probes and the helpers shared by the workloads.

#include <algorithm>
#include <memory>

#include "dmcs/sim_machine.hpp"
#include "dmcs/thread_machine.hpp"
#include "perfbench.hpp"
#include "timed_policy.hpp"

namespace perfbench {

namespace {

using prema::dmcs::Message;
using prema::dmcs::MsgKind;
using prema::dmcs::Node;

/// Bounces one message between ranks 0 and 1 for `round_trips` round trips
/// through Node::send; returns the wall seconds from rank 0's first send to
/// its last receipt.
double pingpong(prema::dmcs::Machine& m, int round_trips) {
  Clock::time_point first{};
  Clock::time_point last{};
  int left = round_trips;
  const auto h = m.registry().add("perfbench.ping", [&](Node& n, Message&& msg) {
    if (n.rank() == 0 && --left == 0) {
      last = Clock::now();
      return;
    }
    n.send(msg.src, Message{msg.handler, n.rank(), MsgKind::kApp, {}});
  });
  class Starter : public prema::dmcs::Program {
   public:
    Starter(prema::dmcs::HandlerId h, Clock::time_point& first) : h_(h), first_(first) {}
    void main(Node& n) override {
      if (n.rank() != 0) return;
      first_ = Clock::now();
      n.send(1, Message{h_, 0, MsgKind::kApp, {}});
    }

   private:
    prema::dmcs::HandlerId h_;
    Clock::time_point& first_;
  };
  m.run([&](prema::ProcId) { return std::make_unique<Starter>(h, first); });
  return seconds_between(first, last);
}

}  // namespace

double pingpong_sim_ns(int round_trips) {
  prema::sim::MachineConfig cfg;
  cfg.nprocs = 2;
  prema::dmcs::SimMachine m(cfg);
  return pingpong(m, round_trips) / round_trips * 1e9;
}

double pingpong_thread_us(int round_trips) {
  prema::dmcs::ThreadConfig cfg;
  cfg.nprocs = 2;
  prema::dmcs::ThreadMachine m(cfg);
  return pingpong(m, round_trips) / round_trips * 1e6;
}

prema::trace::ProcCounters sum_counters(const prema::dmcs::Machine& machine) {
  prema::trace::ProcCounters total;
  if (const auto* rec = machine.tracer()) {
    for (prema::ProcId p = 0; p < rec->nprocs(); ++p) total += rec->sink(p).counters();
  }
  return total;
}

void write_layer_counts(prema::bench::JsonWriter& out, const PolicyStats& ps,
                        const prema::trace::ProcCounters& c) {
  const std::pair<const char*, const CallStat*> calls[] = {
      {"on_poll", &ps.on_poll},
      {"on_message", &ps.on_message},
      {"on_work_arrived", &ps.on_work_arrived},
      {"on_gossip", &ps.on_gossip}};
  for (const auto& [name, stat] : calls) {
    out.begin_object(name);
    out.field("calls", stat->calls);
    out.field("self_s", stat->self_s);
    out.end_object();
  }
  out.field("msgs", c.msgs_sent);
  out.field("bytes", c.bytes_sent);
  out.field("policy_msgs", c.policy_wire_msgs);
  out.field("poll_wakeups", c.poll_wakeups);
  out.field("sfc_cuts", c.sfc_cuts);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void write_array(prema::bench::JsonWriter& out, const char* key,
                 const std::vector<double>& v) {
  out.begin_array(key);
  for (const double x : v) out.element(x);
  out.end_array();
}

}  // namespace perfbench
