#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "ilb/policy.hpp"

/// \file timed_policy.hpp
/// Forwarding decorators that time a balancing policy from outside the
/// program. TimedPolicy wraps any ilb::Policy (installed through
/// RuntimeConfig::policy_factory) and times each decision callback;
/// TimedContext sits between the policy and the Balancer's PolicyContext
/// and times the calls that hand work to the layers below the policy
/// (migratable: the ILB scheduler; migrate_object: MOL; send_policy: dmcs),
/// so a callback's self time is the policy's own decision code.
/// Neither changes what the policy sees or does, so a run under the
/// decorators reproduces the undecorated run's virtual outcome exactly.

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One callback's tally on one rank.
struct CallStat {
  std::uint64_t calls = 0;
  double self_s = 0.0;  ///< wall time minus time spent in the layers below

  CallStat& operator+=(const CallStat& o) {
    calls += o.calls;
    self_s += o.self_s;
    return *this;
  }
};

/// One rank's policy-layer tally (each rank owns its own policy instance,
/// and the Balancer calls it with that rank's state lock held, so the
/// counters need no lock of their own).
struct PolicyStats {
  CallStat on_poll;
  CallStat on_message;
  CallStat on_work_arrived;
  CallStat on_gossip;

  [[nodiscard]] double self_s() const {
    return on_poll.self_s + on_message.self_s + on_work_arrived.self_s +
           on_gossip.self_s;
  }
  PolicyStats& operator+=(const PolicyStats& o) {
    on_poll += o.on_poll;
    on_message += o.on_message;
    on_work_arrived += o.on_work_arrived;
    on_gossip += o.on_gossip;
    return *this;
  }
};

/// Forwards every PolicyContext call to the Balancer's context, timing the
/// calls that hand work to the layers below the policy.
class TimedContext final : public prema::ilb::PolicyContext {
 public:
  void bind(prema::ilb::PolicyContext& inner) { inner_ = &inner; }
  [[nodiscard]] double child_s() const { return child_s_; }

  [[nodiscard]] prema::ProcId rank() const override { return inner_->rank(); }
  [[nodiscard]] int nprocs() const override { return inner_->nprocs(); }
  [[nodiscard]] double now() const override { return inner_->now(); }
  [[nodiscard]] prema::util::Rng& rng() override { return inner_->rng(); }
  [[nodiscard]] double local_load() const override { return inner_->local_load(); }
  [[nodiscard]] double low_watermark() const override {
    return inner_->low_watermark();
  }
  [[nodiscard]] double donate_threshold() const override {
    return inner_->donate_threshold();
  }
  [[nodiscard]] std::vector<prema::ilb::Scheduler::ObjectLoad> migratable()
      const override {
    const auto t0 = Clock::now();
    auto loads = inner_->migratable();
    child_s_ += seconds_between(t0, Clock::now());
    return loads;
  }
  void migrate_object(const prema::mol::MobilePtr& ptr,
                      prema::ProcId dst) override {
    const auto t0 = Clock::now();
    inner_->migrate_object(ptr, dst);
    child_s_ += seconds_between(t0, Clock::now());
  }
  void send_policy(prema::ProcId dst, prema::ilb::PolicyTag tag,
                   std::vector<std::uint8_t> body) override {
    const auto t0 = Clock::now();
    inner_->send_policy(dst, tag, std::move(body));
    child_s_ += seconds_between(t0, Clock::now());
  }
  void charge_seconds(double seconds) override { inner_->charge_seconds(seconds); }
  void request_poll_after(double seconds) override {
    inner_->request_poll_after(seconds);
  }
  [[nodiscard]] bool peer_degraded(prema::ProcId p) const override {
    return inner_->peer_degraded(p);
  }
  [[nodiscard]] bool topology_enabled() const override {
    return inner_->topology_enabled();
  }
  [[nodiscard]] std::optional<prema::mol::Coords> object_coords(
      const prema::mol::MobilePtr& ptr) const override {
    return inner_->object_coords(ptr);
  }
  [[nodiscard]] std::vector<prema::mol::CommEdge> comm_edges() const override {
    return inner_->comm_edges();
  }
  [[nodiscard]] std::vector<prema::mol::ProcTraffic> proc_traffic()
      const override {
    return inner_->proc_traffic();
  }
  [[nodiscard]] prema::ProcId object_location(
      const prema::mol::MobilePtr& ptr) const override {
    return inner_->object_location(ptr);
  }
  [[nodiscard]] std::vector<prema::ilb::GossipSummary> gossip() const override {
    return inner_->gossip();
  }
  void trace_sfc_cut(std::size_t segments, double imbalance) override {
    inner_->trace_sfc_cut(segments, imbalance);
  }
  void trace_cluster_merge(prema::ProcId dst, std::size_t objects,
                           double traffic) override {
    inner_->trace_cluster_merge(dst, objects, traffic);
  }

 private:
  prema::ilb::PolicyContext* inner_ = nullptr;
  mutable double child_s_ = 0.0;  ///< written by the const migratable()
};

/// Forwards every Policy callback to `inner`, adding its wall time to
/// `stats`. Policies may keep the context they are handed, so the wrapper
/// context is a member: its address is stable for the policy's lifetime.
class TimedPolicy final : public prema::ilb::Policy {
 public:
  TimedPolicy(std::unique_ptr<prema::ilb::Policy> inner, PolicyStats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  [[nodiscard]] std::string_view name() const override { return inner_->name(); }
  [[nodiscard]] bool wants_topology() const override {
    return inner_->wants_topology();
  }
  void init(prema::ilb::PolicyContext& ctx) override {
    ctx_.bind(ctx);
    inner_->init(ctx_);
  }
  void on_poll(prema::ilb::PolicyContext& ctx) override {
    timed(stats_.on_poll, ctx, [&] { inner_->on_poll(ctx_); });
  }
  void on_message(prema::ilb::PolicyContext& ctx, prema::ProcId from,
                  prema::ilb::PolicyTag tag,
                  prema::util::ByteReader& body) override {
    timed(stats_.on_message, ctx,
          [&] { inner_->on_message(ctx_, from, tag, body); });
  }
  void on_work_arrived(prema::ilb::PolicyContext& ctx) override {
    timed(stats_.on_work_arrived, ctx, [&] { inner_->on_work_arrived(ctx_); });
  }
  void on_gossip(prema::ilb::PolicyContext& ctx,
                 const prema::ilb::GossipSummary& s) override {
    timed(stats_.on_gossip, ctx, [&] { inner_->on_gossip(ctx_, s); });
  }

 private:
  template <typename F>
  void timed(CallStat& stat, prema::ilb::PolicyContext& ctx, F&& f) {
    ctx_.bind(ctx);
    const double child0 = ctx_.child_s();
    const auto t0 = Clock::now();
    f();
    ++stat.calls;
    stat.self_s += seconds_between(t0, Clock::now()) - (ctx_.child_s() - child0);
  }

  std::unique_ptr<prema::ilb::Policy> inner_;
  PolicyStats& stats_;
  TimedContext ctx_;
};

}  // namespace perfbench
