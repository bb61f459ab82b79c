#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_support/bench_json.hpp"
#include "dmcs/machine.hpp"
#include "trace/counters.hpp"

/// \file perfbench.hpp
/// The wall-clock benchmark driver's workloads. Each one writes its raw
/// measurements (wall times, samples, counts and virtual outcomes) as fields
/// of the open top-level JSON object; perfbench/run.py turns them into the
/// named metrics and checks them. All timing happens here, around calls into
/// the libraries' public functions.

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 2003;
  double seconds = 10.0;
  bool trace = false;
};

/// Repetitions behind each setup_s median: construction takes microseconds,
/// so many samples keep the median steady.
inline constexpr int kSetupReps = 201;

/// Sim workloads ("fig3-paper", "fig3-sfc"). False on an unknown name.
bool is_sim_workload(const std::string& name);
void run_sim_workload(const RunArgs& args, prema::bench::JsonWriter& out);

/// The open-loop thread-backend workload ("service-thread").
bool is_service_workload(const std::string& name);
void run_service_workload(const RunArgs& args, prema::bench::JsonWriter& out);

/// dmcs ping-pong through Node::send on a two-rank machine: mean wall-clock
/// round trip, from rank 0's first send to its last receipt.
double pingpong_sim_ns(int round_trips);
double pingpong_thread_us(int round_trips);

/// Trace-sink counters summed over every processor of `machine` (zeros when
/// tracing was off).
prema::trace::ProcCounters sum_counters(const prema::dmcs::Machine& machine);

struct PolicyStats;

/// Writes the policy callbacks' calls and self times and the trace counters
/// the per-layer metrics use (messages, bytes, policy messages, poll
/// wake-ups, sfc cuts) as fields of the open object.
void write_layer_counts(prema::bench::JsonWriter& out, const PolicyStats& ps,
                        const prema::trace::ProcCounters& c);

/// Median of `v` (0 when empty).
double median(std::vector<double> v);

/// Writes `v` as a JSON array field.
void write_array(prema::bench::JsonWriter& out, const char* key,
                 const std::vector<double>& v);

}  // namespace perfbench
