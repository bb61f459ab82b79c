// perfbench_driver: runs one workload for a given time and prints its raw
// measurements as one JSON object on standard output. perfbench/run.py is
// the user-facing command; it builds this program, runs it, derives the
// named metrics and checks correctness.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>

#include <sys/resource.h>

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "bench_support/bench_json.hpp"
#include "perfbench.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload <fig3-paper|fig3-sfc|service-thread> --seed <n>"
               " --seconds <s> --trace <0|1>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || args.seconds <= 0.0) return usage(argv[0]);
  const bool sim = perfbench::is_sim_workload(args.workload);
  if (!sim && !perfbench::is_service_workload(args.workload)) return usage(argv[0]);

  {
    prema::bench::JsonWriter out(std::cout);
    out.begin_object();
    out.field("workload", args.workload);
    out.field("seed", static_cast<std::uint64_t>(args.seed));
    out.field("trace", args.trace);
    out.field("compiler", PERFBENCH_COMPILER);
    out.field("build_type", PERFBENCH_BUILD_TYPE);
    if (sim) {
      perfbench::run_sim_workload(args, out);
    } else {
      perfbench::run_service_workload(args, out);
    }
    if (args.trace) {
      out.field("pingpong_sim_ns", perfbench::pingpong_sim_ns(20000));
      out.field("pingpong_thread_us", perfbench::pingpong_thread_us(200));
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    out.field("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
    out.end_object();
  }
  std::cout << "\n";
  return 0;
}
