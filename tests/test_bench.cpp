#include <gtest/gtest.h>

#include <sstream>

#include "bench_support/mesh_app.hpp"
#include "bench_support/synthetic.hpp"

namespace prema::bench {
namespace {

SyntheticConfig small_config(double heavy_fraction, double heavy_mflop) {
  SyntheticConfig cfg;
  cfg.nprocs = 16;
  cfg.units_per_proc = 60;
  cfg.heavy_fraction = heavy_fraction;
  cfg.heavy_mflop = heavy_mflop;
  cfg.srp_cooldown_s = 3.0;
  return cfg;
}

TEST(SyntheticBench, EverySystemExecutesAllUnits) {
  const auto cfg = small_config(0.5, 500.0);
  const auto total = static_cast<std::int64_t>(cfg.nprocs) * cfg.units_per_proc;
  for (const System sys :
       {System::kNoLB, System::kPremaExplicit, System::kPremaImplicit,
        System::kStopRepartition, System::kCharmNoSync, System::kCharmSync}) {
    const RunReport r = run_synthetic(sys, cfg);
    EXPECT_EQ(r.executed, total) << r.label;
    EXPECT_GT(r.makespan, 0.0) << r.label;
    EXPECT_EQ(r.ledgers.size(), static_cast<std::size_t>(cfg.nprocs)) << r.label;
    // Useful computation is identical across systems: same workload.
    EXPECT_NEAR(r.comp_total,
                total * (cfg.heavy_fraction * cfg.heavy_mflop +
                         (1 - cfg.heavy_fraction) * cfg.light_mflop) /
                    cfg.proc_mflops,
                1.0)
        << r.label;
  }
}

TEST(SyntheticBench, PaperOrderingHoldsAtFig3Shape) {
  const auto cfg = small_config(0.5, 500.0);
  const auto no_lb = run_synthetic(System::kNoLB, cfg);
  const auto expl = run_synthetic(System::kPremaExplicit, cfg);
  const auto impl = run_synthetic(System::kPremaImplicit, cfg);
  const auto srp = run_synthetic(System::kStopRepartition, cfg);
  const auto charm0 = run_synthetic(System::kCharmNoSync, cfg);

  // Implicit PREMA is the overall winner (paper, all four figures).
  EXPECT_LT(impl.makespan, expl.makespan);
  EXPECT_LT(impl.makespan, srp.makespan);
  EXPECT_LT(impl.makespan, 0.85 * no_lb.makespan);
  // Charm without sync points cannot balance anything.
  EXPECT_NEAR(charm0.makespan, no_lb.makespan, 0.05 * no_lb.makespan);
  // Implicit PREMA produces the best post-balance load quality.
  EXPECT_LT(impl.comp_stddev, expl.comp_stddev);
  EXPECT_LT(impl.comp_stddev, no_lb.comp_stddev);
}

TEST(SyntheticBench, SpikeMakesStopRepartitionDecline) {
  auto cfg = small_config(0.1, 500.0);
  // At this miniature scale the outstanding fraction at trigger time is a
  // little higher than in the 128-proc runs; raise the root's bar so the
  // decline path itself is what gets exercised.
  cfg.srp_min_outstanding = 0.2;
  const auto srp = run_synthetic(System::kStopRepartition, cfg);
  const auto no_lb = run_synthetic(System::kNoLB, cfg);
  // Fig. 4(d): the root keeps synchronizing but declines to move anything.
  EXPECT_EQ(srp.migrations, 0u);
  EXPECT_GT(srp.sync_total, 0.0);
  EXPECT_GE(srp.makespan, 0.95 * no_lb.makespan);
}

TEST(SyntheticBench, PolicyOverrideLeavesPanelANoLoadBalancing) {
  // --policy selects the PREMA panels' balancer; panel (a) is the baseline.
  for (const char* policy : {"sfc", "work_stealing"}) {
    auto cfg = small_config(0.5, 500.0);
    cfg.policy = policy;
    const auto no_lb = run_synthetic(System::kNoLB, cfg);
    EXPECT_EQ(no_lb.policy, "null") << policy;
    EXPECT_EQ(no_lb.migrations, 0u) << policy;
  }
}

TEST(SyntheticBench, ChargesAreConserved) {
  // Every processor's ledger must sum exactly to the makespan: the emulator
  // accounts every instant of every processor to some category.
  const auto cfg = small_config(0.5, 500.0);
  for (const System sys : {System::kPremaImplicit, System::kStopRepartition,
                           System::kCharmSync}) {
    const RunReport r = run_synthetic(sys, cfg);
    for (const auto& ledger : r.ledgers) {
      EXPECT_NEAR(ledger.total(), r.makespan, 1e-6) << r.label;
    }
  }
}

TEST(SyntheticBench, ReportPrintersProduceOutput) {
  const auto cfg = small_config(0.5, 500.0);
  const auto r = run_synthetic(System::kPremaImplicit, cfg);
  std::ostringstream os;
  print_panel(os, r);
  EXPECT_NE(os.str().find("Computation"), std::string::npos);
  EXPECT_NE(os.str().find("makespan"), std::string::npos);
  std::ostringstream cmp;
  print_comparison(cmp, {r});
  EXPECT_NE(cmp.str().find("PREMA"), std::string::npos);
}

TEST(SyntheticBench, DeterministicAcrossRuns) {
  const auto cfg = small_config(0.5, 500.0);
  const auto a = run_synthetic(System::kPremaImplicit, cfg);
  const auto b = run_synthetic(System::kPremaImplicit, cfg);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.migrations, b.migrations);
}

TEST(MeshAppBench, AllSystemsBuildTheSameMesh) {
  MeshAppConfig cfg;
  cfg.nprocs = 8;
  cfg.grid = 4;
  cfg.phases = 2;
  const auto no_lb = run_mesh_app(MeshSystem::kNoLB, cfg);
  const auto prema = run_mesh_app(MeshSystem::kPremaImplicit, cfg);
  const auto srp = run_mesh_app(MeshSystem::kStopRepartition, cfg);
  // The mesh is a pure function of the workload, not of the balancer.
  EXPECT_EQ(no_lb.total_tets, prema.total_tets);
  EXPECT_EQ(no_lb.total_tets, srp.total_tets);
  EXPECT_EQ(no_lb.refinements, static_cast<std::int64_t>(cfg.grid) * cfg.grid *
                                   cfg.grid * cfg.phases);
  EXPECT_EQ(prema.refinements, no_lb.refinements);
  EXPECT_GT(no_lb.total_tets, 0);
  EXPECT_EQ(no_lb.migrations, 0u);
  // The paper-scale benchmark (bench/mesh_generator) shows < 1% overhead;
  // at this miniature scale the fixed costs weigh relatively more.
  EXPECT_LT(prema.overhead_pct, 4.0);
}

}  // namespace
}  // namespace prema::bench
