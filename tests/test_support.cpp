#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "support/byte_buffer.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/time_ledger.hpp"

namespace prema::util {
namespace {

TEST(ByteBuffer, RoundTripsScalars) {
  ByteWriter w;
  w.put<std::uint32_t>(42);
  w.put<double>(3.25);
  w.put<std::int8_t>(-7);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get<std::uint32_t>(), 42u);
  EXPECT_DOUBLE_EQ(r.get<double>(), 3.25);
  EXPECT_EQ(r.get<std::int8_t>(), -7);
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteBuffer, RoundTripsStringsAndVectors) {
  ByteWriter w;
  w.put_string("mobile object layer");
  w.put_vector<std::uint16_t>({1, 2, 3, 65535});
  w.put_string("");
  w.put_bytes(std::vector<std::uint8_t>{9, 8, 7});
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_string(), "mobile object layer");
  EXPECT_EQ(r.get_vector<std::uint16_t>(), (std::vector<std::uint16_t>{1, 2, 3, 65535}));
  EXPECT_EQ(r.get_string(), "");
  EXPECT_EQ(r.get_bytes(), (std::vector<std::uint8_t>{9, 8, 7}));
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteBuffer, NestedPayloadRoundTrips) {
  // The MOL wraps application payloads inside its own envelope this way.
  ByteWriter inner;
  inner.put<std::uint64_t>(123456789ULL);
  ByteWriter outer;
  outer.put<std::uint32_t>(7);
  outer.put_bytes(inner.bytes());
  ByteReader r(outer.bytes());
  EXPECT_EQ(r.get<std::uint32_t>(), 7u);
  auto inner_bytes = r.get_bytes();
  ByteReader ri(inner_bytes);
  EXPECT_EQ(ri.get<std::uint64_t>(), 123456789ULL);
}

TEST(ByteBufferDeathTest, OverrunAborts) {
  ByteWriter w;
  w.put<std::uint16_t>(1);
  ByteReader r(w.bytes());
  (void)r.get<std::uint16_t>();
  EXPECT_DEATH((void)r.get<std::uint32_t>(), "overrun");
}

TEST(ByteBuffer, TakeLeavesWriterEmpty) {
  ByteWriter w;
  w.put<int>(5);
  auto bytes = w.take();
  EXPECT_EQ(bytes.size(), sizeof(int));
  EXPECT_EQ(w.size(), 0u);
}

TEST(ByteBuffer, ManySmallPutsMatchGoldenAndTakeResets) {
  // Thousands of 1-, 2- and 8-byte puts cross many growth steps; the golden
  // is built value by value, independently of the writer's buffering.
  auto append = [](std::vector<std::uint8_t>& out, const auto& v) {
    const auto at = out.size();
    out.resize(at + sizeof(v));
    std::memcpy(out.data() + at, &v, sizeof(v));
  };
  for (const std::size_t reserve : {std::size_t{0}, std::size_t{5}, std::size_t{1} << 16}) {
    ByteWriter w(reserve);
    std::vector<std::uint8_t> golden;
    for (std::uint32_t i = 0; i < 3000; ++i) {
      const auto b = static_cast<std::uint8_t>(i * 37);
      const auto h = static_cast<std::uint16_t>(i * 977);
      const double d = i * 0.5 - 7.0;
      w.put(b);
      w.put(h);
      w.put(d);
      append(golden, b);
      append(golden, h);
      append(golden, d);
    }
    ASSERT_EQ(w.size(), golden.size());
    EXPECT_TRUE(std::equal(w.bytes().begin(), w.bytes().end(), golden.begin()));
    EXPECT_EQ(w.take(), golden) << "reserve " << reserve;
    EXPECT_EQ(w.size(), 0u);
    EXPECT_TRUE(w.bytes().empty());

    // Reused after take: only the new bytes, none of the old.
    w.put<std::uint32_t>(0xA1B2C3D4u);
    w.put_string("ok");
    ByteReader r(w.bytes());
    EXPECT_EQ(r.get<std::uint32_t>(), 0xA1B2C3D4u);
    EXPECT_EQ(r.get_string(), "ok");
    EXPECT_TRUE(r.exhausted());
    EXPECT_EQ(w.take().size(), sizeof(std::uint32_t) + sizeof(std::uint64_t) + 2);
  }
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123), c(124);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    if (va != c.next()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Rng, UniformStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    const double v = r.uniform(2.0, 5.0);
    ASSERT_GE(v, 2.0);
    ASSERT_LT(v, 5.0);
  }
}

TEST(Rng, RangeCoversEndpoints) {
  Rng r(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto x = r.range(3, 6);
    ASSERT_GE(x, 3);
    ASSERT_LE(x, 6);
    saw_lo |= x == 3;
    saw_hi |= x == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformMeanIsCentered) {
  Rng r(99);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Stats, RunningStatsMatchesClosedForm) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);  // classic example set
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Stats, EmptyStatsAreZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile_sorted(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(xs, 0.5), 2.5);
}

TEST(Stats, SummarizeAggregates) {
  std::vector<double> xs = {10.0, 20.0, 30.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.mean, 20.0);
  EXPECT_DOUBLE_EQ(s.min, 10.0);
  EXPECT_DOUBLE_EQ(s.max, 30.0);
  EXPECT_DOUBLE_EQ(s.p50, 20.0);
  EXPECT_DOUBLE_EQ(s.sum, 60.0);
}

TEST(Stats, MergeMatchesSingleAccumulator) {
  // Splitting a sample set across two accumulators and merging must agree
  // with one accumulator that saw everything (Chan et al. parallel variance).
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  RunningStats whole, left, right;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    whole.add(xs[i]);
    (i < 3 ? left : right).add(xs[i]);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_DOUBLE_EQ(left.sum(), whole.sum());
  EXPECT_DOUBLE_EQ(left.mean(), whole.mean());
  EXPECT_NEAR(left.stddev(), whole.stddev(), 1e-12);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(Stats, MergeWithEmptyIsIdentity) {
  RunningStats s, empty;
  s.add(1.0);
  s.add(3.0);
  s.merge(empty);
  EXPECT_EQ(s.count(), 2u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);

  RunningStats t;
  t.merge(s);  // merging into an empty accumulator copies the other side
  EXPECT_EQ(t.count(), 2u);
  EXPECT_DOUBLE_EQ(t.mean(), 2.0);
  EXPECT_DOUBLE_EQ(t.min(), 1.0);
  EXPECT_DOUBLE_EQ(t.max(), 3.0);
}

TEST(TimeLedger, ChargesAccumulatePerCategory) {
  TimeLedger l;
  l.charge(TimeCategory::kComputation, 2.0);
  l.charge(TimeCategory::kComputation, 1.0);
  l.charge(TimeCategory::kIdle, 4.0);
  l.charge(TimeCategory::kMessaging, 0.5);
  EXPECT_DOUBLE_EQ(l.get(TimeCategory::kComputation), 3.0);
  EXPECT_DOUBLE_EQ(l.total(), 7.5);
  EXPECT_DOUBLE_EQ(l.busy(), 3.5);
  EXPECT_DOUBLE_EQ(l.overhead(), 0.5);
}

TEST(TimeLedger, CallbackCountsAsUsefulWork) {
  TimeLedger l;
  l.charge(TimeCategory::kCallback, 2.0);
  l.charge(TimeCategory::kScheduling, 0.25);
  EXPECT_DOUBLE_EQ(l.overhead(), 0.25);
}

TEST(TimeLedger, AccumulateMerges) {
  TimeLedger a, b;
  a.charge(TimeCategory::kPolling, 1.0);
  b.charge(TimeCategory::kPolling, 2.0);
  b.charge(TimeCategory::kSynchronization, 3.0);
  a += b;
  EXPECT_DOUBLE_EQ(a.get(TimeCategory::kPolling), 3.0);
  EXPECT_DOUBLE_EQ(a.get(TimeCategory::kSynchronization), 3.0);
}

TEST(TimeLedgerDeathTest, NegativeChargeAborts) {
  TimeLedger l;
  EXPECT_DEATH(l.charge(TimeCategory::kIdle, -1.0), "negative");
}

TEST(TimeLedger, CategoryNamesMatchFigureLegends) {
  EXPECT_EQ(time_category_name(TimeCategory::kPartitionCalc), "Partition Calculation");
  EXPECT_EQ(time_category_name(TimeCategory::kPolling), "Polling Thread");
  EXPECT_EQ(time_category_name(TimeCategory::kCallback), "Callback Routine");
}

TEST(TimeLedger, TotalIsSumOverAllCategories) {
  TimeLedger l;
  double expected = 0.0;
  for (std::size_t c = 0; c < kTimeCategoryCount; ++c) {
    const double seconds = 0.25 * static_cast<double>(c + 1);
    l.charge(static_cast<TimeCategory>(c), seconds);
    expected += seconds;
  }
  double by_get = 0.0;
  for (std::size_t c = 0; c < kTimeCategoryCount; ++c) {
    by_get += l.get(static_cast<TimeCategory>(c));
  }
  EXPECT_DOUBLE_EQ(l.total(), expected);
  EXPECT_DOUBLE_EQ(l.total(), by_get);
}

TEST(TimeLedger, BusyAndOverheadPartitionTotal) {
  TimeLedger l;
  for (std::size_t c = 0; c < kTimeCategoryCount; ++c) {
    l.charge(static_cast<TimeCategory>(c), 1.0 + static_cast<double>(c));
  }
  // busy = total - idle, and overhead excludes useful work and idle.
  EXPECT_DOUBLE_EQ(l.busy(), l.total() - l.get(TimeCategory::kIdle));
  EXPECT_DOUBLE_EQ(l.overhead(), l.busy() - l.get(TimeCategory::kComputation) -
                                     l.get(TimeCategory::kCallback));
  l.clear();
  EXPECT_DOUBLE_EQ(l.total(), 0.0);
  EXPECT_DOUBLE_EQ(l.busy(), 0.0);
  EXPECT_DOUBLE_EQ(l.overhead(), 0.0);
}

TEST(TimeLedger, EveryCategoryHasADistinctName) {
  std::vector<std::string_view> names;
  for (std::size_t c = 0; c < kTimeCategoryCount; ++c) {
    const auto name = time_category_name(static_cast<TimeCategory>(c));
    EXPECT_FALSE(name.empty()) << "category " << c << " lacks a legend name";
    for (const auto& seen : names) EXPECT_NE(name, seen);
    names.push_back(name);
  }
}

}  // namespace
}  // namespace prema::util
