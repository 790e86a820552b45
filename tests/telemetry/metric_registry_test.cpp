// MetricRegistry: counter/gauge accumulation, histogram bucket-edge
// semantics and agreement with util::Histogram, and handle stability.
#include "telemetry/metric_registry.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.h"
#include "util/stats.h"

namespace alvc::telemetry {
namespace {

TEST(CounterTest, AccumulatesAndResetsInPlace) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, LastWriteWinsAndAddAccumulates) {
  Gauge g;
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(HistogramTest, BucketEdges) {
  // [0, 10) in 5 buckets of width 2.
  Histogram h(0.0, 10.0, 5);
  h.record(0.0);    // lo lands in bucket 0
  h.record(1.999);  // still bucket 0
  h.record(2.0);    // bucket 1 (left-closed boundaries)
  h.record(9.999);  // last bucket
  h.record(10.0);   // hi is exclusive -> overflow
  h.record(-0.001);  // below lo -> underflow
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.buckets, (std::vector<std::uint64_t>{2, 1, 0, 0, 1}));
  EXPECT_EQ(snap.underflow, 1u);
  EXPECT_EQ(snap.overflow, 1u);
  EXPECT_EQ(snap.count, 6u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.0 + 1.999 + 2.0 + 9.999 + 10.0 - 0.001);
}

TEST(HistogramTest, MeanIncludesOutOfRangeSamples) {
  Histogram h(0.0, 1.0, 2);
  h.record(4.0);  // overflow still contributes to count and sum
  h.record(2.0);
  EXPECT_DOUBLE_EQ(h.snapshot().mean(), 3.0);
}

// Property: on a seeded stream that hits every bucket edge, lo, hi and
// both out-of-range sides, the telemetry histogram bins exactly like
// util::Histogram and keeps the exact running sum and count.
TEST(HistogramTest, MatchesUtilHistogram) {
  constexpr double kLo = -3.0;
  constexpr double kHi = 7.0;
  constexpr std::size_t kBuckets = 20;
  std::vector<double> samples = {kLo, kHi, -1e9, 1e9, kLo - 1e-12, kHi - 1e-12};
  for (std::size_t i = 0; i <= kBuckets; ++i) {
    samples.push_back(kLo + (kHi - kLo) * static_cast<double>(i) / static_cast<double>(kBuckets));
  }
  alvc::util::Rng rng(20260806);
  for (int i = 0; i < 5000; ++i) samples.push_back(rng.uniform(kLo - 2.0, kHi + 2.0));

  Histogram got(kLo, kHi, kBuckets);
  alvc::util::Histogram want(kLo, kHi, kBuckets);
  double want_sum = 0.0;
  for (double s : samples) {
    got.record(s);
    want.add(s);
    want_sum += s;
  }

  const HistogramSnapshot snap = got.snapshot();
  ASSERT_EQ(snap.buckets.size(), want.bucket_count());
  for (std::size_t i = 0; i < kBuckets; ++i) {
    EXPECT_EQ(snap.buckets[i], want.bucket(i)) << "bucket " << i;
  }
  EXPECT_EQ(snap.underflow, want.underflow());
  EXPECT_EQ(snap.overflow, want.overflow());
  EXPECT_EQ(snap.count, want.total());
  EXPECT_EQ(snap.count, samples.size());
  EXPECT_EQ(snap.sum, want_sum);  // same additions in the same order
}

TEST(MetricRegistryTest, HandlesAreStableAcrossLookupsAndReset) {
  MetricRegistry reg;
  Counter& a = reg.counter("x.count");
  Counter& b = reg.counter("x.count");
  EXPECT_EQ(&a, &b);
  a.add(7);
  reg.reset();
  EXPECT_EQ(a.value(), 0u);  // zeroed in place, not reallocated
  EXPECT_EQ(&reg.counter("x.count"), &a);
  a.add(1);
  EXPECT_EQ(reg.counter("x.count").value(), 1u);
}

TEST(MetricRegistryTest, FirstHistogramRegistrationFixesBuckets) {
  MetricRegistry reg;
  Histogram& h = reg.histogram("h", 0.0, 10.0, 5);
  Histogram& again = reg.histogram("h", -1.0, 99.0, 50);
  EXPECT_EQ(&h, &again);
  EXPECT_DOUBLE_EQ(again.lo(), 0.0);
  EXPECT_DOUBLE_EQ(again.hi(), 10.0);
  EXPECT_EQ(again.bucket_count(), 5u);
}

TEST(MetricRegistryTest, SnapshotIsNameSorted) {
  MetricRegistry reg;
  reg.counter("z.last").add(1);
  reg.counter("a.first").add(2);
  reg.gauge("m.mid").set(3.0);
  reg.histogram("b.hist", 0, 1, 2).record(0.5);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "a.first");
  EXPECT_EQ(snap.counters[0].value, 2u);
  EXPECT_EQ(snap.counters[1].name, "z.last");
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 3.0);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].snapshot.count, 1u);
  EXPECT_EQ(reg.metric_count(), 4u);
}

}  // namespace
}  // namespace alvc::telemetry
