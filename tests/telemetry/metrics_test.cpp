#include "telemetry/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include "telemetry/json.hpp"

namespace hmpi::telemetry {
namespace {

TEST(Metrics, CounterAccumulates) {
  MetricsRegistry reg;
  Counter& c = reg.counter("recons");
  c.add();
  c.add(2.5);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
  // Same name returns the same instance.
  EXPECT_EQ(&reg.counter("recons"), &c);
}

TEST(Metrics, GaugeLastWriteWins) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("cache_hit_rate");
  g.set(0.25);
  g.set(0.75);
  EXPECT_DOUBLE_EQ(g.value(), 0.75);
}

TEST(Metrics, HistogramBucketsAndStats) {
  MetricsRegistry reg;
  const std::vector<double> bounds{1.0, 10.0};
  Histogram& h = reg.histogram("recon_seconds", bounds);
  h.observe(0.5);   // bucket le=1
  h.observe(1.0);   // le=1 (inclusive ceiling)
  h.observe(5.0);   // le=10
  h.observe(100.0); // overflow
  const Histogram::Snapshot snap = h.snapshot();
  ASSERT_EQ(snap.counts.size(), 3u);
  EXPECT_EQ(snap.counts[0], 2);
  EXPECT_EQ(snap.counts[1], 1);
  EXPECT_EQ(snap.counts[2], 1);
  EXPECT_EQ(snap.count, 4);
  EXPECT_DOUBLE_EQ(snap.sum, 106.5);
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.max, 100.0);
}

TEST(Metrics, ResetZeroesButPreservesInstances) {
  MetricsRegistry reg;
  Counter& c = reg.counter("timeof_calls");
  Histogram& h = reg.histogram("search_wall_seconds");
  c.add(7.0);
  h.observe(0.01);
  reg.reset();
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
  EXPECT_EQ(h.snapshot().count, 0);
  // Cached references stay valid and usable after reset.
  c.add(1.0);
  EXPECT_DOUBLE_EQ(reg.counter("timeof_calls").value(), 1.0);
  EXPECT_EQ(&reg.counter("timeof_calls"), &c);
}

TEST(Metrics, SnapshotSortedAndQueryable) {
  MetricsRegistry reg;
  reg.counter("sim.stalls").add(1.0);
  reg.counter("adapt.checks").add(2.0);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "adapt.checks");
  EXPECT_EQ(snap.counters[1].first, "sim.stalls");
  EXPECT_DOUBLE_EQ(snap.counter_value("sim.stalls"), 1.0);
  EXPECT_DOUBLE_EQ(snap.counter_value("missing"), 0.0);
}

TEST(Metrics, WriteJsonIsValidAndCarriesValues) {
  MetricsRegistry reg;
  reg.counter("messages_dropped").add(3.0);
  reg.gauge("cache_hit_rate").set(0.5);
  reg.histogram("recon_seconds", std::vector<double>{1.0}).observe(2.0);
  std::ostringstream os;
  reg.write_json(os);
  std::string error;
  const auto doc = parse_json(os.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_DOUBLE_EQ(doc->find("counters")->find("messages_dropped")->number,
                   3.0);
  EXPECT_DOUBLE_EQ(doc->find("gauges")->find("cache_hit_rate")->number, 0.5);
  const JsonValue* hist = doc->find("histograms")->find("recon_seconds");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->find("count")->number, 1.0);
  const JsonValue* buckets = hist->find("buckets");
  ASSERT_TRUE(buckets->is_array());
  ASSERT_EQ(buckets->array.size(), 2u);
  // The overflow bucket has le null and holds the observation.
  EXPECT_TRUE(buckets->array[1].find("le")->is_null());
  EXPECT_DOUBLE_EQ(buckets->array[1].find("count")->number, 1.0);
}

TEST(Metrics, EmptyRegistryJsonParses) {
  MetricsRegistry reg;
  std::ostringstream os;
  reg.write_json(os);
  EXPECT_TRUE(parse_json(os.str()).has_value());
}

TEST(Metrics, ConcurrentCountersAreExact) {
  MetricsRegistry reg;
  Counter& c = reg.counter("est.cache.hits");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncrements; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(c.value(), kThreads * kIncrements);
}

TEST(Metrics, GlobalRegistryIsProcessWide) {
  Counter& a = metrics().counter("timeof_batch_calls");
  Counter& b = metrics().counter("timeof_batch_calls");
  EXPECT_EQ(&a, &b);
}

// ---------------------------------------------------------------------------
// Percentile estimation (docs/observability.md): the interpolation is pinned
// exactly — lower edge = previous ceiling (min for the first bucket), upper
// edge = ceiling (max for overflow), rank within the bucket sets the
// fraction, result clamped to [min, max].
// ---------------------------------------------------------------------------

TEST(Percentiles, InterpolationIsPinned) {
  Histogram h({1.0, 2.0, 4.0});
  // One observation per finite bucket plus one in overflow:
  // counts = {1, 1, 1, 1}, min = 0.5, max = 8.
  for (double v : {0.5, 1.5, 3.0, 8.0}) h.observe(v);
  const Histogram::Snapshot s = h.snapshot();
  // p50: target = 2 lands on bucket (1, 2] with fraction 1 -> exactly 2.
  EXPECT_DOUBLE_EQ(s.percentile(0.50), 2.0);
  // p95: target = 3.8 lands in overflow (4, max=8] at fraction 0.8.
  EXPECT_DOUBLE_EQ(s.percentile(0.95), 4.0 + 4.0 * 0.8);
  // p99: fraction 0.96 of the same bucket.
  EXPECT_DOUBLE_EQ(s.percentile(0.99), 4.0 + 4.0 * 0.96);
}

TEST(Percentiles, SingleObservationClampsToItself) {
  Histogram h({10.0});
  h.observe(5.0);
  const Histogram::Snapshot s = h.snapshot();
  // Interpolation inside (min=5, le=10] would say 10; the [min, max] clamp
  // pins every quantile of a single observation to that observation.
  EXPECT_DOUBLE_EQ(s.percentile(0.50), 5.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.99), 5.0);
}

TEST(Percentiles, EmptyBucketsAreSkipped) {
  Histogram h({1.0, 2.0, 4.0, 8.0});
  // Everything in the (2, 4] bucket; the empty buckets around it must not
  // shift the interpolation edges.
  for (int i = 0; i < 10; ++i) h.observe(3.0);
  const Histogram::Snapshot s = h.snapshot();
  // All mass in one bucket: lower = 2, upper = 4, p50 at fraction 0.5, but
  // min = max = 3 clamps every quantile to 3.
  EXPECT_DOUBLE_EQ(s.percentile(0.50), 3.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.99), 3.0);
}

TEST(Percentiles, EmptyHistogramIsNaN) {
  Histogram h({1.0});
  EXPECT_TRUE(std::isnan(h.snapshot().percentile(0.5)));
}

TEST(Percentiles, JsonDumpCarriesP50P95P99) {
  MetricsRegistry reg;
  Histogram& h =
      reg.histogram("sched.wait_seconds", std::vector<double>{1.0, 2.0, 4.0});
  for (double v : {0.5, 1.5, 3.0, 8.0}) h.observe(v);
  reg.histogram("sched.service_seconds", std::vector<double>{1.0});
  std::ostringstream os;
  reg.write_json(os);
  const auto doc = parse_json(os.str());
  ASSERT_TRUE(doc.has_value());
  const JsonValue* hists = doc->find("histograms");
  ASSERT_NE(hists, nullptr);
  const JsonValue* lat = hists->find("sched.wait_seconds");
  ASSERT_NE(lat, nullptr);
  const JsonValue* p50 = lat->find("p50");
  ASSERT_NE(p50, nullptr);
  ASSERT_TRUE(p50->is_number());
  EXPECT_DOUBLE_EQ(p50->number, 2.0);
  const JsonValue* p95 = lat->find("p95");
  ASSERT_NE(p95, nullptr);
  ASSERT_TRUE(p95->is_number());
  EXPECT_DOUBLE_EQ(p95->number, 4.0 + 4.0 * 0.8);
  // An empty histogram's percentiles are NaN, which JSON renders as null.
  const JsonValue* empty = hists->find("sched.service_seconds");
  ASSERT_NE(empty, nullptr);
  const JsonValue* empty_p99 = empty->find("p99");
  ASSERT_NE(empty_p99, nullptr);
  EXPECT_TRUE(empty_p99->is_null());
}

}  // namespace
}  // namespace hmpi::telemetry
