// Metrics registry: exactness under concurrent hammering (the TSan job
// runs this test), percentile math of the fixed-bucket histogram, and the
// snapshot renderings (--metrics JSON, --stats table).

#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace nup::obs {
namespace {

TEST(Counter, ConcurrentAddsAreExact) {
  Registry registry;
  Counter& counter = registry.counter("hammered");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.inc();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(Gauge, SetAddAndMax) {
  Registry registry;
  Gauge& gauge = registry.gauge("g");
  gauge.set(7);
  EXPECT_EQ(gauge.value(), 7);
  gauge.add(3);
  EXPECT_EQ(gauge.value(), 10);
  gauge.update_max(4);  // lower: no effect
  EXPECT_EQ(gauge.value(), 10);
  gauge.update_max(25);
  EXPECT_EQ(gauge.value(), 25);
}

TEST(Gauge, ConcurrentUpdateMaxKeepsTheMaximum) {
  Registry registry;
  Gauge& gauge = registry.gauge("high_water");
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge, t] {
      for (int i = 0; i < 5000; ++i) {
        gauge.update_max(t * 10000 + i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(gauge.value(), (kThreads - 1) * 10000 + 4999);
}

TEST(Histogram, CountsSumMinMax) {
  Registry registry;
  Histogram& hist = registry.histogram("h");
  for (const std::int64_t v : {3, 9, 27, 81, 243}) hist.observe(v);
  const Histogram::Snapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, 5);
  EXPECT_EQ(snap.sum, 3 + 9 + 27 + 81 + 243);
  EXPECT_EQ(snap.min, 3);
  EXPECT_EQ(snap.max, 243);
  EXPECT_DOUBLE_EQ(snap.mean(), snap.sum / 5.0);
}

TEST(Histogram, PercentilesAreOrderedAndClamped) {
  Registry registry;
  Histogram& hist = registry.histogram("latency");
  for (std::int64_t v = 1; v <= 1000; ++v) hist.observe(v);
  const Histogram::Snapshot snap = hist.snapshot();
  const double p50 = snap.percentile(0.50);
  const double p95 = snap.percentile(0.95);
  const double p99 = snap.percentile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p50, snap.min);
  EXPECT_LE(p99, snap.max);
  // Uniform 1..1000: the interpolated median lands near 500.
  EXPECT_NEAR(p50, 500.0, 150.0);
}

TEST(Histogram, OverflowBucketPercentilesSpanTheObservedRange) {
  // Every observation lands in the overflow bucket (beyond the largest
  // bound): interpolation must span the observed [min, max], not anchor
  // its low edge at the last finite bound (which would report p50 = 2010
  // here -- just past the bound -- however large the data).
  Registry registry;
  Histogram& hist = registry.histogram("overflow", {10, 20});
  for (const std::int64_t v : {1000, 2000, 4000}) hist.observe(v);
  const Histogram::Snapshot snap = hist.snapshot();
  // Linear interpolation across [1000, 4000] at rank 1.5 of 3.
  EXPECT_DOUBLE_EQ(snap.percentile(0.50), 2500.0);
  EXPECT_DOUBLE_EQ(snap.percentile(1.0), 4000.0);
  EXPECT_LE(snap.percentile(0.99), 4000.0);
  EXPECT_GE(snap.percentile(0.01), 1000.0);
}

TEST(Histogram, PercentileOfASingleObservationIsThatValue) {
  // One value inside an interior bucket: the span collapses to the
  // observation, wherever the bucket edges sit.
  Registry registry;
  Histogram& hist = registry.histogram("single");
  hist.observe(123456789);
  const Histogram::Snapshot snap = hist.snapshot();
  EXPECT_DOUBLE_EQ(snap.percentile(0.50), 123456789.0);
  EXPECT_DOUBLE_EQ(snap.percentile(0.99), 123456789.0);
}

TEST(Histogram, ConcurrentObserveCountsEveryValue) {
  Registry registry;
  Histogram& hist = registry.histogram("c");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) hist.observe(t * 100 + 1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(hist.snapshot().count, kThreads * kPerThread);
}

TEST(Registry, SameNameSameMetric) {
  Registry registry;
  EXPECT_EQ(&registry.counter("x"), &registry.counter("x"));
  EXPECT_EQ(&registry.gauge("x"), &registry.gauge("x"));
  EXPECT_EQ(&registry.histogram("x"), &registry.histogram("x"));
  EXPECT_NE(static_cast<void*>(&registry.counter("a")),
            static_cast<void*>(&registry.counter("b")));
}

TEST(Registry, ResetZeroesInPlace) {
  Registry registry;
  Counter& counter = registry.counter("n");
  Gauge& gauge = registry.gauge("g");
  Histogram& hist = registry.histogram("h");
  counter.add(5);
  gauge.set(9);
  hist.observe(42);
  registry.reset();
  // Cached references stay valid and read zero.
  EXPECT_EQ(counter.value(), 0);
  EXPECT_EQ(gauge.value(), 0);
  EXPECT_EQ(hist.snapshot().count, 0);
  counter.inc();
  EXPECT_EQ(registry.counter("n").value(), 1);
}

TEST(Registry, SeriesResolvedAheadShowAtTheirFirstWrite) {
  constexpr Registry::Shown kLater = Registry::Shown::kOnFirstWrite;
  Registry registry;
  Counter& counter = registry.counter("c", kLater);
  Gauge& gauge = registry.gauge("g", kLater);
  Histogram& hist = registry.histogram("h", {}, kLater);
  Counter& looked_up = registry.counter("shown", kLater);
  EXPECT_TRUE(registry.snapshot().samples.empty());

  // Any write shows a series, even one that leaves its value at zero; a
  // plain lookup shows it too, as a first lookup always did.
  counter.add(0);
  gauge.update_max(0);
  EXPECT_EQ(&registry.counter("shown"), &looked_up);
  MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.samples.size(), 3u);
  EXPECT_EQ(snap.samples[0].name, "c");
  EXPECT_EQ(snap.samples[1].name, "shown");
  EXPECT_EQ(snap.samples[2].name, "g");

  // A shown series never hides again: not through a later kOnFirstWrite
  // lookup, not through reset().
  hist.observe(7);
  EXPECT_EQ(&registry.histogram("h", {}, kLater), &hist);
  registry.reset();
  EXPECT_EQ(registry.snapshot().samples.size(), 4u);
}

TEST(Registry, SnapshotJsonAndTable) {
  Registry registry;
  registry.counter("cache.hits").add(12);
  registry.gauge("fifo.high_water.A.0").update_max(127);
  registry.histogram("tile_us").observe(100);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.value_of("cache.hits"), 12);
  EXPECT_EQ(snap.value_of("fifo.high_water.A.0"), 127);
  EXPECT_EQ(snap.value_of("absent", -1), -1);

  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"cache.hits\":12"), std::string::npos) << json;
  EXPECT_NE(json.find("\"fifo.high_water.A.0\":127"), std::string::npos);
  EXPECT_NE(json.find("\"tile_us\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);

  const std::string table = snap.to_table();
  EXPECT_NE(table.find("cache.hits"), std::string::npos) << table;
  EXPECT_NE(table.find("fifo.high_water.A.0"), std::string::npos);
}

TEST(Registry, GlobalIsOneInstance) {
  EXPECT_EQ(&Registry::global(), &Registry::global());
}

TEST(Registry, ConcurrentLookupAndUpdate) {
  // Racing name resolution against updates and snapshots: the TSan job
  // turns any locking mistake here into a failure.
  Registry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < 2000; ++i) {
        registry.counter("shared").inc();
        registry.counter("mine." + std::to_string(t)).inc();
        registry.gauge("depth").update_max(i);
        registry.histogram("lat").observe(i);
        if (i % 512 == 0) registry.snapshot();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.counter("shared").value(), kThreads * 2000);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(registry.counter("mine." + std::to_string(t)).value(), 2000);
  }
}

}  // namespace
}  // namespace nup::obs
