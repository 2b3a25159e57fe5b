#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace nup::obs {

class Registry;

namespace detail {

/// Whether a series shows in snapshots yet (see Registry::Shown). Every
/// write shows it; the check is one relaxed load once it is shown.
class Series {
 protected:
  void mark_written() noexcept {
    if (!shown_.load(std::memory_order_relaxed)) {
      shown_.store(true, std::memory_order_relaxed);
    }
  }

 private:
  friend class obs::Registry;
  std::atomic<bool> shown_{true};
};

}  // namespace detail

/// Monotonically increasing counter. The hot path is one relaxed atomic
/// add on a per-thread shard (cache-line padded), so concurrent writers
/// from the frame engine's worker pool never contend on one line;
/// value() folds the shards.
class Counter : public detail::Series {
 public:
  static constexpr std::size_t kShards = 8;

  void add(std::int64_t n = 1) noexcept;
  void inc() noexcept { add(1); }
  std::int64_t value() const noexcept;
  void reset() noexcept;

 private:
  friend class Registry;
  Counter() = default;
  struct alignas(64) Shard {
    std::atomic<std::int64_t> n{0};
  };
  Shard shards_[kShards];
};

/// Last-written value with atomic set/add and a monotonic update_max
/// (CAS loop) for high-water marks.
class Gauge : public detail::Series {
 public:
  void set(std::int64_t v) noexcept;
  void add(std::int64_t d) noexcept;
  void update_max(std::int64_t v) noexcept;
  std::int64_t value() const noexcept;
  void reset() noexcept;

 private:
  friend class Registry;
  Gauge() = default;
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket histogram: bucket upper bounds are set at creation (the
/// default is a 1-2-5 exponential ladder suitable for microsecond and
/// cycle-count latencies), each bucket is one atomic counter, and min/max
/// are CAS loops. observe() is lock-free; snapshot() gives count, sum,
/// min/max and interpolated percentiles.
class Histogram : public detail::Series {
 public:
  struct Snapshot {
    std::int64_t count = 0;
    std::int64_t sum = 0;
    std::int64_t min = 0;
    std::int64_t max = 0;
    std::vector<std::int64_t> bounds;  ///< upper bounds; last bucket open
    std::vector<std::int64_t> counts;  ///< bounds.size() + 1 entries
    double mean() const;
    /// Linear interpolation inside the bucket holding rank p*count,
    /// clamped to the observed [min, max]. p in [0, 1].
    double percentile(double p) const;
  };

  void observe(std::int64_t v) noexcept;
  Snapshot snapshot() const;
  void reset() noexcept;

  /// 1-2-5 ladder from 1 to 5e8 (covers sub-us spans to minutes-in-us
  /// and cycle counts up to paper-scale runs).
  static std::vector<std::int64_t> default_bounds();

 private:
  friend class Registry;
  explicit Histogram(std::vector<std::int64_t> bounds);
  std::vector<std::int64_t> bounds_;
  std::vector<std::atomic<std::int64_t>> counts_;
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> min_;
  std::atomic<std::int64_t> max_;
};

/// One metric in a rendered snapshot.
struct MetricSample {
  enum class Kind { kCounter, kGauge, kHistogram };
  Kind kind = Kind::kCounter;
  std::string name;
  std::int64_t value = 0;     ///< counter / gauge
  Histogram::Snapshot hist;   ///< histogram only
};

/// Point-in-time view of every metric, sorted by name within each kind.
struct MetricsSnapshot {
  std::vector<MetricSample> samples;

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}} with
  /// count/sum/min/max/mean/p50/p95/p99 per histogram.
  std::string to_json() const;

  /// Aligned text table (one row per metric) for --stats output.
  std::string to_table() const;

  /// Value of a counter/gauge sample, or `fallback` when absent.
  std::int64_t value_of(std::string_view name,
                        std::int64_t fallback = 0) const;
};

/// Thread-safe named-metric registry. Lookup takes a mutex; the returned
/// references are stable for the registry's lifetime, so instrumented
/// code resolves each metric once and then updates it lock-free.
/// reset() zeroes values in place (addresses stay valid).
class Registry {
 public:
  /// When a series a lookup creates joins snapshots: at once, or at its
  /// first write. kOnFirstWrite is for handles resolved ahead of use
  /// (runtime::resolve_telemetry): a series nothing was ever published to
  /// stays out of snapshots, as if it had been looked up at its first
  /// write. A kOnLookup lookup shows a series that is still hidden.
  enum class Shown { kOnLookup, kOnFirstWrite };

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(std::string_view name, Shown shown = Shown::kOnLookup);
  Gauge& gauge(std::string_view name, Shown shown = Shown::kOnLookup);
  /// `bounds` applies only when the histogram is created by this call;
  /// empty selects Histogram::default_bounds().
  Histogram& histogram(std::string_view name,
                       std::vector<std::int64_t> bounds = {},
                       Shown shown = Shown::kOnLookup);

  MetricsSnapshot snapshot() const;

  /// snapshot() rendered in OpenMetrics text exposition format (the
  /// Prometheus scrape format): one `# TYPE`/`# HELP` pair per family,
  /// `_total` counters, cumulative histogram `_bucket`/`_sum`/`_count`
  /// series, per-FIFO families folded into `{array=,fifo=}` labels, and a
  /// terminating `# EOF`. Implemented in expo.cpp.
  std::string snapshot_openmetrics() const;

  void reset();

  /// Process-wide registry used by the runtime and stencilcc.
  static Registry& global();

 private:
  template <typename Metric>
  using SeriesMap = std::map<std::string, std::unique_ptr<Metric>, std::less<>>;

  /// The series `name` of `map`, created by `make` when absent.
  template <typename Metric, typename Make>
  Metric& find_or_add(SeriesMap<Metric>& map, std::string_view name,
                      Shown shown, Make make);

  mutable std::mutex mu_;
  SeriesMap<Counter> counters_;
  SeriesMap<Gauge> gauges_;
  SeriesMap<Histogram> histograms_;
};

/// Appends `s` to `out` as a quoted JSON string (the one escaper behind
/// every JSON document src/obs writes).
void append_json_string(std::string& out, std::string_view s);

}  // namespace nup::obs
