// In-memory span recorder of the traced run. Spans are recorded by the
// benchmark around its calls into each layer's public functions (no span
// is recorded inside the program); they stay in memory until the run ends,
// when they are written as Chrome trace-event JSON and folded into a
// per-layer self-time table.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";     ///< "<layer>.<call>", a string literal
  std::uint64_t id = 0;      ///< unique per span
  std::uint64_t parent = 0;  ///< 0 for a root (one root per request)
  std::uint32_t tid = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-name aggregate: `self_ns` is each span's duration minus the part of
/// it its child spans cover, summed.
struct SelfTime {
  std::string name;
  std::int64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Fresh span id (ids are never 0).
  std::uint64_t new_id() { return next_id_.fetch_add(1) + 1; }
  /// Nanoseconds on the recorder's clock (steady_clock).
  static std::int64_t now_ns();

  /// Records a finished span; no-op when disabled.
  void record(const char* name, std::uint64_t id, std::uint64_t parent,
              std::int64_t start_ns, std::int64_t end_ns);

  /// RAII span around one call; records on destruction.
  class Scope {
   public:
    Scope(Spans& spans, const char* name, std::uint64_t parent);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint64_t id() const { return id_; }

   private:
    Spans& spans_;
    const char* name_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_;
    std::int64_t start_ns_ = 0;
  };

  std::size_t size() const;
  /// Self time per span name, sorted by name.
  std::vector<SelfTime> self_times() const;
  /// {"traceEvents": [...]}: one complete ('X') event per span, with its
  /// id and parent id in args.
  std::string chrome_json() const;

 private:
  bool enabled_;
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> records_;  // guarded by mu_
};

}  // namespace perfbench
