#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "arch/builder.hpp"
#include "arch/design.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "runtime/telemetry.hpp"
#include "sim/fast.hpp"
#include "stencil/program.hpp"

namespace nup::runtime {

/// One memoized compilation: the non-uniform microarchitecture, the
/// fast-backend row programs, and the design's telemetry handles resolved
/// in the cache's registry. Immutable after insertion; entries are handed
/// out as shared_ptr so an evicted design stays alive for as long as any
/// in-flight simulation still uses it.
struct CachedDesign {
  std::uint64_t fingerprint = 0;
  arch::AcceleratorDesign design;
  std::shared_ptr<const sim::FastPlan> plan;
  DesignTelemetry telemetry;  ///< every tile run of `design` publishes here
};

/// Mutex-consistent view of one cache's activity: read in one critical
/// section, so hits + misses always equals the lookups issued so far and
/// inserts - evictions always equals entries.
struct DesignCacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t inserts = 0;    ///< compiled entries added (== misses)
  std::int64_t evictions = 0;  ///< LRU entries dropped at capacity
  /// Pinned entries the LRU sweep stepped over while looking for a
  /// victim. A busy pipeline run under cache pressure grows this instead
  /// of evicting a stage's hot design.
  std::int64_t eviction_skips = 0;
  std::int64_t pins = 0;    ///< pin() calls (nested pins each count)
  std::int64_t unpins = 0;  ///< unpin() calls that actually dropped a pin
  std::size_t entries = 0;
  std::size_t pinned = 0;  ///< entries currently pin()ned (pin count > 0)
};

/// Memoizes `arch::build_design` + `sim::compile_fast_plan` keyed by a
/// canonicalized stencil program, with LRU eviction.
///
/// Canonicalization (see canonical_key): the program and array names, the
/// output name and the kernel function are *excluded* -- two programs that
/// differ only in naming share one microarchitecture. The kernel is always
/// applied fresh from the request's program (the design and the row
/// programs are kernel-independent), so memoization never changes computed
/// values. Reference order is part of the key: it fixes the kernel
/// argument order the design's ref_order maps onto.
///
/// Thread safety: every method is safe to call concurrently. Misses are
/// compiled while holding the cache lock, which both serializes duplicate
/// compilations of the same key and protects the lazily-cached polyhedral
/// state inside the program object being compiled.
class DesignCache {
 public:
  /// `registry` receives the cache.* metrics (hits/misses/inserts/
  /// evictions/eviction_skips/pins/unpins counters, pinned/entries
  /// gauges, compile-latency histogram) and holds every entry's
  /// telemetry handles;
  /// nullptr selects the process-wide obs::Registry::global(). A non-empty
  /// `label` namespaces the metrics as cache.<label>.* so several caches
  /// (one per named engine) publish distinct series.
  explicit DesignCache(std::size_t capacity = 64,
                       obs::Registry* registry = nullptr,
                       const std::string& label = {});

  /// Returns the memoized design for the canonicalized program, compiling
  /// (and inserting) it on first use. Never returns nullptr.
  std::shared_ptr<const CachedDesign> get_or_compile(
      const stencil::StencilProgram& program,
      const arch::BuildOptions& build = {});

  /// get_or_compile + marks the entry pinned: a pinned entry is never the
  /// LRU victim, so a pipeline stage's designs stay hot for the whole run
  /// regardless of what else churns through the cache. Pins nest (each
  /// pin() needs one unpin()). Pinned entries still count against
  /// capacity; when every entry is pinned the cache grows past capacity
  /// rather than evict (counted in eviction_skips).
  std::shared_ptr<const CachedDesign> pin(
      const stencil::StencilProgram& program,
      const arch::BuildOptions& build = {});

  /// Drops one pin; at zero the entry rejoins normal LRU eviction. No-op
  /// when the entry is absent or not pinned.
  void unpin(const stencil::StencilProgram& program,
             const arch::BuildOptions& build = {});

  /// Journals every miss's compilation (kDesignCompiled, a = compile us)
  /// under `name_id` (the engine interns its own name). Unbound caches
  /// journal nothing.
  void bind_journal(obs::Journal* journal, std::uint32_t name_id);

  DesignCacheStats stats() const;
  void clear();

  /// Canonical serialization of (program, build options); equal strings ==
  /// one cache entry. Stable across runs.
  static std::string canonical_key(const stencil::StencilProgram& program,
                                   const arch::BuildOptions& build = {});

  /// FNV-1a 64-bit hash of canonical_key (compact identity for logs and
  /// cross-map keying; the cache itself keys on the full string).
  static std::uint64_t fingerprint(const stencil::StencilProgram& program,
                                   const arch::BuildOptions& build = {});

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const CachedDesign> value;
    int pins = 0;  ///< > 0 excludes the entry from LRU eviction
  };

  /// Looks up / compiles under mu_ (callers hold the lock).
  std::list<Entry>::iterator lookup_or_compile_locked(
      const stencil::StencilProgram& program,
      const arch::BuildOptions& build);
  void evict_locked();

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  DesignCacheStats stats_;

  obs::Registry* registry_;
  // Registry metrics (resolved once; updates are lock-free).
  obs::Counter* m_hits_ = nullptr;
  obs::Counter* m_misses_ = nullptr;
  obs::Counter* m_inserts_ = nullptr;
  obs::Counter* m_evictions_ = nullptr;
  obs::Counter* m_eviction_skips_ = nullptr;
  obs::Counter* m_pins_ = nullptr;
  obs::Counter* m_unpins_ = nullptr;
  obs::Gauge* m_pinned_ = nullptr;
  obs::Gauge* m_entries_ = nullptr;
  obs::Histogram* m_compile_us_ = nullptr;
  obs::Journal* journal_ = nullptr;
  std::uint32_t jname_ = 0;
};

}  // namespace nup::runtime
