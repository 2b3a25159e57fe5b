#pragma once

#include <cstdint>
#include <deque>
#include <utility>

#include "poly/int_vec.hpp"

namespace nup::sim {

/// Produces the off-chip data stream for one chain segment. The consumer
/// (the segment's source module) asks for grid points in lexicographic
/// order of the streamed input domain; a feed may refuse a point this cycle
/// (back-pressure from a slower producer, e.g. a chained accelerator).
class ExternalFeed {
 public:
  virtual ~ExternalFeed() = default;

  /// Called once per simulation cycle per attachment, before any
  /// availability query, so timed feeds (PrefetchFeed) can advance their
  /// internal state. Untimed feeds ignore it. On a time_invariant() feed
  /// tick() must have no effect: the fast backend skips it for the cycles
  /// it retires in runs.
  virtual void tick() {}

  /// True when the element at grid point `h` can be delivered this cycle.
  virtual bool available(const poly::IntVec& h) = 0;

  /// Value of the element at `h`. Called at most once per point, only after
  /// available(h) returned true in the same cycle.
  virtual double read(const poly::IntVec& h) = 0;

  /// True when availability and values do not depend on the cycle the
  /// queries happen on: available(h) never flips back to false, read(h) is
  /// pure and tick() does nothing. The fast backend only batches cycles
  /// into one block -- a firing run, a wide step, a run of fill or discard
  /// cycles -- when every live feed is time-invariant: a timed feed
  /// (PrefetchFeed) or a mid-run producer (QueueFeed) could change state
  /// between the batched micro-cycles, which must stay observable.
  virtual bool time_invariant() const { return false; }

  // Row form of the two queries. A row is the n points h, h + e, ...,
  // h + (n-1)e, where e is the unit step along the innermost axis of a
  // non-empty h -- the stretch of the stream a batched firing run consumes. The fast backend
  // only calls them on time_invariant() feeds, where answering a whole row
  // at once is indistinguishable from n per-point queries; a timed feed
  // never sees them. The defaults loop over available()/read(), so every
  // feed is correct without overriding them; an override must return the
  // same count and write the same values as that loop.

  /// How many consecutive points of the row starting at `h` are ready now:
  /// the largest m <= n such that available() holds on each of the first m.
  virtual std::int64_t available_row(const poly::IntVec& h, std::int64_t n);

  /// Writes the values of the first `n` points of the row starting at `h`
  /// to out[0..n). Only called when available_row(h, m) returned m >= n.
  virtual void read_row(const poly::IntVec& h, std::int64_t n, double* out);
};

/// Deterministic synthetic DRAM: always ready, values from
/// stencil::synthetic_value. Models the burst prefetcher of Fig 13(b),
/// which hides bus latency behind a small buffer.
class SyntheticFeed final : public ExternalFeed {
 public:
  SyntheticFeed(std::uint64_t seed, std::size_t array_index)
      : seed_(seed), array_index_(array_index) {}

  bool available(const poly::IntVec&) override { return true; }
  double read(const poly::IntVec& h) override;
  bool time_invariant() const override { return true; }
  std::int64_t available_row(const poly::IntVec&, std::int64_t n) override {
    return n;
  }
  /// stencil::synthetic_row: the outer coordinates are hashed once per row.
  void read_row(const poly::IntVec& h, std::int64_t n, double* out) override;

 private:
  std::uint64_t seed_;
  std::size_t array_index_;
};

/// In-order queue feed for accelerator chaining (Fig 13c): a producer
/// pushes (point, value) pairs in lexicographic order; the consumer is
/// stalled until the point it needs arrives at the front.
class QueueFeed final : public ExternalFeed {
 public:
  void push(poly::IntVec point, double value) {
    queue_.emplace_back(std::move(point), value);
  }

  bool available(const poly::IntVec& h) override {
    return !queue_.empty() && queue_.front().first == h;
  }

  double read(const poly::IntVec& h) override;

  std::size_t pending() const { return queue_.size(); }

 private:
  std::deque<std::pair<poly::IntVec, double>> queue_;
};

}  // namespace nup::sim
