// Row queries of the feeds the fast backend batches over. A batched firing
// run asks a feed how many points of a row are ready and reads them in one
// call; for every feed, and for rows inside the box, straddling each of its
// edges and entirely outside it, that must equal the per-point
// available()/read() loop bit for bit.

#include "pipeline/stage_buffer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "sim/feed.hpp"
#include "stencil/boundary.hpp"
#include "stencil/golden.hpp"

namespace nup::pipeline {
namespace {

constexpr double kUnwritten = -12345.0;

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Row starts around the box [lo, hi]: outer coordinates just outside, on
/// and inside each face; inner starts far left, straddling the low edge,
/// inside, straddling the high edge and far right. Every box below is at
/// most 10 points wide, so the far-left start at n = 30 gives rows that
/// straddle both edges (and, under wrap, wrap more than once).
std::vector<poly::IntVec> row_starts(const poly::IntVec& lo,
                                     const poly::IntVec& hi) {
  const std::size_t inner = lo.size() - 1;
  std::vector<std::vector<std::int64_t>> per_axis(lo.size());
  for (std::size_t d = 0; d < inner; ++d) {
    per_axis[d] = {lo[d] - 1, lo[d], (lo[d] + hi[d]) / 2, hi[d], hi[d] + 1};
  }
  per_axis[inner] = {lo[inner] - 9, lo[inner] - 2, lo[inner],
                     lo[inner] + 2, hi[inner] - 1, hi[inner] + 1,
                     hi[inner] + 5};
  std::vector<poly::IntVec> starts = {{}};
  for (const std::vector<std::int64_t>& axis : per_axis) {
    std::vector<poly::IntVec> grown;
    for (const poly::IntVec& prefix : starts) {
      for (const std::int64_t c : axis) {
        poly::IntVec h = prefix;
        h.push_back(c);
        grown.push_back(std::move(h));
      }
    }
    starts = std::move(grown);
  }
  return starts;
}

/// available_row and read_row against the per-point loop on every start
/// and row length. `reference` answers the per-point queries; it is a
/// second instance of the feed under test, so the row calls on `feed`
/// cannot influence the expected values.
void expect_rows_match_points(sim::ExternalFeed& feed,
                              sim::ExternalFeed& reference,
                              const std::vector<poly::IntVec>& starts,
                              const std::string& label) {
  for (const poly::IntVec& start : starts) {
    for (const std::int64_t n : {0, 1, 4, 12, 30}) {
      const std::string where =
          label + " row " + poly::to_string(start) + " n=" +
          std::to_string(n);
      std::int64_t ready = 0;
      std::vector<double> expected;
      poly::IntVec h = start;
      while (ready < n && reference.available(h)) {
        expected.push_back(reference.read(h));
        ++ready;
        ++h.back();
      }
      ASSERT_EQ(feed.available_row(start, n), ready) << where;
      std::vector<double> row(static_cast<std::size_t>(ready) + 1,
                              kUnwritten);
      feed.read_row(start, ready, row.data());
      for (std::size_t l = 0; l < expected.size(); ++l) {
        ASSERT_EQ(bits_of(row[l]), bits_of(expected[l]))
            << where << " lane " << l;
      }
      EXPECT_EQ(row.back(), kUnwritten) << where << ": wrote past the row";
    }
  }
}

/// Dense slice over [lo, hi] with a distinct value per point.
Slice make_slice(const poly::IntVec& lo, const poly::IntVec& hi) {
  std::int64_t total = 1;
  for (std::size_t d = 0; d < lo.size(); ++d) total *= hi[d] - lo[d] + 1;
  auto data = std::make_shared<std::vector<double>>();
  for (std::int64_t k = 0; k < total; ++k) {
    data->push_back(0.25 + static_cast<double>(k));
  }
  Slice slice;
  slice.data = std::move(data);
  slice.lo = lo;
  slice.hi = hi;
  return slice;
}

struct Box {
  poly::IntVec lo, hi;
};

const Box kBoxes[] = {
    {{-3}, {6}},
    {{2, -3}, {5, 4}},
    {{0, 1, -2}, {2, 3, 2}},
};

/// Time-invariant feed that serves only the points whose innermost
/// coordinate is below a per-row limit; it keeps the default row queries.
class RaggedFeed final : public sim::ExternalFeed {
 public:
  bool available(const poly::IntVec& h) override {
    std::int64_t limit = 3;
    for (std::size_t d = 0; d + 1 < h.size(); ++d) limit += h[d];
    return h.back() < limit;
  }
  double read(const poly::IntVec& h) override {
    return stencil::synthetic_value(5, 1, h);
  }
  bool time_invariant() const override { return true; }
};

TEST(FeedRows, SyntheticFeedMatchesPointLoop) {
  for (const Box& box : kBoxes) {
    sim::SyntheticFeed feed(21, 3);
    sim::SyntheticFeed reference(21, 3);
    expect_rows_match_points(feed, reference, row_starts(box.lo, box.hi),
                             "synthetic");
  }
}

TEST(FeedRows, DefaultRowQueriesMatchPointLoopOnLimitedAvailability) {
  for (const Box& box : kBoxes) {
    RaggedFeed feed;
    RaggedFeed reference;
    expect_rows_match_points(feed, reference, row_starts(box.lo, box.hi),
                             "ragged");
  }
}

TEST(FeedRows, SliceFeedClipsRowsToItsBox) {
  for (const Box& box : kBoxes) {
    SliceFeed feed(make_slice(box.lo, box.hi));
    SliceFeed reference(make_slice(box.lo, box.hi));
    expect_rows_match_points(feed, reference, row_starts(box.lo, box.hi),
                             "slice " + poly::to_string(box.lo));
  }
}

TEST(FeedRows, BoundaryFeedMatchesPointLoopUnderEveryPolicy) {
  const stencil::BoundaryPolicy policies[] = {
      stencil::BoundaryPolicy::kNone, stencil::BoundaryPolicy::kShrink,
      stencil::BoundaryPolicy::kClamp, stencil::BoundaryPolicy::kWrap,
      stencil::BoundaryPolicy::kConstant};
  for (const Box& box : kBoxes) {
    for (const stencil::BoundaryPolicy policy : policies) {
      const std::string label = std::string("boundary ") +
                                stencil::to_string(policy) + " " +
                                poly::to_string(box.lo);
      // Inner slice exactly the policy box, as the temporal runner builds
      // it, and an unbounded synthetic inner feed.
      const auto over_slice = [&] {
        return std::make_shared<BoundaryFeed>(
            std::make_shared<SliceFeed>(make_slice(box.lo, box.hi)), box.lo,
            box.hi, policy, 0.75);
      };
      const auto over_synthetic = [&] {
        return std::make_shared<BoundaryFeed>(
            std::make_shared<sim::SyntheticFeed>(3, 0), box.lo, box.hi,
            policy, 0.75);
      };
      const std::vector<poly::IntVec> starts = row_starts(box.lo, box.hi);
      expect_rows_match_points(*over_slice(), *over_slice(), starts,
                               label + " over slice");
      expect_rows_match_points(*over_synthetic(), *over_synthetic(), starts,
                               label + " over synthetic");
    }
  }
}

}  // namespace
}  // namespace nup::pipeline
