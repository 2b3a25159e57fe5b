// Differential test of the planned stitch: for every consumer tile, the
// slice StageBuffer::stitch assembles from the edge's row-copy plan must
// equal, at every point a producer computes, the slice of the per-point
// walk it replaced -- each covering producer tile's iteration domain
// enumerated point by point, its k-th point taking slab element k. The
// pairs cover rectangular and sheared producers in 1-D, 2-D and 3-D,
// single-row tiles, wrap edges (slice box expanded to the producer
// domain) and hulls that reach past every producer tile.

#include "pipeline/stage_buffer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "pipeline/dependency.hpp"
#include "runtime/tiler.hpp"
#include "testing/stencil_gen.hpp"

namespace nup::pipeline {
namespace {

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// The per-point oracle: the stitch as it was before it was planned.
struct PointSlice {
  poly::IntVec lo, hi;
  std::vector<double> values;
  std::vector<char> covered;
};

PointSlice point_walk_stitch(const runtime::TilePlan& producer_plan,
                             const runtime::TilePlan& consumer_plan,
                             const EdgeTileMap& map, std::size_t c,
                             const poly::IntVec& expand_lo,
                             const poly::IntVec& expand_hi,
                             const std::vector<double>& frame) {
  PointSlice slice;
  EXPECT_TRUE(consumer_plan.tiles[c].input_hulls[0].as_single_box(
      &slice.lo, &slice.hi));
  for (std::size_t d = 0; d < expand_lo.size(); ++d) {
    slice.lo[d] = std::min(slice.lo[d], expand_lo[d]);
    slice.hi[d] = std::max(slice.hi[d], expand_hi[d]);
  }
  std::vector<std::int64_t> strides(slice.lo.size(), 1);
  for (std::size_t d = slice.lo.size(); d-- > 1;) {
    strides[d - 1] = strides[d] * (slice.hi[d] - slice.lo[d] + 1);
  }
  const std::int64_t total = strides[0] * (slice.hi[0] - slice.lo[0] + 1);
  slice.values.assign(static_cast<std::size_t>(total), 0.0);
  slice.covered.assign(static_cast<std::size_t>(total), 0);
  for (const std::size_t p : map.producers_of[c]) {
    const runtime::Tile& producer = producer_plan.tiles[p];
    std::size_t k = 0;
    producer.program->iteration().for_each([&](const poly::IntVec& point) {
      bool inside = true;
      std::int64_t idx = 0;
      for (std::size_t d = 0; d < point.size(); ++d) {
        inside = inside && point[d] >= slice.lo[d] && point[d] <= slice.hi[d];
        idx += (point[d] - slice.lo[d]) * strides[d];
      }
      if (inside) {
        slice.values[static_cast<std::size_t>(idx)] =
            frame[static_cast<std::size_t>(producer.output_ranks[k])];
        slice.covered[static_cast<std::size_t>(idx)] = 1;
      }
      ++k;
    });
  }
  return slice;
}

/// Smallest box holding `domain` (test-sized domains only).
void bounding_box(const poly::Domain& domain, poly::IntVec* lo,
                  poly::IntVec* hi) {
  *lo = *domain.lex_min();
  *hi = *lo;
  domain.for_each([&](const poly::IntVec& point) {
    for (std::size_t d = 0; d < point.size(); ++d) {
      (*lo)[d] = std::min((*lo)[d], point[d]);
      (*hi)[d] = std::max((*hi)[d], point[d]);
    }
  });
}

/// The 2·dim+1-point window of radius `r` along each axis.
std::vector<poly::IntVec> star(std::size_t dim, std::int64_t r) {
  std::vector<poly::IntVec> offsets = {poly::IntVec(dim, 0)};
  for (std::size_t d = 0; d < dim; ++d) {
    for (const std::int64_t s : {-r, r}) {
      poly::IntVec o(dim, 0);
      o[d] = s;
      offsets.push_back(o);
    }
  }
  return offsets;
}

stencil::StencilProgram program_over(const std::string& name,
                                     poly::Domain domain,
                                     std::vector<poly::IntVec> window) {
  stencil::StencilProgram p(name, std::move(domain));
  p.add_input("A", std::move(window));
  return p;
}

/// Stitches every consumer tile of the edge through a StageBuffer and
/// compares it with the per-point walk: the same box, the same bits at
/// every covered point, and 0.0 wherever no producer computes (the lease
/// zero-fills; a run landing there would show up as a nonzero value).
void expect_stitch_matches_point_walk(
    const stencil::StencilProgram& producer,
    const stencil::StencilProgram& consumer,
    const poly::IntVec& producer_tile, const poly::IntVec& consumer_tile,
    bool wrap, const std::string& label) {
  runtime::TilerOptions popts, copts;
  popts.tile_shape = producer_tile;
  copts.tile_shape = consumer_tile;
  auto p0 = std::make_shared<const runtime::TilePlan>(
      runtime::plan_tiles(producer, popts));
  auto p1 = std::make_shared<const runtime::TilePlan>(
      runtime::plan_tiles(consumer, copts));
  auto map = std::make_shared<const EdgeTileMap>(
      map_tile_dependencies(*p0, *p1, 0));
  poly::IntVec expand_lo, expand_hi;
  if (wrap) bounding_box(producer.iteration(), &expand_lo, &expand_hi);
  auto stitch = std::make_shared<const EdgeStitchPlan>(
      plan_edge_stitch(*p0, *p1, *map, 0, expand_lo, expand_hi));

  std::vector<double> frame(static_cast<std::size_t>(p0->total_outputs));
  for (std::size_t k = 0; k < frame.size(); ++k) {
    frame[k] = 1.0 + 0.25 * static_cast<double>(k);
  }
  obs::Registry registry;
  StageBuffer buffer(p0, map, stitch, registry, "diff");
  for (std::size_t p = 0; p < p0->tiles.size(); ++p) {
    buffer.admit(p, frame.data());
  }
  std::int64_t covered_points = 0;
  for (std::size_t c = 0; c < p1->tiles.size(); ++c) {
    const std::string where = label + " consumer tile " + std::to_string(c);
    const PointSlice oracle =
        point_walk_stitch(*p0, *p1, *map, c, expand_lo, expand_hi, frame);
    const Slice slice = buffer.stitch(c);
    ASSERT_EQ(slice.lo, oracle.lo) << where;
    ASSERT_EQ(slice.hi, oracle.hi) << where;
    ASSERT_EQ(slice.data->size(), oracle.values.size()) << where;
    for (std::size_t i = 0; i < oracle.values.size(); ++i) {
      ASSERT_EQ(bits_of((*slice.data)[i]), bits_of(oracle.values[i]))
          << where << " slice element " << i
          << (oracle.covered[i] ? " (covered)" : " (padding)");
      covered_points += oracle.covered[i];
    }
  }
  EXPECT_GT(covered_points, 0) << label << ": the edge stitched nothing";
  EXPECT_EQ(buffer.occupancy().tiles, 0) << label << ": slabs left resident";
}

/// Consumers over a producer domain's bounding box: one whose radius-1
/// hull is that box, one whose radius-2 hull reaches past every producer
/// tile on every side.
std::vector<stencil::StencilProgram> consumers_of(
    const stencil::StencilProgram& producer) {
  poly::IntVec lo, hi;
  bounding_box(producer.iteration(), &lo, &hi);
  const std::size_t dim = lo.size();
  poly::IntVec inner_lo = lo, inner_hi = hi;
  for (std::size_t d = 0; d < dim; ++d) {
    ++inner_lo[d];
    --inner_hi[d];
  }
  return {program_over("C_INNER", poly::Domain::box(inner_lo, inner_hi),
                       star(dim, 1)),
          program_over("C_PAST", poly::Domain::box(lo, hi), star(dim, 2))};
}

void expect_pairs_match(const stencil::StencilProgram& producer,
                        const std::vector<poly::IntVec>& tile_shapes,
                        const std::string& label) {
  for (const stencil::StencilProgram& consumer : consumers_of(producer)) {
    for (const poly::IntVec& pt : tile_shapes) {
      for (const poly::IntVec& ct : tile_shapes) {
        expect_stitch_matches_point_walk(
            producer, consumer, pt, ct, /*wrap=*/false,
            label + " " + consumer.name() + " tiles " + poly::to_string(pt) +
                "/" + poly::to_string(ct));
      }
    }
  }
}

TEST(StageBufferStitch, GeneratedTwoDimensionalPairsMatchThePointWalk) {
  using Shape = testing::StencilGenOptions::Shape;
  for (const Shape shape : {Shape::kRect, Shape::kSheared}) {
    testing::StencilGenOptions options;
    options.shape = shape;
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
      const stencil::StencilProgram producer =
          testing::random_program(seed, options);
      expect_pairs_match(producer, {{1, 0}, {3, 0}, {}},
                         producer.name());
    }
  }
}

TEST(StageBufferStitch, OneDimensionalPairsMatchThePointWalk) {
  const stencil::StencilProgram producer = program_over(
      "P1", poly::Domain::box({0}, {40}), {{-2}, {0}, {1}});
  expect_pairs_match(producer, {{1}, {6}, {}}, "1-D");
}

TEST(StageBufferStitch, ThreeDimensionalPairsMatchThePointWalk) {
  expect_pairs_match(program_over("P3_RECT",
                                  poly::Domain::box({0, 0, 0}, {4, 5, 9}),
                                  star(3, 1)),
                     {{1, 0, 0}, {2, 3, 0}}, "3-D rect");
  // k - i - j in [0, 7]: every row shifts with both outer coordinates.
  poly::Polyhedron piece(3);
  piece.add(poly::make_constraint({1, 0, 0}, 0));     // i >= 0
  piece.add(poly::make_constraint({-1, 0, 0}, 4));    // i <= 4
  piece.add(poly::make_constraint({0, 1, 0}, 0));     // j >= 0
  piece.add(poly::make_constraint({0, -1, 0}, 5));    // j <= 5
  piece.add(poly::make_constraint({-1, -1, 1}, 0));   // k-i-j >= 0
  piece.add(poly::make_constraint({1, 1, -1}, 7));    // k-i-j <= 7
  expect_pairs_match(
      program_over("P3_SKEW", poly::Domain(std::move(piece)), star(3, 1)),
      {{1, 0, 0}, {2, 3, 0}}, "3-D sheared");
}

TEST(StageBufferStitch, WrapEdgesStitchTheWholeProducerDomain) {
  // A wrap edge's consumer shares the producer's domain; its slice box is
  // the hull unioned with the producer domain.
  const auto domain_2d = poly::Domain::box({0, 0}, {9, 12});
  const auto domain_1d = poly::Domain::box({0}, {30});
  const stencil::StencilProgram p2 = program_over("W2", domain_2d, star(2, 1));
  const stencil::StencilProgram c2 = program_over("W2C", domain_2d, star(2, 2));
  const stencil::StencilProgram p1 = program_over("W1", domain_1d, star(1, 1));
  const stencil::StencilProgram c1 = program_over("W1C", domain_1d, star(1, 3));
  expect_stitch_matches_point_walk(p2, c2, {}, {}, true, "wrap 2-D whole");
  expect_stitch_matches_point_walk(p2, c2, {1, 0}, {4, 0}, true,
                                   "wrap 2-D banded");
  expect_stitch_matches_point_walk(p1, c1, {}, {}, true, "wrap 1-D whole");
}

}  // namespace
}  // namespace nup::pipeline
