// SlabPool free-list arena and its use under StageBuffer: recycled
// storage must be reused (no fresh heap allocations in steady state,
// asserted through the allocation-counting hook), skipped consumers must
// retire their producers' slabs, and recycled slabs must never change
// the stitched bits across buffer generations.

#include "pipeline/slab_pool.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "obs/metrics.hpp"
#include "pipeline/dependency.hpp"
#include "pipeline/stage_buffer.hpp"
#include "runtime/tiler.hpp"
#include "stencil/program.hpp"

namespace nup::pipeline {
namespace {

// ---- SlabPool ----------------------------------------------------------

TEST(SlabPool, TakeGiveRecyclesStorage) {
  SlabPool pool;
  std::vector<double> a = pool.take(100);
  EXPECT_EQ(a.size(), 100u);
  EXPECT_EQ(pool.stats().allocated, 1);
  EXPECT_EQ(pool.stats().outstanding, 1);

  pool.give(std::move(a));
  EXPECT_EQ(pool.stats().outstanding, 0);

  // A smaller request reuses the returned storage instead of allocating.
  std::vector<double> b = pool.take(80);
  EXPECT_EQ(b.size(), 80u);
  EXPECT_EQ(pool.stats().allocated, 1);
  EXPECT_EQ(pool.stats().reused, 1);

  // A request nothing free can hold allocates fresh.
  std::vector<double> c = pool.take(200);
  EXPECT_EQ(pool.stats().allocated, 2);
  pool.give(std::move(b));
  pool.give(std::move(c));
}

TEST(SlabPool, TakePrefersTheSmallestFittingSlab) {
  SlabPool pool;
  std::vector<double> small = pool.take(100);
  std::vector<double> large = pool.take(1000);
  pool.give(std::move(small));
  pool.give(std::move(large));

  // Best fit: the 100-capacity vector serves the 50-element request, so
  // the large slab stays available for large requests.
  std::vector<double> got = pool.take(50);
  EXPECT_LT(got.capacity(), 1000u);
  std::vector<double> big = pool.take(900);
  EXPECT_EQ(pool.stats().allocated, 2) << "large request should reuse";
}

TEST(SlabPool, LeaseRecyclesWhenTheLastHolderDrops) {
  SlabPool pool;
  std::shared_ptr<std::vector<double>> a = pool.lease(50);
  ASSERT_EQ(a->size(), 50u);
  (*a)[0] = 7.5;
  const std::vector<double>* raw = a.get();
  EXPECT_EQ(pool.stats().allocated, 1);

  // While held, a second lease cannot reuse it.
  std::shared_ptr<std::vector<double>> b = pool.lease(50);
  EXPECT_NE(b.get(), raw);
  EXPECT_EQ(pool.stats().allocated, 2);

  // Dropping the holder returns it to circulation -- same storage, no new
  // control block, zero-filled again.
  a.reset();
  std::shared_ptr<std::vector<double>> c = pool.lease(40);
  EXPECT_EQ(c.get(), raw);
  EXPECT_EQ(c->size(), 40u);
  EXPECT_EQ((*c)[0], 0.0) << "leases must hand out zero-filled buffers";
  EXPECT_EQ(pool.stats().allocated, 2);
  EXPECT_EQ(pool.stats().reused, 1);
}

TEST(SlabPool, StatsCountOutstandingLeases) {
  SlabPool pool;
  std::shared_ptr<std::vector<double>> a = pool.lease(10);
  std::vector<double> t = pool.take(10);
  EXPECT_EQ(pool.stats().outstanding, 2);
  a.reset();
  pool.give(std::move(t));
  EXPECT_EQ(pool.stats().outstanding, 0);
}

TEST(SlabPool, AllocHookFiresOnlyOnFreshAllocations) {
  SlabPool pool;
  int fresh = 0;
  pool.set_alloc_hook([&fresh](std::size_t) { ++fresh; });

  std::vector<double> a = pool.take(64);
  EXPECT_EQ(fresh, 1);
  pool.give(std::move(a));
  std::vector<double> b = pool.take(64);
  EXPECT_EQ(fresh, 1) << "reuse must not fire the hook";
  pool.give(std::move(b));

  std::shared_ptr<std::vector<double>> l = pool.lease(32);
  EXPECT_EQ(fresh, 2);
  l.reset();
  l = pool.lease(32);
  EXPECT_EQ(fresh, 2) << "lease reuse must not fire the hook";
}

TEST(SlabPool, BindMetricsMirrorsTallies) {
  obs::Registry registry;
  SlabPool pool;
  pool.bind_metrics(&registry.counter("p.slab_allocated"),
                    &registry.counter("p.slab_recycled"));
  std::vector<double> a = pool.take(8);
  pool.give(std::move(a));
  std::vector<double> b = pool.take(8);
  pool.give(std::move(b));
  EXPECT_EQ(registry.counter("p.slab_allocated").value(), 1);
  EXPECT_EQ(registry.counter("p.slab_recycled").value(), 1);
}

// ---- StageBuffer over a shared pool ------------------------------------

stencil::StencilProgram smoother(const std::string& name, std::int64_t lo,
                                 std::int64_t rows, std::int64_t cols) {
  stencil::StencilProgram p(
      name, poly::Domain::box({lo, lo}, {rows - 1 - lo, cols - 1 - lo}));
  p.add_input("A", {{-1, 0}, {0, -1}, {0, 0}, {0, 1}, {1, 0}});
  return p;
}

// Two radius-1 smoothers in 2-row bands, the slab-pool edge fixture: a
// producer frame is admitted tile by tile and consumed via stitch().
struct EdgeFixture {
  EdgeFixture()
      : s0(smoother("S0", 1, 14, 10)), s1(smoother("S1", 2, 14, 10)) {
    runtime::TilerOptions topts;
    topts.tile_shape = {2, 0};
    p0 = std::make_shared<const runtime::TilePlan>(
        runtime::plan_tiles(s0, topts));
    p1 = std::make_shared<const runtime::TilePlan>(
        runtime::plan_tiles(s1, topts));
    map = std::make_shared<const EdgeTileMap>(
        map_tile_dependencies(*p0, *p1, 0));
    stitch = std::make_shared<const EdgeStitchPlan>(
        plan_edge_stitch(*p0, *p1, *map, 0));
    // A deterministic producer frame: value = lex rank.
    frame.resize(static_cast<std::size_t>(p0->total_outputs));
    for (std::size_t k = 0; k < frame.size(); ++k) {
      frame[k] = static_cast<double>(k) * 0.5;
    }
  }
  /// Producer tile `p`'s outputs in tile order (what admit takes),
  /// gathered from the frame through the tile's output_ranks.
  std::vector<double> tile_outputs(std::size_t p) const {
    std::vector<double> out;
    for (const std::int64_t rank : p0->tiles[p].output_ranks) {
      out.push_back(frame[static_cast<std::size_t>(rank)]);
    }
    return out;
  }

  stencil::StencilProgram s0, s1;
  std::shared_ptr<const runtime::TilePlan> p0, p1;
  std::shared_ptr<const EdgeTileMap> map;
  std::shared_ptr<const EdgeStitchPlan> stitch;
  std::vector<double> frame;
};

TEST(StageBufferPool, SlabsRecycleAcrossBufferGenerations) {
  EdgeFixture fx;
  obs::Registry registry;
  auto pool = std::make_shared<SlabPool>();

  // Generation 0 warms the pool; afterwards no admit/stitch/retire cycle
  // may allocate, and the stitched bits never change.
  std::vector<std::vector<double>> reference;
  bool armed = false;
  pool->set_alloc_hook([&armed](std::size_t n) {
    if (armed) {
      FAIL() << "steady-state allocation of " << n << " elements";
    }
  });
  for (int generation = 0; generation < 4; ++generation) {
    StageBuffer buffer(fx.p0, fx.map, fx.stitch, EdgeMetrics(registry, "gen"),
                       pool);
    for (std::size_t p = 0; p < fx.p0->tiles.size(); ++p) {
      buffer.admit(p, fx.tile_outputs(p).data());
    }
    for (std::size_t c = 0; c < fx.p1->tiles.size(); ++c) {
      Slice slice = buffer.stitch(c);
      if (generation == 0) {
        reference.push_back(*slice.data);
      } else {
        EXPECT_EQ(*slice.data, reference[c])
            << "generation " << generation << " consumer " << c
            << " stitched different bits from recycled storage";
      }
    }
    EXPECT_EQ(buffer.occupancy().tiles, 0) << "slabs left resident";
    if (generation == 0) armed = true;  // pool is warm: no more allocs
  }
  EXPECT_EQ(pool->stats().outstanding, 0);
  EXPECT_GT(pool->stats().reused, 0);
}

TEST(StageBufferPool, SkippedConsumersRetireTheirProducerSlabs) {
  EdgeFixture fx;
  obs::Registry registry;
  auto pool = std::make_shared<SlabPool>();
  StageBuffer buffer(fx.p0, fx.map, fx.stitch, EdgeMetrics(registry, "skip"),
                     pool);

  for (std::size_t p = 0; p < fx.p0->tiles.size(); ++p) {
    buffer.admit(p, fx.tile_outputs(p).data());
  }
  const std::int64_t resident = buffer.occupancy().tiles;
  ASSERT_GT(resident, 0);

  // Abort path: every consumer tile is dropped without stitching. All
  // slabs must retire back into the pool, not linger until teardown.
  for (std::size_t c = 0; c < fx.p1->tiles.size(); ++c) {
    buffer.release_consumer(c);
  }
  EXPECT_EQ(buffer.occupancy().tiles, 0);
  EXPECT_EQ(buffer.occupancy().elements, 0);
  EXPECT_EQ(buffer.occupancy().retired, resident);
  EXPECT_EQ(pool->stats().outstanding, 0);
}

TEST(StageBufferPool, MixedStitchAndSkipRetiresEverything) {
  EdgeFixture fx;
  obs::Registry registry;
  auto pool = std::make_shared<SlabPool>();
  StageBuffer buffer(fx.p0, fx.map, fx.stitch, EdgeMetrics(registry, "mixed"),
                     pool);

  for (std::size_t p = 0; p < fx.p0->tiles.size(); ++p) {
    buffer.admit(p, fx.tile_outputs(p).data());
  }
  // Odd consumers are served, even consumers skipped (a frame cancelled
  // midway): both paths must decrement the same pending counts.
  for (std::size_t c = 0; c < fx.p1->tiles.size(); ++c) {
    if (c % 2 == 1) {
      buffer.stitch(c);
    } else {
      buffer.release_consumer(c);
    }
  }
  EXPECT_EQ(buffer.occupancy().tiles, 0);
  EXPECT_EQ(pool->stats().outstanding, 0);
}

TEST(StageBufferPool, SkipBeforeAdmitDropsTheLateSlab) {
  EdgeFixture fx;
  obs::Registry registry;
  auto pool = std::make_shared<SlabPool>();
  StageBuffer buffer(fx.p0, fx.map, fx.stitch, EdgeMetrics(registry, "late"),
                     pool);

  // All consumers are dropped before any producer resolves (an abort that
  // wins the race): a late admit must hand its slab straight back.
  for (std::size_t c = 0; c < fx.p1->tiles.size(); ++c) {
    buffer.release_consumer(c);
  }
  for (std::size_t p = 0; p < fx.p0->tiles.size(); ++p) {
    buffer.admit(p, fx.tile_outputs(p).data());
  }
  EXPECT_EQ(buffer.occupancy().tiles, 0);
  EXPECT_EQ(pool->stats().outstanding, 0);
}

TEST(StageBufferPool, PrivatePoolWhenNoneIsShared) {
  EdgeFixture fx;
  obs::Registry registry;
  // Null pool: the buffer still works end to end over its private arena
  // (single-frame and test uses).
  StageBuffer buffer(fx.p0, fx.map, fx.stitch,
                     EdgeMetrics(registry, "solo"));
  for (std::size_t p = 0; p < fx.p0->tiles.size(); ++p) {
    buffer.admit(p, fx.tile_outputs(p).data());
  }
  for (std::size_t c = 0; c < fx.p1->tiles.size(); ++c) {
    Slice slice = buffer.stitch(c);
    EXPECT_NE(slice.data, nullptr);
  }
  EXPECT_EQ(buffer.occupancy().tiles, 0);
}

// ---- per-node arenas ---------------------------------------------------

TEST(SlabPoolArenas, ArenasRecycleIndependently) {
  SlabPool pool(2);
  EXPECT_EQ(pool.arena_count(), 2u);
  std::vector<double> a = pool.take(100, 0);
  pool.give(std::move(a), 0);

  // Arena 1 cannot see arena 0's free list: this request allocates fresh.
  std::vector<double> b = pool.take(100, 1);
  EXPECT_EQ(pool.stats().allocated, 2);
  EXPECT_EQ(pool.stats().reused, 0);
  pool.give(std::move(b), 1);

  // Each arena reuses its own storage.
  std::vector<double> c = pool.take(80, 0);
  std::vector<double> d = pool.take(80, 1);
  EXPECT_EQ(pool.stats().allocated, 2);
  EXPECT_EQ(pool.stats().reused, 2);
  pool.give(std::move(c), 0);
  pool.give(std::move(d), 1);
}

TEST(SlabPoolArenas, OutOfRangeArenaClampsInsteadOfCrashing) {
  SlabPool pool(2);
  std::vector<double> a = pool.take(32, 99);  // clamps to the last arena
  pool.give(std::move(a), 99);
  std::vector<double> b = pool.take(32, 1);
  EXPECT_EQ(pool.stats().reused, 1) << "clamped give must land in arena 1";
  pool.give(std::move(b), 1);
  // The default single-arena pool clamps everything to arena 0.
  SlabPool single;
  std::vector<double> c = single.take(16, 5);
  single.give(std::move(c), 7);
  std::vector<double> d = single.take(16, 0);
  EXPECT_EQ(single.stats().reused, 1);
  single.give(std::move(d));
}

TEST(SlabPoolArenas, LiveSlabsCountEveryBufferAlive) {
  SlabPool pool(2);
  EXPECT_EQ(pool.live_slabs(), 0);
  std::vector<double> t = pool.take(10, 0);          // outstanding take
  std::shared_ptr<std::vector<double>> l = pool.lease(20, 1);  // leased
  EXPECT_EQ(pool.live_slabs(), 2);
  pool.give(std::move(t), 0);  // now a free-list entry: still alive
  EXPECT_EQ(pool.live_slabs(), 2);
  l.reset();  // recyclable lease entry: still resident in the pool
  EXPECT_EQ(pool.live_slabs(), 2);
}

TEST(SlabPoolArenas, ResidentBytesTrackPoolHeldCapacity) {
  SlabPool pool(2);
  EXPECT_EQ(pool.bytes_resident(), 0);

  // An outstanding take() is the caller's memory, not the pool's.
  std::vector<double> t = pool.take(100, 0);
  EXPECT_EQ(pool.bytes_resident(), 0);
  const std::int64_t cap100 =
      static_cast<std::int64_t>(t.capacity() * sizeof(double));
  pool.give(std::move(t), 0);
  EXPECT_EQ(pool.bytes_resident(), cap100);

  // Leases are pool-held for their whole life (the pool keeps a ref).
  std::shared_ptr<std::vector<double>> l = pool.lease(50, 1);
  const std::int64_t cap50 =
      static_cast<std::int64_t>(l->capacity() * sizeof(double));
  EXPECT_EQ(pool.bytes_resident(), cap100 + cap50);
  l.reset();
  EXPECT_EQ(pool.bytes_resident(), cap100 + cap50);

  // Re-taking moves the capacity back to the caller.
  std::vector<double> again = pool.take(90, 0);
  EXPECT_EQ(pool.bytes_resident(), cap50);
  pool.give(std::move(again), 0);
  EXPECT_EQ(pool.bytes_resident(), cap100 + cap50);
}

TEST(SlabPoolArenas, ResidentGaugeMirrorsBytesResident) {
  obs::Registry registry;
  obs::Gauge& gauge = registry.gauge("pool.test.resident_bytes");
  SlabPool pool(2);
  pool.bind_resident_gauge(&gauge);

  std::vector<double> t = pool.take(64, 1);
  pool.give(std::move(t), 1);
  EXPECT_EQ(gauge.value(), pool.bytes_resident());
  EXPECT_GT(gauge.value(), 0);

  std::shared_ptr<std::vector<double>> l = pool.lease(32, 0);
  EXPECT_EQ(gauge.value(), pool.bytes_resident());
  std::vector<double> again = pool.take(64, 1);
  EXPECT_EQ(gauge.value(), pool.bytes_resident());
  pool.give(std::move(again), 1);
  l.reset();
  EXPECT_EQ(gauge.value(), pool.bytes_resident());
}

}  // namespace
}  // namespace nup::pipeline
