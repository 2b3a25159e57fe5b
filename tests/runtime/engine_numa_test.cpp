// Locality-aware scheduling in the frame engine: under a faked multi-node
// topology the per-node queues, sticky dispatch, worker pinning and idle
// stealing must never change a single output bit relative to --numa off,
// the steal path must actually run (and stitch correctly) when one node is
// deliberately overloaded, and the per-node observability series must add
// up.

#include "runtime/engine.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/topology.hpp"
#include "stencil/gallery.hpp"
#include "stencil/golden.hpp"
#include "testing/stencil_gen.hpp"

namespace nup::runtime {
namespace {

using ::nup::testing::random_program;

// Scoped NUP_FAKE_TOPOLOGY (discover() reads the env per call, so setting
// it before constructing an engine is enough).
struct FakeTopo {
  explicit FakeTopo(const char* n) { setenv("NUP_FAKE_TOPOLOGY", n, 1); }
  ~FakeTopo() { unsetenv("NUP_FAKE_TOPOLOGY"); }
};

FrameResult run_one(const stencil::StencilProgram& program,
                    std::uint64_t seed, NumaMode numa,
                    obs::Registry* registry = nullptr,
                    std::function<int(const Tile&, std::size_t, std::size_t)>
                        place = nullptr) {
  obs::Registry local;
  EngineOptions options;
  options.threads = 2;
  options.tile_shape = {3, 0};
  options.metrics = registry != nullptr ? registry : &local;
  options.numa = numa;
  options.place_tile = std::move(place);
  FrameEngine engine(options);
  return engine.submit(program, seed).wait();
}

TEST(EngineNuma, OffReportsOneNodeAndNeverSteals) {
  const stencil::StencilProgram p = stencil::jacobi_2d();
  obs::Registry registry;
  EngineOptions options;
  options.threads = 2;
  options.tile_shape = {3, 0};
  options.metrics = &registry;
  FrameEngine engine(options);  // numa defaults to kOff
  EXPECT_EQ(engine.topology().node_count(), 1u);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    ASSERT_TRUE(engine.submit(p, seed).wait().ok());
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.nodes, 1u);
  EXPECT_EQ(stats.tiles_stolen, 0);
  // Fully local by definition: the gauge stays at 1000 permille.
  EXPECT_EQ(registry.gauge("engine.placement.local_fraction").value(),
            1000);
}

TEST(EngineNuma, AutoOnTwoFakeNodesBitIdenticalToOffAndGolden) {
  FakeTopo guard("2");
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const stencil::StencilProgram p = random_program(seed);
    const FrameResult off = run_one(p, seed, NumaMode::kOff);
    const FrameResult aut = run_one(p, seed, NumaMode::kAuto);
    ASSERT_TRUE(off.ok()) << off.error;
    ASSERT_TRUE(aut.ok()) << aut.error;
    EXPECT_EQ(aut.outputs, off.outputs) << p.name() << " seed " << seed;
    EXPECT_EQ(aut.outputs, stencil::run_golden(p, seed).outputs)
        << p.name() << " seed " << seed;
  }
}

TEST(EngineNuma, InterleaveOnFourFakeNodesBitIdenticalToGolden) {
  FakeTopo guard("4");
  for (std::uint64_t seed = 20; seed < 28; ++seed) {
    const stencil::StencilProgram p = random_program(seed);
    const FrameResult result = run_one(p, seed, NumaMode::kInterleave);
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(result.outputs, stencil::run_golden(p, seed).outputs)
        << p.name() << " seed " << seed;
  }
}

// Saturate node 0: every tile is placed there while a worker is dedicated
// to node 1, so node 1 can only make progress by stealing. The frame must
// still stitch bit-identically -- a stolen tile runs unchanged, only on a
// different worker.
TEST(EngineNuma, StealPathRunsAndStitchesCorrectly) {
  FakeTopo guard("2");
  const stencil::StencilProgram p = stencil::jacobi_2d();
  obs::Registry registry;
  EngineOptions options;
  options.threads = 2;
  options.tile_shape = {2, 0};  // plenty of tiles to fight over
  options.metrics = &registry;
  options.numa = NumaMode::kAuto;
  options.place_tile = [](const Tile&, std::size_t, std::size_t) {
    return 0;
  };
  FrameEngine engine(options);
  ASSERT_EQ(engine.topology().node_count(), 2u);
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const FrameResult result = engine.submit(p, seed).wait();
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(result.outputs, stencil::run_golden(p, seed).outputs)
        << "seed " << seed;
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.nodes, 2u);
  EXPECT_GT(stats.tiles_stolen, 0);
  // Steals show up as node-1 remote dispatches, dragging the local
  // fraction below fully-local.
  EXPECT_GT(registry.counter("engine.node.1.steals").value(), 0);
  EXPECT_LT(registry.gauge("engine.placement.local_fraction").value(),
            1000);
}

TEST(EngineNuma, NodeSeriesAddUpToTilesExecuted) {
  FakeTopo guard("2");
  const stencil::StencilProgram p = stencil::jacobi_2d();
  obs::Registry registry;
  EngineOptions options;
  options.threads = 2;
  options.tile_shape = {3, 0};
  options.metrics = &registry;
  options.numa = NumaMode::kAuto;
  FrameEngine engine(options);
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    ASSERT_TRUE(engine.submit(p, seed).wait().ok());
  }
  const EngineStats stats = engine.stats();
  const std::int64_t node_tiles =
      registry.counter("engine.node.0.tiles").value() +
      registry.counter("engine.node.1.tiles").value();
  EXPECT_EQ(node_tiles, stats.tiles_executed);
  const std::int64_t steals =
      registry.counter("engine.node.0.steals").value() +
      registry.counter("engine.node.1.steals").value();
  EXPECT_EQ(steals, stats.tiles_stolen);
  // Sticky dispatch keeps the local fraction high: the gauge is permille.
  const std::int64_t local =
      registry.gauge("engine.placement.local_fraction").value();
  EXPECT_GE(local, 0);
  EXPECT_LE(local, 1000);
  if (stats.tiles_stolen == 0) {
    EXPECT_EQ(local, 1000);
  }
}

TEST(EngineNuma, PlacementForExposesTheComputedPlan) {
  FakeTopo guard("2");
  EngineOptions options;
  options.threads = 2;
  options.tile_shape = {3, 0};
  options.numa = NumaMode::kAuto;
  FrameEngine engine(options);
  const auto plan = engine.plan_for(stencil::jacobi_2d());
  const auto placement = engine.placement_for(plan);
  ASSERT_NE(placement, nullptr);
  EXPECT_EQ(placement->node_of.size(), plan->tiles.size());
  EXPECT_EQ(placement->node_count(), 2u);
  // Off engines have no placement to expose.
  EngineOptions off = options;
  off.numa = NumaMode::kOff;
  FrameEngine off_engine(off);
  EXPECT_EQ(off_engine.placement_for(off_engine.plan_for(
                stencil::jacobi_2d())),
            nullptr);
}

}  // namespace
}  // namespace nup::runtime
