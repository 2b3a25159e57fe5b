// Locality-aware pipelined execution: with a faked multi-node topology the
// pipeline's engine places tiles on nodes, edge slab pools split into
// per-node arenas, and stage buffers route slabs through the producer
// tile's arena -- none of which may change a single output bit. Fifty
// random two-stage chains run under NUP_FAKE_TOPOLOGY=2 and =4 and must
// match the same chains with --numa off; the per-edge resident-bytes gauge
// must track pool occupancy.

#include "pipeline/executor.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "pipeline/stage_graph.hpp"
#include "runtime/topology.hpp"
#include "stencil/gallery.hpp"
#include "testing/stencil_gen.hpp"

namespace nup::pipeline {
namespace {

using ::nup::testing::random_stage_pair;

struct FakeTopo {
  explicit FakeTopo(const char* n) { setenv("NUP_FAKE_TOPOLOGY", n, 1); }
  ~FakeTopo() { unsetenv("NUP_FAKE_TOPOLOGY"); }
};

std::vector<double> run_chain(
    const std::vector<stencil::StencilProgram>& stages,
    runtime::NumaMode numa, std::uint64_t seed, std::uint64_t seed2) {
  PipelineOptions options;
  options.threads_per_stage = 2;
  options.tile_shape = {3, 0};
  options.numa = numa;
  PipelineExecutor executor(StageGraph::chain(stages), options);
  // Two frames in flight: cross-frame slab recycling through the arenas
  // must not leak state between data-independent frames.
  PipelineHandle first = executor.submit(seed);
  PipelineHandle second = executor.submit(seed2);
  const PipelineResult& a = first.wait();
  const PipelineResult& b = second.wait();
  EXPECT_TRUE(a.ok()) << a.error;
  EXPECT_TRUE(b.ok()) << b.error;
  EXPECT_FALSE(a.stages.back().outputs.empty());
  // Both frames' sink outputs, concatenated: the differential covers the
  // cross-frame arena recycling too.
  std::vector<double> out = a.stages.back().outputs;
  out.insert(out.end(), b.stages.back().outputs.begin(),
             b.stages.back().outputs.end());
  return out;
}

// The tentpole differential: 50 random chains, fake 2-node and 4-node
// layouts, numa auto vs numa off -- bit-identical sink outputs.
TEST(PipelineNuma, FiftyRandomChainsBitIdenticalToOff) {
  int chain = 0;
  for (const char* fake : {"2", "4"}) {
    FakeTopo guard(fake);
    for (std::uint64_t seed = 0; seed < 25; ++seed, ++chain) {
      const std::vector<stencil::StencilProgram> stages =
          random_stage_pair(seed);
      const std::vector<double> off =
          run_chain(stages, runtime::NumaMode::kOff, seed, seed + 1000);
      const std::vector<double> aut =
          run_chain(stages, runtime::NumaMode::kAuto, seed, seed + 1000);
      EXPECT_EQ(aut, off) << "chain " << chain << " fake " << fake
                          << " seed " << seed;
    }
  }
}

TEST(PipelineNuma, InterleaveBitIdenticalToOff) {
  FakeTopo guard("2");
  for (std::uint64_t seed = 50; seed < 56; ++seed) {
    const std::vector<stencil::StencilProgram> stages =
        random_stage_pair(seed);
    EXPECT_EQ(
        run_chain(stages, runtime::NumaMode::kInterleave, seed, seed + 1),
        run_chain(stages, runtime::NumaMode::kOff, seed, seed + 1))
        << "seed " << seed;
  }
}

// The pipeline's engine inherits its numa mode and reports the node
// count; the per-edge pool publishes its resident bytes.
TEST(PipelineNuma, EnginesSeeNodesAndEdgePoolsPublishResidency) {
  FakeTopo guard("2");
  obs::Registry registry;
  const std::vector<stencil::StencilProgram> stages = random_stage_pair(3);
  PipelineOptions options;
  options.threads_per_stage = 1;
  options.tile_shape = {3, 0};
  options.metrics = &registry;
  options.numa = runtime::NumaMode::kAuto;
  PipelineExecutor executor(StageGraph::chain(stages), options);
  ASSERT_TRUE(executor.submit(7).wait().ok());

  EXPECT_EQ(executor.engine().topology().node_count(), 2u);
  EXPECT_EQ(executor.engine().stats().nodes, 2u);
  ASSERT_EQ(executor.graph().edges().size(), 1u);
  const std::string gauge_name =
      "pool." + executor.graph().edges()[0].label + ".resident_bytes";
  // After a frame the edge pool holds its recycled slabs: resident bytes
  // are positive and mirror the pool's own accounting.
  EXPECT_GT(registry.gauge(gauge_name).value(), 0);
  executor.shutdown();
}

TEST(PipelineNuma, OffKeepsSingleArenaPoolsAndSingleNodeEngines) {
  FakeTopo guard("2");  // even with a multi-node host, off ignores it
  obs::Registry registry;
  const std::vector<stencil::StencilProgram> stages = random_stage_pair(4);
  PipelineOptions options;
  options.threads_per_stage = 1;
  options.tile_shape = {3, 0};
  options.metrics = &registry;
  PipelineExecutor executor(StageGraph::chain(stages), options);
  ASSERT_TRUE(executor.submit(9).wait().ok());
  EXPECT_EQ(executor.engine().topology().node_count(), 1u);
  EXPECT_EQ(executor.engine().stats().tiles_stolen, 0);
  executor.shutdown();
}

}  // namespace
}  // namespace nup::pipeline
