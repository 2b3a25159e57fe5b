// Frame engine end-to-end: multi-threaded tiled execution must be
// bit-identical to stencil::run_golden on the gallery kernels and on a
// hundred seeded random stencils (rectangular and sheared), and the
// engine's control surface -- queue backpressure, cancellation of
// in-flight frames, graceful shutdown with queued work -- must be
// deterministic and free of hangs.

#include "runtime/engine.hpp"

#include <gtest/gtest.h>

#include <dirent.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "sim/fast.hpp"
#include "stencil/gallery.hpp"
#include "stencil/golden.hpp"
#include "util/error.hpp"
#include "testing/stencil_gen.hpp"

namespace nup::runtime {
namespace {

using std::chrono::milliseconds;

// Random programs come from the shared generator (legacy recipe: 2-7
// reference windows over small rectangular or sheared domains).
using ::nup::testing::random_program;

// A program whose kernel sleeps: frames take real wall time, which makes
// backpressure, cancellation and shutdown timing deterministic to test.
// The sleep does not change the value, so golden comparison still holds.
stencil::StencilProgram slow_program(std::int64_t rows, std::int64_t cols,
                                     milliseconds per_fire) {
  stencil::StencilProgram p("SLOW",
                            poly::Domain::box({1, 1}, {rows - 2, cols - 2}));
  p.add_input("A", {{-1, 0}, {0, -1}, {0, 0}, {0, 1}, {1, 0}});
  p.set_kernel([per_fire](const std::vector<double>& v) {
    std::this_thread::sleep_for(per_fire);
    return std::accumulate(v.begin(), v.end(), 0.0) / 5.0;
  });
  return p;
}

void expect_frame_matches_golden(const stencil::StencilProgram& p,
                                 const FrameResult& result) {
  ASSERT_TRUE(result.ok()) << p.name() << ": " << result.error;
  const stencil::GoldenRun golden = stencil::run_golden(p, result.seed);
  ASSERT_EQ(result.outputs.size(), golden.outputs.size()) << p.name();
  EXPECT_EQ(result.outputs, golden.outputs)
      << p.name() << " seed " << result.seed;
}

// ---- bit-identical frames ---------------------------------------------

TEST(FrameEngine, GalleryFramesBitIdenticalToGolden) {
  const std::vector<stencil::StencilProgram> programs = {
      stencil::denoise_2d(24, 32),  stencil::rician_2d(24, 32),
      stencil::sobel_2d(24, 32),    stencil::bicubic_2d(12, 48),
      stencil::denoise_3d(8, 10, 12),
      stencil::segmentation_3d(8, 10, 12)};

  EngineOptions options;
  options.threads = 4;
  options.tile_shape = {};  // automatic shape
  FrameEngine engine(options);

  std::vector<std::pair<std::size_t, FrameHandle>> handles;
  for (std::size_t i = 0; i < programs.size(); ++i) {
    for (const std::uint64_t seed : {3ull, 1717ull}) {
      handles.emplace_back(i, engine.submit(programs[i], seed));
    }
  }
  for (auto& [i, handle] : handles) {
    expect_frame_matches_golden(programs[i], handle.wait());
  }

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.frames_submitted, 12);
  EXPECT_EQ(stats.frames_completed, 12);
  EXPECT_EQ(stats.frames_cancelled, 0);
  EXPECT_EQ(stats.frames_failed, 0);
  // Second frame of each program rides entirely on cached designs.
  EXPECT_GE(stats.cache.hits, stats.cache.misses);
}

TEST(FrameEngine, SobelAndJacobi8ShareOnePlanAndKeepTheirKernels) {
  // Same 8-point window, so the design cache serves both kernels from one
  // compiled plan; each frame must still run its own kernel -- SOBEL's
  // block kernel, JACOBI8_2D's vectorized weighted sum -- whichever kernel
  // the plan was compiled for.
  const stencil::StencilProgram sobel = stencil::sobel_2d(24, 32);
  const stencil::StencilProgram jacobi8 = stencil::jacobi8_2d(24, 32);
  for (const std::int64_t width : {1, 8}) {
    for (const bool sobel_first : {true, false}) {
      EngineOptions options;
      options.threads = 2;
      options.tile_shape = {8, 0};
      options.build.datapath_width = width;
      FrameEngine engine(options);
      const stencil::StencilProgram& first = sobel_first ? sobel : jacobi8;
      const stencil::StencilProgram& second = sobel_first ? jacobi8 : sobel;
      expect_frame_matches_golden(first, engine.submit(first, 3).wait());
      const std::int64_t misses = engine.stats().cache.misses;
      expect_frame_matches_golden(second, engine.submit(second, 3).wait());
      EXPECT_EQ(engine.stats().cache.misses, misses)
          << "W=" << width << ": " << second.name()
          << " did not reuse the cached plans";
    }
  }
}

TEST(FrameEngine, SameNamedProgramsWithDifferentKernelsGetTheirOwnPlans) {
  // Same name, same window, another kernel: a plan keyed on the name
  // served the second program the first one's kernel. Each frame must
  // equal its own golden at every width, whichever program came first.
  const stencil::StencilProgram jacobi = stencil::jacobi_2d(64, 64);
  stencil::StencilProgram copy_through = stencil::jacobi_2d(64, 64);
  copy_through.set_weighted_sum({1, 0, 0, 0, 0});
  ASSERT_EQ(jacobi.name(), copy_through.name());
  for (const std::int64_t width : {1, 8}) {
    for (const bool jacobi_first : {true, false}) {
      EngineOptions options;
      options.threads = 2;
      options.build.datapath_width = width;
      FrameEngine engine(options);
      const stencil::StencilProgram& first =
          jacobi_first ? jacobi : copy_through;
      const stencil::StencilProgram& second =
          jacobi_first ? copy_through : jacobi;
      expect_frame_matches_golden(first, engine.submit(first, 5).wait());
      expect_frame_matches_golden(second, engine.submit(second, 5).wait());
      EXPECT_NE(engine.plan_for(first), engine.plan_for(second))
          << "W=" << width;
    }
  }
}

TEST(FrameEngine, RowAndColumnTiledFramesBitIdenticalToGolden) {
  // Each tile's outputs leave the simulator in row blocks and scatter
  // through its rank table: full-width row bands keep every block
  // contiguous in the frame, narrow column bands make every block jump a
  // frame row at each tile row.
  struct Case {
    stencil::StencilProgram program;
    poly::IntVec rows, columns;
  };
  const std::vector<Case> cases = {
      {stencil::denoise_2d(24, 32), {5, 0}, {0, 7}},
      {stencil::rician_2d(24, 32), {5, 0}, {0, 7}},
      {stencil::sobel_2d(24, 32), {7, 0}, {0, 5}},
      {stencil::bicubic_2d(12, 48), {3, 0}, {0, 11}},
      {stencil::denoise_3d(8, 10, 12), {3, 0, 0}, {0, 0, 5}},
  };
  for (const Case& c : cases) {
    for (const poly::IntVec& shape : {c.rows, c.columns}) {
      EngineOptions options;
      options.threads = 2;
      options.tile_shape = shape;
      FrameEngine engine(options);
      const std::shared_ptr<const TilePlan> plan = engine.plan_for(c.program);
      EXPECT_GT(plan->tiles.size(), 1u)
          << c.program.name() << " " << poly::to_string(shape);
      expect_frame_matches_golden(c.program,
                                  engine.submit(c.program, 41).wait());
    }
  }
}

TEST(FrameEngine, OnTileHookGetsEachTilesOutputsInRankOrder) {
  // A frame with an on_tile hook keeps no full-frame vector: each tile's
  // outputs reach the hook in tile order, value k at frame rank
  // output_ranks[k]. The hook copies them out (the buffer is the worker's,
  // reused by its next tile); gathered back through the ranks they must be
  // the golden's bits. A plain frame on the same engine still scatters.
  struct Case {
    stencil::StencilProgram program;
    poly::IntVec rows, columns;
  };
  // Column tiles stay wide enough that a W = 8 vector fills a row.
  const std::vector<Case> cases = {
      {stencil::denoise_2d(24, 32), {5, 0}, {0, 12}},
      {stencil::sobel_2d(24, 32), {7, 0}, {0, 11}},
      {stencil::bicubic_2d(12, 48), {3, 0}, {0, 13}},
      {stencil::denoise_3d(8, 10, 24), {3, 0, 0}, {0, 0, 11}},
  };
  for (const std::int64_t width : {1, 8}) {
    for (const Case& c : cases) {
      for (const poly::IntVec& shape : {c.rows, c.columns}) {
        const std::string where = c.program.name() + " W=" +
                                  std::to_string(width) + " tiles " +
                                  poly::to_string(shape);
        EngineOptions options;
        options.threads = 2;
        options.tile_shape = shape;
        options.build.datapath_width = width;
        FrameEngine engine(options);
        const std::shared_ptr<const TilePlan> plan =
            engine.plan_for(c.program);
        ASSERT_GT(plan->tiles.size(), 1u) << where;

        std::mutex mu;
        std::vector<std::vector<double>> seen(plan->tiles.size());
        std::vector<int> calls(plan->tiles.size(), 0);
        SubmitOptions so;
        so.on_tile = [&](std::size_t tile, const double* outputs, bool ok) {
          ASSERT_TRUE(ok) << where << " tile " << tile;
          ASSERT_NE(outputs, nullptr) << where << " tile " << tile;
          const std::size_t n = plan->tiles[tile].output_ranks.size();
          std::lock_guard<std::mutex> lock(mu);
          ++calls[tile];
          seen[tile].assign(outputs, outputs + n);
        };
        FrameHandle handle = engine.submit(plan, 41, std::move(so));
        const FrameResult& result = handle.wait();
        ASSERT_TRUE(result.ok()) << where << ": " << result.error;
        EXPECT_TRUE(result.outputs.empty()) << where;

        const std::vector<double> golden =
            stencil::run_golden(c.program, 41).outputs;
        std::lock_guard<std::mutex> lock(mu);
        for (std::size_t t = 0; t < plan->tiles.size(); ++t) {
          ASSERT_EQ(calls[t], 1) << where << " tile " << t;
          const std::vector<std::int64_t>& ranks =
              plan->tiles[t].output_ranks;
          ASSERT_EQ(seen[t].size(), ranks.size()) << where;
          for (std::size_t k = 0; k < ranks.size(); ++k) {
            ASSERT_EQ(seen[t][k], golden[static_cast<std::size_t>(ranks[k])])
                << where << " tile " << t << " output " << k;
          }
        }
        expect_frame_matches_golden(c.program,
                                    engine.submit(plan, 41).wait());
      }
    }
  }
}

TEST(FrameEngine, OnTileHookGetsNullForSkippedTiles) {
  EngineOptions options;
  options.threads = 1;
  options.tile_shape = {4, 0};
  FrameEngine engine(options);
  const stencil::StencilProgram p = stencil::denoise_2d(24, 32);
  const std::shared_ptr<const TilePlan> plan = engine.plan_for(p);

  std::atomic<int> skipped{0};
  SubmitOptions so;
  so.deferred = true;
  so.on_tile = [&skipped](std::size_t, const double* outputs, bool ok) {
    EXPECT_FALSE(ok);
    EXPECT_EQ(outputs, nullptr);
    ++skipped;
  };
  FrameHandle handle = engine.submit(plan, 5, std::move(so));
  for (std::size_t t = 0; t < plan->tiles.size(); ++t) {
    engine.skip_tile(handle, t);
  }
  const FrameResult& result = handle.wait();
  EXPECT_TRUE(result.cancelled);
  EXPECT_TRUE(result.outputs.empty());
  EXPECT_EQ(skipped.load(), static_cast<int>(plan->tiles.size()));
}

TEST(FrameEngine, HundredRandomStencilsMatchGolden) {
  EngineOptions options;
  options.threads = 4;
  options.tile_shape = {4, 6};  // force real tiling on the tiny domains
  FrameEngine engine(options);

  // Submit in waves so at most a few distinct programs are in flight.
  constexpr std::uint64_t kSeeds = 100;
  constexpr std::uint64_t kWave = 10;
  for (std::uint64_t base = 0; base < kSeeds; base += kWave) {
    std::vector<stencil::StencilProgram> programs;
    std::vector<FrameHandle> handles;
    for (std::uint64_t s = base; s < base + kWave; ++s) {
      programs.push_back(random_program(s));
    }
    for (std::uint64_t s = 0; s < kWave; ++s) {
      handles.push_back(engine.submit(programs[s], /*seed=*/base + s));
    }
    for (std::uint64_t s = 0; s < kWave; ++s) {
      expect_frame_matches_golden(programs[s], handles[s].wait());
    }
  }

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.frames_completed, static_cast<std::int64_t>(kSeeds));
  EXPECT_EQ(stats.frames_failed, 0);
}

TEST(FrameEngine, RepeatFramesServeFromDesignCache) {
  EngineOptions options;
  options.threads = 2;
  options.tile_shape = {8, 0};
  FrameEngine engine(options);
  const stencil::StencilProgram p = stencil::denoise_2d(24, 32);

  const auto plan = engine.plan_for(p);
  const std::int64_t tiles = static_cast<std::int64_t>(plan->tiles.size());
  ASSERT_GT(tiles, 1);

  constexpr int kFrames = 5;
  std::vector<FrameHandle> handles;
  for (int f = 0; f < kFrames; ++f) {
    handles.push_back(engine.submit(p, static_cast<std::uint64_t>(f)));
  }
  for (FrameHandle& handle : handles) {
    EXPECT_TRUE(handle.wait().ok()) << handle.wait().error;
  }

  const EngineStats stats = engine.stats();
  // plan_for pre-compiled every tile design; every executed tile since then
  // is a cache hit.
  EXPECT_LE(stats.cache.misses, tiles);
  EXPECT_GE(stats.cache.hits, tiles * (kFrames - 1));
  EXPECT_EQ(stats.tiles_executed, tiles * kFrames);
}

TEST(FrameEngine, SubmitByPlanMatchesSubmitByProgram) {
  EngineOptions options;
  options.threads = 2;
  options.tile_shape = {4, 6};
  FrameEngine engine(options);
  const stencil::StencilProgram p = random_program(12);

  // The re-arm path: submit over the registered plan, no canonicalization
  // or plan lookup, bit-identical to the program path.
  const std::shared_ptr<const TilePlan> plan = engine.plan_for(p);
  FrameHandle program_handle = engine.submit(p, 12);
  FrameHandle plan_handle = engine.submit(plan, 12);
  const FrameResult& by_program = program_handle.wait();
  const FrameResult& by_plan = plan_handle.wait();
  expect_frame_matches_golden(p, by_plan);
  EXPECT_EQ(by_plan.outputs, by_program.outputs);

  // The pinned-designs fast path on top: workers take each tile's design
  // straight from the vector, so the frame performs no cache lookups --
  // the hit counter does not move.
  auto designs = std::make_shared<
      std::vector<std::shared_ptr<const CachedDesign>>>();
  for (const Tile& tile : plan->tiles) {
    designs->push_back(engine.cache().pin(*tile.program, options.build));
  }
  const std::int64_t hits_before = engine.stats().cache.hits;
  SubmitOptions so;
  so.designs = designs;
  FrameHandle fast_handle = engine.submit(plan, 12, std::move(so));
  const FrameResult& fast = fast_handle.wait();
  expect_frame_matches_golden(p, fast);
  EXPECT_EQ(fast.outputs, by_program.outputs);
  EXPECT_EQ(engine.stats().cache.hits, hits_before)
      << "designs fast path still performed cache lookups";

  for (const Tile& tile : plan->tiles) {
    engine.cache().unpin(*tile.program, options.build);
  }
  EXPECT_EQ(engine.stats().cache.pinned, 0u);
}

// ---- observability ------------------------------------------------------

TEST(FrameEngine, MetricsRegistryObservesServeRun) {
  obs::Registry registry;
  EngineOptions options;
  options.threads = 2;
  options.tile_shape = {8, 0};
  options.metrics = &registry;
  FrameEngine engine(options);
  const stencil::StencilProgram p = stencil::denoise_2d(24, 32);

  constexpr int kFrames = 3;
  std::vector<FrameHandle> handles;
  for (int f = 0; f < kFrames; ++f) {
    handles.push_back(engine.submit(p, static_cast<std::uint64_t>(f)));
  }
  for (FrameHandle& handle : handles) {
    ASSERT_TRUE(handle.wait().ok()) << handle.wait().error;
  }

  const EngineStats stats = engine.stats();
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.value_of("engine.frames_submitted"), kFrames);
  EXPECT_EQ(snap.value_of("engine.frames_completed"), kFrames);
  EXPECT_EQ(snap.value_of("engine.tiles_executed"), stats.tiles_executed);
  EXPECT_EQ(snap.value_of("cache.hits"), stats.cache.hits);
  EXPECT_EQ(snap.value_of("cache.misses"), stats.cache.misses);
  EXPECT_EQ(snap.value_of("fifo.depth_violations", 0), 0);
  EXPECT_EQ(registry.histogram("engine.tile_latency_us").snapshot().count,
            stats.tiles_executed);
  EXPECT_EQ(
      registry.histogram("engine.backpressure_wait_us").snapshot().count,
      stats.tiles_executed);

  // Every observed high-water mark pairs with its designed depth and never
  // exceeds it (the live form of the paper's Eq. 2 sizing claim).
  int high_water_gauges = 0;
  for (const obs::MetricSample& s : snap.samples) {
    if (s.name.rfind("fifo.high_water.", 0) != 0) continue;
    ++high_water_gauges;
    const std::string depth_name =
        "fifo.depth." + s.name.substr(std::string("fifo.high_water.").size());
    const std::int64_t depth = snap.value_of(depth_name, -1);
    ASSERT_GE(depth, 0) << s.name << " has no paired " << depth_name;
    EXPECT_LE(s.value, depth) << s.name;
  }
  EXPECT_GT(high_water_gauges, 0);

  // Per-worker utilization: tiles attributed to workers sum to the total.
  std::int64_t worker_tiles = 0;
  for (std::size_t w = 0; w < options.threads; ++w) {
    worker_tiles += snap.value_of(
        "engine.worker." + std::to_string(w) + ".tiles", 0);
  }
  EXPECT_EQ(worker_tiles, stats.tiles_executed);
}

TEST(FrameEngine, TraceAccountsForEveryTileOfACancelledFrame) {
  obs::Journal journal;
  FrameResult result;
  {
    EngineOptions options;
    options.threads = 1;
    options.tile_shape = {1, 0};  // many tiles per frame
    options.journal = &journal;
    FrameEngine engine(options);
    const stencil::StencilProgram p = slow_program(12, 10, milliseconds(1));
    FrameHandle handle = engine.submit(p, 7);
    std::this_thread::sleep_for(milliseconds(5));
    handle.cancel();
    result = handle.wait();
    engine.shutdown(FrameEngine::Drain::kDrainAll);
  }

  ASSERT_TRUE(result.cancelled);
  const std::string json = journal.chrome_trace();
  const auto count_of = [&json](const std::string& needle) {
    std::int64_t n = 0;
    for (std::size_t at = json.find(needle); at != std::string::npos;
         at = json.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  // One complete slice per executed tile, one instant per skipped tile:
  // cancellation leaves no tile unaccounted and no lane open.
  EXPECT_EQ(count_of("\"name\":\"tile\""), result.tiles_executed) << json;
  EXPECT_EQ(count_of("\"name\":\"tile.skipped\""), result.tiles_skipped);
  EXPECT_EQ(count_of("\"name\":\"frame.cancelled\""), 1);
  EXPECT_EQ(count_of("\"ph\":\"b\""), count_of("\"ph\":\"e\""));
}

// Post-mortem bundles: the flight recorder must leave a bundle naming the
// frame, stage and tile whenever a frame dies -- cancellation and deadlock
// are the two lifecycle deaths exercised end to end here.

std::string find_bundle(const std::string& dir, const std::string& prefix) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return "";
  std::string found;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.rfind(prefix, 0) == 0) {
      found = dir + "/" + name;
      break;
    }
  }
  ::closedir(d);
  return found;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(FrameEngine, CancelledFrameLeavesAPostmortemBundle) {
  obs::Journal journal;
  const std::string dir = ::testing::TempDir() + "nup_engine_pm_cancel";
  journal.set_postmortem_dir(dir);
  obs::Registry registry;

  EngineOptions options;
  options.threads = 1;
  options.tile_shape = {0, 0};  // one tile: cancellation is all-or-none
  options.metrics = &registry;
  options.journal = &journal;
  FrameEngine engine(options);
  const stencil::StencilProgram p = slow_program(10, 12, milliseconds(1));

  const std::uint64_t id = obs::next_frame_id();
  SubmitOptions so;
  so.frame_id = id;
  FrameHandle running = engine.submit(p, 1);
  FrameHandle queued = engine.submit(p, 2, std::move(so));
  queued.cancel();  // the single worker is still busy with frame 1
  running.wait();
  ASSERT_TRUE(queued.wait().cancelled);

  const std::string path = find_bundle(dir, "postmortem-frame_cancelled-");
  ASSERT_FALSE(path.empty()) << "no cancellation bundle in " << dir;
  const std::string bundle = slurp(path);
  EXPECT_NE(bundle.find("\"reason\": \"frame_cancelled\""),
            std::string::npos)
      << bundle;
  EXPECT_NE(bundle.find("\"frame\": " + std::to_string(id)),
            std::string::npos);
  EXPECT_NE(bundle.find("cancelled after 0 of 1 tiles"), std::string::npos);
  // The event log survives into the bundle: admission, the skipped tile,
  // the cancellation, and the metrics snapshot at death.
  EXPECT_NE(bundle.find("\"frame.admitted\""), std::string::npos);
  EXPECT_NE(bundle.find("\"tile.skipped\""), std::string::npos);
  EXPECT_NE(bundle.find("\"frame.cancelled\""), std::string::npos);
  EXPECT_NE(bundle.find("engine.frames_cancelled"), std::string::npos);
  std::remove(path.c_str());
}

TEST(FrameEngine, DeadlockedFrameLeavesABundleNamingTheDesign) {
  obs::Journal journal;
  const std::string dir = ::testing::TempDir() + "nup_engine_pm_deadlock";
  journal.set_postmortem_dir(dir);
  obs::Registry registry;

  EngineOptions options;
  options.threads = 1;
  options.tile_shape = {0, 0};  // one tile covering the whole domain
  options.metrics = &registry;
  options.journal = &journal;
  options.sim.stall_limit = 3000;
  options.sim.validate = false;  // report the wedge instead of throwing
  FrameEngine engine(options);

  // An Eq. 2 violation that wedges mid-run (see fast_deadlock_test):
  // FIFO 3 of denoise needs depth 23; starved to 1 the chain stalls out.
  const stencil::StencilProgram p = stencil::denoise_2d(20, 24);
  const std::shared_ptr<const TilePlan> plan = engine.plan_for(p);
  ASSERT_EQ(plan->tiles.size(), 1u);
  const stencil::StencilProgram& tp = *plan->tiles[0].program;
  auto doctored = std::make_shared<CachedDesign>();
  doctored->design = arch::build_design(tp, options.build);
  doctored->design.systems[0].fifos[3].depth = 1;
  doctored->plan = sim::compile_fast_plan(tp, doctored->design);

  const std::uint64_t id = obs::next_frame_id();
  SubmitOptions so;
  so.frame_id = id;
  auto designs = std::make_shared<
      std::vector<std::shared_ptr<const CachedDesign>>>();
  designs->push_back(doctored);
  so.designs = designs;
  FrameHandle handle = engine.submit(plan, 5, std::move(so));
  const FrameResult& result = handle.wait();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error.find("deadlocked"), std::string::npos)
      << result.error;

  const std::string path = find_bundle(dir, "postmortem-deadlock-");
  ASSERT_FALSE(path.empty()) << "no deadlock bundle in " << dir;
  const std::string bundle = slurp(path);
  EXPECT_NE(bundle.find("\"reason\": \"deadlock\""), std::string::npos)
      << bundle;
  EXPECT_NE(bundle.find("\"frame\": " + std::to_string(id)),
            std::string::npos);
  EXPECT_NE(bundle.find("\"tile\": 0"), std::string::npos);
  // The offending design rides along (describe() of the doctored
  // microarchitecture) plus the wedge diagnostic and the verdict event.
  EXPECT_NE(bundle.find("accelerator '"), std::string::npos);
  EXPECT_NE(bundle.find("\"deadlock\""), std::string::npos);
  EXPECT_NE(bundle.find("engine.frames_failed"), std::string::npos);
  std::remove(path.c_str());
}

/// The bundle's event line of journal kind `kind` ("" when absent).
std::string event_line(const std::string& bundle, const std::string& kind) {
  const std::size_t at = bundle.find("\"kind\": \"" + kind + "\"");
  if (at == std::string::npos) return "";
  const std::size_t begin = bundle.rfind('\n', at) + 1;
  return bundle.substr(begin, bundle.find('\n', at) - begin);
}

TEST(FrameEngine, DepthViolationLeavesABundleNamingTheFifo) {
  obs::Journal journal;
  const std::string dir = ::testing::TempDir() + "nup_engine_pm_depth";
  journal.set_postmortem_dir(dir);
  obs::Registry registry;

  EngineOptions options;
  options.threads = 1;
  options.tile_shape = {0, 0};  // one tile covering the whole domain
  options.metrics = &registry;
  options.journal = &journal;
  FrameEngine engine(options);

  // The tile runs the real design, whose FIFO 3 fills exactly to its
  // designed depth; its telemetry is scored against a copy with that depth
  // cut by 3, so the run counts as one element-level violation.
  const stencil::StencilProgram p = stencil::denoise_2d(20, 24);
  const std::shared_ptr<const TilePlan> plan = engine.plan_for(p);
  ASSERT_EQ(plan->tiles.size(), 1u);
  const stencil::StencilProgram& tp = *plan->tiles[0].program;
  auto entry = std::make_shared<CachedDesign>();
  entry->design = arch::build_design(tp, options.build);
  entry->plan = sim::compile_fast_plan(tp, entry->design);
  const std::int64_t depth = entry->design.systems[0].fifos[3].depth;
  arch::AcceleratorDesign doctored = entry->design;
  doctored.systems[0].fifos[3].depth = depth - 3;
  entry->telemetry = resolve_telemetry(registry, doctored);

  const std::uint64_t id = obs::next_frame_id();
  SubmitOptions so;
  so.frame_id = id;
  so.stage = 1;
  so.designs = std::make_shared<
      std::vector<std::shared_ptr<const CachedDesign>>>(1, entry);
  FrameHandle handle = engine.submit(plan, 5, std::move(so));
  const FrameResult& result = handle.wait();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error.find("1 FIFO(s) exceeded their designed depth"),
            std::string::npos)
      << result.error;

  const std::string path = find_bundle(dir, "postmortem-depth_violation-");
  ASSERT_FALSE(path.empty()) << "no depth-violation bundle in " << dir;
  const std::string bundle = slurp(path);
  EXPECT_NE(bundle.find("\"reason\": \"depth_violation\""),
            std::string::npos)
      << bundle;
  EXPECT_NE(bundle.find("\"frame\": " + std::to_string(id) +
                        ",\n  \"stage\": 1,\n  \"tile\": 0"),
            std::string::npos);
  EXPECT_NE(bundle.find("\"design\": \"accelerator '"), std::string::npos);
  EXPECT_NE(bundle.find("\"fifo\": {\"array\": \"A\", \"index\": 3, "
                        "\"depth\": " +
                        std::to_string(depth - 3) +
                        ", \"high_water\": " + std::to_string(depth) +
                        ", \"word_level\": false}"),
            std::string::npos)
      << bundle;
  // The verdict event names frame, stage, tile, high water and depth.
  EXPECT_NE(event_line(bundle, "fifo.depth_violation")
                .find("\"frame\": " + std::to_string(id) +
                      ", \"stage\": 1, \"tile\": 0, \"a\": " +
                      std::to_string(depth) +
                      ", \"b\": " + std::to_string(depth - 3)),
            std::string::npos)
      << bundle;
  EXPECT_NE(bundle.find("\"fifo.depth_violations\":1"), std::string::npos);
  std::remove(path.c_str());
}

/// A time-invariant feed whose reads fail: the tile's simulation throws.
class FailingFeed final : public sim::ExternalFeed {
 public:
  bool available(const poly::IntVec&) override { return true; }
  double read(const poly::IntVec&) override { throw Error("feed lost"); }
  bool time_invariant() const override { return true; }
  void read_row(const poly::IntVec&, std::int64_t, double*) override {
    throw Error("feed lost");
  }
};

TEST(FrameEngine, ThrowingFeedLeavesAFrameFailedBundle) {
  obs::Journal journal;
  const std::string dir = ::testing::TempDir() + "nup_engine_pm_throw";
  journal.set_postmortem_dir(dir);
  obs::Registry registry;

  EngineOptions options;
  options.threads = 1;
  options.tile_shape = {0, 0};
  options.metrics = &registry;
  options.journal = &journal;
  FrameEngine engine(options);

  const stencil::StencilProgram p = stencil::denoise_2d(20, 24);
  const std::uint64_t id = obs::next_frame_id();
  SubmitOptions so;
  so.frame_id = id;
  so.stage = 1;
  so.feed = [](const Tile&, std::size_t, std::size_t, std::size_t) {
    return std::make_shared<FailingFeed>();
  };
  FrameHandle handle = engine.submit(p, 5, std::move(so));
  const FrameResult& result = handle.wait();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error.find("feed lost"), std::string::npos)
      << result.error;

  const std::string path = find_bundle(dir, "postmortem-frame_failed-");
  ASSERT_FALSE(path.empty()) << "no frame_failed bundle in " << dir;
  const std::string bundle = slurp(path);
  EXPECT_NE(bundle.find("\"reason\": \"frame_failed\""), std::string::npos)
      << bundle;
  EXPECT_NE(bundle.find("feed lost"), std::string::npos);
  EXPECT_NE(bundle.find("\"frame\": " + std::to_string(id) +
                        ",\n  \"stage\": 1,\n  \"tile\": 0"),
            std::string::npos);
  // A thrown tile carries neither a design nor a FIFO, and no verdict.
  EXPECT_EQ(bundle.find("\"design\": "), std::string::npos) << bundle;
  EXPECT_EQ(bundle.find("\"fifo\": "), std::string::npos);
  EXPECT_EQ(event_line(bundle, "fifo.depth_violation"), "");
  EXPECT_NE(event_line(bundle, "frame.admitted"), "");
  EXPECT_NE(bundle.find("engine.frames_failed"), std::string::npos);
  std::remove(path.c_str());
}

// ---- robustness: backpressure, cancellation, shutdown ------------------

TEST(FrameEngine, BackpressureBoundsQueueDepth) {
  EngineOptions options;
  options.threads = 1;
  options.queue_capacity = 2;
  options.tile_shape = {2, 0};  // several tiles per frame
  FrameEngine engine(options);
  const stencil::StencilProgram p = slow_program(8, 10, milliseconds(1));

  std::vector<FrameHandle> handles;
  for (int f = 0; f < 3; ++f) {
    // With a single slow worker, these submits block on the full queue.
    handles.push_back(engine.submit(p, static_cast<std::uint64_t>(f)));
  }
  for (FrameHandle& handle : handles) {
    expect_frame_matches_golden(p, handle.wait());
  }
  EXPECT_LE(engine.stats().max_queue_depth, options.queue_capacity);
  EXPECT_GT(engine.stats().max_queue_depth, 0u);
}

TEST(FrameEngine, CancelSkipsQueuedFrame) {
  EngineOptions options;
  options.threads = 1;
  options.queue_capacity = 64;
  options.tile_shape = {};  // one tile per frame: cancellation is all-or-none
  FrameEngine engine(options);
  const stencil::StencilProgram p = slow_program(10, 12, milliseconds(1));

  FrameHandle running = engine.submit(p, 1);
  FrameHandle queued = engine.submit(p, 2);
  queued.cancel();  // the single worker is still busy with frame 1

  expect_frame_matches_golden(p, running.wait());
  const FrameResult& second = queued.wait();
  EXPECT_TRUE(second.cancelled);
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.tiles_executed, 0);
  EXPECT_EQ(second.tiles_skipped, second.tiles_total);

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.frames_completed, 1);
  EXPECT_EQ(stats.frames_cancelled, 1);
}

TEST(FrameEngine, CancelMidFrameSkipsRemainingTiles) {
  EngineOptions options;
  options.threads = 1;
  options.tile_shape = {1, 0};  // one row per tile: many tiles per frame
  FrameEngine engine(options);
  const stencil::StencilProgram p = slow_program(12, 10, milliseconds(1));

  FrameHandle handle = engine.submit(p, 9);
  std::this_thread::sleep_for(milliseconds(5));  // let a few tiles run
  handle.cancel();
  const FrameResult& result = handle.wait();

  EXPECT_TRUE(result.cancelled);
  EXPECT_GT(result.tiles_total, 1);
  EXPECT_EQ(result.tiles_executed + result.tiles_skipped,
            result.tiles_total);
}

TEST(FrameEngine, ShutdownDrainAllCompletesQueuedWork) {
  EngineOptions options;
  options.threads = 2;
  options.tile_shape = {3, 0};
  FrameEngine engine(options);
  const stencil::StencilProgram p = slow_program(10, 12, milliseconds(1));

  std::vector<FrameHandle> handles;
  for (int f = 0; f < 4; ++f) {
    handles.push_back(engine.submit(p, static_cast<std::uint64_t>(f)));
  }
  engine.shutdown(FrameEngine::Drain::kDrainAll);

  for (FrameHandle& handle : handles) {
    EXPECT_TRUE(handle.done());
    expect_frame_matches_golden(p, handle.wait());
  }
  EXPECT_THROW(engine.submit(p, 99), Error);
}

TEST(FrameEngine, ShutdownCancelPendingResolvesEverything) {
  EngineOptions options;
  options.threads = 1;
  options.tile_shape = {2, 0};
  FrameEngine engine(options);
  const stencil::StencilProgram p = slow_program(10, 12, milliseconds(1));

  std::vector<FrameHandle> handles;
  for (int f = 0; f < 4; ++f) {
    handles.push_back(engine.submit(p, static_cast<std::uint64_t>(f)));
  }
  engine.shutdown(FrameEngine::Drain::kCancelPending);

  // Every handle resolves -- no hangs -- as either a complete frame or a
  // cancelled one; nothing is left half-reported.
  int cancelled = 0;
  for (FrameHandle& handle : handles) {
    EXPECT_TRUE(handle.done());
    const FrameResult& result = handle.wait();
    if (result.cancelled) {
      ++cancelled;
      EXPECT_EQ(result.tiles_executed + result.tiles_skipped,
                result.tiles_total);
    } else {
      expect_frame_matches_golden(p, result);
    }
  }
  EXPECT_GE(cancelled, 1);  // the single slow worker cannot finish 4 frames
  EXPECT_THROW(engine.submit(p, 99), Error);
}

TEST(FrameEngine, DestructorResolvesOutstandingHandles) {
  const stencil::StencilProgram p = slow_program(10, 12, milliseconds(1));
  std::vector<FrameHandle> handles;
  {
    EngineOptions options;
    options.threads = 1;
    options.tile_shape = {2, 0};
    FrameEngine engine(options);
    for (int f = 0; f < 3; ++f) {
      handles.push_back(engine.submit(p, static_cast<std::uint64_t>(f)));
    }
    // Engine destroyed here with work still queued: ~FrameEngine performs
    // shutdown(kCancelPending).
  }
  for (FrameHandle& handle : handles) {
    ASSERT_TRUE(handle.valid());
    EXPECT_TRUE(handle.done());
    const FrameResult& result = handle.wait();
    EXPECT_TRUE(result.cancelled || result.ok()) << result.error;
  }
}

TEST(FrameEngine, OnFrameHookFiresOncePerResolution) {
  EngineOptions options;
  options.threads = 2;
  options.tile_shape = {8, 0};
  FrameEngine engine(options);
  const stencil::StencilProgram p = stencil::denoise_2d(24, 32);

  // The hook is the serving layer's completion path: exactly one call
  // per frame, from the resolving worker, carrying the final result.
  std::mutex mu;
  std::vector<std::pair<std::uint64_t, std::vector<double>>> observed;
  constexpr int kFrames = 3;
  std::vector<FrameHandle> handles;
  for (int f = 0; f < kFrames; ++f) {
    SubmitOptions so;
    so.on_frame = [&mu, &observed](const FrameResult& result) {
      std::lock_guard<std::mutex> lock(mu);
      observed.emplace_back(result.seed, result.outputs);
    };
    handles.push_back(
        engine.submit(p, static_cast<std::uint64_t>(f), std::move(so)));
  }
  for (int f = 0; f < kFrames; ++f) {
    expect_frame_matches_golden(p, handles[f].wait());
  }
  // The hook fires on the worker thread after frame waiters are released,
  // so wait() alone does not order it; joining the workers does.
  engine.shutdown(FrameEngine::Drain::kDrainAll);

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(observed.size(), static_cast<std::size_t>(kFrames));
  for (const auto& [seed, outputs] : observed) {
    EXPECT_EQ(outputs, stencil::run_golden(p, seed).outputs) << seed;
  }
}

TEST(FrameEngine, OnFrameHookFiresForCancelledFrames) {
  EngineOptions options;
  options.threads = 1;
  options.tile_shape = {};  // one tile: cancellation is all-or-none
  FrameEngine engine(options);
  const stencil::StencilProgram p = slow_program(10, 12, milliseconds(1));

  std::atomic<int> calls{0};
  std::promise<bool> first_call_saw_cancelled;
  std::future<bool> saw_cancelled = first_call_saw_cancelled.get_future();
  SubmitOptions so;
  so.on_frame = [&calls,
                 &first_call_saw_cancelled](const FrameResult& result) {
    if (++calls == 1) first_call_saw_cancelled.set_value(result.cancelled);
  };
  FrameHandle running = engine.submit(p, 1);
  FrameHandle queued = engine.submit(p, 2, std::move(so));
  queued.cancel();  // the single worker is still busy with frame 1
  running.wait();
  ASSERT_TRUE(queued.wait().cancelled);
  // A cancelled frame resolves through the same hook: the serving layer
  // frees its window slot no matter how the frame died. The hook runs
  // after waiters are released, so wait() does not order it; the promise
  // it fulfils does.
  ASSERT_EQ(saw_cancelled.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_TRUE(saw_cancelled.get());
  engine.shutdown(FrameEngine::Drain::kDrainAll);
  EXPECT_EQ(calls.load(), 1);
}

TEST(FrameEngine, OnFrameHookIsReleasedOnceItFires) {
  EngineOptions options;
  options.threads = 2;
  options.tile_shape = {8, 0};
  FrameEngine engine(options);
  const stencil::StencilProgram p = stencil::denoise_2d(24, 32);

  // A hook capture that holds the frame's own handle (as the serving layer
  // does) would otherwise keep frame and capture alive forever.
  auto capture = std::make_shared<int>(0);
  SubmitOptions so;
  so.on_frame = [capture](const FrameResult&) { ++*capture; };
  FrameHandle handle = engine.submit(p, 3, std::move(so));
  expect_frame_matches_golden(p, handle.wait());
  // Joining the workers orders the hook (it runs after waiters are
  // released) before the checks.
  engine.shutdown(FrameEngine::Drain::kDrainAll);
  EXPECT_EQ(*capture, 1);
  // The handle keeps the frame alive, but the frame no longer owns the
  // hook: the capture's use_count is back to this test's reference.
  ASSERT_TRUE(handle.valid());
  EXPECT_EQ(capture.use_count(), 1);
}

TEST(FrameEngine, WaitForTimesOutWhileBusyThenResolves) {
  EngineOptions options;
  options.threads = 1;
  options.tile_shape = {};
  FrameEngine engine(options);
  const stencil::StencilProgram p = slow_program(12, 12, milliseconds(2));

  FrameHandle handle = engine.submit(p, 5);
  // 100 fires x 2ms: certainly not done within 1ms.
  EXPECT_FALSE(handle.wait_for(milliseconds(1)));
  expect_frame_matches_golden(p, handle.wait());
  EXPECT_TRUE(handle.wait_for(milliseconds(0)));
}

}  // namespace
}  // namespace nup::runtime
