// TemporalRunner end-to-end: the unrolled replica pipeline must be
// bit-identical to the naive T-sweep golden across gallery kernels, every
// boundary policy, datapath widths 1 and 4, and a large random-triple
// sweep; degenerate configurations (T=1, B=1, B>T, T%B != 0) must behave
// exactly as specified; the convergence monitor must early-exit without
// leaking slabs or growing the pinned-design set.

#include "temporal/runner.hpp"

#include <gtest/gtest.h>

#include <dirent.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "stencil/gallery.hpp"
#include "stencil/golden.hpp"
#include "temporal/golden.hpp"
#include "testing/stencil_gen.hpp"

namespace nup::temporal {
namespace {

using stencil::BoundaryPolicy;

RunnerOptions quiet_options(obs::Registry* registry = nullptr) {
  RunnerOptions options;
  options.pipeline.threads_per_stage = 2;
  options.pipeline.metrics = registry;
  return options;
}

std::int64_t gauge_sum_with_suffix(const obs::MetricsSnapshot& snap,
                                   const std::string& suffix) {
  std::int64_t sum = 0;
  for (const obs::MetricSample& s : snap.samples) {
    if (s.kind == obs::MetricSample::Kind::kGauge &&
        s.name.size() >= suffix.size() &&
        s.name.compare(s.name.size() - suffix.size(), suffix.size(),
                       suffix) == 0) {
      sum += s.value;
    }
  }
  return sum;
}

// ---- degenerate configurations -----------------------------------------

TEST(TemporalRunner, SingleTimestepIsBitIdenticalToOnePlainPass) {
  const stencil::StencilProgram p = stencil::jacobi4_2d(16, 20);
  const std::vector<double> plain = stencil::run_golden(p, 42).outputs;
  for (const BoundaryPolicy policy :
       {BoundaryPolicy::kShrink, BoundaryPolicy::kClamp,
        BoundaryPolicy::kWrap, BoundaryPolicy::kConstant}) {
    obs::Registry registry;
    TemporalRunner runner(p, {.timesteps = 1, .block = 1,
                              .boundary = policy, .constant_value = 3.0},
                          quiet_options(&registry));
    const FrameOutcome outcome = runner.run(42);
    ASSERT_TRUE(outcome.ok()) << outcome.error;
    EXPECT_EQ(outcome.outputs, plain) << stencil::to_string(policy);
    EXPECT_EQ(outcome.generations_completed, 1);
    EXPECT_EQ(outcome.passes_completed, 1);
    EXPECT_FALSE(outcome.converged_early);
  }
}

TEST(TemporalRunner, BlockChoiceNeverChangesBits) {
  const stencil::StencilProgram p = stencil::heat_2d(18, 22);
  const TemporalConfig base{.timesteps = 4, .block = 1,
                            .boundary = BoundaryPolicy::kClamp};
  const std::vector<double> golden = run_golden_sweeps(p, base, 7);
  for (const std::int64_t block : {1, 2, 4}) {
    TemporalConfig config = base;
    config.block = block;
    TemporalRunner runner(p, config, quiet_options());
    const FrameOutcome outcome = runner.run(7);
    ASSERT_TRUE(outcome.ok()) << outcome.error;
    EXPECT_EQ(outcome.outputs, golden) << "B=" << block;
    EXPECT_EQ(outcome.generations_completed, 4);
    EXPECT_EQ(outcome.passes_completed, (4 + block - 1) / block);
  }
}

TEST(TemporalRunner, BlockBeyondTimestepsIsATypedError) {
  const stencil::StencilProgram p = stencil::jacobi4_2d(12, 12);
  EXPECT_THROW(TemporalRunner(p, {.timesteps = 3, .block = 4}),
               TemporalConfigError);
}

TEST(TemporalRunner, ShortFinalPassCoversTheRemainder) {
  const stencil::StencilProgram p = stencil::jacobi8_2d(16, 18);
  const TemporalConfig config{.timesteps = 5, .block = 2,
                              .boundary = BoundaryPolicy::kConstant,
                              .constant_value = 0.5};
  TemporalRunner runner(p, config, quiet_options());
  const FrameOutcome outcome = runner.run(13);
  ASSERT_TRUE(outcome.ok()) << outcome.error;
  EXPECT_EQ(outcome.passes_completed, 3);  // 2 + 2 + 1
  EXPECT_EQ(outcome.generations_completed, 5);
  EXPECT_EQ(outcome.outputs, run_golden_sweeps(p, config, 13));
}

TEST(TemporalRunner, RunAfterShutdownThrows) {
  const stencil::StencilProgram p = stencil::jacobi4_2d(10, 10);
  TemporalRunner runner(p, {.timesteps = 2, .block = 2}, quiet_options());
  runner.shutdown();
  runner.shutdown();  // idempotent
  EXPECT_THROW(runner.run(1), TemporalError);
}

// ---- gallery bit-identity ----------------------------------------------

TEST(TemporalRunner, GalleryKernelsMatchGoldenAcrossPoliciesAndWidths) {
  struct Case {
    stencil::StencilProgram program;
    TemporalConfig config;
  };
  const Case cases[] = {
      {stencil::jacobi4_2d(20, 24),
       {.timesteps = 4, .block = 2, .boundary = BoundaryPolicy::kClamp}},
      {stencil::jacobi8_2d(18, 20),
       {.timesteps = 3, .block = 3, .boundary = BoundaryPolicy::kShrink}},
      {stencil::heat_2d(20, 24),
       {.timesteps = 5, .block = 2, .boundary = BoundaryPolicy::kConstant,
        .constant_value = 0.25}},
      {stencil::life_2d(12, 14),
       {.timesteps = 3, .block = 2, .boundary = BoundaryPolicy::kWrap}},
      {stencil::denoise_2d(20, 24),
       {.timesteps = 4, .block = 2, .boundary = BoundaryPolicy::kClamp}},
  };
  for (const Case& c : cases) {
    const std::vector<double> golden =
        run_golden_sweeps(c.program, c.config, 99);
    for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
      RunnerOptions options = quiet_options();
      options.pipeline.build.datapath_width = width;
      TemporalRunner runner(c.program, c.config, options);
      const FrameOutcome outcome = runner.run(99);
      ASSERT_TRUE(outcome.ok())
          << c.program.name() << " W=" << width << ": " << outcome.error;
      EXPECT_EQ(outcome.outputs, golden)
          << c.program.name() << " W=" << width;
    }
  }
}

TEST(TemporalRunner, MultiFrameOverlapMatchesSequentialRuns) {
  const stencil::StencilProgram p = stencil::heat_2d(16, 20);
  const TemporalConfig config{.timesteps = 4, .block = 2,
                              .boundary = BoundaryPolicy::kClamp};
  obs::Registry registry;
  RunnerOptions options = quiet_options(&registry);
  options.max_passes_in_flight = 3;
  TemporalRunner runner(p, config, options);

  const std::vector<std::uint64_t> seeds{11, 12, 13, 14, 15};
  const std::vector<FrameOutcome> outcomes = runner.run_frames(seeds);
  ASSERT_EQ(outcomes.size(), seeds.size());
  for (std::size_t k = 0; k < seeds.size(); ++k) {
    ASSERT_TRUE(outcomes[k].ok()) << outcomes[k].error;
    EXPECT_EQ(outcomes[k].seed, seeds[k]);
    EXPECT_EQ(outcomes[k].outputs,
              run_golden_sweeps(p, config, seeds[k]))
        << "seed " << seeds[k];
  }
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.value_of("temporal.HEAT_2D.frames_completed"), 5);
  EXPECT_EQ(snap.value_of("temporal.HEAT_2D.converged_frames", 0), 0);
  EXPECT_EQ(snap.value_of("temporal.HEAT_2D.passes_completed"), 10);
  EXPECT_EQ(snap.value_of("temporal.HEAT_2D.generations_completed"), 20);
  // Every inter-replica slab went back to its pool.
  EXPECT_EQ(gauge_sum_with_suffix(snap, "buffer_tiles"), 0);
}

// ---- convergence monitor -----------------------------------------------

TEST(TemporalRunner, ConvergenceEarlyExitStopsPassesCleanly) {
  // A kernel that ignores its inputs reaches its fixed point at
  // generation 1, so the monitor fires on the first measurable residual
  // (pass 1) and the last two passes never run.
  stencil::StencilProgram p("CONST_ONE",
                            poly::Domain::box({1, 1}, {14, 18}));
  p.add_input("A", {{0, -1}, {0, 0}, {0, 1}});
  p.set_kernel([](const std::vector<double>&) { return 1.0; });

  obs::Registry registry;
  RunnerOptions options = quiet_options(&registry);
  options.tolerance = 1e-12;
  TemporalRunner runner(
      p, {.timesteps = 8, .block = 2, .boundary = BoundaryPolicy::kClamp},
      options);

  const FrameOutcome outcome = runner.run(5);
  ASSERT_TRUE(outcome.ok()) << outcome.error;
  EXPECT_TRUE(outcome.converged_early);
  EXPECT_EQ(outcome.passes_completed, 2);
  EXPECT_EQ(outcome.generations_completed, 4);
  EXPECT_EQ(outcome.last_residual, 0.0);
  EXPECT_EQ(outcome.outputs,
            std::vector<double>(14 * 18, 1.0));

  const std::size_t pinned = runner.pinned_designs();
  EXPECT_GT(pinned, 0u);

  // More frames after an early exit: same bits, no design-set growth, no
  // resident slabs left behind.
  const std::vector<FrameOutcome> more = runner.run_frames({6, 7});
  for (const FrameOutcome& o : more) {
    ASSERT_TRUE(o.ok()) << o.error;
    EXPECT_TRUE(o.converged_early);
  }
  EXPECT_EQ(runner.pinned_designs(), pinned);

  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.value_of("temporal.CONST_ONE.converged_frames"), 3);
  EXPECT_EQ(snap.value_of("temporal.CONST_ONE.frames_completed"), 3);
  // 8 - 4 generations saved per frame.
  EXPECT_EQ(snap.value_of("temporal.CONST_ONE.generations_saved"), 12);
  EXPECT_EQ(gauge_sum_with_suffix(snap, "buffer_tiles"), 0);
}

TEST(TemporalRunner, MonitorOnAShrinkingGridMeasuresTheTargetResidual) {
  // kShrink grows every pass but the last past the target box, so the
  // monitor restricts each pass output to the target before comparing.
  // Heat never settles within 1e-12, so all three passes run, and the
  // last residual is the one between golden generations T and T - B.
  const stencil::StencilProgram p = stencil::heat_2d(14, 18);
  const TemporalConfig config{.timesteps = 6, .block = 2,
                              .boundary = BoundaryPolicy::kShrink};
  RunnerOptions options = quiet_options();
  options.tolerance = 1e-12;
  TemporalRunner runner(p, config, options);
  const FrameOutcome outcome = runner.run(3);
  ASSERT_TRUE(outcome.ok()) << outcome.error;
  EXPECT_FALSE(outcome.converged_early);
  EXPECT_EQ(outcome.passes_completed, 3);
  const std::vector<double> golden = run_golden_sweeps(p, config, 3);
  EXPECT_EQ(outcome.outputs, golden);
  TemporalConfig earlier = config;
  earlier.timesteps = config.timesteps - config.block;
  EXPECT_EQ(outcome.last_residual,
            max_abs_delta(golden, run_golden_sweeps(p, earlier, 3)));
  EXPECT_GT(outcome.last_residual, options.tolerance);
}

TEST(TemporalRunner, MonitorOnTheTargetBoxSharesThePassOutput) {
  // Clamp keeps every pass output on the target box, so the monitor's
  // previous target and the next pass's slice are one buffer, never
  // copied. Heat never settles within 1e-12: all four passes run through
  // that shared path, the outputs are the golden's, and the last residual
  // is the one between golden generations 8 and 6.
  const stencil::StencilProgram p = stencil::heat_2d(14, 18);
  const TemporalConfig config{.timesteps = 8, .block = 2,
                              .boundary = BoundaryPolicy::kClamp};
  RunnerOptions options = quiet_options();
  options.tolerance = 1e-12;
  TemporalRunner runner(p, config, options);
  for (const std::uint64_t seed : {3ull, 4ull}) {
    const FrameOutcome outcome = runner.run(seed);
    ASSERT_TRUE(outcome.ok()) << outcome.error;
    EXPECT_FALSE(outcome.converged_early);
    EXPECT_EQ(outcome.passes_completed, 4);
    EXPECT_EQ(outcome.generations_completed, 8);
    const std::vector<double> golden = run_golden_sweeps(p, config, seed);
    EXPECT_EQ(outcome.outputs, golden);
    TemporalConfig earlier = config;
    earlier.timesteps = 6;
    EXPECT_EQ(outcome.last_residual,
              max_abs_delta(golden, run_golden_sweeps(p, earlier, seed)));
    EXPECT_GT(outcome.last_residual, options.tolerance);
  }
}

TEST(TemporalRunner, ZeroToleranceDisablesTheMonitor) {
  stencil::StencilProgram p("CONST_TWO",
                            poly::Domain::box({1, 1}, {10, 10}));
  p.add_input("A", {{0, 0}, {1, 0}});
  p.set_kernel([](const std::vector<double>&) { return 2.0; });
  TemporalRunner runner(
      p, {.timesteps = 6, .block = 2, .boundary = BoundaryPolicy::kClamp},
      quiet_options());
  const FrameOutcome outcome = runner.run(1);
  ASSERT_TRUE(outcome.ok()) << outcome.error;
  EXPECT_FALSE(outcome.converged_early);
  EXPECT_EQ(outcome.passes_completed, 3);
  EXPECT_EQ(outcome.generations_completed, 6);
  EXPECT_EQ(outcome.last_residual, -1.0);  // never measured
}

// ---- one worker pool ---------------------------------------------------

// Live threads of this process whose kernel name marks an engine worker
// ("nup-w<node>.<i>").
std::size_t engine_worker_threads() {
  std::size_t n = 0;
  DIR* d = ::opendir("/proc/self/task");
  if (d == nullptr) return 0;
  while (dirent* e = ::readdir(d)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream comm(std::string("/proc/self/task/") + e->d_name + "/comm");
    std::string name;
    if (std::getline(comm, name) && name.rfind("nup-w", 0) == 0) ++n;
  }
  ::closedir(d);
  return n;
}

TEST(TemporalRunner, EveryPassShapeSharesOneWorkerPool) {
  // T = 6, B = 4: a 4-replica shape and a 2-replica remainder. One
  // engine with a worker per stage of the larger shape serves both, so
  // the process runs 4 workers, not 4 + 2.
  const stencil::StencilProgram p = stencil::jacobi4_2d(16, 20);
  const TemporalConfig config{.timesteps = 6, .block = 4,
                              .boundary = BoundaryPolicy::kClamp};
  ASSERT_EQ(engine_worker_threads(), 0u);
  RunnerOptions options;
  options.pipeline.threads_per_stage = 1;
  TemporalRunner runner(p, config, options);
  ASSERT_EQ(runner.executor_count(), 2u);
  EXPECT_EQ(engine_worker_threads(), 4u);
  const FrameOutcome outcome = runner.run(3);
  ASSERT_TRUE(outcome.ok()) << outcome.error;
  EXPECT_EQ(outcome.outputs, run_golden_sweeps(p, config, 3));
  runner.shutdown();
  EXPECT_EQ(engine_worker_threads(), 0u);
}

// ---- random-triple sweep -----------------------------------------------

// 120 random (stencil, T, B, policy) triples, alternating datapath widths
// 1 and 4 and alternating forced tile shapes, each bit-identical to the
// naive T-sweep reference.
TEST(TemporalRunner, RandomTriplesAreBitIdenticalToGolden) {
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    const nup::testing::IterativeTriple triple =
        nup::testing::random_iterative_triple(seed);
    const TemporalConfig config{.timesteps = triple.timesteps,
                                .block = triple.block,
                                .boundary = triple.boundary,
                                .constant_value = triple.constant_value};
    RunnerOptions options;
    options.pipeline.threads_per_stage = 1;
    options.pipeline.build.datapath_width = (seed % 2 == 0) ? 4 : 1;
    if (seed % 3 == 0) options.pipeline.tile_shape = {4, 0};
    TemporalRunner runner(triple.program, config, options);
    const FrameOutcome outcome = runner.run(1000 + seed);
    ASSERT_TRUE(outcome.ok())
        << triple.program.name() << ": " << outcome.error;
    EXPECT_EQ(outcome.outputs,
              run_golden_sweeps(triple.program, config, 1000 + seed))
        << triple.program.name() << " T=" << triple.timesteps
        << " B=" << triple.block << " policy "
        << stencil::to_string(triple.boundary) << " W="
        << options.pipeline.build.datapath_width;
  }
}

}  // namespace
}  // namespace nup::temporal
