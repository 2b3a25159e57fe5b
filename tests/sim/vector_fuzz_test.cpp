// Differential fuzz harness for the batched and W-wide fast backend. The
// sweep drives >= 400 random stencils (rect, sheared, triangular; ragged
// inner widths including rows narrower than W and rows with width % W != 0)
// through W in {1, 4, 8} -- a quarter of them with a nonlinear block kernel,
// the rest with weighted sums -- each checked four ways:
//
//   1. run_differential: the wide fast backend against the scalar
//      reference, cycle-exact at every batch boundary;
//   2. fast-W against fast-1 (options.vectorize = false): every SimResult
//      field except datapath_cycles must be bit-identical;
//   3. datapath_cycles bounds: ceil(cycles / W) <= datapath_cycles <=
//      cycles, with real batching (strict inequality) on vector-friendly
//      domains;
//   4. a fresh run() (whole firing runs per iteration) against a loop of
//      step() calls (one machine cycle each, datapath_cycles included) and
//      against AcceleratorSim::run().
//
// A sixth of the seeds also submit a same-named pair -- one window, two
// kernels -- through one FrameEngine; each frame must equal its own golden.
//
// The same binary passes with AVX2 (-march=native) and with the scalar
// fallback (-DNUP_DISABLE_AVX2); CI runs both, plus ASan/UBSan.

#include "sim/fast.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "arch/builder.hpp"
#include "arch/tradeoff.hpp"
#include "poly/transform.hpp"
#include "runtime/engine.hpp"
#include "runtime/tiler.hpp"
#include "sim/prefetch.hpp"
#include "sim/simulator.hpp"
#include "stencil/gallery.hpp"
#include "stencil/golden.hpp"
#include "stencil/transform.hpp"
#include "temporal/unroll.hpp"
#include "testing/stencil_gen.hpp"
#include "util/error.hpp"

namespace nup::sim {
namespace {

constexpr std::int64_t kWidths[] = {1, 4, 8};

arch::AcceleratorDesign widened_design(const stencil::StencilProgram& p,
                                       std::int64_t width) {
  arch::BuildOptions options;
  options.datapath_width = width;
  return arch::build_design(p, options);
}

/// Longest streamed row of the program's first input hull (the quantity
/// widen_design validates W against).
std::int64_t longest_row(const stencil::StencilProgram& p) {
  const poly::Domain hull = p.data_domain_hull(0);
  poly::IntVec lo;
  poly::IntVec hi;
  EXPECT_TRUE(hull.as_single_box(&lo, &hi));
  return hi.back() - lo.back() + 1;
}

SimResult run_fast(const stencil::StencilProgram& p,
                   const arch::AcceleratorDesign& design, bool vectorize) {
  SimOptions options;
  options.backend = SimBackend::kFast;
  options.vectorize = vectorize;
  return simulate(p, design, options);
}

void expect_results_match(const SimResult& scalar, const SimResult& wide,
                          const std::string& label) {
  EXPECT_EQ(scalar.cycles, wide.cycles) << label;
  EXPECT_EQ(scalar.kernel_fires, wide.kernel_fires) << label;
  EXPECT_EQ(scalar.fill_latency, wide.fill_latency) << label;
  EXPECT_EQ(scalar.steady_ii, wide.steady_ii) << label;
  EXPECT_EQ(scalar.deadlocked, wide.deadlocked) << label;
  EXPECT_EQ(scalar.deadlock_detail, wide.deadlock_detail) << label;
  EXPECT_EQ(scalar.fifo_max_fill, wide.fifo_max_fill) << label;
  EXPECT_EQ(scalar.filter_stall_cycles, wide.filter_stall_cycles) << label;
  EXPECT_EQ(scalar.drain_start, wide.drain_start) << label;
  ASSERT_EQ(scalar.outputs.size(), wide.outputs.size()) << label;
  // Bit-identity, not closeness: the wide kernel path is only legal when
  // it reproduces the scalar kernel exactly.
  for (std::size_t i = 0; i < scalar.outputs.size(); ++i) {
    ASSERT_EQ(scalar.outputs[i], wide.outputs[i])
        << label << " output " << i;
  }
}

/// Finishes `sim` through step() calls -- one machine cycle each -- and
/// finalizes the result with run(), which resumes from the stepped state:
/// a no-op when done, the deciding stall cycle when deadlocked (the loop
/// leaves it to run(), as run_differential does).
SimResult run_by_steps(FastSim& sim, const SimOptions& options) {
  std::int64_t stalls = 0;
  while (!sim.done() && sim.cycle() < options.max_cycles &&
         stalls + 1 < options.stall_limit) {
    stalls = sim.step() ? 0 : stalls + 1;
  }
  return sim.run();
}

/// One kernel output as an output sink or callback delivered it.
struct Emitted {
  poly::IntVec point;
  double value = 0.0;
};

void expect_emitted_match(const std::vector<Emitted>& expected,
                          const std::vector<Emitted>& got,
                          const std::string& label) {
  ASSERT_EQ(expected.size(), got.size()) << label;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i].point, got[i].point) << label << " output " << i;
    ASSERT_EQ(expected[i].value, got[i].value) << label << " output " << i;
  }
}

/// Check 4: batched run(), a step() loop and the reference agree on every
/// SimResult field; datapath_cycles must match between the two fast runs.
/// The batched run's output sink delivers the (point, value) sequence of
/// record_outputs, of the reference's per-point callback and of the
/// stepped run's per-point callback adapter.
void expect_run_matches_steps(const stencil::StencilProgram& p,
                              const arch::AcceleratorDesign& design,
                              const std::string& label) {
  const SimOptions options;
  FastSim batched(p, design, options);
  FastSim stepped(p, design, options);
  AcceleratorSim reference(p, design, options);
  std::vector<Emitted> sunk;
  std::vector<Emitted> stepped_points;
  std::vector<Emitted> reference_points;
  batched.set_output_sink(
      [&](const poly::IntVec& first, const double* values, std::int64_t n) {
        poly::IntVec point = first;
        for (std::int64_t l = 0; l < n; ++l) {
          if (l > 0) ++point.back();
          sunk.push_back({point, values[l]});
        }
      });
  stepped.set_output_callback([&](const poly::IntVec& i, double v) {
    stepped_points.push_back({i, v});
  });
  reference.set_output_callback([&](const poly::IntVec& i, double v) {
    reference_points.push_back({i, v});
  });
  const SimResult a = batched.run();
  const SimResult b = run_by_steps(stepped, options);
  const SimResult ref = reference.run();
  expect_results_match(b, a, label + " run() vs step()");
  EXPECT_EQ(a.datapath_cycles, b.datapath_cycles) << label;
  expect_results_match(ref, a, label + " run() vs reference");

  ASSERT_EQ(sunk.size(), a.outputs.size()) << label;
  for (std::size_t i = 0; i < sunk.size(); ++i) {
    ASSERT_EQ(sunk[i].value, a.outputs[i]) << label << " output " << i;
  }
  expect_emitted_match(reference_points, sunk, label + " sink vs reference");
  expect_emitted_match(stepped_points, sunk, label + " sink vs step()");
}

/// The full four-way check of one (program, W) point; returns false when
/// the width was (correctly) rejected for this program.
bool check_program_at_width(const stencil::StencilProgram& p,
                            std::int64_t width) {
  arch::AcceleratorDesign design;
  try {
    design = widened_design(p, width);
  } catch (const Error&) {
    // widen_design rejects widths no streamed row can ever fill -- and
    // only those.
    EXPECT_LT(longest_row(p), width)
        << p.name() << ": W=" << width
        << " rejected although a row could fill a vector";
    return false;
  }
  EXPECT_GE(longest_row(p), width) << p.name();
  const std::string label = p.name() + " W=" + std::to_string(width);

  const DifferentialReport report = run_differential(p, design);
  EXPECT_TRUE(report.agreed) << label << ": " << report.divergence;
  EXPECT_EQ(report.width, width) << label;

  const SimResult scalar = run_fast(p, design, /*vectorize=*/false);
  const SimResult wide = run_fast(p, design, /*vectorize=*/true);
  expect_results_match(scalar, wide, label);
  EXPECT_EQ(scalar.datapath_cycles, scalar.cycles) << label;
  EXPECT_LE(wide.datapath_cycles, wide.cycles) << label;
  EXPECT_GE(wide.datapath_cycles, (wide.cycles + width - 1) / width)
      << label;
  expect_run_matches_steps(p, design, label);
  return true;
}

/// Submits `first` and `second` -- same name and window, different
/// kernels -- together through one engine: each frame must equal its own
/// golden run, whichever kernel the shared tile designs were compiled for.
void check_same_named_pair(const stencil::StencilProgram& first,
                           const stencil::StencilProgram& second,
                           std::int64_t width, std::uint64_t seed) {
  ASSERT_EQ(first.name(), second.name());
  ASSERT_NE(first.kernel_identity(), second.kernel_identity());
  const std::string label = first.name() + " pair W=" + std::to_string(width);
  runtime::EngineOptions options;
  options.threads = 2;
  options.build.datapath_width = width;
  runtime::FrameEngine engine(options);
  runtime::FrameHandle a = engine.submit(first, seed);
  runtime::FrameHandle b = engine.submit(second, seed);
  for (auto [p, handle] : {std::pair{&first, &a}, std::pair{&second, &b}}) {
    const runtime::FrameResult& r = handle->wait();
    ASSERT_TRUE(r.ok()) << label << ": " << r.error;
    EXPECT_EQ(r.outputs, stencil::run_golden(*p, seed).outputs) << label;
  }
}

class VectorFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// 144 parameter points x 3 shape families = 432 random stencils, each at
// W in {1, 4, 8}: the >= 400-stencil sweep of the acceptance criteria.
TEST_P(VectorFuzz, WideBackendMatchesScalarAndReference) {
  const std::uint64_t seed = GetParam();

  // Each family gives a quarter of its seeds a nonlinear block kernel
  // (taken from the share that would otherwise run the default kernel), so
  // the batched path's block-kernel dispatch sees ragged runs of every
  // length too.

  // Family 1: the legacy recipe (even seed rect, odd sheared), alternating
  // between the equal-weight default kernel and random weights.
  ::nup::testing::StencilGenOptions legacy;
  legacy.random_weights = (seed % 4) >= 2;
  legacy.nonlinear_block = (seed % 4) == 1;
  check_program_at_width(::nup::testing::random_program(seed, legacy), 1);
  for (std::int64_t w : {4, 8}) {
    check_program_at_width(::nup::testing::random_program(seed, legacy), w);
  }

  // Family 2: triangular domains -- inner rows ramp 1..extent+1, so every
  // remainder class width % W != 0 and rows narrower than W occur inside
  // one run.
  ::nup::testing::StencilGenOptions tri;
  tri.shape = ::nup::testing::StencilGenOptions::Shape::kTriangular;
  tri.random_weights = (seed % 2) == 1;
  tri.nonlinear_block = (seed % 4) == 2;
  for (std::int64_t w : kWidths) {
    check_program_at_width(::nup::testing::random_program(seed, tri), w);
  }

  // Family 3: ragged narrow boxes (extents 1..9): domains narrower than
  // W=8 (and sometimes W=4) exercise the rejected-width property and the
  // never-batches scalar path right at the boundary.
  ::nup::testing::StencilGenOptions narrow;
  narrow.shape = ::nup::testing::StencilGenOptions::Shape::kRect;
  narrow.min_extent = 1;
  narrow.max_extent = 9;
  narrow.random_weights = (seed % 2) == 0;
  narrow.nonlinear_block = (seed % 4) == 3;
  for (std::int64_t w : kWidths) {
    check_program_at_width(::nup::testing::random_program(seed, narrow), w);
  }

  // Same-named pairs: the generator draws the kernel last, so two kernel
  // recipes give one name and one window. Pair kind, submit order and W
  // cycle with the seed.
  if (seed % 6 == 0) {
    const std::uint64_t k = seed / 6;
    ::nup::testing::StencilGenOptions kinds[3];
    kinds[1].random_weights = true;
    kinds[2].nonlinear_block = true;
    const stencil::StencilProgram a =
        ::nup::testing::random_program(seed, kinds[k % 3]);
    const stencil::StencilProgram b =
        ::nup::testing::random_program(seed, kinds[(k + 1) % 3]);
    const std::int64_t width = (k % 2 == 1 && longest_row(a) >= 4) ? 4 : 1;
    if ((k / 3) % 2 == 0) {
      check_same_named_pair(a, b, width, seed);
    } else {
      check_same_named_pair(b, a, width, seed);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VectorFuzz,
                         ::testing::Range<std::uint64_t>(0, 144));

// ---- targeted cases beyond the sweep ----------------------------------

TEST(VectorFuzzGallery, AllGalleryBenchmarksAtEveryWidth) {
  const std::vector<stencil::StencilProgram> programs = {
      stencil::denoise_2d(24, 32),  stencil::rician_2d(24, 32),
      stencil::sobel_2d(24, 32),    stencil::bicubic_2d(12, 48),
      stencil::jacobi_2d(24, 32),   stencil::heat_3d(8, 10, 12),
      stencil::triangular_demo(18), stencil::skewed_demo(12, 20)};
  for (const stencil::StencilProgram& p : programs) {
    for (std::int64_t w : kWidths) {
      check_program_at_width(p, w);
    }
  }
}

TEST(VectorFuzzGallery, WideStepsActuallyBatchOnDenoise) {
  // Guards against the wide path silently degenerating to scalar: DENOISE
  // rows are long and rectangular, so steady-state steps retire W cells
  // (row boundaries and the fill phase fall back to scalar, which is why
  // the bar is 3x rather than the asymptotic 8x).
  const stencil::StencilProgram p = stencil::denoise_2d(96, 128);
  const arch::AcceleratorDesign design = widened_design(p, 8);
  const SimResult wide = run_fast(p, design, /*vectorize=*/true);
  EXPECT_FALSE(wide.deadlocked);
  EXPECT_LT(wide.datapath_cycles, wide.cycles / 3)
      << "W=8 retired fewer than 3 cells per machine cycle";
}

TEST(VectorFuzzGallery, WideOutputsMatchGolden) {
  for (std::int64_t w : kWidths) {
    const stencil::StencilProgram p = stencil::denoise_2d(24, 32);
    const SimResult r = run_fast(p, widened_design(p, w), true);
    const stencil::GoldenRun golden = stencil::run_golden(p, 1);
    ASSERT_EQ(r.outputs.size(), golden.outputs.size());
    for (std::size_t i = 0; i < r.outputs.size(); ++i) {
      ASSERT_EQ(r.outputs[i], golden.outputs[i]) << "W=" << w;
    }
  }
}

TEST(VectorFuzzGallery, TimedFeedForcesScalarPathButAgrees) {
  // A QueueFeed is not time-invariant: the wide backend must fall back to
  // scalar stepping around it and still match the reference exactly.
  const stencil::StencilProgram p = stencil::sobel_2d(12, 16);
  const arch::AcceleratorDesign design = widened_design(p, 4);

  const auto preloaded_feed = [&]() {
    auto feed = std::make_shared<QueueFeed>();
    design.systems[0].input_domain.for_each([&](const poly::IntVec& h) {
      feed->push(h, stencil::synthetic_value(7, 0, h));
    });
    return feed;
  };

  SimOptions options;
  AcceleratorSim ref(p, design, options);
  ref.set_feed(0, 0, preloaded_feed());
  FastSim fast(p, design, options);
  fast.set_feed(0, 0, preloaded_feed());
  const SimResult a = ref.run();
  const SimResult b = fast.run();
  EXPECT_FALSE(a.deadlocked);
  expect_results_match(a, b, "sobel queue-feed W=4");
  // Every step stayed scalar: a queue feed's availability may change
  // between micro-cycles, so batching would be unsound.
  EXPECT_EQ(b.datapath_cycles, b.cycles);
}

// ---- batched run() over external feeds ---------------------------------

/// Time-invariant feed of synthetic values that counts its value queries:
/// one per read() and one per read_row(). A scalar cycle reads one point
/// per advancing head and a batched run one row, so the count is the
/// number of iterations that streamed data. Output callbacks compare the
/// count between consecutive outputs: a batched run reads its whole block
/// before emitting its outputs, so only its first output follows a query,
/// while every scalar firing cycle reads first. With a `hole`, points from
/// that one on are never available: the run wedges there, identically in
/// every backend.
class CountingFeed final : public ExternalFeed {
 public:
  CountingFeed(std::size_t array, std::int64_t* queries,
               const poly::IntVec* hole)
      : array_(array), queries_(queries), hole_(hole) {}

  bool available(const poly::IntVec& h) override {
    return hole_ == nullptr || h < *hole_;
  }
  double read(const poly::IntVec& h) override {
    ++*queries_;
    return stencil::synthetic_value(7, array_, h);
  }
  bool time_invariant() const override { return true; }
  void read_row(const poly::IntVec& h, std::int64_t n, double* out) override {
    ++*queries_;
    stencil::synthetic_row(7, array_, h, n, out);
  }

 private:
  std::size_t array_;
  std::int64_t* queries_;
  const poly::IntVec* hole_;
};

enum class FeedKind {
  kInvariant,     ///< CountingFeed
  kHole,          ///< CountingFeed that stops serving mid-row
  kFillHole,      ///< CountingFeed that stops serving mid-fill
  kPrefetch,      ///< latency-bound PrefetchFeed over a CountingFeed
  kPrefetchFast,  ///< PrefetchFeed that runs ahead of the consumer
  kQueue,         ///< preloaded QueueFeed
};

/// Serving stops at the middle of the stream's middle row, where the
/// chain is in steady state (kHole), or of its first row, which the head
/// discards while the chain fills (kFillHole).
poly::IntVec hole_point(const arch::AcceleratorDesign& design,
                        FeedKind kind) {
  std::vector<poly::IntVec> points;
  design.systems[0].input_domain.for_each(
      [&](const poly::IntVec& h) { points.push_back(h); });
  const poly::IntVec& anchor = kind == FeedKind::kFillHole
                                   ? points.front()
                                   : points[points.size() / 2];
  std::vector<poly::IntVec> row;
  for (const poly::IntVec& h : points) {
    if (std::equal(h.begin(), h.end() - 1, anchor.begin())) row.push_back(h);
  }
  return row[row.size() / 2];
}

/// Installs a fresh `kind` feed on every segment of `sim`; every feed
/// serves synthetic_value(7, ...) so all kinds compute the same outputs.
template <typename Sim>
void install_feeds(Sim& sim, const arch::AcceleratorDesign& design,
                   FeedKind kind, std::int64_t* queries,
                   const poly::IntVec* hole) {
  for (std::size_t a = 0; a < design.systems.size(); ++a) {
    for (std::size_t s = 0; s < design.systems[a].stream_count(); ++s) {
      auto counting = std::make_shared<CountingFeed>(
          a, queries,
          kind == FeedKind::kHole || kind == FeedKind::kFillHole ? hole
                                                                 : nullptr);
      std::shared_ptr<ExternalFeed> feed = counting;
      if (kind == FeedKind::kPrefetch) {
        feed = std::make_shared<PrefetchFeed>(counting,
                                              PrefetchFeed::Config{});
      } else if (kind == FeedKind::kPrefetchFast) {
        PrefetchFeed::Config config;
        config.latency_cycles = 2;
        config.words_per_cycle = 2;
        feed = std::make_shared<PrefetchFeed>(counting, config);
      } else if (kind == FeedKind::kQueue) {
        auto queue = std::make_shared<QueueFeed>();
        design.systems[a].input_domain.for_each([&](const poly::IntVec& h) {
          queue->push(h, stencil::synthetic_value(7, a, h));
        });
        feed = queue;
      }
      sim.set_feed(a, s, feed);
    }
  }
}

struct FeedRun {
  SimResult result;
  /// Host iterations that streamed data: the CountingFeed queries, one per
  /// advancing head of a scalar cycle or a batched run.
  std::int64_t iterations = 0;
  /// Iterations that fired: the outputs that follow a feed query.
  std::int64_t firing_iterations = 0;
  /// Queries made before the first output: the fill's iterations.
  std::int64_t fill_iterations = -1;
};

/// Runs `p` on `design` over `kind` feeds with a fresh FastSim (from
/// `plan` when given), by run() or by a step() loop, and counts its
/// iterations from the CountingFeed queries.
FeedRun run_with_feeds(const stencil::StencilProgram& p,
                       const arch::AcceleratorDesign& design, FeedKind kind,
                       bool by_steps,
                       std::shared_ptr<const FastPlan> plan = nullptr) {
  const SimOptions options;
  std::int64_t queries = 0;
  std::int64_t queries_at_output = -1;
  FeedRun run;
  const poly::IntVec hole = hole_point(design, kind);
  if (!plan) plan = compile_fast_plan(p, design);
  FastSim sim(p, design, plan, options);
  install_feeds(sim, design, kind, &queries, &hole);
  sim.set_output_callback([&](const poly::IntVec&, double) {
    if (run.fill_iterations < 0) run.fill_iterations = queries;
    if (queries != queries_at_output) ++run.firing_iterations;
    queries_at_output = queries;
  });
  run.result = by_steps ? run_by_steps(sim, options) : sim.run();
  run.iterations = queries;
  return run;
}

SimResult reference_with_feeds(const stencil::StencilProgram& p,
                               const arch::AcceleratorDesign& design,
                               FeedKind kind) {
  std::int64_t queries = 0;
  const poly::IntVec hole = hole_point(design, kind);
  AcceleratorSim ref(p, design, SimOptions{});
  install_feeds(ref, design, kind, &queries, &hole);
  return ref.run();
}

TEST(BatchedRun, InvariantFeedBatchesAndMatchesStepsAndReference) {
  const std::vector<stencil::StencilProgram> programs = {
      stencil::denoise_2d(24, 32), stencil::sobel_2d(12, 16),
      stencil::triangular_demo(18)};
  for (const stencil::StencilProgram& p : programs) {
    for (std::int64_t w : kWidths) {
      const std::string label = p.name() + " W=" + std::to_string(w);
      const arch::AcceleratorDesign design = widened_design(p, w);
      const FeedRun batched =
          run_with_feeds(p, design, FeedKind::kInvariant, false);
      const FeedRun stepped =
          run_with_feeds(p, design, FeedKind::kInvariant, true);
      const SimResult ref =
          reference_with_feeds(p, design, FeedKind::kInvariant);
      EXPECT_FALSE(batched.result.deadlocked) << label;
      expect_results_match(stepped.result, batched.result, label);
      EXPECT_EQ(stepped.result.datapath_cycles,
                batched.result.datapath_cycles)
          << label;
      expect_results_match(ref, batched.result, label + " vs reference");
      // A time-invariant feed must not force the scalar path.
      EXPECT_LT(batched.iterations, batched.result.cycles) << label;
    }
  }
}

TEST(BatchedRun, InvariantFeedAvailabilityBoundsTheRun) {
  // A time-invariant feed may still lack points: a run -- a firing run, or
  // the head discarding during the fill -- must stop at the first point
  // the feed does not serve, so the wedge (cycle, stall accounting,
  // diagnostic) is the reference's.
  const stencil::StencilProgram p = stencil::denoise_2d(24, 32);
  for (FeedKind kind : {FeedKind::kHole, FeedKind::kFillHole}) {
    for (std::int64_t w : kWidths) {
      const std::string label =
          std::string(kind == FeedKind::kHole ? "hole" : "fill hole") +
          " W=" + std::to_string(w);
      const arch::AcceleratorDesign design = widened_design(p, w);
      const FeedRun batched = run_with_feeds(p, design, kind, false);
      const FeedRun stepped = run_with_feeds(p, design, kind, true);
      const SimResult ref = reference_with_feeds(p, design, kind);
      EXPECT_TRUE(batched.result.deadlocked) << label;
      expect_results_match(stepped.result, batched.result, label);
      EXPECT_EQ(stepped.result.datapath_cycles,
                batched.result.datapath_cycles)
          << label;
      expect_results_match(ref, batched.result, label + " vs reference");
      EXPECT_LT(batched.iterations, batched.result.cycles) << label;
    }
  }
}

TEST(BatchedRun, UnprovenPortsKeepPerFireValidation) {
  // Without the plan's structural port proof, SimOptions::validate checks
  // every fire's ports, which only the scalar path does: run() must not
  // batch a fire, and still agrees with the batched proven run. The fill
  // and row-end cycles fire nothing, so they still retire in runs.
  const stencil::StencilProgram p = stencil::denoise_2d(24, 32);
  const arch::AcceleratorDesign design = widened_design(p, 1);
  auto unproven = std::make_shared<FastPlan>(*compile_fast_plan(p, design));
  ASSERT_TRUE(unproven->ports_structurally_valid);
  unproven->ports_structurally_valid = false;
  const FeedRun checked =
      run_with_feeds(p, design, FeedKind::kInvariant, false, unproven);
  const FeedRun batched =
      run_with_feeds(p, design, FeedKind::kInvariant, false);
  expect_results_match(batched.result, checked.result, "unproven ports");
  EXPECT_EQ(checked.firing_iterations, checked.result.kernel_fires);
  EXPECT_LT(batched.firing_iterations, batched.result.kernel_fires);
  EXPECT_LT(checked.iterations, checked.result.cycles);
}

TEST(BatchedRun, SharedPlanKeepsEachProgramsKernel) {
  // The design cache hands one plan to every kernel of one shape: a
  // program whose kernel differs from the one the plan was probed with
  // must still be evaluated with its own kernel.
  const stencil::StencilProgram a = stencil::denoise_2d(24, 32);
  stencil::StencilProgram reweighted = a;
  std::vector<double> weights(a.total_references());
  for (std::size_t k = 0; k < weights.size(); ++k) {
    weights[k] = 0.25 + 0.125 * static_cast<double>(k);
  }
  reweighted.set_weighted_sum(weights);
  stencil::StencilProgram opaque = a;
  opaque.set_kernel([](const std::vector<double>& v) {
    return *std::max_element(v.begin(), v.end());
  });
  for (std::int64_t w : kWidths) {
    const arch::AcceleratorDesign design = widened_design(a, w);
    const std::shared_ptr<const FastPlan> plan = compile_fast_plan(a, design);
    for (const stencil::StencilProgram* p : {&reweighted, &opaque}) {
      FastSim sim(*p, design, plan, SimOptions{});
      EXPECT_EQ(sim.run().outputs, stencil::run_golden(*p, 1).outputs)
          << "W=" << w << (p == &opaque ? " opaque" : " reweighted");
    }
  }
}

TEST(BatchedRun, CopiedProgramsKeepTheBlockKernel) {
  // The tiler, transform() and the temporal replicas copy a program's
  // kernel into a new program. The copy must stay a block kernel, or every
  // engine tile of RICIAN/SOBEL falls back to one call per lane: the
  // kernel below counts the calls FastSim makes with more than one lane.
  auto block_calls = std::make_shared<std::int64_t>(0);
  stencil::StencilProgram base("COUNTED",
                               poly::Domain::box({1, 1}, {22, 30}));
  base.add_input("A", {{-1, 0}, {0, -1}, {0, 0}, {0, 1}, {1, 0}});
  base.set_block_kernel(
      [block_calls](const double* v, std::int64_t n, double* out) {
        if (n > 1) ++*block_calls;
        for (std::int64_t l = 0; l < n; ++l) out[l] = 0.0;
        for (std::int64_t k = 0; k < 5; ++k) {
          for (std::int64_t l = 0; l < n; ++l) {
            out[l] += std::abs(v[k * n + l] - 0.5);
          }
        }
      });

  runtime::TilerOptions tiling;
  tiling.tile_shape = {8, 0};
  const runtime::TilePlan tiles = runtime::plan_tiles(base, tiling);
  ASSERT_GT(tiles.tiles.size(), 1u);
  const std::vector<std::pair<std::string, stencil::StencilProgram>> copies = {
      {"tile", *tiles.tiles.front().program},
      {"transform", stencil::transform(base, poly::interchange(2, 0, 1))},
      {"replica", temporal::make_replica(base, base.iteration(), "REPLICA")},
  };
  for (const auto& [label, p] : copies) {
    for (std::int64_t w : kWidths) {
      const arch::AcceleratorDesign design = widened_design(p, w);
      *block_calls = 0;
      FastSim sim(p, design, SimOptions{});
      const SimResult result = sim.run();
      EXPECT_GT(*block_calls, 0) << label << " W=" << w;
      EXPECT_EQ(result.outputs, stencil::run_golden(p, 1).outputs)
          << label << " W=" << w;
    }
  }
}

TEST(BatchedRun, W1DenoiseRetiresFewerIterationsThanCycles) {
  // The batch path must run at the default width too: DENOISE rows are
  // long and rectangular, so nearly every row's steady state retires in a
  // handful of blocks.
  const stencil::StencilProgram p = stencil::denoise_2d(96, 128);
  const arch::AcceleratorDesign design = widened_design(p, 1);
  const FeedRun run = run_with_feeds(p, design, FeedKind::kInvariant, false);
  EXPECT_FALSE(run.result.deadlocked);
  EXPECT_EQ(run.result.datapath_cycles, run.result.cycles);
  EXPECT_LT(run.iterations * 8, run.result.cycles)
      << run.iterations << " iterations for " << run.result.cycles
      << " cycles";
}

TEST(BatchedRun, FillRetiresInRunsNotCycles) {
  // The ~2 rows of fill before the first fire take one run per change of
  // the advance pattern -- a filter reaching its match, a row end, the
  // lane buffer -- not one iteration per cycle.
  const stencil::StencilProgram p = stencil::denoise_2d(96, 128);
  const arch::AcceleratorDesign design = widened_design(p, 1);
  const FeedRun run = run_with_feeds(p, design, FeedKind::kInvariant, false);
  const auto filters =
      static_cast<std::int64_t>(design.systems[0].filter_count());
  EXPECT_FALSE(run.result.deadlocked);
  EXPECT_GT(run.result.fill_latency, 200);
  EXPECT_GT(run.fill_iterations, 0);
  EXPECT_LT(run.fill_iterations, 4 * filters)
      << run.fill_iterations << " iterations for a fill of "
      << run.result.fill_latency << " cycles";
}

/// Every SimResult field and every FIFO occupancy of run() stopped after
/// each cycle c (max_cycles = c) against a step() loop and the reference
/// under the same options: a run whose bound is too long shows as a state
/// difference at the cut points inside it, even when the full run
/// recovers. `base` carries the stall limit of designs that wedge.
void expect_every_cut_matches_steps(const stencil::StencilProgram& p,
                                    const arch::AcceleratorDesign& design,
                                    const std::string& label,
                                    const SimOptions& base = {}) {
  std::int64_t cycles = 0;
  {
    FastSim full(p, design, base);
    cycles = full.run().cycles;
  }
  for (std::int64_t c = 1; c <= cycles; ++c) {
    const std::string at = label + " cut at cycle " + std::to_string(c);
    SimOptions options = base;
    options.max_cycles = c;
    FastSim batched(p, design, options);
    FastSim stepped(p, design, options);
    AcceleratorSim reference(p, design, options);
    const SimResult a = batched.run();
    const SimResult b = run_by_steps(stepped, options);
    expect_results_match(b, a, at);
    EXPECT_EQ(b.datapath_cycles, a.datapath_cycles) << at;
    expect_results_match(reference.run(), a, at + " vs reference");
    for (std::size_t s = 0; s < design.systems.size(); ++s) {
      for (std::size_t k = 0; k < design.systems[s].fifos.size(); ++k) {
        EXPECT_EQ(stepped.fifo_fill(s, k), batched.fifo_fill(s, k))
            << at << " fifo (" << s << "," << k << ")";
        EXPECT_EQ(reference.fifo_fill(s, k), batched.fifo_fill(s, k))
            << at << " fifo (" << s << "," << k << ") vs reference";
      }
    }
    if (::testing::Test::HasFailure()) return;  // first cut is enough
  }
}

TEST(BatchedRun, RunStoppedAtAnyCycleMatchesSteps) {
  stencil::StencilProgram two("TWO", poly::Domain::box({1, 1}, {14, 18}));
  two.add_input("A", {{-1, 0}, {0, 0}, {1, 0}});
  two.add_input("W", {{0, -1}, {0, 1}});
  two.set_kernel(stencil::make_weighted_sum({0.2, 0.2, 0.2, 0.2, 0.2}));
  const std::vector<stencil::StencilProgram> programs = {
      stencil::denoise_2d(12, 16), stencil::sobel_2d(12, 16),
      stencil::heat_2d(12, 16), two};
  for (std::int64_t w : kWidths) {
    for (const stencil::StencilProgram& p : programs) {
      expect_every_cut_matches_steps(p, widened_design(p, w),
                                     p.name() + " W=" + std::to_string(w));
    }
    const stencil::StencilProgram denoise = stencil::denoise_2d(12, 16);
    for (std::size_t cuts = 1; cuts <= 3; ++cuts) {
      arch::AcceleratorDesign design = widened_design(denoise, w);
      design.systems[0] = arch::apply_tradeoff(design.systems[0], cuts);
      expect_every_cut_matches_steps(denoise, design,
                                     "DENOISE cuts=" + std::to_string(cuts) +
                                         " W=" + std::to_string(w));
    }
    // Undersized FIFOs (below Eq. 2) fill up and drain while their
    // neighbours hold, so the space and occupancy bounds of a run bind
    // before any match does; both designs wedge.
    SimOptions wedging;
    wedging.stall_limit = 40;
    const arch::AcceleratorDesign sized = widened_design(denoise, w);
    for (const auto& [fifo, depth] : {std::pair<std::size_t, std::int64_t>{
                                          0, sized.systems[0].fifos[0].depth - 1},
                                      {3, 1}}) {
      arch::AcceleratorDesign design = sized;
      design.systems[0].fifos[fifo].depth = depth;
      expect_every_cut_matches_steps(denoise, design,
                                     "DENOISE fifo " + std::to_string(fifo) +
                                         " depth " + std::to_string(depth) +
                                         " W=" + std::to_string(w),
                                     wedging);
    }
    // Offsets out of descending order (condition 1): a filter drains its
    // FIFO while the filter feeding it holds.
    arch::AcceleratorDesign shuffled = sized;
    arch::MemorySystem& sys = shuffled.systems[0];
    std::swap(sys.ordered_offsets[0], sys.ordered_offsets[4]);
    std::swap(sys.ref_order[0], sys.ref_order[4]);
    expect_every_cut_matches_steps(
        denoise, shuffled, "DENOISE shuffled W=" + std::to_string(w),
        wedging);
  }
}

TEST(BatchedRun, TimedFeedsFallBackToScalarCycles) {
  // PrefetchFeed and QueueFeed are not time-invariant: availability may
  // change between cycles, so every cycle must stay observable. run() then
  // takes one iteration per cycle -- one per fire -- and still matches the
  // step() loop and the reference exactly.
  const stencil::StencilProgram p = stencil::sobel_2d(12, 16);
  for (FeedKind kind :
       {FeedKind::kPrefetch, FeedKind::kPrefetchFast, FeedKind::kQueue}) {
    for (std::int64_t w : kWidths) {
      const std::string label = "feed kind " +
                                std::to_string(static_cast<int>(kind)) +
                                " W=" + std::to_string(w);
      const arch::AcceleratorDesign design = widened_design(p, w);
      const FeedRun batched = run_with_feeds(p, design, kind, false);
      const FeedRun stepped = run_with_feeds(p, design, kind, true);
      const SimResult ref = reference_with_feeds(p, design, kind);
      EXPECT_FALSE(batched.result.deadlocked) << label;
      expect_results_match(stepped.result, batched.result, label);
      expect_results_match(ref, batched.result, label + " vs reference");
      EXPECT_EQ(batched.result.datapath_cycles, batched.result.cycles)
          << label;
      if (kind != FeedKind::kQueue) {  // a queue feed is not counted
        EXPECT_EQ(batched.firing_iterations, batched.result.kernel_fires)
            << label;
      }
    }
  }
}

TEST(VectorFuzzGallery, WidthWiderThanAnyRowIsRejected) {
  const stencil::StencilProgram p = stencil::denoise_2d(12, 16);
  EXPECT_THROW(widened_design(p, 32), Error);   // rows are ~17 wide
  EXPECT_THROW(widened_design(p, 0), Error);    // below range
  EXPECT_THROW(widened_design(p, arch::kMaxDatapathWidth + 1), Error);
  EXPECT_NO_THROW(widened_design(p, 16));
}

}  // namespace
}  // namespace nup::sim
