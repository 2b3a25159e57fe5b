// Telemetry of a simulation run: per-FIFO high-water marks never exceed
// the designed depths (the paper's Eq. 2 sizing, checked live), the
// fill/steady/drain phase boundaries are ordered, per-filter stall cycles
// agree between the two backends, and publish_sim_telemetry lands it all
// in a metrics registry -- through handles resolved once per design that
// publish exactly what a string-keyed lookup per series would.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arch/builder.hpp"
#include "obs/metrics.hpp"
#include "runtime/telemetry.hpp"
#include "sim/simulator.hpp"
#include "stencil/gallery.hpp"
#include "testing/stencil_gen.hpp"
#include "util/error.hpp"

namespace nup::sim {
namespace {

SimResult run_backend(const stencil::StencilProgram& p,
                      const arch::AcceleratorDesign& design,
                      SimBackend backend) {
  SimOptions options;
  options.backend = backend;
  options.record_outputs = false;
  return simulate(p, design, options);
}

/// The string-keyed publisher that resolved handles replaced: builds every
/// series name and looks it up in the registry on each call. Kept as the
/// oracle the resolved handles must reproduce series for series.
int string_keyed_publish(obs::Registry& registry,
                         const arch::AcceleratorDesign& design,
                         const SimResult& result,
                         obs::FifoDetail* first_violation) {
  int violations = 0;
  const auto note_violation = [&](const std::string& array, std::size_t k,
                                  std::int64_t depth, std::int64_t high,
                                  bool word_level) {
    ++violations;
    if (first_violation != nullptr && violations == 1) {
      first_violation->array = array;
      first_violation->fifo = k;
      first_violation->depth = depth;
      first_violation->high_water = high;
      first_violation->word_level = word_level;
    }
  };
  for (std::size_t s = 0; s < design.systems.size(); ++s) {
    const arch::MemorySystem& ms = design.systems[s];
    const std::string array = ms.array;
    for (std::size_t k = 0; k < ms.fifos.size(); ++k) {
      if (ms.fifos[k].cut) continue;
      if (s >= result.fifo_max_fill.size() ||
          k >= result.fifo_max_fill[s].size()) {
        continue;
      }
      const std::int64_t high_water = result.fifo_max_fill[s][k];
      const std::int64_t depth = ms.fifos[k].depth;
      const std::string suffix = array + "." + std::to_string(k);
      registry.gauge("fifo.high_water." + suffix).update_max(high_water);
      registry.gauge("fifo.depth." + suffix).update_max(depth);
      if (high_water > depth) {
        note_violation(array, k, depth, high_water, /*word_level=*/false);
      }
      if (design.datapath_width > 1) {
        const std::int64_t w = design.datapath_width;
        const std::int64_t word_depth = ms.fifos[k].word_depth(w);
        const std::int64_t high_water_words = (high_water + w - 1) / w;
        registry.gauge("fifo.word_depth." + suffix).update_max(word_depth);
        registry.gauge("fifo.high_water_words." + suffix)
            .update_max(high_water_words);
        if (high_water_words > word_depth) {
          note_violation(array, k, word_depth, high_water_words,
                         /*word_level=*/true);
        }
      }
    }
    if (s < result.filter_stall_cycles.size()) {
      for (std::size_t k = 0; k < result.filter_stall_cycles[s].size();
           ++k) {
        const std::int64_t stalls = result.filter_stall_cycles[s][k];
        if (stalls > 0) {
          registry
              .counter("filter.stall_cycles." + array + "." +
                       std::to_string(k))
              .add(stalls);
        }
      }
    }
  }
  if (violations > 0) {
    registry.counter("fifo.depth_violations").add(violations);
  }
  registry.counter("sim.runs").inc();
  registry.counter("sim.cycles").add(result.cycles);
  if (result.datapath_cycles > 0) {
    registry.counter("sim.datapath_cycles").add(result.datapath_cycles);
  }
  if (result.kernel_fires > 0) {
    registry.histogram("sim.fill_latency_cycles")
        .observe(result.fill_latency);
  }
  if (result.kernel_fires >= 2) {
    registry.histogram("sim.steady_ii_milli")
        .observe(static_cast<std::int64_t>(result.steady_ii * 1000.0));
  }
  if (result.drain_start > 0) {
    registry.histogram("sim.drain_cycles")
        .observe(result.cycles - result.drain_start);
  }
  return violations;
}

/// Same series (kind and name) with the same values, histograms bucket for
/// bucket.
void expect_same_snapshot(const obs::MetricsSnapshot& got,
                          const obs::MetricsSnapshot& want,
                          const std::string& label) {
  ASSERT_EQ(got.samples.size(), want.samples.size()) << label;
  for (std::size_t i = 0; i < want.samples.size(); ++i) {
    const obs::MetricSample& g = got.samples[i];
    const obs::MetricSample& w = want.samples[i];
    EXPECT_EQ(g.kind, w.kind) << label << " " << w.name;
    EXPECT_EQ(g.name, w.name) << label;
    EXPECT_EQ(g.value, w.value) << label << " " << w.name;
    EXPECT_EQ(g.hist.count, w.hist.count) << label << " " << w.name;
    EXPECT_EQ(g.hist.sum, w.hist.sum) << label << " " << w.name;
    EXPECT_EQ(g.hist.min, w.hist.min) << label << " " << w.name;
    EXPECT_EQ(g.hist.max, w.hist.max) << label << " " << w.name;
    EXPECT_EQ(g.hist.counts, w.hist.counts) << label << " " << w.name;
  }
}

/// One run of `design` scored against `scored` (the design itself, or a
/// doctored copy), published both ways into fresh registries: same
/// snapshot, same violation count, same first violation.
void expect_handles_match_oracle(const stencil::StencilProgram& p,
                                 const arch::AcceleratorDesign& design,
                                 const arch::AcceleratorDesign& scored,
                                 const std::string& label) {
  const SimResult r = run_backend(p, design, SimBackend::kFast);
  obs::Registry handles, oracle;
  obs::FifoDetail got, want;
  got.array = want.array = "untouched";
  const runtime::DesignTelemetry telemetry =
      runtime::resolve_telemetry(handles, scored);
  EXPECT_EQ(telemetry.publish(r, &got),
            string_keyed_publish(oracle, scored, r, &want))
      << label;
  EXPECT_EQ(got.array, want.array) << label;
  EXPECT_EQ(got.fifo, want.fifo) << label;
  EXPECT_EQ(got.depth, want.depth) << label;
  EXPECT_EQ(got.high_water, want.high_water) << label;
  EXPECT_EQ(got.word_level, want.word_level) << label;
  expect_same_snapshot(handles.snapshot(), oracle.snapshot(), label);
}

void expect_high_water_within_depth(
    const stencil::StencilProgram& p,
    const arch::AcceleratorDesign& design, const SimResult& r,
    bool expect_tight) {
  ASSERT_FALSE(r.deadlocked) << p.name();
  ASSERT_EQ(r.fifo_max_fill.size(), design.systems.size()) << p.name();
  for (std::size_t s = 0; s < design.systems.size(); ++s) {
    const arch::MemorySystem& ms = design.systems[s];
    ASSERT_EQ(r.fifo_max_fill[s].size(), ms.fifos.size()) << p.name();
    for (std::size_t k = 0; k < ms.fifos.size(); ++k) {
      if (ms.fifos[k].cut) continue;
      EXPECT_LE(r.fifo_max_fill[s][k], ms.fifos[k].depth)
          << p.name() << " " << ms.array << " fifo " << k;
      if (expect_tight) {
        // The sizing is the max reuse distance: a full run touches every
        // reuse pair, so the peak occupancy reaches the designed depth.
        EXPECT_EQ(r.fifo_max_fill[s][k], ms.fifos[k].depth)
            << p.name() << " " << ms.array << " fifo " << k;
      }
    }
  }
}

TEST(Telemetry, DenoiseHighWaterEqualsDesignedDepthBothBackends) {
  const stencil::StencilProgram p = stencil::denoise_2d(64, 128);
  const arch::AcceleratorDesign design = arch::build_design(p);
  // 5-point window on 128-wide rows: chain depths {row-1, 1, 1, row-1}.
  ASSERT_EQ(design.systems.size(), 1u);
  ASSERT_EQ(design.systems[0].fifos.size(), 4u);
  EXPECT_EQ(design.systems[0].fifos[0].depth, 127);
  EXPECT_EQ(design.systems[0].fifos[1].depth, 1);
  EXPECT_EQ(design.systems[0].fifos[2].depth, 1);
  EXPECT_EQ(design.systems[0].fifos[3].depth, 127);
  for (const SimBackend backend :
       {SimBackend::kReference, SimBackend::kFast}) {
    const SimResult r = run_backend(p, design, backend);
    expect_high_water_within_depth(p, design, r, /*expect_tight=*/true);
  }
}

TEST(Telemetry, PhaseBoundariesAreOrdered) {
  const stencil::StencilProgram p = stencil::denoise_2d(32, 48);
  const arch::AcceleratorDesign design = arch::build_design(p);
  for (const SimBackend backend :
       {SimBackend::kReference, SimBackend::kFast}) {
    const SimResult r = run_backend(p, design, backend);
    ASSERT_GT(r.kernel_fires, 0);
    // fill = [1, fill_latency], steady = (fill_latency, drain_start],
    // drain = (drain_start, cycles].
    EXPECT_GT(r.fill_latency, 0);
    EXPECT_GT(r.drain_start, r.fill_latency);
    EXPECT_LE(r.drain_start, r.cycles);
  }
}

TEST(Telemetry, DrainBoundaryIsDegenerateOnCompletedRuns) {
  // Every kernel fire consumes a fresh off-chip element at each segment
  // head (same-cycle flow-through: the newest reference's data enters and
  // reaches its port in one cycle), so a completed run streams until the
  // final fire -- drain_start == cycles in both streaming modes. A real
  // drain tail only appears once module latencies stop being idealized.
  const stencil::StencilProgram p = stencil::denoise_2d(32, 48);
  for (const bool exact_streaming : {false, true}) {
    arch::BuildOptions opts;
    opts.exact_streaming = exact_streaming;
    const arch::AcceleratorDesign design = arch::build_design(p, opts);
    for (const SimBackend backend :
         {SimBackend::kReference, SimBackend::kFast}) {
      const SimResult r = run_backend(p, design, backend);
      ASSERT_FALSE(r.deadlocked);
      EXPECT_EQ(r.drain_start, r.cycles);
    }
  }
}

TEST(Telemetry, DeadlockFreezesTheDrainBoundary) {
  // On a wedged run the boundary marks the last cycle data still streamed
  // in: the stall-limit cycles spin past it with nothing entering the
  // chain. First diagnostic to read when a run hangs.
  const stencil::StencilProgram p = stencil::denoise_2d(20, 24);
  arch::AcceleratorDesign design = arch::build_design(p);
  design.systems[0].fifos[3].depth = 1;  // needs 23: wedges mid-run
  SimOptions options;
  options.stall_limit = 500;
  options.validate = false;  // report the wedge instead of throwing
  for (const SimBackend backend :
       {SimBackend::kReference, SimBackend::kFast}) {
    options.backend = backend;
    const SimResult r = simulate(p, design, options);
    ASSERT_TRUE(r.deadlocked);
    EXPECT_GT(r.drain_start, 0);
    EXPECT_LT(r.drain_start, r.cycles);
  }
}

TEST(Telemetry, StallCyclesAgreeAcrossBackends) {
  const stencil::StencilProgram p = stencil::sobel_2d(24, 32);
  const arch::AcceleratorDesign design = arch::build_design(p);
  const SimResult ref = run_backend(p, design, SimBackend::kReference);
  const SimResult fast = run_backend(p, design, SimBackend::kFast);
  EXPECT_EQ(ref.filter_stall_cycles, fast.filter_stall_cycles);
  EXPECT_EQ(ref.drain_start, fast.drain_start);
  // During fill the head filters wait on reuse data that has not arrived:
  // some filter must have stalled at least once.
  std::int64_t total = 0;
  for (const std::vector<std::int64_t>& sys : ref.filter_stall_cycles) {
    for (const std::int64_t stalls : sys) total += stalls;
  }
  EXPECT_GT(total, 0);
}

TEST(Telemetry, PublishLandsInRegistry) {
  const stencil::StencilProgram p = stencil::denoise_2d(64, 128);
  const arch::AcceleratorDesign design = arch::build_design(p);
  const SimResult r = run_backend(p, design, SimBackend::kFast);
  obs::Registry registry;
  const int violations =
      runtime::publish_sim_telemetry(registry, design, r);
  EXPECT_EQ(violations, 0);
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.value_of("fifo.high_water.A.0", -1), 127);
  EXPECT_EQ(snap.value_of("fifo.depth.A.0", -1), 127);
  EXPECT_EQ(snap.value_of("fifo.high_water.A.1", -1), 1);
  EXPECT_EQ(snap.value_of("fifo.depth_violations", 0), 0);
  EXPECT_EQ(snap.value_of("sim.runs"), 1);
  EXPECT_EQ(snap.value_of("sim.cycles"), r.cycles);
}

TEST(Telemetry, FirstViolationNamesTheOffendingFifo) {
  // An honest run scored against a doctored design: publishing must count
  // the violations and fill the out-param with the *first* offender (the
  // frame engine names it in the post-mortem bundle), not the last.
  const stencil::StencilProgram p = stencil::denoise_2d(64, 128);
  const arch::AcceleratorDesign design = arch::build_design(p);
  const SimResult r = run_backend(p, design, SimBackend::kFast);

  arch::AcceleratorDesign doctored = design;
  doctored.systems[0].fifos[0].depth = 120;  // high water is 127
  doctored.systems[0].fifos[3].depth = 100;  // also violated, but second
  obs::Registry registry;
  obs::FifoDetail violation;
  const int violations =
      runtime::publish_sim_telemetry(registry, doctored, r, &violation);
  EXPECT_EQ(violations, 2);
  EXPECT_EQ(violation.array, "A");
  EXPECT_EQ(violation.fifo, 0);
  EXPECT_EQ(violation.depth, 120);
  EXPECT_EQ(violation.high_water, 127);
  EXPECT_FALSE(violation.word_level);
  EXPECT_EQ(registry.snapshot().value_of("fifo.depth_violations", 0), 2);
}

TEST(Telemetry, CleanRunLeavesTheViolationOutParamUntouched) {
  const stencil::StencilProgram p = stencil::denoise_2d(32, 48);
  const arch::AcceleratorDesign design = arch::build_design(p);
  const SimResult r = run_backend(p, design, SimBackend::kFast);
  obs::Registry registry;
  obs::FifoDetail violation;
  violation.array = "untouched";
  violation.depth = -7;
  EXPECT_EQ(runtime::publish_sim_telemetry(registry, design, r, &violation),
            0);
  EXPECT_EQ(violation.array, "untouched");
  EXPECT_EQ(violation.depth, -7);
}

// ---- resolved handles vs the string-keyed oracle ------------------------

TEST(TelemetryHandles, GalleryAtEveryWidthMatchesTheStringKeyedOracle) {
  const std::vector<stencil::StencilProgram> gallery = {
      stencil::denoise_2d(24, 40),      stencil::rician_2d(24, 40),
      stencil::sobel_2d(24, 40),        stencil::bicubic_2d(24, 40),
      stencil::denoise_3d(6, 12, 16),   stencil::segmentation_3d(6, 12, 16),
      stencil::jacobi_2d(24, 40),       stencil::blur_2d(24, 40),
      stencil::heat_3d(6, 12, 16),      stencil::skewed_demo(16, 40),
      stencil::triangular_demo(24),     stencil::lattice_4d(4, 5, 6, 16),
      stencil::jacobi4_2d(24, 40),      stencil::jacobi8_2d(24, 40),
      stencil::heat_2d(24, 40),         stencil::life_2d(24, 40)};
  for (const stencil::StencilProgram& p : gallery) {
    for (const std::int64_t w : {1, 4, 8}) {
      arch::BuildOptions opts;
      opts.datapath_width = w;
      arch::AcceleratorDesign design;
      try {
        design = arch::build_design(p, opts);
      } catch (const Error&) {
        continue;  // W wider than every streamed row: legal rejection
      }
      expect_handles_match_oracle(p, design, design,
                                  p.name() + " W=" + std::to_string(w));
    }
  }
}

TEST(TelemetryHandles, DoctoredDesignViolatesLikeTheOracle) {
  // An honest run scored against shortened depths: element-level
  // violations at W=1, word-level ones at W=8.
  const stencil::StencilProgram p = stencil::denoise_2d(64, 128);
  for (const std::int64_t w : {1, 8}) {
    arch::BuildOptions opts;
    opts.datapath_width = w;
    const arch::AcceleratorDesign design = arch::build_design(p, opts);
    arch::AcceleratorDesign doctored = design;
    doctored.systems[0].fifos[3].depth = w == 1 ? 100 : 16;  // needs 127
    doctored.systems[0].fifos[0].depth = 64;
    expect_handles_match_oracle(p, design, doctored,
                                "doctored W=" + std::to_string(w));
  }
}

TEST(TelemetryHandles, SeveralDesignsIntoOneRegistryMatchTheOracle) {
  // Designs resolved up front into one registry (as a design cache does),
  // then runs published in an interleaved order, some twice: the shared
  // series (sim.*, same-named FIFOs) aggregate exactly as string-keyed
  // lookups would. A design resolved but never published adds nothing.
  const std::vector<stencil::StencilProgram> programs = {
      stencil::denoise_2d(20, 32), stencil::sobel_2d(20, 32),
      stencil::heat_3d(5, 10, 12), stencil::denoise_2d(28, 48)};
  std::vector<arch::AcceleratorDesign> designs;
  std::vector<SimResult> runs;
  obs::Registry handles, oracle;
  std::vector<runtime::DesignTelemetry> telemetry;
  for (const stencil::StencilProgram& p : programs) {
    designs.push_back(arch::build_design(p));
    runs.push_back(run_backend(p, designs.back(), SimBackend::kFast));
    telemetry.push_back(runtime::resolve_telemetry(handles, designs.back()));
  }
  const stencil::StencilProgram unused = stencil::bicubic_2d(20, 32);
  runtime::resolve_telemetry(handles, arch::build_design(unused));
  for (const std::size_t k : {2, 0, 1, 0, 3, 2}) {
    EXPECT_EQ(telemetry[k].publish(runs[k]),
              string_keyed_publish(oracle, designs[k], runs[k], nullptr));
  }
  expect_same_snapshot(handles.snapshot(), oracle.snapshot(), "shared");
}

TEST(TelemetryHandles, DefaultConstructedPublishesNothing) {
  const stencil::StencilProgram p = stencil::denoise_2d(20, 32);
  const SimResult r =
      run_backend(p, arch::build_design(p), SimBackend::kFast);
  obs::FifoDetail violation;
  violation.array = "untouched";
  EXPECT_EQ(runtime::DesignTelemetry{}.publish(r, &violation), 0);
  EXPECT_EQ(violation.array, "untouched");
}

// Random stencils come from the shared seeded generator (same stream as
// the legacy in-file recipe, so seeds keep naming the same programs).
using ::nup::testing::random_program;

class RandomTelemetry : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomTelemetry, HighWaterNeverExceedsDesignedDepth) {
  const stencil::StencilProgram p = random_program(GetParam());
  const arch::AcceleratorDesign design = arch::build_design(p);
  for (const SimBackend backend :
       {SimBackend::kReference, SimBackend::kFast}) {
    const SimResult r = run_backend(p, design, backend);
    expect_high_water_within_depth(p, design, r, /*expect_tight=*/false);
    obs::Registry registry;
    EXPECT_EQ(runtime::publish_sim_telemetry(registry, design, r), 0)
        << p.name();
  }
}

TEST_P(RandomTelemetry, HandlesMatchTheStringKeyedOracle) {
  const stencil::StencilProgram p = random_program(GetParam());
  for (const std::int64_t w : {1, 4}) {
    arch::BuildOptions opts;
    opts.datapath_width = w;
    arch::AcceleratorDesign design;
    try {
      design = arch::build_design(p, opts);
    } catch (const Error&) {
      continue;
    }
    expect_handles_match_oracle(p, design, design,
                                p.name() + " W=" + std::to_string(w));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTelemetry,
                         ::testing::Range<std::uint64_t>(0, 50));

// ---- W-wide datapath properties (Eq. 2 / W rescaling) ------------------

constexpr std::int64_t kWideWidths[] = {2, 4, 8};

/// Eq. 2 / W: a W-wide FIFO stores ceil(depth / W) words of W elements.
/// `depth` itself stays the scalar-element reuse distance of Eq. 2; the
/// rescaling lives in word_depth so the element-level bound (and the
/// scalar telemetry check) is untouched.
TEST_P(RandomTelemetry, WordDepthIsCeilOfScalarDepthOverWidth) {
  const stencil::StencilProgram p = random_program(GetParam());
  const arch::AcceleratorDesign scalar = arch::build_design(p);
  for (const std::int64_t w : kWideWidths) {
    arch::BuildOptions opts;
    opts.datapath_width = w;
    arch::AcceleratorDesign wide;
    try {
      wide = arch::build_design(p, opts);
    } catch (const Error&) {
      continue;  // W wider than every streamed row: legal rejection
    }
    ASSERT_EQ(wide.systems.size(), scalar.systems.size());
    for (std::size_t s = 0; s < wide.systems.size(); ++s) {
      ASSERT_EQ(wide.systems[s].fifos.size(),
                scalar.systems[s].fifos.size());
      for (std::size_t k = 0; k < wide.systems[s].fifos.size(); ++k) {
        const arch::ReuseFifo& f = wide.systems[s].fifos[k];
        EXPECT_EQ(f.depth, scalar.systems[s].fifos[k].depth)
            << p.name() << " W=" << w << " fifo " << k;
        EXPECT_EQ(f.word_depth(w), (f.depth + w - 1) / w)
            << p.name() << " W=" << w << " fifo " << k;
      }
    }
  }
}

/// The measured high-water mark, rescaled to words, never exceeds the
/// Eq. 2 / W word depth -- publish_sim_telemetry counts any excess as a
/// depth violation, and a correct widened design produces none.
TEST_P(RandomTelemetry, HighWaterWordsNeverExceedRescaledDepth) {
  const stencil::StencilProgram p = random_program(GetParam());
  for (const std::int64_t w : kWideWidths) {
    arch::BuildOptions opts;
    opts.datapath_width = w;
    arch::AcceleratorDesign design;
    try {
      design = arch::build_design(p, opts);
    } catch (const Error&) {
      continue;
    }
    for (const SimBackend backend :
         {SimBackend::kReference, SimBackend::kFast}) {
      const SimResult r = run_backend(p, design, backend);
      ASSERT_FALSE(r.deadlocked) << p.name() << " W=" << w;
      obs::Registry registry;
      EXPECT_EQ(runtime::publish_sim_telemetry(registry, design, r), 0)
          << p.name() << " W=" << w;
      const obs::MetricsSnapshot snap = registry.snapshot();
      for (std::size_t s = 0; s < design.systems.size(); ++s) {
        const arch::MemorySystem& ms = design.systems[s];
        for (std::size_t k = 0; k < ms.fifos.size(); ++k) {
          if (ms.fifos[k].cut) continue;
          const std::string suffix =
              ms.array + "." + std::to_string(k);
          const double words =
              snap.value_of("fifo.high_water_words." + suffix, -1);
          const double bound =
              snap.value_of("fifo.word_depth." + suffix, -1);
          EXPECT_GE(words, 0) << p.name() << " " << suffix;
          EXPECT_LE(words, bound)
              << p.name() << " W=" << w << " " << suffix;
        }
      }
    }
  }
}

TEST(Telemetry, PublishReportsWordGaugesAndDatapathCycles) {
  const stencil::StencilProgram p = stencil::denoise_2d(64, 128);
  arch::BuildOptions opts;
  opts.datapath_width = 8;
  const arch::AcceleratorDesign design = arch::build_design(p, opts);
  const SimResult r = run_backend(p, design, SimBackend::kFast);
  obs::Registry registry;
  EXPECT_EQ(runtime::publish_sim_telemetry(registry, design, r), 0);
  const obs::MetricsSnapshot snap = registry.snapshot();
  // Chain depths {127, 1, 1, 127} => word depths {16, 1, 1, 16} at W=8.
  EXPECT_EQ(snap.value_of("fifo.word_depth.A.0", -1), 16);
  EXPECT_EQ(snap.value_of("fifo.word_depth.A.1", -1), 1);
  EXPECT_EQ(snap.value_of("fifo.word_depth.A.3", -1), 16);
  EXPECT_LE(snap.value_of("fifo.high_water_words.A.0", -1), 16);
  EXPECT_GT(snap.value_of("fifo.high_water_words.A.0", -1), 0);
  EXPECT_EQ(snap.value_of("sim.datapath_cycles"), r.datapath_cycles);
  EXPECT_LT(r.datapath_cycles, r.cycles);  // W=8 really batched
}

}  // namespace
}  // namespace nup::sim
