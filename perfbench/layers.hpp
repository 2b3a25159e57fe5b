// Isolated per-layer probes of the traced run: each one times calls into
// one layer's public functions on the workload's own tile designs, single
// threaded, so the end-to-end numbers can be set against a ceiling.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "arch/builder.hpp"
#include "runtime/engine.hpp"
#include "runtime/tiler.hpp"
#include "spans.hpp"
#include "stencil/program.hpp"

namespace perfbench {

/// The tile plans one workload frame simulates, each with how many times
/// it runs per frame on average (a kernel of a 4-kernel rotation weighs
/// 1/4; a temporal stage runs once per pass).
struct FrameMix {
  struct Entry {
    const nup::stencil::StencilProgram* program;  ///< the program tiled
    std::shared_ptr<const nup::runtime::TilePlan> plan;
    double weight;
  };
  std::vector<Entry> plans;
};

/// The mix of `programs`, each tiled exactly as a FrameEngine with
/// `options` tiles it, program k weighted weights[k]. `programs` must
/// outlive the mix.
FrameMix frame_mix(const std::vector<nup::stencil::StencilProgram>& programs,
                   const std::vector<double>& weights, const nup::runtime::EngineOptions& options);

struct LayerProbe {
  std::int64_t tiles = 0;            ///< distinct tile designs probed
  double cycles_per_frame = 0;       ///< Σ weight x Σ SimResult::cycles
  double sim_cpu_ms_per_frame = 0;   ///< Σ weight x Σ (construct + run) CPU
  double fast_cycles_per_s = 0;      ///< cycles / FastSim::run CPU
  double construct_us = 0;           ///< FastSim ctor from a cached plan
  double compile_plan_us = 0;        ///< sim::compile_fast_plan
  double build_design_us = 0;        ///< arch::build_design
  double telemetry_us = 0;           ///< runtime::publish_sim_telemetry
  double plan_tiles_us = 0;          ///< runtime::plan_tiles per program
  std::int64_t cycles_total = 0;     ///< base of fast_cycles_per_s
  double run_cpu_s = 0;              ///< base of fast_cycles_per_s
};

/// Repetitions of every probe; each metric keeps its best one.
inline constexpr int kProbeReps = 5;

/// Runs every probe kProbeReps times over the mix, recording one span per
/// call under `parent`.
LayerProbe probe_layers(const FrameMix& mix, const nup::arch::BuildOptions& build,
                        std::uint64_t seed, Spans& spans, std::uint64_t parent);

/// Median latency of standalone FrameEngine::submit -> wait, one frame at
/// a time, rotating over `programs` (each warmed first).
double engine_frame_ms_p50(const std::vector<nup::stencil::StencilProgram>& programs,
                           nup::runtime::EngineOptions options,
                           const std::vector<std::uint64_t>& seeds, int frames,
                           Spans& spans, std::uint64_t parent);

}  // namespace perfbench
