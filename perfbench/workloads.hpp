// The closed-loop workloads. Each computes its golden references
// before anything is timed, measures set-up, runs the measured phase for
// --seconds and checks every frame; a traced run (--trace 1) interleaves
// traced blocks and adds the per-layer metrics.
#pragma once

#include "common.hpp"
#include "layers.hpp"
#include "runtime/design_cache.hpp"
#include "serve/server.hpp"
#include "spans.hpp"

namespace perfbench {

Result run_paper_frames_wire(const Args& args);
Result run_tenant_churn(const Args& args);
Result run_heat_t8b2(const Args& args);
Result run_heat_t8b4(const Args& args);

/// Set-ups per run: kSetupsBefore before the measured phase (the last
/// one's service is the one measured) and, in an untraced run,
/// kSetupsAfter after it, so setup_s -- their median -- samples the host
/// at both ends of the run.
inline constexpr int kSetupsBefore = 4;
inline constexpr int kSetupsAfter = 5;

/// Times `set_up()` (construction until the first frame resolved; it
/// returns the service) kSetupsBefore times and keeps the last service.
template <class SetUp>
auto set_up_before(const SetUp& set_up, std::vector<double>* samples) {
  decltype(set_up()) service;
  for (int r = 0; r < kSetupsBefore; ++r) {
    service.reset();
    const auto t0 = Clock::now();
    service = set_up();
    samples->push_back(seconds_since(t0));
  }
  return service;
}

/// Times kSetupsAfter more set-ups, each service torn down untimed.
template <class SetUp>
void set_up_after(const SetUp& set_up, std::vector<double>* samples) {
  for (int r = 0; r < kSetupsAfter; ++r) {
    const auto t0 = Clock::now();
    const auto service = set_up();
    samples->push_back(seconds_since(t0));
  }
}

/// Untimed closed loop on the measured service before the measured phase,
/// so caches, slab pools and allocator arenas reach their steady state.
inline constexpr double kWarmupSeconds = 1.0;

/// The measured phase of a run. Untraced (--trace 0): one phase of
/// --seconds. Traced: four blocks of --seconds / 4 -- untraced, traced,
/// traced, untraced -- on the same warm service, so a linear drift of the
/// host cancels out of trace.overhead_frac. `measure(spans, seconds)`
/// runs one closed-loop block and returns it.
template <class Measure>
void measure_phases(const Args& args, Spans& spans, const Measure& measure,
                    Phase* untraced, Phase* traced) {
  Spans off(false);
  if (!args.trace) {
    *untraced = measure(off, args.seconds);
    return;
  }
  for (int block = 0; block < 4; ++block) {
    const bool on = block == 1 || block == 2;
    (on ? traced : untraced)->add(measure(on ? spans : off, args.seconds / 4));
  }
}

/// Writes the traced run's Chrome trace and self-time table under
/// args.out_dir and adds the table to the report lines.
void finish_trace(const Args& args, const Spans& spans, Result* result);

/// Sets the serve/runtime per-layer ratios from stats taken around the
/// measured phases (`frames` resolved in between).
void report_serve_layers(const nup::serve::ServeStats& before,
                         const nup::serve::ServeStats& after,
                         const nup::runtime::DesignCacheStats& cache_before,
                         const nup::runtime::DesignCacheStats& cache_after,
                         std::int64_t frames, Result* result);

/// Sets the sim/arch/runtime/sol metrics of an isolated layer probe.
void report_probe(const LayerProbe& probe, const Phase& untraced,
                  const std::vector<double>& golden_ms, Result* result);

/// Sets trace.overhead_frac from the untraced and traced phases.
void report_overhead(const Phase& untraced, const Phase& traced, Result* result);

}  // namespace perfbench
