#include "layers.hpp"

#include <algorithm>
#include <optional>

#include "common.hpp"
#include "obs/metrics.hpp"
#include "runtime/telemetry.hpp"
#include "sim/fast.hpp"

namespace perfbench {

using namespace nup;

FrameMix frame_mix(const std::vector<stencil::StencilProgram>& programs,
                   const std::vector<double>& weights, const runtime::EngineOptions& options) {
  obs::Registry registry;
  runtime::EngineOptions o = options;
  o.metrics = &registry;
  o.cache_capacity = 1;  // plan_for compiles every tile; nothing is kept
  runtime::FrameEngine engine(o);
  FrameMix mix;
  for (std::size_t k = 0; k < programs.size(); ++k) {
    mix.plans.push_back({&programs[k], engine.plan_for(programs[k]), weights[k]});
  }
  engine.shutdown();
  return mix;
}

namespace {

double elapsed_us(Clock::time_point t0) { return 1e6 * seconds_since(t0); }

LayerProbe probe_once(const FrameMix& mix, const arch::BuildOptions& build,
                      std::uint64_t seed, Spans& spans, std::uint64_t parent) {
  LayerProbe out;
  double construct_us = 0, compile_us = 0, build_us = 0, telemetry_us = 0;
  double plan_tiles_us = 0;
  for (const FrameMix::Entry& entry : mix.plans) {
    const runtime::TilePlan& plan = *entry.plan;
    {
      Spans::Scope span(spans, "runtime.plan_tiles", parent);
      const auto t0 = Clock::now();
      runtime::TilerOptions topts;
      topts.tile_shape = plan.tile_shape;
      runtime::plan_tiles(*entry.program, topts);
      plan_tiles_us += elapsed_us(t0);
    }
    std::vector<double> outputs(static_cast<std::size_t>(plan.total_outputs));
    double frame_cpu_s = 0;
    std::int64_t frame_cycles = 0;
    for (const runtime::Tile& tile : plan.tiles) {
      const stencil::StencilProgram& program = *tile.program;
      auto t0 = Clock::now();
      arch::AcceleratorDesign design;
      {
        Spans::Scope span(spans, "arch.build_design", parent);
        design = arch::build_design(program, build);
      }
      build_us += elapsed_us(t0);
      t0 = Clock::now();
      std::shared_ptr<const sim::FastPlan> fast_plan;
      {
        Spans::Scope span(spans, "sim.compile_fast_plan", parent);
        fast_plan = sim::compile_fast_plan(program, design);
      }
      compile_us += elapsed_us(t0);

      // The tile exactly as an engine worker runs it: fast backend from
      // the cached plan, outputs scattered through the rank table.
      sim::SimOptions so;
      so.backend = sim::SimBackend::kFast;
      so.seed = seed;
      so.record_outputs = false;
      const double c0 = thread_cpu_s();
      t0 = Clock::now();
      std::optional<sim::FastSim> sim;
      {
        Spans::Scope span(spans, "sim.construct", parent);
        sim.emplace(program, design, fast_plan, so);
      }
      construct_us += elapsed_us(t0);
      double* const dst = outputs.data();
      const std::int64_t* const ranks = tile.output_ranks.data();
      std::size_t k = 0;
      sim->set_output_callback([dst, ranks, &k](const poly::IntVec&, double v) {
        dst[ranks[k++]] = v;
      });
      const double c1 = thread_cpu_s();
      sim::SimResult result;
      {
        Spans::Scope span(spans, "sim.run", parent);
        result = sim->run();
      }
      out.run_cpu_s += thread_cpu_s() - c1;
      sim.reset();
      frame_cpu_s += thread_cpu_s() - c0;
      frame_cycles += result.cycles;
      out.cycles_total += result.cycles;
      t0 = Clock::now();
      {
        Spans::Scope span(spans, "runtime.publish_sim_telemetry", parent);
        obs::Registry fresh;
        runtime::publish_sim_telemetry(fresh, design, result);
      }
      telemetry_us += elapsed_us(t0);
      ++out.tiles;
    }
    out.cycles_per_frame += entry.weight * static_cast<double>(frame_cycles);
    out.sim_cpu_ms_per_frame += entry.weight * 1e3 * frame_cpu_s;
  }
  const double tiles = static_cast<double>(std::max<std::int64_t>(out.tiles, 1));
  out.construct_us = construct_us / tiles;
  out.compile_plan_us = compile_us / tiles;
  out.build_design_us = build_us / tiles;
  out.telemetry_us = telemetry_us / tiles;
  out.plan_tiles_us = plan_tiles_us / static_cast<double>(mix.plans.size());
  out.fast_cycles_per_s = out.run_cpu_s > 0 ? out.cycles_total / out.run_cpu_s : 0;
  return out;
}

}  // namespace

LayerProbe probe_layers(const FrameMix& mix, const arch::BuildOptions& build,
                        std::uint64_t seed, Spans& spans, std::uint64_t parent) {
  std::vector<LayerProbe> runs;
  for (int r = 0; r < kProbeReps; ++r) runs.push_back(probe_once(mix, build, seed, spans, parent));
  // Counts are identical across repetitions; every timing keeps its best
  // repetition -- the layer's cost with the least interference from the
  // host -- and the simulator rate keeps its own base counts.
  LayerProbe out = runs.front();
  for (double LayerProbe::*field :
       {&LayerProbe::construct_us, &LayerProbe::compile_plan_us, &LayerProbe::build_design_us,
        &LayerProbe::telemetry_us, &LayerProbe::plan_tiles_us,
        &LayerProbe::sim_cpu_ms_per_frame}) {
    for (const LayerProbe& r : runs) out.*field = std::min(out.*field, r.*field);
  }
  const auto fastest = std::max_element(runs.begin(), runs.end(),
                                        [](const LayerProbe& a, const LayerProbe& b) {
                                          return a.fast_cycles_per_s < b.fast_cycles_per_s;
                                        });
  out.fast_cycles_per_s = fastest->fast_cycles_per_s;
  out.run_cpu_s = fastest->run_cpu_s;
  return out;
}

double engine_frame_ms_p50(const std::vector<stencil::StencilProgram>& programs,
                           runtime::EngineOptions options,
                           const std::vector<std::uint64_t>& seeds, int frames,
                           Spans& spans, std::uint64_t parent) {
  obs::Registry registry;
  options.metrics = &registry;
  runtime::FrameEngine engine(options);
  for (const stencil::StencilProgram& p : programs) engine.submit(p, seeds.front()).wait();
  std::vector<double> ms;
  for (int f = 0; f < frames; ++f) {
    const stencil::StencilProgram& p = programs[static_cast<std::size_t>(f) % programs.size()];
    const std::uint64_t seed = seeds[static_cast<std::size_t>(f) % seeds.size()];
    Spans::Scope span(spans, "runtime.engine_frame", parent);
    const auto t0 = Clock::now();
    engine.submit(p, seed).wait();
    ms.push_back(1e3 * seconds_since(t0));
  }
  engine.shutdown();
  return percentile(ms, 50);
}

}  // namespace perfbench
