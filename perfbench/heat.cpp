// heat_t8b<B>: heat_2d at 192x256, T = 8 generations per frame, B
// replicas per pass (B = 2 scored, B = 4 on request), clamp boundary, tile
// rows 24, through TemporalRunner with one worker per replica stage and
// cross-frame pass overlap. One request is one run_frames call of
// kFramesPerCall frames; outputs are compared with run_golden_sweeps.
//
// Why: the pipeline and temporal layers do most of the work -- dependency
// release, StageBuffer stitching, slab recycling, per-stage engines and
// pass chaining -- while serve and design-cache lookups play no part. The
// one-pool and fused-temporal work must move this workload. B = 2 keeps
// two of four vCPUs free: with B = 4 the four stage workers fill the host
// and a stall of any one vCPU (hypervisor steal) stalls the whole chain.
#include <algorithm>
#include <memory>

#include "layers.hpp"
#include "pipeline/executor.hpp"
#include "stencil/gallery.hpp"
#include "temporal/golden.hpp"
#include "temporal/runner.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace nup;

namespace {

constexpr std::int64_t kRows = 192;
constexpr std::int64_t kCols = 256;
constexpr std::int64_t kTileRows = 24;
constexpr std::size_t kSeeds = 16;
constexpr std::size_t kFramesPerCall = 4;
constexpr int kProbePasses = 24;

constexpr int kTimesteps = 8;

temporal::TemporalConfig heat_config(int block) {
  return {.timesteps = kTimesteps, .block = block,
          .boundary = stencil::BoundaryPolicy::kClamp};
}

pipeline::PipelineOptions pipeline_options(obs::Registry* registry) {
  pipeline::PipelineOptions o;
  o.name = "heat";
  o.threads_per_stage = 1;
  o.tile_shape = {kTileRows, 0};
  o.metrics = registry;
  return o;
}

struct Service {
  obs::Registry registry;
  temporal::TemporalRunner runner;

  Service(const stencil::StencilProgram& program, const temporal::TemporalConfig& config)
      : runner(program, config, {.pipeline = pipeline_options(&registry)}) {}
};

struct Inputs {
  stencil::StencilProgram program = stencil::heat_2d(kRows, kCols);
  std::vector<std::uint64_t> seeds;
  std::vector<std::vector<double>> golden;
};

/// Closed loop: one run_frames call after another until the deadline.
Phase measure(Service& svc, const Inputs& in, double seconds, SeedStream& rng,
              Spans& spans, Gate* gate, std::int64_t* generations) {
  Phase phase;
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  const std::int64_t t0_ns = Spans::now_ns();
  std::vector<std::size_t> slots(kFramesPerCall);
  std::vector<std::uint64_t> seeds(kFramesPerCall);
  do {
    for (std::size_t f = 0; f < kFramesPerCall; ++f) {
      slots[f] = rng.below(kSeeds);
      seeds[f] = in.seeds[slots[f]];
    }
    const std::uint64_t span = spans.new_id();
    const std::int64_t start = Spans::now_ns();
    std::vector<temporal::FrameOutcome> outcomes;
    {
      Spans::Scope call(spans, "temporal.run_frames", span);
      outcomes = svc.runner.run_frames(seeds);
    }
    bool all_ok = true;
    {
      Spans::Scope verify(spans, "stencil.verify", span);
      for (std::size_t f = 0; f < kFramesPerCall; ++f) {
        const temporal::FrameOutcome& o = outcomes[f];
        const bool ok = o.ok() && o.generations_completed == kTimesteps &&
                        o.outputs == in.golden[slots[f]];
        if (gate->record(ok, "heat frame " + std::to_string(o.seed) + " " + o.error)) {
          ++phase.frames_ok;
          phase.done_s.push_back((Spans::now_ns() - t0_ns) / 1e9);
          *generations += o.generations_completed;
        }
        all_ok = all_ok && ok;
      }
    }
    const std::int64_t end = Spans::now_ns();
    spans.record("request", span, 0, start, end);
    if (all_ok) phase.latency_ms.push_back((end - start) / 1e6);
    if (phase.threads == 0 && seconds_since(t0) > seconds / 2) phase.threads = os_threads();
  } while (seconds_since(t0) < seconds);
  phase.seconds = seconds_since(t0);
  phase.cpu_s = process_cpu_s() - cpu0;
  return phase;
}

/// Sums the registry's counters named cache.<...>.<suffix> (one cache per
/// stage engine).
std::int64_t cache_counter(const obs::Registry& registry, const std::string& suffix) {
  std::int64_t total = 0;
  for (const obs::MetricSample& s : registry.snapshot().samples) {
    if (s.kind == obs::MetricSample::Kind::kCounter && s.name.rfind("cache.", 0) == 0 &&
        s.name.size() > suffix.size() &&
        s.name.compare(s.name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += s.value;
    }
  }
  return total;
}

/// One pass graph pumped through a standalone PipelineExecutor: pass time,
/// admission wait, stage overlap and edge occupancy.
void probe_pipeline(const temporal::TemporalSchedule& schedule, const Inputs& in,
                    Spans& spans, std::uint64_t parent, Result* res) {
  obs::Registry registry;
  pipeline::PipelineExecutor executor(schedule.shapes[0].graph, pipeline_options(&registry));
  executor.submit(in.seeds[0]).wait();  // warm: slab pools grown
  std::vector<pipeline::PipelineHandle> handles;
  std::vector<double> admission_us;
  for (int p = 0; p < kProbePasses; ++p) {
    const auto t0 = Clock::now();
    {
      Spans::Scope submit(spans, "pipeline.submit", parent);
      handles.push_back(executor.submit(in.seeds[static_cast<std::size_t>(p) % kSeeds]));
    }
    admission_us.push_back(1e6 * seconds_since(t0));
  }
  std::vector<double> pass_ms;
  std::int64_t edge_peak = 0;
  double overlap_us = 0, shorter_us = 0;
  for (pipeline::PipelineHandle& h : handles) {
    const pipeline::PipelineResult& r = h.wait();
    pass_ms.push_back(r.total_us / 1e3);
    for (std::size_t s = 0; s + 1 < r.timing.size(); ++s) {
      const pipeline::StageTiming& a = r.timing[s];
      const pipeline::StageTiming& b = r.timing[s + 1];
      const double both = std::max<double>(
          0, std::min(a.last_tile_us, b.last_tile_us) - std::max(a.first_tile_us, b.first_tile_us));
      const double shorter = std::min(a.last_tile_us - a.first_tile_us,
                                      b.last_tile_us - b.first_tile_us);
      overlap_us += both;
      shorter_us += shorter;
    }
    for (const auto& e : r.edges) edge_peak = std::max(edge_peak, e.max_elements);
  }
  executor.shutdown();
  res->set("pipeline.pass_ms_p50", percentile(pass_ms, 50), "ms");
  res->set("pipeline.admission_wait_us_p50", percentile(admission_us, 50), "us");
  res->set("pipeline.stage_overlap_frac", shorter_us > 0 ? overlap_us / shorter_us : 0,
           "fraction");
  res->set("pipeline.edge_peak_elements", static_cast<double>(edge_peak), "count");
  res->note("pipeline.pass (PipelineResult::total_us) " + describe_sample(pass_ms, "ms"));
  res->note("pipeline.admission_wait " + describe_sample(admission_us, "us"));
  res->note(fmt("pipeline.stage_overlap_frac = %.0f us both consecutive stages active / "
                "%.0f us active span of the shorter stage, over %d passes",
                overlap_us, shorter_us, kProbePasses));
}

/// heat_2d with `block` replicas per pass (one worker each).
Result run_heat(const Args& args, int block) {
  Result res;
  const temporal::TemporalConfig config = heat_config(block);
  SeedStream rng(args.seed, 0x48454154);
  Inputs in;
  std::vector<double> golden_ms;
  for (std::size_t k = 0; k < kSeeds; ++k) {
    in.seeds.push_back(rng.next());
    const auto t0 = Clock::now();
    in.golden.push_back(temporal::run_golden_sweeps(in.program, config, in.seeds.back()));
    golden_ms.push_back(1e3 * seconds_since(t0));
  }
  if (args.corrupt_golden) {
    for (std::vector<double>& g : in.golden) g[0] += 1.0;
  }

  // Set-up: runner construction (plan_temporal, per-stage engines, design
  // pins) until the first frame resolves.
  auto set_up = [&] {
    const std::size_t slot = rng.below(kSeeds);
    auto svc = std::make_unique<Service>(in.program, config);
    const temporal::FrameOutcome first = svc->runner.run(in.seeds[slot]);
    res.gate.record(first.ok() && first.outputs == in.golden[slot], "set-up frame");
    return svc;
  };
  std::vector<double> setup_samples;
  std::unique_ptr<Service> svc = set_up_before(set_up, &setup_samples);

  Spans off(false);
  std::int64_t generations = 0, untraced_generations = 0;
  measure(*svc, in, kWarmupSeconds, rng, off, &res.gate, &untraced_generations);  // warm-up

  const std::int64_t hits0 = cache_counter(svc->registry, ".hits");
  const std::int64_t misses0 = cache_counter(svc->registry, ".misses");
  Spans spans(args.trace);
  Phase untraced, traced;
  measure_phases(args, spans, [&](Spans& s, double seconds) {
    return measure(*svc, in, seconds, rng, s, &res.gate,
                   s.enabled() ? &generations : &untraced_generations);
  }, &untraced, &traced);
  if (!args.trace) {
    svc.reset();
    set_up_after(set_up, &setup_samples);
  }
  report_phase(untraced, setup_samples, &res);
  res.note("golden (run_golden_sweeps, T=8) " + describe_sample(golden_ms, "ms"));
  if (!args.trace) return res;

  const std::int64_t hits = cache_counter(svc->registry, ".hits") - hits0;
  const std::int64_t misses = cache_counter(svc->registry, ".misses") - misses0;
  const std::int64_t evictions = cache_counter(svc->registry, ".evictions");
  const temporal::TemporalSchedule schedule = svc->runner.schedule();
  svc.reset();
  report_overhead(untraced, traced, &res);
  res.set("temporal.gens_per_s", generations / traced.seconds, "1/s");
  res.note(fmt("temporal.gens_per_s = %lld generations / %.3f s traced blocks",
               static_cast<long long>(generations), traced.seconds));
  res.set("runtime.cache_hit_ratio",
          hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0,
          "ratio");
  res.set("runtime.cache_evictions_per_frame",
          static_cast<double>(evictions) / static_cast<double>(untraced.frames_ok + traced.frames_ok),
          "count");
  res.note(fmt("runtime.cache_hit_ratio = %lld hits / (%lld hits + %lld misses) in the "
               "measured phases (designs are pinned at construction); %lld evictions",
               static_cast<long long>(hits), static_cast<long long>(hits),
               static_cast<long long>(misses), static_cast<long long>(evictions)));
  res.set("runtime.os_threads", static_cast<double>(traced.threads), "count");

  {
    Spans::Scope probes(spans, "probe", 0);
    runtime::EngineOptions stage_engine;
    stage_engine.threads = 1;
    stage_engine.tile_shape = {kTileRows, 0};
    // Every stage of a pass shape runs once per pass that uses the shape.
    std::vector<stencil::StencilProgram> stage_programs;
    std::vector<double> passes;
    for (std::size_t k = 0; k < schedule.shapes.size(); ++k) {
      for (const pipeline::Stage& stage : schedule.shapes[k].graph.stages()) {
        stage_programs.push_back(stage.program);
        passes.push_back(static_cast<double>(
            std::count(schedule.pass_shape.begin(), schedule.pass_shape.end(), k)));
      }
    }
    const LayerProbe probe = probe_layers(frame_mix(stage_programs, passes, stage_engine),
                                          stage_engine.build, in.seeds[0], spans, probes.id());
    report_probe(probe, untraced, golden_ms, &res);
    runtime::EngineOptions engine = stage_engine;
    engine.threads = static_cast<std::size_t>(block);
    res.set("runtime.engine_frame_ms_p50",
            engine_frame_ms_p50({in.program}, engine, in.seeds, 30, spans, probes.id()), "ms");
    probe_pipeline(schedule, in, spans, probes.id(), &res);
  }
  finish_trace(args, spans, &res);
  return res;
}

}  // namespace

Result run_heat_t8b2(const Args& args) { return run_heat(args, 2); }
Result run_heat_t8b4(const Args& args) { return run_heat(args, 4); }

}  // namespace perfbench
