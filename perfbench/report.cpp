#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "workloads.hpp"

namespace perfbench {

void finish_trace(const Args& args, const Spans& spans, Result* result) {
  std::filesystem::create_directories(args.out_dir);
  const std::string stem = args.out_dir + "/trace-" + args.workload + "-" +
                           std::to_string(args.seed);
  std::ofstream(stem + ".json") << spans.chrome_json();

  std::string table = fmt("%-32s %8s %12s %12s %14s\n", "span", "count", "total_ms",
                          "self_ms", "self_us/call");
  for (const SelfTime& t : spans.self_times()) {
    table += fmt("%-32s %8lld %12.3f %12.3f %14.3f\n", t.name.c_str(),
                 static_cast<long long>(t.count), t.total_ns / 1e6, t.self_ns / 1e6,
                 t.self_ns / 1e3 / static_cast<double>(t.count));
  }
  std::ofstream(stem + ".selftime.txt") << table;
  result->note(fmt("trace: %zu spans -> %s.json, self time per span name -> %s.selftime.txt",
                   spans.size(), stem.c_str(), stem.c_str()));
  result->note("self time = span minus the part its child spans cover:\n" + table);
}

void report_serve_layers(const nup::serve::ServeStats& before,
                         const nup::serve::ServeStats& after,
                         const nup::runtime::DesignCacheStats& cache_before,
                         const nup::runtime::DesignCacheStats& cache_after,
                         std::int64_t frames, Result* result) {
  const std::int64_t hits = cache_after.hits - cache_before.hits;
  const std::int64_t misses = cache_after.misses - cache_before.misses;
  const std::int64_t evictions = cache_after.evictions - cache_before.evictions;
  const std::int64_t groups = after.groups - before.groups;
  const std::int64_t switches = after.design_switches - before.design_switches;
  const double n = static_cast<double>(std::max<std::int64_t>(frames, 1));
  result->set("runtime.cache_hit_ratio",
              hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0,
              "ratio");
  result->set("runtime.cache_evictions_per_frame", evictions / n, "count");
  result->set("serve.groups_per_frame", groups / n, "count");
  result->set("serve.design_switches_per_frame", switches / n, "count");
  result->note(fmt("runtime.cache_hit_ratio = %lld hits / (%lld hits + %lld misses); "
                   "%lld evictions, %lld groups, %lld design switches over %lld frames",
                   static_cast<long long>(hits), static_cast<long long>(hits),
                   static_cast<long long>(misses), static_cast<long long>(evictions),
                   static_cast<long long>(groups), static_cast<long long>(switches),
                   static_cast<long long>(frames)));
}

void report_probe(const LayerProbe& probe, const Phase& untraced,
                  const std::vector<double>& golden_ms, Result* result) {
  result->set("sim.fast_cycles_per_s", probe.fast_cycles_per_s, "1/s");
  result->set("sim.cycles_per_frame", probe.cycles_per_frame, "cycles");
  result->set("sim.construct_us", probe.construct_us, "us");
  result->set("sim.compile_plan_us", probe.compile_plan_us, "us");
  result->set("arch.build_design_us", probe.build_design_us, "us");
  result->set("runtime.plan_tiles_us", probe.plan_tiles_us, "us");
  result->set("runtime.telemetry_publish_us", probe.telemetry_us, "us");
  result->set("sol.golden_ms_per_frame", percentile(golden_ms, 50), "ms");
  const double cpu_ms = untraced.cpu_ms_per_frame();
  result->set("sol.sim_share_of_cpu", cpu_ms > 0 ? probe.sim_cpu_ms_per_frame / cpu_ms : 0,
              "fraction");
  result->note(fmt("sim.fast_cycles_per_s = %lld cycles / %.4f CPU-s of FastSim::run over "
                   "%lld tile designs",
                   static_cast<long long>(probe.cycles_total), probe.run_cpu_s,
                   static_cast<long long>(probe.tiles)));
  result->note(fmt("sol.sim_share_of_cpu = %.3f isolated-sim CPU-ms per frame / %.3f "
                   "end-to-end CPU-ms per frame: %.1f %% simulator, the rest runtime "
                   "overhead",
                   probe.sim_cpu_ms_per_frame, cpu_ms,
                   cpu_ms > 0 ? 100 * probe.sim_cpu_ms_per_frame / cpu_ms : 0.0));
  result->note(fmt("sol.golden_ms_per_frame: median of %zu golden frames",
                   golden_ms.size()));
}

void report_overhead(const Phase& untraced, const Phase& traced, Result* result) {
  const double frac = untraced.fps() > 0 ? 1.0 - traced.fps() / untraced.fps() : 0;
  result->set("trace.overhead_frac", frac, "fraction");
  result->note(fmt("trace.overhead_frac = 1 - %.3f traced fps (%lld frames / %.3f s) "
                   "/ %.3f untraced fps (%lld frames / %.3f s)",
                   traced.fps(), static_cast<long long>(traced.frames_ok), traced.seconds,
                   untraced.fps(), static_cast<long long>(untraced.frames_ok),
                   untraced.seconds));
}

}  // namespace perfbench
