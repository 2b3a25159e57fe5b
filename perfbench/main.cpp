// Benchmark harness: one workload per process.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--commit <id>] [--corrupt-golden]
//
// Prints a human-readable report (host facts, base counts of every ratio,
// the traced run's self-time table) and, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exits non-zero
// when any frame failed its check.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Workload {
  const char* name;
  Result (*run)(const Args&);
};

constexpr Workload kWorkloads[] = {
    {"paper_frames_wire", run_paper_frames_wire},
    {"tenant_churn", run_tenant_churn},
    {"heat_t8b2", run_heat_t8b2},
    {"heat_t8b4", run_heat_t8b4},
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every workload reports all of these (BENCHMARK.json lists the same).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},           {"throughput_fps", "1/s"},
    {"frame_p50_ms", "ms"},     {"frame_p90_ms", "ms"},
    {"cpu_ms_per_frame", "ms"}, {"peak_rss_mb", "MB"},
};

// A layer that is not on a workload's path reports 0 (and says so).
constexpr MetricSpec kPerLayer[] = {
    {"sim.fast_cycles_per_s", "1/s"},
    {"sim.cycles_per_frame", "cycles"},
    {"sim.construct_us", "us"},
    {"sim.compile_plan_us", "us"},
    {"arch.build_design_us", "us"},
    {"runtime.plan_tiles_us", "us"},
    {"runtime.cache_hit_ratio", "ratio"},
    {"runtime.cache_evictions_per_frame", "count"},
    {"runtime.engine_frame_ms_p50", "ms"},
    {"runtime.telemetry_publish_us", "us"},
    {"runtime.os_threads", "count"},
    {"serve.queue_ms_p50", "ms"},
    {"serve.queue_ms_p90", "ms"},
    {"serve.groups_per_frame", "count"},
    {"serve.design_switches_per_frame", "count"},
    {"serve.wire_submit_rtt_us_p50", "us"},
    {"pipeline.pass_ms_p50", "ms"},
    {"pipeline.admission_wait_us_p50", "us"},
    {"pipeline.stage_overlap_frac", "fraction"},
    {"pipeline.edge_peak_elements", "count"},
    {"temporal.gens_per_s", "1/s"},
    {"sol.golden_ms_per_frame", "ms"},
    {"sol.sim_share_of_cpu", "fraction"},
    {"trace.overhead_frac", "fraction"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper_frames_wire|tenant_churn|heat_t8b2|heat_t8b4 --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--commit ID] [--corrupt-golden]\n",
               why);
  return 2;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) return line.substr(line.find(':') + 2);
  }
  return "unknown";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string commit = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-golden") {
      args.corrupt_golden = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
        have_seconds = args.seconds > 0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        args.trace = value == "1";
        have_trace = true;
      } else if (flag == "--out-dir") {
        args.out_dir = value;
      } else if (flag == "--commit") {
        commit = value;
      } else {
        return usage(("unknown option " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds (> 0) and --trace are required");
  }

  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return usage(("unknown workload " + args.workload).c_str());

  if (!gate_self_test()) {
    std::fprintf(stderr, "perfbench: the correctness gate failed its self-test\n");
    return 3;
  }

  Result result;
  try {
    result = workload->run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 4;
  }

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::printf("host: commit=%s nproc=%u cpu=\"%s\"\n", commit.c_str(),
              std::thread::hardware_concurrency(), cpu_model().c_str());
  for (const std::string& line : result.notes) std::printf("  %s\n", line.c_str());

  std::string metrics;
  auto emit = [&](const MetricSpec& spec) {
    const auto it = result.metrics.find(spec.name);
    double value = 0;
    if (it == result.metrics.end()) {
      std::printf("  %s: n/a (layer not on this workload's path), reported as 0\n", spec.name);
    } else {
      value = std::isfinite(it->second.value) ? it->second.value : 0;
      std::printf("  %-34s %.6g %s\n", spec.name, value, spec.unit);
    }
    metrics += fmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                   metrics.empty() ? "" : ", ", spec.name, value, spec.unit);
  };
  if (args.trace) {
    std::printf("end-to-end of the untraced phase (reported with --trace 0):\n");
    for (const MetricSpec& spec : kEndToEnd) {
      const auto it = result.metrics.find(spec.name);
      if (it != result.metrics.end()) {
        std::printf("  %-34s %.6g %s\n", spec.name, it->second.value, spec.unit);
      }
    }
    std::printf("per-layer:\n");
    for (const MetricSpec& spec : kPerLayer) emit(spec);
  } else {
    std::printf("end-to-end:\n");
    for (const MetricSpec& spec : kEndToEnd) emit(spec);
  }

  const Gate& gate = result.gate;
  std::printf("frames: %lld attempted, %lld failed (%.4f %%)\n",
              static_cast<long long>(gate.attempted()), static_cast<long long>(gate.failed()),
              gate.attempted() > 0 ? 100.0 * gate.failed() / gate.attempted() : 0.0);
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              gate.correct() ? "true" : "false", static_cast<long long>(gate.attempted()),
              static_cast<long long>(gate.failed()), metrics.c_str());
  std::fflush(stdout);
  return gate.correct() ? 0 : 1;
}
