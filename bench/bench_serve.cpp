// Design-affinity batching vs round-robin dispatch in the multi-tenant
// serving front-end (src/serve).
//
// The artifact runs the same workload -- 4 tenants, each submitting an
// interleaved mix of 2 distinct tile designs (BLUR_3x3's 3x3 window vs
// JACOBI_2D's 5-point cross on the same grid) -- through a StencilServer
// under both dispatch policies:
//
//   affinity     the dispatcher groups queued requests by canonical
//                design key, pins one design set, and drains the whole
//                affinity group before switching designs
//   round_robin  weighted-fair order only, design-blind: consecutive
//                dispatches alternate designs almost every frame
//
// The engine's design cache is sized (via a probe run) to hold exactly
// ONE design's tile set, so every design switch evicts and recompiles:
// round-robin thrashes the cache on nearly every dispatch while affinity
// pays the switch once per group. Reported per policy: DesignCache hit
// rate, p50/p99 queue time, p50/p99 end-to-end frame latency, frames/s,
// design switches, and groups formed. Every frame is also checked
// bit-identical against stencil::run_golden -- batching is a scheduling
// optimisation, never an output change.
//
// Acceptance (scored on every machine -- the effect is cache behaviour,
// not core count): affinity's cache hit rate exceeds round-robin's, its
// p99 frame latency is lower, it performs no extra design switches, and
// zero output divergence under either policy.
//
// BM_OutputChecksum/{serial,dispatched} times the wire checksum of one
// 768x1024 frame: the byte-serial definition against serve::output_checksum
// (the AVX-512 path where the CPU has it). Run it alone with
// --benchmark_filter=OutputChecksum.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/metrics.hpp"
#include "runtime/engine.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "stencil/gallery.hpp"
#include "stencil/golden.hpp"

namespace {

using namespace nup;

// Small frames over many tiles: a design switch recompiles every tile
// design, so the smaller the per-frame compute, the more the switch cost
// dominates -- which is precisely what the policies differ on.
constexpr std::int64_t kRows = 64;
constexpr std::int64_t kCols = 96;
constexpr std::int64_t kTileRows = 8;
constexpr int kTenants = 4;
constexpr int kFramesPerTenant = 24;

std::vector<stencil::StencilProgram> designs() {
  // Same grid, different windows: two distinct canonical design keys.
  return {stencil::blur_2d(kRows, kCols), stencil::jacobi_2d(kRows, kCols)};
}

/// Tile designs one kernel occupies in the cache (probe run: one frame,
/// then read the cache entry count).
std::size_t entries_per_design(const stencil::StencilProgram& p) {
  obs::Registry registry;
  runtime::EngineOptions options;
  options.threads = 1;
  options.tile_shape = {kTileRows, 0};
  options.metrics = &registry;
  runtime::FrameEngine engine(options);
  engine.submit(p, 1).wait();
  return static_cast<std::size_t>(engine.stats().cache.entries);
}

struct PolicyNumbers {
  double hit_rate = 0;
  double queue_p50_us = 0;
  double queue_p99_us = 0;
  double frame_p50_us = 0;
  double frame_p99_us = 0;
  double frames_per_sec = 0;
  std::int64_t design_switches = 0;
  std::int64_t groups = 0;
  bool bit_identical = true;
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[idx];
}

PolicyNumbers run_policy(serve::Policy policy, std::size_t cache_capacity) {
  obs::Registry registry;
  serve::ServeOptions options;
  options.engine.threads = 2;
  options.engine.tile_shape = {kTileRows, 0};
  options.engine.cache_capacity = cache_capacity;
  // A wide window lets the affinity dispatcher form large same-design
  // groups (the switch cost amortizes over the group); round-robin gets
  // the same window and still alternates designs inside it.
  options.max_frames_in_flight = 8;
  options.global_queue_limit = 0;  // measure scheduling, not shedding
  options.policy = policy;
  options.metrics = &registry;
  serve::StencilServer server(options);
  const std::vector<stencil::StencilProgram> progs = designs();
  for (const stencil::StencilProgram& p : progs) server.add_kernel(p);

  std::vector<serve::ServeClient> clients;
  clients.reserve(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    serve::TenantQuota quota;
    quota.max_in_flight = 8;
    quota.max_queued = 2 * kFramesPerTenant;
    clients.emplace_back(server, "t" + std::to_string(t), quota);
  }

  // Interleaved mix: every tenant alternates designs frame by frame, so a
  // design-blind dispatcher switches designs on almost every dispatch.
  struct Pending {
    serve::RequestHandle handle;
    const stencil::StencilProgram* program;
    std::uint64_t seed;
  };
  std::vector<Pending> pending;
  const auto t0 = std::chrono::steady_clock::now();
  for (int f = 0; f < kFramesPerTenant; ++f) {
    for (int t = 0; t < kTenants; ++t) {
      const stencil::StencilProgram& p = progs[(f + t) % progs.size()];
      const std::uint64_t seed =
          static_cast<std::uint64_t>(t * kFramesPerTenant + f + 1);
      serve::SubmitResult r = clients[t].submit(p.name(), seed);
      if (!r.admitted()) {
        std::fprintf(stderr, "bench_serve: unexpected shed (%s)\n",
                     serve::to_string(r.reason));
        continue;
      }
      pending.push_back({r.handle, &p, seed});
    }
  }

  PolicyNumbers out;
  std::vector<double> queue_us;
  for (Pending& req : pending) {
    const runtime::FrameResult& result = req.handle.wait();
    if (!result.ok() ||
        result.outputs != stencil::run_golden(*req.program, req.seed).outputs) {
      out.bit_identical = false;
    }
  }
  const double span_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

  // Queue time is exact per request (queue_us() on the handle); frame
  // latency (submit-to-resolve) comes from the serve.frame_us histogram,
  // whose interpolated percentiles cover the same population.
  for (Pending& req : pending) {
    queue_us.push_back(static_cast<double>(req.handle.queue_us()));
  }
  const serve::ServeStats stats = server.stats();
  const runtime::EngineStats engine_stats = server.engine().stats();
  const obs::Histogram::Snapshot frame_hist =
      registry.histogram("serve.frame_us").snapshot();
  server.shutdown();

  out.hit_rate =
      static_cast<double>(engine_stats.cache.hits) /
      static_cast<double>(engine_stats.cache.hits + engine_stats.cache.misses);
  out.queue_p50_us = percentile(queue_us, 0.50);
  out.queue_p99_us = percentile(queue_us, 0.99);
  out.frame_p50_us = frame_hist.percentile(0.50);
  out.frame_p99_us = frame_hist.percentile(0.99);
  out.frames_per_sec = static_cast<double>(stats.completed) / span_s;
  out.design_switches = stats.design_switches;
  out.groups = stats.groups;
  if (stats.completed !=
      static_cast<std::int64_t>(kTenants) * kFramesPerTenant) {
    out.bit_identical = false;
  }
  return out;
}

void print_artifact() {
  const std::vector<stencil::StencilProgram> progs = designs();
  std::size_t per_design = 0;
  for (const stencil::StencilProgram& p : progs) {
    per_design = std::max(per_design, entries_per_design(p));
  }
  // Room for exactly one design's tile set: every switch evicts.
  const std::size_t cache_capacity = per_design;

  std::printf("%d tenants x %d frames each, 2 designs (%s, %s) on "
              "%lldx%lld, tile rows=%lld, cache capacity=%zu designs' "
              "tiles (%zu per design)\n\n",
              kTenants, kFramesPerTenant, progs[0].name().c_str(),
              progs[1].name().c_str(), static_cast<long long>(kRows),
              static_cast<long long>(kCols),
              static_cast<long long>(kTileRows), cache_capacity, per_design);

  const PolicyNumbers affinity =
      run_policy(serve::Policy::kAffinity, cache_capacity);
  const PolicyNumbers round_robin =
      run_policy(serve::Policy::kRoundRobin, cache_capacity);

  std::printf("%-12s %9s %12s %12s %12s %12s %10s %9s %8s\n", "policy",
              "hit-rate", "queue-p50", "queue-p99", "frame-p50", "frame-p99",
              "frames/s", "switches", "groups");
  const auto row = [](const char* name, const PolicyNumbers& n) {
    std::printf("%-12s %8.1f%% %10.0fus %10.0fus %10.0fus %10.0fus %10.2f "
                "%9lld %8lld\n",
                name, 100.0 * n.hit_rate, n.queue_p50_us, n.queue_p99_us,
                n.frame_p50_us, n.frame_p99_us, n.frames_per_sec,
                static_cast<long long>(n.design_switches),
                static_cast<long long>(n.groups));
  };
  row("affinity", affinity);
  row("round_robin", round_robin);

  const bool claims_ok = affinity.bit_identical && round_robin.bit_identical &&
                         affinity.hit_rate > round_robin.hit_rate &&
                         affinity.design_switches <= round_robin.design_switches &&
                         affinity.frame_p99_us < round_robin.frame_p99_us;
  std::printf("\nbit-identical to run_golden: affinity %s, round_robin %s\n",
              affinity.bit_identical ? "yes" : "NO",
              round_robin.bit_identical ? "yes" : "NO");
  std::printf("acceptance: affinity beats round-robin on cache hit rate and "
              "p99 frame latency (no extra design switches), zero output "
              "divergence: %s\n",
              claims_ok ? "ok" : "VIOLATED");

  std::ostringstream json;
  const auto emit = [&json](const char* name, const PolicyNumbers& n) {
    json << "\"" << name << "\": {\"cache_hit_rate\": " << n.hit_rate
         << ", \"queue_p50_us\": " << n.queue_p50_us
         << ", \"queue_p99_us\": " << n.queue_p99_us
         << ", \"frame_p50_us\": " << n.frame_p50_us
         << ", \"frame_p99_us\": " << n.frame_p99_us
         << ", \"frames_per_sec\": " << n.frames_per_sec
         << ", \"design_switches\": " << n.design_switches
         << ", \"groups\": " << n.groups << ", \"bit_identical\": "
         << (n.bit_identical ? "true" : "false") << "}";
  };
  json << "{\"benchmark\": \"serve\", \"tenants\": " << kTenants
       << ", \"frames_per_tenant\": " << kFramesPerTenant
       << ", \"designs\": 2, \"rows\": " << kRows << ", \"cols\": " << kCols
       << ", \"tile_rows\": " << kTileRows
       << ", \"cache_capacity\": " << cache_capacity << ", ";
  emit("affinity", affinity);
  json << ", ";
  emit("round_robin", round_robin);
  json << ", \"claims_ok\": " << (claims_ok ? "true" : "false") << "}";
  nup::bench::write_json("BENCH_serve.json", json.str());
}

// ---- timed benchmark: one mixed-design burst per iteration -------------

void BM_ServeMixedBurst(benchmark::State& state) {
  const bool affinity = state.range(0) != 0;
  obs::Registry registry;
  serve::ServeOptions options;
  options.engine.threads = 2;
  options.engine.tile_shape = {kTileRows, 0};
  options.max_frames_in_flight = 2;
  options.policy =
      affinity ? serve::Policy::kAffinity : serve::Policy::kRoundRobin;
  options.metrics = &registry;
  serve::StencilServer server(options);
  const std::vector<stencil::StencilProgram> progs = designs();
  for (const stencil::StencilProgram& p : progs) server.add_kernel(p);
  serve::ServeClient a(server, "a"), b(server, "b");
  std::uint64_t seed = 1;
  for (auto _ : state) {
    for (int f = 0; f < 4; ++f) {
      a.submit(progs[f % 2].name(), seed++);
      b.submit(progs[(f + 1) % 2].name(), seed++);
    }
    benchmark::DoNotOptimize(a.wait_all() + b.wait_all());
  }
  server.shutdown();
}
BENCHMARK(BM_ServeMixedBurst)
    ->Arg(1)
    ->Arg(0)
    ->ArgName("affinity")
    ->Unit(benchmark::kMillisecond);

// ---- timed benchmark: the wire checksum of one paper-sized frame -------

void BM_OutputChecksum(benchmark::State& state, bool dispatched) {
  std::vector<double> frame(768 * 1024);
  std::mt19937_64 rng(1);
  for (double& v : frame) {
    const std::uint64_t bits = rng();
    std::memcpy(&v, &bits, sizeof(v));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dispatched ? serve::output_checksum(frame)
                   : serve::detail::output_checksum_serial(frame.data(),
                                                           frame.size()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(frame.size() *
                                                    sizeof(double)));
}
BENCHMARK_CAPTURE(BM_OutputChecksum, serial, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_OutputChecksum, dispatched, true)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  nup::bench::banner(
      "Multi-tenant serving: design-affinity batching vs round-robin");
  print_artifact();
  return nup::bench::run(argc, argv);
}
