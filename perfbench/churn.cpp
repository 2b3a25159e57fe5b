// tenant_churn: four in-process ServeClient tenants submit bursts of small
// 64x96 frames (tile rows 8) rotating over six designs -- BLUR, JACOBI and
// the four paper 2-D kernels -- through a design cache of 16 tile designs,
// fewer than the ~48 the rotation touches. Outputs are compared with
// run_golden.
//
// Why: the sim loop is only about half of each frame's CPU; the rest is
// serve dispatch and affinity grouping, the design-cache miss path
// (build_design + compile_fast_plan + eviction), FastSim construction per
// tile and telemetry publish. Runtime overhead dominates here and a
// simulator speed-up barely shows -- the counterpart of paper_frames_wire.
#include <memory>
#include <thread>

#include "layers.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "stencil/gallery.hpp"
#include "stencil/golden.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace nup;

namespace {

constexpr std::int64_t kRows = 64;
constexpr std::int64_t kCols = 96;
constexpr std::int64_t kTileRows = 8;
constexpr std::size_t kCacheCapacity = 16;
constexpr std::size_t kEngineThreads = 4;
constexpr int kTenants = 4;
constexpr std::size_t kSeedsPerDesign = 16;
/// Frames a tenant submits before waiting for them: one per design.
constexpr std::size_t kBurst = 6;

serve::ServeOptions serve_options(obs::Registry* registry) {
  serve::ServeOptions o;
  o.name = "churn";
  o.engine.threads = kEngineThreads;
  o.engine.tile_shape = {kTileRows, 0};
  o.engine.cache_capacity = kCacheCapacity;
  o.metrics = registry;
  return o;
}

struct Service {
  obs::Registry registry;
  serve::StencilServer server;
  std::vector<serve::ServeClient> clients;

  explicit Service(const std::vector<stencil::StencilProgram>& programs)
      : server(serve_options(&registry)) {
    for (const stencil::StencilProgram& p : programs) server.add_kernel(p);
    for (int t = 0; t < kTenants; ++t) clients.emplace_back(server, "t" + std::to_string(t));
  }
  ~Service() { server.shutdown(); }
};

struct Inputs {
  std::vector<stencil::StencilProgram> programs;
  std::vector<std::vector<std::uint64_t>> seeds;          ///< [design][k]
  std::vector<std::vector<std::vector<double>>> golden;   ///< [design][k]
  std::vector<std::vector<std::size_t>> order;            ///< per tenant
};

struct TenantStats {
  Gate gate;
  std::int64_t ok = 0;
  std::vector<double> latency_ms;
  std::vector<std::int64_t> done_ns;
  std::vector<double> submit_us;
  std::vector<double> queue_ms;
};

void drive_tenant(serve::ServeClient& client, const Inputs& in, std::size_t t,
                  SeedStream rng, Clock::time_point deadline, Spans& spans,
                  TenantStats* out) {
  struct Pending {
    serve::RequestHandle handle;
    std::size_t design, slot;
    std::int64_t t_submit_ns;
    std::uint64_t span;
  };
  std::size_t turn = 0;
  std::vector<Pending> burst;
  while (Clock::now() < deadline) {
    burst.clear();
    for (std::size_t b = 0; b < kBurst; ++b) {
      const std::size_t design = in.order[t][turn++ % in.order[t].size()];
      const std::size_t slot = rng.below(kSeedsPerDesign);
      const std::uint64_t span = spans.new_id();
      const std::int64_t t0 = Spans::now_ns();
      serve::SubmitResult r;
      {
        Spans::Scope submit(spans, "serve.submit", span);
        r = client.submit(in.programs[design].name(), in.seeds[design][slot]);
      }
      out->submit_us.push_back((Spans::now_ns() - t0) / 1e3);
      if (!r.admitted()) {
        out->gate.record(false, std::string("shed: ") + serve::to_string(r.reason));
        continue;
      }
      burst.push_back({r.handle, design, slot, t0, span});
    }
    for (Pending& p : burst) {
      const runtime::FrameResult* fr;
      {
        Spans::Scope wait(spans, "serve.wait", p.span);
        fr = &p.handle.wait();
      }
      bool ok;
      {
        Spans::Scope verify(spans, "stencil.verify", p.span);
        ok = fr->ok() && fr->outputs == in.golden[p.design][p.slot];
      }
      const std::int64_t t_done = Spans::now_ns();
      spans.record("request", p.span, 0, p.t_submit_ns, t_done);
      if (out->gate.record(ok, in.programs[p.design].name() + " frame mismatch")) {
        ++out->ok;
        out->latency_ms.push_back((t_done - p.t_submit_ns) / 1e6);
        out->done_ns.push_back(t_done);
        out->queue_ms.push_back(p.handle.queue_us() / 1e3);
      }
    }
    client.wait_all();  // forgets the resolved handles
  }
}

struct Samples {
  std::vector<double> submit_us, queue_ms;
};

Phase measure(Service& svc, const Inputs& in, double seconds, SeedStream& rng,
              Spans& spans, Gate* gate, Samples* samples) {
  std::vector<TenantStats> stats(svc.clients.size());
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  const std::int64_t t0_ns = Spans::now_ns();
  const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < svc.clients.size(); ++t) {
    threads.emplace_back(drive_tenant, std::ref(svc.clients[t]), std::cref(in), t,
                         SeedStream(rng.next()), deadline, std::ref(spans), &stats[t]);
  }
  Phase phase;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds / 2));
  phase.threads = os_threads();
  for (std::thread& th : threads) th.join();
  phase.seconds = seconds_since(t0);
  phase.cpu_s = process_cpu_s() - cpu0;
  for (TenantStats& s : stats) {
    gate->merge(s.gate);
    phase.frames_ok += s.ok;
    phase.latency_ms.insert(phase.latency_ms.end(), s.latency_ms.begin(), s.latency_ms.end());
    for (const std::int64_t t : s.done_ns) phase.done_s.push_back((t - t0_ns) / 1e9);
    samples->submit_us.insert(samples->submit_us.end(), s.submit_us.begin(), s.submit_us.end());
    samples->queue_ms.insert(samples->queue_ms.end(), s.queue_ms.begin(), s.queue_ms.end());
  }
  return phase;
}

}  // namespace

Result run_tenant_churn(const Args& args) {
  Result res;
  SeedStream rng(args.seed, 0x43485552);
  Inputs in;
  in.programs = {stencil::blur_2d(kRows, kCols),    stencil::jacobi_2d(kRows, kCols),
                 stencil::denoise_2d(kRows, kCols), stencil::rician_2d(kRows, kCols),
                 stencil::sobel_2d(kRows, kCols),   stencil::bicubic_2d(kRows, kCols)};

  std::vector<double> golden_ms;
  for (const stencil::StencilProgram& p : in.programs) {
    in.seeds.emplace_back();
    in.golden.emplace_back();
    for (std::size_t k = 0; k < kSeedsPerDesign; ++k) {
      const std::uint64_t seed = rng.next();
      const auto t0 = Clock::now();
      in.golden.back().push_back(stencil::run_golden(p, seed).outputs);
      golden_ms.push_back(1e3 * seconds_since(t0));
      in.seeds.back().push_back(seed);
    }
  }
  if (args.corrupt_golden) {
    for (std::vector<double>& g : in.golden[1]) g[0] += 1.0;
  }
  for (int t = 0; t < kTenants; ++t) in.order.push_back(seeded_order(in.programs.size(), rng));

  // Set-up: server construction (tiling all six kernels) until the first
  // frame -- always BLUR, so every seed compiles the same designs --
  // resolves.
  auto set_up = [&] {
    const std::size_t slot = rng.below(kSeedsPerDesign);
    auto svc = std::make_unique<Service>(in.programs);
    serve::SubmitResult first = svc->clients[0].submit(in.programs[0].name(), in.seeds[0][slot]);
    const runtime::FrameResult* fr = first.admitted() ? &first.handle.wait() : nullptr;
    res.gate.record(fr != nullptr && fr->ok() && fr->outputs == in.golden[0][slot],
                    "set-up frame");
    svc->clients[0].wait_all();
    return svc;
  };
  std::vector<double> setup_samples;
  std::unique_ptr<Service> svc = set_up_before(set_up, &setup_samples);

  // Warm-up: the cache reaches its steady churn.
  Spans off(false);
  Samples warm;
  measure(*svc, in, kWarmupSeconds, rng, off, &res.gate, &warm);

  const auto serve0 = svc->server.stats();
  const auto cache0 = svc->server.engine().stats().cache;
  Spans spans(args.trace);
  Samples samples, untraced_samples;
  Phase untraced, traced;
  measure_phases(args, spans, [&](Spans& s, double seconds) {
    return measure(*svc, in, seconds, rng, s, &res.gate,
                   s.enabled() ? &samples : &untraced_samples);
  }, &untraced, &traced);
  if (!args.trace) {
    svc.reset();
    set_up_after(set_up, &setup_samples);
  }
  report_phase(untraced, setup_samples, &res);
  res.note("golden (run_golden) " + describe_sample(golden_ms, "ms"));
  if (!args.trace) return res;

  const auto serve1 = svc->server.stats();
  const auto cache1 = svc->server.engine().stats().cache;
  svc.reset();
  report_overhead(untraced, traced, &res);
  report_serve_layers(serve0, serve1, cache0, cache1, untraced.frames_ok + traced.frames_ok,
                      &res);
  res.set("serve.queue_ms_p50", percentile(samples.queue_ms, 50), "ms");
  res.set("serve.queue_ms_p90", percentile(samples.queue_ms, 90), "ms");
  res.note("serve.submit (ServeClient::submit) " + describe_sample(samples.submit_us, "us"));
  res.note("serve.queue (RequestHandle::queue_us) " + describe_sample(samples.queue_ms, "ms"));
  res.set("runtime.os_threads", static_cast<double>(traced.threads), "count");

  {
    Spans::Scope probes(spans, "probe", 0);
    runtime::EngineOptions engine = serve_options(nullptr).engine;
    const LayerProbe probe = probe_layers(frame_mix(in.programs, std::vector<double>(6, 1.0 / 6), engine), engine.build,
                                          in.seeds[0][0], spans, probes.id());
    report_probe(probe, untraced, golden_ms, &res);
    res.set("runtime.engine_frame_ms_p50",
            engine_frame_ms_p50(in.programs, engine, in.seeds[0], 60, spans, probes.id()), "ms");
  }
  finish_trace(args, spans, &res);
  return res;
}

}  // namespace perfbench
