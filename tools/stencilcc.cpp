// stencilcc -- the design-automation flow (Fig 11) as a command-line tool.
//
//   stencilcc [options] <kernel.c>
//
// Reads a mini-C stencil kernel, generates the non-uniform memory system,
// verifies it by cycle-accurate simulation against a golden software
// execution, and writes the Verilog, testbench, transformed HLS kernel,
// integration header and a JSON report into the output directory.
//
// Options:
//   -o <dir>       output directory (default: .)
//   --name <n>     accelerator name (default: derived from the file name)
//   --exact        exact union-domain sizing and streaming
//   --width <W>    datapath width (Fig 14's bandwidth knob): W elements
//                  stream per cycle and every reuse FIFO is organized as
//                  ceil(depth / W) W-element words. The fast simulator
//                  retires W-cell spans per machine cycle (AVX2 where the
//                  host supports it), bit-identical to W=1. Default 1
//   --no-verify    skip the simulation run
//   --vcd <N>      dump a VCD of the first N cycles
//   --sim-backend <reference|fast>
//                  simulator backend for the verification run (default:
//                  reference; fast is the compiled lane, bit-identical)
//   --cpp-model    also emit a standalone C co-simulation model
//   --rtl-check    execute the generated Verilog in the built-in RTL
//                  interpreter (small programs only)
//   --serve <N>    serving mode: after compiling, serve N frames of the
//                  kernel through the multi-tenant serving subsystem
//                  (admission quotas, weighted-fair scheduling, design-
//                  affinity batching over the tiled runtime; see
//                  docs/SERVING.md) and print throughput, shed and cache
//                  statistics. --tenants/--quota/--shed-after/
//                  --serve-policy/--serve-mix shape the workload and the
//                  admission rules; --serve-port additionally accepts
//                  remote tenants over the loopback line protocol
//   --threads <T>  worker threads for --serve (default: hardware)
//   --tile <a,b,..> tile extents per dimension for --serve (0 = full
//                  extent; default: automatic shape)
//   --numa <m>     locality mode of the staged/serving runtimes: auto
//                  discovers the memory-node topology, places tiles on
//                  nodes and pins per-node workers; interleave
//                  round-robins tiles over nodes; off (default) keeps
//                  the single-queue scheduler (docs/RUNTIME.md)
//   --pipeline <spec>
//                  stage-pipelined mode: <spec> holds several mini-C
//                  kernels separated by lines starting with `---`; they
//                  are chained into a stage DAG and executed with
//                  tile-granular producer-consumer overlap (stage k+1
//                  starts on a tile as soon as the producer tiles
//                  covering its halo resolve). --serve/--threads/--tile
//                  set the frame count, per-stage workers and tile shape;
//                  --barrier switches to the frame-barrier baseline
//   --barrier      with --pipeline: wait for whole producer frames
//                  instead of halo-covering tiles (scheduling baseline)
//   --frames <N>   with --pipeline: number of frames to pump (alias of
//                  --serve that reads naturally next to --inflight)
//   --inflight <K> with --pipeline: cross-frame admission window --
//                  at most K frames in flight at once (1 = frame-serial,
//                  0 = unbounded; default 4). Successive frames interleave
//                  tiles on the pipeline's one engine, recycling buffer
//                  slabs, so steady state allocates nothing per tile
//   --timesteps <T>
//                  temporal mode: treat the kernel as one step of an
//                  iterative solver and sweep T generations (Zohouri-style
//                  temporal blocking). The step is unrolled into chains of
//                  B replica stages -- each replica's reuse FIFOs sized
//                  non-uniformly by the arch builder -- and ceil(T/B)
//                  passes stream through the pipelined runtime
//   --block <B>    temporal mode: blocking factor B in [1, T] -- replicas
//                  per pass (default 1 = frame-serial)
//   --boundary <shrink|clamp|wrap|constant>
//                  temporal mode: how replicas read past the previous
//                  generation's domain edge (default shrink)
//   --bc-value <V> temporal mode: Dirichlet value for --boundary constant
//   --tolerance <E>
//                  temporal mode: convergence monitor -- stop a frame's
//                  remaining passes once the pass-boundary max-abs
//                  residual is <= E (0 disables, the default)
//   --metrics <f>  write the metrics registry (cache/engine/fifo/sim
//                  telemetry, see docs/OBSERVABILITY.md) as JSON to <f>
//   --metrics-port <p>
//                  serve the live registry over HTTP on 127.0.0.1:<p>
//                  (0 = ephemeral; the bound port is printed):
//                  GET /metrics is OpenMetrics, /metrics.json is JSON
//   --hold <ms>    linger <ms> milliseconds after the run completes, so
//                  a scraper can hit --metrics-port before exit
//   --postmortem <dir>
//                  on frame failure / cancellation / deadlock / depth
//                  violation, write a flight-recorder bundle (last-N
//                  journal events, metrics snapshot, offending design)
//                  into <dir>
//   --cancel-frame <k>
//                  with --serve: cancel the k-th submitted frame mid
//                  flight (exercises the cancellation post-mortem path;
//                  that frame's cancellation is expected, not an error)
//   --trace <f>    render the flight recorder (tile execution, design
//                  compiles, frame lanes; the newest 4096 events per
//                  thread) as Chrome trace-event JSON into <f>; open it in
//                  chrome://tracing or https://ui.perfetto.dev
//   --stats        print the metrics registry as an aligned table
//   --quiet        suppress the summary

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/compiler.hpp"
#include "codegen/cpp_model.hpp"
#include "core/json_export.hpp"
#include "frontend/sema.hpp"
#include "obs/expo.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "pipeline/executor.hpp"
#include "pipeline/stage_graph.hpp"
#include "runtime/engine.hpp"
#include "runtime/telemetry.hpp"
#include "runtime/topology.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "sim/vcd.hpp"
#include "stencil/boundary.hpp"
#include "stencil/gallery.hpp"
#include "temporal/runner.hpp"
#include "util/error.hpp"

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: stencilcc [options] <kernel.c>\n"
      "       stencilcc --pipeline <spec> [options]\n"
      "       stencilcc --timesteps T [--block B] [options] <kernel.c>\n"
      "\n"
      "Compiles a mini-C stencil kernel into the non-uniformly partitioned\n"
      "reuse-buffer accelerator, verifies it by simulation against the\n"
      "golden software run, and writes Verilog, testbench, HLS kernel,\n"
      "integration header and a JSON report.\n"
      "\n"
      "compile options:\n"
      "  -o <dir>        output directory for the artifacts (default: .)\n"
      "  --name <n>      accelerator name (default: from the file name)\n"
      "  --exact         exact union-domain sizing and streaming\n"
      "  --width <W>     datapath width: W elements per cycle, FIFOs in\n"
      "                  W-element words (default 1)\n"
      "  --no-verify     skip the verification simulation\n"
      "  --vcd <N>       dump a VCD of the first N verification cycles\n"
      "  --sim-backend <reference|fast>\n"
      "                  simulator backend for verification (default:\n"
      "                  reference; fast is bit-identical)\n"
      "  --cpp-model     also emit a standalone C co-simulation model\n"
      "  --rtl-check     execute the generated Verilog in the built-in\n"
      "                  RTL interpreter (small programs only)\n"
      "\n"
      "serving options (single kernel, pipeline and temporal modes):\n"
      "  --serve <N>     serve N frames through the multi-tenant serving\n"
      "                  subsystem (see docs/SERVING.md) and print\n"
      "                  throughput / shed / cache statistics\n"
      "  --frames <N>    alias of --serve for the staged modes\n"
      "  --threads <T>   worker threads (per stage in the staged modes;\n"
      "                  default: hardware concurrency)\n"
      "  --tile <a,b,..> tile extents per dimension (0 = full extent;\n"
      "                  default: automatic shape)\n"
      "  --numa <auto|off|interleave>\n"
      "                  locality-aware execution: discover the memory-\n"
      "                  node topology (NUP_FAKE_TOPOLOGY=<n> simulates n\n"
      "                  nodes anywhere), place tiles on nodes and pin\n"
      "                  per-node workers with idle stealing (default:\n"
      "                  off; see docs/RUNTIME.md)\n"
      "\n"
      "multi-tenant serving (with --serve; see docs/SERVING.md):\n"
      "  --tenants <T>   spread the frames over T synthetic tenants\n"
      "                  t0..t<T-1>, scheduled weighted-fair (default 1)\n"
      "  --quota <Q>     per-tenant quota: at most Q of a tenant's frames\n"
      "                  execute concurrently (default 4)\n"
      "  --shed-after <S>\n"
      "                  per-tenant queue-depth cap: submits past S\n"
      "                  queued frames are shed with an explicit verdict\n"
      "                  instead of queuing without bound (default 64)\n"
      "  --serve-policy <affinity|rr>\n"
      "                  dispatch order: affinity drains same-design\n"
      "                  groups (one design compile per group); rr is the\n"
      "                  design-blind weighted-fair baseline (default:\n"
      "                  affinity)\n"
      "  --serve-mix <k1,k2,..>\n"
      "                  also register these gallery kernels and rotate\n"
      "                  the submitted frames across all kernels (e.g.\n"
      "                  jacobi_2d,blur_2d) -- a mixed-design workload\n"
      "  --serve-port <p>\n"
      "                  also accept remote tenants on 127.0.0.1:<p> via\n"
      "                  the line protocol (0 = ephemeral; the bound\n"
      "                  port is printed)\n"
      "\n"
      "pipeline mode:\n"
      "  --pipeline <spec>\n"
      "                  chain the mini-C kernels in <spec> (sections\n"
      "                  separated by `---` lines) into a stage DAG with\n"
      "                  tile-granular producer-consumer overlap\n"
      "  --barrier       wait for whole producer frames instead of\n"
      "                  halo-covering tiles (scheduling baseline)\n"
      "  --inflight <K>  cross-frame admission window: at most K frames\n"
      "                  (or temporal passes) in flight (1 = serial,\n"
      "                  0 = unbounded; default 4)\n"
      "\n"
      "temporal mode (iterative solvers; see docs/TEMPORAL.md):\n"
      "  --timesteps <T> sweep T generations of the kernel: the step is\n"
      "                  unrolled into chains of B replica stages, each\n"
      "                  replica's reuse FIFOs sized non-uniformly, and\n"
      "                  ceil(T/B) passes stream through the pipeline\n"
      "  --block <B>     blocking factor B in [1, T]: replicas per pass\n"
      "                  (default 1 = frame-serial)\n"
      "  --boundary <shrink|clamp|wrap|constant>\n"
      "                  reads past the previous generation's domain edge:\n"
      "                  shrink grows earlier replicas' domains so every\n"
      "                  read is contained; clamp/wrap/constant keep all\n"
      "                  replicas on the target box (default: shrink)\n"
      "  --bc-value <V>  Dirichlet value for --boundary constant\n"
      "  --tolerance <E> stop a frame early once the pass-boundary\n"
      "                  max-abs residual is <= E (0 = run all passes)\n"
      "\n"
      "observability:\n"
      "  --metrics <f>   write the metrics registry as JSON to <f>\n"
      "  --metrics-port <p>\n"
      "                  serve the live registry on 127.0.0.1:<p>\n"
      "                  (0 = ephemeral; bound port printed): /metrics is\n"
      "                  OpenMetrics, /metrics.json is JSON\n"
      "  --hold <ms>     linger <ms> ms after the run so a scraper can\n"
      "                  hit --metrics-port before exit\n"
      "  --postmortem <dir>\n"
      "                  write flight-recorder bundles for failed /\n"
      "                  cancelled / deadlocked frames into <dir>\n"
      "  --cancel-frame <k>\n"
      "                  with --serve: cancel the k-th frame mid-flight\n"
      "                  (exercises the cancellation post-mortem)\n"
      "  --trace <f>     write the flight recorder as Chrome trace-event\n"
      "                  JSON to <f>\n"
      "  --stats         print the metrics registry as an aligned table\n"
      "  --quiet         suppress the summaries\n"
      "  -h, --help      this text\n"
      "\n"
      "example -- 8 Jacobi generations, 4 replicas per pass (2 passes),\n"
      "clamped boundary, metrics to heat.json:\n"
      "  stencilcc --timesteps 8 --block 4 --boundary clamp \\\n"
      "            --metrics heat.json heat.c\n"
      "heat.c being one update step, e.g.\n"
      "  out[i][j] = 0.1*(in[i-1][j]+in[i+1][j]+in[i][j-1]+in[i][j+1])\n"
      "            + 0.6*in[i][j];\n");
}

bool parse_tile_shape(const std::string& spec, nup::poly::IntVec* shape) {
  shape->clear();
  std::istringstream in(spec);
  std::string field;
  while (std::getline(in, field, ',')) {
    char* end = nullptr;
    const long value = std::strtol(field.c_str(), &end, 10);
    if (end == field.c_str() || *end != '\0') return false;
    shape->push_back(value);
  }
  return !shape->empty();
}

/// Serving-mode knobs of the CLI (see docs/SERVING.md).
struct ServeCliOptions {
  long tenants = 1;      ///< --tenants: synthetic tenants t0..t<N-1>
  long quota = 4;        ///< --quota: per-tenant max in-flight frames
  long shed_after = 64;  ///< --shed-after: per-tenant queue-depth cap
  nup::serve::Policy policy = nup::serve::Policy::kAffinity;
  std::vector<std::string> mix;  ///< --serve-mix: extra gallery kernels
  long port = -1;                ///< --serve-port: -1 = no endpoint
  long inflight = -1;            ///< --inflight (shared with pipeline)
};

/// Gallery kernels addressable from --serve-mix (default sizes).
std::optional<nup::stencil::StencilProgram> gallery_kernel(
    const std::string& name) {
  using namespace nup::stencil;
  if (name == "denoise_2d") return denoise_2d();
  if (name == "rician_2d") return rician_2d();
  if (name == "sobel_2d") return sobel_2d();
  if (name == "bicubic_2d") return bicubic_2d();
  if (name == "jacobi_2d") return jacobi_2d();
  if (name == "blur_2d") return blur_2d();
  if (name == "heat_3d") return heat_3d();
  return std::nullopt;
}

int serve_frames(const nup::core::AcceleratorPackage& pkg,
                 const nup::core::CompileOptions& compile_options,
                 long frames, std::size_t threads,
                 nup::poly::IntVec tile_shape, nup::runtime::NumaMode numa,
                 long cancel_frame, const ServeCliOptions& cli, bool quiet) {
  using namespace nup;
  serve::ServeOptions options;
  options.engine.threads = threads;
  options.engine.tile_shape = std::move(tile_shape);
  options.engine.build = compile_options.build;
  options.engine.numa = numa;
  if (cli.inflight >= 0) {
    options.max_frames_in_flight = static_cast<std::size_t>(cli.inflight);
  }
  options.default_quota.max_in_flight = static_cast<std::size_t>(cli.quota);
  options.default_quota.max_queued =
      static_cast<std::size_t>(cli.shed_after);
  // The CLI bounds backlog per tenant (--shed-after); no global cap, so
  // `--serve N` with one tenant and a large N sheds only past that knob.
  options.global_queue_limit = 0;
  options.policy = cli.policy;
  serve::StencilServer server(options);
  server.add_kernel(pkg.program);
  std::vector<std::string> kernels{pkg.program.name()};
  for (const std::string& mix_name : cli.mix) {
    const std::optional<stencil::StencilProgram> program =
        gallery_kernel(mix_name);
    if (!program) {
      std::fprintf(stderr, "stencilcc: --serve-mix: unknown kernel '%s'\n",
                   mix_name.c_str());
      return 2;
    }
    server.add_kernel(*program);
    kernels.push_back(program->name());
  }
  const auto plan = server.engine().plan_for(pkg.program);

  std::unique_ptr<serve::ServeEndpoint> endpoint;
  if (cli.port >= 0) {
    serve::ServeEndpointOptions ep;
    ep.port = static_cast<int>(cli.port);
    endpoint = std::make_unique<serve::ServeEndpoint>(server, ep);
    if (!endpoint->ok()) {
      std::fprintf(stderr, "stencilcc: --serve-port: %s\n",
                   endpoint->error().c_str());
      return 1;
    }
    std::printf("serve: listening on 127.0.0.1:%d\n", endpoint->port());
    std::fflush(stdout);
  }

  std::vector<serve::ServeClient> clients;
  clients.reserve(static_cast<std::size_t>(cli.tenants));
  for (long t = 0; t < cli.tenants; ++t) {
    clients.emplace_back(server, "t" + std::to_string(t),
                         options.default_quota);
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<serve::RequestHandle> handles(
      static_cast<std::size_t>(frames));
  long shed = 0;
  for (long f = 0; f < frames; ++f) {
    serve::ServeClient& client =
        clients[static_cast<std::size_t>(f % cli.tenants)];
    const std::string& kernel =
        kernels[static_cast<std::size_t>(f) % kernels.size()];
    const serve::SubmitResult r =
        client.submit(kernel, static_cast<std::uint64_t>(f));
    if (!r.admitted()) {
      ++shed;
      if (!quiet) {
        std::printf("frame %ld shed (%s)\n", f,
                    serve::to_string(r.reason));
      }
      continue;
    }
    handles[static_cast<std::size_t>(f)] = r.handle;
    if (f == cancel_frame) {
      // Cancel a *running* frame, not a queued one: wait until the
      // request reached the engine so the cancellation exercises the
      // mid-flight path (and its post-mortem), as it always has.
      serve::RequestHandle h = r.handle;
      h.wait_admitted();
      h.cancel();
    }
  }
  int rc = 0;
  for (long f = 0; f < frames; ++f) {
    serve::RequestHandle& h = handles[static_cast<std::size_t>(f)];
    if (!h.valid()) continue;
    const runtime::FrameResult& result = h.wait();
    if (f == cancel_frame && result.cancelled) {
      if (!quiet) {
        std::printf("frame %ld cancelled as requested\n", cancel_frame);
      }
      continue;
    }
    if (!result.ok()) {
      std::fprintf(stderr, "stencilcc: frame %llu failed: %s\n",
                   static_cast<unsigned long long>(result.seed),
                   result.error.c_str());
      rc = 1;
    }
  }
  const auto seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const serve::ServeStats sstats = server.stats();
  const runtime::EngineStats estats = server.engine().stats();
  server.shutdown();  // drop the design pins before any final scrape
  if (endpoint) endpoint->stop();
  if (!quiet) {
    std::printf(
        "served %ld frames in %.3fs (%.2f frames/s), %zu tiles per "
        "frame, %ld tenants\n",
        frames - shed, seconds, (frames - shed) / seconds,
        plan->tiles.size(), cli.tenants);
    std::printf(
        "serve: %lld groups, %lld design switches, %lld shed (policy "
        "%s)\n",
        static_cast<long long>(sstats.groups),
        static_cast<long long>(sstats.design_switches),
        static_cast<long long>(sstats.shed),
        serve::to_string(options.policy));
    std::printf(
        "design cache: %lld hits / %lld misses; peak queue depth %zu\n",
        static_cast<long long>(estats.cache.hits),
        static_cast<long long>(estats.cache.misses),
        estats.max_queue_depth);
  }
  return rc;
}

// Splits a pipeline spec into its stage kernels: sections separated by
// lines whose first non-blank characters are `---`.
std::vector<std::string> split_stage_sources(std::istream& in) {
  std::vector<std::string> sections;
  std::string line;
  std::string current;
  auto flush = [&] {
    if (current.find_first_not_of(" \t\r\n") != std::string::npos) {
      sections.push_back(current);
    }
    current.clear();
  };
  while (std::getline(in, line)) {
    const std::size_t first = line.find_first_not_of(" \t");
    if (first != std::string::npos && line.compare(first, 3, "---") == 0) {
      flush();
    } else {
      current += line;
      current += '\n';
    }
  }
  flush();
  return sections;
}

int run_pipeline(const std::string& spec_path, const std::string& name,
                 const nup::core::CompileOptions& compile_options,
                 long frames, long inflight, std::size_t threads,
                 nup::poly::IntVec tile_shape,
                 nup::runtime::NumaMode numa, bool barrier, bool quiet) {
  using namespace nup;

  std::ifstream in(spec_path);
  if (!in) {
    std::fprintf(stderr, "stencilcc: cannot read %s\n", spec_path.c_str());
    return 1;
  }
  const std::vector<std::string> sources = split_stage_sources(in);
  if (sources.empty()) {
    std::fprintf(stderr, "stencilcc: %s has no stage kernels\n",
                 spec_path.c_str());
    return 1;
  }

  std::vector<stencil::StencilProgram> stages;
  stages.reserve(sources.size());
  for (std::size_t s = 0; s < sources.size(); ++s) {
    stages.push_back(
        frontend::parse_stencil(sources[s], name + "_s" + std::to_string(s)));
  }
  pipeline::StageGraph graph = pipeline::StageGraph::chain(stages);

  pipeline::PipelineOptions options;
  options.name = name;
  options.threads_per_stage = threads;
  options.tile_shape = std::move(tile_shape);
  options.build = compile_options.build;
  options.sim = compile_options.sim;
  options.barrier = barrier;
  options.numa = numa;
  if (inflight >= 0) {
    options.max_frames_in_flight = static_cast<std::size_t>(inflight);
  }
  pipeline::PipelineExecutor executor(std::move(graph), options);

  if (!quiet) {
    std::printf("pipeline %s: %zu stages, %zu edges (%s scheduling, "
                "window %zu)\n",
                name.c_str(), executor.graph().stage_count(),
                executor.graph().edges().size(),
                barrier ? "frame-barrier" : "tile-granular",
                options.max_frames_in_flight);
  }

  if (frames <= 0) frames = 1;
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<pipeline::PipelineHandle> handles;
  handles.reserve(static_cast<std::size_t>(frames));
  for (long f = 0; f < frames; ++f) {
    handles.push_back(executor.submit(static_cast<std::uint64_t>(f)));
  }
  for (pipeline::PipelineHandle& handle : handles) {
    const pipeline::PipelineResult& result = handle.wait();
    if (!result.ok()) {
      std::fprintf(stderr, "stencilcc: pipelined frame %llu failed: %s\n",
                   static_cast<unsigned long long>(result.seed),
                   result.error.c_str());
      return 1;
    }
  }
  const auto seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  if (!quiet) {
    const pipeline::PipelineResult& last = handles.back().wait();
    std::printf("served %ld pipelined frames in %.3fs (%.2f frames/s)\n",
                frames, seconds, frames / seconds);
    for (std::size_t s = 0; s < last.stages.size(); ++s) {
      const auto plan =
          executor.engine().plan_for(executor.graph().stages()[s].program);
      std::printf("  stage %s: %zu tiles, first/last tile %+lld/%+lld us%s\n",
                  executor.graph().stages()[s].program.name().c_str(),
                  plan->tiles.size(),
                  static_cast<long long>(last.timing[s].first_tile_us),
                  static_cast<long long>(last.timing[s].last_tile_us),
                  s > 0 && last.timing[s].first_tile_us <
                               last.timing[s - 1].last_tile_us
                      ? " (overlapped upstream)"
                      : "");
    }
    for (std::size_t e = 0; e < last.edges.size(); ++e) {
      std::printf("  edge %s: peak %zu tiles / %zu elements buffered, "
                  "%lld retired\n",
                  executor.graph().edges()[e].label.c_str(),
                  last.edges[e].max_tiles, last.edges[e].max_elements,
                  static_cast<long long>(last.edges[e].retired));
    }
    std::printf("  frame total %lld us\n",
                static_cast<long long>(last.total_us));
  }
  executor.shutdown();
  return 0;
}

// Temporal mode: read one mini-C kernel as the update step of an
// iterative solver and sweep `timesteps` generations per frame through
// the replica-stage pipeline (docs/TEMPORAL.md).
int run_temporal(const std::string& kernel_path, const std::string& name,
                 const nup::core::CompileOptions& compile_options,
                 const nup::temporal::TemporalConfig& config,
                 double tolerance, long frames, long inflight,
                 std::size_t threads, nup::poly::IntVec tile_shape,
                 nup::runtime::NumaMode numa, bool quiet) {
  using namespace nup;

  std::ifstream in(kernel_path);
  if (!in) {
    std::fprintf(stderr, "stencilcc: cannot read %s\n", kernel_path.c_str());
    return 1;
  }
  std::ostringstream source;
  source << in.rdbuf();
  const stencil::StencilProgram step =
      frontend::parse_stencil(source.str(), name);

  temporal::RunnerOptions options;
  options.pipeline.name = name;
  options.pipeline.threads_per_stage = threads;
  options.pipeline.tile_shape = std::move(tile_shape);
  options.pipeline.build = compile_options.build;
  options.pipeline.sim = compile_options.sim;
  options.pipeline.numa = numa;
  options.tolerance = tolerance;
  if (inflight > 0) {
    options.max_passes_in_flight = static_cast<std::size_t>(inflight);
  }
  temporal::TemporalRunner runner(step, config, options);

  if (!quiet) {
    std::printf(
        "temporal %s: T=%lld generations, B=%lld replicas/pass, %lld "
        "passes/frame, %zu pass shape%s, %s boundary\n",
        name.c_str(), static_cast<long long>(config.timesteps),
        static_cast<long long>(config.block),
        static_cast<long long>(runner.schedule().num_passes),
        runner.executor_count(), runner.executor_count() == 1 ? "" : "s",
        stencil::to_string(config.boundary));
  }

  if (frames <= 0) frames = 1;
  std::vector<std::uint64_t> seeds;
  seeds.reserve(static_cast<std::size_t>(frames));
  for (long f = 0; f < frames; ++f) {
    seeds.push_back(static_cast<std::uint64_t>(f));
  }
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<temporal::FrameOutcome> outcomes =
      runner.run_frames(seeds);
  const auto seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::int64_t generations = 0;
  std::int64_t passes = 0;
  long converged = 0;
  for (const temporal::FrameOutcome& outcome : outcomes) {
    if (!outcome.ok()) {
      std::fprintf(stderr, "stencilcc: temporal frame %llu failed: %s\n",
                   static_cast<unsigned long long>(outcome.seed),
                   outcome.error.c_str());
      return 1;
    }
    generations += outcome.generations_completed;
    passes += outcome.passes_completed;
    if (outcome.converged_early) ++converged;
  }

  if (!quiet) {
    std::printf(
        "swept %ld frame%s in %.3fs: %lld generations (%.2f gen/s), "
        "%lld passes\n",
        frames, frames == 1 ? "" : "s", seconds,
        static_cast<long long>(generations), generations / seconds,
        static_cast<long long>(passes));
    if (tolerance > 0.0) {
      std::printf("  convergence: %ld/%ld frames exited early "
                  "(tolerance %g, last residual %g)\n",
                  converged, frames, tolerance,
                  outcomes.back().last_residual);
    }
    std::printf("  %zu replica designs pinned across %zu executor%s\n",
                runner.pinned_designs(), runner.executor_count(),
                runner.executor_count() == 1 ? "" : "s");
  }
  runner.shutdown();
  return 0;
}

std::string basename_no_ext(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::size_t start = slash == std::string::npos ? 0 : slash + 1;
  const std::size_t dot = path.find_last_of('.');
  const std::size_t end =
      dot == std::string::npos || dot < start ? path.size() : dot;
  return path.substr(start, end - start);
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "stencilcc: cannot write %s\n", path.c_str());
    return false;
  }
  out << text;
  return true;
}

// The shared observability tail: --metrics / --trace / --stats read the
// global registry and journal, which both the compile path and the
// pipelined path feed. Returns nonzero when an export file cannot be
// written.
int emit_observability(const std::string& metrics_path,
                       const std::string& trace_path, bool stats_table) {
  const nup::obs::MetricsSnapshot snap =
      nup::obs::Registry::global().snapshot();
  int rc = 0;
  if (!metrics_path.empty() &&
      !write_file(metrics_path, snap.to_json() + "\n")) {
    rc = 1;
  }
  if (!trace_path.empty()) {
    nup::obs::TraceTotals totals;
    if (!write_file(trace_path,
                    nup::obs::Journal::global().chrome_trace(&totals))) {
      rc = 1;
    }
    if (totals.rendered < totals.recorded || totals.dropped > 0) {
      std::fprintf(stderr,
                   "stencilcc: trace truncated: %llu of %llu events "
                   "rendered, %llu dropped\n",
                   static_cast<unsigned long long>(totals.rendered),
                   static_cast<unsigned long long>(totals.recorded),
                   static_cast<unsigned long long>(totals.dropped));
    }
  }
  if (stats_table) std::printf("%s", snap.to_table().c_str());
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nup;

  std::string input;
  std::string out_dir = ".";
  std::string name;
  bool quiet = false;
  bool cpp_model = false;
  long vcd_cycles = 0;
  long serve = 0;
  std::size_t serve_threads = 0;
  poly::IntVec serve_tile;
  runtime::NumaMode numa_mode = runtime::NumaMode::kOff;
  std::string pipeline_spec;
  bool pipeline_barrier = false;
  long pipeline_frames = 0;
  long pipeline_inflight = -1;  // -1 keeps the executor default
  temporal::TemporalConfig temporal_config;
  bool temporal_mode = false;
  double temporal_tolerance = 0.0;
  std::string metrics_path;
  std::string trace_path;
  long metrics_port = -1;  // -1 = no server
  long hold_ms = 0;
  std::string postmortem_dir;
  long cancel_frame = -1;
  bool stats_table = false;
  ServeCliOptions serve_cli;
  core::CompileOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-o" && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (arg == "--name" && i + 1 < argc) {
      name = argv[++i];
    } else if (arg == "--exact") {
      options.build.exact_sizing = true;
      options.build.exact_streaming = true;
    } else if (arg == "--width" && i + 1 < argc) {
      options.build.datapath_width = std::strtol(argv[++i], nullptr, 10);
      if (options.build.datapath_width < 1 ||
          options.build.datapath_width > arch::kMaxDatapathWidth) {
        std::fprintf(stderr,
                     "stencilcc: --width needs a datapath width in [1, %d]\n",
                     static_cast<int>(arch::kMaxDatapathWidth));
        usage();
        return 2;
      }
    } else if (arg == "--no-verify") {
      options.verify_by_simulation = false;
    } else if (arg == "--vcd" && i + 1 < argc) {
      vcd_cycles = std::strtol(argv[++i], nullptr, 10);
    } else if (arg == "--sim-backend" && i + 1 < argc) {
      const std::string backend = argv[++i];
      if (backend == "reference") {
        options.sim.backend = sim::SimBackend::kReference;
      } else if (backend == "fast") {
        options.sim.backend = sim::SimBackend::kFast;
      } else {
        std::fprintf(stderr, "stencilcc: unknown simulator backend '%s'\n",
                     backend.c_str());
        usage();
        return 2;
      }
    } else if (arg == "--cpp-model") {
      cpp_model = true;
    } else if (arg == "--rtl-check") {
      options.verify_rtl = true;
    } else if (arg == "--serve" && i + 1 < argc) {
      serve = std::strtol(argv[++i], nullptr, 10);
      if (serve <= 0) {
        std::fprintf(stderr, "stencilcc: --serve needs a frame count\n");
        usage();
        return 2;
      }
    } else if (arg == "--threads" && i + 1 < argc) {
      serve_threads =
          static_cast<std::size_t>(std::strtol(argv[++i], nullptr, 10));
    } else if (arg == "--tenants" && i + 1 < argc) {
      serve_cli.tenants = std::strtol(argv[++i], nullptr, 10);
      if (serve_cli.tenants < 1) {
        std::fprintf(stderr, "stencilcc: --tenants needs a count >= 1\n");
        usage();
        return 2;
      }
    } else if (arg == "--quota" && i + 1 < argc) {
      serve_cli.quota = std::strtol(argv[++i], nullptr, 10);
      if (serve_cli.quota < 1) {
        std::fprintf(stderr,
                     "stencilcc: --quota needs an in-flight bound >= 1\n");
        usage();
        return 2;
      }
    } else if (arg == "--shed-after" && i + 1 < argc) {
      serve_cli.shed_after = std::strtol(argv[++i], nullptr, 10);
      if (serve_cli.shed_after < 1) {
        std::fprintf(stderr,
                     "stencilcc: --shed-after needs a queue depth >= 1\n");
        usage();
        return 2;
      }
    } else if (arg == "--serve-policy" && i + 1 < argc) {
      const std::string policy = argv[++i];
      if (policy == "affinity") {
        serve_cli.policy = serve::Policy::kAffinity;
      } else if (policy == "rr" || policy == "round-robin") {
        serve_cli.policy = serve::Policy::kRoundRobin;
      } else {
        std::fprintf(stderr,
                     "stencilcc: --serve-policy wants affinity or rr\n");
        usage();
        return 2;
      }
    } else if (arg == "--serve-mix" && i + 1 < argc) {
      std::istringstream mix_in(argv[++i]);
      std::string mix_name;
      while (std::getline(mix_in, mix_name, ',')) {
        if (!mix_name.empty()) serve_cli.mix.push_back(mix_name);
      }
    } else if (arg == "--serve-port" && i + 1 < argc) {
      char* end = nullptr;
      serve_cli.port = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || serve_cli.port < 0 ||
          serve_cli.port > 65535) {
        std::fprintf(stderr,
                     "stencilcc: --serve-port needs a port in [0, 65535] "
                     "(0 = ephemeral)\n");
        usage();
        return 2;
      }
    } else if (arg == "--tile" && i + 1 < argc) {
      if (!parse_tile_shape(argv[++i], &serve_tile)) {
        std::fprintf(stderr, "stencilcc: bad --tile shape '%s'\n",
                     argv[i]);
        usage();
        return 2;
      }
    } else if (arg == "--numa" && i + 1 < argc) {
      const std::optional<runtime::NumaMode> mode =
          runtime::numa_mode_from_string(argv[++i]);
      if (!mode) {
        std::fprintf(stderr,
                     "stencilcc: --numa wants auto, off or interleave\n");
        usage();
        return 2;
      }
      numa_mode = *mode;
    } else if (arg == "--pipeline" && i + 1 < argc) {
      pipeline_spec = argv[++i];
    } else if (arg == "--barrier") {
      pipeline_barrier = true;
    } else if (arg == "--frames" && i + 1 < argc) {
      pipeline_frames = std::strtol(argv[++i], nullptr, 10);
      if (pipeline_frames <= 0) {
        std::fprintf(stderr, "stencilcc: --frames needs a frame count\n");
        usage();
        return 2;
      }
    } else if (arg == "--inflight" && i + 1 < argc) {
      char* end = nullptr;
      pipeline_inflight = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || pipeline_inflight < 0) {
        std::fprintf(stderr,
                     "stencilcc: --inflight needs a window size >= 0\n");
        usage();
        return 2;
      }
    } else if (arg == "--timesteps" && i + 1 < argc) {
      temporal_config.timesteps = std::strtol(argv[++i], nullptr, 10);
      temporal_mode = true;
      if (temporal_config.timesteps < 1) {
        std::fprintf(stderr,
                     "stencilcc: --timesteps needs a generation count "
                     ">= 1\n");
        usage();
        return 2;
      }
    } else if (arg == "--block" && i + 1 < argc) {
      temporal_config.block = std::strtol(argv[++i], nullptr, 10);
      temporal_mode = true;
      if (temporal_config.block < 1) {
        std::fprintf(stderr,
                     "stencilcc: --block needs a blocking factor >= 1\n");
        usage();
        return 2;
      }
    } else if (arg == "--boundary" && i + 1 < argc) {
      const std::optional<stencil::BoundaryPolicy> policy =
          stencil::boundary_from_string(argv[++i]);
      if (!policy) {
        std::fprintf(stderr,
                     "stencilcc: unknown boundary policy '%s' (want "
                     "shrink, clamp, wrap or constant)\n",
                     argv[i]);
        usage();
        return 2;
      }
      temporal_config.boundary = *policy;
      temporal_mode = true;
    } else if (arg == "--bc-value" && i + 1 < argc) {
      temporal_config.constant_value = std::strtod(argv[++i], nullptr);
    } else if (arg == "--tolerance" && i + 1 < argc) {
      temporal_tolerance = std::strtod(argv[++i], nullptr);
      if (temporal_tolerance < 0.0) {
        std::fprintf(stderr,
                     "stencilcc: --tolerance needs a residual >= 0\n");
        usage();
        return 2;
      }
    } else if (arg == "--metrics" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (arg == "--metrics-port" && i + 1 < argc) {
      char* end = nullptr;
      metrics_port = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || metrics_port < 0 ||
          metrics_port > 65535) {
        std::fprintf(stderr,
                     "stencilcc: --metrics-port needs a port in [0, 65535] "
                     "(0 = ephemeral)\n");
        usage();
        return 2;
      }
    } else if (arg == "--hold" && i + 1 < argc) {
      hold_ms = std::strtol(argv[++i], nullptr, 10);
      if (hold_ms < 0) hold_ms = 0;
    } else if (arg == "--postmortem" && i + 1 < argc) {
      postmortem_dir = argv[++i];
    } else if (arg == "--cancel-frame" && i + 1 < argc) {
      char* end = nullptr;
      cancel_frame = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || cancel_frame < 0) {
        std::fprintf(stderr,
                     "stencilcc: --cancel-frame needs a frame index >= 0\n");
        usage();
        return 2;
      }
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--stats") {
      stats_table = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "-h" || arg == "--help") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "stencilcc: unknown option %s\n", arg.c_str());
      usage();
      return 2;
    } else if (input.empty()) {
      input = arg;
    } else {
      usage();
      return 2;
    }
  }
  if (input.empty() && pipeline_spec.empty()) {
    usage();
    return 2;
  }
  if (!pipeline_spec.empty() && !input.empty()) {
    std::fprintf(stderr,
                 "stencilcc: --pipeline reads its stages from the spec "
                 "file; drop the positional kernel\n");
    usage();
    return 2;
  }
  if (temporal_mode && !pipeline_spec.empty()) {
    std::fprintf(stderr,
                 "stencilcc: --timesteps/--block unroll a single kernel "
                 "in time; they do not combine with --pipeline\n");
    usage();
    return 2;
  }
  if (name.empty()) {
    name = basename_no_ext(pipeline_spec.empty() ? input : pipeline_spec);
  }
  if (vcd_cycles > 0) options.sim.trace_cycles = vcd_cycles;
  if (!postmortem_dir.empty()) {
    obs::Journal::global().set_postmortem_dir(postmortem_dir);
  }
  std::unique_ptr<obs::MetricsServer> server;
  if (metrics_port >= 0) {
    obs::MetricsServerOptions server_options;
    server_options.port = static_cast<int>(metrics_port);
    server_options.sample_period_ms = 200;
    server = std::make_unique<obs::MetricsServer>(server_options);
    if (!server->ok()) {
      std::fprintf(stderr, "stencilcc: --metrics-port: %s\n",
                   server->error().c_str());
      return 1;
    }
    std::printf("metrics: serving http://127.0.0.1:%d/metrics\n",
                server->port());
    std::fflush(stdout);
  }
  // Shared exit path: export files first, then linger (--hold) so a
  // scraper can still reach --metrics-port while the registry is final.
  const auto finish = [&](int rc) {
    const int obs_rc =
        emit_observability(metrics_path, trace_path, stats_table);
    if (hold_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(hold_ms));
    }
    return rc != 0 ? rc : obs_rc;
  };

  if (temporal_mode) {
    try {
      int rc = run_temporal(input, name, options, temporal_config,
                            temporal_tolerance,
                            pipeline_frames > 0 ? pipeline_frames : serve,
                            pipeline_inflight, serve_threads,
                            std::move(serve_tile), numa_mode, quiet);
      return finish(rc);
    } catch (const Error& e) {
      std::fprintf(stderr, "stencilcc: %s\n", e.what());
      return 1;
    }
  }

  if (!pipeline_spec.empty()) {
    try {
      int rc = run_pipeline(pipeline_spec, name, options,
                            pipeline_frames > 0 ? pipeline_frames : serve,
                            pipeline_inflight, serve_threads,
                            std::move(serve_tile), numa_mode,
                            pipeline_barrier, quiet);
      return finish(rc);
    } catch (const Error& e) {
      std::fprintf(stderr, "stencilcc: %s\n", e.what());
      return 1;
    }
  }

  std::ifstream in(input);
  if (!in) {
    std::fprintf(stderr, "stencilcc: cannot read %s\n", input.c_str());
    return 1;
  }
  std::ostringstream source;
  source << in.rdbuf();

  try {
    const core::AcceleratorPackage pkg =
        core::compile_source(source.str(), name, options);
    if (!quiet) std::printf("%s", pkg.summary().c_str());

    const std::string base = out_dir + "/" + name;
    bool ok = write_file(base + "_memory_system.v", pkg.rtl) &&
              write_file(base + "_tb.v", pkg.testbench) &&
              write_file(base + "_kernel.cpp", pkg.kernel_code) &&
              write_file(base + "_accel.hpp", pkg.integration_header) &&
              write_file(base + "_report.json", core::to_json(pkg));
    if (ok && cpp_model) {
      ok = write_file(base + "_model.cpp",
                      codegen::emit_cpp_model(pkg.program, pkg.design));
    }
    if (ok && vcd_cycles > 0 && options.verify_by_simulation) {
      ok = sim::write_vcd(base + ".vcd", pkg.verification, pkg.design,
                          name);
    }
    if (!quiet && ok) {
      std::printf("artifacts written to %s/%s_*.{v,cpp,hpp,json}\n",
                  out_dir.c_str(), name.c_str());
    }
    if (options.verify_by_simulation) {
      // The one-shot verification run's telemetry (FIFO high-water marks,
      // stall cycles, phase latencies) joins the registry next to
      // whatever --serve adds.
      runtime::publish_sim_telemetry(obs::Registry::global(), pkg.design,
                                     pkg.verification);
    }
    int rc = ok ? 0 : 1;
    if (ok && serve > 0) {
      serve_cli.inflight = pipeline_inflight;
      rc = serve_frames(pkg, options, serve, serve_threads,
                        std::move(serve_tile), numa_mode, cancel_frame,
                        serve_cli, quiet);
    }
    return finish(rc);
  } catch (const Error& e) {
    std::fprintf(stderr, "stencilcc: %s\n", e.what());
    return 1;
  }
}
