// stencilcc -- the design-automation flow (Fig 11) as a command-line tool:
// compile a mini-C stencil kernel into its non-uniform reuse-buffer
// accelerator, then optionally serve, pipeline or time-sweep it. `--help`.

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
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

using namespace nup;

namespace {

// Upper bounds of the numeric flags. Each keeps an accepted value cheap to
// act on: a frame count sizes the handle and seed vectors up front, and a
// blocking factor multiplies the worker count (threads x replicas).
constexpr long kMaxFrames = 1'000'000;
constexpr long kMaxThreads = 1024;
constexpr long kMaxTimesteps = 1'000'000;
constexpr long kMaxBlock = 64;
constexpr long kMaxHoldMs = 3'600'000;
constexpr long kMaxPort = 65535;
constexpr long kMaxLong = std::numeric_limits<long>::max();

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
      "Numbers must be whole tokens within the bounds shown; a malformed\n"
      "or out-of-range value, or a flag whose mode is not selected, exits\n"
      "with status 2.\n"
      "\n"
      "compile options (-o, --no-verify, --vcd, --cpp-model and --rtl-check\n"
      "only in compile mode, not with --pipeline or --timesteps):\n"
      "  -o <dir>        output directory for the artifacts (default: .)\n"
      "  --name <n>      accelerator name (default: from the file name)\n"
      "  --exact         exact union-domain sizing and streaming\n"
      "  --width <W>     datapath width in [1, 64]: W elements per cycle,\n"
      "                  FIFOs in W-element words (default 1)\n"
      "  --no-verify     skip the verification simulation\n"
      "  --vcd <N>       dump a VCD of the first N >= 0 verification cycles\n"
      "  --sim-backend <reference|fast>\n"
      "                  simulator backend for verification (default:\n"
      "                  reference; fast is bit-identical)\n"
      "  --cpp-model     also emit a standalone C co-simulation model\n"
      "  --rtl-check     execute the generated Verilog in the built-in\n"
      "                  RTL interpreter (small programs only)\n"
      "\n"
      "serving options (single kernel --serve, pipeline and temporal modes;\n"
      "a compile without --serve refuses them):\n"
      "  --serve <N>     frames in [1, 1000000]: serve a compiled kernel's\n"
      "                  frames through the multi-tenant serving subsystem\n"
      "                  and print throughput / shed / cache statistics;\n"
      "                  the staged modes pump N frames (default 1)\n"
      "  --frames <N>    alias of --serve in every mode\n"
      "  --threads <T>   worker threads in [0, 1024], per stage in the\n"
      "                  staged modes (default 0 = hardware concurrency)\n"
      "  --tile <a,b,..> tile extents per dimension, each >= 0 (0 = full\n"
      "                  extent; default: automatic shape)\n"
      "  --numa <auto|off|interleave>\n"
      "                  place tiles on memory nodes and pin per-node\n"
      "                  workers with idle stealing (NUP_FAKE_TOPOLOGY=<n>\n"
      "                  fakes n nodes; default off; docs/RUNTIME.md)\n"
      "  --inflight <K>  admission window in [0, 1000000]: at most K\n"
      "                  frames (or temporal passes) in flight (1 =\n"
      "                  serial, 0 = unbounded except with --timesteps,\n"
      "                  which needs K >= 1; default 4)\n"
      "\n"
      "multi-tenant serving (single-kernel --serve only; docs/SERVING.md):\n"
      "  --tenants <T>   spread the frames over T in [1, 256] tenants\n"
      "                  t0..t<T-1>, scheduled weighted-fair (default 1)\n"
      "  --quota <Q>     per-tenant quota: at most Q >= 1 of a tenant's\n"
      "                  frames execute concurrently (default 4)\n"
      "  --shed-after <S>\n"
      "                  per-tenant queue cap: submits past S >= 1 queued\n"
      "                  frames are shed with a verdict (default 64)\n"
      "  --serve-policy <affinity|rr>\n"
      "                  affinity drains same-design groups (one compile\n"
      "                  per group); rr is the design-blind weighted-fair\n"
      "                  baseline (default: affinity)\n"
      "  --serve-mix <k1,k2,..>\n"
      "                  also register these gallery kernels and rotate\n"
      "                  the submitted frames across all kernels (e.g.\n"
      "                  jacobi_2d,blur_2d) -- a mixed-design workload\n"
      "  --serve-port <p>\n"
      "                  also accept remote tenants on 127.0.0.1:<p>, p in\n"
      "                  [0, 65535], via the line protocol (0 = ephemeral;\n"
      "                  the bound port is printed)\n"
      "  --cancel-frame <k>\n"
      "                  cancel frame k (below the frame count) mid-flight\n"
      "                  (exercises the cancellation post-mortem)\n"
      "\n"
      "pipeline mode:\n"
      "  --pipeline <spec>\n"
      "                  chain the mini-C kernels in <spec> (sections\n"
      "                  separated by `---` lines) into a stage DAG with\n"
      "                  tile-granular producer-consumer overlap\n"
      "  --barrier       wait for whole producer frames instead of\n"
      "                  halo-covering tiles (scheduling baseline)\n"
      "\n"
      "temporal mode (iterative solvers; see docs/TEMPORAL.md):\n"
      "  --timesteps <T> sweep T in [1, 1000000] generations: the step is\n"
      "                  unrolled into chains of B replica stages, each\n"
      "                  replica's reuse FIFOs sized non-uniformly, and\n"
      "                  ceil(T/B) passes stream through the pipeline\n"
      "  --block <B>     blocking factor B in [1, min(T, 64)]: replicas\n"
      "                  per pass (default 1 = frame-serial)\n"
      "  --boundary <shrink|clamp|wrap|constant>\n"
      "                  reads past the previous generation's domain edge:\n"
      "                  shrink grows earlier replicas' domains so every\n"
      "                  read is contained; clamp/wrap/constant keep all\n"
      "                  replicas on the target box (default: shrink)\n"
      "  --bc-value <V>  finite Dirichlet value for --boundary constant\n"
      "  --tolerance <E> stop a frame once its pass-boundary max-abs\n"
      "                  residual is <= E >= 0 (default 0 = all passes)\n"
      "\n"
      "observability:\n"
      "  --metrics <f>   write the metrics registry as JSON to <f>\n"
      "  --metrics-port <p>\n"
      "                  serve the live registry on 127.0.0.1:<p>, p in\n"
      "                  [0, 65535] (0 = ephemeral; bound port printed):\n"
      "                  /metrics is OpenMetrics, /metrics.json is JSON\n"
      "  --hold <ms>     linger ms in [0, 3600000] after the run so a\n"
      "                  scraper can hit --metrics-port before exit\n"
      "  --postmortem <dir>\n"
      "                  write flight-recorder bundles for failed /\n"
      "                  cancelled / deadlocked frames into <dir>\n"
      "  --trace <f>     write the flight recorder as Chrome trace-event\n"
      "                  JSON to <f>\n"
      "  --stats         print the metrics registry as an aligned table\n"
      "  --quiet         suppress the summaries\n"
      "  -h, --help      this text\n"
      "\n"
      "example -- 8 heat generations, 4 replicas per pass (2 passes),\n"
      "clamped boundary, metrics to heat.json; heat.c is one update step:\n"
      "  stencilcc --timesteps 8 --block 4 --boundary clamp \\\n"
      "            --metrics heat.json heat.c\n");
}

// The one way a command line is refused: say what is wrong, show the
// options, exit 2.
[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "stencilcc: %s\n", message.c_str());
  usage();
  std::exit(2);
}

// True when strto* (called with errno cleared) consumed all of `text`
// without leading blanks and without running out of range.
bool whole_token(const std::string& text, const char* end) {
  return !text.empty() && !std::isspace(static_cast<unsigned char>(text[0])) &&
         *end == '\0' && errno != ERANGE;
}

long read_integer(const std::string& flag, const std::string& text, long lo,
                  long hi) {
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (!whole_token(text, end) || value < lo || value > hi) {
    usage_error(flag + " wants an integer in [" + std::to_string(lo) + ", " +
                std::to_string(hi) + "], got '" + text + "'");
  }
  return value;
}

double read_real(const std::string& flag, const std::string& text,
                 double lo) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (!whole_token(text, end) || !std::isfinite(value) || value < lo) {
    usage_error(flag + " wants a finite number" +
                (lo == 0.0 ? " >= 0" : "") + ", got '" + text + "'");
  }
  return value;
}

template <typename T>
std::optional<T> lookup(
    std::string_view text,
    std::initializer_list<std::pair<std::string_view, T>> table) {
  for (const auto& [key, value] : table) {
    if (key == text) return value;
  }
  return std::nullopt;
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> fields;
  std::istringstream in(text);
  std::string field;
  while (std::getline(in, field, ',')) fields.push_back(field);
  return fields;
}

/// Everything the command line says, filled once by parse_args. Optional
/// fields are unset when their flag is absent, so the library default
/// applies (or, for the ports, no endpoint opens).
struct Cli {
  std::string input;     ///< positional kernel file
  std::string pipeline;  ///< --pipeline spec file
  std::string out_dir = ".";
  std::string name;
  core::CompileOptions compile;
  bool cpp_model = false;

  long frames = 0;  ///< --serve / --frames; 0 = compile only
  std::size_t threads = 0;
  poly::IntVec tile;
  runtime::NumaMode numa = runtime::NumaMode::kOff;
  std::optional<std::size_t> inflight;
  bool barrier = false;

  bool temporal = false;  ///< --timesteps, --block or --boundary given
  temporal::TemporalConfig sweep;
  double tolerance = 0.0;

  long tenants = 1;
  std::size_t quota = 4;
  std::size_t shed_after = 64;
  serve::Policy policy = serve::Policy::kAffinity;
  std::vector<stencil::StencilProgram> mix;
  std::optional<int> serve_port;
  std::optional<long> cancel_frame;

  std::string metrics_path;
  std::optional<int> metrics_port;
  long hold_ms = 0;
  std::string postmortem_dir;
  std::string trace_path;
  bool stats = false;
  bool quiet = false;
};

Cli parse_args(int argc, char** argv) {
  Cli cli;
  std::set<std::string> given;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string text;  // the flag's value, once value() consumed it
    const auto value = [&]() -> const std::string& {
      if (i + 1 == argc) usage_error(arg + " needs a value");
      return text = argv[++i];
    };
    const auto integer = [&](long lo, long hi) {
      return read_integer(arg, value(), lo, hi);
    };
    const auto choice = [&](const auto& parsed, const char* choices) {
      if (!parsed) {
        usage_error(arg + " wants " + choices + ", got '" + text + "'");
      }
      return *parsed;
    };
    given.insert(arg);
    if (arg == "-h" || arg == "--help") {
      usage();
      std::exit(0);
    } else if (arg == "-o") {
      cli.out_dir = value();
    } else if (arg == "--name") {
      cli.name = value();
    } else if (arg == "--exact") {
      cli.compile.build.exact_sizing = true;
      cli.compile.build.exact_streaming = true;
    } else if (arg == "--width") {
      cli.compile.build.datapath_width = integer(1, arch::kMaxDatapathWidth);
    } else if (arg == "--no-verify") {
      cli.compile.verify_by_simulation = false;
    } else if (arg == "--vcd") {
      cli.compile.sim.trace_cycles = integer(0, kMaxLong);
    } else if (arg == "--sim-backend") {
      cli.compile.sim.backend =
          choice(lookup<sim::SimBackend>(
                     value(), {{"reference", sim::SimBackend::kReference},
                               {"fast", sim::SimBackend::kFast}}),
                 "reference or fast");
    } else if (arg == "--cpp-model") {
      cli.cpp_model = true;
    } else if (arg == "--rtl-check") {
      cli.compile.verify_rtl = true;
    } else if (arg == "--serve" || arg == "--frames") {
      cli.frames = integer(1, kMaxFrames);
    } else if (arg == "--threads") {
      cli.threads = integer(0, kMaxThreads);
    } else if (arg == "--tile") {
      cli.tile.clear();
      for (const std::string& field : split_list(value())) {
        cli.tile.push_back(read_integer(arg, field, 0, kMaxLong));
      }
      if (cli.tile.empty()) usage_error(arg + " needs at least one extent");
    } else if (arg == "--numa") {
      cli.numa = choice(runtime::numa_mode_from_string(value()),
                        "auto, off or interleave");
    } else if (arg == "--inflight") {
      cli.inflight = integer(0, kMaxFrames);
    } else if (arg == "--tenants") {
      cli.tenants = integer(1, serve::StencilServer::kMaxJoinedTenants);
    } else if (arg == "--quota") {
      cli.quota = integer(1, kMaxFrames);
    } else if (arg == "--shed-after") {
      cli.shed_after = integer(1, kMaxFrames);
    } else if (arg == "--serve-policy") {
      cli.policy = choice(
          lookup<serve::Policy>(value(),
                                {{"affinity", serve::Policy::kAffinity},
                                 {"rr", serve::Policy::kRoundRobin},
                                 {"round-robin", serve::Policy::kRoundRobin}}),
          "affinity or rr");
    } else if (arg == "--serve-mix") {
      for (const std::string& kernel : split_list(value())) {
        if (kernel.empty()) continue;
        const auto program = lookup<stencil::StencilProgram (*)()>(
            kernel, {{"denoise_2d", [] { return stencil::denoise_2d(); }},
                     {"rician_2d", [] { return stencil::rician_2d(); }},
                     {"sobel_2d", [] { return stencil::sobel_2d(); }},
                     {"bicubic_2d", [] { return stencil::bicubic_2d(); }},
                     {"jacobi_2d", [] { return stencil::jacobi_2d(); }},
                     {"blur_2d", [] { return stencil::blur_2d(); }},
                     {"heat_3d", [] { return stencil::heat_3d(); }}});
        if (!program) usage_error(arg + ": unknown kernel '" + kernel + "'");
        cli.mix.push_back((*program)());
      }
    } else if (arg == "--serve-port") {
      cli.serve_port = integer(0, kMaxPort);
    } else if (arg == "--cancel-frame") {
      cli.cancel_frame = integer(0, kMaxFrames - 1);
    } else if (arg == "--pipeline") {
      cli.pipeline = value();
    } else if (arg == "--barrier") {
      cli.barrier = true;
    } else if (arg == "--timesteps") {
      cli.sweep.timesteps = integer(1, kMaxTimesteps);
      cli.temporal = true;
    } else if (arg == "--block") {
      cli.sweep.block = integer(1, kMaxBlock);
      cli.temporal = true;
    } else if (arg == "--boundary") {
      cli.sweep.boundary = choice(stencil::boundary_from_string(value()),
                                  "shrink, clamp, wrap or constant");
      cli.temporal = true;
    } else if (arg == "--bc-value") {
      cli.sweep.constant_value =
          read_real(arg, value(), std::numeric_limits<double>::lowest());
    } else if (arg == "--tolerance") {
      cli.tolerance = read_real(arg, value(), 0.0);
    } else if (arg == "--metrics") {
      cli.metrics_path = value();
    } else if (arg == "--metrics-port") {
      cli.metrics_port = integer(0, kMaxPort);
    } else if (arg == "--hold") {
      cli.hold_ms = integer(0, kMaxHoldMs);
    } else if (arg == "--postmortem") {
      cli.postmortem_dir = value();
    } else if (arg == "--trace") {
      cli.trace_path = value();
    } else if (arg == "--stats") {
      cli.stats = true;
    } else if (arg == "--quiet") {
      cli.quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      usage_error("unknown option " + arg);
    } else if (cli.input.empty()) {
      cli.input = arg;
    } else {
      usage_error("one kernel file only, got '" + cli.input + "' and '" +
                  arg + "'");
    }
  }

  const auto require = [](bool ok, const std::string& message) {
    if (!ok) usage_error(message);
  };
  require(cli.input.empty() != cli.pipeline.empty(),
          cli.input.empty() ? "no kernel file given"
                            : "--pipeline reads its stages from the spec "
                              "file; drop the positional kernel");
  require(!cli.temporal || cli.pipeline.empty(),
          "--timesteps/--block unroll a single kernel in time; they do not "
          "combine with --pipeline");
  require(!cli.temporal || cli.inflight != 0u,
          "--inflight needs a window >= 1 with --timesteps");
  // A flag whose mode is not selected would be silently ignored.
  const bool serving = cli.frames > 0 && cli.pipeline.empty() && !cli.temporal;
  const auto only = [&](std::initializer_list<const char*> flags,
                        bool selected, const char* mode) {
    for (const char* flag : flags) {
      require(selected || given.count(flag) == 0,
              std::string(flag) + " only applies " + mode);
    }
  };
  const bool staged = !cli.pipeline.empty() || cli.temporal;
  only({"-o", "--no-verify", "--vcd", "--cpp-model", "--rtl-check"}, !staged,
       "in compile mode (not with --pipeline or --timesteps)");
  only({"--threads", "--tile", "--numa", "--inflight"},
       staged || cli.frames > 0, "with --serve, --pipeline or --timesteps");
  only({"--barrier"}, !cli.pipeline.empty(), "with --pipeline");
  only({"--tenants", "--quota", "--shed-after", "--serve-policy",
        "--serve-mix", "--serve-port", "--cancel-frame"},
       serving, "to single-kernel --serve");
  only({"--tolerance"}, cli.temporal, "with --timesteps");
  only({"--bc-value"},
       cli.sweep.boundary == stencil::BoundaryPolicy::kConstant,
       "with --boundary constant");
  require(!cli.cancel_frame || *cli.cancel_frame < cli.frames,
          "--cancel-frame needs a frame index below the frame count " +
              std::to_string(cli.frames));
  if (cli.name.empty()) {
    cli.name = std::filesystem::path(cli.pipeline.empty() ? cli.input
                                                          : cli.pipeline)
                   .stem()
                   .string();
  }
  return cli;
}

std::string read_source(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot read " + path);
  std::ostringstream source;
  source << in.rdbuf();
  return source.str();
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

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

int serve_frames(const core::AcceleratorPackage& pkg, const Cli& cli) {
  serve::ServeOptions options;
  options.engine.threads = cli.threads;
  options.engine.tile_shape = cli.tile;
  options.engine.build = cli.compile.build;
  options.engine.numa = cli.numa;
  if (cli.inflight) options.max_frames_in_flight = *cli.inflight;
  options.default_quota.max_in_flight = cli.quota;
  options.default_quota.max_queued = cli.shed_after;
  // The CLI bounds backlog per tenant (--shed-after); no global cap, so
  // `--serve N` with one tenant and a large N sheds only past that knob.
  options.global_queue_limit = 0;
  options.policy = cli.policy;
  serve::StencilServer server(options);
  server.add_kernel(pkg.program);
  std::vector<std::string> kernels{pkg.program.name()};
  for (const stencil::StencilProgram& program : cli.mix) {
    server.add_kernel(program);
    kernels.push_back(program.name());
  }
  const auto plan = server.engine().plan_for(pkg.program);

  std::unique_ptr<serve::ServeEndpoint> endpoint;
  if (cli.serve_port) {
    serve::ServeEndpointOptions ep;
    ep.port = *cli.serve_port;
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
      static_cast<std::size_t>(cli.frames));
  long shed = 0;
  for (long f = 0; f < cli.frames; ++f) {
    const std::size_t at = static_cast<std::size_t>(f);
    const serve::SubmitResult r =
        clients[at % clients.size()].submit(kernels[at % kernels.size()],
                                            static_cast<std::uint64_t>(f));
    if (!r.admitted()) {
      ++shed;
      if (!cli.quiet) {
        std::printf("frame %ld shed (%s)\n", f, serve::to_string(r.reason));
      }
      continue;
    }
    handles[at] = r.handle;
    if (f == cli.cancel_frame) {
      // Cancel a *running* frame, not a queued one: wait until the
      // request reached the engine so the cancellation exercises the
      // mid-flight path (and its post-mortem), as it always has.
      serve::RequestHandle h = r.handle;
      h.wait_admitted();
      h.cancel();
    }
  }
  int rc = 0;
  for (long f = 0; f < cli.frames; ++f) {
    serve::RequestHandle& h = handles[static_cast<std::size_t>(f)];
    if (!h.valid()) continue;
    const runtime::FrameResult& result = h.wait();
    if (f == cli.cancel_frame && result.cancelled) {
      if (!cli.quiet) std::printf("frame %ld cancelled as requested\n", f);
      continue;
    }
    if (!result.ok()) {
      std::fprintf(stderr, "stencilcc: frame %llu failed: %s\n",
                   static_cast<unsigned long long>(result.seed),
                   result.error.c_str());
      rc = 1;
    }
  }
  const double seconds = seconds_since(t0);

  const serve::ServeStats sstats = server.stats();
  const runtime::EngineStats estats = server.engine().stats();
  server.shutdown();  // drop the design pins before any final scrape
  if (endpoint) endpoint->stop();
  if (!cli.quiet) {
    std::printf(
        "served %ld frames in %.3fs (%.2f frames/s), %zu tiles per "
        "frame, %ld tenants\n",
        cli.frames - shed, seconds, (cli.frames - shed) / seconds,
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

// Parses a pipeline spec into its stage kernels <name>_s<k>: mini-C
// sections separated by lines whose first non-blank characters are `---`.
std::vector<stencil::StencilProgram> parse_stages(const std::string& spec,
                                                  const std::string& name) {
  std::vector<stencil::StencilProgram> stages;
  std::istringstream in(spec);
  std::string line;
  std::string current;
  const auto flush = [&] {
    if (current.find_first_not_of(" \t\r\n") != std::string::npos) {
      stages.push_back(frontend::parse_stencil(
          current, name + "_s" + std::to_string(stages.size())));
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
  return stages;
}

int run_pipeline(const std::string& spec, const Cli& cli) {
  const std::vector<stencil::StencilProgram> stages =
      parse_stages(spec, cli.name);
  if (stages.empty()) {
    std::fprintf(stderr, "stencilcc: %s has no stage kernels\n",
                 cli.pipeline.c_str());
    return 1;
  }

  pipeline::PipelineOptions options;
  options.name = cli.name;
  options.threads_per_stage = cli.threads;
  options.tile_shape = cli.tile;
  options.build = cli.compile.build;
  options.sim = cli.compile.sim;
  options.barrier = cli.barrier;
  options.numa = cli.numa;
  if (cli.inflight) options.max_frames_in_flight = *cli.inflight;
  pipeline::PipelineExecutor executor(pipeline::StageGraph::chain(stages),
                                      options);
  const pipeline::StageGraph& graph = executor.graph();

  if (!cli.quiet) {
    std::printf("pipeline %s: %zu stages, %zu edges (%s scheduling, "
                "window %zu)\n",
                cli.name.c_str(), graph.stage_count(), graph.edges().size(),
                cli.barrier ? "frame-barrier" : "tile-granular",
                options.max_frames_in_flight);
  }

  const long frames = std::max(cli.frames, 1L);
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
  const double seconds = seconds_since(t0);

  if (!cli.quiet) {
    const pipeline::PipelineResult& last = handles.back().wait();
    std::printf("served %ld pipelined frames in %.3fs (%.2f frames/s)\n",
                frames, seconds, frames / seconds);
    for (std::size_t s = 0; s < last.stages.size(); ++s) {
      const auto plan = executor.engine().plan_for(graph.stages()[s].program);
      std::printf("  stage %s: %zu tiles, first/last tile %+lld/%+lld us%s\n",
                  graph.stages()[s].program.name().c_str(),
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
                  graph.edges()[e].label.c_str(), last.edges[e].max_tiles,
                  last.edges[e].max_elements,
                  static_cast<long long>(last.edges[e].retired));
    }
    std::printf("  frame total %lld us\n",
                static_cast<long long>(last.total_us));
  }
  executor.shutdown();
  return 0;
}

// Temporal mode: the kernel is the update step of an iterative solver;
// every frame sweeps cli.sweep.timesteps generations through the
// replica-stage pipeline (docs/TEMPORAL.md).
int run_temporal(const std::string& source, const Cli& cli) {
  temporal::RunnerOptions options;
  options.pipeline.name = cli.name;
  options.pipeline.threads_per_stage = cli.threads;
  options.pipeline.tile_shape = cli.tile;
  options.pipeline.build = cli.compile.build;
  options.pipeline.sim = cli.compile.sim;
  options.pipeline.numa = cli.numa;
  options.tolerance = cli.tolerance;
  if (cli.inflight) options.max_passes_in_flight = *cli.inflight;
  temporal::TemporalRunner runner(frontend::parse_stencil(source, cli.name),
                                  cli.sweep, options);
  const std::size_t shapes = runner.executor_count();

  if (!cli.quiet) {
    std::printf(
        "temporal %s: T=%lld generations, B=%lld replicas/pass, %lld "
        "passes/frame, %zu pass shape%s, %s boundary\n",
        cli.name.c_str(), static_cast<long long>(cli.sweep.timesteps),
        static_cast<long long>(cli.sweep.block),
        static_cast<long long>(runner.schedule().num_passes), shapes,
        shapes == 1 ? "" : "s", stencil::to_string(cli.sweep.boundary));
  }

  const long frames = std::max(cli.frames, 1L);
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(frames));
  std::iota(seeds.begin(), seeds.end(), 0);
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<temporal::FrameOutcome> outcomes =
      runner.run_frames(seeds);
  const double seconds = seconds_since(t0);

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

  if (!cli.quiet) {
    std::printf(
        "swept %ld frame%s in %.3fs: %lld generations (%.2f gen/s), "
        "%lld passes\n",
        frames, frames == 1 ? "" : "s", seconds,
        static_cast<long long>(generations), generations / seconds,
        static_cast<long long>(passes));
    if (cli.tolerance > 0.0) {
      std::printf("  convergence: %ld/%ld frames exited early "
                  "(tolerance %g, last residual %g)\n",
                  converged, frames, cli.tolerance,
                  outcomes.back().last_residual);
    }
    std::printf("  %zu replica designs pinned across %zu executor%s\n",
                runner.pinned_designs(), shapes, shapes == 1 ? "" : "s");
  }
  runner.shutdown();
  return 0;
}

// Compile mode: write the artifacts, then serve --serve frames.
int run_compile(const std::string& source, const Cli& cli) {
  const core::AcceleratorPackage pkg =
      core::compile_source(source, cli.name, cli.compile);
  if (!cli.quiet) std::printf("%s", pkg.summary().c_str());

  const std::string base = cli.out_dir + "/" + cli.name;
  bool ok = write_file(base + "_memory_system.v", pkg.rtl) &&
            write_file(base + "_tb.v", pkg.testbench) &&
            write_file(base + "_kernel.cpp", pkg.kernel_code) &&
            write_file(base + "_accel.hpp", pkg.integration_header) &&
            write_file(base + "_report.json", core::to_json(pkg));
  if (ok && cli.cpp_model) {
    ok = write_file(base + "_model.cpp",
                    codegen::emit_cpp_model(pkg.program, pkg.design));
  }
  if (ok && cli.compile.sim.trace_cycles > 0 &&
      cli.compile.verify_by_simulation) {
    ok = sim::write_vcd(base + ".vcd", pkg.verification, pkg.design,
                        cli.name);
  }
  if (!cli.quiet && ok) {
    std::printf("artifacts written to %s/%s_*.{v,cpp,hpp,json}\n",
                cli.out_dir.c_str(), cli.name.c_str());
  }
  if (cli.compile.verify_by_simulation) {
    // The one-shot verification run's telemetry (FIFO high-water marks,
    // stall cycles, phase latencies) joins the registry next to
    // whatever --serve adds.
    runtime::publish_sim_telemetry(obs::Registry::global(), pkg.design,
                                   pkg.verification);
  }
  if (!ok) return 1;
  return cli.frames > 0 ? serve_frames(pkg, cli) : 0;
}

// The observability tail: --metrics / --trace / --stats read the global
// registry and journal, which every mode feeds. Returns nonzero when an
// export file cannot be written.
int emit_observability(const Cli& cli) {
  const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
  int rc = 0;
  if (!cli.metrics_path.empty() &&
      !write_file(cli.metrics_path, snap.to_json() + "\n")) {
    rc = 1;
  }
  if (!cli.trace_path.empty()) {
    obs::TraceTotals totals;
    if (!write_file(cli.trace_path,
                    obs::Journal::global().chrome_trace(&totals))) {
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
  if (cli.stats) std::printf("%s", snap.to_table().c_str());
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli = parse_args(argc, argv);
  obs::Journal::global().set_thread_name("stencilcc");
  if (!cli.postmortem_dir.empty()) {
    obs::Journal::global().set_postmortem_dir(cli.postmortem_dir);
  }
  std::unique_ptr<obs::MetricsServer> metrics_server;
  if (cli.metrics_port) {
    obs::MetricsServerOptions server_options;
    server_options.port = *cli.metrics_port;
    server_options.sample_period_ms = 200;
    metrics_server = std::make_unique<obs::MetricsServer>(server_options);
    if (!metrics_server->ok()) {
      std::fprintf(stderr, "stencilcc: --metrics-port: %s\n",
                   metrics_server->error().c_str());
      return 1;
    }
    std::printf("metrics: serving http://127.0.0.1:%d/metrics\n",
                metrics_server->port());
    std::fflush(stdout);
  }

  int rc = 0;
  try {
    const std::string source =
        read_source(cli.pipeline.empty() ? cli.input : cli.pipeline);
    rc = cli.temporal            ? run_temporal(source, cli)
         : !cli.pipeline.empty() ? run_pipeline(source, cli)
                                 : run_compile(source, cli);
  } catch (const Error& e) {
    std::fprintf(stderr, "stencilcc: %s\n", e.what());
    return 1;
  }
  // Export files first, then linger (--hold) so a scraper can still reach
  // --metrics-port while the registry is final.
  const int obs_rc = emit_observability(cli);
  if (cli.hold_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(cli.hold_ms));
  }
  return rc != 0 ? rc : obs_rc;
}
