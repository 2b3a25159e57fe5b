// paper_frames_wire: the paper's 2-D benchmarks at 768x1024 over the
// loopback line protocol. Two tenant connections each rotate through the
// four kernels with two requests outstanding; every WAIT checksum is
// compared with output_checksum(run_golden) computed before timing.
//
// Why: the FastSim step loop does most of the work (the traced run reports
// the share as sol.sim_share_of_cpu), the design cache only hits and the
// wire moves one line each way per frame -- a simulator or tile-execution
// speed-up shows here, a cache or wire change should not. The engine has
// two workers, half of a 4-vCPU host, so a vCPU the hypervisor stalls
// holds up one worker, not every one.
#include <unistd.h>

#include <deque>
#include <memory>
#include <sstream>
#include <thread>

#include "layers.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "stencil/gallery.hpp"
#include "stencil/golden.hpp"
#include "util/socket.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace nup;

namespace {

constexpr std::int64_t kRows = 768;
constexpr std::int64_t kCols = 1024;
constexpr int kConnections = 2;
constexpr std::size_t kOutstanding = 2;
constexpr std::size_t kEngineThreads = 2;
constexpr std::size_t kSeedsPerKernel = 6;

serve::ServeOptions serve_options(obs::Registry* registry) {
  serve::ServeOptions o;
  o.name = "wire";
  o.engine.threads = kEngineThreads;
  o.metrics = registry;
  return o;
}

using obs::Histogram;

/// A histogram's observations between two snapshots of it.
Histogram::Snapshot histogram_delta(const Histogram::Snapshot& before,
                                    const Histogram::Snapshot& after) {
  Histogram::Snapshot d = after;
  d.count = after.count - before.count;
  d.sum = after.sum - before.sum;
  for (std::size_t b = 0; b < d.counts.size() && b < before.counts.size(); ++b) {
    d.counts[b] -= before.counts[b];
  }
  return d;
}

/// Snapshot of one histogram of `registry` (empty when absent).
Histogram::Snapshot histogram_of(const obs::Registry& registry, const std::string& name) {
  for (const obs::MetricSample& s : registry.snapshot().samples) {
    if (s.kind == obs::MetricSample::Kind::kHistogram && s.name == name) return s.hist;
  }
  return {};
}

/// One tenant connection speaking the line protocol.
class Conn {
 public:
  explicit Conn(int port) : fd_(util::connect_loopback(port)), reader_(fd_) {}
  ~Conn() {
    if (fd_ >= 0) {
      std::string reply;
      call("QUIT", &reply);
      ::close(fd_);
    }
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Sends one command and reads its reply line; false on a dead link.
  bool call(const std::string& line, std::string* reply) {
    return fd_ >= 0 && util::write_all(fd_, line + "\n") && reader_.next_line(reply);
  }

 private:
  int fd_;
  util::LineReader reader_;
};

/// A running service: server, endpoint and the tenant connections.
struct Service {
  obs::Registry registry;
  serve::StencilServer server;
  serve::ServeEndpoint endpoint;
  std::vector<std::unique_ptr<Conn>> conns;

  explicit Service(const std::vector<stencil::StencilProgram>& programs)
      : server(serve_options(&registry)), endpoint(server) {
    for (const stencil::StencilProgram& p : programs) server.add_kernel(p);
    if (!endpoint.ok()) throw std::runtime_error("endpoint: " + endpoint.error());
    for (int c = 0; c < kConnections; ++c) {
      conns.push_back(std::make_unique<Conn>(endpoint.port()));
      std::string reply;
      const std::string tenant = "t" + std::to_string(c);
      if (!conns.back()->call("HELLO " + tenant, &reply) || reply != "OK " + tenant) {
        throw std::runtime_error("HELLO failed: " + reply);
      }
    }
  }
  ~Service() {
    conns.clear();
    server.shutdown();
    endpoint.stop();
  }
};

struct Inputs {
  std::vector<stencil::StencilProgram> programs;
  std::vector<std::vector<std::uint64_t>> seeds;     ///< [kernel][k]
  std::vector<std::vector<std::uint64_t>> expected;  ///< golden checksums
  std::vector<std::int64_t> outputs;                 ///< outputs per frame
  std::vector<std::vector<std::size_t>> order;       ///< per connection
};

/// One outstanding request of a connection.
struct Request {
  std::string id;
  std::size_t kernel = 0;
  std::size_t slot = 0;
  std::int64_t t_submit_ns = 0;
  std::uint64_t span = 0;
};

/// True when a WAIT reply -- DONE <id> <status> <outputs> <checksum> --
/// reports request `id` resolved ok with the golden output count and
/// checksum of (kernel, slot).
bool done_ok(const std::string& reply, const std::string& id, const Inputs& in,
             std::size_t kernel, std::size_t slot) {
  std::istringstream words(reply);
  std::string done, got_id, status;
  std::int64_t outputs = 0;
  std::uint64_t checksum = 0;
  words >> done >> got_id >> status >> outputs >> checksum;
  return done == "DONE" && got_id == id && status == "ok" && outputs == in.outputs[kernel] &&
         checksum == in.expected[kernel][slot];
}

std::string submit_line(const Inputs& in, std::size_t kernel, std::size_t slot) {
  return "SUBMIT " + in.programs[kernel].name() + " " + std::to_string(in.seeds[kernel][slot]);
}

/// SUBMIT + WAIT of the set-up frame, checked like every other frame.
void set_up_frame(Conn& conn, const Inputs& in, std::size_t kernel, std::size_t slot, Gate* gate) {
  std::string reply;
  bool ok = conn.call(submit_line(in, kernel, slot), &reply) && reply.rfind("OK ", 0) == 0;
  const std::string id = ok ? reply.substr(3) : "";
  ok = ok && conn.call("WAIT " + id, &reply) && done_ok(reply, id, in, kernel, slot);
  gate->record(ok, in.programs[kernel].name() + " -> " + reply);
}

struct ConnStats {
  Gate gate;
  std::int64_t ok = 0;
  std::vector<double> latency_ms;
  std::vector<std::int64_t> done_ns;
  std::vector<double> rtt_us;
};

void drive_connection(Conn& conn, const Inputs& in, std::size_t c, SeedStream rng,
                      Clock::time_point deadline, Spans& spans, ConnStats* out) {
  std::deque<Request> pending;
  std::size_t turn = 0;
  auto submit = [&] {
    Request r;
    r.kernel = in.order[c][turn++ % in.order[c].size()];
    r.slot = rng.below(kSeedsPerKernel);
    r.span = spans.new_id();
    r.t_submit_ns = Spans::now_ns();
    std::string reply;
    const bool sent = conn.call(submit_line(in, r.kernel, r.slot), &reply);
    const std::int64_t t_ok = Spans::now_ns();
    spans.record("serve.wire.submit", spans.new_id(), r.span, r.t_submit_ns, t_ok);
    out->rtt_us.push_back((t_ok - r.t_submit_ns) / 1e3);
    if (!sent || reply.rfind("OK ", 0) != 0) {
      out->gate.record(false, "SUBMIT -> " + reply);
      return;
    }
    r.id = reply.substr(3);
    pending.push_back(r);
  };
  for (;;) {
    while (pending.size() < kOutstanding && Clock::now() < deadline) submit();
    if (pending.empty()) break;
    const Request r = pending.front();
    pending.pop_front();
    std::string reply;
    bool ok;
    {
      Spans::Scope wait(spans, "serve.wire.wait", r.span);
      ok = conn.call("WAIT " + r.id, &reply);
    }
    {
      Spans::Scope verify(spans, "stencil.verify", r.span);
      ok = ok && done_ok(reply, r.id, in, r.kernel, r.slot);
    }
    const std::int64_t t_done = Spans::now_ns();
    spans.record("request", r.span, 0, r.t_submit_ns, t_done);
    if (out->gate.record(ok, in.programs[r.kernel].name() + " -> " + reply)) {
      ++out->ok;
      out->latency_ms.push_back((t_done - r.t_submit_ns) / 1e6);
      out->done_ns.push_back(t_done);
    }
  }
}

/// Closed loop on every connection for `seconds`.
Phase measure(Service& svc, const Inputs& in, double seconds, SeedStream& rng,
              Spans& spans, Gate* gate, std::vector<double>* rtt_us) {
  std::vector<ConnStats> stats(svc.conns.size());
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  const std::int64_t t0_ns = Spans::now_ns();
  const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < svc.conns.size(); ++c) {
    threads.emplace_back(drive_connection, std::ref(*svc.conns[c]), std::cref(in), c,
                         SeedStream(rng.next()), deadline, std::ref(spans), &stats[c]);
  }
  Phase phase;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds / 2));
  phase.threads = os_threads();
  for (std::thread& t : threads) t.join();
  phase.seconds = seconds_since(t0);
  phase.cpu_s = process_cpu_s() - cpu0;
  for (ConnStats& s : stats) {
    gate->merge(s.gate);
    phase.frames_ok += s.ok;
    phase.latency_ms.insert(phase.latency_ms.end(), s.latency_ms.begin(), s.latency_ms.end());
    for (const std::int64_t t : s.done_ns) phase.done_s.push_back((t - t0_ns) / 1e9);
    rtt_us->insert(rtt_us->end(), s.rtt_us.begin(), s.rtt_us.end());
  }
  return phase;
}

}  // namespace

Result run_paper_frames_wire(const Args& args) {
  Result res;
  SeedStream rng(args.seed, 0x57495245);
  Inputs in;
  in.programs = {stencil::denoise_2d(kRows, kCols), stencil::rician_2d(kRows, kCols),
                 stencil::sobel_2d(kRows, kCols), stencil::bicubic_2d(kRows, kCols)};

  // Golden references, before anything is timed.
  std::vector<double> golden_ms;
  for (const stencil::StencilProgram& p : in.programs) {
    in.seeds.emplace_back();
    in.expected.emplace_back();
    std::size_t outputs = 0;
    for (std::size_t k = 0; k < kSeedsPerKernel; ++k) {
      const std::uint64_t seed = rng.next();
      const auto t0 = Clock::now();
      const stencil::GoldenRun g = stencil::run_golden(p, seed);
      golden_ms.push_back(1e3 * seconds_since(t0));
      in.seeds.back().push_back(seed);
      in.expected.back().push_back(serve::output_checksum(g.outputs));
      outputs = g.outputs.size();
    }
    in.outputs.push_back(static_cast<std::int64_t>(outputs));
  }
  if (args.corrupt_golden) {
    for (std::uint64_t& e : in.expected[1]) e ^= 1;
  }
  for (int c = 0; c < kConnections; ++c) in.order.push_back(seeded_order(in.programs.size(), rng));

  // Set-up: service construction (tiling, endpoint, connections) until the
  // first frame -- always DENOISE, so every seed compiles the same designs
  // -- resolves.
  auto set_up = [&] {
    auto svc = std::make_unique<Service>(in.programs);
    set_up_frame(*svc->conns[0], in, 0, rng.below(kSeedsPerKernel), &res.gate);
    return svc;
  };
  std::vector<double> setup_samples;
  std::unique_ptr<Service> svc = set_up_before(set_up, &setup_samples);

  // Warm-up: every connection's rotation visits all four kernels within
  // its first four requests, so the measured phase only hits.
  Spans off(false);
  std::vector<double> rtt_warm;
  measure(*svc, in, kWarmupSeconds, rng, off, &res.gate, &rtt_warm);

  const auto serve0 = svc->server.stats();
  const auto cache0 = svc->server.engine().stats().cache;
  const auto queue0 = histogram_of(svc->registry, "serve.wire.queue_us");
  Spans spans(args.trace);
  std::vector<double> rtt_us, rtt_untraced;
  Phase untraced, traced;
  measure_phases(args, spans, [&](Spans& s, double seconds) {
    return measure(*svc, in, seconds, rng, s, &res.gate,
                   s.enabled() ? &rtt_us : &rtt_untraced);
  }, &untraced, &traced);
  if (!args.trace) {
    svc.reset();
    set_up_after(set_up, &setup_samples);
  }
  report_phase(untraced, setup_samples, &res);
  res.note("golden (run_golden) " + describe_sample(golden_ms, "ms"));
  if (!args.trace) return res;

  // Layer numbers of the measured blocks, then the isolated probes.
  const auto queue = histogram_delta(queue0, histogram_of(svc->registry, "serve.wire.queue_us"));
  const auto serve1 = svc->server.stats();
  const auto cache1 = svc->server.engine().stats().cache;
  svc.reset();
  report_overhead(untraced, traced, &res);

  const std::int64_t frames = untraced.frames_ok + traced.frames_ok;
  report_serve_layers(serve0, serve1, cache0, cache1, frames, &res);
  res.set("serve.queue_ms_p50", queue.percentile(0.5) / 1e3, "ms");
  res.set("serve.queue_ms_p90", queue.percentile(0.9) / 1e3, "ms");
  res.note(fmt("serve.queue_ms from the serve.wire.queue_us histogram (bucketed), n=%lld",
               static_cast<long long>(queue.count)));
  res.set("serve.wire_submit_rtt_us_p50", percentile(rtt_us, 50), "us");
  res.note("serve.wire_submit_rtt " + describe_sample(rtt_us, "us"));
  res.set("runtime.os_threads", static_cast<double>(traced.threads), "count");

  {
    Spans::Scope probes(spans, "probe", 0);
    runtime::EngineOptions engine = serve_options(nullptr).engine;
    const LayerProbe probe = probe_layers(frame_mix(in.programs, std::vector<double>(4, 1.0 / 4), engine), engine.build,
                                          in.seeds[0][0], spans, probes.id());
    report_probe(probe, untraced, golden_ms, &res);
    res.set("runtime.engine_frame_ms_p50",
            engine_frame_ms_p50(in.programs, engine, in.seeds[0], 8, spans, probes.id()), "ms");
  }
  finish_trace(args, spans, &res);
  return res;
}

}  // namespace perfbench
