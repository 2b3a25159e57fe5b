// StencilServer end-to-end: multi-tenant serving over one FrameEngine
// must be bit-identical to frame-serial golden execution for every tenant
// and every design in the mix; admission must shed exactly when a quota
// is exceeded (never under it); and the design-pinning dispatcher must
// leave no pins behind after cancellations, mid-flight disconnects and
// shutdown.

#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "stencil/gallery.hpp"
#include "stencil/golden.hpp"
#include "util/error.hpp"

namespace nup::serve {
namespace {

using std::chrono::milliseconds;

// A program whose kernel sleeps: frames take real wall time, so queue
// occupancy (and with it shed verdicts) is deterministic to stage. The
// sleep does not change values, so golden comparison still holds.
stencil::StencilProgram slow_program(std::int64_t rows, std::int64_t cols,
                                     milliseconds per_fire) {
  stencil::StencilProgram p("SLOW",
                            poly::Domain::box({1, 1}, {rows - 2, cols - 2}));
  p.add_input("A", {{-1, 0}, {0, -1}, {0, 0}, {0, 1}, {1, 0}});
  p.set_kernel([per_fire](const std::vector<double>& v) {
    std::this_thread::sleep_for(per_fire);
    return std::accumulate(v.begin(), v.end(), 0.0) / 5.0;
  });
  return p;
}

// Spin until the server reports exactly one dispatched frame and an
// empty queue -- the staging point every shed test builds on.
void wait_one_in_flight(StencilServer& server) {
  for (int i = 0; i < 2000; ++i) {
    const ServeStats s = server.stats();
    if (s.in_flight == 1 && s.queued == 0) return;
    std::this_thread::sleep_for(milliseconds(1));
  }
  FAIL() << "request never reached the engine";
}

// ---- bit-identity -------------------------------------------------------

TEST(StencilServer, TenantsTimesDesignsBitIdenticalToFrameSerial) {
  const std::vector<stencil::StencilProgram> programs = {
      stencil::jacobi_2d(24, 32), stencil::blur_2d(24, 32),
      stencil::denoise_2d(24, 32)};

  ServeOptions options;
  options.engine.threads = 4;
  options.engine.tile_shape = {8, 0};
  options.max_frames_in_flight = 4;
  options.policy = Policy::kAffinity;
  StencilServer server(options);
  for (const stencil::StencilProgram& p : programs) server.add_kernel(p);

  constexpr int kTenants = 3;
  constexpr std::uint64_t kSeedsPerPair = 3;
  std::vector<ServeClient> clients;
  clients.reserve(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    clients.emplace_back(server, "tenant" + std::to_string(t));
  }

  // Every tenant submits every design with tenant-distinct seeds -- a
  // shuffled mix the affinity dispatcher is free to regroup.
  struct Expected {
    std::size_t program;
    std::uint64_t seed;
    RequestHandle handle;
  };
  std::vector<Expected> expected;
  for (int t = 0; t < kTenants; ++t) {
    for (std::size_t p = 0; p < programs.size(); ++p) {
      for (std::uint64_t s = 0; s < kSeedsPerPair; ++s) {
        const std::uint64_t seed = 100 * t + 10 * p + s;
        SubmitResult r =
            clients[t].submit(programs[p].name(), seed);
        ASSERT_TRUE(r.admitted()) << to_string(r.reason);
        expected.push_back(Expected{p, seed, r.handle});
      }
    }
  }

  // Regrouping may change execution order but never bits: every frame is
  // bit-identical to a frame-serial golden run of its (program, seed).
  for (Expected& e : expected) {
    const runtime::FrameResult& result = e.handle.wait();
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(result.outputs,
              stencil::run_golden(programs[e.program], e.seed).outputs)
        << programs[e.program].name() << " seed " << e.seed;
    EXPECT_GE(e.handle.queue_us(), 0);
  }

  const ServeStats stats = server.stats();
  const std::int64_t total =
      static_cast<std::int64_t>(expected.size());
  EXPECT_EQ(stats.submitted, total);
  EXPECT_EQ(stats.admitted, total);
  EXPECT_EQ(stats.completed, total);
  EXPECT_EQ(stats.shed, 0);  // under quota nothing sheds
  EXPECT_EQ(stats.failed, 0);
  EXPECT_GE(stats.groups, 1);
  // Affinity batching switches designs at most once per group -- never
  // once per frame.
  EXPECT_LE(stats.design_switches, stats.groups);
  EXPECT_LT(stats.design_switches, total);

  for (int t = 0; t < kTenants; ++t) {
    const TenantStats ts = server.tenant_stats(clients[t].tenant());
    EXPECT_EQ(ts.submitted, total / kTenants);
    EXPECT_EQ(ts.completed, total / kTenants);
    EXPECT_EQ(ts.shed, 0);
  }

  server.shutdown();
  const runtime::DesignCacheStats cache = server.engine().stats().cache;
  EXPECT_EQ(cache.pinned, 0u) << "shutdown left designs pinned";
  EXPECT_EQ(cache.pins, cache.unpins);
}

TEST(StencilServer, RoundRobinPolicyIsBitIdenticalToo) {
  ServeOptions options;
  options.engine.threads = 2;
  options.engine.tile_shape = {8, 0};
  options.policy = Policy::kRoundRobin;
  StencilServer server(options);
  const stencil::StencilProgram a = stencil::jacobi_2d(20, 24);
  const stencil::StencilProgram b = stencil::blur_2d(20, 24);
  server.add_kernel(a);
  server.add_kernel(b);

  std::vector<RequestHandle> handles;
  for (std::uint64_t s = 0; s < 4; ++s) {
    handles.push_back(server.submit("t", a.name(), s).handle);
    handles.push_back(server.submit("t", b.name(), s).handle);
  }
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const runtime::FrameResult& r = handles[i].wait();
    ASSERT_TRUE(r.ok()) << r.error;
    const stencil::StencilProgram& p = i % 2 == 0 ? a : b;
    EXPECT_EQ(r.outputs, stencil::run_golden(p, i / 2).outputs);
  }
}

// ---- admission and load shedding ---------------------------------------

TEST(StencilServer, ShedsOnlyPastTenantQuota) {
  ServeOptions options;
  options.engine.threads = 1;
  options.engine.tile_shape = {0, 0};  // one tile per frame
  TenantQuota quota;
  quota.max_in_flight = 1;
  quota.max_queued = 2;
  options.default_quota = quota;
  StencilServer server(options);
  server.add_kernel(slow_program(10, 12, milliseconds(1)));

  // Stage: one slow frame on the engine, an empty queue.
  SubmitResult running = server.submit("a", "SLOW", 1);
  ASSERT_TRUE(running.admitted());
  wait_one_in_flight(server);

  // Under quota: exactly max_queued more requests are admitted...
  SubmitResult q1 = server.submit("a", "SLOW", 2);
  SubmitResult q2 = server.submit("a", "SLOW", 3);
  EXPECT_TRUE(q1.admitted());
  EXPECT_TRUE(q2.admitted());

  // ...and one past it sheds with the tenant-queue verdict. The shed
  // request gets no handle and leaves no queue entry behind.
  SubmitResult shed = server.submit("a", "SLOW", 4);
  EXPECT_EQ(shed.verdict, Verdict::kShed);
  EXPECT_EQ(shed.reason, ShedReason::kTenantQueueFull);
  EXPECT_FALSE(shed.handle.valid());

  // Another tenant is not affected by a's full queue.
  SubmitResult other = server.submit("b", "SLOW", 5);
  EXPECT_TRUE(other.admitted());

  for (RequestHandle* h : {&running.handle, &q1.handle, &q2.handle,
                           &other.handle}) {
    EXPECT_TRUE(h->wait().ok()) << h->wait().error;
  }
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 5);
  EXPECT_EQ(stats.admitted, 4);
  EXPECT_EQ(stats.shed, 1);
  EXPECT_EQ(server.tenant_stats("a").shed, 1);
  EXPECT_EQ(server.tenant_stats("b").shed, 0);
}

TEST(StencilServer, ShedsOnGlobalQueueLimit) {
  ServeOptions options;
  options.engine.threads = 1;
  options.engine.tile_shape = {0, 0};
  TenantQuota roomy;
  roomy.max_in_flight = 1;
  roomy.max_queued = 64;
  options.default_quota = roomy;
  options.global_queue_limit = 1;
  StencilServer server(options);
  server.add_kernel(slow_program(10, 12, milliseconds(1)));

  SubmitResult running = server.submit("a", "SLOW", 1);
  ASSERT_TRUE(running.admitted());
  wait_one_in_flight(server);

  SubmitResult queued = server.submit("a", "SLOW", 2);
  ASSERT_TRUE(queued.admitted());
  SubmitResult shed = server.submit("b", "SLOW", 3);
  EXPECT_EQ(shed.verdict, Verdict::kShed);
  EXPECT_EQ(shed.reason, ShedReason::kGlobalQueueFull);

  EXPECT_TRUE(running.handle.wait().ok());
  EXPECT_TRUE(queued.handle.wait().ok());
}

TEST(StencilServer, UnknownKernelThrows) {
  StencilServer server;
  EXPECT_THROW(server.submit("a", "NO_SUCH_KERNEL", 1), Error);
}

TEST(StencilServer, ShutdownShedsNewSubmits) {
  ServeOptions options;
  options.engine.threads = 1;
  StencilServer server(options);
  server.add_kernel(stencil::jacobi_2d(16, 20));
  server.shutdown();

  SubmitResult r = server.submit("a", "JACOBI_2D", 1);
  EXPECT_EQ(r.verdict, Verdict::kShed);
  EXPECT_EQ(r.reason, ShedReason::kShuttingDown);
  EXPECT_FALSE(r.handle.valid());
}

// ---- cancellation and disconnect ---------------------------------------

TEST(StencilServer, CancelQueuedResolvesWithoutTouchingEngine) {
  ServeOptions options;
  options.engine.threads = 1;
  options.engine.tile_shape = {0, 0};
  TenantQuota quota;
  quota.max_in_flight = 1;
  options.default_quota = quota;
  StencilServer server(options);
  server.add_kernel(slow_program(10, 12, milliseconds(1)));

  SubmitResult running = server.submit("a", "SLOW", 1);
  ASSERT_TRUE(running.admitted());
  wait_one_in_flight(server);
  SubmitResult queued = server.submit("a", "SLOW", 2);
  ASSERT_TRUE(queued.admitted());

  queued.handle.cancel();
  const runtime::FrameResult& cancelled = queued.handle.wait();
  EXPECT_TRUE(cancelled.cancelled);
  EXPECT_FALSE(cancelled.ok());
  EXPECT_FALSE(queued.handle.wait_admitted());  // it never dispatched
  EXPECT_EQ(queued.handle.queue_us(), -1);

  EXPECT_TRUE(running.handle.wait().ok());
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.cancelled, 1);
  // The cancelled request never became an engine frame.
  EXPECT_EQ(server.engine().stats().frames_submitted, 1);
}

TEST(StencilServer, ReplacingAKernelUnderItsNameServesTheNewKernel) {
  // add, replace, submit: the replacement has the old one's name and
  // window but another kernel, and its frames must equal its own golden.
  for (const std::int64_t width : {1, 8}) {
    ServeOptions options;
    options.engine.threads = 2;
    options.engine.build.datapath_width = width;
    StencilServer server(options);
    const stencil::StencilProgram jacobi = stencil::jacobi_2d(64, 64);
    stencil::StencilProgram replacement = stencil::jacobi_2d(64, 64);
    replacement.set_weighted_sum({1, 0, 0, 0, 0});

    server.add_kernel(jacobi);
    SubmitResult before = server.submit("a", jacobi.name(), 4);
    ASSERT_TRUE(before.admitted());
    EXPECT_EQ(before.handle.wait().outputs,
              stencil::run_golden(jacobi, 4).outputs);

    server.add_kernel(replacement);
    SubmitResult after = server.submit("a", jacobi.name(), 4);
    ASSERT_TRUE(after.admitted());
    EXPECT_EQ(after.handle.wait().outputs,
              stencil::run_golden(replacement, 4).outputs)
        << "W=" << width << ": the replaced kernel is still served";
  }
}

TEST(StencilServer, ServedFrameStateIsFreedAfterWaitAndHandleRelease) {
  // Every served frame used to stay reachable through a cycle: engine
  // frame -> on_frame hook -> serve request -> frame handle. The tile plan
  // counts the owners: each live request and each live engine frame holds
  // a reference to it.
  ServeOptions options;
  options.engine.threads = 2;
  StencilServer server(options);
  const stencil::StencilProgram p = stencil::jacobi_2d(16, 20);
  server.add_kernel(p);
  const std::shared_ptr<const runtime::TilePlan> plan =
      server.engine().plan_for(p);
  const long owners_before = plan.use_count();

  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SubmitResult r = server.submit("a", "JACOBI_2D", seed);
    ASSERT_TRUE(r.admitted());
    EXPECT_TRUE(r.handle.wait().ok());
  }  // every request handle is released here
  // Shutdown joins the dispatcher and the engine workers (the last
  // transient owners) and drops the design pins.
  server.shutdown();
  EXPECT_EQ(plan.use_count(), owners_before);
}

TEST(StencilServer, CancelRunningFrameAfterAdmission) {
  ServeOptions options;
  options.engine.threads = 1;
  options.engine.tile_shape = {1, 0};  // many tiles: cancel lands mid-frame
  StencilServer server(options);
  server.add_kernel(slow_program(12, 10, milliseconds(1)));

  SubmitResult r = server.submit("a", "SLOW", 7);
  ASSERT_TRUE(r.admitted());
  ASSERT_TRUE(r.handle.wait_admitted());  // reached the engine
  r.handle.cancel();
  const runtime::FrameResult& result = r.handle.wait();
  EXPECT_TRUE(result.cancelled);
  EXPECT_EQ(server.stats().cancelled, 1);
  EXPECT_EQ(server.engine().stats().frames_cancelled, 1);
}

TEST(StencilServer, MidFlightDisconnectLeavesNoPinsAndNoHangs) {
  ServeOptions options;
  options.engine.threads = 2;
  options.engine.tile_shape = {2, 0};
  TenantQuota quota;
  quota.max_in_flight = 2;
  quota.max_queued = 64;
  options.default_quota = quota;
  options.max_frames_in_flight = 2;
  StencilServer server(options);
  // Two distinct designs so the disconnect lands while designs are
  // pinned and group switches are happening.
  server.add_kernel(slow_program(12, 10, milliseconds(1)));
  server.add_kernel(stencil::jacobi_2d(20, 24));

  ServeClient doomed(server, "doomed", quota);
  ServeClient survivor(server, "survivor", quota);
  for (std::uint64_t s = 0; s < 6; ++s) {
    doomed.submit(s % 2 == 0 ? "SLOW" : "JACOBI_2D", s);
    survivor.submit(s % 2 == 0 ? "JACOBI_2D" : "SLOW", s);
  }

  // The tenant vanishes with work queued and frames running.
  doomed.disconnect();

  // Every handle of the doomed tenant still resolves -- cancelled or
  // with whatever completed first -- and the survivor is untouched.
  for (RequestHandle h : doomed.outstanding()) {
    const runtime::FrameResult& r = h.wait();
    EXPECT_TRUE(r.ok() || r.cancelled) << r.error;
  }
  EXPECT_EQ(survivor.wait_all(), 6u);
  EXPECT_EQ(server.tenant_stats("survivor").completed, 6);

  // A disconnected tenant may come back.
  SubmitResult back = server.submit("doomed", "JACOBI_2D", 99);
  ASSERT_TRUE(back.admitted());
  EXPECT_TRUE(back.handle.wait().ok());

  server.shutdown();
  const runtime::DesignCacheStats cache = server.engine().stats().cache;
  EXPECT_EQ(cache.pinned, 0u) << "disconnect leaked design pins";
  EXPECT_EQ(cache.pins, cache.unpins);
}

TEST(StencilServer, ShutdownResolvesQueuedWorkAsCancelled) {
  ServeOptions options;
  options.engine.threads = 1;
  options.engine.tile_shape = {0, 0};
  TenantQuota quota;
  quota.max_in_flight = 1;
  options.default_quota = quota;
  StencilServer server(options);
  server.add_kernel(slow_program(10, 12, milliseconds(1)));

  SubmitResult running = server.submit("a", "SLOW", 1);
  ASSERT_TRUE(running.admitted());
  wait_one_in_flight(server);
  SubmitResult queued = server.submit("a", "SLOW", 2);
  ASSERT_TRUE(queued.admitted());

  server.shutdown();
  EXPECT_TRUE(running.handle.done());
  EXPECT_TRUE(queued.handle.done());
  // The dispatched frame drains; the queued one resolves cancelled
  // without ever reaching the engine.
  EXPECT_TRUE(running.handle.wait().ok() ||
              running.handle.wait().cancelled);
  EXPECT_TRUE(queued.handle.wait().cancelled);
  EXPECT_EQ(server.engine().stats().cache.pinned, 0u);
}

// ---- observability ------------------------------------------------------

TEST(StencilServer, MetricsRegistryAndTenantLabelFolding) {
  obs::Registry registry;
  ServeOptions options;
  options.engine.threads = 2;
  options.engine.tile_shape = {8, 0};
  options.metrics = &registry;
  StencilServer server(options);
  server.add_kernel(stencil::jacobi_2d(20, 24));
  server.add_kernel(stencil::blur_2d(20, 24));

  ServeClient a(server, "alpha");
  ServeClient b(server, "beta");
  for (std::uint64_t s = 0; s < 3; ++s) {
    ASSERT_TRUE(a.submit("JACOBI_2D", s).admitted());
    ASSERT_TRUE(b.submit("BLUR_3x3", s).admitted());
  }
  EXPECT_EQ(a.wait_all(), 3u);
  EXPECT_EQ(b.wait_all(), 3u);

  const ServeStats stats = server.stats();
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.value_of("serve.submitted"), stats.submitted);
  EXPECT_EQ(snap.value_of("serve.admitted"), stats.admitted);
  EXPECT_EQ(snap.value_of("serve.completed"), stats.completed);
  EXPECT_EQ(snap.value_of("serve.shed"), 0);
  EXPECT_EQ(snap.value_of("serve.groups"), stats.groups);
  EXPECT_EQ(snap.value_of("serve.design_switches"),
            stats.design_switches);
  EXPECT_EQ(snap.value_of("serve.tenant.alpha.submitted"), 3);
  EXPECT_EQ(snap.value_of("serve.tenant.beta.completed"), 3);
  // SLO histograms: one queue-time observation per dispatched request,
  // one frame-time observation per resolved frame.
  EXPECT_EQ(registry.histogram("serve.queue_us").snapshot().count,
            stats.admitted);
  EXPECT_EQ(registry.histogram("serve.frame_us").snapshot().count,
            stats.completed);

  // The exposition folds per-tenant series into one family with a
  // tenant label (not one family per tenant).
  const std::string expo = registry.snapshot_openmetrics();
  EXPECT_NE(expo.find("# TYPE serve_tenant_submitted counter"),
            std::string::npos)
      << expo;
  EXPECT_NE(expo.find("serve_tenant_submitted_total{tenant=\"alpha\"} 3"),
            std::string::npos);
  EXPECT_NE(expo.find("serve_tenant_submitted_total{tenant=\"beta\"} 3"),
            std::string::npos);
  EXPECT_EQ(expo.find("serve_tenant_alpha"), std::string::npos)
      << "tenant name leaked into a family name";
}

TEST(StencilServer, NamedInstanceNamespacesItsMetrics) {
  obs::Registry registry;
  ServeOptions options;
  options.name = "edge";
  options.engine.threads = 1;
  options.metrics = &registry;
  StencilServer server(options);
  server.add_kernel(stencil::jacobi_2d(16, 20));
  SubmitResult r = server.submit("a", "JACOBI_2D", 1);
  ASSERT_TRUE(r.admitted());
  ASSERT_TRUE(r.handle.wait().ok());

  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.value_of("serve.edge.completed"), 1);
  EXPECT_EQ(snap.value_of("serve.edge.tenant.a.completed"), 1);
  // The embedded engine inherits the instance name.
  EXPECT_EQ(snap.value_of("engine.edge.frames_completed"), 1);

  const std::string expo = registry.snapshot_openmetrics();
  EXPECT_NE(
      expo.find("serve_edge_tenant_completed_total{tenant=\"a\"} 1"),
      std::string::npos)
      << expo;
}

// The dispatcher submits every admitted frame to the engine, so the
// engine's frame.admitted events land on the dispatcher's thread; the
// rendered trace must name that thread rather than fall back to a number.
TEST(StencilServer, DispatcherNamesItsJournalThread) {
  obs::Journal journal;
  obs::Registry registry;
  ServeOptions options;
  options.engine.threads = 1;
  options.metrics = &registry;
  options.journal = &journal;
  StencilServer server(options);
  server.add_kernel(stencil::jacobi_2d(16, 20));
  for (std::uint64_t seed = 0; seed < 2; ++seed) {
    SubmitResult r = server.submit("a", "JACOBI_2D", seed);
    ASSERT_TRUE(r.admitted());
    ASSERT_TRUE(r.handle.wait().ok());
  }
  server.shutdown();

  std::set<std::uint32_t> admitting;
  for (const obs::JournalRecord& r : journal.snapshot()) {
    if (r.kind == obs::JournalKind::kFrameAdmitted) admitting.insert(r.thread);
  }
  ASSERT_EQ(admitting.size(), 1u);
  const std::string json = journal.chrome_trace();
  const std::size_t at = json.find(
      "\"name\":\"thread_name\",\"cat\":\"__metadata\",\"pid\":1,"
      "\"tid\":" +
      std::to_string(*admitting.begin()) + ",");
  ASSERT_NE(at, std::string::npos) << json;
  const std::string record = json.substr(at, json.find("}}", at) - at);
  EXPECT_NE(record.find("\"args\":{\"name\":\"serve-dispatch\""),
            std::string::npos)
      << record;
}

}  // namespace
}  // namespace nup::serve
