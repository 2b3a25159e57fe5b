#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/engine.hpp"
#include "serve/scheduler.hpp"
#include "serve/tenant.hpp"
#include "stencil/program.hpp"

namespace nup::serve {

namespace detail {
struct RequestState;
struct ServerImpl;
}  // namespace detail

struct ServeOptions {
  /// Instance label: metrics publish as serve.<name>.* (empty: serve.*).
  /// The embedded engine inherits it, so its engine.*/cache.* series are
  /// namespaced the same way.
  std::string name;

  /// Options of the embedded FrameEngine (threads, tile shape, design
  /// cache capacity, build options...). `name`, `metrics` and `journal`
  /// are overridden by the server's own.
  runtime::EngineOptions engine;

  /// Serve-level admission window: how many dispatched frames may be on
  /// the engine at once, across all tenants. A dispatch group is admitted
  /// atomically -- the dispatcher waits until the whole group fits -- so
  /// an affinity group occupies the window as a unit. 0 removes the
  /// bound.
  std::size_t max_frames_in_flight = 4;

  /// Quota applied to tenants that were never explicitly registered.
  TenantQuota default_quota;

  /// Total queued requests (all tenants) before kGlobalQueueFull sheds.
  /// 0 removes the bound.
  std::size_t global_queue_limit = 256;

  Policy policy = Policy::kAffinity;

  obs::Registry* metrics = nullptr;  ///< nullptr = obs::Registry::global()
  obs::Journal* journal = nullptr;   ///< nullptr = obs::Journal::global()
};

/// Future of one admitted request. Handles are cheap shared references; a
/// shed request yields an invalid handle (the verdict says why).
class RequestHandle {
 public:
  RequestHandle() = default;

  bool valid() const { return state_ != nullptr; }
  std::uint64_t id() const;
  const std::string& tenant() const;

  /// Blocks until the request resolves (frame completed, failed or
  /// cancelled -- including cancellation while still queued) and returns
  /// the result; the reference stays valid for the handle's lifetime.
  const runtime::FrameResult& wait();

  /// True when the request resolved within the timeout.
  bool wait_for(std::chrono::milliseconds timeout);

  /// Blocks until the request either reached the engine (true) or was
  /// cancelled/shed while still queued (false). A caller that wants to
  /// cancel a *running* frame (not silently drop a queued one) waits for
  /// admission first.
  bool wait_admitted();

  bool done() const;

  /// Queued: resolves the request as cancelled without ever touching the
  /// engine. Running: cancels the engine frame. Idempotent.
  void cancel();

  /// Microseconds the request spent queued before dispatch (-1 while
  /// still queued or when it never dispatched).
  std::int64_t queue_us() const;

 private:
  friend struct detail::ServerImpl;
  explicit RequestHandle(std::shared_ptr<detail::RequestState> state);
  std::shared_ptr<detail::RequestState> state_;
};

/// Synchronous answer of StencilServer::submit: the admission verdict is
/// decided at the call site (load shedding is explicit and immediate, not
/// a timeout), the handle resolves later.
struct SubmitResult {
  Verdict verdict = Verdict::kShed;
  ShedReason reason = ShedReason::kShuttingDown;
  RequestHandle handle;

  bool admitted() const { return verdict == Verdict::kAdmitted; }
};

/// Mutex-consistent totals of the service (tenant breakdown via
/// tenant_stats).
struct ServeStats {
  std::int64_t submitted = 0;
  std::int64_t admitted = 0;
  std::int64_t shed = 0;
  std::int64_t completed = 0;  ///< resolved ok
  std::int64_t cancelled = 0;
  std::int64_t failed = 0;
  std::int64_t groups = 0;           ///< dispatch groups formed
  std::int64_t design_switches = 0;  ///< pinned-design changes
  std::size_t queued = 0;
  std::size_t in_flight = 0;
};

struct TenantStats {
  std::int64_t submitted = 0;
  std::int64_t shed = 0;
  std::int64_t completed = 0;  ///< resolved (ok, failed or cancelled)
  std::size_t queued = 0;
  std::size_t in_flight = 0;
};

/// Long-lived multi-tenant serving front-end over one FrameEngine: turns
/// the fixed-N batch loop of `stencilcc --serve` into a service. Clients
/// (in-process ServeClient, or the line protocol of serve::ServeEndpoint)
/// submit (kernel, seed) requests under a tenant identity; admission
/// applies per-tenant quotas and global bounds with explicit kShed
/// verdicts; a dispatcher thread drains the queues in weighted-fair order
/// with design-affinity batching -- requests of one canonical design are
/// grouped, the group's tile designs are pinned in the engine's cache,
/// and the whole group is admitted atomically under max_frames_in_flight,
/// so the engine switches designs once per group instead of once per
/// frame.
///
/// Thread safety: every method is safe to call concurrently.
class StencilServer {
 public:
  explicit StencilServer(ServeOptions options = {});
  ~StencilServer();  // shutdown() if still running

  StencilServer(const StencilServer&) = delete;
  StencilServer& operator=(const StencilServer&) = delete;

  /// Registers a kernel under program.name(); submits refer to it by that
  /// name. Tiles the program (plan reused across frames); compilation is
  /// deferred to the first dispatch. Re-registering a name replaces it.
  void add_kernel(const stencil::StencilProgram& program);

  std::vector<std::string> kernels() const;

  /// Registers (or re-quotas) a tenant. Unregistered tenants are
  /// auto-registered with the default quota on first submit.
  void register_tenant(const std::string& tenant, TenantQuota quota);

  /// Registers the tenant with ServeOptions::default_quota unless it is
  /// registered already; a registered tenant keeps its quota (a remote
  /// HELLO must not re-quota what the operator configured). Returns false,
  /// registering nothing, for a new tenant once kMaxJoinedTenants tenants
  /// are registered.
  bool join_tenant(const std::string& tenant);

  /// Tenants past which join_tenant turns new names away: each tenant is
  /// a serve.tenant.<name>.* metric family, so this bounds what a remote
  /// client can add to /metrics.
  static constexpr std::size_t kMaxJoinedTenants = 256;

  /// Admission decision + future for one frame request. Never blocks on
  /// the engine: over-quota submits shed immediately. Throws Error for an
  /// unknown kernel.
  SubmitResult submit(const std::string& tenant, const std::string& kernel,
                      std::uint64_t seed);

  /// Tenant went away: every queued request resolves as cancelled, every
  /// running frame is cancelled at the engine. The tenant may submit
  /// again afterwards (the registration and quota survive).
  void disconnect(const std::string& tenant);

  ServeStats stats() const;
  TenantStats tenant_stats(const std::string& tenant) const;

  /// The embedded engine (for cache/engine stats in tests and benches).
  runtime::FrameEngine& engine();

  /// Stops the dispatcher and the engine: queued requests resolve as
  /// cancelled, dispatched frames drain, design pins are dropped.
  /// Idempotent; submit() sheds with kShuttingDown afterwards.
  void shutdown();

 private:
  std::shared_ptr<detail::ServerImpl> impl_;
};

}  // namespace nup::serve
