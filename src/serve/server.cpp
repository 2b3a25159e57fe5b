#include "serve/server.hpp"

#include <algorithm>
#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "obs/journal.hpp"
#include "runtime/design_cache.hpp"
#include "runtime/tiler.hpp"
#include "util/error.hpp"

namespace nup::serve {

namespace detail {

namespace {

std::int64_t elapsed_us(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Dispatch groups under an unbounded window are still finite: the
/// scheduler re-gathers on the next turn, so a cap only bounds how long
/// the dispatcher runs between scheduling decisions.
constexpr std::size_t kUnboundedGroupCap = 64;

}  // namespace

/// One request's lifecycle state. Lock order: ServerImpl::mu may be held
/// while taking RequestState::mu, never the reverse.
struct RequestState {
  std::uint64_t id = 0;
  std::string tenant;
  std::string kernel;
  std::uint64_t seed = 0;
  std::uint64_t design_key = 0;
  std::shared_ptr<const runtime::TilePlan> plan;
  std::chrono::steady_clock::time_point t_submit;
  std::weak_ptr<ServerImpl> server;

  std::mutex mu;
  std::condition_variable cv;
  enum class State {
    kQueued,    ///< admitted, waiting for dispatch
    kRunning,   ///< engine frame submitted (`frame` valid)
    kResolved,  ///< resolved locally without an engine frame (`local`)
  };
  State state = State::kQueued;
  /// Cancellation noticed while the request sat between scheduler
  /// dequeue and engine submit: the dispatcher resolves it locally.
  bool cancel_requested = false;
  runtime::FrameHandle frame;   ///< immutable once set (state kRunning)
  runtime::FrameResult local;   ///< the result when never dispatched
  std::int64_t queue_us = -1;
};

struct ServerImpl : std::enable_shared_from_this<ServerImpl> {
  ServeOptions options;
  obs::Registry* registry = nullptr;
  std::string prefix;  ///< "serve." or "serve.<name>."
  std::unique_ptr<runtime::FrameEngine> engine;

  struct Kernel {
    stencil::StencilProgram program;
    std::shared_ptr<const runtime::TilePlan> plan;
    std::uint64_t design_key = 0;
  };

  struct TenantEntry {
    obs::Counter* submitted = nullptr;
    obs::Counter* shed = nullptr;
    obs::Counter* completed = nullptr;
    obs::Gauge* queued = nullptr;
    obs::Gauge* inflight = nullptr;
    TenantStats totals;
  };

  mutable std::mutex mu;
  std::condition_variable work_cv;
  bool stopping = false;
  bool shutdown_started = false;
  Scheduler sched;
  std::map<std::string, Kernel> kernel_map;
  std::unordered_map<std::uint64_t, std::shared_ptr<RequestState>> requests;
  std::uint64_t next_id = 1;
  std::size_t window = 0;      ///< 0 = unbounded
  std::size_t slots_free = 0;  ///< meaningful when window != 0
  ServeStats totals;
  std::map<std::string, TenantEntry> tenant_entries;

  /// Designs currently pinned in the engine's cache, dispatcher-owned:
  /// touched only from the dispatcher thread and (after the join) from
  /// shutdown, so it needs no lock of its own.
  std::map<std::uint64_t, std::shared_ptr<const runtime::TilePlan>> pinned;

  obs::Counter* c_submitted = nullptr;
  obs::Counter* c_admitted = nullptr;
  obs::Counter* c_shed = nullptr;
  obs::Counter* c_completed = nullptr;
  obs::Counter* c_cancelled = nullptr;
  obs::Counter* c_failed = nullptr;
  obs::Counter* c_groups = nullptr;
  obs::Counter* c_switches = nullptr;
  obs::Gauge* g_queued = nullptr;
  obs::Gauge* g_inflight = nullptr;
  obs::Histogram* h_queue_us = nullptr;
  obs::Histogram* h_frame_us = nullptr;
  obs::Histogram* h_group_size = nullptr;

  std::thread dispatcher;

  explicit ServerImpl(ServeOptions opts)
      : options(std::move(opts)),
        sched(SchedulerOptions{options.default_quota,
                               options.global_queue_limit,
                               options.policy}) {
    registry = options.metrics != nullptr ? options.metrics
                                          : &obs::Registry::global();
    prefix = options.name.empty() ? std::string("serve.")
                                  : "serve." + options.name + ".";
    window = options.max_frames_in_flight;
    slots_free = window;

    c_submitted = &registry->counter(prefix + "submitted");
    c_admitted = &registry->counter(prefix + "admitted");
    c_shed = &registry->counter(prefix + "shed");
    c_completed = &registry->counter(prefix + "completed");
    c_cancelled = &registry->counter(prefix + "cancelled");
    c_failed = &registry->counter(prefix + "failed");
    c_groups = &registry->counter(prefix + "groups");
    c_switches = &registry->counter(prefix + "design_switches");
    g_queued = &registry->gauge(prefix + "queue_depth");
    g_inflight = &registry->gauge(prefix + "inflight");
    h_queue_us = &registry->histogram(prefix + "queue_us");
    h_frame_us = &registry->histogram(prefix + "frame_us");
    h_group_size = &registry->histogram(prefix + "group_size");

    runtime::EngineOptions eo = options.engine;
    eo.name = options.name;
    eo.metrics = registry;
    eo.journal = options.journal;
    engine = std::make_unique<runtime::FrameEngine>(std::move(eo));
  }

  TenantEntry& ensure_tenant_locked(const std::string& tenant) {
    auto it = tenant_entries.find(tenant);
    if (it != tenant_entries.end()) return it->second;
    TenantEntry e;
    const std::string base = prefix + "tenant." + tenant + ".";
    e.submitted = &registry->counter(base + "submitted");
    e.shed = &registry->counter(base + "shed");
    e.completed = &registry->counter(base + "completed");
    e.queued = &registry->gauge(base + "queued");
    e.inflight = &registry->gauge(base + "inflight");
    return tenant_entries.emplace(tenant, e).first->second;
  }

  std::size_t total_in_flight_locked() const {
    std::size_t n = 0;
    for (const std::string& t : sched.tenants()) n += sched.in_flight(t);
    return n;
  }

  void update_gauges_locked() {
    g_queued->set(static_cast<std::int64_t>(sched.queued()));
    g_inflight->set(static_cast<std::int64_t>(total_in_flight_locked()));
    for (auto& [name, e] : tenant_entries) {
      e.queued->set(static_cast<std::int64_t>(sched.queued(name)));
      e.inflight->set(static_cast<std::int64_t>(sched.in_flight(name)));
      e.totals.queued = sched.queued(name);
      e.totals.in_flight = sched.in_flight(name);
    }
  }

  SubmitResult submit(const std::string& tenant, const std::string& kernel,
                      std::uint64_t seed) {
    std::lock_guard<std::mutex> lock(mu);
    const auto kit = kernel_map.find(kernel);
    if (kit == kernel_map.end()) {
      throw Error("StencilServer::submit: unknown kernel '" + kernel + "'");
    }
    TenantEntry& te = ensure_tenant_locked(tenant);
    ++totals.submitted;
    c_submitted->inc();
    ++te.totals.submitted;
    te.submitted->inc();

    SubmitResult result;
    if (stopping) {
      result.verdict = Verdict::kShed;
      result.reason = ShedReason::kShuttingDown;
      ++totals.shed;
      c_shed->inc();
      ++te.totals.shed;
      te.shed->inc();
      return result;
    }

    const std::uint64_t id = next_id++;
    SchedItem item{id, tenant, kit->second.design_key};
    ShedReason reason = ShedReason::kNone;
    if (sched.submit(item, &reason) == Verdict::kShed) {
      result.verdict = Verdict::kShed;
      result.reason = reason;
      ++totals.shed;
      c_shed->inc();
      ++te.totals.shed;
      te.shed->inc();
      return result;
    }

    auto st = std::make_shared<RequestState>();
    st->id = id;
    st->tenant = tenant;
    st->kernel = kernel;
    st->seed = seed;
    st->design_key = kit->second.design_key;
    st->plan = kit->second.plan;
    st->t_submit = std::chrono::steady_clock::now();
    st->server = weak_from_this();
    requests.emplace(id, st);

    ++totals.admitted;
    c_admitted->inc();
    update_gauges_locked();
    work_cv.notify_all();

    result.verdict = Verdict::kAdmitted;
    result.reason = ShedReason::kNone;
    result.handle = RequestHandle(std::move(st));
    return result;
  }

  /// Resolves a request that never reached the engine as cancelled.
  static void resolve_local_cancelled(RequestState& st) {
    std::lock_guard<std::mutex> lock(st.mu);
    if (st.state != RequestState::State::kQueued) return;
    st.local.seed = st.seed;
    st.local.cancelled = true;
    st.state = RequestState::State::kResolved;
    st.cv.notify_all();
  }

  /// Accounting for a request resolved without an engine frame. The item
  /// was dequeued by next_group iff in_group (then its in-flight slot and
  /// window reservation must be released here).
  void account_local_cancel_locked(const RequestState& st, bool in_group) {
    if (in_group) {
      sched.complete(st.tenant);
      if (window != 0) ++slots_free;
    }
    ++totals.cancelled;
    c_cancelled->inc();
    auto it = tenant_entries.find(st.tenant);
    if (it != tenant_entries.end()) {
      ++it->second.totals.completed;
      it->second.completed->inc();
    }
    requests.erase(st.id);
    update_gauges_locked();
    work_cv.notify_all();
  }

  /// Engine frame resolved (ok, failed or cancelled): free the window
  /// slot and the tenant's in-flight slot, record the SLO observations.
  void finish(const std::shared_ptr<RequestState>& st,
              const runtime::FrameResult& fr) {
    const std::int64_t total_us = elapsed_us(st->t_submit);
    {
      std::lock_guard<std::mutex> lock(mu);
      sched.complete(st->tenant);
      if (window != 0) ++slots_free;
      if (!fr.error.empty()) {
        ++totals.failed;
        c_failed->inc();
      } else if (fr.cancelled) {
        ++totals.cancelled;
        c_cancelled->inc();
      } else {
        ++totals.completed;
        c_completed->inc();
      }
      auto it = tenant_entries.find(st->tenant);
      if (it != tenant_entries.end()) {
        ++it->second.totals.completed;
        it->second.completed->inc();
      }
      requests.erase(st->id);
      update_gauges_locked();
      work_cv.notify_all();
    }
    h_frame_us->observe(total_us);
    {
      // Resolution is serve-authoritative: handles waiting on the request
      // are released only now, after the accounting above, so stats() is
      // consistent the moment any wait() returns.
      std::lock_guard<std::mutex> lock(st->mu);
      if (!st->frame.valid()) {
        // The frame resolved before the dispatcher handed the handle to
        // the request (a very fast frame): keep the result reachable.
        st->local = fr;
      }
      st->state = RequestState::State::kResolved;
      st->cv.notify_all();
    }
  }

  /// Re-points the pinned designs at the group's LEAD design (the first
  /// item: the WFQ leader that seeded the group). The accelerator holds
  /// one configured design set at a time -- pinning exactly one models
  /// that: the previous design is unpinned (rejoining LRU eviction), the
  /// new one is pinned per tile, compiling on a cache miss. That compile
  /// is the design-switch cost the affinity policy amortizes over the
  /// whole group; a design-blind group pays it for every off-design
  /// member, whose tiles contend for whatever capacity the pinned design
  /// left. Dispatcher thread only.
  void adjust_pins(
      const std::vector<std::shared_ptr<RequestState>>& group) {
    std::map<std::uint64_t, std::shared_ptr<const runtime::TilePlan>> need;
    need.emplace(group.front()->design_key, group.front()->plan);
    std::size_t switches = 0;
    for (auto it = pinned.begin(); it != pinned.end();) {
      if (need.count(it->first) != 0) {
        ++it;
        continue;
      }
      for (const runtime::Tile& tile : it->second->tiles) {
        engine->cache().unpin(*tile.program, options.engine.build);
      }
      it = pinned.erase(it);
    }
    for (const auto& [key, plan] : need) {
      if (pinned.count(key) != 0) continue;
      for (const runtime::Tile& tile : plan->tiles) {
        engine->cache().pin(*tile.program, options.engine.build);
      }
      pinned.emplace(key, plan);
      ++switches;
    }
    if (switches != 0) {
      std::lock_guard<std::mutex> lock(mu);
      totals.design_switches += static_cast<std::int64_t>(switches);
      for (std::size_t i = 0; i < switches; ++i) c_switches->inc();
    }
  }

  void dispatch_one(const std::shared_ptr<RequestState>& st) {
    bool cancelled = false;
    {
      std::lock_guard<std::mutex> lock(st->mu);
      cancelled = st->cancel_requested;
    }
    if (cancelled) {
      // Accounting first, resolution second (like finish()): stats() is
      // consistent the moment the handle's wait() returns.
      {
        std::lock_guard<std::mutex> lock(mu);
        account_local_cancel_locked(*st, /*in_group=*/true);
      }
      resolve_local_cancelled(*st);
      return;
    }

    runtime::SubmitOptions so;
    std::weak_ptr<ServerImpl> weak = weak_from_this();
    std::shared_ptr<RequestState> req = st;
    so.on_frame = [weak, req](const runtime::FrameResult& fr) {
      if (std::shared_ptr<ServerImpl> impl = weak.lock()) {
        impl->finish(req, fr);
      }
    };
    // The queue time is fixed before the frame is handed to the engine:
    // a fast frame can resolve (and release waiters) before the
    // dispatcher regains control, and queue_us() must be set by then.
    const std::int64_t queue_us = elapsed_us(st->t_submit);
    {
      std::lock_guard<std::mutex> lock(st->mu);
      st->queue_us = queue_us;
    }
    h_queue_us->observe(queue_us);
    runtime::FrameHandle fh = engine->submit(st->plan, st->seed,
                                             std::move(so));
    bool cancel_now = false;
    {
      std::lock_guard<std::mutex> lock(st->mu);
      st->frame = fh;
      // A cancel() that raced the submit saw no frame handle yet and
      // could only set the flag; it is honoured here.
      cancel_now = st->cancel_requested;
      // finish() may already have run (a fast frame can resolve before
      // the dispatcher reaches this line): never regress kResolved.
      if (st->state == RequestState::State::kQueued) {
        st->state = RequestState::State::kRunning;
      }
      st->cv.notify_all();
    }
    if (cancel_now) fh.cancel();
  }

  void dispatch_loop() {
    (options.journal != nullptr ? options.journal : &obs::Journal::global())
        ->set_thread_name("serve-dispatch");
    for (;;) {
      std::vector<std::shared_ptr<RequestState>> group;
      {
        std::unique_lock<std::mutex> lock(mu);
        work_cv.wait(lock, [&] {
          return stopping ||
                 ((window == 0 || slots_free > 0) && sched.has_eligible());
        });
        if (stopping) return;
        const std::size_t max_size =
            window == 0 ? kUnboundedGroupCap : slots_free;
        const std::vector<SchedItem> items = sched.next_group(max_size);
        if (items.empty()) continue;
        if (window != 0) slots_free -= items.size();
        // Drain before a design switch: the accelerator is reconfigured
        // only between groups, so frames of the outgoing design must
        // leave the window before its tile designs are unpinned (an
        // in-flight frame losing its design to eviction would recompile
        // it mid-group). Same-design groups pipeline without a bubble.
        // On shutdown the wait is abandoned and the group dispatches
        // anyway -- the engine drains it, so no handle is stranded.
        if (window != 0 && !pinned.empty() &&
            pinned.count(items.front().design_key) == 0) {
          work_cv.wait(lock, [&] {
            return stopping || slots_free + items.size() == window;
          });
        }
        ++totals.groups;
        c_groups->inc();
        h_group_size->observe(static_cast<std::int64_t>(items.size()));
        group.reserve(items.size());
        for (const SchedItem& item : items) {
          group.push_back(requests.at(item.id));
        }
        update_gauges_locked();
      }
      adjust_pins(group);
      for (const std::shared_ptr<RequestState>& st : group) {
        dispatch_one(st);
      }
    }
  }

  void cancel_running_locked(const std::string& tenant,
                             std::vector<runtime::FrameHandle>* frames) {
    for (auto& [id, st] : requests) {
      if (st->tenant != tenant) continue;
      std::lock_guard<std::mutex> st_lock(st->mu);
      if (st->frame.valid()) {
        frames->push_back(st->frame);
      } else {
        // Queued, or in the dispatch window between dequeue and engine
        // submit: the dispatcher resolves it as cancelled.
        st->cancel_requested = true;
      }
    }
  }

  void disconnect(const std::string& tenant) {
    std::vector<std::shared_ptr<RequestState>> local;
    std::vector<runtime::FrameHandle> frames;
    {
      std::lock_guard<std::mutex> lock(mu);
      for (const SchedItem& item : sched.drop_tenant(tenant)) {
        auto it = requests.find(item.id);
        if (it != requests.end()) local.push_back(it->second);
      }
      cancel_running_locked(tenant, &frames);
    }
    for (const std::shared_ptr<RequestState>& st : local) {
      {
        std::lock_guard<std::mutex> lock(mu);
        account_local_cancel_locked(*st, /*in_group=*/false);
      }
      resolve_local_cancelled(*st);
    }
    for (runtime::FrameHandle& fh : frames) fh.cancel();
  }

  void shutdown() {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (shutdown_started) return;
      shutdown_started = true;
      stopping = true;
      work_cv.notify_all();
    }
    if (dispatcher.joinable()) dispatcher.join();

    // Drain the queues: whatever never dispatched resolves as cancelled.
    std::vector<std::shared_ptr<RequestState>> local;
    {
      std::lock_guard<std::mutex> lock(mu);
      for (const std::string& tenant : sched.tenants()) {
        for (const SchedItem& item : sched.drop_tenant(tenant)) {
          auto it = requests.find(item.id);
          if (it != requests.end()) local.push_back(it->second);
        }
      }
    }
    for (const std::shared_ptr<RequestState>& st : local) {
      {
        std::lock_guard<std::mutex> lock(mu);
        account_local_cancel_locked(*st, /*in_group=*/false);
      }
      resolve_local_cancelled(*st);
    }

    // In-flight frames drain; their finish() callbacks release the last
    // in-flight slots through the normal path.
    engine->shutdown(runtime::FrameEngine::Drain::kDrainAll);

    // Drop the design pins: after shutdown the cache reports zero pinned
    // entries whatever mix of groups, disconnects and cancels ran.
    for (const auto& [key, plan] : pinned) {
      for (const runtime::Tile& tile : plan->tiles) {
        engine->cache().unpin(*tile.program, options.engine.build);
      }
    }
    pinned.clear();
    std::lock_guard<std::mutex> lock(mu);
    update_gauges_locked();
  }
};

}  // namespace detail

// ---- RequestHandle -----------------------------------------------------

RequestHandle::RequestHandle(std::shared_ptr<detail::RequestState> state)
    : state_(std::move(state)) {}

std::uint64_t RequestHandle::id() const {
  return state_ ? state_->id : 0;
}

const std::string& RequestHandle::tenant() const {
  static const std::string empty;
  return state_ ? state_->tenant : empty;
}

const runtime::FrameResult& RequestHandle::wait() {
  if (!state_) throw Error("RequestHandle::wait on an empty handle");
  detail::RequestState& st = *state_;
  std::unique_lock<std::mutex> lock(st.mu);
  // kResolved is set by the server after its accounting ran, so a caller
  // observing wait() return sees consistent stats()/metrics.
  st.cv.wait(lock, [&] {
    return st.state == detail::RequestState::State::kResolved;
  });
  if (st.frame.valid()) {
    runtime::FrameHandle frame = st.frame;
    lock.unlock();
    return frame.wait();  // already resolved: returns immediately
  }
  return st.local;
}

bool RequestHandle::wait_for(std::chrono::milliseconds timeout) {
  if (!state_) throw Error("RequestHandle::wait_for on an empty handle");
  detail::RequestState& st = *state_;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::unique_lock<std::mutex> lock(st.mu);
  return st.cv.wait_until(lock, deadline, [&] {
    return st.state == detail::RequestState::State::kResolved;
  });
}

bool RequestHandle::wait_admitted() {
  if (!state_) return false;
  detail::RequestState& st = *state_;
  std::unique_lock<std::mutex> lock(st.mu);
  st.cv.wait(lock, [&] {
    return st.state != detail::RequestState::State::kQueued;
  });
  return st.frame.valid();
}

bool RequestHandle::done() const {
  if (!state_) return false;
  detail::RequestState& st = *state_;
  std::lock_guard<std::mutex> lock(st.mu);
  return st.state == detail::RequestState::State::kResolved;
}

void RequestHandle::cancel() {
  if (!state_) return;
  detail::RequestState& st = *state_;
  runtime::FrameHandle frame;
  {
    std::lock_guard<std::mutex> lock(st.mu);
    if (st.frame.valid()) {
      frame = st.frame;
    } else {
      // Still queued (or mid-dispatch): the dispatcher notices the flag
      // and resolves the request as cancelled without an engine frame.
      st.cancel_requested = true;
    }
  }
  if (frame.valid()) frame.cancel();
}

std::int64_t RequestHandle::queue_us() const {
  if (!state_) return -1;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->queue_us;
}

// ---- StencilServer -----------------------------------------------------

StencilServer::StencilServer(ServeOptions options)
    : impl_(std::make_shared<detail::ServerImpl>(std::move(options))) {
  detail::ServerImpl* impl = impl_.get();
  impl_->dispatcher = std::thread([impl] { impl->dispatch_loop(); });
}

StencilServer::~StencilServer() {
  if (impl_) impl_->shutdown();
}

void StencilServer::add_kernel(const stencil::StencilProgram& program) {
  detail::ServerImpl::Kernel k{
      program, impl_->engine->plan_for(program),
      runtime::DesignCache::fingerprint(program,
                                        impl_->options.engine.build)};
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->kernel_map.insert_or_assign(program.name(), std::move(k));
}

std::vector<std::string> StencilServer::kernels() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<std::string> names;
  names.reserve(impl_->kernel_map.size());
  for (const auto& [name, k] : impl_->kernel_map) names.push_back(name);
  return names;
}

void StencilServer::register_tenant(const std::string& tenant,
                                    TenantQuota quota) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->sched.register_tenant(tenant, quota);
  impl_->ensure_tenant_locked(tenant);
}

bool StencilServer::join_tenant(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (!impl_->sched.has_tenant(tenant)) {
    if (impl_->tenant_entries.size() >= kMaxJoinedTenants) return false;
    impl_->sched.register_tenant(tenant, impl_->options.default_quota);
  }
  impl_->ensure_tenant_locked(tenant);
  return true;
}

SubmitResult StencilServer::submit(const std::string& tenant,
                                   const std::string& kernel,
                                   std::uint64_t seed) {
  return impl_->submit(tenant, kernel, seed);
}

void StencilServer::disconnect(const std::string& tenant) {
  impl_->disconnect(tenant);
}

ServeStats StencilServer::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  ServeStats s = impl_->totals;
  s.queued = impl_->sched.queued();
  s.in_flight = impl_->total_in_flight_locked();
  return s;
}

TenantStats StencilServer::tenant_stats(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  const auto it = impl_->tenant_entries.find(tenant);
  TenantStats s;
  if (it != impl_->tenant_entries.end()) s = it->second.totals;
  s.queued = impl_->sched.queued(tenant);
  s.in_flight = impl_->sched.in_flight(tenant);
  return s;
}

runtime::FrameEngine& StencilServer::engine() { return *impl_->engine; }

void StencilServer::shutdown() { impl_->shutdown(); }

}  // namespace nup::serve
