#include "pipeline/executor.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <utility>

#include "pipeline/dependency.hpp"
#include "util/error.hpp"

namespace nup::pipeline {

namespace {

std::int64_t elapsed_us(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

void atomic_max(std::atomic<std::int64_t>& a, std::int64_t v) {
  std::int64_t cur = a.load(std::memory_order_relaxed);
  while (cur < v && !a.compare_exchange_weak(cur, v)) {
  }
}

}  // namespace

namespace detail {

/// Shared state of one pipelined frame: one deferred engine frame per
/// stage plus the scheduling state threading them together. Slices are
/// written by the thread that readied the tile and read by the worker that
/// executes it; the engine queue lock orders the two, so no slice is ever
/// touched concurrently. Several frames coexist (the admission window);
/// each has its own buffers and countdowns, sharing only the executor's
/// tracker, engine, and slab pools.
struct FrameCtx {
  std::weak_ptr<PipelineExecutor::Impl> impl;
  std::uint64_t seed = 0;
  FrameOptions frame_options;
  std::uint64_t frame_id = 0;  ///< tracker frame id (unique while armed)
  std::uint64_t trace_id = 0;  ///< causal id threaded through every stage
  bool own_events = true;      ///< pipeline owns the frame's post-mortem
  std::chrono::steady_clock::time_point t0;

  std::vector<runtime::FrameHandle> handles;          // per stage
  std::vector<std::unique_ptr<StageBuffer>> buffers;  // per edge

  /// slices[stage][tile][input]: stitched inputs of one tile (empty Slice
  /// for external inputs). Freed by the tile's on_tile.
  std::vector<std::vector<std::vector<Slice>>> slices;

  /// Per stage: a sink stage's (no out edges) full-frame outputs, which its
  /// tiles' on_tile scatter through output_ranks at disjoint ranks;
  /// assemble() moves them into the result. Empty for every other stage,
  /// whose outputs only ever live tile by tile in the edge buffers.
  std::vector<std::vector<double>> sink_outputs;

  std::mutex mu;  ///< guards released (handing a tile to its engine)
  std::vector<std::vector<char>> released;  // per (stage, tile)
  std::atomic<bool> aborted{false};

  /// Tiles not yet resolved, over all stages. Every tile passes through
  /// on_tile exactly once -- executed, failed, or skipped -- and
  /// decrements this at the end; the thread that reaches zero runs
  /// frame_done (retire the tracker slot, open the admission window).
  std::atomic<std::int64_t> tiles_left{0};

  std::vector<std::atomic<std::int64_t>> first_us;  // per stage, -1 = none
  std::vector<std::atomic<std::int64_t>> last_us;
  std::atomic<std::int64_t> last_event_us{0};

  std::mutex result_mu;
  bool assembled = false;
  PipelineResult result;
};

}  // namespace detail

using detail::FrameCtx;

struct PipelineExecutor::Impl
    : std::enable_shared_from_this<PipelineExecutor::Impl> {
  StageGraph graph;
  PipelineOptions options;
  obs::Registry* registry = nullptr;
  obs::Journal* journal = nullptr;
  std::uint32_t jname = 0;

  /// The one engine every stage's deferred frames run on; shared with
  /// other executors when handed in (the temporal runner's pass shapes).
  std::shared_ptr<runtime::FrameEngine> engine;
  bool owns_engine = false;  ///< built here: shutdown() stops it
  std::vector<std::shared_ptr<const runtime::TilePlan>> plans;  // per stage
  std::vector<std::size_t> tiles_per_stage;
  std::vector<std::shared_ptr<const EdgeTileMap>> maps;  // per edge
  /// Per-edge row-copy plans of every consumer tile's slice, shared by
  /// every frame's StageBuffer like the maps.
  std::vector<std::shared_ptr<const EdgeStitchPlan>> stitch_plans;
  /// Per-edge occupancy series, resolved here once and handed to every
  /// frame's StageBuffer.
  std::vector<EdgeMetrics> edge_metrics;
  /// Per-edge slab arenas, shared by every frame crossing the edge: the
  /// storage retired by frame f is what frame f+1 admits into, which is
  /// what makes the steady-state hot path allocation-free.
  std::vector<std::shared_ptr<SlabPool>> pools;
  /// Per-stage tile placements (null when running single-node): handed to
  /// every frame's StageBuffers so slabs route through the owning node's
  /// pool arena.
  std::vector<std::shared_ptr<const runtime::PlacementPlan>> placements;
  /// Per-stage tile designs, pinned (and kept alive) for the executor's
  /// lifetime and handed to every frame via SubmitOptions::designs:
  /// steady-state frames never recompile or even look up a cache key.
  /// Unpinned at shutdown so the cache reports zero pins afterwards.
  std::vector<
      std::shared_ptr<const std::vector<
          std::shared_ptr<const runtime::CachedDesign>>>>
      stage_designs;
  /// One tracker for all frames: arm()/resolve()/retire() with the frame
  /// id selecting the slot, so concurrent frames never share countdowns.
  std::unique_ptr<DependencyTracker> tracker;

  std::vector<obs::Histogram*> h_ready;  // per edge: readiness latency
  obs::Counter* c_submitted = nullptr;
  obs::Counter* c_completed = nullptr;
  obs::Counter* c_failed = nullptr;
  obs::Counter* c_cancelled = nullptr;
  obs::Counter* c_released = nullptr;
  obs::Gauge* g_inflight = nullptr;
  obs::Gauge* g_inflight_max = nullptr;
  obs::Histogram* h_overlap = nullptr;
  obs::Histogram* h_admission = nullptr;

  std::mutex mu;
  std::condition_variable window_cv;  ///< submitters wait for window space
  bool accepting = true;
  bool unpinned = false;  ///< shutdown already dropped the design pins
  std::uint64_t next_frame_id = 0;
  std::size_t frames_active = 0;  ///< admitted, not yet fully resolved
  std::vector<std::shared_ptr<FrameCtx>> inflight;
  /// Completion time of the frame that resolved last, for the interleave
  /// overlap histogram: a finishing frame that started before its
  /// predecessor completed overlapped it by (predecessor done - t0).
  std::chrono::steady_clock::time_point last_done;
  bool have_last_done = false;

  Impl(StageGraph g, PipelineOptions opts,
       std::shared_ptr<runtime::FrameEngine> shared)
      : graph(std::move(g)), options(std::move(opts)) {
    registry = options.metrics ? options.metrics : &obs::Registry::global();
    journal = options.journal ? options.journal : &obs::Journal::global();
    jname = journal->intern(
        options.name.empty() ? "pipeline" : "pipeline." + options.name);
    if (graph.stage_count() == 0) {
      throw Error("PipelineExecutor: empty stage graph");
    }
    graph.schedule();  // rejects cyclic graphs up front

    const std::string pfx =
        "pipeline." +
        (options.name.empty() ? std::string() : options.name + ".");
    c_submitted = &registry->counter(pfx + "frames_submitted");
    c_completed = &registry->counter(pfx + "frames_completed");
    c_failed = &registry->counter(pfx + "frames_failed");
    c_cancelled = &registry->counter(pfx + "frames_cancelled");
    c_released = &registry->counter(pfx + "tiles_released");
    g_inflight = &registry->gauge(pfx + "frames_in_flight");
    g_inflight_max = &registry->gauge(pfx + "frames_in_flight_max");
    h_overlap = &registry->histogram(pfx + "frame_interleave_overlap_us");
    h_admission = &registry->histogram(pfx + "admission_wait_us");

    owns_engine = shared == nullptr;
    engine = owns_engine ? std::make_shared<runtime::FrameEngine>(
                               engine_options(options, graph.stage_count()))
                         : std::move(shared);
    const arch::BuildOptions& build = engine->options().build;
    for (const Stage& stage : graph.stages()) {
      plans.push_back(engine->plan_for(stage.program));
      placements.push_back(engine->placement_for(plans.back()));
      tiles_per_stage.push_back(plans.back()->tiles.size());
      auto designs = std::make_shared<
          std::vector<std::shared_ptr<const runtime::CachedDesign>>>();
      designs->reserve(plans.back()->tiles.size());
      for (const runtime::Tile& tile : plans.back()->tiles) {
        designs->push_back(engine->cache().pin(*tile.program, build));
      }
      stage_designs.push_back(std::move(designs));
    }
    for (const StageEdge& edge : graph.edges()) {
      maps.push_back(std::make_shared<const EdgeTileMap>(
          map_tile_dependencies(*plans[edge.producer], *plans[edge.consumer],
                                edge.input)));
      // A wrapped halo read maps to the opposite edge of the producer's
      // grid; stitch the whole producer domain into the slice so the
      // mapped coordinate is always resident (wrap runs on whole-frame
      // tiles).
      const bool wrap =
          edge.policy.boundary == stencil::BoundaryPolicy::kWrap;
      stitch_plans.push_back(std::make_shared<const EdgeStitchPlan>(
          plan_edge_stitch(*plans[edge.producer], *plans[edge.consumer],
                           *maps.back(), edge.input,
                           wrap ? edge.producer_lo : poly::IntVec{},
                           wrap ? edge.producer_hi : poly::IntVec{})));
      const std::string label =
          (options.name.empty() ? std::string() : options.name + ".") +
          edge.label;
      edge_metrics.emplace_back(*registry, label);
      const std::string edge_name = "pipeline.edge." + label;
      const std::string epfx = edge_name + ".";
      h_ready.push_back(&registry->histogram(epfx + "ready_us"));
      // One arena per scheduling node (1 with numa off), so slabs recycle
      // through the arena of the node that first-touched them.
      auto pool =
          std::make_shared<SlabPool>(engine->topology().node_count());
      pool->bind_metrics(&registry->counter(epfx + "slab_allocated"),
                         &registry->counter(epfx + "slab_recycled"));
      pool->bind_resident_gauge(&registry->gauge(
          "pool." + label + ".resident_bytes"));
      pool->bind_journal(journal, journal->intern(edge_name));
      pools.push_back(std::move(pool));
    }
    tracker = std::make_unique<DependencyTracker>(
        graph, maps, tiles_per_stage, options.barrier);
  }

  /// Hands one ready tile to the engine: stitch its edge-fed input slices,
  /// then enqueue. Called exactly once per tile by the tracker (source
  /// tiles from submit(), the rest from the workers that ran their
  /// producers); the released flag only arbitrates against abort().
  void make_ready(const std::shared_ptr<FrameCtx>& ctx, std::size_t stage,
                  std::size_t tile) {
    FrameCtx& c = *ctx;
    {
      std::lock_guard<std::mutex> lock(c.mu);
      if (c.released[stage][tile]) return;  // abort() got here first
      c.released[stage][tile] = 1;
    }
    const std::int64_t us = elapsed_us(c.t0);
    for (const std::size_t e : graph.stages()[stage].in_edges) {
      const StageEdge& edge = graph.edges()[e];
      c.slices[stage][tile][edge.input] = c.buffers[e]->stitch(tile);
      h_ready[e]->observe(us);
    }
    c_released->inc();
    journal->record(obs::JournalKind::kDepResolved, c.trace_id,
                    static_cast<std::int32_t>(stage),
                    static_cast<std::int64_t>(tile), us, 0, jname);
    // Outside c.mu: from the submitting thread this can block on a full
    // queue (backpressure); from a worker it never does.
    engine->release_tile(c.handles[stage], tile);
  }

  /// Tile-resolution hook (runs in the executing worker thread).
  /// Every tile of a frame -- executed, failed, or skipped -- comes
  /// through here exactly once, so the trailing countdown is the frame's
  /// completion barrier.
  void on_tile(const std::shared_ptr<FrameCtx>& ctx, std::size_t stage,
               std::size_t tile, const double* outputs, bool ok) {
    FrameCtx& c = *ctx;
    const std::int64_t us = elapsed_us(c.t0);
    atomic_max(c.last_event_us, us);
    for (Slice& slice : c.slices[stage][tile]) slice = Slice{};
    if (!ok) {
      abort(ctx);
    } else {
      std::int64_t expected = -1;
      c.first_us[stage].compare_exchange_strong(expected, us);
      atomic_max(c.last_us[stage], us);
      std::vector<double>& sink = c.sink_outputs[stage];
      if (!sink.empty()) {
        const std::vector<std::int64_t>& ranks =
            plans[stage]->tiles[tile].output_ranks;
        for (std::size_t k = 0; k < ranks.size(); ++k) {
          sink[static_cast<std::size_t>(ranks[k])] = outputs[k];
        }
      }
      if (!c.aborted.load(std::memory_order_relaxed)) {
        for (const std::size_t e : graph.stages()[stage].out_edges) {
          c.buffers[e]->admit(tile, outputs);
        }
        for (const DependencyTracker::Ready r :
             tracker->resolve(c.frame_id, stage, tile)) {
          make_ready(ctx, r.stage, r.tile);
        }
      }
    }
    if (c.tiles_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      frame_done(ctx);
    }
  }

  /// Runs once per frame, in whichever thread resolved its last tile:
  /// frees the tracker slot (the storage the next arm() recycles) and
  /// opens the admission window.
  void frame_done(const std::shared_ptr<FrameCtx>& ctx) {
    FrameCtx& c = *ctx;
    tracker->retire(c.frame_id);
    const auto now = std::chrono::steady_clock::now();
    {
      std::lock_guard<std::mutex> lock(mu);
      --frames_active;
      g_inflight->set(static_cast<std::int64_t>(frames_active));
      std::int64_t overlap_us = 0;
      if (have_last_done && last_done > c.t0) {
        overlap_us = std::chrono::duration_cast<std::chrono::microseconds>(
                         last_done - c.t0)
                         .count();
      }
      h_overlap->observe(overlap_us);
      last_done = now;
      have_last_done = true;
      // The ctx stays in `inflight` until the next submit() prunes it (or
      // shutdown() drains): callers hold PipelineResult references
      // obtained through temporary handles, which stay valid until the
      // executor moves on.
    }
    window_cv.notify_all();
  }

  /// Cancels every stage frame and resolves every tile not yet handed to
  /// a worker as skipped (never blocking -- skip_tile bypasses the
  /// queues), so deferred frames terminate and waiters wake. Claimed
  /// consumer tiles are also dropped from their in-edge buffers, so the
  /// slabs they were holding retire into the pool instead of lingering
  /// until teardown. Idempotent.
  void abort(const std::shared_ptr<FrameCtx>& ctx) {
    FrameCtx& c = *ctx;
    if (c.aborted.exchange(true)) return;
    for (runtime::FrameHandle& handle : c.handles) handle.cancel();
    for (std::size_t s = 0; s < tiles_per_stage.size(); ++s) {
      for (std::size_t t = 0; t < tiles_per_stage[s]; ++t) {
        bool mine = false;
        {
          std::lock_guard<std::mutex> lock(c.mu);
          if (!c.released[s][t]) {
            c.released[s][t] = 1;
            mine = true;
          }
        }
        if (!mine) continue;  // released (and stitched) or claimed already
        for (const std::size_t e : graph.stages()[s].in_edges) {
          c.buffers[e]->release_consumer(t);
        }
        engine->skip_tile(c.handles[s], t);
      }
    }
  }

  void shutdown(Drain mode) {
    std::vector<std::shared_ptr<FrameCtx>> frames;
    {
      std::lock_guard<std::mutex> lock(mu);
      accepting = false;
      frames.swap(inflight);
    }
    window_cv.notify_all();
    if (mode == Drain::kCancelPending) {
      for (const std::shared_ptr<FrameCtx>& f : frames) abort(f);
    }
    for (const std::shared_ptr<FrameCtx>& f : frames) {
      for (runtime::FrameHandle& h : f->handles) h.wait();
      assemble(*f);
    }
    // All frames resolved: no callback can still be running. A shared
    // engine keeps serving its other executors; its owner stops it.
    if (owns_engine) {
      engine->shutdown(runtime::FrameEngine::Drain::kDrainAll);
    }
    // Drop the design pins (once): after shutdown the executor holds no
    // pins in the cache whatever path -- drain, cancel, or mid-frame
    // abort -- got here. The designs stay alive through stage_designs.
    bool drop = false;
    {
      std::lock_guard<std::mutex> lock(mu);
      drop = !std::exchange(unpinned, true);
    }
    if (drop) {
      for (const std::shared_ptr<const runtime::TilePlan>& plan : plans) {
        for (const runtime::Tile& tile : plan->tiles) {
          engine->cache().unpin(*tile.program, engine->options().build);
        }
      }
    }
  }

  /// Builds the PipelineResult (once) after all stage frames resolved.
  const PipelineResult& assemble(FrameCtx& c) {
    std::lock_guard<std::mutex> lock(c.result_mu);
    if (c.assembled) return c.result;
    PipelineResult r;
    r.seed = c.seed;
    for (std::size_t s = 0; s < c.handles.size(); ++s) {
      const runtime::FrameResult& fr = c.handles[s].wait();
      r.stages.push_back(fr);  // no output vector: the stage had on_tile
      r.stages.back().outputs = std::move(c.sink_outputs[s]);
      if (fr.cancelled) r.cancelled = true;
      if (!fr.error.empty() && r.error.empty()) {
        r.error = graph.stages()[s].program.name() + ": " + fr.error;
      }
      StageTiming t;
      t.first_tile_us = c.first_us[s].load(std::memory_order_relaxed);
      t.last_tile_us = c.last_us[s].load(std::memory_order_relaxed);
      r.timing.push_back(t);
    }
    for (const std::unique_ptr<StageBuffer>& b : c.buffers) {
      r.edges.push_back(b->occupancy());
    }
    r.total_us = c.last_event_us.load(std::memory_order_relaxed);
    if (!r.error.empty()) {
      c_failed->inc();
    } else if (r.cancelled) {
      c_cancelled->inc();
    } else {
      c_completed->inc();
    }
    const obs::JournalKind kind =
        !r.error.empty() ? obs::JournalKind::kFrameFailed
        : r.cancelled    ? obs::JournalKind::kFrameCancelled
                         : obs::JournalKind::kFrameCompleted;
    journal->record(kind, c.trace_id, -1, -1, r.total_us, 0, jname);
    if (r.cancelled && r.error.empty() && c.own_events) {
      obs::PostmortemInfo pm;
      pm.reason = "frame_cancelled";
      pm.detail = "pipeline frame " + std::to_string(c.trace_id) +
                  " (seed " + std::to_string(c.seed) + ") cancelled";
      pm.frame = c.trace_id;
      journal->dump_postmortem(pm, registry);
    }
    c.result = std::move(r);
    c.assembled = true;
    return c.result;
  }
};

// ---- PipelineHandle ----------------------------------------------------

PipelineHandle::PipelineHandle(std::shared_ptr<FrameCtx> ctx)
    : ctx_(std::move(ctx)) {}

const PipelineResult& PipelineHandle::wait() {
  if (!ctx_) throw Error("PipelineHandle::wait on an empty handle");
  for (runtime::FrameHandle& h : ctx_->handles) h.wait();
  if (std::shared_ptr<PipelineExecutor::Impl> impl = ctx_->impl.lock()) {
    return impl->assemble(*ctx_);
  }
  // Executor already gone: shutdown() assembled the result.
  std::lock_guard<std::mutex> lock(ctx_->result_mu);
  return ctx_->result;
}

PipelineResult PipelineHandle::take() {
  wait();
  std::lock_guard<std::mutex> lock(ctx_->result_mu);
  return std::move(ctx_->result);
}

bool PipelineHandle::wait_for(std::chrono::milliseconds timeout) {
  if (!ctx_) throw Error("PipelineHandle::wait_for on an empty handle");
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (runtime::FrameHandle& h : ctx_->handles) {
    const auto now = std::chrono::steady_clock::now();
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - now);
    if (!h.wait_for(std::max(left, std::chrono::milliseconds(0)))) {
      return false;
    }
  }
  return true;
}

bool PipelineHandle::done() const {
  if (!ctx_) return false;
  for (const runtime::FrameHandle& h : ctx_->handles) {
    if (!h.done()) return false;
  }
  return true;
}

void PipelineHandle::cancel() {
  if (!ctx_) return;
  if (std::shared_ptr<PipelineExecutor::Impl> impl = ctx_->impl.lock()) {
    impl->abort(ctx_);
  } else {
    for (runtime::FrameHandle& h : ctx_->handles) h.cancel();
  }
}

// ---- PipelineExecutor --------------------------------------------------

runtime::EngineOptions engine_options(const PipelineOptions& options,
                                      std::size_t stages) {
  runtime::EngineOptions eo;
  eo.name = options.name;
  eo.threads = options.threads_per_stage * stages;  // 0 stays "hardware"
  eo.queue_capacity = options.queue_capacity;
  eo.tile_shape = options.tile_shape;
  eo.build = options.build;
  eo.cache_capacity = options.cache_capacity;
  eo.metrics = options.metrics;
  eo.journal = options.journal;
  eo.sim = options.sim;
  eo.numa = options.numa;
  return eo;
}

PipelineExecutor::PipelineExecutor(StageGraph graph, PipelineOptions options,
                                   std::shared_ptr<runtime::FrameEngine> engine)
    : impl_(std::make_shared<Impl>(std::move(graph), std::move(options),
                                   std::move(engine))) {}

PipelineExecutor::~PipelineExecutor() {
  if (impl_) impl_->shutdown(Drain::kCancelPending);
}

const StageGraph& PipelineExecutor::graph() const { return impl_->graph; }

runtime::FrameEngine& PipelineExecutor::engine() { return *impl_->engine; }

PipelineHandle PipelineExecutor::submit(std::uint64_t seed,
                                        FrameOptions frame) {
  Impl& im = *impl_;
  auto ctx = std::make_shared<FrameCtx>();
  ctx->impl = im.weak_from_this();
  ctx->seed = seed;
  ctx->frame_options = std::move(frame);
  ctx->trace_id = ctx->frame_options.frame_id != 0
                      ? ctx->frame_options.frame_id
                      : obs::next_frame_id();
  ctx->own_events = ctx->frame_options.own_frame_events;

  const std::size_t stages = im.graph.stage_count();
  ctx->buffers.reserve(im.graph.edges().size());
  for (std::size_t e = 0; e < im.graph.edges().size(); ++e) {
    const StageEdge& edge = im.graph.edges()[e];
    ctx->buffers.push_back(std::make_unique<StageBuffer>(
        im.plans[edge.producer], im.maps[e], im.stitch_plans[e],
        im.edge_metrics[e], im.pools[e], im.placements[edge.producer],
        im.placements[edge.consumer]));
  }
  ctx->slices.resize(stages);
  ctx->sink_outputs.resize(stages);
  ctx->released.resize(stages);
  ctx->first_us = std::vector<std::atomic<std::int64_t>>(stages);
  ctx->last_us = std::vector<std::atomic<std::int64_t>>(stages);
  std::int64_t total_tiles = 0;
  for (std::size_t s = 0; s < stages; ++s) {
    const stencil::StencilProgram& program = im.graph.stages()[s].program;
    ctx->slices[s].assign(
        im.tiles_per_stage[s],
        std::vector<Slice>(program.inputs().size()));
    ctx->released[s].assign(im.tiles_per_stage[s], 0);
    if (im.graph.stages()[s].out_edges.empty()) {
      ctx->sink_outputs[s].assign(
          static_cast<std::size_t>(im.plans[s]->total_outputs), 0.0);
    }
    ctx->first_us[s].store(-1, std::memory_order_relaxed);
    ctx->last_us[s].store(-1, std::memory_order_relaxed);
    total_tiles += static_cast<std::int64_t>(im.tiles_per_stage[s]);
  }
  ctx->tiles_left.store(total_tiles, std::memory_order_relaxed);

  const auto admit_t0 = std::chrono::steady_clock::now();
  {
    // Admission window: wait until fewer than max_frames_in_flight frames
    // are unresolved (frame_done signals). Frame ids are assigned at
    // admission, so armed ids are always distinct.
    std::unique_lock<std::mutex> lock(im.mu);
    im.window_cv.wait(lock, [&] {
      return !im.accepting || im.options.max_frames_in_flight == 0 ||
             im.frames_active < im.options.max_frames_in_flight;
    });
    if (!im.accepting) {
      throw Error("PipelineExecutor::submit after shutdown");
    }
    ctx->frame_id = im.next_frame_id++;
    ++im.frames_active;
    im.g_inflight->set(static_cast<std::int64_t>(im.frames_active));
    im.g_inflight_max->update_max(
        static_cast<std::int64_t>(im.frames_active));
    // Prune frames that already resolved; keep live ones reachable for
    // shutdown() even when the caller drops its handle.
    std::erase_if(im.inflight, [](const std::shared_ptr<FrameCtx>& f) {
      for (const runtime::FrameHandle& h : f->handles) {
        if (!h.done()) return false;
      }
      return true;
    });
    im.inflight.push_back(ctx);
  }
  const std::int64_t admit_us = elapsed_us(admit_t0);
  im.h_admission->observe(admit_us);
  im.c_submitted->inc();
  ctx->t0 = std::chrono::steady_clock::now();
  im.journal->record(obs::JournalKind::kFrameAdmitted, ctx->trace_id, -1, -1,
                     admit_us, total_tiles, im.jname);

  // Register every stage frame (deferred: nothing enqueues) before any
  // tile is released, so a fast producer can never resolve into a stage
  // whose frame does not exist yet. Frames are re-armed over the plans
  // and pinned designs resolved at construction: no canonical key, no
  // cache lookup, per frame or per tile.
  std::weak_ptr<FrameCtx> weak = ctx;
  Impl* imp = &im;
  for (std::size_t s = 0; s < stages; ++s) {
    runtime::SubmitOptions so;
    so.deferred = true;
    so.frame_id = ctx->trace_id;
    so.stage = static_cast<std::int32_t>(s);
    so.own_frame_events = false;
    so.designs = im.stage_designs[s];
    so.feed = [imp, weak, s](const runtime::Tile& tile, std::size_t tile_idx,
                             std::size_t array_idx, std::size_t)
        -> std::shared_ptr<sim::ExternalFeed> {
      std::shared_ptr<FrameCtx> c = weak.lock();
      if (!c) return nullptr;
      const std::size_t e = imp->graph.edge_into(s, array_idx);
      if (e == StageGraph::npos) {
        // External input: the frame's override, else the synthetic DRAM.
        if (c->frame_options.external_feed) {
          return c->frame_options.external_feed(s, array_idx, tile);
        }
        return nullptr;
      }
      auto slice = std::make_shared<SliceFeed>(
          c->slices[s][tile_idx][array_idx]);
      const StageEdge& edge = imp->graph.edges()[e];
      if (stencil::is_containment_policy(edge.policy.boundary)) {
        return slice;
      }
      // Value-defining boundary policy: reads past the producer's domain
      // box are clamped / wrapped into it or served a constant.
      return std::make_shared<BoundaryFeed>(
          std::move(slice), edge.producer_lo, edge.producer_hi,
          edge.policy.boundary, edge.policy.constant_value);
    };
    so.on_tile = [imp, weak, s](std::size_t tile_idx, const double* outputs,
                                bool ok) {
      if (std::shared_ptr<FrameCtx> c = weak.lock()) {
        imp->on_tile(c, s, tile_idx, outputs, ok);
      }
    };
    ctx->handles.push_back(
        im.engine->submit(im.plans[s], seed, std::move(so)));
  }

  for (const DependencyTracker::Ready r : im.tracker->arm(ctx->frame_id)) {
    im.make_ready(ctx, r.stage, r.tile);
  }
  return PipelineHandle(ctx);
}

void PipelineExecutor::shutdown(Drain mode) { impl_->shutdown(mode); }

}  // namespace nup::pipeline
