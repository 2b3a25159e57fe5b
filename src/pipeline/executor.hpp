#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "arch/builder.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "pipeline/stage_buffer.hpp"
#include "pipeline/stage_graph.hpp"
#include "poly/int_vec.hpp"
#include "runtime/engine.hpp"
#include "sim/simulator.hpp"

namespace nup::pipeline {

namespace detail {
struct FrameCtx;
}

struct PipelineOptions {
  /// Instance label: the engine publishes as engine.<name>.* /
  /// cache.<name>.*, edge buffers as pipeline.edge.<name>.<label>.*. Empty
  /// uses engine.*, cache.* and pipeline.edge.<label>.*.
  std::string name;

  /// Worker threads per stage: one pool of threads_per_stage x stages
  /// workers runs every stage. 0 uses the hardware thread count.
  std::size_t threads_per_stage = 0;

  /// Tile queue bound: the submitting thread blocks while source tiles
  /// fill it; tiles the workers release never wait (see
  /// runtime::FrameEngine::release_tile).
  std::size_t queue_capacity = 16;

  poly::IntVec tile_shape;       ///< tiler shape of every stage (empty = auto)
  arch::BuildOptions build;      ///< microarchitecture generation options
  std::size_t cache_capacity = 256;  ///< design cache capacity
  obs::Registry* metrics = nullptr;  ///< nullptr = obs::Registry::global()
  /// Flight recorder the pipeline (and its engine, edge slab pools)
  /// journals into; nullptr = obs::Journal::global().
  obs::Journal* journal = nullptr;
  sim::SimOptions sim;

  /// Frame-barrier baseline: every consumer tile waits for the producer
  /// frame to finish. Same engines, buffers, and stitching -- only the
  /// dependency structure changes -- so benchmarks compare scheduling
  /// policies, not implementations.
  bool barrier = false;

  /// Cross-frame admission window: how many pipelined frames may be in
  /// flight at once. submit() blocks while the window is full, so a
  /// caller pumping frames in a loop overlaps frame f+1's source tiles
  /// with frame f's drain -- the source stage never idles between frames.
  /// 1 is frame-serial (a frame is admitted only after the previous one
  /// fully resolves); 0 removes the bound (every submitted frame is
  /// admitted immediately -- unbounded buffer occupancy, use with care).
  std::size_t max_frames_in_flight = 4;

  /// Locality policy of the engine (see runtime::EngineOptions::numa).
  /// When on, each edge's SlabPool is
  /// split into per-node arenas and StageBuffers route slabs through the
  /// producer tile's arena, so inter-stage storage recycles node-locally.
  runtime::NumaMode numa = runtime::NumaMode::kOff;
};

/// Options of an engine that runs a `stages`-stage pipeline: named after
/// the pipeline, threads_per_stage x stages workers (0 = hardware).
runtime::EngineOptions engine_options(const PipelineOptions& options,
                                      std::size_t stages);

/// Per-submit hooks of one pipelined frame. The empty default reproduces
/// submit(seed) exactly: external inputs stream synthetic data derived
/// from the seed.
struct FrameOptions {
  /// Replaces the off-chip feed of one external (edge-less) stage input:
  /// called per tile from the executing worker thread; a non-null return
  /// is installed instead of the synthetic DRAM. This is how the temporal
  /// runner chains passes -- pass p+1's first replica streams pass p's
  /// sink output instead of fresh synthetic data. Edge-fed inputs are
  /// never offered (their data comes from the stage buffers).
  std::function<std::shared_ptr<sim::ExternalFeed>(
      std::size_t stage, std::size_t input, const runtime::Tile& tile)>
      external_feed;

  /// Causal trace identity of the frame; 0 allocates a fresh process-wide
  /// id (obs::next_frame_id). The temporal runner passes one id through
  /// every pass of an iterative frame so the whole chain renders as a
  /// single flow lane.
  std::uint64_t frame_id = 0;

  /// When true (default) the pipeline owns the frame's cancellation
  /// post-mortem. The temporal runner sets false and owns it at frame
  /// granularity; its own admission, recorded first, opens the trace lane.
  bool own_frame_events = true;
};

/// Milestones of one stage within a pipelined frame, relative to submit.
struct StageTiming {
  std::int64_t first_tile_us = -1;  ///< first tile resolved ok (-1 = none)
  std::int64_t last_tile_us = -1;   ///< last tile resolved ok
};

/// The assembled result of one pipelined frame.
struct PipelineResult {
  std::uint64_t seed = 0;
  bool cancelled = false;
  std::string error;  ///< first stage error, prefixed with the stage name

  /// Per-stage frame results, in stage-id order. Only sink stages (no out
  /// edges) carry `outputs`: the pipeline's results, in full-frame
  /// lexicographic order, bit-identical to running the chain stage by
  /// stage. A stage with out edges has empty `outputs`; its values only
  /// ever live tile by tile in the edge buffers, never as a whole frame.
  std::vector<runtime::FrameResult> stages;
  std::vector<StageTiming> timing;            ///< per stage
  std::vector<StageBuffer::Occupancy> edges;  ///< per edge, frame totals
  std::int64_t total_us = 0;  ///< submit to last tile resolution

  bool ok() const { return !cancelled && error.empty(); }
};

/// Future of a submitted pipelined frame (cheap shared reference).
class PipelineHandle {
 public:
  PipelineHandle() = default;

  bool valid() const { return ctx_ != nullptr; }

  /// Blocks until every stage resolves, then assembles (once) and returns
  /// the result; never blocks forever (cancellation and executor shutdown
  /// resolve all stages).
  const PipelineResult& wait();

  /// wait(), then moves the result out of the frame, so the caller owns
  /// the sink outputs without a copy (the temporal runner hands them to
  /// the next pass). Call at most once per frame: afterwards wait() on any
  /// handle to it returns the moved-from result.
  PipelineResult take();

  bool wait_for(std::chrono::milliseconds timeout);
  bool done() const;

  /// Aborts the frame: all stage frames are cancelled and every tile not
  /// yet handed to a worker resolves as skipped. Idempotent.
  void cancel();

 private:
  friend class PipelineExecutor;
  explicit PipelineHandle(std::shared_ptr<detail::FrameCtx> ctx);
  std::shared_ptr<detail::FrameCtx> ctx_;
};

/// Tile-granular dataflow scheduler over a StageGraph: one FrameEngine
/// runs every stage (each stage's tile designs pinned in its cache), one
/// deferred frame per stage per submitted seed, and a DependencyTracker
/// releasing each consumer tile the moment the producer tiles covering
/// its halo have resolved. Stage k+1 starts consuming while stage k is
/// still producing; inter-stage data moves through bounded StageBuffers
/// that retire producer tiles as soon as their last consumer is served.
///
/// Successive frames pipeline across the same engine: frames are
/// data-independent, so while frame f's sink tiles drain, frame f+1's
/// source tiles already run in whatever workers go idle, up to
/// max_frames_in_flight frames at once (the admission window -- submit()
/// blocks while it is full). Steady state re-arms the live engine over
/// the plans and pinned designs resolved at construction and recycles all
/// inter-stage slab storage through per-edge SlabPools, so pumping frames
/// performs no per-tile heap allocation and no design-cache lookups.
class PipelineExecutor {
 public:
  enum class Drain {
    kDrainAll,       ///< finish every in-flight frame before stopping
    kCancelPending,  ///< abort in-flight frames, then stop
  };

  /// Runs on `engine` when given (the temporal runner shares one across
  /// its pass shapes; the engine fields of `options` are then unused and
  /// the owner stops it). Otherwise builds and owns
  /// engine_options(options, stage count).
  explicit PipelineExecutor(
      StageGraph graph, PipelineOptions options = {},
      std::shared_ptr<runtime::FrameEngine> engine = nullptr);
  ~PipelineExecutor();  // shutdown(kCancelPending) if still running

  PipelineExecutor(const PipelineExecutor&) = delete;
  PipelineExecutor& operator=(const PipelineExecutor&) = delete;

  /// Starts one frame: every external input array streams synthetic data
  /// derived from `seed` (exactly as a standalone engine frame would), and
  /// edge-fed inputs stream upstream output. Source-stage tiles are
  /// released immediately; the rest follow their dependencies. `frame`
  /// carries the per-frame hooks (see FrameOptions). Throws Error after
  /// shutdown.
  PipelineHandle submit(std::uint64_t seed, FrameOptions frame = {});

  const StageGraph& graph() const;

  /// The engine every stage runs on (for stats and plans).
  runtime::FrameEngine& engine();

  void shutdown(Drain mode = Drain::kDrainAll);

 private:
  friend class PipelineHandle;
  friend struct detail::FrameCtx;
  struct Impl;
  std::shared_ptr<Impl> impl_;  ///< shared: aborts may outlive shutdown
};

}  // namespace nup::pipeline
