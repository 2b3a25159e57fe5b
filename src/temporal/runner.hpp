#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "pipeline/executor.hpp"
#include "stencil/program.hpp"
#include "temporal/unroll.hpp"

namespace nup::temporal {

/// How the runner drives the unrolled schedule.
struct RunnerOptions {
  /// Options of the engine (threads_per_stage x the largest shape's
  /// stages) and of the executors, one per pass shape, that share it;
  /// with several shapes their pipeline.* metrics are named <name>.sh<k>.
  /// kWrap overrides the tile shape to whole-frame tiles (a wrapped read
  /// reaches the opposite edge of the grid, so the stitched slice must
  /// span it).
  pipeline::PipelineOptions pipeline;

  /// Convergence monitor: when > 0, the runner compares successive pass
  /// outputs over the target domain (max-abs delta) and stops a frame's
  /// remaining passes once the residual is <= tolerance. 0 disables the
  /// monitor; every frame runs all ceil(T/B) passes.
  double tolerance = 0.0;

  /// Temporal admission window: how many passes (across frames) the
  /// runner keeps in flight at once when pumping multiple frames. Passes
  /// of one frame are data-dependent and always run in order; the window
  /// overlaps frame f+1's early passes with frame f's later ones.
  /// Clamped to at least 1.
  std::size_t max_passes_in_flight = 4;
};

/// Result of one temporal frame (one seed swept through T generations).
struct FrameOutcome {
  std::uint64_t seed = 0;
  /// Generation `generations_completed` over the target domain,
  /// lexicographic order. Bit-identical to run_golden_sweeps when all T
  /// generations ran.
  std::vector<double> outputs;
  std::int64_t generations_completed = 0;  ///< T, or fewer when converged
  std::int64_t passes_completed = 0;
  bool converged_early = false;
  /// Last pass-boundary residual the monitor saw; -1 when never measured.
  double last_residual = -1.0;
  std::string error;  ///< non-empty when a pass failed

  bool ok() const { return error.empty(); }
};

/// Drives a temporal-blocking schedule end to end: plans the replica
/// chains (plan_temporal), builds one FrameEngine and on it one
/// PipelineExecutor per distinct pass shape -- each replica stage's reuse
/// FIFOs are sized non-uniformly via the arch builder, honoring
/// datapath_width -- and pumps ceil(T/B) passes per frame through them,
/// chaining pass p+1's external input to pass p's sink output via
/// FrameOptions. Multiple frames overlap: while frame f's later passes
/// drain, frame f+1's early passes already stream (cross-frame admission
/// at both the temporal and the executor level).
///
/// Publishes temporal.<name>.{passes_completed, generations_completed,
/// frames_completed, converged_frames, generations_saved} counters and a
/// temporal.<name>.pass_residual histogram (micro-units) to the
/// registry of RunnerOptions::pipeline.metrics.
class TemporalRunner {
 public:
  TemporalRunner(const stencil::StencilProgram& program,
                 const TemporalConfig& config, RunnerOptions options = {});
  ~TemporalRunner();  // shutdown() if still running

  TemporalRunner(const TemporalRunner&) = delete;
  TemporalRunner& operator=(const TemporalRunner&) = delete;

  /// Runs one frame to completion (all passes, or early exit on
  /// convergence). Blocking; equivalent to run_frames({seed})[0].
  FrameOutcome run(std::uint64_t seed);

  /// Runs one frame per seed with cross-frame pass overlap, in order;
  /// outcome k belongs to seeds[k].
  std::vector<FrameOutcome> run_frames(
      const std::vector<std::uint64_t>& seeds);

  const TemporalSchedule& schedule() const { return schedule_; }

  /// Number of executors (one per distinct pass shape).
  std::size_t executor_count() const { return executors_.size(); }

  /// Distinct per-tile designs pinned in the engine's cache: the
  /// non-uniformly partitioned replica microarchitectures resident for
  /// steady-state serving.
  std::size_t pinned_designs() const;

  /// Stops all executors (draining in-flight work), then the engine.
  /// Idempotent; run() fails afterwards.
  void shutdown();

 private:
  struct InFlight;

  pipeline::PipelineHandle submit_pass(
      std::uint64_t seed, std::size_t pass, std::uint64_t trace_id,
      const std::shared_ptr<const std::vector<double>>& prev,
      const poly::IntVec& prev_lo, const poly::IntVec& prev_hi);

  /// Copies the target domain out of a pass output over box [lo, hi] that
  /// strictly contains it; an output over the target box itself is used
  /// as is, never copied.
  std::vector<double> restrict_to_target(const std::vector<double>& data,
                                         const poly::IntVec& lo,
                                         const poly::IntVec& hi) const;

  TemporalSchedule schedule_;
  RunnerOptions options_;
  std::string metric_prefix_;
  obs::Journal* journal_ = nullptr;
  std::uint32_t jname_ = 0;
  std::shared_ptr<runtime::FrameEngine> engine_;
  std::vector<std::unique_ptr<pipeline::PipelineExecutor>> executors_;
  bool shut_down_ = false;

  obs::Counter* c_passes_ = nullptr;
  obs::Counter* c_generations_ = nullptr;
  obs::Counter* c_frames_ = nullptr;
  obs::Counter* c_converged_ = nullptr;
  obs::Counter* c_saved_ = nullptr;
  obs::Histogram* h_residual_ = nullptr;
};

}  // namespace nup::temporal
