#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "arch/design.hpp"
#include "sim/feed.hpp"
#include "sim/row_program.hpp"
#include "sim/simulator.hpp"
#include "stencil/program.hpp"

namespace nup::sim {

/// Everything FastSim precomputes at construction that depends only on the
/// (program, design) pair and not on a particular run: the compiled row
/// programs of the iteration domain, of every streamed input hull and of
/// every filter's data domain D_Ax, plus the structural port-validity
/// proof. Compiling these tables dominates FastSim's construction cost, so
/// the runtime's design cache memoizes a shared plan and every simulation
/// of the same design starts in O(FIFO storage) instead. A FastPlan is
/// immutable after compile_fast_plan returns and is safe to share across
/// threads.
struct FastPlan {
  struct SystemPlan {
    RowProgram input;                    ///< streamed hull of the segments
    std::vector<RowProgram> filter_out;  ///< D_Ax per filter, filter order
  };

  /// Block-kernel facts of the plan, resolved once per compiled design so
  /// neither construction nor the batched firing path re-derives them.
  struct LaneInfo {
    /// How a block of kernel lanes is evaluated: one of the weighted-sum
    /// variants compile_fast_plan's probe proved bit-identical to the
    /// program's KernelFn, or kPerLane: the program's own block kernel
    /// (StencilProgram::block_kernel), read from the program rather than the
    /// plan because the design cache shares one plan per window shape.
    enum class Mode { kPerLane, kScalarMulAdd, kScalarFma, kAvx2 };

    Mode mode = Mode::kPerLane;
    /// Weights of the probed kernel in reference slot order
    /// (StencilProgram::weighted_sum_weights); empty for an opaque kernel.
    /// A FastSim whose program records other weights -- the design cache
    /// shares a plan among kernels of one shape -- probes its own kernel.
    std::vector<double> weights;
  };

  RowProgram iteration;
  std::int64_t total_iterations = 0;
  std::vector<SystemPlan> systems;
  LaneInfo lanes;
  /// Every output counter proved to track the iteration counter + offset;
  /// the per-fire port validation is then a no-op.
  bool ports_structurally_valid = false;
};

/// Compiles the shared plan for one (program, design) pair. Also forces the
/// lazy default kernel of `program` to materialize, so concurrent FastSim
/// runs over the same program object never mutate it, and probes the block
/// kernel variants against it once (LaneInfo::mode). Throws
/// SimulationError when the design's system count does not match the
/// program's input arrays.
std::shared_ptr<const FastPlan> compile_fast_plan(
    const stencil::StencilProgram& program,
    const arch::AcceleratorDesign& design);

/// Compiled fast-lane backend of the cycle-accurate simulator.
///
/// Semantically identical to AcceleratorSim (same fire/stall decisions,
/// same FIFO occupancies, same outputs on every cycle), but the per-cycle
/// work is compiled away at construction: each filter's domain D_Ax and
/// each streamed input hull become incremental row programs (precomputed
/// lexicographic row/interval tables mirroring Fig 10's input and output
/// counters), and the reuse FIFOs hold flat ring buffers of double values
/// only -- no heap-allocated grid point ever flows through the chain in
/// steady state. The candidate point at every filter is recovered from the
/// invariant that a chain segment carries the segment stream in order, so
/// a per-filter input counter replaces the per-token points of the
/// reference backend.
///
/// Steady state is retired in blocks (SimOptions::vectorize, the default):
/// when every filter of every chain is provably about to fire for R
/// consecutive cycles -- each match run, output interval, head input
/// interval and the kernel cursor's interval cover R points, feeds are
/// time-invariant and serve the next R points now, no traced cycle and no
/// per-fire port validation is pending -- the R firing cycles move as one
/// block transfer through the FIFOs and the kernel evaluates R lanes at
/// once, with an AVX2 inner loop when the host supports it and the
/// kernel's weighted-sum structure is known, bit-identically to the scalar
/// path (proved by probing in compile_fast_plan, and continuously by
/// run_differential). run() takes R up to a fixed lane-buffer bound;
/// step() takes exactly one machine cycle, R = datapath_width W. R is
/// always a multiple of W. The cycles that fire nothing -- the fill before
/// the first fire, the halo discards at every row end -- retire the same
/// way, one block move per run of cycles with a constant advance pattern
/// (step() takes one such cycle). Traced cycles, timed feeds, cycles
/// without progress, firing cycles that validate unproven ports and firing
/// runs shorter than W take the one-cycle scalar path. Every scalar-cycle
/// observable (cycles, fires, occupancies, outputs, stalls) is invariant
/// in R and W; only SimResult::datapath_cycles shrinks with W.
class FastSim {
 public:
  FastSim(const stencil::StencilProgram& program,
          const arch::AcceleratorDesign& design, SimOptions options = {});

  /// Construction from a memoized plan (see FastPlan): skips all row-table
  /// compilation. `plan` must have been compiled for exactly this
  /// (program, design) pair; `program` and `design` must outlive the sim.
  FastSim(const stencil::StencilProgram& program,
          const arch::AcceleratorDesign& design,
          std::shared_ptr<const FastPlan> plan, SimOptions options = {});
  ~FastSim();

  FastSim(const FastSim&) = delete;
  FastSim& operator=(const FastSim&) = delete;

  /// Replaces the off-chip feed of one chain segment (default: synthetic).
  void set_feed(std::size_t array_idx, std::size_t segment,
                std::shared_ptr<ExternalFeed> feed);

  /// Receives kernel outputs in iteration order, one block per call:
  /// values[l] is the output at `first` advanced l steps along the
  /// innermost axis. A batched firing run delivers its n outputs as one
  /// block; every other firing cycle delivers a block of one. `first` and
  /// `values` are only valid during the call.
  using OutputSink = std::function<void(
      const poly::IntVec& first, const double* values, std::int64_t n)>;

  /// Installs the output sink, replacing any sink or callback set before.
  void set_output_sink(OutputSink sink);

  /// Per-point adapter over set_output_sink: invoked with every kernel
  /// output and its iteration point, in iteration order.
  void set_output_callback(
      std::function<void(const poly::IntVec&, double)> callback);

  /// Advances one machine cycle: W scalar micro-cycles when the next W
  /// cycles all fire, otherwise one. Returns true if any module made
  /// progress.
  bool step();

  bool done() const;

  /// Runs until completion, deadlock, or the cycle limit; same contract
  /// (and the same SimResult, field for field) as a loop of step() calls
  /// and AcceleratorSim::run, but retires whole firing runs per iteration.
  SimResult run();

  // Lockstep observers (used by the differential checker).
  std::int64_t cycle() const;
  std::int64_t kernel_fires() const;
  std::int64_t fifo_fill(std::size_t system, std::size_t fifo) const;
  /// Scalar micro-cycles the most recent step() retired: the datapath
  /// width on a batched step, 1 on the scalar path. The differential
  /// checker steps the reference this many times to stay in lockstep.
  std::int64_t last_step_width() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Outcome of running both backends in lockstep and comparing every
/// per-cycle decision plus the final results.
struct DifferentialReport {
  bool agreed = true;
  std::int64_t cycles = 0;      ///< lockstep scalar cycles compared
  std::int64_t width = 1;       ///< datapath width the fast backend ran at
  std::string divergence;       ///< first difference; empty when agreed
  SimResult reference;
  SimResult fast;
};

/// Differential checker: steps AcceleratorSim and FastSim in lockstep and
/// asserts identical progress flags, kernel-fire counts and per-FIFO
/// occupancies on every cycle, then compares the finalized results
/// (cycles, fires, fill latency, steady II, deadlock verdict and detail,
/// per-FIFO max fill, stall cycles, drain boundary, outputs). On wide
/// designs one fast step may retire W scalar micro-cycles; the reference
/// is then stepped W times and the comparison happens at the batch
/// boundary, so every W is checked cycle-exact against the scalar
/// reference semantics. Any divergence is reported with the first
/// offending cycle; the fast path can never silently drift.
DifferentialReport run_differential(const stencil::StencilProgram& program,
                                    const arch::AcceleratorDesign& design,
                                    SimOptions options = {});

}  // namespace nup::sim
