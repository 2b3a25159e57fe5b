#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arch/design.hpp"
#include "poly/domain.hpp"
#include "sim/feed.hpp"
#include "stencil/program.hpp"

namespace nup::sim {

/// Which simulator implementation executes the design. Both are
/// cycle-accurate and agree decision-for-decision (enforced by
/// tests/sim/differential_test.cpp); `kReference` is the semantics
/// DESIGN.md's invariants are stated against, `kFast` is the compiled
/// fast lane (src/sim/fast.hpp) for large sweeps.
enum class SimBackend { kReference, kFast };

struct SimOptions {
  SimBackend backend = SimBackend::kReference;
  std::uint64_t seed = 1;            ///< synthetic-data seed
  std::int64_t max_cycles = 500'000'000;
  /// Cycles without any module progress before declaring deadlock.
  std::int64_t stall_limit = 100'000;
  /// Record per-cycle traces for the first N cycles (Table 3).
  std::int64_t trace_cycles = 0;
  /// Validate every kernel port against the expected grid point and value.
  bool validate = true;
  /// Keep all kernel outputs in the result (memory-heavy for big grids).
  bool record_outputs = true;
  /// Allow the fast backend to retire runs of firing cycles as blocks:
  /// design.datapath_width micro-cycles per step() (see
  /// SimResult::datapath_cycles), longer runs per run(); and runs of the
  /// fill and row-end cycles that fire nothing. Never changes any
  /// scalar-cycle observable; disable to force the one-cycle scalar path
  /// at every width (useful when isolating block-path bugs).
  bool vectorize = true;
};

/// Per-cycle status of one data filter (Table 3's f/d/s columns).
enum class FilterStatus : char {
  kForward = 'f',
  kDiscard = 'd',
  kStalled = 's',
  kDone = '.',
};

struct CycleTrace {
  std::int64_t cycle = 0;  ///< 1-based, matching Table 3
  /// Grid point entering the chain at segment 0 of system 0 ("data in
  /// stream" column); empty when the stream is exhausted.
  std::string stream_point;
  std::vector<FilterStatus> filters;      ///< system 0 filters
  std::vector<std::int64_t> fifo_fill;    ///< system 0 FIFO occupancy
};

struct SimResult {
  std::int64_t cycles = 0;
  std::int64_t kernel_fires = 0;
  /// Machine cycles of the W-wide datapath: the number of wide steps it
  /// took to retire `cycles` scalar micro-cycles. Equals `cycles` for W=1
  /// (and for the reference backend, which is scalar by definition); for
  /// W>1 on the fast backend this is what Fig 14's cycles-per-frame axis
  /// measures -- throughput in frames/s scales with cycles/datapath_cycles.
  std::int64_t datapath_cycles = 0;
  std::int64_t fill_latency = 0;  ///< cycle of the first kernel fire
  /// Steady-state initiation interval: average cycles between kernel fires
  /// after the pipeline filled (1.0 = fully pipelined).
  double steady_ii = 0.0;
  bool deadlocked = false;
  std::string deadlock_detail;
  /// Max observed occupancy of every (system, fifo); never exceeds the
  /// design depth, and equals it where the sizing is tight.
  std::vector<std::vector<std::int64_t>> fifo_max_fill;
  /// Cycles each (system, filter) spent unable to advance while its output
  /// counter was still live (waiting on upstream data or downstream FIFO
  /// space). Identical across backends; checked by run_differential.
  std::vector<std::vector<std::int64_t>> filter_stall_cycles;
  /// Last cycle on which a segment-head filter consumed an off-chip
  /// element (forward or discard). The run's phases are fill =
  /// [1, fill_latency], steady = (fill_latency, drain_start], drain =
  /// (drain_start, cycles]. Every fire consumes fresh off-chip data at
  /// each head (same-cycle flow-through), so a completed run has
  /// drain_start == cycles -- the drain tail is degenerate under Table 3's
  /// idealized latencies. On a deadlocked or truncated run the boundary
  /// marks the last cycle data still streamed in, which is the first
  /// thing to read when diagnosing a wedge. 0 when nothing was ever
  /// streamed. Identical across backends; checked by run_differential.
  std::int64_t drain_start = 0;
  std::vector<CycleTrace> trace;
  std::vector<double> outputs;  ///< kernel outputs in iteration order
};

/// Cycle-accurate simulation of the generated microarchitecture: autonomous
/// data-path splitters, non-uniform reuse FIFOs, polyhedral data filters
/// (Fig 10's input/output counter switch) and a fully-pipelined computation
/// kernel, with the stall semantics of Section 3.3. Module latencies are
/// idealized away exactly as in Table 3.
class AcceleratorSim {
 public:
  AcceleratorSim(const stencil::StencilProgram& program,
                 const arch::AcceleratorDesign& design,
                 SimOptions options = {});
  ~AcceleratorSim();

  AcceleratorSim(const AcceleratorSim&) = delete;
  AcceleratorSim& operator=(const AcceleratorSim&) = delete;

  /// Replaces the off-chip feed of one chain segment (default: synthetic).
  void set_feed(std::size_t array_idx, std::size_t segment,
                std::shared_ptr<ExternalFeed> feed);

  /// Invoked with every kernel output, in iteration order.
  void set_output_callback(
      std::function<void(const poly::IntVec&, double)> callback);

  /// Advances one clock cycle. Returns true if any module made progress.
  bool step();

  bool done() const;

  /// Runs until completion, deadlock, or the cycle limit; the outcome is in
  /// the returned result (no exception on deadlock -- tests inject them on
  /// purpose). Throws SimulationError only on validation failures, which
  /// indicate a functionally wrong design.
  SimResult run();

  // Lockstep observers (used by the differential checker).
  std::int64_t cycle() const;
  std::int64_t kernel_fires() const;
  std::int64_t fifo_fill(std::size_t system, std::size_t fifo) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Convenience wrapper: build-free simulation of a program with a design,
/// dispatched to options.backend.
SimResult simulate(const stencil::StencilProgram& program,
                   const arch::AcceleratorDesign& design,
                   const SimOptions& options = {});

}  // namespace nup::sim
