#include "sim/fast.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "util/error.hpp"

#if defined(__x86_64__) && !defined(NUP_DISABLE_AVX2)
#define NUP_HAVE_AVX2 1
#include <immintrin.h>
#else
#define NUP_HAVE_AVX2 0
#endif

namespace nup::sim {

namespace {

constexpr std::int64_t kNever = kNeverMatches;

/// Longest run of cycles one block retires: the kernel output buffer holds
/// this many values and every stream window keeps this much slack. A fixed
/// bound, not an option -- it trades buffer size against per-block overhead
/// and never changes an observable.
constexpr std::int64_t kMaxRun = 256;

using VecKernelMode = FastPlan::LaneInfo::Mode;

/// Capacity and occupancy high-water mark of one reuse FIFO. It holds no
/// values: FIFO k carries exactly the stretch of its segment's stream
/// between filter k+1's read position and filter k's, so its elements live
/// in the segment's StreamWindow and its occupancy is
/// in_pos[k] - in_pos[k+1] (FastSystem::fill; 0 for a cut FIFO).
struct FastFifo {
  std::int64_t capacity = 0;
  bool cut = false;
  std::int64_t max_fill = 0;
};

/// The input stream of one chain segment, held once for all its filters:
/// ranks [in_pos of the segment's last filter, in_pos of its head) -- the
/// oldest element a filter still has to consume up to the newest one the
/// head has read. The storage is linear, so every filter's next R elements
/// are one contiguous row the kernel reads in place; when the head reaches
/// the end, the live stretch moves back to the front (at most once per
/// capacity - live elements, since the live stretch is bounded by the
/// segment's FIFO capacities).
struct StreamWindow {
  std::vector<double> buf;
  std::int64_t base = 0;  ///< stream rank of buf[0]
  std::size_t tail = 0;   ///< filter index of the segment's last filter

  const double* at(std::int64_t rank) const {
    return buf.data() + (rank - base);
  }

  /// Storage for the `n` ranks from `end` on, keeping ranks [live, end).
  double* make_room(std::int64_t live, std::int64_t end, std::int64_t n) {
    if (end + n - base > static_cast<std::int64_t>(buf.size())) {
      const auto keep = static_cast<std::size_t>(end - live);
      std::memmove(buf.data(), buf.data() + (live - base),
                   keep * sizeof(double));
      base = live;
      if (keep + static_cast<std::size_t>(n) > buf.size()) {
        buf.resize(2 * (keep + static_cast<std::size_t>(n)));
      }
    }
    return buf.data() + (end - base);
  }
};

struct FastFilter {
  const RowProgram* out_prog = nullptr;  // D_Ax in filter order (plan-owned)
  RowCursor out;        // output counter (Fig 10)
  /// Segment heads only: the grid point of the next stream element (needed
  /// to address the external feed). Non-head filters carry no points at
  /// all -- only `in_pos` below.
  RowCursor in;
  MatchScanner scanner;       // over the segment's input program
  std::int64_t in_pos = 0;    // stream elements consumed so far
  std::int64_t next_match = kNever;  // stream position of out's point
  /// Contiguous stream ranks starting at next_match (scanner run length):
  /// >= R means the next R output points match R consecutive stream
  /// elements, one of the block-run preconditions.
  std::int64_t match_run = 0;
  std::size_t segment = 0;    // the segment (window, feed) it reads from
  bool head = false;          // reads the segment's feed, not a FIFO

  void reseek() {
    next_match = out.valid() ? scanner.seek(out.point()) : kNever;
    match_run = next_match == kNever ? 0 : scanner.run;
  }
};

/// True when `out` enumerates exactly `iter` shifted by `offset`: then the
/// kernel-port check "filter k delivers A[i + f_k] on every fire" holds by
/// construction (both counters advance in lockstep from rank 0) and the
/// per-fire validation loop can be skipped entirely.
bool aligned_with_iteration(const RowProgram& iter, const RowProgram& out,
                            const poly::IntVec& offset) {
  if (iter.dim != out.dim || iter.rows.size() != out.rows.size()) {
    return false;
  }
  const std::int64_t inner = offset.empty() ? 0 : offset.back();
  for (std::size_t r = 0; r < iter.rows.size(); ++r) {
    const RowProgram::Row& a = iter.rows[r];
    const RowProgram::Row& b = out.rows[r];
    for (std::size_t d = 0; d + 1 < iter.dim; ++d) {
      if (b.prefix[d] != a.prefix[d] + offset[d]) return false;
    }
    if (a.intervals.size() != b.intervals.size()) return false;
    for (std::size_t v = 0; v < a.intervals.size(); ++v) {
      if (b.intervals[v].lo != a.intervals[v].lo + inner ||
          b.intervals[v].hi != a.intervals[v].hi + inner) {
        return false;
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Block weighted-sum kernel. All variants evaluate, for every lane l,
//   out[l] = sum_k weights[k] * rows[k][l]
// in ascending k with one multiply-accumulate per term -- the same
// per-lane operation sequence as make_weighted_sum's scalar loop. rows[k]
// is reference slot k's run of stream elements, read in place from its
// segment's window. Whether the scalar loop compiled to separate mul+add
// or to fused fma depends on the build's contraction rules, so
// compile_fast_plan picks the variant once per plan by probing each
// candidate against the program's actual KernelFn on random vectors and
// falls back to the program's block kernel when none is bit-identical.
// Correctness therefore never depends on compiler flags; only the fast
// path's speed does.

void weighted_sum_muladd(const double* const* rows, const double* weights,
                         std::size_t refs, std::int64_t width, double* out) {
  for (std::int64_t l = 0; l < width; ++l) {
    double acc = 0.0;
    for (std::size_t k = 0; k < refs; ++k) {
      const double prod = weights[k] * rows[k][l];
      acc += prod;
    }
    out[l] = acc;
  }
}

void weighted_sum_fma(const double* const* rows, const double* weights,
                      std::size_t refs, std::int64_t width, double* out) {
  for (std::int64_t l = 0; l < width; ++l) {
    double acc = 0.0;
    for (std::size_t k = 0; k < refs; ++k) {
      acc = std::fma(weights[k], rows[k][l], acc);
    }
    out[l] = acc;
  }
}

#if NUP_HAVE_AVX2
/// 4 lanes per iteration with fused multiply-add; remainder lanes use
/// std::fma so every lane sees the identical fma-contracted sequence.
__attribute__((target("avx2,fma"))) void weighted_sum_avx2(
    const double* const* rows, const double* weights, std::size_t refs,
    std::int64_t width, double* out) {
  const std::int64_t vector_end = width - width % 4;
  std::int64_t l = 0;
  for (; l < vector_end; l += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t k = 0; k < refs; ++k) {
      const __m256d v = _mm256_loadu_pd(rows[k] + l);
      acc = _mm256_fmadd_pd(_mm256_set1_pd(weights[k]), v, acc);
    }
    _mm256_storeu_pd(out + l, acc);
  }
  for (; l < width; ++l) {
    double acc = 0.0;
    for (std::size_t k = 0; k < refs; ++k) {
      acc = std::fma(weights[k], rows[k][l], acc);
    }
    out[l] = acc;
  }
}

bool avx2_supported() {
  static const bool supported = __builtin_cpu_supports("avx2") &&
                                __builtin_cpu_supports("fma");
  return supported;
}
#endif

void run_vec_kernel(VecKernelMode mode, const double* const* rows,
                    const double* weights, std::size_t refs,
                    std::int64_t width, double* out) {
  switch (mode) {
#if NUP_HAVE_AVX2
    case VecKernelMode::kAvx2:
      weighted_sum_avx2(rows, weights, refs, width, out);
      return;
#endif
    case VecKernelMode::kScalarFma:
      weighted_sum_fma(rows, weights, refs, width, out);
      return;
    default:
      weighted_sum_muladd(rows, weights, refs, width, out);
      return;
  }
}

/// Picks the fastest vector variant that is bit-identical to `kernel` on
/// deterministic pseudo-random probes (one full lane block per variant);
/// kPerLane when none is -- e.g. a kernel compiled with an association the
/// candidates do not reproduce.
VecKernelMode probe_vec_kernel(const stencil::KernelFn& kernel,
                               const std::vector<double>& weights) {
  const std::size_t refs = weights.size();
  if (refs == 0) return VecKernelMode::kPerLane;
  // The probe is a safety net on top of the structural guarantee (the
  // canonical kernel is itself an fma chain, see make_weighted_sum): a
  // candidate that differs from the kernel anywhere is overwhelmingly
  // unlikely to match all of these lanes bit-for-bit.
  const std::int64_t probe_lanes = kMaxRun;
  std::vector<double> lanes(refs * static_cast<std::size_t>(probe_lanes));
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (double& v : lanes) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    v = static_cast<double>(state >> 11) * 0x1.0p-53;  // [0, 1)
  }
  std::vector<double> expected(static_cast<std::size_t>(probe_lanes));
  std::vector<double> values(refs);
  for (std::int64_t l = 0; l < probe_lanes; ++l) {
    for (std::size_t k = 0; k < refs; ++k) {
      values[k] = lanes[k * static_cast<std::size_t>(probe_lanes) +
                        static_cast<std::size_t>(l)];
    }
    expected[static_cast<std::size_t>(l)] = kernel(values);
  }
  std::vector<const double*> rows(refs);
  for (std::size_t k = 0; k < refs; ++k) {
    rows[k] = lanes.data() + k * static_cast<std::size_t>(probe_lanes);
  }
  std::vector<double> got(static_cast<std::size_t>(probe_lanes));
  std::vector<VecKernelMode> candidates;
#if NUP_HAVE_AVX2
  if (avx2_supported()) candidates.push_back(VecKernelMode::kAvx2);
#endif
  candidates.push_back(VecKernelMode::kScalarFma);
  candidates.push_back(VecKernelMode::kScalarMulAdd);
  for (VecKernelMode mode : candidates) {
    run_vec_kernel(mode, rows.data(), weights.data(), refs, probe_lanes,
                   got.data());
    if (std::memcmp(got.data(), expected.data(),
                    got.size() * sizeof(double)) == 0) {
      return mode;
    }
  }
  return VecKernelMode::kPerLane;
}

/// Block-kernel facts of `program`'s kernel: its recorded weights and the
/// fastest vector variant bit-identical to it (kPerLane when the kernel is
/// opaque or no variant reproduces it).
FastPlan::LaneInfo probe_lanes(const stencil::StencilProgram& program) {
  FastPlan::LaneInfo lanes;
  lanes.weights = program.weighted_sum_weights();
  if (lanes.weights.size() == program.total_references()) {
    lanes.mode = probe_vec_kernel(program.kernel(), lanes.weights);
  }
  return lanes;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

struct FastSystem {
  const arch::MemorySystem* design = nullptr;
  const RowProgram* input_prog = nullptr;  // streamed hull (plan-owned)
  std::vector<std::shared_ptr<ExternalFeed>> feeds;  // one per segment
  std::vector<StreamWindow> windows;                 // one per segment
  std::vector<FastFifo> fifos;
  std::vector<FastFilter> filters;
  /// lane_slot[k]: the kernel's reference slot of filter k (arrays then
  /// refs, source order) -- where its value goes in the kernel argument.
  std::vector<std::size_t> lane_slot;

  // Per-cycle scratch, indexed by filter.
  std::vector<unsigned char> avail;
  std::vector<unsigned char> match;
  std::vector<unsigned char> advance;

  /// Occupancy of FIFO k: the stream elements filter k has consumed and
  /// filter k+1 has not yet.
  std::int64_t fill(std::size_t k) const {
    return fifos[k].cut ? 0 : filters[k].in_pos - filters[k + 1].in_pos;
  }

  /// Takes every FIFO's occupancy into its high-water mark; called after
  /// each cycle or run in which some FIFO can grow (a filter advances while
  /// its consumer holds). Firing cycles move every filter together and
  /// leave every occupancy as it was.
  void note_fills() {
    for (std::size_t k = 0; k < fifos.size(); ++k) {
      fifos[k].max_fill = std::max(fifos[k].max_fill, fill(k));
    }
  }

  /// The stream element filter k consumes next.
  const double* next_value(const FastFilter& filter) const {
    return windows[filter.segment].at(filter.in_pos);
  }
};

}  // namespace

struct FastSim::Impl {
  const stencil::StencilProgram* program = nullptr;
  const arch::AcceleratorDesign* design = nullptr;
  std::shared_ptr<const FastPlan> plan;  // owns every RowProgram below
  SimOptions options;

  RowCursor kernel_cursor;
  std::int64_t total_iterations = 0;

  std::vector<FastSystem> systems;
  /// Every output counter proved to track kernel_cursor + offset at plan
  /// compile time; the per-fire port validation is then a no-op.
  bool ports_structurally_valid = false;

  OutputSink output_sink;

  SimResult result;
  std::string stream_point_this_cycle;  // only filled while tracing
  std::int64_t cycle = 0;
  std::int64_t stall_cycles = 0;
  std::int64_t last_fire_cycle = 0;
  std::vector<double> gathered;  // kernel argument scratch
  RowCursor probe;  // served_ahead's scratch walk over a head's stream

  // Block execution state (inert when options.vectorize is off).
  std::int64_t width = 1;       ///< micro-cycles per machine cycle (W)
  std::int64_t run_cap = 0;     ///< longest run per block; multiple of W
  std::int64_t last_width = 1;  ///< micro-cycles the last step() retired
  std::int64_t datapath_cycles = 0;  ///< machine cycles retired
  /// Block-kernel mode: the plan's, or `own_lanes` when this program's
  /// kernel is not the one the plan was probed with.
  const FastPlan::LaneInfo* lanes = nullptr;
  FastPlan::LaneInfo own_lanes;
  /// The program's block kernel, for runs no weighted-sum variant serves.
  /// Read from the program, never the plan: a cached plan is shared by
  /// every kernel of one window shape (SOBEL and JACOBI8_2D, say).
  stencil::BlockKernelFn block_kernel;
  /// One pointer per reference slot into its segment's window: the R
  /// values the slot's filter consumes in a firing run.
  std::vector<const double*> lane_rows;
  std::vector<double> lane_out;  ///< R kernel outputs

  bool done() const { return result.kernel_fires == total_iterations; }

  void tick_feeds();
  bool hypothesize(const FastSystem& sys) const;
  void fill_scratch(FastSystem& sys);
  void read_one(FastSystem& sys, FastFilter& head);
  void stream_in(FastSystem& sys, FastFilter& head, std::int64_t n);
  std::int64_t served_ahead(const FastSystem& sys, const FastFilter& head,
                            std::int64_t n);
  void commit_fire(FastSystem& sys);
  void plan_stalled(FastSystem& sys) const;
  void commit_stalled(FastSystem& sys);
  void validate_ports() const;
  void commit_kernel();
  void record_trace(bool fire);
  std::string describe_stall() const;
  bool fire_run(std::int64_t limit, bool lead_in);
  bool stall_run(std::int64_t limit);
  bool scalar_cycle();
  bool step();
};

std::shared_ptr<const FastPlan> compile_fast_plan(
    const stencil::StencilProgram& program,
    const arch::AcceleratorDesign& design) {
  if (design.systems.size() != program.inputs().size()) {
    throw SimulationError("design has " +
                          std::to_string(design.systems.size()) +
                          " memory systems for " +
                          std::to_string(program.inputs().size()) +
                          " input arrays");
  }
  auto plan = std::make_shared<FastPlan>();
  plan->iteration = RowProgram::compile(program.iteration());
  plan->total_iterations = program.iteration().count();
  plan->ports_structurally_valid = true;
  plan->systems.resize(design.systems.size());
  for (std::size_t s = 0; s < design.systems.size(); ++s) {
    const arch::MemorySystem& ms = design.systems[s];
    FastPlan::SystemPlan& sys = plan->systems[s];
    sys.input = RowProgram::compile(ms.input_domain);
    sys.filter_out.resize(ms.filter_count());
    for (std::size_t k = 0; k < ms.filter_count(); ++k) {
      sys.filter_out[k] = RowProgram::compile(
          program.iteration().translated(ms.ordered_offsets[k]));
      plan->ports_structurally_valid =
          plan->ports_structurally_valid &&
          aligned_with_iteration(plan->iteration, sys.filter_out[k],
                                 ms.ordered_offsets[k]);
    }
  }
  // Force the lazy default kernel now, while we are still single-threaded
  // with respect to this program object; kernel() is then a pure read for
  // every concurrent simulation that shares the plan.
  (void)program.kernel();
  plan->lanes = probe_lanes(program);
  return plan;
}

FastSim::FastSim(const stencil::StencilProgram& program,
                 const arch::AcceleratorDesign& design, SimOptions options)
    : FastSim(program, design, compile_fast_plan(program, design),
              std::move(options)) {}

FastSim::FastSim(const stencil::StencilProgram& program,
                 const arch::AcceleratorDesign& design,
                 std::shared_ptr<const FastPlan> plan, SimOptions options)
    : impl_(std::make_unique<Impl>()) {
  Impl& im = *impl_;
  im.program = &program;
  im.design = &design;
  im.plan = std::move(plan);
  im.options = options;

  if (!im.plan || im.plan->systems.size() != design.systems.size()) {
    throw SimulationError("fast plan does not match the design");
  }
  im.total_iterations = im.plan->total_iterations;
  im.kernel_cursor.reset(im.plan->iteration);
  im.ports_structurally_valid = im.plan->ports_structurally_valid;

  im.systems.resize(design.systems.size());
  for (std::size_t s = 0; s < design.systems.size(); ++s) {
    const arch::MemorySystem& ms = design.systems[s];
    const FastPlan::SystemPlan& sp = im.plan->systems[s];
    FastSystem& sys = im.systems[s];
    sys.design = &ms;
    sys.input_prog = &sp.input;

    const std::size_t n = ms.filter_count();
    if (sp.filter_out.size() != n) {
      throw SimulationError("fast plan does not match the design");
    }
    sys.filters.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      FastFilter& filter = sys.filters[k];
      filter.out_prog = &sp.filter_out[k];
      filter.out.reset(*filter.out_prog);
      filter.scanner.reset(*sys.input_prog);
      filter.reseek();
    }
    sys.fifos.resize(ms.fifos.size());
    for (std::size_t k = 0; k < ms.fifos.size(); ++k) {
      sys.fifos[k].capacity = ms.fifos[k].depth;
      sys.fifos[k].cut = ms.fifos[k].cut;
    }
    const std::vector<std::size_t> heads = ms.segment_heads();
    sys.feeds.resize(heads.size());
    sys.windows.resize(heads.size());
    for (std::size_t seg = 0; seg < heads.size(); ++seg) {
      const std::size_t end = seg + 1 < heads.size() ? heads[seg + 1] : n;
      // The live stretch is at most the segment's FIFO capacities; room for
      // four times that and a longest run keeps compaction rare.
      std::int64_t span = 1 + kMaxRun;
      for (std::size_t k = heads[seg]; k + 1 < end; ++k) {
        span += sys.fifos[k].capacity;
        sys.filters[k + 1].segment = seg;
      }
      FastFilter& head = sys.filters[heads[seg]];
      head.segment = seg;
      head.head = true;
      head.in.reset(*sys.input_prog);
      sys.windows[seg].tail = end - 1;
      sys.windows[seg].buf.resize(static_cast<std::size_t>(4 * span));
      sys.feeds[seg] =
          std::make_shared<SyntheticFeed>(options.seed, ms.array_index);
    }
    sys.avail.assign(n, 0);
    sys.match.assign(n, 0);
    sys.advance.assign(n, 0);
  }

  // Each filter's kernel reference slot: arrays then refs, source order.
  std::size_t base = 0;
  for (FastSystem& sys : im.systems) {
    sys.lane_slot.resize(sys.filters.size());
    for (std::size_t k = 0; k < sys.filters.size(); ++k) {
      sys.lane_slot[k] = base + sys.design->ref_order[k];
    }
    base += sys.filters.size();
  }

  if (options.vectorize) {
    im.width = std::max<std::int64_t>(1, design.datapath_width);
    im.run_cap = std::max(im.width, kMaxRun - kMaxRun % im.width);
    // The design cache shares one plan among programs that differ only in
    // their kernel. A kernel is a weighted sum exactly when it records its
    // weights, so equal weight bits mean the plan's probe holds for this
    // kernel too; any other kernel is probed on its own.
    im.lanes = &im.plan->lanes;
    if (!same_bits(program.weighted_sum_weights(), im.lanes->weights)) {
      im.own_lanes = probe_lanes(program);
      im.lanes = &im.own_lanes;
    }
    if (im.lanes->mode == VecKernelMode::kPerLane) {
      im.block_kernel = program.block_kernel();
    }
    im.lane_rows.resize(program.total_references());
    im.lane_out.resize(static_cast<std::size_t>(im.run_cap));
  }

  im.result.fifo_max_fill.resize(design.systems.size());
  im.result.filter_stall_cycles.resize(design.systems.size());
  for (std::size_t s = 0; s < design.systems.size(); ++s) {
    im.result.fifo_max_fill[s].assign(design.systems[s].fifos.size(), 0);
    im.result.filter_stall_cycles[s].assign(
        design.systems[s].filter_count(), 0);
  }
  im.gathered.resize(program.total_references());
}

FastSim::~FastSim() = default;

void FastSim::set_feed(std::size_t array_idx, std::size_t segment,
                       std::shared_ptr<ExternalFeed> feed) {
  FastSystem& sys = impl_->systems.at(array_idx);
  sys.feeds.at(segment) = std::move(feed);
}

void FastSim::set_output_sink(OutputSink sink) {
  impl_->output_sink = std::move(sink);
}

void FastSim::set_output_callback(
    std::function<void(const poly::IntVec&, double)> callback) {
  if (!callback) {
    impl_->output_sink = nullptr;
    return;
  }
  impl_->output_sink = [callback = std::move(callback), point = poly::IntVec()](
                           const poly::IntVec& first, const double* values,
                           std::int64_t n) mutable {
    point = first;
    for (std::int64_t l = 0; l < n; ++l) {
      if (l > 0) ++point.back();
      callback(point, values[l]);
    }
  };
}

bool FastSim::done() const { return impl_->done(); }

std::int64_t FastSim::cycle() const { return impl_->cycle; }

std::int64_t FastSim::kernel_fires() const {
  return impl_->result.kernel_fires;
}

std::int64_t FastSim::fifo_fill(std::size_t system, std::size_t fifo) const {
  const FastSystem& sys = impl_->systems.at(system);
  (void)sys.fifos.at(fifo);  // range check
  return sys.fill(fifo);
}

std::int64_t FastSim::last_step_width() const { return impl_->last_width; }

void FastSim::Impl::tick_feeds() {
  for (FastSystem& sys : systems) {
    for (const std::shared_ptr<ExternalFeed>& feed : sys.feeds) feed->tick();
  }
}

/// Same downstream-to-upstream hypothesis resolution as the reference
/// backend (and the generated RTL's advance logic), fused with the
/// availability/match evaluation so the common firing cycle touches no
/// scratch state at all. Side-effect free; ExternalFeed::available is pure
/// by contract so re-evaluating it on a stall cycle is safe.
bool FastSim::Impl::hypothesize(const FastSystem& sys) const {
  const std::size_t n = sys.filters.size();
  bool fire = true;
  bool downstream_advances = true;  // filter n-1 has no downstream FIFO
  for (std::size_t k = n; k-- > 0;) {
    const FastFilter& filter = sys.filters[k];
    bool avail = false;
    if (filter.out.is_valid) {  // else: done forwarding
      if (filter.head) {
        avail = filter.in.is_valid &&
                sys.feeds[filter.segment]->available(filter.in.point());
      } else {
        avail = sys.fill(k - 1) > 0;
      }
    }
    bool space = true;
    if (k + 1 < n && !sys.fifos[k].cut) {
      space = sys.fill(k) < sys.fifos[k].capacity || downstream_advances;
    }
    const bool advances = avail && space;
    fire = fire && advances && filter.in_pos == filter.next_match;
    downstream_advances = advances;
  }
  return fire;
}

/// Materializes per-filter avail/match flags -- only needed on stall
/// cycles (for the hold-vs-discard commit and the deadlock diagnostic) and
/// on traced cycles.
void FastSim::Impl::fill_scratch(FastSystem& sys) {
  const std::size_t n = sys.filters.size();
  for (std::size_t k = 0; k < n; ++k) {
    FastFilter& filter = sys.filters[k];
    bool avail = false;
    if (filter.out.is_valid) {
      if (filter.head) {
        avail = filter.in.is_valid &&
                sys.feeds[filter.segment]->available(filter.in.point());
      } else {
        avail = sys.fill(k - 1) > 0;
      }
    }
    sys.avail[k] = avail ? 1 : 0;
    sys.match[k] = (avail && filter.in_pos == filter.next_match) ? 1 : 0;
    sys.advance[k] = 0;
  }
}

/// A head's scalar advance: reads its next stream element into the window.
/// The caller advances in_pos.
void FastSim::Impl::read_one(FastSystem& sys, FastFilter& head) {
  StreamWindow& window = sys.windows[head.segment];
  *window.make_room(sys.filters[window.tail].in_pos, head.in_pos, 1) =
      sys.feeds[head.segment]->read(head.in.point());
  head.in.advance();
}

/// Reads a head's next `n` stream elements into its window, one row query
/// per input interval they touch, and advances its input counter past them.
/// The caller advances in_pos -- after every head of the run has read, so
/// no window moves under a row pointer. Requires served_ahead(head, n) == n
/// on a time-invariant feed.
void FastSim::Impl::stream_in(FastSystem& sys, FastFilter& head,
                              std::int64_t n) {
  StreamWindow& window = sys.windows[head.segment];
  double* dst =
      window.make_room(sys.filters[window.tail].in_pos, head.in_pos, n);
  ExternalFeed& feed = *sys.feeds[head.segment];
  while (n > 0) {
    const std::int64_t m = std::min(n, head.in.remaining_in_interval());
    feed.read_row(head.in.point(), m, dst);
    head.in.advance_by(m);
    dst += m;
    n -= m;
  }
}

/// How many of a head's next `n` stream elements its feed serves now,
/// across interval and row boundaries: the row queries stop at the first
/// point the feed lacks or at the end of the stream.
std::int64_t FastSim::Impl::served_ahead(const FastSystem& sys,
                                         const FastFilter& head,
                                         std::int64_t n) {
  if (n <= 0) return 0;
  ExternalFeed& feed = *sys.feeds[head.segment];
  if (n <= head.in.remaining_in_interval()) {
    return feed.available_row(head.in.point(), n);
  }
  probe = head.in;
  std::int64_t served = 0;
  while (served < n && probe.is_valid) {
    const std::int64_t m =
        std::min(n - served, probe.remaining_in_interval());
    const std::int64_t ready = feed.available_row(probe.point(), m);
    served += ready;
    if (ready < m) break;
    probe.advance_by(m);
  }
  return served;
}

/// On a firing cycle every filter consumes its next stream element and the
/// output counters advance past the matched point. A head reads its element
/// into the window first; every other filter's is already there, since its
/// FIFO is non-empty.
void FastSim::Impl::commit_fire(FastSystem& sys) {
  for (std::size_t k = 0; k < sys.filters.size(); ++k) {
    sys.advance[k] = 1;
    FastFilter& filter = sys.filters[k];
    if (filter.head) read_one(sys, filter);
    gathered[sys.lane_slot[k]] = *sys.next_value(filter);
    ++filter.in_pos;
    filter.out.advance();
    filter.reseek();
  }
}

/// The advance pattern of a non-firing cycle, from fill_scratch's flags:
/// matching filters hold their token; the rest discard and forward as
/// space permits (reference commit_advances with fire = false).
void FastSim::Impl::plan_stalled(FastSystem& sys) const {
  const std::size_t n = sys.filters.size();
  bool downstream_advances = true;
  for (std::size_t k = n; k-- > 0;) {
    bool space = true;
    if (k + 1 < n && !sys.fifos[k].cut) {
      space = sys.fill(k) < sys.fifos[k].capacity || downstream_advances;
    }
    sys.advance[k] =
        (sys.avail[k] != 0 && space && sys.match[k] == 0) ? 1 : 0;
    downstream_advances = sys.advance[k] != 0;
  }
}

/// Commits one non-firing cycle: the plan_stalled pattern, one stream
/// element per advancing filter.
void FastSim::Impl::commit_stalled(FastSystem& sys) {
  plan_stalled(sys);
  for (std::size_t k = 0; k < sys.filters.size(); ++k) {
    if (!sys.advance[k]) continue;
    FastFilter& filter = sys.filters[k];
    if (filter.head) read_one(sys, filter);
    ++filter.in_pos;
  }
  sys.note_fills();
}

/// On a firing cycle every matching filter's candidate is its output
/// counter's point (that is what the integer match test established); the
/// counters themselves must agree with A[i + f_k] for the current
/// iteration, component-wise so no temporary point is built.
void FastSim::Impl::validate_ports() const {
  const poly::IntVec& i = kernel_cursor.point();
  for (const FastSystem& sys : systems) {
    for (std::size_t k = 0; k < sys.filters.size(); ++k) {
      const poly::IntVec& got = sys.filters[k].out.point();
      const poly::IntVec& offset = sys.design->ordered_offsets[k];
      for (std::size_t d = 0; d < i.size(); ++d) {
        if (got[d] != i[d] + offset[d]) {
          throw SimulationError(
              "kernel port mismatch at iteration " + poly::to_string(i) +
              ": filter " + std::to_string(k) + " of array " +
              sys.design->array + " delivered " + poly::to_string(got) +
              ", expected " + poly::to_string(poly::add(i, offset)));
        }
      }
    }
  }
}

/// One kernel fire over the arguments commit_fire gathered.
void FastSim::Impl::commit_kernel() {
  const poly::IntVec& i = kernel_cursor.point();
  const double output = program->kernel()(gathered);
  if (options.record_outputs) result.outputs.push_back(output);
  if (output_sink) output_sink(i, &output, 1);
  kernel_cursor.advance();
  ++result.kernel_fires;
  if (result.kernel_fires == 1) result.fill_latency = cycle;
  last_fire_cycle = cycle;
}

void FastSim::Impl::record_trace(bool fire) {
  CycleTrace trace;
  trace.cycle = cycle;
  const FastSystem& sys = systems.front();
  trace.stream_point = stream_point_this_cycle;
  trace.filters.reserve(sys.filters.size());
  for (std::size_t k = 0; k < sys.filters.size(); ++k) {
    FilterStatus status = FilterStatus::kStalled;
    if (!sys.filters[k].out.valid()) {
      status = FilterStatus::kDone;
    } else if (sys.advance[k]) {
      status = (fire && sys.match[k]) ? FilterStatus::kForward
                                      : FilterStatus::kDiscard;
    }
    trace.filters.push_back(status);
  }
  for (std::size_t k = 0; k < sys.fifos.size(); ++k) {
    trace.fifo_fill.push_back(sys.fill(k));
  }
  result.trace.push_back(std::move(trace));
}

std::string FastSim::Impl::describe_stall() const {
  std::ostringstream out;
  out << "no progress at cycle " << cycle << ";";
  for (const FastSystem& sys : systems) {
    out << " array " << sys.design->array << ": filters[";
    for (std::size_t k = 0; k < sys.filters.size(); ++k) {
      if (!sys.filters[k].out.valid()) {
        out << '.';
      } else if (sys.match[k]) {
        out << 'F';  // wants to forward
      } else if (sys.avail[k]) {
        out << 'd';
      } else {
        out << 's';
      }
    }
    out << "] fifo_fill[";
    for (std::size_t k = 0; k < sys.fifos.size(); ++k) {
      if (k > 0) out << ',';
      out << sys.fill(k) << '/' << sys.fifos[k].capacity;
    }
    out << "]";
  }
  return out.str();
}

/// Retires the longest run of firing cycles that qualifies -- at most
/// `limit`, rounded down to a multiple of the datapath width -- as one
/// block, together with a lead-in of discard cycles before it when
/// `lead_in` allows one; or changes nothing and returns false.
///
/// The lead-in is a row end: every filter's match lies the same d >= 1
/// stream elements ahead and every filter can advance -- a head's feed
/// serves its next d points across the interval/row boundary, a non-head's
/// FIFO is non-empty. The next d cycles are then non-firing cycles on
/// which every filter discards one element (none matches, and every FIFO
/// keeps its occupancy, so every filter keeps its input and its space),
/// and the filters reach their matches together. When the firing run after
/// them does not qualify, fire_run declines and stall_run retires the d
/// discards as one block instead.
///
/// A firing run of R cycles qualifies when every filter of every chain
/// provably fires on each of them: its match is established and runs for R
/// consecutive stream ranks, R output points are left in its row interval,
/// a head's time-invariant feed serves its next R points now, a non-head
/// has a non-empty upstream FIFO (occupancy is invariant across firing
/// cycles, so one element now means one element on every cycle of the
/// run); and the kernel cursor has R points left in its interval.
///
/// The batched state transition is then exactly d scalar commit_stalled
/// rounds followed by R commit_fire/commit_kernel rounds: each head reads
/// its d + R elements into its segment's window, every filter's in_pos
/// advances by d + R, and the kernel reads each reference slot's R values
/// in place -- filter k's are the window ranks [in_pos + d, in_pos + d + R).
bool FastSim::Impl::fire_run(std::int64_t limit, bool lead_in) {
  if (options.trace_cycles > 0 && cycle < options.trace_cycles) return false;
  if (options.validate && !ports_structurally_valid) return false;
  if (!kernel_cursor.is_valid) return false;
  const std::int64_t budget = options.max_cycles - cycle;
  std::int64_t n = std::min(limit, kernel_cursor.remaining_in_interval());
  std::int64_t d = -1;
  // Structural bounds first; feed availability is then only queried over
  // the surviving prefix.
  for (const FastSystem& sys : systems) {
    for (std::size_t k = 0; k < sys.filters.size(); ++k) {
      const FastFilter& filter = sys.filters[k];
      if (!filter.out.is_valid || filter.next_match == kNever) return false;
      const std::int64_t gap = filter.next_match - filter.in_pos;
      if (d < 0) d = gap;
      if (gap != d) return false;
      if (filter.head) {
        if (!sys.feeds[filter.segment]->time_invariant()) return false;
      } else if (sys.fill(k - 1) == 0) {
        return false;
      }
      n = std::min({n, filter.match_run, filter.out.remaining_in_interval()});
    }
  }
  if (d > 0 && !lead_in) return false;
  n = std::min(n, budget - d);
  if (n < width) return false;  // an exhausted head has no row to query
  for (const FastSystem& sys : systems) {
    for (const FastFilter& filter : sys.filters) {
      if (filter.head) n = served_ahead(sys, filter, d + n) - d;
    }
  }
  if (n < width) return false;
  n -= n % width;

  const std::int64_t start = cycle + d;
  cycle = start + n;
  for (FastSystem& sys : systems) {
    for (FastFilter& filter : sys.filters) {
      if (filter.head) stream_in(sys, filter, d + n);
    }
  }
  for (FastSystem& sys : systems) {
    for (std::size_t k = 0; k < sys.filters.size(); ++k) {
      FastFilter& filter = sys.filters[k];
      filter.in_pos += d;
      lane_rows[sys.lane_slot[k]] = sys.next_value(filter);
      filter.in_pos += n;
      filter.out.advance_by(n);
      filter.reseek();
    }
  }

  // R kernel fires: the vectorized weighted sum when the plan's probe
  // proved it bit-identical, otherwise the program's block kernel.
  if (lanes->mode != VecKernelMode::kPerLane) {
    run_vec_kernel(lanes->mode, lane_rows.data(), lanes->weights.data(),
                   lanes->weights.size(), n, lane_out.data());
  } else {
    block_kernel(lane_rows.data(), n, lane_out.data());
  }
  if (options.record_outputs) {
    result.outputs.insert(result.outputs.end(), lane_out.begin(),
                          lane_out.begin() + n);
  }
  if (output_sink) output_sink(kernel_cursor.point(), lane_out.data(), n);
  kernel_cursor.advance_by(n);
  if (result.kernel_fires == 0) result.fill_latency = start + 1;
  result.kernel_fires += n;
  last_fire_cycle = cycle;
  result.drain_start = cycle;  // every cycle of the block streamed off-chip
  stall_cycles = 0;
  datapath_cycles += d + n / width;  // a discard is one scalar micro-cycle
  last_width = d + n;
  return true;
}

/// Retires the longest run of non-firing cycles -- at most `limit` -- that
/// share the advance pattern plan_stalled gives the next cycle, or changes
/// nothing and returns false when no filter advances on it (a firing or a
/// no-progress cycle). This is the fill before the first fire and the
/// discards at a row end that fire_run's lead-in does not take. The
/// pattern holds for R cycles when every advancing filter stays unmatched
/// (R <= next_match - in_pos) and keeps its input -- a head's feed serves
/// its next R points now, across interval and row boundaries, a non-head
/// whose upstream holds has R elements in its FIFO -- and its space: an
/// uncut FIFO whose consumer holds has room for R more elements. A holding
/// filter keeps holding, except one with a live output that may gain input
/// next cycle (a head without data, an empty FIFO its upstream fills);
/// then R = 1. Any advancing filter stays unmatched, so none of the R
/// cycles fires.
///
/// The R cycles then move as one block: an advancing head reads its R
/// elements into its window and every advancing filter's in_pos moves by
/// R, which grows the FIFO behind a filter whose consumer holds and drains
/// the one ahead of a filter whose producer holds. Feeds must be
/// time-invariant: their tick() is skipped.
bool FastSim::Impl::stall_run(std::int64_t limit) {
  if (options.trace_cycles > 0 && cycle < options.trace_cycles) return false;
  bool advances = false;
  for (FastSystem& sys : systems) {
    for (const std::shared_ptr<ExternalFeed>& feed : sys.feeds) {
      if (!feed->time_invariant()) return false;
    }
    fill_scratch(sys);
    plan_stalled(sys);
    for (const unsigned char a : sys.advance) advances = advances || a != 0;
  }
  if (!advances) return false;

  std::int64_t n = std::min(limit, options.max_cycles - cycle);
  for (const FastSystem& sys : systems) {
    const std::size_t count = sys.filters.size();
    for (std::size_t k = 0; k < count; ++k) {
      const FastFilter& filter = sys.filters[k];
      if (!sys.advance[k]) {
        if (filter.out.is_valid &&
            (filter.head ? sys.avail[k] == 0
                         : sys.fill(k - 1) == 0 && sys.advance[k - 1])) {
          n = 1;
        }
        continue;
      }
      n = std::min(n, filter.next_match - filter.in_pos);
      if (!filter.head && !sys.advance[k - 1]) {
        n = std::min(n, sys.fill(k - 1));
      }
      if (k + 1 < count && !sys.fifos[k].cut && !sys.advance[k + 1]) {
        n = std::min(n, sys.fifos[k].capacity - sys.fill(k));
      }
    }
  }
  // Every bound is >= 1 for an advancing filter, and an advancing head's
  // first point is available, so n >= 1 throughout.
  for (const FastSystem& sys : systems) {
    for (std::size_t k = 0; k < sys.filters.size(); ++k) {
      if (sys.advance[k] && sys.filters[k].head) {
        n = served_ahead(sys, sys.filters[k], n);
      }
    }
  }

  cycle += n;
  bool streamed = false;
  for (FastSystem& sys : systems) {
    for (std::size_t k = 0; k < sys.filters.size(); ++k) {
      if (sys.advance[k] && sys.filters[k].head) {
        stream_in(sys, sys.filters[k], n);
        streamed = true;
      }
    }
  }
  for (std::size_t s = 0; s < systems.size(); ++s) {
    FastSystem& sys = systems[s];
    for (std::size_t k = 0; k < sys.filters.size(); ++k) {
      FastFilter& filter = sys.filters[k];
      if (sys.advance[k]) {
        filter.in_pos += n;
      } else if (filter.out.is_valid) {
        result.filter_stall_cycles[s][k] += n;
      }
    }
    sys.note_fills();
  }
  if (streamed) result.drain_start = cycle;
  stall_cycles = 0;
  datapath_cycles += n;  // scalar micro-cycles: no kernel lane is filled
  last_width = n;
  return true;
}

/// One scalar micro-cycle: the fallback for every cycle fire_run and
/// stall_run decline (traced cycles, timed feeds, cycles without progress,
/// firing cycles that validate unproven ports, firing runs shorter than W).
bool FastSim::Impl::scalar_cycle() {
  ++datapath_cycles;
  last_width = 1;
  ++cycle;
  const bool tracing =
      options.trace_cycles > 0 && cycle <= options.trace_cycles;
  tick_feeds();

  bool fire = kernel_cursor.valid();
  for (const FastSystem& sys : systems) fire = fire && hypothesize(sys);

  if (tracing) {
    stream_point_this_cycle.clear();
    if (!systems.empty() && !systems.front().filters.empty()) {
      const RowCursor& in = systems.front().filters.front().in;
      if (in.valid()) stream_point_this_cycle = poly::to_string(in.point());
    }
    for (FastSystem& sys : systems) fill_scratch(sys);
  }

  bool progress = fire;
  // Filter 0 is always a segment head, so a firing cycle (every filter
  // consumes) always streams off-chip data; the drain boundary matches the
  // reference backend cycle for cycle.
  bool consumed_off_chip = fire;
  if (fire) {
    // Every filter advances on a firing cycle: no stalls to account.
    if (options.validate && !ports_structurally_valid) validate_ports();
    for (FastSystem& sys : systems) commit_fire(sys);
    commit_kernel();
  } else {
    for (std::size_t s = 0; s < systems.size(); ++s) {
      FastSystem& sys = systems[s];
      if (!tracing) fill_scratch(sys);
      commit_stalled(sys);
      for (std::size_t k = 0; k < sys.filters.size(); ++k) {
        if (sys.advance[k]) {
          progress = true;
          consumed_off_chip =
              consumed_off_chip || sys.filters[k].head;
        } else if (sys.filters[k].out.is_valid) {
          ++result.filter_stall_cycles[s][k];
        }
      }
    }
  }
  if (consumed_off_chip) result.drain_start = cycle;

  if (tracing) record_trace(fire);
  if (progress) {
    stall_cycles = 0;
  } else {
    ++stall_cycles;
  }
  return progress;
}

bool FastSim::Impl::step() {
  return (run_cap > 0 && (fire_run(width, false) || stall_run(1))) ||
         scalar_cycle();
}

bool FastSim::step() { return impl_->step(); }

SimResult FastSim::run() {
  Impl& im = *impl_;
  while (!im.done() && im.cycle < im.options.max_cycles) {
    if (im.run_cap == 0 ||
        !(im.fire_run(im.run_cap, true) || im.stall_run(im.run_cap))) {
      im.scalar_cycle();
    }
    if (im.stall_cycles >= im.options.stall_limit) {
      im.result.deadlocked = true;
      im.result.deadlock_detail = im.describe_stall();
      break;
    }
  }
  im.result.cycles = im.cycle;
  im.result.datapath_cycles = im.datapath_cycles;
  if (im.result.kernel_fires >= 2) {
    im.result.steady_ii =
        static_cast<double>(im.last_fire_cycle - im.result.fill_latency) /
        static_cast<double>(im.result.kernel_fires - 1);
  }
  for (std::size_t s = 0; s < im.systems.size(); ++s) {
    for (std::size_t k = 0; k < im.systems[s].fifos.size(); ++k) {
      im.result.fifo_max_fill[s][k] = im.systems[s].fifos[k].max_fill;
    }
  }
  return im.result;
}

namespace {

std::string fills_to_string(const std::vector<std::vector<std::int64_t>>& f) {
  std::ostringstream out;
  for (std::size_t s = 0; s < f.size(); ++s) {
    out << (s > 0 ? " | " : "");
    for (std::size_t k = 0; k < f[s].size(); ++k) {
      out << (k > 0 ? "," : "") << f[s][k];
    }
  }
  return out.str();
}

}  // namespace

DifferentialReport run_differential(const stencil::StencilProgram& program,
                                    const arch::AcceleratorDesign& design,
                                    SimOptions options) {
  DifferentialReport report;
  report.width = std::max<std::int64_t>(1, design.datapath_width);
  AcceleratorSim ref(program, design, options);
  FastSim fast(program, design, options);

  const auto diverge = [&](const std::string& what) {
    report.agreed = false;
    std::ostringstream out;
    out << "cycle " << report.cycles << ": " << what;
    report.divergence = out.str();
  };

  // Lockstep comparison, replicating run()'s stall accounting. One fast
  // step may retire W scalar micro-cycles on a wide design; the reference
  // is stepped that many times and the states compared at the batch
  // boundary (the batch preconditions guarantee every micro-cycle fired,
  // so the boundary is the only place the flags can be observed anyway).
  std::int64_t stall_cycles = 0;
  std::string ref_error;
  std::string fast_error;
  while (report.agreed && !ref.done() &&
         report.cycles < options.max_cycles) {
    bool ref_progress = false;
    bool fast_progress = false;
    std::int64_t w = 1;
    try {
      fast_progress = fast.step();
      w = fast.last_step_width();
    } catch (const SimulationError& e) {
      fast_error = e.what();
    }
    try {
      for (std::int64_t i = 0; i < w; ++i) ref_progress = ref.step();
    } catch (const SimulationError& e) {
      ref_error = e.what();
    }
    report.cycles += w;
    if (!ref_error.empty() || !fast_error.empty()) {
      if (ref_error.empty() != fast_error.empty()) {
        diverge("one backend raised a validation error: reference='" +
                ref_error + "' fast='" + fast_error + "'");
      }
      break;  // both threw: agreed, both detect the design as broken
    }
    if (ref.cycle() != fast.cycle()) {
      diverge("cycle counters differ: reference=" +
              std::to_string(ref.cycle()) +
              " fast=" + std::to_string(fast.cycle()));
      break;
    }
    if (ref_progress != fast_progress) {
      diverge(std::string("progress flags differ: reference=") +
              (ref_progress ? "true" : "false") + " fast=" +
              (fast_progress ? "true" : "false"));
      break;
    }
    if (ref.kernel_fires() != fast.kernel_fires()) {
      diverge("kernel fires differ: reference=" +
              std::to_string(ref.kernel_fires()) +
              " fast=" + std::to_string(fast.kernel_fires()));
      break;
    }
    bool fills_equal = true;
    for (std::size_t s = 0; fills_equal && s < design.systems.size(); ++s) {
      for (std::size_t k = 0; k < design.systems[s].fifos.size(); ++k) {
        if (ref.fifo_fill(s, k) != fast.fifo_fill(s, k)) {
          diverge("occupancy of fifo (" + std::to_string(s) + "," +
                  std::to_string(k) + ") differs: reference=" +
                  std::to_string(ref.fifo_fill(s, k)) +
                  " fast=" + std::to_string(fast.fifo_fill(s, k)));
          fills_equal = false;
          break;
        }
      }
    }
    if (!fills_equal) break;
    if (ref_progress) {
      stall_cycles = 0;
    } else if (++stall_cycles >= options.stall_limit) {
      break;  // both deadlocked identically; run() below finalizes
    }
  }
  if (!report.agreed || !ref_error.empty()) return report;

  // Finalize both results. run() continues from the current state: a no-op
  // loop when done, exactly one more (identical) stall step when
  // deadlocked.
  report.reference = ref.run();
  report.fast = fast.run();

  const SimResult& a = report.reference;
  const SimResult& b = report.fast;
  if (a.cycles != b.cycles) {
    diverge("total cycles differ: " + std::to_string(a.cycles) + " vs " +
            std::to_string(b.cycles));
  } else if (a.kernel_fires != b.kernel_fires) {
    diverge("kernel fires differ: " + std::to_string(a.kernel_fires) +
            " vs " + std::to_string(b.kernel_fires));
  } else if (a.fill_latency != b.fill_latency) {
    diverge("fill latency differs: " + std::to_string(a.fill_latency) +
            " vs " + std::to_string(b.fill_latency));
  } else if (a.steady_ii != b.steady_ii) {
    diverge("steady II differs");
  } else if (a.deadlocked != b.deadlocked) {
    diverge(std::string("deadlock verdicts differ: reference=") +
            (a.deadlocked ? "yes" : "no") + " fast=" +
            (b.deadlocked ? "yes" : "no"));
  } else if (a.deadlock_detail != b.deadlock_detail) {
    diverge("deadlock diagnostics differ: '" + a.deadlock_detail +
            "' vs '" + b.deadlock_detail + "'");
  } else if (a.fifo_max_fill != b.fifo_max_fill) {
    diverge("max FIFO fills differ: " + fills_to_string(a.fifo_max_fill) +
            " vs " + fills_to_string(b.fifo_max_fill));
  } else if (a.filter_stall_cycles != b.filter_stall_cycles) {
    diverge("filter stall cycles differ: " +
            fills_to_string(a.filter_stall_cycles) + " vs " +
            fills_to_string(b.filter_stall_cycles));
  } else if (a.drain_start != b.drain_start) {
    diverge("drain boundaries differ: " + std::to_string(a.drain_start) +
            " vs " + std::to_string(b.drain_start));
  } else if (a.outputs != b.outputs) {
    diverge("outputs differ (" + std::to_string(a.outputs.size()) + " vs " +
            std::to_string(b.outputs.size()) + " values)");
  }
  return report;
}

}  // namespace nup::sim
