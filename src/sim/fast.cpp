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

/// Longest run of firing cycles one block transfer retires: the lane
/// buffers hold this many values per kernel reference. A fixed bound, not
/// an option -- it trades buffer size against per-block overhead and never
/// changes an observable.
constexpr std::int64_t kMaxRun = 256;

using VecKernelMode = FastPlan::LaneInfo::Mode;

/// Ring buffer of data values only: the point of the token at the head is
/// recovered from the consumer filter's stream position, so tokens shrink
/// to one double.
struct FastFifo {
  std::vector<double> values;
  std::size_t head = 0;
  std::int64_t count = 0;
  std::int64_t capacity = 0;
  bool cut = false;
  std::int64_t max_fill = 0;

  void init(std::int64_t depth, bool is_cut) {
    capacity = depth;
    cut = is_cut;
    values.assign(static_cast<std::size_t>(std::max<std::int64_t>(depth, 1)),
                  0.0);
  }

  void push(double v) {
    std::size_t tail = head + static_cast<std::size_t>(count);
    if (tail >= values.size()) tail -= values.size();
    values[tail] = v;
    ++count;
    if (count > max_fill) max_fill = count;
  }

  double pop() {
    const double v = values[head];
    if (++head == values.size()) head = 0;
    --count;
    return v;
  }

  /// Pops the `n` oldest values into dst (ring-split into at most two
  /// memcpy segments). Requires n <= count.
  void pop_block(std::int64_t n, double* dst) {
    const std::size_t cap = values.size();
    const std::size_t first =
        std::min<std::size_t>(static_cast<std::size_t>(n), cap - head);
    std::memcpy(dst, values.data() + head, first * sizeof(double));
    std::memcpy(dst + first, values.data(),
                (static_cast<std::size_t>(n) - first) * sizeof(double));
    head += static_cast<std::size_t>(n);
    if (head >= cap) head -= cap;
    count -= n;
  }

  /// Pushes `n` values from src. Requires count + n <= capacity. max_fill
  /// takes the occupancy after the block, the largest of the n scalar
  /// pushes it stands for: a stall run whose consumer holds fills the FIFO
  /// this way, one value per cycle.
  void push_block(const double* src, std::int64_t n) {
    const std::size_t cap = values.size();
    std::size_t tail = head + static_cast<std::size_t>(count);
    if (tail >= cap) tail -= cap;
    const std::size_t first =
        std::min<std::size_t>(static_cast<std::size_t>(n), cap - tail);
    std::memcpy(values.data() + tail, src, first * sizeof(double));
    std::memcpy(values.data(), src + first,
                (static_cast<std::size_t>(n) - first) * sizeof(double));
    count += n;
    if (count > max_fill) max_fill = count;
  }

  /// `n` cycles in which the consumer pops one value and then the producer
  /// pushes upstream[j] (cycle j), as one block: dst receives the
  /// min(count, n) oldest values followed by the first n - take upstream
  /// values (pushed at cycle j, popped at cycle j + count), and the FIFO
  /// keeps the last `take` upstream values. Occupancy never exceeds its
  /// value entering the block, so max_fill is untouched. Requires
  /// count >= 1.
  void relay(const double* upstream, std::int64_t n, double* dst) {
    const std::int64_t take = std::min(count, n);
    pop_block(take, dst);
    std::memcpy(dst + take, upstream,
                static_cast<std::size_t>(n - take) * sizeof(double));
    push_block(upstream + (n - take), take);
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
  int segment = -1;           // feed index when this filter heads a segment

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
//   out[l] = sum_k weights[k] * lanes[k*width + l]
// in ascending k with one multiply-accumulate per term -- the same
// per-lane operation sequence as make_weighted_sum's scalar loop. Whether
// the scalar loop compiled to separate mul+add or to fused fma depends on
// the build's contraction rules, so compile_fast_plan picks the variant
// once per plan by probing each candidate against the program's actual
// KernelFn on random vectors and falls back to the program's block kernel
// when none is bit-identical. Correctness therefore never depends on
// compiler flags; only the fast path's speed does.

void weighted_sum_muladd(const double* lanes, const double* weights,
                         std::size_t refs, std::int64_t width, double* out) {
  for (std::int64_t l = 0; l < width; ++l) {
    double acc = 0.0;
    for (std::size_t k = 0; k < refs; ++k) {
      const double prod = weights[k] * lanes[k * width + l];
      acc += prod;
    }
    out[l] = acc;
  }
}

void weighted_sum_fma(const double* lanes, const double* weights,
                      std::size_t refs, std::int64_t width, double* out) {
  for (std::int64_t l = 0; l < width; ++l) {
    double acc = 0.0;
    for (std::size_t k = 0; k < refs; ++k) {
      acc = std::fma(weights[k], lanes[k * width + l], acc);
    }
    out[l] = acc;
  }
}

#if NUP_HAVE_AVX2
/// 4 lanes per iteration with fused multiply-add; remainder lanes use
/// std::fma so every lane sees the identical fma-contracted sequence.
__attribute__((target("avx2,fma"))) void weighted_sum_avx2(
    const double* lanes, const double* weights, std::size_t refs,
    std::int64_t width, double* out) {
  const std::int64_t vector_end = width - width % 4;
  std::int64_t l = 0;
  for (; l < vector_end; l += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t k = 0; k < refs; ++k) {
      const __m256d v = _mm256_loadu_pd(lanes + k * width + l);
      acc = _mm256_fmadd_pd(_mm256_set1_pd(weights[k]), v, acc);
    }
    _mm256_storeu_pd(out + l, acc);
  }
  for (; l < width; ++l) {
    double acc = 0.0;
    for (std::size_t k = 0; k < refs; ++k) {
      acc = std::fma(weights[k], lanes[k * width + l], acc);
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

void run_vec_kernel(VecKernelMode mode, const double* lanes,
                    const double* weights, std::size_t refs,
                    std::int64_t width, double* out) {
  switch (mode) {
#if NUP_HAVE_AVX2
    case VecKernelMode::kAvx2:
      weighted_sum_avx2(lanes, weights, refs, width, out);
      return;
#endif
    case VecKernelMode::kScalarFma:
      weighted_sum_fma(lanes, weights, refs, width, out);
      return;
    default:
      weighted_sum_muladd(lanes, weights, refs, width, out);
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
  std::vector<double> got(static_cast<std::size_t>(probe_lanes));
  std::vector<VecKernelMode> candidates;
#if NUP_HAVE_AVX2
  if (avx2_supported()) candidates.push_back(VecKernelMode::kAvx2);
#endif
  candidates.push_back(VecKernelMode::kScalarFma);
  candidates.push_back(VecKernelMode::kScalarMulAdd);
  for (VecKernelMode mode : candidates) {
    run_vec_kernel(mode, lanes.data(), weights.data(), refs, probe_lanes,
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
  std::vector<FastFifo> fifos;
  std::vector<FastFilter> filters;
  /// lane_slot[k]: row of filter k's R-element block in the Impl's lane
  /// matrix = the kernel's reference slot (arrays then refs, source order).
  std::vector<std::size_t> lane_slot;

  // Per-cycle scratch, indexed by filter.
  std::vector<unsigned char> avail;
  std::vector<unsigned char> match;
  std::vector<unsigned char> advance;
  std::vector<double> moved;  // value consumed by each advancing filter
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
  std::vector<double> lane_vals;  ///< refs x R lane matrix, slot-major
  std::vector<double> lane_out;   ///< R kernel outputs

  bool done() const { return result.kernel_fires == total_iterations; }

  void tick_feeds();
  bool hypothesize(const FastSystem& sys) const;
  void fill_scratch(FastSystem& sys);
  void commit_fire(FastSystem& sys);
  void plan_stalled(FastSystem& sys) const;
  void commit_stalled(FastSystem& sys);
  void validate_ports() const;
  void commit_kernel();
  void record_trace(bool fire);
  std::string describe_stall() const;
  bool fire_run(std::int64_t limit);
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
      sys.fifos[k].init(ms.fifos[k].depth, ms.fifos[k].cut);
    }
    const std::vector<std::size_t> heads = ms.segment_heads();
    sys.feeds.resize(heads.size());
    for (std::size_t seg = 0; seg < heads.size(); ++seg) {
      FastFilter& head = sys.filters[heads[seg]];
      head.segment = static_cast<int>(seg);
      head.in.reset(*sys.input_prog);
      sys.feeds[seg] =
          std::make_shared<SyntheticFeed>(options.seed, ms.array_index);
    }
    sys.avail.assign(n, 0);
    sys.match.assign(n, 0);
    sys.advance.assign(n, 0);
    sys.moved.assign(n, 0.0);
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
    const std::size_t refs = program.total_references();
    std::size_t base = 0;
    for (std::size_t s = 0; s < im.systems.size(); ++s) {
      FastSystem& sys = im.systems[s];
      sys.lane_slot.resize(sys.filters.size());
      for (std::size_t k = 0; k < sys.filters.size(); ++k) {
        sys.lane_slot[k] = base + sys.design->ref_order[k];
      }
      base += sys.filters.size();
    }
    im.lane_vals.resize(refs * static_cast<std::size_t>(im.run_cap));
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
  return impl_->systems.at(system).fifos.at(fifo).count;
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
      if (filter.segment >= 0) {
        avail = filter.in.is_valid &&
                sys.feeds[filter.segment]->available(filter.in.point());
      } else {
        avail = sys.fifos[k - 1].count > 0;
      }
    }
    bool space = true;
    if (k + 1 < n && !sys.fifos[k].cut) {
      const FastFifo& fifo = sys.fifos[k];
      space = fifo.count < fifo.capacity || downstream_advances;
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
      if (filter.segment >= 0) {
        avail = filter.in.is_valid &&
                sys.feeds[filter.segment]->available(filter.in.point());
      } else {
        avail = sys.fifos[k - 1].count > 0;
      }
    }
    sys.avail[k] = avail ? 1 : 0;
    sys.match[k] = (avail && filter.in_pos == filter.next_match) ? 1 : 0;
    sys.advance[k] = 0;
  }
}

/// On a firing cycle every filter consumes and forwards: pops first (so a
/// full FIFO drained this cycle can accept a push), then pushes, then the
/// output counters advance past the matched point.
void FastSim::Impl::commit_fire(FastSystem& sys) {
  const std::size_t n = sys.filters.size();
  for (std::size_t k = 0; k < n; ++k) {
    sys.advance[k] = 1;
    FastFilter& filter = sys.filters[k];
    if (filter.segment >= 0) {
      sys.moved[k] = sys.feeds[filter.segment]->read(filter.in.point());
      filter.in.advance();
    } else {
      sys.moved[k] = sys.fifos[k - 1].pop();
    }
    ++filter.in_pos;
  }
  for (std::size_t k = 0; k < n; ++k) {
    if (k + 1 < n && !sys.fifos[k].cut) {
      sys.fifos[k].push(sys.moved[k]);
    }
    FastFilter& filter = sys.filters[k];
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
      const FastFifo& fifo = sys.fifos[k];
      space = fifo.count < fifo.capacity || downstream_advances;
    }
    sys.advance[k] =
        (sys.avail[k] != 0 && space && sys.match[k] == 0) ? 1 : 0;
    downstream_advances = sys.advance[k] != 0;
  }
}

/// Commits one non-firing cycle: the plan_stalled pattern, one value per
/// advancing filter.
void FastSim::Impl::commit_stalled(FastSystem& sys) {
  const std::size_t n = sys.filters.size();
  plan_stalled(sys);
  for (std::size_t k = 0; k < n; ++k) {
    if (!sys.advance[k]) continue;
    FastFilter& filter = sys.filters[k];
    if (filter.segment >= 0) {
      sys.moved[k] = sys.feeds[filter.segment]->read(filter.in.point());
      filter.in.advance();
    } else {
      sys.moved[k] = sys.fifos[k - 1].pop();
    }
    ++filter.in_pos;
  }
  for (std::size_t k = 0; k < n; ++k) {
    if (!sys.advance[k]) continue;
    if (k + 1 < n && !sys.fifos[k].cut) {
      sys.fifos[k].push(sys.moved[k]);
    }
  }
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

void FastSim::Impl::commit_kernel() {
  const poly::IntVec& i = kernel_cursor.point();
  std::size_t base = 0;
  for (const FastSystem& sys : systems) {
    for (std::size_t k = 0; k < sys.filters.size(); ++k) {
      gathered[base + sys.design->ref_order[k]] = sys.moved[k];
    }
    base += sys.filters.size();
  }
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
  for (const FastFifo& fifo : sys.fifos) {
    trace.fifo_fill.push_back(fifo.count);
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
      out << sys.fifos[k].count << '/' << sys.fifos[k].capacity;
    }
    out << "]";
  }
  return out.str();
}

/// Retires the longest run of firing cycles that qualifies -- at most
/// `limit`, rounded down to a multiple of the datapath width -- as one
/// block transfer, or changes nothing and returns false when fewer than W
/// cycles qualify. A run of R cycles qualifies when every filter of every
/// chain provably fires on each of them: its match is established and runs
/// for R consecutive stream ranks, R output points are left in its row
/// interval, a head has R points left in its input interval from a
/// time-invariant feed whose row query serves all of them now, a
/// non-head has a non-empty upstream FIFO (occupancy is invariant across
/// firing cycles, so one element now means one element on every cycle of
/// the run); and the kernel cursor has R points left in its interval.
///
/// The batched state transition is then exactly R scalar
/// commit_fire/commit_kernel rounds: each uncut FIFO between firing
/// filters sees one pop + one push per cycle, and the values a filter
/// consumes are the FIFO's take = min(count, R) oldest elements followed by
/// the first R - take values its upstream neighbour consumed this same run
/// (FastFifo::relay).
bool FastSim::Impl::fire_run(std::int64_t limit) {
  if (options.trace_cycles > 0 && cycle < options.trace_cycles) return false;
  if (options.validate && !ports_structurally_valid) return false;
  if (!kernel_cursor.is_valid) return false;
  std::int64_t n = std::min({limit, options.max_cycles - cycle,
                             kernel_cursor.remaining_in_interval()});
  // Structural bounds first; feed availability is then only queried over
  // the surviving prefix.
  for (const FastSystem& sys : systems) {
    for (std::size_t k = 0; k < sys.filters.size(); ++k) {
      if (n < width) return false;
      const FastFilter& filter = sys.filters[k];
      if (!filter.out.is_valid || filter.in_pos != filter.next_match) {
        return false;
      }
      n = std::min({n, filter.match_run, filter.out.remaining_in_interval()});
      if (filter.segment >= 0) {
        n = std::min(n, filter.in.remaining_in_interval());  // 0: exhausted
        if (!sys.feeds[filter.segment]->time_invariant()) return false;
      } else if (sys.fifos[k - 1].count == 0) {
        return false;
      }
    }
  }
  if (n < width) return false;  // an exhausted head has no row to query
  for (const FastSystem& sys : systems) {
    for (const FastFilter& filter : sys.filters) {
      if (filter.segment < 0) continue;
      n = sys.feeds[filter.segment]->available_row(filter.in.point(), n);
    }
  }
  if (n < width) return false;
  n -= n % width;

  const std::int64_t start = cycle;
  cycle += n;
  const std::size_t len = static_cast<std::size_t>(n);
  for (FastSystem& sys : systems) {
    for (std::size_t k = 0; k < sys.filters.size(); ++k) {
      FastFilter& filter = sys.filters[k];
      double* block = lane_vals.data() + sys.lane_slot[k] * len;
      if (filter.segment >= 0) {
        sys.feeds[filter.segment]->read_row(filter.in.point(), n, block);
        filter.in.advance_by(n);
      } else {
        sys.fifos[k - 1].relay(lane_vals.data() + sys.lane_slot[k - 1] * len,
                               n, block);
      }
      filter.in_pos += n;
      filter.out.advance_by(n);
      filter.reseek();
    }
  }

  // R kernel fires: the vectorized weighted sum when the plan's probe
  // proved it bit-identical, otherwise the program's block kernel.
  if (lanes->mode != VecKernelMode::kPerLane) {
    run_vec_kernel(lanes->mode, lane_vals.data(), lanes->weights.data(),
                   lanes->weights.size(), n, lane_out.data());
  } else {
    block_kernel(lane_vals.data(), n, lane_out.data());
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
  result.drain_start = cycle;  // every cycle of the run streamed off-chip
  stall_cycles = 0;
  datapath_cycles += n / width;
  last_width = n;
  return true;
}

/// Retires the longest run of non-firing cycles -- at most `limit` -- that
/// share the advance pattern plan_stalled gives the next cycle, or changes
/// nothing and returns false when no filter advances on it (a firing or a
/// no-progress cycle). This is the fill before the first fire and the
/// halo discards at every row end. The pattern holds for R cycles when
/// every advancing filter stays unmatched (R <= next_match - in_pos) and
/// keeps its input -- a head has R points left in its input interval that
/// its feed serves now, a non-head whose upstream holds has R values in
/// its FIFO -- and its space: an uncut FIFO whose consumer holds has room
/// for R more values. A holding filter keeps holding, except one with a
/// live output that may gain input next cycle (a head without data, an
/// empty FIFO its upstream fills); then R = 1. Any advancing filter stays
/// unmatched, so none of the R cycles fires.
///
/// The R cycles then move as blocks: a head reads a row, a filter fed by
/// an advancing upstream relays through their FIFO like fire_run, one fed
/// by a holding upstream pops R values, and an advancing filter whose
/// consumer holds pushes its R values. Feeds must be time-invariant: their
/// tick() is skipped.
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
      const bool head = filter.segment >= 0;
      if (!sys.advance[k]) {
        if (filter.out.is_valid &&
            (head ? sys.avail[k] == 0
                  : sys.fifos[k - 1].count == 0 && sys.advance[k - 1])) {
          n = 1;
        }
        continue;
      }
      n = std::min(n, filter.next_match - filter.in_pos);
      if (head) {
        n = std::min(n, filter.in.remaining_in_interval());
      } else if (!sys.advance[k - 1]) {
        n = std::min(n, sys.fifos[k - 1].count);
      }
      if (k + 1 < count && !sys.fifos[k].cut && !sys.advance[k + 1]) {
        n = std::min(n, sys.fifos[k].capacity - sys.fifos[k].count);
      }
    }
  }
  // Every bound is >= 1 for an advancing filter, and an advancing head's
  // first point is available, so n >= 1 throughout.
  for (FastSystem& sys : systems) {
    for (std::size_t k = 0; k < sys.filters.size(); ++k) {
      const FastFilter& filter = sys.filters[k];
      if (!sys.advance[k] || filter.segment < 0) continue;
      n = sys.feeds[filter.segment]->available_row(filter.in.point(), n);
    }
  }

  cycle += n;
  const std::size_t len = static_cast<std::size_t>(n);
  bool streamed = false;
  for (std::size_t s = 0; s < systems.size(); ++s) {
    FastSystem& sys = systems[s];
    const std::size_t count = sys.filters.size();
    for (std::size_t k = 0; k < count; ++k) {
      FastFilter& filter = sys.filters[k];
      if (!sys.advance[k]) {
        if (filter.out.is_valid) result.filter_stall_cycles[s][k] += n;
        continue;
      }
      double* block = lane_vals.data() + sys.lane_slot[k] * len;
      if (filter.segment >= 0) {
        sys.feeds[filter.segment]->read_row(filter.in.point(), n, block);
        filter.in.advance_by(n);
        streamed = true;
      } else if (sys.advance[k - 1]) {
        sys.fifos[k - 1].relay(lane_vals.data() + sys.lane_slot[k - 1] * len,
                               n, block);
      } else {
        sys.fifos[k - 1].pop_block(n, block);
      }
      filter.in_pos += n;
      if (k + 1 < count && !sys.fifos[k].cut && !sys.advance[k + 1]) {
        sys.fifos[k].push_block(block, n);
      }
    }
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
              consumed_off_chip || sys.filters[k].segment >= 0;
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
  return (run_cap > 0 && (fire_run(width) || stall_run(1))) ||
         scalar_cycle();
}

bool FastSim::step() { return impl_->step(); }

SimResult FastSim::run() {
  Impl& im = *impl_;
  while (!im.done() && im.cycle < im.options.max_cycles) {
    if (im.run_cap == 0 ||
        !(im.fire_run(im.run_cap) || im.stall_run(im.run_cap))) {
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
