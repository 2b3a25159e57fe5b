#include "stencil/program.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>

#include "util/error.hpp"

namespace nup::stencil {

namespace {

std::string subscript(const std::string& iter_name, std::int64_t offset) {
  if (offset == 0) return "[" + iter_name + "]";
  if (offset > 0) return "[" + iter_name + "+" + std::to_string(offset) + "]";
  return "[" + iter_name + std::to_string(offset) + "]";
}

/// One lane of a block kernel: `values` holds the lane's refs slot values
/// in order. Kernels of up to kInlineRefs references -- every gallery
/// kernel -- build their row pointers on the stack, so the n = 1 call that
/// golden runs make per point allocates nothing.
double call_one_lane(const BlockKernelFn& kernel, const double* values,
                     std::size_t refs) {
  constexpr std::size_t kInlineRefs = 32;
  const double* inline_rows[kInlineRefs];
  std::vector<const double*> heap_rows;
  const double** rows = inline_rows;
  if (refs > kInlineRefs) {
    heap_rows.resize(refs);
    rows = heap_rows.data();
  }
  for (std::size_t k = 0; k < refs; ++k) rows[k] = values + k;
  double out = 0.0;
  kernel(rows, 1, &out);
  return out;
}

}  // namespace

std::string ArrayReference::to_string(
    const std::string& array,
    const std::vector<std::string>& iter_names) const {
  if (iter_names.size() != offset.size()) {
    throw Error("ArrayReference::to_string name/offset size mismatch");
  }
  std::string out = array;
  for (std::size_t d = 0; d < offset.size(); ++d) {
    out += subscript(iter_names[d], offset[d]);
  }
  return out;
}

KernelFn make_weighted_sum(std::vector<double> weights) {
  return [weights = std::move(weights)](const std::vector<double>& values) {
    if (values.size() != weights.size()) {
      throw Error("weighted-sum kernel arity mismatch: got " +
                  std::to_string(values.size()) + " values for " +
                  std::to_string(weights.size()) + " weights");
    }
    // Canonical association: a left-to-right fused multiply-add chain.
    // std::fma is correctly rounded on every platform, so the kernel's
    // bits do not depend on compiler contraction flags -- which is what
    // lets the simulator's vectorized weighted-sum paths (scalar FMA,
    // AVX2+FMA) reproduce it exactly instead of merely closely.
    double acc = 0.0;
    for (std::size_t k = 0; k < values.size(); ++k) {
      acc = std::fma(weights[k], values[k], acc);
    }
    return acc;
  };
}

StencilProgram::StencilProgram(std::string name, poly::Domain iteration)
    : name_(std::move(name)), iteration_(std::move(iteration)) {
  if (!iteration_.has_pieces()) {
    throw NotStencilError("StencilProgram '" + name_ +
                          "': empty iteration domain");
  }
}

void StencilProgram::add_input(std::string array,
                               std::vector<poly::IntVec> offsets) {
  if (offsets.empty()) {
    throw NotStencilError("input array '" + array + "' has no references");
  }
  InputArray input;
  input.name = std::move(array);
  for (poly::IntVec& f : offsets) {
    if (f.size() != dim()) {
      throw NotStencilError(
          "reference offset dimensionality " + std::to_string(f.size()) +
          " does not match iteration dimensionality " + std::to_string(dim()));
    }
    for (const ArrayReference& existing : input.refs) {
      if (existing.offset == f) {
        throw NotStencilError("duplicate reference offset " +
                              poly::to_string(f) + " on array '" +
                              input.name + "'");
      }
    }
    input.refs.push_back(ArrayReference{std::move(f)});
  }
  inputs_.push_back(std::move(input));
}

std::size_t StencilProgram::total_references() const {
  std::size_t n = 0;
  for (const InputArray& input : inputs_) n += input.refs.size();
  return n;
}

const KernelFn& StencilProgram::kernel() const {
  if (kernel_) return kernel_;
  if (!default_kernel_) {
    const std::size_t n = total_references();
    std::vector<double> weights(n,
                                n == 0 ? 0.0 : 1.0 / static_cast<double>(n));
    weights_ = weights;
    default_kernel_ = make_weighted_sum(std::move(weights));
  }
  return default_kernel_;
}

void StencilProgram::set_block_kernel(BlockKernelFn kernel) {
  const std::size_t refs = total_references();
  if (refs == 0) {
    throw Error("set_block_kernel on '" + name_ +
                "': the program has no references");
  }
  // One block call over a deterministic pseudo-random probe must equal the
  // n = 1 calls lane by lane, bit for bit: the simulator's batched path
  // calls the block form while golden and every scalar cycle call kernel().
  constexpr std::size_t kProbeLanes = 256;
  std::vector<double> values(refs * kProbeLanes);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (double& v : values) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    v = static_cast<double>(state >> 11) * 0x1.0p-52 - 1.0;  // [-1, 1)
  }
  std::vector<const double*> rows(refs);
  for (std::size_t k = 0; k < refs; ++k) {
    rows[k] = values.data() + k * kProbeLanes;
  }
  std::vector<double> block(kProbeLanes);
  kernel(rows.data(), kProbeLanes, block.data());
  std::vector<double> column(refs);
  for (std::size_t l = 0; l < kProbeLanes; ++l) {
    for (std::size_t k = 0; k < refs; ++k) {
      column[k] = values[k * kProbeLanes + l];
    }
    const double single = call_one_lane(kernel, column.data(), refs);
    if (std::memcmp(&single, &block[l], sizeof(double)) != 0) {
      throw Error("set_block_kernel on '" + name_ + "': lane " +
                  std::to_string(l) +
                  " of a 256-lane block call differs from its n = 1 call");
    }
  }
  kernel_ = [kernel, refs](const std::vector<double>& v) {
    if (v.size() != refs) {
      throw Error("block kernel arity mismatch: got " +
                  std::to_string(v.size()) + " values for " +
                  std::to_string(refs) + " references");
    }
    return call_one_lane(kernel, v.data(), refs);
  };
  block_ = std::move(kernel);
  weights_.clear();
  kernel_id_ = fresh_kernel_id();
}

void StencilProgram::copy_kernel_from(const StencilProgram& other) {
  if (other.total_references() != total_references()) {
    throw Error("copy_kernel_from: '" + other.name_ + "' has " +
                std::to_string(other.total_references()) + " references, '" +
                name_ + "' has " + std::to_string(total_references()));
  }
  const KernelFn& kernel = other.kernel();  // materializes a lazy default
  if (other.block_) {
    kernel_ = kernel;
    block_ = other.block_;
    weights_.clear();
  } else if (!other.weighted_sum_weights().empty()) {
    set_weighted_sum(other.weighted_sum_weights());
  } else {
    set_kernel(kernel);
  }
  kernel_id_ = other.kernel_id_;
}

std::uint64_t StencilProgram::fresh_kernel_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::string StencilProgram::kernel_identity() const {
  const std::vector<double>& weights = weighted_sum_weights();
  if (kernel_id_ != 0 || weights.empty()) {
    return "k:" + std::to_string(kernel_id_);
  }
  std::string out = "w:";
  for (const double w : weights) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &w, sizeof(bits));
    out += std::to_string(bits) + ",";
  }
  return out;
}

BlockKernelFn StencilProgram::block_kernel() const {
  if (block_) return block_;
  return [kernel = kernel(), refs = total_references()](
             const double* const* rows, std::int64_t n, double* out) {
    std::vector<double> lane(refs);
    for (std::int64_t l = 0; l < n; ++l) {
      for (std::size_t k = 0; k < refs; ++k) lane[k] = rows[k][l];
      out[l] = kernel(lane);
    }
  };
}

const std::vector<double>& StencilProgram::weighted_sum_weights() const {
  if (!kernel_ && !default_kernel_) kernel();  // materialize the default
  return weights_;
}

poly::Domain StencilProgram::reference_domain(std::size_t array_idx,
                                              std::size_t ref_idx) const {
  const InputArray& input = inputs_.at(array_idx);
  return iteration_.translated(input.refs.at(ref_idx).offset);
}

poly::Domain StencilProgram::input_data_domain(std::size_t array_idx) const {
  const InputArray& input = inputs_.at(array_idx);
  poly::Domain out;
  for (const ArrayReference& ref : input.refs) {
    for (const poly::Polyhedron& piece : iteration_.pieces()) {
      out.add_piece(piece.translated(ref.offset));
    }
  }
  return out;
}

poly::Domain StencilProgram::data_domain_hull(std::size_t array_idx) const {
  const InputArray& input = inputs_.at(array_idx);
  poly::IntVec lo(dim(), 0);
  poly::IntVec hi(dim(), 0);
  std::vector<bool> initialized(dim(), false);
  for (const poly::Polyhedron& piece : iteration_.pieces()) {
    for (std::size_t d = 0; d < dim(); ++d) {
      const poly::Interval range = piece.axis_range(d);
      if (range.empty()) continue;
      for (const ArrayReference& ref : input.refs) {
        const std::int64_t piece_lo = range.lo + ref.offset[d];
        const std::int64_t piece_hi = range.hi + ref.offset[d];
        if (!initialized[d]) {
          lo[d] = piece_lo;
          hi[d] = piece_hi;
          initialized[d] = true;
        } else {
          lo[d] = std::min(lo[d], piece_lo);
          hi[d] = std::max(hi[d], piece_hi);
        }
      }
    }
  }
  for (bool init : initialized) {
    if (!init) throw Error("data_domain_hull: degenerate iteration domain");
  }
  return poly::Domain::box(lo, hi);
}

std::vector<std::string> StencilProgram::iteration_names() const {
  static const char* kNames[] = {"i", "j", "k"};
  std::vector<std::string> names;
  names.reserve(dim());
  for (std::size_t d = 0; d < dim(); ++d) {
    names.push_back(d < 3 ? kNames[d] : "x" + std::to_string(d));
  }
  return names;
}

std::string StencilProgram::to_c_code() const {
  const std::vector<std::string> names = iteration_names();
  std::string out;
  std::string indent;

  poly::IntVec lo;
  poly::IntVec hi;
  if (iteration_.as_single_box(&lo, &hi)) {
    for (std::size_t d = 0; d < dim(); ++d) {
      out += indent + "for (int " + names[d] + " = " + std::to_string(lo[d]) +
             "; " + names[d] + " <= " + std::to_string(hi[d]) + "; " +
             names[d] + "++)\n";
      indent += "  ";
    }
  } else {
    out += "// iteration domain: " + iteration_.to_string() + "\n";
    out += "for (point (" ;
    for (std::size_t d = 0; d < dim(); ++d) {
      if (d > 0) out += ", ";
      out += names[d];
    }
    out += ") in domain)\n";
    indent = "  ";
  }

  std::string lhs = output_;
  for (const std::string& n : names) lhs += "[" + n + "]";
  out += indent + lhs + " = kernel(";
  bool first = true;
  for (const InputArray& input : inputs_) {
    for (const ArrayReference& ref : input.refs) {
      if (!first) out += ", ";
      out += ref.to_string(input.name, names);
      first = false;
    }
  }
  out += ");\n";
  return out;
}

}  // namespace nup::stencil
