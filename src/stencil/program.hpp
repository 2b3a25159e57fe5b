#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "poly/domain.hpp"
#include "poly/int_vec.hpp"

namespace nup::stencil {

/// One read reference A[i + f] of a data array (Definition 4: the access
/// function of a stencil reference is the identity plus a constant offset).
struct ArrayReference {
  poly::IntVec offset;  // f_x

  /// Renders e.g. "A[i-1][j]" for offset (-1, 0).
  std::string to_string(const std::string& array,
                        const std::vector<std::string>& iter_names) const;
};

/// A data array together with all its stencil references (the stencil
/// window), in source order.
struct InputArray {
  std::string name;
  std::vector<ArrayReference> refs;
};

/// Combines the values gathered for one iteration -- flattened across
/// arrays then references, in source order -- into the output value.
using KernelFn = std::function<double(const std::vector<double>&)>;

/// Block form of a kernel: evaluates `n` iterations ("lanes") in one call.
/// `rows[k]` points at the n values of reference slot k (the KernelFn
/// argument order) -- `rows[k][l]` is slot k of lane l -- and `out[l]`
/// receives lane l's output. The rows are read in place wherever the
/// caller keeps them (the fast simulator passes pointers into its stream
/// windows, so the rows of different slots may overlap), and must not be
/// written. Contract: lane l's output depends only on the values
/// rows[0..refs)[l], and equals bit for bit what the call with n = 1 on
/// those values returns, whatever n is and wherever lane l sits in the
/// block. StencilProgram::set_block_kernel checks this once on a probe
/// block, so a loop the compiler vectorizes or contracts (FMA) differently
/// from its scalar remainder is rejected instead of silently forking bits.
using BlockKernelFn = std::function<void(const double* const* rows,
                                         std::int64_t n, double* out)>;

/// Builds a KernelFn computing sum(weights[k] * values[k]).
KernelFn make_weighted_sum(std::vector<double> weights);

/// A complete stencil computation (Definition 4): an iteration domain, one
/// or more input arrays with constant-offset references, and a pointwise
/// kernel producing one output element per iteration.
class StencilProgram {
 public:
  StencilProgram(std::string name, poly::Domain iteration);

  /// Declares an input array with the given reference offsets (the stencil
  /// window). Offsets must match the iteration dimensionality and be
  /// pairwise distinct.
  void add_input(std::string array, std::vector<poly::IntVec> offsets);

  void set_output(std::string name) { output_ = std::move(name); }
  void set_kernel(KernelFn kernel) {
    kernel_ = std::move(kernel);
    block_ = nullptr;
    weights_.clear();  // an opaque kernel carries no weight structure
    kernel_id_ = fresh_kernel_id();
  }

  /// Installs a weighted-sum kernel AND records the weights so backends can
  /// see the linear structure (the vector path evaluates W lanes of
  /// sum(w[k]*v[k]) directly instead of W opaque std::function calls).
  void set_weighted_sum(std::vector<double> weights) {
    weights_ = weights;
    kernel_ = make_weighted_sum(std::move(weights));
    block_ = nullptr;
    kernel_id_ = 0;
  }

  /// Installs a kernel given in block form (see BlockKernelFn). Its arity is
  /// total_references(), which must be non-zero. kernel() becomes the
  /// n = 1 case of the same function -- one definition serves golden, the
  /// reference simulator and every fast-backend cycle. Throws Error when the
  /// program has no references or when one block call over a deterministic
  /// 256-lane probe differs in any bit from 256 calls with n = 1.
  void set_block_kernel(BlockKernelFn kernel);

  /// Carries `other`'s kernel over in whatever form it has: weighted sum,
  /// block form or point kernel (materializing `other`'s lazy default).
  /// Both programs must have the same number of references.
  void copy_kernel_from(const StencilProgram& other);

  /// The weights when the kernel is a known weighted sum (installed via
  /// set_weighted_sum, or the lazy equal-weight default); empty for opaque
  /// kernels set through set_kernel.
  const std::vector<double>& weighted_sum_weights() const;

  /// Identity of the kernel, for keying anything that embeds it: "w:" and
  /// the weight bits for a weighted sum (the lazy default included), "k:"
  /// and a process-unique id assigned when an opaque or block kernel is
  /// installed. Copies of a program and copy_kernel_from keep the identity,
  /// so equal identities always mean the same function.
  std::string kernel_identity() const;

  const std::string& name() const { return name_; }
  const poly::Domain& iteration() const { return iteration_; }
  const std::vector<InputArray>& inputs() const { return inputs_; }
  const std::string& output_name() const { return output_; }
  std::size_t dim() const { return iteration_.dim(); }

  /// Total number of array references across all inputs: the original
  /// pipeline II before memory partitioning (Table 4's "Original II").
  std::size_t total_references() const;

  /// Kernel used for golden execution; defaults to an equal-weight sum.
  const KernelFn& kernel() const;

  /// The kernel in block form; always callable. The installed block kernel
  /// when there is one, otherwise a per-lane adapter that gathers each lane
  /// and calls kernel().
  BlockKernelFn block_kernel() const;

  /// D_Ax: the set of data elements touched by one reference (Definition 5).
  poly::Domain reference_domain(std::size_t array_idx,
                                std::size_t ref_idx) const;

  /// D_A: the union of all reference domains of one array (Definition 6).
  poly::Domain input_data_domain(std::size_t array_idx) const;

  /// The bounding box of D_A as a single-box domain. This is the "A[0..767]
  /// [0..1023]" representation the paper streams from external memory; the
  /// default FIFO-sizing rule is computed against it.
  poly::Domain data_domain_hull(std::size_t array_idx) const;

  /// Names i, j, k, ... (or x0.. for >3 dims) used when rendering code.
  std::vector<std::string> iteration_names() const;

  /// Renders Fig 1-style C code of the whole computation (for docs, tests,
  /// and the code generator round-trip).
  std::string to_c_code() const;

 private:
  std::string name_;
  poly::Domain iteration_;
  std::vector<InputArray> inputs_;
  std::string output_ = "B";
  KernelFn kernel_;  // empty until first use; defaults to equal-weight sum
  BlockKernelFn block_;  // set only by set_block_kernel; kernel_ is its n = 1
  mutable KernelFn default_kernel_;
  /// Weights of the kernel when its linear structure is known; kept in sync
  /// by the set_* kernel installers. Lazily filled with the equal-weight
  /// default alongside default_kernel_.
  mutable std::vector<double> weights_;
  /// Process-unique id of an opaque or block kernel; 0 for weighted sums.
  std::uint64_t kernel_id_ = 0;

  static std::uint64_t fresh_kernel_id();
};

}  // namespace nup::stencil
