#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pipeline/stage_graph.hpp"
#include "poly/int_vec.hpp"
#include "stencil/boundary.hpp"
#include "stencil/program.hpp"
#include "util/error.hpp"

namespace nup::temporal {

/// Base of every temporal-blocking error.
class TemporalError : public Error {
 public:
  explicit TemporalError(const std::string& what) : Error(what) {}
};

/// Raised for inconsistent (T, B, program) configurations: T < 1, B < 1,
/// B > T, or a program the unroller cannot replicate (multiple inputs).
class TemporalConfigError : public TemporalError {
 public:
  explicit TemporalConfigError(const std::string& what)
      : TemporalError(what) {}
};

/// Raised when the program's iteration domain is not a single axis-aligned
/// box. Temporal replicas translate and grow the domain per generation;
/// that algebra (and the boundary policies' coordinate mapping) is defined
/// on boxes only.
class TemporalDomainError : public TemporalError {
 public:
  explicit TemporalDomainError(const std::string& what)
      : TemporalError(what) {}
};

/// How to unroll an iterative stencil in time. `timesteps` is the total
/// iteration count T of the solver; `block` is the temporal blocking
/// factor B: the number of consecutive generations computed by one pass of
/// a replicated pipeline (Zohouri-style temporal blocking -- B replica
/// stages back to back, each holding one generation in its reuse buffers).
/// ceil(T/B) passes complete the run.
struct TemporalConfig {
  std::int64_t timesteps = 1;  ///< T >= 1: generations to compute
  std::int64_t block = 1;      ///< B in [1, T]: replicas per pass

  /// How replicas read past the previous generation's domain edge.
  /// kShrink (the default) computes a grown halo instead -- earlier
  /// replicas iterate a domain expanded by the stencil window per
  /// remaining generation, so every read is contained. The value policies
  /// (clamp / wrap / constant) keep all replicas on the target domain and
  /// define the out-of-domain reads.
  stencil::BoundaryPolicy boundary = stencil::BoundaryPolicy::kShrink;

  /// Dirichlet value served by BoundaryPolicy::kConstant.
  double constant_value = 0.0;
};

/// One pass shape: a validated chain of replica stages. Passes whose
/// replica domains coincide (all full passes under a value policy) share
/// one PassShape -- and hence, in the runner, one executor whose per-stage
/// engines hold the non-uniformly partitioned reuse buffers of every
/// replica.
struct PassShape {
  pipeline::StageGraph graph;          ///< replica chain, one stage per gen
  std::size_t replicas = 0;            ///< stages in the chain
  std::vector<poly::Domain> domains;   ///< per-replica iteration domain
};

/// The full unrolled schedule of one temporal-blocking run.
struct TemporalSchedule {
  TemporalConfig config;
  std::int64_t num_passes = 0;  ///< ceil(T / B)

  /// Distinct pass shapes. Value policies need at most two (the B-replica
  /// full pass and, when T % B != 0, the shorter final pass); kShrink
  /// builds one per pass, since every generation iterates a different box.
  std::vector<PassShape> shapes;

  /// shape index of pass p, p in [0, num_passes).
  std::vector<std::size_t> pass_shape;

  /// First generation computed by pass p (replica k of pass p produces
  /// generation first_generation[p] + k; generation 0 is the input).
  std::vector<std::int64_t> first_generation;

  /// Per-step stencil window: the per-dimension min/max reference offset.
  poly::IntVec window_lo, window_hi;

  /// The target iteration domain box (generation T lives here).
  poly::IntVec domain_lo, domain_hi;

  /// Iteration domain of pass p's sink replica (the pass output box).
  /// Under a value policy every pass outputs the target box; under
  /// kShrink pass p's output box is the target grown by (T - (p+1)B)
  /// windows -- exactly the box pass p+1's first replica needs.
  void pass_output_box(std::size_t pass, poly::IntVec* lo,
                       poly::IntVec* hi) const;
};

/// Builds one replica of `base` over `domain`: same input array name and
/// reference offsets, same output name, and the same kernel in the same form
/// (StencilProgram::copy_kernel_from) -- weighted-sum kernels are
/// re-installed from their weights so the replica keeps the canonical fma
/// evaluation order (bit-identity across replicas) and the vector path keeps
/// seeing the linear structure; block kernels stay block kernels.
stencil::StencilProgram make_replica(const stencil::StencilProgram& base,
                                     poly::Domain domain, std::string name);

/// Unrolls `base` (a single-input stencil over a box domain) into the
/// replica-pass schedule of `config`. Throws TemporalConfigError /
/// TemporalDomainError on invalid configurations; the returned schedule's
/// graphs are fully validated (window containment for kShrink chains,
/// box-domain checks for value-policy chains).
TemporalSchedule plan_temporal(const stencil::StencilProgram& base,
                               const TemporalConfig& config);

}  // namespace nup::temporal
