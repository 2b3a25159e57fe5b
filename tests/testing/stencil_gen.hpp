// Shared seeded random-stencil generators for the test suites. One recipe,
// one place: the simulator differential suite, the runtime engine suite,
// the pipeline executor suite and the vector fuzz harness all draw from
// here, so a seed names the same program everywhere and a recipe tweak
// cannot silently fork the suites.

#pragma once

#include <cstdint>
#include <vector>

#include "stencil/boundary.hpp"
#include "stencil/program.hpp"

namespace nup::testing {

/// Knobs of random_program. The defaults reproduce bit-for-bit the legacy
/// recipe previously duplicated across differential_test.cpp and
/// engine_test.cpp: Rng(seed * 2654435761 + 17), 2-7 distinct offsets in
/// [-2,2]x[-3,3], per-dimension extents next_in(5,12), even seeds
/// rectangular / odd seeds sheared.
struct StencilGenOptions {
  enum class Shape {
    kBySeed,       ///< legacy: even seed -> rect, odd seed -> sheared
    kRect,         ///< axis-aligned box
    kSheared,      ///< rows shifted by a random shear of 1-2 per outer step
    kTriangular,   ///< row length grows by 1 per outer step (ragged inner
                   ///< widths 1..extent, exercising every W remainder)
  };
  Shape shape = Shape::kBySeed;

  std::int64_t min_refs = 2;    ///< window size range (distinct offsets)
  std::int64_t max_refs = 7;
  std::int64_t min_extent = 5;  ///< per-dimension extent range (inclusive)
  std::int64_t max_extent = 12;

  /// Install a random weighted-sum kernel (weights in [0.25, 1.25)) via
  /// set_weighted_sum so the linear structure is visible to the vector
  /// path. False keeps the legacy equal-weight default kernel.
  bool random_weights = false;

  /// Install a nonlinear block kernel (set_block_kernel) with random
  /// weights w in [0.25, 1.25): either sqrt(sum w[k] * v[k]^2) or the
  /// weighted sum of |v[k] - v[0]|, picked from the seed. Takes precedence
  /// over random_weights; false draws nothing extra from the Rng stream.
  bool nonlinear_block = false;
};

/// Deterministic random 2-D single-input stencil for `seed`. With default
/// options this is exactly the legacy generator of the differential and
/// engine suites (same Rng stream, same names "RAND_RECT_<seed>" /
/// "RAND_SKEW_<seed>").
stencil::StencilProgram random_program(std::uint64_t seed,
                                       const StencilGenOptions& options = {});

/// Deterministic random fusible stage pair (legacy pipeline recipe:
/// Rng(seed * 2654435761 + 99)): stage 1 on [a,b]^2 with window radius 2,
/// stage 2's radius-r2 window shrinks its domain to [a+r2, b-r2]^2; both
/// stages carry random weighted-sum kernels.
std::vector<stencil::StencilProgram> random_stage_pair(std::uint64_t seed);

/// One random temporal-blocking configuration: an iterative 2-D stencil
/// over a box domain plus the (T, B, boundary) triple that sweeps it.
struct IterativeTriple {
  stencil::StencilProgram program;
  std::int64_t timesteps = 1;  ///< T in [1, 6]
  std::int64_t block = 1;      ///< B in [1, T]
  stencil::BoundaryPolicy boundary = stencil::BoundaryPolicy::kShrink;
  double constant_value = 0.0;  ///< kConstant's Dirichlet value
};

/// Deterministic random iterative triple for `seed` (Rng stream
/// seed * 2654435761 + 123): 2-6 distinct offsets in [-2,2]^2, box extents
/// 6-14 per dimension, random weighted-sum kernel, and a boundary policy
/// cycling shrink / clamp / wrap / constant. Programs are named
/// "RAND_ITER_<seed>".
IterativeTriple random_iterative_triple(std::uint64_t seed);

}  // namespace nup::testing
