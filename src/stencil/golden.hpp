#pragma once

#include <cstdint>
#include <vector>

#include "poly/int_vec.hpp"
#include "stencil/program.hpp"

namespace nup::stencil {

/// Deterministic synthetic value of array `array_idx` at grid point `h`.
/// The paper's benchmarks run on medical images we do not have; a hash of
/// the coordinates exercises exactly the same data paths (DESIGN.md §3),
/// and the same function feeds both the golden executor and the simulated
/// off-chip memory so results are directly comparable.
/// It is the one-point case of synthetic_row.
double synthetic_value(std::uint64_t seed, std::size_t array_idx,
                       const poly::IntVec& h);

/// synthetic_value at the `n` points h, h + e, ..., h + (n-1)e, where e is
/// the unit step along the innermost axis, written to out[0..n). The outer
/// coordinates are mixed into the hash once per row, so a row costs one
/// avalanche round per point instead of one per coordinate. `h` must have
/// at least one coordinate unless n <= 1.
void synthetic_row(std::uint64_t seed, std::size_t array_idx,
                   const poly::IntVec& h, std::int64_t n, double* out);

/// Result of a pure-software stencil execution.
struct GoldenRun {
  /// One kernel output per iteration, in lexicographic iteration order.
  std::vector<double> outputs;
};

/// Executes the stencil in plain software: for every iteration of the
/// iteration domain in lexicographic order, gathers A[i + f_x] for every
/// reference (synthetic values) and applies the kernel.
GoldenRun run_golden(const StencilProgram& program, std::uint64_t seed);

}  // namespace nup::stencil
