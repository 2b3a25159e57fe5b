#include "stencil/golden.hpp"

#include "poly/domain.hpp"

namespace nup::stencil {

namespace {

/// One SplitMix64-style avalanche round folding coordinate `c` into `x`;
/// any change to seed, array index, or one coordinate flips roughly half
/// the output bits.
inline std::uint64_t mix_coordinate(std::uint64_t x, std::int64_t c) {
  x += static_cast<std::uint64_t>(c) + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

inline double to_unit_interval(std::uint64_t x) {
  return static_cast<double>(x >> 11) * (1.0 / 9007199254740992.0);
}

}  // namespace

double synthetic_value(std::uint64_t seed, std::size_t array_idx,
                       const poly::IntVec& h) {
  double value = 0.0;
  synthetic_row(seed, array_idx, h, 1, &value);
  return value;
}

void synthetic_row(std::uint64_t seed, std::size_t array_idx,
                   const poly::IntVec& h, std::int64_t n, double* out) {
  std::uint64_t prefix = seed ^ (0x9e3779b97f4a7c15ull * (array_idx + 1));
  if (h.empty()) {
    if (n > 0) out[0] = to_unit_interval(prefix);
    return;
  }
  for (std::size_t d = 0; d + 1 < h.size(); ++d) {
    prefix = mix_coordinate(prefix, h[d]);
  }
  const std::int64_t inner = h.back();
  for (std::int64_t l = 0; l < n; ++l) {
    out[l] = to_unit_interval(mix_coordinate(prefix, inner + l));
  }
}

GoldenRun run_golden(const StencilProgram& program, std::uint64_t seed) {
  GoldenRun run;
  run.outputs.reserve(
      static_cast<std::size_t>(program.iteration().count()));
  std::vector<double> gathered;
  gathered.reserve(program.total_references());
  const KernelFn& kernel = program.kernel();

  for (poly::Domain::LexCursor cursor(program.iteration()); cursor.valid();
       cursor.advance()) {
    const poly::IntVec& i = cursor.point();
    gathered.clear();
    for (std::size_t a = 0; a < program.inputs().size(); ++a) {
      for (const ArrayReference& ref : program.inputs()[a].refs) {
        gathered.push_back(
            synthetic_value(seed, a, poly::add(i, ref.offset)));
      }
    }
    run.outputs.push_back(kernel(gathered));
  }
  return run;
}

}  // namespace nup::stencil
