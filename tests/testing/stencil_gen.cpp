#include "testing/stencil_gen.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "poly/affine.hpp"
#include "poly/polyhedron.hpp"
#include "util/rng.hpp"

namespace nup::testing {

stencil::StencilProgram random_program(std::uint64_t seed,
                                       const StencilGenOptions& options) {
  // The draw order below is load-bearing: with default options it must
  // consume the Rng stream exactly like the legacy duplicated generators,
  // so historical seeds keep naming the same programs.
  Rng rng(seed * 2654435761u + 17);
  const std::size_t refs = static_cast<std::size_t>(
      rng.next_in(options.min_refs, options.max_refs));
  std::set<poly::IntVec> offsets;
  while (offsets.size() < refs) {
    offsets.insert({rng.next_in(-2, 2), rng.next_in(-3, 3)});
  }

  std::int64_t lo[2];
  std::int64_t hi[2];
  for (std::size_t d = 0; d < 2; ++d) {
    std::int64_t reach = 0;
    for (const poly::IntVec& f : offsets) {
      reach = std::max(reach, std::max(f[d], -f[d]));
    }
    lo[d] = reach;
    hi[d] = lo[d] + rng.next_in(options.min_extent, options.max_extent);
  }

  using Shape = StencilGenOptions::Shape;
  Shape shape = options.shape;
  if (shape == Shape::kBySeed) {
    shape = (seed % 2) == 1 ? Shape::kSheared : Shape::kRect;
  }

  poly::Domain domain;
  std::string prefix;
  switch (shape) {
    case Shape::kSheared: {
      const std::int64_t shear = rng.next_in(1, 2);
      poly::Polyhedron piece(2);
      piece.add(poly::make_constraint({1, 0}, -lo[0]));       // i >= lo0
      piece.add(poly::make_constraint({-1, 0}, hi[0]));       // i <= hi0
      piece.add(poly::make_constraint({-shear, 1}, -lo[1]));  // j-s*i >= lo1
      piece.add(poly::make_constraint({shear, -1}, hi[1]));   // j-s*i <= hi1
      domain = poly::Domain(std::move(piece));
      prefix = "RAND_SKEW_";
      break;
    }
    case Shape::kTriangular: {
      // Row at i holds j in [lo1, lo1 + (i - lo0)]: inner widths ramp
      // 1, 2, ..., extent+1, so every vector-width remainder class occurs.
      poly::Polyhedron piece(2);
      piece.add(poly::make_constraint({1, 0}, -lo[0]));           // i >= lo0
      piece.add(poly::make_constraint({-1, 0}, hi[0]));           // i <= hi0
      piece.add(poly::make_constraint({0, 1}, -lo[1]));           // j >= lo1
      piece.add(poly::make_constraint({1, -1}, lo[1] - lo[0]));   // j-lo1 <= i-lo0
      domain = poly::Domain(std::move(piece));
      prefix = "RAND_TRI_";
      break;
    }
    default: {
      domain = poly::Domain::box({lo[0], lo[1]}, {hi[0], hi[1]});
      prefix = "RAND_RECT_";
      break;
    }
  }

  stencil::StencilProgram p(prefix + std::to_string(seed), domain);
  p.add_input("A",
              std::vector<poly::IntVec>(offsets.begin(), offsets.end()));
  if (options.nonlinear_block) {
    std::vector<double> w;
    w.reserve(refs);
    for (std::size_t k = 0; k < refs; ++k) {
      w.push_back(rng.next_double() + 0.25);
    }
    const auto arity = static_cast<std::int64_t>(refs);
    if (rng.next_in(0, 1) == 0) {
      p.set_block_kernel([w, arity](const double* const* v, std::int64_t n,
                                    double* out) {
        for (std::int64_t l = 0; l < n; ++l) out[l] = 0.0;
        for (std::int64_t k = 0; k < arity; ++k) {
          const double* x = v[k];
          for (std::int64_t l = 0; l < n; ++l) out[l] += w[k] * x[l] * x[l];
        }
        for (std::int64_t l = 0; l < n; ++l) out[l] = std::sqrt(out[l]);
      });
    } else {
      p.set_block_kernel([w, arity](const double* const* v, std::int64_t n,
                                    double* out) {
        for (std::int64_t l = 0; l < n; ++l) out[l] = 0.0;
        for (std::int64_t k = 1; k < arity; ++k) {
          const double* x = v[k];
          for (std::int64_t l = 0; l < n; ++l) {
            out[l] += w[k] * std::abs(x[l] - v[0][l]);
          }
        }
      });
    }
  } else if (options.random_weights) {
    std::vector<double> weights;
    weights.reserve(refs);
    for (std::size_t k = 0; k < refs; ++k) {
      weights.push_back(rng.next_double() + 0.25);
    }
    p.set_weighted_sum(std::move(weights));
  }
  return p;
}

std::vector<stencil::StencilProgram> random_stage_pair(std::uint64_t seed) {
  Rng rng(seed * 2654435761u + 99);
  const std::int64_t a = 2;
  const std::int64_t b = a + rng.next_in(8, 14);
  const std::int64_t r2 = rng.next_in(1, 2);

  const auto random_stage = [&](const std::string& name, std::int64_t lo,
                                std::int64_t hi, std::int64_t radius) {
    const std::size_t refs = static_cast<std::size_t>(rng.next_in(2, 6));
    std::set<poly::IntVec> offsets;
    offsets.insert({0, 0});
    while (offsets.size() < refs) {
      offsets.insert(
          {rng.next_in(-radius, radius), rng.next_in(-radius, radius)});
    }
    stencil::StencilProgram p(name, poly::Domain::box({lo, lo}, {hi, hi}));
    p.add_input("A",
                std::vector<poly::IntVec>(offsets.begin(), offsets.end()));
    std::vector<double> weights;
    for (std::size_t k = 0; k < offsets.size(); ++k) {
      weights.push_back(rng.next_double() + 0.25);
    }
    p.set_weighted_sum(std::move(weights));
    return p;
  };

  return {random_stage("P1_" + std::to_string(seed), a, b, 2),
          random_stage("P2_" + std::to_string(seed), a + r2, b - r2, r2)};
}

IterativeTriple random_iterative_triple(std::uint64_t seed) {
  Rng rng(seed * 2654435761u + 123);
  const std::size_t refs = static_cast<std::size_t>(rng.next_in(2, 6));
  std::set<poly::IntVec> offsets;
  while (offsets.size() < refs) {
    offsets.insert({rng.next_in(-2, 2), rng.next_in(-2, 2)});
  }

  // Box domain only: the temporal unroller's replica algebra is defined on
  // boxes. Anchor at the window reach so even deep kShrink chains stay on
  // small coordinates.
  std::int64_t lo[2];
  std::int64_t hi[2];
  for (std::size_t d = 0; d < 2; ++d) {
    std::int64_t reach = 0;
    for (const poly::IntVec& f : offsets) {
      reach = std::max(reach, std::max(f[d], -f[d]));
    }
    lo[d] = reach;
    hi[d] = lo[d] + rng.next_in(6, 14);
  }

  IterativeTriple triple{
      stencil::StencilProgram(
          "RAND_ITER_" + std::to_string(seed),
          poly::Domain::box({lo[0], lo[1]}, {hi[0], hi[1]}))};
  triple.program.add_input(
      "A", std::vector<poly::IntVec>(offsets.begin(), offsets.end()));
  std::vector<double> weights;
  weights.reserve(refs);
  for (std::size_t k = 0; k < refs; ++k) {
    weights.push_back(rng.next_double() + 0.25);
  }
  triple.program.set_weighted_sum(std::move(weights));

  triple.timesteps = rng.next_in(1, 6);
  triple.block = rng.next_in(1, triple.timesteps);
  switch (rng.next_in(0, 3)) {
    case 0:
      triple.boundary = stencil::BoundaryPolicy::kShrink;
      break;
    case 1:
      triple.boundary = stencil::BoundaryPolicy::kClamp;
      break;
    case 2:
      triple.boundary = stencil::BoundaryPolicy::kWrap;
      break;
    default:
      triple.boundary = stencil::BoundaryPolicy::kConstant;
      break;
  }
  triple.constant_value = rng.next_double();
  return triple;
}

}  // namespace nup::testing
