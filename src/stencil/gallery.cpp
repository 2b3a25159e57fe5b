#include "stencil/gallery.hpp"

#include <cmath>

#include "poly/polyhedron.hpp"
#include "util/error.hpp"

namespace nup::stencil {

namespace {

using poly::Domain;
using poly::IntVec;
using poly::make_constraint;
using poly::Polyhedron;

/// Interior iteration box for a grid [0, rows) x [0, cols) and a window
/// with per-axis reach lo/hi: iterations where every reference stays on the
/// grid.
Domain interior_2d(std::int64_t rows, std::int64_t cols,
                   std::int64_t reach_lo_i, std::int64_t reach_hi_i,
                   std::int64_t reach_lo_j, std::int64_t reach_hi_j) {
  return Domain::box({-reach_lo_i, -reach_lo_j},
                     {rows - 1 - reach_hi_i, cols - 1 - reach_hi_j});
}

Domain interior_3d(std::int64_t planes, std::int64_t rows, std::int64_t cols,
                   std::int64_t reach) {
  return Domain::box({reach, reach, reach},
                     {planes - 1 - reach, rows - 1 - reach, cols - 1 - reach});
}

}  // namespace

StencilProgram denoise_2d(std::int64_t rows, std::int64_t cols) {
  StencilProgram p("DENOISE", interior_2d(rows, cols, -1, 1, -1, 1));
  p.add_input("A", {{-1, 0}, {0, -1}, {0, 0}, {0, 1}, {1, 0}});
  // Damped Laplacian smoothing step.
  p.set_weighted_sum({0.125, 0.125, 0.5, 0.125, 0.125});
  return p;
}

StencilProgram rician_2d(std::int64_t rows, std::int64_t cols) {
  StencilProgram p("RICIAN", interior_2d(rows, cols, -1, 1, -1, 1));
  p.add_input("A", {{-1, 0}, {0, -1}, {0, 1}, {1, 0}});
  // Rician-noise removal uses a nonlinear combination; model the shape with
  // a root-of-squares so the golden/simulated comparison exercises a
  // non-additive kernel. Per lane: acc = 0; acc += 0.25 * x * x over the
  // references in order; sqrt(acc). This file is compiled without FMA
  // contraction (src/stencil/CMakeLists.txt), so the product is rounded
  // before the sum in every build and the pinned checksums hold.
  p.set_block_kernel([](const double* v, std::int64_t n, double* out) {
    for (std::int64_t l = 0; l < n; ++l) out[l] = 0.0;
    for (std::int64_t k = 0; k < 4; ++k) {
      const double* x = v + k * n;
      for (std::int64_t l = 0; l < n; ++l) out[l] += 0.25 * x[l] * x[l];
    }
    for (std::int64_t l = 0; l < n; ++l) out[l] = std::sqrt(out[l]);
  });
  return p;
}

StencilProgram sobel_2d(std::int64_t rows, std::int64_t cols) {
  StencilProgram p("SOBEL", interior_2d(rows, cols, -1, 1, -1, 1));
  // Order: (-1,-1), (-1,0), (-1,1), (0,-1), (0,1), (1,-1), (1,0), (1,1).
  p.add_input("A", {{-1, -1},
                    {-1, 0},
                    {-1, 1},
                    {0, -1},
                    {0, 1},
                    {1, -1},
                    {1, 0},
                    {1, 1}});
  p.set_block_kernel([](const double* v, std::int64_t n, double* out) {
    const double* v0 = v;
    const double* v1 = v0 + n;
    const double* v2 = v1 + n;
    const double* v3 = v2 + n;
    const double* v4 = v3 + n;
    const double* v5 = v4 + n;
    const double* v6 = v5 + n;
    const double* v7 = v6 + n;
    for (std::int64_t l = 0; l < n; ++l) {
      const double gx = (v2[l] + 2.0 * v4[l] + v7[l]) -
                        (v0[l] + 2.0 * v3[l] + v5[l]);
      const double gy = (v5[l] + 2.0 * v6[l] + v7[l]) -
                        (v0[l] + 2.0 * v1[l] + v2[l]);
      out[l] = std::abs(gx) + std::abs(gy);
    }
  });
  return p;
}

StencilProgram bicubic_2d(std::int64_t rows, std::int64_t cols) {
  StencilProgram p("BICUBIC", interior_2d(rows, cols, 0, 0, -2, 4));
  p.add_input("A", {{0, -2}, {0, 0}, {0, 2}, {0, 4}});
  // Catmull-Rom taps at t = 0.5.
  p.set_weighted_sum({-0.0625, 0.5625, 0.5625, -0.0625});
  return p;
}

StencilProgram denoise_3d(std::int64_t planes, std::int64_t rows,
                          std::int64_t cols) {
  StencilProgram p("DENOISE_3D", interior_3d(planes, rows, cols, 1));
  p.add_input("A", {{-1, 0, 0},
                    {0, -1, 0},
                    {0, 0, -1},
                    {0, 0, 0},
                    {0, 0, 1},
                    {0, 1, 0},
                    {1, 0, 0}});
  p.set_weighted_sum({0.1, 0.1, 0.1, 0.4, 0.1, 0.1, 0.1});
  return p;
}

StencilProgram segmentation_3d(std::int64_t planes, std::int64_t rows,
                               std::int64_t cols) {
  // 3x3x3 cube minus the 8 corners: 19 points (Fig 6c).
  std::vector<IntVec> offsets;
  for (std::int64_t a = -1; a <= 1; ++a) {
    for (std::int64_t b = -1; b <= 1; ++b) {
      for (std::int64_t c = -1; c <= 1; ++c) {
        if (std::abs(a) + std::abs(b) + std::abs(c) <= 2) {
          offsets.push_back({a, b, c});
        }
      }
    }
  }
  if (offsets.size() != 19) throw Error("SEGMENTATION_3D window must be 19");
  StencilProgram p("SEGMENTATION_3D", interior_3d(planes, rows, cols, 1));
  p.add_input("A", std::move(offsets));
  p.set_weighted_sum(std::vector<double>(19, 1.0 / 19.0));
  return p;
}

std::vector<StencilProgram> paper_benchmarks() {
  std::vector<StencilProgram> out;
  out.push_back(denoise_2d());
  out.push_back(rician_2d());
  out.push_back(sobel_2d());
  out.push_back(bicubic_2d());
  out.push_back(denoise_3d());
  out.push_back(segmentation_3d());
  return out;
}

StencilProgram jacobi_2d(std::int64_t rows, std::int64_t cols) {
  StencilProgram p("JACOBI_2D", interior_2d(rows, cols, -1, 1, -1, 1));
  p.add_input("A", {{-1, 0}, {0, -1}, {0, 0}, {0, 1}, {1, 0}});
  p.set_weighted_sum({0.2, 0.2, 0.2, 0.2, 0.2});
  return p;
}

StencilProgram blur_2d(std::int64_t rows, std::int64_t cols) {
  StencilProgram p("BLUR_3x3", interior_2d(rows, cols, -1, 1, -1, 1));
  std::vector<IntVec> offsets;
  for (std::int64_t a = -1; a <= 1; ++a) {
    for (std::int64_t b = -1; b <= 1; ++b) offsets.push_back({a, b});
  }
  p.add_input("A", std::move(offsets));
  p.set_weighted_sum(std::vector<double>(9, 1.0 / 9.0));
  return p;
}

StencilProgram heat_3d(std::int64_t planes, std::int64_t rows,
                       std::int64_t cols) {
  StencilProgram p("HEAT_3D", interior_3d(planes, rows, cols, 1));
  p.add_input("A", {{-1, 0, 0},
                    {0, -1, 0},
                    {0, 0, -1},
                    {0, 0, 0},
                    {0, 0, 1},
                    {0, 1, 0},
                    {1, 0, 0}});
  p.set_weighted_sum({0.125, 0.125, 0.125, 0.25, 0.125, 0.125, 0.125});
  return p;
}

StencilProgram lattice_4d(std::int64_t n0, std::int64_t n1,
                          std::int64_t n2, std::int64_t n3) {
  StencilProgram p("LATTICE_4D",
                   Domain::box({1, 1, 1, 1},
                               {n0 - 2, n1 - 2, n2 - 2, n3 - 2}));
  std::vector<IntVec> offsets{{0, 0, 0, 0}};
  for (std::size_t d = 0; d < 4; ++d) {
    IntVec plus(4, 0);
    IntVec minus(4, 0);
    plus[d] = 1;
    minus[d] = -1;
    offsets.push_back(plus);
    offsets.push_back(minus);
  }
  p.add_input("A", std::move(offsets));
  p.set_weighted_sum(std::vector<double>(9, 1.0 / 9.0));
  return p;
}

StencilProgram jacobi4_2d(std::int64_t rows, std::int64_t cols) {
  StencilProgram p("JACOBI4_2D", interior_2d(rows, cols, -1, 1, -1, 1));
  p.add_input("A", {{-1, 0}, {0, -1}, {0, 1}, {1, 0}});
  p.set_weighted_sum({0.25, 0.25, 0.25, 0.25});
  return p;
}

StencilProgram jacobi8_2d(std::int64_t rows, std::int64_t cols) {
  StencilProgram p("JACOBI8_2D", interior_2d(rows, cols, -1, 1, -1, 1));
  p.add_input("A", {{-1, -1},
                    {-1, 0},
                    {-1, 1},
                    {0, -1},
                    {0, 1},
                    {1, -1},
                    {1, 0},
                    {1, 1}});
  p.set_weighted_sum(std::vector<double>(8, 0.125));
  return p;
}

StencilProgram heat_2d(std::int64_t rows, std::int64_t cols) {
  StencilProgram p("HEAT_2D", interior_2d(rows, cols, -1, 1, -1, 1));
  p.add_input("A", {{-1, 0}, {0, -1}, {0, 0}, {0, 1}, {1, 0}});
  const double alpha = 0.1;
  p.set_weighted_sum({alpha, alpha, 1.0 - 4.0 * alpha, alpha, alpha});
  return p;
}

StencilProgram life_2d(std::int64_t rows, std::int64_t cols) {
  StencilProgram p("LIFE_2D", interior_2d(rows, cols, -1, 1, -1, 1));
  std::vector<IntVec> offsets;
  for (std::int64_t a = -1; a <= 1; ++a) {
    for (std::int64_t b = -1; b <= 1; ++b) offsets.push_back({a, b});
  }
  p.add_input("A", std::move(offsets));  // center is slot 4
  p.set_block_kernel([](const double* v, std::int64_t n, double* out) {
    for (std::int64_t l = 0; l < n; ++l) {
      int neighbours = 0;
      for (std::int64_t k = 0; k < 9; ++k) {
        if (k != 4 && v[k * n + l] > 0.5) ++neighbours;
      }
      const bool alive = v[4 * n + l] > 0.5;
      out[l] = (neighbours == 3 || (alive && neighbours == 2)) ? 1.0 : 0.0;
    }
  });
  return p;
}

std::vector<StencilProgram> iterative_benchmarks() {
  std::vector<StencilProgram> out;
  out.push_back(jacobi4_2d());
  out.push_back(jacobi8_2d());
  out.push_back(heat_2d());
  out.push_back(life_2d());
  out.push_back(denoise_2d(96, 128));
  return out;
}

StencilProgram skewed_demo(std::int64_t rows, std::int64_t cols) {
  // Sheared trapezoid (Fig 9): 1 <= i <= rows-2 and i+1 <= j <= 2i+cols-2,
  // with an X-shaped 5-point window. Row i is i + cols - 2 points long, so
  // the reuse distance between references grows as execution advances --
  // the dynamic buffer-level adaptation the paper demonstrates.
  Polyhedron piece(2);
  piece.add(make_constraint({1, 0}, -1));          // i >= 1
  piece.add(make_constraint({-1, 0}, rows - 2));   // i <= rows-2
  piece.add(make_constraint({-1, 1}, -1));         // j - i >= 1
  piece.add(make_constraint({2, -1}, cols - 2));   // j - 2i <= cols-2
  StencilProgram p("SKEWED_X5", Domain(std::move(piece)));
  p.add_input("A", {{-1, -1}, {-1, 1}, {0, 0}, {1, -1}, {1, 1}});
  p.set_weighted_sum({0.2, 0.2, 0.2, 0.2, 0.2});
  return p;
}

StencilProgram triangular_demo(std::int64_t rows) {
  // Lower-triangular domain: 1 <= i <= rows-2, 1 <= j <= i.
  Polyhedron piece(2);
  piece.add(make_constraint({1, 0}, -1));          // i >= 1
  piece.add(make_constraint({-1, 0}, rows - 2));   // i <= rows-2
  piece.add(make_constraint({0, 1}, -1));          // j >= 1
  piece.add(make_constraint({1, -1}, 0));          // j <= i
  StencilProgram p("TRIANGULAR_4PT", Domain(std::move(piece)));
  p.add_input("A", {{0, 0}, {0, -1}, {-1, 0}, {-1, -1}});
  p.set_weighted_sum({0.25, 0.25, 0.25, 0.25});
  return p;
}

}  // namespace nup::stencil
