#include "runtime/tiler.hpp"

#include <algorithm>
#include <string>

#include "poly/polyhedron.hpp"
#include "poly/reuse.hpp"
#include "util/error.hpp"

namespace nup::runtime {

void domain_bounding_box(const poly::Domain& domain, poly::IntVec* lo,
                         poly::IntVec* hi) {
  const std::size_t dim = domain.dim();
  lo->assign(dim, 0);
  hi->assign(dim, -1);
  bool first = true;
  for (const poly::Polyhedron& piece : domain.pieces()) {
    for (std::size_t d = 0; d < dim; ++d) {
      const poly::Interval range = piece.axis_range(d);
      if (range.empty()) continue;
      if (first || range.lo < (*lo)[d]) (*lo)[d] = range.lo;
      if (first || range.hi > (*hi)[d]) (*hi)[d] = range.hi;
    }
    first = false;
  }
  if (first) {
    throw Error("domain_bounding_box: domain has no pieces");
  }
}

TilePlan plan_tiles(const stencil::StencilProgram& program,
                    const TilerOptions& options) {
  const poly::Domain& domain = program.iteration();
  const std::size_t dim = program.dim();
  if (!options.tile_shape.empty() && options.tile_shape.size() != dim) {
    throw Error("plan_tiles: tile shape has " +
                std::to_string(options.tile_shape.size()) +
                " dimensions for a " + std::to_string(dim) +
                "-dimensional program");
  }

  poly::IntVec bb_lo, bb_hi;
  domain_bounding_box(domain, &bb_lo, &bb_hi);

  TilePlan plan;
  plan.tile_shape.resize(dim);
  poly::IntVec cells(dim);  // tile-grid extent per dimension
  for (std::size_t d = 0; d < dim; ++d) {
    const std::int64_t extent = bb_hi[d] - bb_lo[d] + 1;
    std::int64_t shape =
        options.tile_shape.empty() ? 0 : options.tile_shape[d];
    if (shape <= 0 || shape > extent) shape = extent;
    plan.tile_shape[d] = shape;
    cells[d] = (extent + shape - 1) / shape;
  }

  // Per-array window growth: the halo the input hull grows by.
  for (const stencil::InputArray& input : program.inputs()) {
    poly::IntVec wlo(dim, 0), whi(dim, 0);
    for (const stencil::ArrayReference& ref : input.refs) {
      for (std::size_t d = 0; d < dim; ++d) {
        wlo[d] = std::min(wlo[d], ref.offset[d]);
        whi[d] = std::max(whi[d], ref.offset[d]);
      }
    }
    plan.window_lo.push_back(std::move(wlo));
    plan.window_hi.push_back(std::move(whi));
  }

  // Enumerate tile-grid cells in lex order; keep the non-empty ones.
  std::int64_t cell_count = 1;
  for (std::size_t d = 0; d < dim; ++d) cell_count *= cells[d];
  std::vector<std::int64_t> tile_of_cell(
      static_cast<std::size_t>(cell_count), -1);

  for (std::int64_t cell = 0; cell < cell_count; ++cell) {
    poly::IntVec tlo(dim), thi(dim);
    std::int64_t rest = cell;
    for (std::size_t d = dim; d-- > 0;) {
      const std::int64_t c = rest % cells[d];
      rest /= cells[d];
      tlo[d] = bb_lo[d] + c * plan.tile_shape[d];
      thi[d] = std::min(tlo[d] + plan.tile_shape[d] - 1, bb_hi[d]);
    }
    const poly::Polyhedron box = poly::Polyhedron::box(tlo, thi);
    poly::Domain tile_domain;
    for (const poly::Polyhedron& piece : domain.pieces()) {
      tile_domain.add_piece(piece.intersected(box));
    }
    if (tile_domain.empty()) continue;

    auto tile_program = std::make_shared<stencil::StencilProgram>(
        program.name() + "_t" + std::to_string(plan.tiles.size()),
        std::move(tile_domain));
    for (const stencil::InputArray& input : program.inputs()) {
      std::vector<poly::IntVec> offsets;
      offsets.reserve(input.refs.size());
      for (const stencil::ArrayReference& ref : input.refs) {
        offsets.push_back(ref.offset);
      }
      tile_program->add_input(input.name, std::move(offsets));
    }
    tile_program->set_output(program.output_name());
    // Copying the kernel forces the parent's lazy default to materialize
    // here, while planning is single-threaded; the tile program is
    // immutable (and its kernel a pure read) from now on. The kernel's
    // form (weighted sum or block kernel) carries over, so tiles keep the
    // fast backend's vector and block paths.
    tile_program->copy_kernel_from(program);

    Tile tile;
    tile.lo = std::move(tlo);
    tile.hi = std::move(thi);
    for (std::size_t a = 0; a < program.inputs().size(); ++a) {
      poly::Domain hull = tile_program->data_domain_hull(a);
      tile.streamed_elements += hull.count();
      // End-to-end maximum reuse distance over the tile's streamed hull:
      // from the lexicographically greatest (earliest-streamed) reference
      // to the least (Definition 9) -- the chain's total on-chip buffering.
      const stencil::InputArray& input = program.inputs()[a];
      poly::IntVec f_from = input.refs.front().offset;
      poly::IntVec f_to = f_from;
      for (const stencil::ArrayReference& ref : input.refs) {
        if (poly::lex_less(f_from, ref.offset)) f_from = ref.offset;
        if (poly::lex_less(ref.offset, f_to)) f_to = ref.offset;
      }
      tile.reuse_footprint +=
          poly::max_reuse_distance(tile_program->iteration(), hull, f_from,
                                   f_to)
              .max_distance;
      tile.input_hulls.push_back(std::move(hull));
    }
    tile.output_ranks.reserve(
        static_cast<std::size_t>(tile_program->iteration().count()));
    tile.program = std::move(tile_program);

    tile_of_cell[static_cast<std::size_t>(cell)] =
        static_cast<std::int64_t>(plan.tiles.size());
    plan.streamed_elements += tile.streamed_elements;
    plan.tiles.push_back(std::move(tile));
  }

  // One pass over the full domain assigns every output its frame rank. The
  // subsequence of frame points falling in one tile is lex-sorted, and the
  // tile's own lexicographic execution order sorts the same set the same
  // way, so appending here yields exactly the tile's emission order.
  std::int64_t rank = 0;
  domain.for_each([&](const poly::IntVec& p) {
    std::int64_t cell = 0;
    for (std::size_t d = 0; d < dim; ++d) {
      cell = cell * cells[d] + (p[d] - bb_lo[d]) / plan.tile_shape[d];
    }
    const std::int64_t t = tile_of_cell[static_cast<std::size_t>(cell)];
    if (t < 0) {
      throw Error("plan_tiles: domain point " + poly::to_string(p) +
                  " fell into a cell whose tile intersection was empty");
    }
    plan.tiles[static_cast<std::size_t>(t)].output_ranks.push_back(rank++);
  });
  plan.total_outputs = rank;

  for (std::size_t a = 0; a < program.inputs().size(); ++a) {
    plan.untiled_streamed_elements += program.data_domain_hull(a).count();
  }
  return plan;
}

}  // namespace nup::runtime
