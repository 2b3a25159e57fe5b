#include "pipeline/stage_buffer.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

namespace nup::pipeline {

namespace {

std::vector<std::int64_t> row_major_strides(const poly::IntVec& lo,
                                            const poly::IntVec& hi) {
  std::vector<std::int64_t> strides(lo.size(), 1);
  for (std::size_t d = lo.size(); d-- > 1;) {
    strides[d - 1] = strides[d] * (hi[d] - lo[d] + 1);
  }
  return strides;
}

std::int64_t box_index(const poly::IntVec& point, const poly::IntVec& lo,
                       const std::vector<std::int64_t>& strides) {
  std::int64_t idx = 0;
  for (std::size_t d = 0; d < point.size(); ++d) {
    idx += (point[d] - lo[d]) * strides[d];
  }
  return idx;
}

bool in_box(const poly::IntVec& point, const poly::IntVec& lo,
            const poly::IntVec& hi) {
  for (std::size_t d = 0; d < point.size(); ++d) {
    if (point[d] < lo[d] || point[d] > hi[d]) return false;
  }
  return true;
}

/// Lanes [begin, end) of the row of `n` points starting at inner
/// coordinate `first` whose inner coordinate lies in [lo, hi].
std::pair<std::int64_t, std::int64_t> in_box_lanes(std::int64_t first,
                                                   std::int64_t n,
                                                   std::int64_t lo,
                                                   std::int64_t hi) {
  const std::int64_t begin = std::clamp<std::int64_t>(lo - first, 0, n);
  const std::int64_t end = std::clamp<std::int64_t>(hi - first + 1, begin, n);
  return {begin, end};
}

}  // namespace

SliceFeed::SliceFeed(Slice slice)
    : slice_(std::move(slice)),
      strides_(row_major_strides(slice_.lo, slice_.hi)) {}

double SliceFeed::read(const poly::IntVec& h) {
  if (!in_box(h, slice_.lo, slice_.hi)) return 0.0;
  return (*slice_.data)[static_cast<std::size_t>(
      box_index(h, slice_.lo, strides_))];
}

void SliceFeed::read_row(const poly::IntVec& h, std::int64_t n,
                         double* out) {
  const std::size_t inner = h.size() - 1;
  std::int64_t base = 0;
  for (std::size_t d = 0; d < inner; ++d) {
    if (h[d] < slice_.lo[d] || h[d] > slice_.hi[d]) {
      std::fill_n(out, n, 0.0);
      return;
    }
    base += (h[d] - slice_.lo[d]) * strides_[d];
  }
  const auto [begin, end] =
      in_box_lanes(h[inner], n, slice_.lo[inner], slice_.hi[inner]);
  std::fill(out, out + begin, 0.0);
  if (end > begin) {
    const double* row = slice_.data->data() + base;
    std::memcpy(out + begin, row + (h[inner] + begin - slice_.lo[inner]),
                static_cast<std::size_t>(end - begin) * sizeof(double));
  }
  std::fill(out + end, out + n, 0.0);
}

BoundaryFeed::BoundaryFeed(std::shared_ptr<sim::ExternalFeed> inner,
                           poly::IntVec lo, poly::IntVec hi,
                           stencil::BoundaryPolicy policy,
                           double constant_value)
    : inner_(std::move(inner)),
      lo_(std::move(lo)),
      hi_(std::move(hi)),
      policy_(policy),
      constant_(constant_value) {}

double BoundaryFeed::read(const poly::IntVec& h) {
  if (in_box(h, lo_, hi_)) return inner_->read(h);
  switch (policy_) {
    case stencil::BoundaryPolicy::kConstant:
      return constant_;
    case stencil::BoundaryPolicy::kClamp:
    case stencil::BoundaryPolicy::kWrap:
      return inner_->read(stencil::map_into_box(h, lo_, hi_, policy_));
    default:
      // Containment policies never read past the box; any such read is
      // hull padding the consumer's data filters discard.
      return 0.0;
  }
}

void BoundaryFeed::read_row(const poly::IntVec& h, std::int64_t n,
                            double* out) {
  if (n <= 0) return;
  const std::size_t inner = h.size() - 1;
  bool outer_in_box = true;
  for (std::size_t d = 0; d < inner; ++d) {
    outer_in_box = outer_in_box && h[d] >= lo_[d] && h[d] <= hi_[d];
  }
  const std::int64_t lo = lo_[inner];
  const std::int64_t hi = hi_[inner];
  const std::int64_t first = h[inner];
  if (outer_in_box && first >= lo && first + n - 1 <= hi) {
    inner_->read_row(h, n, out);  // every lane in the box: nothing to map
    return;
  }
  const bool remaps = policy_ == stencil::BoundaryPolicy::kClamp ||
                      policy_ == stencil::BoundaryPolicy::kWrap;
  if (!outer_in_box && !remaps) {
    std::fill_n(out, n, policy_ == stencil::BoundaryPolicy::kConstant
                            ? constant_
                            : 0.0);
    return;
  }
  // The row's outer coordinates, mapped into the box once; the inner
  // coordinate is set per span below.
  poly::IntVec row =
      outer_in_box ? h : stencil::map_into_box(h, lo_, hi_, policy_);
  if (policy_ == stencil::BoundaryPolicy::kWrap) {
    // Every lane maps into the box: one row read per wrapped span.
    const std::int64_t extent = hi - lo + 1;
    for (std::int64_t l = 0; l < n;) {
      std::int64_t r = (first + l - lo) % extent;
      if (r < 0) r += extent;
      row[inner] = lo + r;
      const std::int64_t span = std::min(n - l, extent - r);
      inner_->read_row(row, span, out + l);
      l += span;
    }
    return;
  }
  const auto [begin, end] = in_box_lanes(first, n, lo, hi);
  if (end > begin) {
    row[inner] = first + begin;
    inner_->read_row(row, end - begin, out + begin);
  }
  // Lanes past the box edges: one edge read per side under clamp, the
  // constant or the containment padding otherwise.
  const auto edge_value = [&](std::int64_t edge) {
    if (policy_ == stencil::BoundaryPolicy::kClamp) {
      row[inner] = edge;
      return inner_->read(row);
    }
    return policy_ == stencil::BoundaryPolicy::kConstant ? constant_ : 0.0;
  };
  if (begin > 0) std::fill_n(out, begin, edge_value(lo));
  if (end < n) std::fill(out + end, out + n, edge_value(hi));
}

EdgeMetrics::EdgeMetrics(obs::Registry& registry, const std::string& label) {
  const std::string prefix = "pipeline.edge." + label + ".";
  tiles = &registry.gauge(prefix + "buffer_tiles");
  elements = &registry.gauge(prefix + "buffer_elements");
  tiles_max = &registry.gauge(prefix + "buffer_tiles_max");
  elements_max = &registry.gauge(prefix + "buffer_elements_max");
  retired = &registry.counter(prefix + "tiles_retired");
}

StageBuffer::StageBuffer(
    std::shared_ptr<const runtime::TilePlan> producer_plan,
    std::shared_ptr<const EdgeTileMap> map,
    std::shared_ptr<const EdgeStitchPlan> stitch_plan,
    const EdgeMetrics& metrics, std::shared_ptr<SlabPool> pool,
    std::shared_ptr<const runtime::PlacementPlan> producer_nodes,
    std::shared_ptr<const runtime::PlacementPlan> consumer_nodes)
    : producer_plan_(std::move(producer_plan)),
      map_(std::move(map)),
      stitch_plan_(std::move(stitch_plan)),
      pool_(pool ? std::move(pool) : std::make_shared<SlabPool>()),
      producer_nodes_(std::move(producer_nodes)),
      consumer_nodes_(std::move(consumer_nodes)),
      metrics_(metrics) {
  slabs_.resize(producer_plan_->tiles.size());
  pending_.resize(producer_plan_->tiles.size());
  for (std::size_t p = 0; p < pending_.size(); ++p) {
    pending_[p] = static_cast<std::int64_t>(map_->consumers_of[p].size());
  }
}

StageBuffer::~StageBuffer() {
  // Hand whatever an aborted frame left resident back to the pool and
  // drop it from the shared gauges.
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t p = 0; p < slabs_.size(); ++p) {
    if (!slabs_[p].empty()) {
      pool_->give(std::move(slabs_[p]), producer_arena(p));
    }
  }
  metrics_.tiles->add(-occ_.tiles);
  metrics_.elements->add(-occ_.elements);
}

// A slab lives in the arena of the node its producer tile was placed on
// (the worker that admitted it first-touched the storage there); stitched
// slices lease from the consumer tile's node for the same reason.
std::size_t StageBuffer::producer_arena(std::size_t tile_idx) const {
  if (!producer_nodes_ || tile_idx >= producer_nodes_->node_of.size()) {
    return 0;
  }
  return static_cast<std::size_t>(producer_nodes_->node_of[tile_idx]);
}

std::size_t StageBuffer::consumer_arena(std::size_t tile_idx) const {
  if (!consumer_nodes_ || tile_idx >= consumer_nodes_->node_of.size()) {
    return 0;
  }
  return static_cast<std::size_t>(consumer_nodes_->node_of[tile_idx]);
}

void StageBuffer::admit(std::size_t tile_idx, const double* tile_outputs) {
  const runtime::Tile& tile = producer_plan_->tiles[tile_idx];
  std::vector<double> slab =
      pool_->take(tile.output_ranks.size(), producer_arena(tile_idx));
  std::memcpy(slab.data(), tile_outputs, slab.size() * sizeof(double));

  std::lock_guard<std::mutex> lock(mu_);
  if (pending_[tile_idx] == 0) {  // no consumer covers (or all skipped)
    pool_->give(std::move(slab), producer_arena(tile_idx));
    return;
  }
  const std::int64_t elems = static_cast<std::int64_t>(slab.size());
  slabs_[tile_idx] = std::move(slab);
  occ_.tiles += 1;
  occ_.elements += elems;
  occ_.max_tiles = std::max(occ_.max_tiles, occ_.tiles);
  occ_.max_elements = std::max(occ_.max_elements, occ_.elements);
  metrics_.tiles->add(1);
  metrics_.elements->add(elems);
  metrics_.tiles_max->update_max(occ_.max_tiles);
  metrics_.elements_max->update_max(occ_.max_elements);
}

Slice StageBuffer::stitch(std::size_t tile_idx) {
  const EdgeStitchPlan::SliceRuns& plan = stitch_plan_->slices[tile_idx];
  const std::shared_ptr<std::vector<double>> data = pool_->lease(
      static_cast<std::size_t>(plan.elements), consumer_arena(tile_idx));

  std::lock_guard<std::mutex> lock(mu_);
  for (const EdgeStitchPlan::Run& run : plan.runs) {
    std::memcpy(data->data() + run.slice_offset,
                slabs_[run.producer].data() + run.slab_offset,
                static_cast<std::size_t>(run.length) * sizeof(double));
  }
  for (const std::size_t p : map_->producers_of[tile_idx]) {
    if (--pending_[p] == 0) retire_locked(p);
  }
  return Slice{data, plan.lo, plan.hi};
}

void StageBuffer::release_consumer(std::size_t tile_idx) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::size_t p : map_->producers_of[tile_idx]) {
    if (--pending_[p] == 0) retire_locked(p);
  }
}

void StageBuffer::retire_locked(std::size_t producer_tile) {
  std::vector<double>& slab = slabs_[producer_tile];
  const std::int64_t elems = static_cast<std::int64_t>(slab.size());
  if (elems == 0) return;  // skipped producer: nothing was admitted
  pool_->give(std::move(slab), producer_arena(producer_tile));
  slab = {};
  occ_.tiles -= 1;
  occ_.elements -= elems;
  occ_.retired += 1;
  metrics_.tiles->add(-1);
  metrics_.elements->add(-elems);
  metrics_.retired->inc();
}

StageBuffer::Occupancy StageBuffer::occupancy() const {
  std::lock_guard<std::mutex> lock(mu_);
  return occ_;
}

}  // namespace nup::pipeline
