#include "pipeline/dependency.hpp"

#include <algorithm>

#include "sim/row_program.hpp"
#include "util/error.hpp"

namespace nup::pipeline {

namespace {

bool boxes_overlap(const poly::IntVec& alo, const poly::IntVec& ahi,
                   const poly::IntVec& blo, const poly::IntVec& bhi) {
  for (std::size_t d = 0; d < alo.size(); ++d) {
    if (ahi[d] < blo[d] || bhi[d] < alo[d]) return false;
  }
  return true;
}

/// True when the producer tile's clipped iteration domain meets the hull
/// box. The tile box test is the common-case answer (rectangular domains
/// tile into boxes); only sheared/triangular tiles pay for the polyhedral
/// intersection.
bool tile_covers(const runtime::Tile& producer, const poly::IntVec& hull_lo,
                 const poly::IntVec& hull_hi) {
  if (!boxes_overlap(producer.lo, producer.hi, hull_lo, hull_hi)) {
    return false;
  }
  const poly::Domain& domain = producer.program->iteration();
  {
    poly::IntVec lo, hi;
    if (domain.as_single_box(&lo, &hi)) return true;  // box test was exact
  }
  const poly::Polyhedron hull = poly::Polyhedron::box(hull_lo, hull_hi);
  for (const poly::Polyhedron& piece : domain.pieces()) {
    if (!poly::Domain(piece.intersected(hull)).empty()) return true;
  }
  return false;
}

}  // namespace

EdgeTileMap map_tile_dependencies(const runtime::TilePlan& producer_plan,
                                  const runtime::TilePlan& consumer_plan,
                                  std::size_t input_index) {
  EdgeTileMap map;
  map.producers_of.resize(consumer_plan.tiles.size());
  map.consumers_of.resize(producer_plan.tiles.size());

  for (std::size_t c = 0; c < consumer_plan.tiles.size(); ++c) {
    const runtime::Tile& consumer = consumer_plan.tiles[c];
    if (input_index >= consumer.input_hulls.size()) {
      throw Error("map_tile_dependencies: input index out of range");
    }
    poly::IntVec hull_lo, hull_hi;
    if (!consumer.input_hulls[input_index].as_single_box(&hull_lo,
                                                         &hull_hi)) {
      throw Error("map_tile_dependencies: consumer hull is not a box");
    }
    for (std::size_t p = 0; p < producer_plan.tiles.size(); ++p) {
      if (tile_covers(producer_plan.tiles[p], hull_lo, hull_hi)) {
        map.producers_of[c].push_back(p);
        map.consumers_of[p].push_back(c);
      }
    }
  }
  return map;
}

EdgeStitchPlan plan_edge_stitch(const runtime::TilePlan& producer_plan,
                                const runtime::TilePlan& consumer_plan,
                                const EdgeTileMap& map,
                                std::size_t input_index,
                                const poly::IntVec& expand_lo,
                                const poly::IntVec& expand_hi) {
  // Each producer tile's rows in lex (= slab) order, compiled once however
  // many consumer tiles it covers.
  std::vector<sim::RowProgram> producer_rows;
  producer_rows.reserve(producer_plan.tiles.size());
  for (const runtime::Tile& tile : producer_plan.tiles) {
    producer_rows.push_back(
        sim::RowProgram::compile(tile.program->iteration()));
  }

  EdgeStitchPlan plan;
  plan.slices.resize(consumer_plan.tiles.size());
  for (std::size_t c = 0; c < consumer_plan.tiles.size(); ++c) {
    EdgeStitchPlan::SliceRuns& slice = plan.slices[c];
    if (!consumer_plan.tiles[c].input_hulls[input_index].as_single_box(
            &slice.lo, &slice.hi)) {
      throw Error("plan_edge_stitch: consumer hull is not a box");
    }
    for (std::size_t d = 0; d < expand_lo.size(); ++d) {
      slice.lo[d] = std::min(slice.lo[d], expand_lo[d]);
      slice.hi[d] = std::max(slice.hi[d], expand_hi[d]);
    }
    const std::size_t inner = slice.lo.size() - 1;
    std::vector<std::int64_t> strides(slice.lo.size(), 1);
    for (std::size_t d = inner; d-- > 0;) {
      strides[d] = strides[d + 1] * (slice.hi[d + 1] - slice.lo[d + 1] + 1);
    }
    slice.elements = strides[0] * (slice.hi[0] - slice.lo[0] + 1);

    for (const std::size_t p : map.producers_of[c]) {
      std::int64_t slab_offset = 0;
      for (const sim::RowProgram::Row& row : producer_rows[p].rows) {
        bool outer_in_box = true;
        std::int64_t row_base = 0;
        for (std::size_t d = 0; d < inner; ++d) {
          outer_in_box = outer_in_box && row.prefix[d] >= slice.lo[d] &&
                         row.prefix[d] <= slice.hi[d];
          row_base += (row.prefix[d] - slice.lo[d]) * strides[d];
        }
        for (const poly::Interval& iv : row.intervals) {
          const std::int64_t first = std::max(iv.lo, slice.lo[inner]);
          const std::int64_t last = std::min(iv.hi, slice.hi[inner]);
          if (outer_in_box && first <= last) {
            slice.runs.push_back({p, slab_offset + (first - iv.lo),
                                  row_base + (first - slice.lo[inner]),
                                  last - first + 1});
          }
          slab_offset += iv.size();
        }
      }
    }
  }
  return plan;
}

DependencyTracker::DependencyTracker(
    const StageGraph& graph,
    const std::vector<std::shared_ptr<const EdgeTileMap>>& edge_maps,
    const std::vector<std::size_t>& tiles_per_stage, bool barrier)
    : graph_(&graph), maps_(edge_maps), barrier_(barrier) {
  if (maps_.size() != graph.edges().size() ||
      tiles_per_stage.size() != graph.stage_count()) {
    throw Error("DependencyTracker: size mismatch with graph");
  }
  baseline_waits_.resize(graph.stage_count());
  for (std::size_t s = 0; s < graph.stage_count(); ++s) {
    baseline_waits_[s].assign(tiles_per_stage[s], 0);
  }
  if (barrier_) {
    // Every consumer tile waits for each in-edge's producer frame as a
    // whole: one unit per in-edge, decremented when the edge's last
    // producer tile resolves.
    baseline_producer_left_.resize(graph.edges().size());
    for (std::size_t e = 0; e < graph.edges().size(); ++e) {
      const StageEdge& edge = graph.edges()[e];
      baseline_producer_left_[e] =
          static_cast<std::int64_t>(tiles_per_stage[edge.producer]);
      for (std::int64_t& w : baseline_waits_[edge.consumer]) ++w;
    }
  } else {
    for (std::size_t e = 0; e < graph.edges().size(); ++e) {
      const StageEdge& edge = graph.edges()[e];
      const EdgeTileMap& map = *maps_[e];
      for (std::size_t c = 0; c < map.producers_of.size(); ++c) {
        baseline_waits_[edge.consumer][c] +=
            static_cast<std::int64_t>(map.producers_of[c].size());
      }
    }
  }
}

DependencyTracker::FrameSlot& DependencyTracker::slot_locked(
    std::uint64_t frame) {
  for (FrameSlot& slot : slots_) {
    if (slot.active && slot.frame == frame) return slot;
  }
  throw Error("DependencyTracker: frame " + std::to_string(frame) +
              " is not armed");
}

std::vector<DependencyTracker::Ready> DependencyTracker::arm(
    std::uint64_t frame) {
  std::lock_guard<std::mutex> lock(mu_);
  FrameSlot* slot = nullptr;
  for (FrameSlot& s : slots_) {
    if (s.active && s.frame == frame) {
      throw Error("DependencyTracker: frame " + std::to_string(frame) +
                  " armed twice");
    }
    if (!s.active && !slot) slot = &s;
  }
  if (!slot) {
    slots_.emplace_back();
    slot = &slots_.back();
    slot->waits.resize(baseline_waits_.size());
  }
  slot->frame = frame;
  slot->active = true;
  // Slot reuse keeps the countdown storage: assign() into equal-sized
  // vectors copies values without touching the heap.
  for (std::size_t s = 0; s < baseline_waits_.size(); ++s) {
    slot->waits[s].assign(baseline_waits_[s].begin(),
                          baseline_waits_[s].end());
  }
  slot->producer_left.assign(baseline_producer_left_.begin(),
                             baseline_producer_left_.end());

  std::vector<Ready> ready;
  for (std::size_t s = 0; s < slot->waits.size(); ++s) {
    for (std::size_t t = 0; t < slot->waits[s].size(); ++t) {
      if (slot->waits[s][t] == 0) ready.push_back(Ready{frame, s, t});
    }
  }
  return ready;
}

std::vector<DependencyTracker::Ready> DependencyTracker::resolve(
    std::uint64_t frame, std::size_t stage, std::size_t tile) {
  std::lock_guard<std::mutex> lock(mu_);
  FrameSlot& slot = slot_locked(frame);
  std::vector<Ready> ready;
  for (const std::size_t e : graph_->stages()[stage].out_edges) {
    const StageEdge& edge = graph_->edges()[e];
    if (barrier_) {
      if (--slot.producer_left[e] > 0) continue;
      for (std::size_t c = 0; c < slot.waits[edge.consumer].size(); ++c) {
        if (--slot.waits[edge.consumer][c] == 0) {
          ready.push_back(Ready{frame, edge.consumer, c});
        }
      }
    } else {
      for (const std::size_t c : maps_[e]->consumers_of[tile]) {
        if (--slot.waits[edge.consumer][c] == 0) {
          ready.push_back(Ready{frame, edge.consumer, c});
        }
      }
    }
  }
  return ready;
}

void DependencyTracker::retire(std::uint64_t frame) {
  std::lock_guard<std::mutex> lock(mu_);
  slot_locked(frame).active = false;
}

std::size_t DependencyTracker::frames_armed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::size_t>(
      std::count_if(slots_.begin(), slots_.end(),
                    [](const FrameSlot& s) { return s.active; }));
}

}  // namespace nup::pipeline
