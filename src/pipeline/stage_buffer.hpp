#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "pipeline/dependency.hpp"
#include "pipeline/slab_pool.hpp"
#include "poly/int_vec.hpp"
#include "runtime/placement.hpp"
#include "runtime/tiler.hpp"
#include "sim/feed.hpp"
#include "stencil/boundary.hpp"

namespace nup::pipeline {

/// A dense row-major block of producer output over an axis-aligned box:
/// the stitched input of one consumer tile. Data is shared and immutable
/// once built, so the feed object and the buffer can both hold it without
/// copying; when the storage came from a SlabPool lease, dropping the last
/// reference recycles it for a later tile.
struct Slice {
  std::shared_ptr<const std::vector<double>> data;
  poly::IntVec lo, hi;  ///< inclusive box corners (grid coordinates)
};

/// ExternalFeed serving a stitched Slice: always available (the data is
/// resident by construction -- the consumer tile was only released after
/// every covering producer tile resolved), values looked up row-major.
/// Points outside the slice box read 0.0; they can only be hull padding
/// the consumer's data filters discard, never kernel inputs.
class SliceFeed final : public sim::ExternalFeed {
 public:
  explicit SliceFeed(Slice slice);

  bool available(const poly::IntVec&) override { return true; }
  double read(const poly::IntVec& h) override;
  /// Slice data is resident and immutable for the tile's whole run, so the
  /// fast backend may batch wide steps over this feed.
  bool time_invariant() const override { return true; }
  std::int64_t available_row(const poly::IntVec&, std::int64_t n) override {
    return n;
  }
  /// Clips the row to the slice box and copies the in-box span; lanes
  /// outside the box read 0.0.
  void read_row(const poly::IntVec& h, std::int64_t n, double* out) override;

 private:
  Slice slice_;
  std::vector<std::int64_t> strides_;
};

/// Wraps another feed with a boundary policy over the producer's domain
/// box [lo, hi]: coordinates inside the box pass through, coordinates
/// outside are clamped / wrapped into it (then served by the inner feed)
/// or answered with a constant. This is how an edge whose consumer shares
/// the producer's iteration domain -- a temporal replica reading the
/// previous generation -- defines the reads its halo makes past the grid
/// edge. Mapped clamp coordinates always land inside the consumer tile's
/// clipped hull, so the stitched slice already holds them; wrap reaches
/// the opposite side of the grid and therefore requires the inner slice
/// to span the whole producer domain (the temporal runner forces
/// whole-frame tiles for wrap edges).
class BoundaryFeed final : public sim::ExternalFeed {
 public:
  BoundaryFeed(std::shared_ptr<sim::ExternalFeed> inner, poly::IntVec lo,
               poly::IntVec hi, stencil::BoundaryPolicy policy,
               double constant_value);

  bool available(const poly::IntVec&) override { return true; }
  double read(const poly::IntVec& h) override;
  bool time_invariant() const override { return inner_->time_invariant(); }
  std::int64_t available_row(const poly::IntVec&, std::int64_t n) override {
    return n;
  }
  /// Maps the row's outer coordinates into the box once, then serves the
  /// in-box span with one row read of the inner feed and the lanes past the
  /// box edges without building a point: one edge read per side under
  /// clamp, a fill under constant (and the containment policies' padding),
  /// one row read per wrapped span under wrap.
  void read_row(const poly::IntVec& h, std::int64_t n, double* out) override;

 private:
  std::shared_ptr<sim::ExternalFeed> inner_;
  poly::IntVec lo_, hi_;
  stencil::BoundaryPolicy policy_;
  double constant_;
};

/// The pipeline.edge.<label>.* occupancy series of one stage edge, resolved
/// once per edge and shared by every frame's StageBuffer on it.
struct EdgeMetrics {
  EdgeMetrics(obs::Registry& registry, const std::string& label);

  obs::Gauge* tiles;         ///< buffer_tiles
  obs::Gauge* elements;      ///< buffer_elements
  obs::Gauge* tiles_max;     ///< buffer_tiles_max
  obs::Gauge* elements_max;  ///< buffer_elements_max
  obs::Counter* retired;     ///< tiles_retired
};

/// Per-edge, per-frame staging buffer between a producer and a consumer
/// stage. Producer workers admit() finished tile slabs; when a consumer
/// tile's covering set is complete, stitch() assembles its input slice
/// with the edge's planned row copies (EdgeStitchPlan) and retires every
/// producer slab whose last consumer has been served -- so
/// steady-state occupancy is the band of producer rows the consumer halo
/// still needs, not the frame. Slab and slice storage comes from the
/// edge's SlabPool, shared by every frame of the pipeline: successive
/// frames recycle retired storage instead of reallocating it, making the
/// steady-state admit/stitch/retire cycle allocation-free. Thread-safe
/// (engine workers of both stages call in concurrently).
class StageBuffer {
 public:
  struct Occupancy {
    std::int64_t tiles = 0;         ///< producer slabs currently resident
    std::int64_t elements = 0;      ///< doubles currently resident
    std::int64_t max_tiles = 0;     ///< high-water marks over the frame
    std::int64_t max_elements = 0;
    std::int64_t retired = 0;       ///< slabs freed before frame end
  };

  /// `metrics` are the edge's occupancy series; `map` and
  /// `stitch_plan` must come from map_tile_dependencies and
  /// plan_edge_stitch over the producer plan and the same consumer plan.
  /// `pool` is the edge's cross-frame slab arena; a null pool gets the
  /// buffer a private one (single-frame uses, tests). `producer_nodes` /
  /// `consumer_nodes` (optional) are the engines' tile placements:
  /// admit/retire then route a producer tile's slab through its placed
  /// node's pool arena and stitch leases from the consumer tile's arena,
  /// keeping steady-state slab recycling node-local. Null placements use
  /// arena 0.
  StageBuffer(std::shared_ptr<const runtime::TilePlan> producer_plan,
              std::shared_ptr<const EdgeTileMap> map,
              std::shared_ptr<const EdgeStitchPlan> stitch_plan,
              const EdgeMetrics& metrics,
              std::shared_ptr<SlabPool> pool = nullptr,
              std::shared_ptr<const runtime::PlacementPlan> producer_nodes =
                  nullptr,
              std::shared_ptr<const runtime::PlacementPlan> consumer_nodes =
                  nullptr);
  ~StageBuffer();

  StageBuffer(const StageBuffer&) = delete;
  StageBuffer& operator=(const StageBuffer&) = delete;

  /// Copies producer tile `tile_idx`'s outputs into its slab with one
  /// copy. `tile_outputs` holds the tile's values in tile order (value k at
  /// output_ranks[k]), as the engine hands them to on_tile; the slab keeps
  /// that order, which is the one the stitch plan's slab offsets index. A
  /// tile no consumer covers is dropped immediately.
  void admit(std::size_t tile_idx, const double* tile_outputs);

  /// Assembles consumer tile `tile_idx`'s input slice from the covering
  /// producer slabs (all admitted by construction) with the planned row
  /// copies, then retires slabs whose consumers are all served.
  Slice stitch(std::size_t tile_idx);

  /// Drops consumer tile `tile_idx` from every covering producer slab's
  /// pending count without stitching -- the abort path calls this for
  /// consumer tiles skipped mid-frame, so slabs those tiles were holding
  /// retire (and recycle) instead of lingering until teardown. Must be
  /// called at most once per consumer tile, and never after stitch() for
  /// the same tile.
  void release_consumer(std::size_t tile_idx);

  Occupancy occupancy() const;

 private:
  void retire_locked(std::size_t producer_tile);
  std::size_t producer_arena(std::size_t tile_idx) const;
  std::size_t consumer_arena(std::size_t tile_idx) const;

  std::shared_ptr<const runtime::TilePlan> producer_plan_;
  std::shared_ptr<const EdgeTileMap> map_;
  std::shared_ptr<const EdgeStitchPlan> stitch_plan_;
  std::shared_ptr<SlabPool> pool_;
  std::shared_ptr<const runtime::PlacementPlan> producer_nodes_;
  std::shared_ptr<const runtime::PlacementPlan> consumer_nodes_;

  mutable std::mutex mu_;
  std::vector<std::vector<double>> slabs_;     // per producer tile
  std::vector<std::int64_t> pending_;          // consumers left per slab
  Occupancy occ_;
  EdgeMetrics metrics_;
};

}  // namespace nup::pipeline
