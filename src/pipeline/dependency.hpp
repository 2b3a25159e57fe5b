#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "pipeline/stage_graph.hpp"
#include "poly/int_vec.hpp"
#include "runtime/tiler.hpp"

namespace nup::pipeline {

/// The static tile-dependency structure of one edge: which producer tiles
/// each consumer tile's streamed input hull touches. Computed once per
/// (producer plan, consumer plan) pair and shared by every frame.
struct EdgeTileMap {
  /// producers_of[c] = producer tile indices whose iteration domain
  /// intersects consumer tile c's input hull (ascending). The minimal
  /// covering set: a producer tile outside it contributes no element the
  /// consumer streams, and hull elements no producer computes are padding
  /// the consumer's data filters discard.
  std::vector<std::vector<std::size_t>> producers_of;
  /// Transpose: consumers_of[p] = consumer tiles depending on producer
  /// tile p. A producer tile with no consumers (its rows lie outside every
  /// consumer halo) retires the moment it resolves.
  std::vector<std::vector<std::size_t>> consumers_of;
};

/// Maps each consumer tile to the minimal set of producer tiles covering
/// its halo, using the tiler's hull geometry: consumer tile hulls are the
/// tile box grown by the edge's window (Tile::input_hulls), and a producer
/// tile covers the hull when its clipped iteration domain intersects the
/// hull box -- exact also for sheared and triangular producer domains,
/// where the bounding boxes may overlap while the domains do not.
EdgeTileMap map_tile_dependencies(const runtime::TilePlan& producer_plan,
                                  const runtime::TilePlan& consumer_plan,
                                  std::size_t input_index);

/// How one edge assembles each consumer tile's input slice from the
/// covering producer slabs, planned once per (producer plan, consumer
/// plan) pair and shared by every frame: a stitch is then one lease and
/// one memcpy per run, never a walk over the producer domains.
struct EdgeStitchPlan {
  /// `length` consecutive doubles of producer tile `producer`'s slab (its
  /// outputs in the lex order of its iteration domain), starting at
  /// `slab_offset`, land at `slice_offset` of the row-major slice.
  struct Run {
    std::size_t producer = 0;
    std::int64_t slab_offset = 0;
    std::int64_t slice_offset = 0;
    std::int64_t length = 0;
  };
  /// One consumer tile's slice: its inclusive box, its element count and
  /// the runs that fill it. Box points no run writes are hull padding the
  /// consumer's data filters discard.
  struct SliceRuns {
    poly::IntVec lo, hi;
    std::int64_t elements = 0;
    std::vector<Run> runs;
  };
  std::vector<SliceRuns> slices;  ///< per consumer tile
};

/// Plans every consumer tile's stitch over `map`'s covering sets. The
/// slice box is the consumer's streamed hull box, unioned with
/// [expand_lo, expand_hi] when that box is non-empty (wrap edges pass the
/// producer's domain: a wrapped halo read lands on the opposite grid
/// edge). Runs come from the producer domains' rows (Domain::row_intervals)
/// clipped to the slice box (one run per row interval), so they are exact
/// for sheared and triangular domains too.
EdgeStitchPlan plan_edge_stitch(const runtime::TilePlan& producer_plan,
                                const runtime::TilePlan& consumer_plan,
                                const EdgeTileMap& map,
                                std::size_t input_index,
                                const poly::IntVec& expand_lo = {},
                                const poly::IntVec& expand_hi = {});

/// Readiness state over the whole graph with a frame dimension: one
/// countdown per (frame, stage, tile) of unresolved covering producer
/// tiles summed over the stage's in-edges. Frames of the same graph are
/// data-independent, so the tracker never links tiles across frames --
/// the frame id only selects which frame's countdowns a resolution
/// decrements, which is what lets frame f+1's source tiles run in idle
/// workers while frame f's sink tiles drain.
///
/// Frames are armed into recycled slots sized once at construction:
/// arm() after the first few frames copies baseline countdowns into
/// retired storage and allocates nothing. resolve() is called from engine
/// worker threads as producer tiles finish; tiles whose countdown reaches
/// zero are returned exactly once per frame. Thread-safe.
class DependencyTracker {
 public:
  struct Ready {
    std::uint64_t frame = 0;
    std::size_t stage = 0;
    std::size_t tile = 0;
  };

  /// `edge_maps[e]` is the tile map of graph edge e. When `barrier` is
  /// set, every consumer tile depends on every producer tile of each
  /// in-edge instead of its covering set: the frame-level barrier
  /// baseline, executed by the same machinery.
  DependencyTracker(const StageGraph& graph,
                    const std::vector<std::shared_ptr<const EdgeTileMap>>&
                        edge_maps,
                    const std::vector<std::size_t>& tiles_per_stage,
                    bool barrier = false);

  /// Admits one frame (ids must be distinct among the armed frames) and
  /// returns its dependency-free tiles (source-stage tiles): ready the
  /// moment the frame is armed. Reuses a retired frame's slot when one is
  /// free.
  std::vector<Ready> arm(std::uint64_t frame);

  /// Marks one producer tile of an armed frame resolved; returns the
  /// consumer tiles of the same frame that became ready as a result.
  std::vector<Ready> resolve(std::uint64_t frame, std::size_t stage,
                             std::size_t tile);

  /// Retires an armed frame, releasing its slot for the next arm(). The
  /// caller guarantees no further resolve() for this frame id.
  void retire(std::uint64_t frame);

  /// Frames currently armed (for tests and occupancy assertions).
  std::size_t frames_armed() const;

 private:
  struct FrameSlot {
    std::uint64_t frame = 0;
    bool active = false;
    std::vector<std::vector<std::int64_t>> waits;   // per (stage, tile)
    std::vector<std::int64_t> producer_left;        // barrier mode, per edge
  };

  FrameSlot& slot_locked(std::uint64_t frame);

  const StageGraph* graph_;
  std::vector<std::shared_ptr<const EdgeTileMap>> maps_;
  bool barrier_;
  /// Initial countdowns, computed once; arm() copies them into a slot.
  std::vector<std::vector<std::int64_t>> baseline_waits_;
  std::vector<std::int64_t> baseline_producer_left_;
  mutable std::mutex mu_;
  std::vector<FrameSlot> slots_;
};

}  // namespace nup::pipeline
