#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "arch/design.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace nup::runtime {

/// One design's simulation telemetry, resolved once against a registry
/// (resolve_telemetry): the metric handles of every series a run of the
/// design publishes, with the designed depths they are checked against.
/// The design cache keeps one beside each cached design, so publishing a
/// tile's run builds no metric name and looks nothing up.
struct DesignTelemetry {
  /// One uncut reuse FIFO (cut FIFOs have no on-chip storage to watch).
  struct Fifo {
    std::size_t system = 0;  ///< memory-system index (design.systems)
    std::size_t index = 0;   ///< FIFO index k in its chain
    std::string array;       ///< named by a violation
    std::int64_t depth = 0;       ///< designed depth (Eq. 2)
    std::int64_t word_depth = 0;  ///< ceil(depth / W); used when W > 1
    obs::Gauge* high_water = nullptr;
    obs::Gauge* depth_gauge = nullptr;
    obs::Gauge* high_water_words = nullptr;  ///< W > 1 only
    obs::Gauge* word_depth_gauge = nullptr;  ///< W > 1 only
  };
  struct Filter {
    std::size_t system = 0;
    std::size_t index = 0;
    obs::Counter* stall_cycles = nullptr;
  };

  std::int64_t datapath_width = 1;
  std::vector<Fifo> fifos;  ///< in system, then chain order
  std::vector<Filter> filters;
  obs::Counter* depth_violations = nullptr;
  obs::Counter* runs = nullptr;
  obs::Counter* cycles = nullptr;
  obs::Counter* datapath_cycles = nullptr;
  obs::Histogram* fill_latency = nullptr;
  obs::Histogram* steady_ii = nullptr;
  obs::Histogram* drain = nullptr;

  /// Publishes one run of the design (series and semantics as documented
  /// at publish_sim_telemetry) and returns its depth violations. A
  /// default-constructed DesignTelemetry publishes nothing.
  int publish(const sim::SimResult& result,
              obs::FifoDetail* first_violation = nullptr) const;
};

/// Resolves `design`'s telemetry handles in `registry`. Each series joins
/// the registry's snapshots at its first write (Registry::Shown), so
/// resolving publishes nothing by itself.
DesignTelemetry resolve_telemetry(obs::Registry& registry,
                                  const arch::AcceleratorDesign& design);

/// Publishes one simulation run's telemetry into `registry`:
///
///   fifo.high_water.<array>.<k>   gauge (max over runs) -- observed peak
///                                 occupancy of uncut FIFO k of <array>
///   fifo.depth.<array>.<k>        gauge (max over runs) -- designed depth
///                                 (the max reuse distance, Eq. 2)
///   fifo.depth_violations         counter -- runs where an observed peak
///                                 exceeded its designed depth (always 0
///                                 while the sizing theorem holds)
///   filter.stall_cycles.<array>.<k> counter -- accumulated stall cycles
///   sim.runs / sim.cycles         counters
///   sim.datapath_cycles           counter -- W-wide machine cycles
///   sim.fill_latency_cycles       histogram (first-fire latency)
///   sim.steady_ii_milli           histogram (steady II x 1000)
///   sim.drain_cycles              histogram (cycles past the last
///                                 off-chip consumption)
///
/// On designs with datapath_width W > 1 two word-level gauges are added
/// per uncut FIFO -- fifo.word_depth.<array>.<k> (ceil(depth / W), the
/// Eq. 2 / W rescaled bound) and fifo.high_water_words.<array>.<k>
/// (observed peak occupancy in W-element words) -- and a word-level bound
/// violation counts into fifo.depth_violations like an element-level one.
///
/// Per-design the invariant high_water <= depth holds pointwise, so the
/// max-aggregated gauges preserve it across heterogeneous tile designs.
/// Returns the number of depth violations in this run (0 in a correct
/// build; the frame engine also surfaces it through the counter above).
///
/// When `first_violation` is non-null and the run violated a bound, it is
/// filled with the first offending FIFO (array, index, designed depth vs
/// observed high-water, element- or word-level) so the frame engine can
/// name it in the post-mortem bundle.
///
/// Equivalent to resolve_telemetry(registry, design).publish(...); callers
/// that publish many runs of one design keep the DesignTelemetry instead.
int publish_sim_telemetry(obs::Registry& registry,
                          const arch::AcceleratorDesign& design,
                          const sim::SimResult& result,
                          obs::FifoDetail* first_violation = nullptr);

}  // namespace nup::runtime
