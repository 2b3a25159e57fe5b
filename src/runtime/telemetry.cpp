#include "runtime/telemetry.hpp"

namespace nup::runtime {

DesignTelemetry resolve_telemetry(obs::Registry& registry,
                                  const arch::AcceleratorDesign& design) {
  constexpr obs::Registry::Shown kLater = obs::Registry::Shown::kOnFirstWrite;
  DesignTelemetry t;
  t.datapath_width = design.datapath_width;
  for (std::size_t s = 0; s < design.systems.size(); ++s) {
    const arch::MemorySystem& ms = design.systems[s];
    for (std::size_t k = 0; k < ms.fifos.size(); ++k) {
      if (ms.fifos[k].cut) continue;  // no on-chip storage to watch
      const std::string suffix = ms.array + "." + std::to_string(k);
      DesignTelemetry::Fifo f;
      f.system = s;
      f.index = k;
      f.array = ms.array;
      f.depth = ms.fifos[k].depth;
      f.high_water = &registry.gauge("fifo.high_water." + suffix, kLater);
      f.depth_gauge = &registry.gauge("fifo.depth." + suffix, kLater);
      if (design.datapath_width > 1) {
        f.word_depth = ms.fifos[k].word_depth(design.datapath_width);
        f.word_depth_gauge =
            &registry.gauge("fifo.word_depth." + suffix, kLater);
        f.high_water_words =
            &registry.gauge("fifo.high_water_words." + suffix, kLater);
      }
      t.fifos.push_back(std::move(f));
    }
    for (std::size_t k = 0; k < ms.filter_count(); ++k) {
      t.filters.push_back(
          {s, k,
           &registry.counter(
               "filter.stall_cycles." + ms.array + "." + std::to_string(k),
               kLater)});
    }
  }
  t.depth_violations = &registry.counter("fifo.depth_violations", kLater);
  t.runs = &registry.counter("sim.runs", kLater);
  t.cycles = &registry.counter("sim.cycles", kLater);
  t.datapath_cycles = &registry.counter("sim.datapath_cycles", kLater);
  t.fill_latency = &registry.histogram("sim.fill_latency_cycles", {}, kLater);
  t.steady_ii = &registry.histogram("sim.steady_ii_milli", {}, kLater);
  t.drain = &registry.histogram("sim.drain_cycles", {}, kLater);
  return t;
}

int DesignTelemetry::publish(const sim::SimResult& result,
                             obs::FifoDetail* first_violation) const {
  if (runs == nullptr) return 0;  // nothing resolved
  int violations = 0;
  const auto note_violation = [&](const Fifo& f, std::int64_t depth,
                                  std::int64_t high, bool word_level) {
    ++violations;
    if (first_violation != nullptr && violations == 1) {
      first_violation->array = f.array;
      first_violation->fifo = f.index;
      first_violation->depth = depth;
      first_violation->high_water = high;
      first_violation->word_level = word_level;
    }
  };
  for (const Fifo& f : fifos) {
    if (f.system >= result.fifo_max_fill.size() ||
        f.index >= result.fifo_max_fill[f.system].size()) {
      continue;
    }
    const std::int64_t high_water = result.fifo_max_fill[f.system][f.index];
    f.high_water->update_max(high_water);
    f.depth_gauge->update_max(f.depth);
    if (high_water > f.depth) {
      note_violation(f, f.depth, high_water, /*word_level=*/false);
    }
    if (datapath_width > 1) {
      // Word-level view of the wide datapath: occupancy in W-element
      // words must stay within the Eq. 2 / W rescaled bound.
      const std::int64_t w = datapath_width;
      const std::int64_t high_water_words = (high_water + w - 1) / w;
      f.word_depth_gauge->update_max(f.word_depth);
      f.high_water_words->update_max(high_water_words);
      if (high_water_words > f.word_depth) {
        note_violation(f, f.word_depth, high_water_words,
                       /*word_level=*/true);
      }
    }
  }
  for (const Filter& f : filters) {
    if (f.system < result.filter_stall_cycles.size() &&
        f.index < result.filter_stall_cycles[f.system].size() &&
        result.filter_stall_cycles[f.system][f.index] > 0) {
      f.stall_cycles->add(result.filter_stall_cycles[f.system][f.index]);
    }
  }
  if (violations > 0) depth_violations->add(violations);
  runs->inc();
  cycles->add(result.cycles);
  if (result.datapath_cycles > 0) datapath_cycles->add(result.datapath_cycles);
  if (result.kernel_fires > 0) fill_latency->observe(result.fill_latency);
  if (result.kernel_fires >= 2) {
    steady_ii->observe(static_cast<std::int64_t>(result.steady_ii * 1000.0));
  }
  if (result.drain_start > 0) {
    // Cycles past the last off-chip consumption: 0 on completed runs
    // (every fire streams), and the width of the post-wedge spin on
    // deadlocked ones.
    drain->observe(result.cycles - result.drain_start);
  }
  return violations;
}

int publish_sim_telemetry(obs::Registry& registry,
                          const arch::AcceleratorDesign& design,
                          const sim::SimResult& result,
                          obs::FifoDetail* first_violation) {
  return resolve_telemetry(registry, design).publish(result, first_violation);
}

}  // namespace nup::runtime
