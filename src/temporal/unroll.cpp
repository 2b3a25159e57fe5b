#include "temporal/unroll.hpp"

#include <algorithm>
#include <utility>

namespace nup::temporal {

namespace {

/// The box N_g = D + (T - g) * W a kShrink replica producing generation g
/// iterates: exactly the points whose value can still influence generation
/// T on the target box D, so every pass-to-pass handoff is containment.
void shrink_box(const poly::IntVec& dlo, const poly::IntVec& dhi,
                const poly::IntVec& wlo, const poly::IntVec& whi,
                std::int64_t steps_left, poly::IntVec* lo,
                poly::IntVec* hi) {
  lo->resize(dlo.size());
  hi->resize(dhi.size());
  for (std::size_t d = 0; d < dlo.size(); ++d) {
    (*lo)[d] = dlo[d] + steps_left * wlo[d];
    (*hi)[d] = dhi[d] + steps_left * whi[d];
  }
}

PassShape build_shape(const stencil::StencilProgram& base,
                      std::vector<poly::Domain> domains,
                      std::int64_t first_generation,
                      const pipeline::EdgePolicy& policy) {
  PassShape shape;
  shape.replicas = domains.size();
  for (std::size_t k = 0; k < domains.size(); ++k) {
    shape.graph.add_stage(make_replica(
        base, domains[k],
        base.name() + ".t" + std::to_string(first_generation +
                                            static_cast<std::int64_t>(k))));
  }
  for (std::size_t k = 0; k + 1 < domains.size(); ++k) {
    shape.graph.add_edge(k, k + 1, 0, policy);
  }
  shape.domains = std::move(domains);
  return shape;
}

}  // namespace

stencil::StencilProgram make_replica(const stencil::StencilProgram& base,
                                     poly::Domain domain,
                                     std::string name) {
  stencil::StencilProgram replica(std::move(name), std::move(domain));
  const stencil::InputArray& input = base.inputs()[0];
  std::vector<poly::IntVec> offsets;
  offsets.reserve(input.refs.size());
  for (const stencil::ArrayReference& ref : input.refs) {
    offsets.push_back(ref.offset);
  }
  replica.add_input(input.name, std::move(offsets));
  replica.set_output(base.output_name());
  // Default-kernel programs replicate as weighted sums (canonical fma
  // order -> replicas are bit-identical to the base, and the vector path
  // sees the weights); block kernels stay block kernels.
  replica.copy_kernel_from(base);
  return replica;
}

TemporalSchedule plan_temporal(const stencil::StencilProgram& base,
                               const TemporalConfig& config) {
  const std::int64_t T = config.timesteps;
  const std::int64_t B = config.block;
  if (T < 1) {
    throw TemporalConfigError("plan_temporal: timesteps must be >= 1, got " +
                              std::to_string(T));
  }
  if (B < 1) {
    throw TemporalConfigError("plan_temporal: block must be >= 1, got " +
                              std::to_string(B));
  }
  if (B > T) {
    throw TemporalConfigError(
        "plan_temporal: block " + std::to_string(B) + " exceeds timesteps " +
        std::to_string(T) + "; a pass cannot hold more replicas than there "
        "are generations left");
  }
  if (base.inputs().size() != 1) {
    throw TemporalConfigError(
        "plan_temporal: program '" + base.name() + "' reads " +
        std::to_string(base.inputs().size()) +
        " arrays; iterative unrolling needs exactly one (the previous "
        "generation)");
  }

  TemporalSchedule sched;
  sched.config = config;
  if (!base.iteration().as_single_box(&sched.domain_lo, &sched.domain_hi)) {
    throw TemporalDomainError(
        "plan_temporal: program '" + base.name() +
        "' iterates a non-box domain " + base.iteration().to_string() +
        "; temporal replica algebra is defined on axis-aligned boxes only");
  }

  const std::size_t dim = base.dim();
  sched.window_lo.assign(dim, 0);
  sched.window_hi.assign(dim, 0);
  for (const stencil::ArrayReference& ref : base.inputs()[0].refs) {
    for (std::size_t d = 0; d < dim; ++d) {
      sched.window_lo[d] = std::min(sched.window_lo[d], ref.offset[d]);
      sched.window_hi[d] = std::max(sched.window_hi[d], ref.offset[d]);
    }
  }

  sched.num_passes = (T + B - 1) / B;
  const pipeline::EdgePolicy policy{config.boundary, config.constant_value};

  if (stencil::is_containment_policy(config.boundary)) {
    // One shape per pass: replica for generation g iterates the target box
    // grown by (T - g) windows.
    for (std::int64_t p = 0; p < sched.num_passes; ++p) {
      const std::int64_t first = p * B + 1;
      const std::int64_t last = std::min((p + 1) * B, T);
      std::vector<poly::Domain> domains;
      for (std::int64_t g = first; g <= last; ++g) {
        poly::IntVec lo, hi;
        shrink_box(sched.domain_lo, sched.domain_hi, sched.window_lo,
                   sched.window_hi, T - g, &lo, &hi);
        domains.push_back(poly::Domain::box(lo, hi));
      }
      sched.shapes.push_back(
          build_shape(base, std::move(domains), first, policy));
      sched.pass_shape.push_back(static_cast<std::size_t>(p));
      sched.first_generation.push_back(first);
    }
  } else {
    // Every replica iterates the target box; out-of-domain reads are
    // defined by the policy. At most two shapes: full and (T % B) tail.
    const auto same_domain_shape = [&](std::int64_t replicas) {
      std::vector<poly::Domain> domains(
          static_cast<std::size_t>(replicas),
          poly::Domain::box(sched.domain_lo, sched.domain_hi));
      return build_shape(base, std::move(domains), 1, policy);
    };
    sched.shapes.push_back(same_domain_shape(B));
    const std::int64_t tail = T % B;
    if (tail != 0) sched.shapes.push_back(same_domain_shape(tail));
    for (std::int64_t p = 0; p < sched.num_passes; ++p) {
      const bool is_tail = tail != 0 && p == sched.num_passes - 1;
      sched.pass_shape.push_back(is_tail ? 1 : 0);
      sched.first_generation.push_back(p * B + 1);
    }
  }
  return sched;
}

void TemporalSchedule::pass_output_box(std::size_t pass, poly::IntVec* lo,
                                       poly::IntVec* hi) const {
  const PassShape& shape = shapes[pass_shape[pass]];
  if (!shape.domains.back().as_single_box(lo, hi)) {
    throw TemporalDomainError(
        "pass_output_box: sink replica domain is not a box");
  }
}

}  // namespace nup::temporal
