#include "stencil/transform.hpp"

#include "util/error.hpp"

namespace nup::stencil {

StencilProgram transform(const StencilProgram& program,
                         const poly::UnimodularTransform& t) {
  if (t.dim() != program.dim()) {
    throw Error("stencil::transform: dimension mismatch");
  }
  StencilProgram out(program.name() + "_xform",
                     poly::apply(t, program.iteration()));
  for (const InputArray& input : program.inputs()) {
    std::vector<poly::IntVec> offsets;
    offsets.reserve(input.refs.size());
    for (const ArrayReference& ref : input.refs) {
      offsets.push_back(t.apply_offset(ref.offset));
    }
    out.add_input(input.name, std::move(offsets));
  }
  out.set_output(program.output_name());
  // A unimodular transform permutes iterations, not reference order, so the
  // kernel carries over unchanged, in whatever form it has.
  out.copy_kernel_from(program);
  return out;
}

}  // namespace nup::stencil
