#include "sim/feed.hpp"

#include "stencil/golden.hpp"
#include "util/error.hpp"

namespace nup::sim {

std::int64_t ExternalFeed::available_row(const poly::IntVec& h,
                                         std::int64_t n) {
  poly::IntVec point = h;
  std::int64_t ready = 0;
  while (ready < n && available(point)) {
    ++ready;
    ++point.back();
  }
  return ready;
}

void ExternalFeed::read_row(const poly::IntVec& h, std::int64_t n,
                            double* out) {
  poly::IntVec point = h;
  for (std::int64_t l = 0; l < n; ++l) {
    out[l] = read(point);
    ++point.back();
  }
}

void SyntheticFeed::read_row(const poly::IntVec& h, std::int64_t n,
                             double* out) {
  stencil::synthetic_row(seed_, array_index_, h, n, out);
}

double SyntheticFeed::read(const poly::IntVec& h) {
  return stencil::synthetic_value(seed_, array_index_, h);
}

double QueueFeed::read(const poly::IntVec& h) {
  if (!available(h)) {
    throw SimulationError("QueueFeed::read of unavailable point " +
                          poly::to_string(h));
  }
  const double value = queue_.front().second;
  queue_.pop_front();
  return value;
}

}  // namespace nup::sim
