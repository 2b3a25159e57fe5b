#include "stencil/golden.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "serve/wire.hpp"
#include "stencil/gallery.hpp"

namespace nup::stencil {
namespace {

TEST(SyntheticValue, DeterministicAndSeedSensitive) {
  const poly::IntVec h{3, 4};
  EXPECT_EQ(synthetic_value(1, 0, h), synthetic_value(1, 0, h));
  EXPECT_NE(synthetic_value(1, 0, h), synthetic_value(2, 0, h));
  EXPECT_NE(synthetic_value(1, 0, h), synthetic_value(1, 1, h));
  EXPECT_NE(synthetic_value(1, 0, {3, 4}), synthetic_value(1, 0, {4, 3}));
}

TEST(SyntheticValue, InUnitInterval) {
  for (std::int64_t i = -5; i < 5; ++i) {
    for (std::int64_t j = -5; j < 5; ++j) {
      const double v = synthetic_value(9, 0, {i, j});
      EXPECT_GE(v, 0.0);
      EXPECT_LT(v, 1.0);
    }
  }
}

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// The golden model and the simulator's default feed share this hash, so a
// redefinition would keep every golden-vs-simulator test green while
// changing every checksum the wire publishes. These bits pin it.
TEST(SyntheticValue, ExactBitsArePinned) {
  struct Case {
    std::uint64_t seed;
    std::size_t array;
    poly::IntVec point;
    std::uint64_t bits;
  };
  const Case cases[] = {
      {1, 0, {0}, 0x3fed33ff0cfb7ed0ull},
      {42, 2, {-7}, 0x3fe07ec4d60cd622ull},
      {7, 0, {3, 4}, 0x3fe04aa9940fda38ull},
      {7, 1, {-1, -2}, 0x3fea0866b5cd0f69ull},
      {31, 0, {767, 1023}, 0x3fee7bfdd9dd5fd1ull},
      {99, 0, {2, -3, 5}, 0x3fe916dd3a823745ull},
      {0, 3, {-100, 0, 100}, 0x3fdef9f7cb1b1202ull},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(bits_of(synthetic_value(c.seed, c.array, c.point)), c.bits)
        << "seed " << c.seed << " array " << c.array << " point "
        << poly::to_string(c.point);
  }
}

TEST(SyntheticRow, EqualsSyntheticValueAtEveryPoint) {
  const std::vector<poly::IntVec> starts = {
      {-5}, {0}, {3, -4}, {-2, 7}, {1, -1, -3}, {4, 0, 9}};
  for (const poly::IntVec& start : starts) {
    for (const std::int64_t n : {0, 1, 5, 33}) {
      std::vector<double> row(static_cast<std::size_t>(n) + 1, -1.0);
      synthetic_row(11, 2, start, n, row.data());
      poly::IntVec h = start;
      for (std::int64_t l = 0; l < n; ++l) {
        EXPECT_EQ(bits_of(row[static_cast<std::size_t>(l)]),
                  bits_of(synthetic_value(11, 2, h)))
            << poly::to_string(start) << " lane " << l;
        ++h.back();
      }
      EXPECT_EQ(row[static_cast<std::size_t>(n)], -1.0)
          << "wrote past lane " << n;
    }
  }
}

TEST(GoldenRun, OutputCountEqualsIterations) {
  const StencilProgram p = denoise_2d(16, 20);
  const GoldenRun run = run_golden(p, 1);
  EXPECT_EQ(static_cast<std::int64_t>(run.outputs.size()),
            p.iteration().count());
}

TEST(GoldenRun, FirstOutputMatchesManualGather) {
  const StencilProgram p = denoise_2d(16, 20);
  const GoldenRun run = run_golden(p, 5);
  // First iteration is (1, 1); gather in source order.
  std::vector<double> values;
  for (const ArrayReference& ref : p.inputs()[0].refs) {
    values.push_back(
        synthetic_value(5, 0, poly::add({1, 1}, ref.offset)));
  }
  EXPECT_DOUBLE_EQ(run.outputs.front(), p.kernel()(values));
}

TEST(GoldenRun, SeedChangesOutputs) {
  const StencilProgram p = jacobi_2d(12, 12);
  const GoldenRun a = run_golden(p, 1);
  const GoldenRun b = run_golden(p, 2);
  ASSERT_EQ(a.outputs.size(), b.outputs.size());
  EXPECT_NE(a.outputs.front(), b.outputs.front());
}

TEST(GoldenRun, NonLinearKernelExecutes) {
  const StencilProgram p = rician_2d(10, 10);
  const GoldenRun run = run_golden(p, 3);
  for (double v : run.outputs) {
    EXPECT_GE(v, 0.0);  // sqrt of a sum of squares
    EXPECT_TRUE(std::isfinite(v));
  }
}

// Golden and every simulator share each opaque kernel, so a redefinition
// would keep every golden-vs-simulator test green while changing every
// checksum a wire client compares against. Only these pins catch it; they
// hold with and without -march=native (FMA contraction).
TEST(GoldenRun, OpaqueKernelChecksumsArePinned) {
  const auto checksum = [](const StencilProgram& p) {
    return serve::output_checksum(run_golden(p, 7).outputs);
  };
  EXPECT_EQ(checksum(rician_2d(48, 64)), 13526080848225334434ull);
  EXPECT_EQ(checksum(sobel_2d(48, 64)), 4574794338186060677ull);
  EXPECT_EQ(checksum(life_2d(48, 64)), 10958588643383904771ull);
}

TEST(GoldenRun, SkewedDomainExecutes) {
  const StencilProgram p = skewed_demo(10, 14);
  const GoldenRun run = run_golden(p, 1);
  EXPECT_EQ(static_cast<std::int64_t>(run.outputs.size()),
            p.iteration().count());
}

}  // namespace
}  // namespace nup::stencil
