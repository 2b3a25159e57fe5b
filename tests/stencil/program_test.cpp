#include "stencil/program.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "util/error.hpp"

namespace nup::stencil {
namespace {

StencilProgram make_small() {
  StencilProgram p("T", poly::Domain::box({1, 1}, {6, 8}));
  p.add_input("A", {{-1, 0}, {0, -1}, {0, 0}, {0, 1}, {1, 0}});
  return p;
}

TEST(StencilProgram, BasicProperties) {
  const StencilProgram p = make_small();
  EXPECT_EQ(p.dim(), 2u);
  EXPECT_EQ(p.total_references(), 5u);
  EXPECT_EQ(p.inputs().size(), 1u);
  EXPECT_EQ(p.inputs()[0].name, "A");
}

TEST(StencilProgram, RejectsEmptyIterationDomain) {
  EXPECT_THROW(StencilProgram("X", poly::Domain()), NotStencilError);
}

TEST(StencilProgram, RejectsDuplicateOffsets) {
  StencilProgram p("T", poly::Domain::box({0, 0}, {3, 3}));
  EXPECT_THROW(p.add_input("A", {{0, 0}, {0, 0}}), NotStencilError);
}

TEST(StencilProgram, RejectsWrongOffsetDimensionality) {
  StencilProgram p("T", poly::Domain::box({0, 0}, {3, 3}));
  EXPECT_THROW(p.add_input("A", {{0, 0, 0}}), NotStencilError);
}

TEST(StencilProgram, RejectsEmptyReferenceList) {
  StencilProgram p("T", poly::Domain::box({0, 0}, {3, 3}));
  EXPECT_THROW(p.add_input("A", {}), NotStencilError);
}

TEST(StencilProgram, ReferenceDomainIsTranslatedIteration) {
  const StencilProgram p = make_small();
  // Reference A[i+1][j] (offset (1,0)) touches rows 2..7.
  const poly::Domain d = p.reference_domain(0, 4);
  EXPECT_TRUE(d.contains({2, 1}));
  EXPECT_TRUE(d.contains({7, 8}));
  EXPECT_FALSE(d.contains({1, 1}));
  EXPECT_EQ(d.count(), p.iteration().count());
}

TEST(StencilProgram, InputDataDomainIsUnion) {
  const StencilProgram p = make_small();
  const poly::Domain d = p.input_data_domain(0);
  // Union of the five translated domains: corners are excluded
  // (Example 4 of the paper).
  EXPECT_FALSE(d.contains({0, 0}));
  EXPECT_TRUE(d.contains({0, 1}));
  EXPECT_TRUE(d.contains({1, 0}));
  EXPECT_TRUE(d.contains({3, 4}));
  EXPECT_FALSE(d.contains({7, 9}));
  EXPECT_TRUE(d.contains({7, 8}));
}

TEST(StencilProgram, DataDomainHullIsBoundingBox) {
  const StencilProgram p = make_small();
  poly::IntVec lo;
  poly::IntVec hi;
  ASSERT_TRUE(p.data_domain_hull(0).as_single_box(&lo, &hi));
  EXPECT_EQ(lo, (poly::IntVec{0, 0}));
  EXPECT_EQ(hi, (poly::IntVec{7, 9}));
}

TEST(StencilProgram, HullContainsUnion) {
  const StencilProgram p = make_small();
  const poly::Domain hull = p.data_domain_hull(0);
  p.input_data_domain(0).for_each([&](const poly::IntVec& h) {
    EXPECT_TRUE(hull.contains(h));
  });
}

TEST(StencilProgram, DefaultKernelIsAverage) {
  const StencilProgram p = make_small();
  const double v = p.kernel()({1.0, 1.0, 1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(StencilProgram, WeightedSumKernel) {
  const KernelFn k = make_weighted_sum({2.0, -1.0});
  EXPECT_DOUBLE_EQ(k({3.0, 4.0}), 2.0);
  EXPECT_THROW(k({1.0}), Error);
}

TEST(StencilProgram, ToCCodeRendersLoopNestAndRefs) {
  const StencilProgram p = make_small();
  const std::string code = p.to_c_code();
  EXPECT_NE(code.find("for (int i = 1; i <= 6; i++)"), std::string::npos);
  EXPECT_NE(code.find("A[i-1][j]"), std::string::npos);
  EXPECT_NE(code.find("A[i][j+1]"), std::string::npos);
  EXPECT_NE(code.find("B[i][j] = kernel("), std::string::npos);
}

TEST(ArrayReference, ToStringFormats) {
  const ArrayReference ref{{-1, 2, 0}};
  EXPECT_EQ(ref.to_string("A", {"i", "j", "k"}), "A[i-1][j+2][k]");
}

TEST(ArrayReference, ToStringSizeMismatchThrows) {
  const ArrayReference ref{{1, 2}};
  EXPECT_THROW(ref.to_string("A", {"i"}), Error);
}

TEST(StencilProgram, IterationNamesBeyondThreeDims) {
  StencilProgram p("T4",
                   poly::Domain::box({0, 0, 0, 0}, {1, 1, 1, 1}));
  const std::vector<std::string> names = p.iteration_names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "i");
  EXPECT_EQ(names[3], "x3");
}

// ---- block kernels -------------------------------------------------------

StencilProgram two_ref_program() {
  StencilProgram p("PAIR", poly::Domain::box({1, 1}, {4, 6}));
  p.add_input("A", {{0, -1}, {0, 1}});
  return p;
}

/// out[l] = v0[l] - 2 * v1[l], counting its calls in `*calls`.
BlockKernelFn difference_kernel(std::shared_ptr<int> calls) {
  return [calls](const double* const* v, std::int64_t n, double* out) {
    ++*calls;
    for (std::int64_t l = 0; l < n; ++l) out[l] = v[0][l] - 2.0 * v[1][l];
  };
}

TEST(BlockKernel, PointKernelIsTheOneLaneCase) {
  StencilProgram p = two_ref_program();
  auto calls = std::make_shared<int>(0);
  p.set_block_kernel(difference_kernel(calls));
  EXPECT_TRUE(p.weighted_sum_weights().empty());

  *calls = 0;
  EXPECT_EQ(p.kernel()({5.0, 1.5}), 2.0);
  EXPECT_EQ(*calls, 1);

  // 2 references x 3 lanes, one row per reference.
  const double values[] = {1.0, 2.0, 3.0, 0.5, 0.25, 1.0};
  const double* rows[] = {values, values + 3};
  double out[3] = {};
  p.block_kernel()(rows, 3, out);
  EXPECT_EQ(*calls, 2);  // one call for the whole block
  EXPECT_EQ(out[0], 0.0);
  EXPECT_EQ(out[1], 1.5);
  EXPECT_EQ(out[2], 1.0);
}

TEST(BlockKernel, RejectsABlockCallThatDiffersFromItsLanes) {
  StencilProgram p = two_ref_program();
  // Reads n, so a lane's value depends on the size of its block.
  EXPECT_THROW(p.set_block_kernel([](const double* const* v, std::int64_t n,
                                     double* out) {
    for (std::int64_t l = 0; l < n; ++l) {
      out[l] = v[0][l] * static_cast<double>(n);
    }
  }),
               Error);
  // The rejected kernel was not installed: the default is still in place.
  EXPECT_EQ(p.weighted_sum_weights().size(), 2u);
  EXPECT_DOUBLE_EQ(p.kernel()({1.0, 3.0}), 2.0);
}

TEST(BlockKernel, RejectsAProgramWithoutReferences) {
  StencilProgram p("NO_INPUTS", poly::Domain::box({0}, {3}));
  auto calls = std::make_shared<int>(0);
  EXPECT_THROW(p.set_block_kernel(difference_kernel(calls)), Error);
  EXPECT_EQ(*calls, 0);
}

TEST(BlockKernel, PointAdapterThrowsOnArityMismatch) {
  StencilProgram p = two_ref_program();
  p.set_block_kernel(difference_kernel(std::make_shared<int>(0)));
  EXPECT_THROW(p.kernel()({1.0, 2.0, 3.0}), Error);
  EXPECT_THROW(p.kernel()({1.0}), Error);
}

TEST(BlockKernel, PointKernelsAndWeightedSumsGetAPerLaneAdapter) {
  StencilProgram opaque = two_ref_program();
  opaque.set_kernel(
      [](const std::vector<double>& v) { return std::max(v[0], v[1]); });
  StencilProgram weighted = two_ref_program();
  weighted.set_weighted_sum({0.5, -1.0});
  StencilProgram defaulted = two_ref_program();

  const double values[] = {1.0, 4.0, -2.0, 3.0, 0.5, -1.0};
  const double* rows[] = {values, values + 3};
  for (const StencilProgram* p : {&opaque, &weighted, &defaulted}) {
    double out[3] = {};
    p->block_kernel()(rows, 3, out);
    for (std::size_t l = 0; l < 3; ++l) {
      EXPECT_EQ(out[l], p->kernel()({values[l], values[3 + l]}))
          << p->name() << " lane " << l;
    }
  }
}

TEST(BlockKernel, SetKernelAndSetWeightedSumClearTheBlockForm) {
  const double values[] = {1.0, 2.0, 3.0, 4.0};
  const double* rows[] = {values, values + 2};
  double out[2] = {};
  auto calls = std::make_shared<int>(0);

  StencilProgram p = two_ref_program();
  p.set_block_kernel(difference_kernel(calls));
  p.set_weighted_sum({1.0, 1.0});
  *calls = 0;
  p.block_kernel()(rows, 2, out);
  EXPECT_EQ(*calls, 0);
  EXPECT_EQ(out[0], 4.0);
  EXPECT_EQ(out[1], 6.0);

  p.set_block_kernel(difference_kernel(calls));
  EXPECT_TRUE(p.weighted_sum_weights().empty());
  p.set_kernel([](const std::vector<double>& v) { return v[0] * v[1]; });
  *calls = 0;
  p.block_kernel()(rows, 2, out);
  EXPECT_EQ(*calls, 0);
  EXPECT_EQ(out[0], 3.0);
  EXPECT_EQ(out[1], 8.0);
}

TEST(BlockKernel, CopyKernelFromCarriesEveryForm) {
  const double values[] = {1.0, 2.0, 3.0, 4.0};
  const double* rows[] = {values, values + 2};
  double out[2] = {};

  StencilProgram block_src = two_ref_program();
  auto calls = std::make_shared<int>(0);
  block_src.set_block_kernel(difference_kernel(calls));
  StencilProgram block_dst = two_ref_program();
  block_dst.copy_kernel_from(block_src);
  *calls = 0;
  block_dst.block_kernel()(rows, 2, out);
  EXPECT_EQ(*calls, 1);  // the source's block kernel, called once
  EXPECT_EQ(out[0], -5.0);
  EXPECT_EQ(block_dst.kernel()({3.0, 1.0}), 1.0);
  EXPECT_TRUE(block_dst.weighted_sum_weights().empty());

  StencilProgram weighted_src = two_ref_program();
  weighted_src.set_weighted_sum({0.25, 0.75});
  StencilProgram weighted_dst = two_ref_program();
  weighted_dst.set_block_kernel(difference_kernel(calls));
  weighted_dst.copy_kernel_from(weighted_src);
  EXPECT_EQ(weighted_dst.weighted_sum_weights(),
            (std::vector<double>{0.25, 0.75}));

  // The lazy equal-weight default arrives as a recorded weighted sum.
  StencilProgram default_dst = two_ref_program();
  default_dst.copy_kernel_from(two_ref_program());
  EXPECT_EQ(default_dst.weighted_sum_weights(),
            (std::vector<double>{0.5, 0.5}));

  StencilProgram point_src = two_ref_program();
  point_src.set_kernel(
      [](const std::vector<double>& v) { return v[0] / v[1]; });
  StencilProgram point_dst = two_ref_program();
  point_dst.copy_kernel_from(point_src);
  EXPECT_TRUE(point_dst.weighted_sum_weights().empty());
  EXPECT_EQ(point_dst.kernel()({3.0, 4.0}), 0.75);

  EXPECT_THROW(make_small().copy_kernel_from(block_src), Error);
}

TEST(KernelIdentity, FollowsTheKernelNotTheName) {
  // Weighted sums are identified by their weight bits, the lazy default
  // included; another weight, even -0.0 for 0.0, is another identity.
  StencilProgram weighted = two_ref_program();
  weighted.set_weighted_sum({0.5, 0.5});
  EXPECT_EQ(weighted.kernel_identity(), two_ref_program().kernel_identity());
  StencilProgram other = two_ref_program();
  other.set_weighted_sum({0.5, -0.0});
  StencilProgram zero = two_ref_program();
  zero.set_weighted_sum({0.5, 0.0});
  EXPECT_NE(other.kernel_identity(), zero.kernel_identity());

  // Each opaque or block install is a new kernel; a copy of the program,
  // or of its kernel, is the same one.
  StencilProgram point = two_ref_program();
  point.set_kernel([](const std::vector<double>& v) { return v[0]; });
  StencilProgram same_code = two_ref_program();
  same_code.set_kernel([](const std::vector<double>& v) { return v[0]; });
  EXPECT_NE(point.kernel_identity(), same_code.kernel_identity());
  EXPECT_NE(point.kernel_identity(), weighted.kernel_identity());
  EXPECT_EQ(StencilProgram(point).kernel_identity(), point.kernel_identity());
  StencilProgram point_copy = two_ref_program();
  point_copy.copy_kernel_from(point);
  EXPECT_EQ(point_copy.kernel_identity(), point.kernel_identity());

  StencilProgram block = two_ref_program();
  block.set_block_kernel(difference_kernel(std::make_shared<int>(0)));
  StencilProgram block_copy = two_ref_program();
  block_copy.copy_kernel_from(block);
  EXPECT_EQ(block_copy.kernel_identity(), block.kernel_identity());
  EXPECT_NE(block.kernel_identity(), point.kernel_identity());

  // Reinstalling weights drops the opaque identity again.
  point.set_weighted_sum({0.5, 0.5});
  EXPECT_EQ(point.kernel_identity(), weighted.kernel_identity());
}

}  // namespace
}  // namespace nup::stencil
