// stencilcc end to end, through the built binary: every numeric flag is
// read as one whole, bounded token; a malformed value, or a flag the
// selected mode would ignore, takes the one refusal path (a message naming
// the flag, the usage text, exit 2) before any engine starts; and each
// mode -- compile, --serve, --pipeline, --timesteps -- still runs and
// prints what it always printed.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

constexpr const char* kDenoise = R"(for (i = 1; i <= 62; i++)
  for (j = 1; j <= 126; j++)
    B[i][j] = 0.5*A[i][j] + 0.125*(A[i-1][j] + A[i+1][j]
                                   + A[i][j-1] + A[i][j+1]);
)";

constexpr const char* kHeat = R"(for (i = 1; i <= 62; i++)
  for (j = 1; j <= 94; j++)
    B[i][j] = 0.6*A[i][j] + 0.1*(A[i-1][j] + A[i+1][j]
                                 + A[i][j-1] + A[i][j+1]);
)";

constexpr const char* kChain = R"(for (i = 1; i <= 62; i++)
  for (j = 1; j <= 126; j++)
    B[i][j] = 0.5*A[i][j] + 0.125*(A[i-1][j] + A[i+1][j]
                                   + A[i][j-1] + A[i][j+1]);
---
for (i = 2; i <= 61; i++)
  for (j = 2; j <= 125; j++)
    C[i][j] = 0.25*(B[i-1][j] + B[i+1][j]
                    + B[i][j-1] + B[i][j+1]);
)";

struct Outcome {
  int exit_code = -1;  ///< -1 when the process did not exit normally
  std::string output;  ///< stdout and stderr, interleaved
};

// Each test runs stencilcc inside its own scratch directory, which holds
// the kernels above and receives the artifacts.
class Stencilcc : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("stencilcc_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    std::ofstream(dir_ / "denoise.c") << kDenoise;
    std::ofstream(dir_ / "heat.c") << kHeat;
    std::ofstream(dir_ / "chain.pipe") << kChain;
  }

  void TearDown() override { fs::remove_all(dir_); }

  Outcome run(const std::string& args) const {
    const std::string command = "cd '" + dir_.string() + "' && '" +
                                NUP_STENCILCC + "' " + args + " 2>&1";
    Outcome result;
    FILE* pipe = ::popen(command.c_str(), "r");
    if (pipe == nullptr) return result;
    char buffer[4096];
    std::size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof buffer, pipe)) > 0) {
      result.output.append(buffer, n);
    }
    const int status = ::pclose(pipe);
    if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
    return result;
  }

  // The refusal path: exit 2, a message naming the flag, then the usage.
  void expect_refused(const std::string& args, const std::string& flag) {
    const Outcome r = run(args);
    EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.output;
    EXPECT_NE(r.output.find("stencilcc: " + flag), std::string::npos)
        << args << "\n" << r.output;
    EXPECT_NE(r.output.find("usage: stencilcc"), std::string::npos)
        << args << "\n" << r.output;
  }

  fs::path dir_;
};

// ---- malformed numbers ---------------------------------------------------

TEST_F(Stencilcc, ServeCountWithTrailingCharactersIsRefused) {
  expect_refused("denoise.c --serve 4x", "--serve");
}

TEST_F(Stencilcc, NonNumericThreadsIsRefused) {
  expect_refused("denoise.c --threads abc", "--threads");
}

TEST_F(Stencilcc, WidthWithTrailingCharactersIsRefused) {
  expect_refused("denoise.c --width 2x", "--width");
}

TEST_F(Stencilcc, NegativeHoldIsRefused) {
  expect_refused("denoise.c --hold -5", "--hold");
}

TEST_F(Stencilcc, NonNumericToleranceIsRefused) {
  expect_refused("--timesteps 2 --tolerance abc heat.c", "--tolerance");
}

TEST_F(Stencilcc, OverflowingServeCountIsRefused) {
  expect_refused("denoise.c --serve 99999999999999999999", "--serve");
}

TEST_F(Stencilcc, OutOfRangeValuesAreRefused) {
  expect_refused("denoise.c --threads -1", "--threads");
  expect_refused("denoise.c --serve 0", "--serve");
  expect_refused("denoise.c --width 65", "--width");
  expect_refused("denoise.c --metrics-port 65536", "--metrics-port");
  expect_refused("denoise.c --serve 2 --tenants 257", "--tenants");
  expect_refused("denoise.c --serve 2 --cancel-frame 2", "--cancel-frame");
  expect_refused("--timesteps 2 --boundary constant --bc-value inf heat.c",
                 "--bc-value");
  expect_refused("denoise.c --tile 8,x", "--tile");
}

TEST_F(Stencilcc, MissingValueIsRefused) {
  expect_refused("denoise.c -o", "-o");
}

// ---- flags the selected mode would ignore ---------------------------------

TEST_F(Stencilcc, TemporalInflightZeroIsRefused) {
  expect_refused("--timesteps 4 --inflight 0 heat.c", "--inflight");
}

TEST_F(Stencilcc, BarrierWithoutPipelineIsRefused) {
  expect_refused("denoise.c --barrier", "--barrier");
}

TEST_F(Stencilcc, ServingFlagsOutsideSingleKernelServeAreRefused) {
  expect_refused("denoise.c --tenants 2", "--tenants");
  expect_refused("denoise.c --serve-policy rr", "--serve-policy");
  expect_refused("--pipeline chain.pipe --frames 2 --quota 2", "--quota");
  expect_refused("--timesteps 2 --serve 2 --shed-after 2 heat.c",
                 "--shed-after");
}

TEST_F(Stencilcc, TemporalValuesOutsideTheirModeAreRefused) {
  expect_refused("denoise.c --tolerance 0.1", "--tolerance");
  expect_refused("--timesteps 2 --bc-value 1 heat.c", "--bc-value");
}

TEST_F(Stencilcc, CompileOnlyFlagsInStagedModesAreRefused) {
  expect_refused("--timesteps 2 heat.c -o out", "-o");
  expect_refused("--timesteps 2 heat.c --rtl-check", "--rtl-check");
  expect_refused("--timesteps 2 heat.c --cpp-model", "--cpp-model");
  expect_refused("--timesteps 2 heat.c --vcd 10", "--vcd");
  expect_refused("--pipeline chain.pipe --no-verify", "--no-verify");
  expect_refused("--pipeline chain.pipe --cpp-model", "--cpp-model");
}

TEST_F(Stencilcc, EngineFlagsInPlainCompileModeAreRefused) {
  expect_refused("denoise.c --threads 7", "--threads");
  expect_refused("denoise.c --tile 8,0", "--tile");
  expect_refused("denoise.c --numa auto", "--numa");
  expect_refused("denoise.c --inflight 3", "--inflight");
}

// ---- every mode still runs ---------------------------------------------

TEST_F(Stencilcc, CompileWritesTheFiveArtifacts) {
  const Outcome r = run("denoise.c -o . --name dn --quiet");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  for (const char* suffix : {"_memory_system.v", "_tb.v", "_kernel.cpp",
                             "_accel.hpp", "_report.json"}) {
    const fs::path artifact = dir_ / (std::string("dn") + suffix);
    ASSERT_TRUE(fs::exists(artifact)) << artifact;
    EXPECT_GT(fs::file_size(artifact), 0u) << artifact;
  }
}

TEST_F(Stencilcc, ServesFourFramesOnOneThread) {
  const Outcome r = run("denoise.c --serve 4 --threads 1");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("served 4 frames"), std::string::npos) << r.output;
}

TEST_F(Stencilcc, FramesIsAnAliasOfServeInCompileMode) {
  const Outcome r = run("--frames 3 --threads 1 denoise.c");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("served 3 frames"), std::string::npos) << r.output;
}

TEST_F(Stencilcc, TwoStagePipelinePumpsTwoFrames) {
  const Outcome r = run("--pipeline chain.pipe --frames 2 --threads 1");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("pipeline chain: 2 stages, 1 edges"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("served 2 pipelined frames"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("last frame checksum "), std::string::npos)
      << r.output;
}

TEST_F(Stencilcc, TemporalSweepRunsEveryGenerationOfEveryFrame) {
  const Outcome r =
      run("--timesteps 4 --block 2 --frames 2 --threads 1 heat.c");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("T=4 generations, B=2 replicas/pass"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("swept 2 frames"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find(": 8 generations"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("frame 0 checksum "), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("frame 1 checksum "), std::string::npos)
      << r.output;
}

}  // namespace
