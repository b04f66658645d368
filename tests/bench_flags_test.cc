#include "bench/bench_common.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

namespace distserve::bench {
namespace {

constexpr unsigned kAll = kFlagSmoke | kFlagJson | kFlagGoodputCache | kFlagTrace |
                          kFlagCluster | kFlagNoAnalyticTier | kFlagJobs;

// Runs the parser over `args` (argv[0] supplied) with a scratch CommonFlags.
bool Parse(std::vector<std::string> args, unsigned accepted, CommonFlags* flags) {
  std::vector<char*> argv;
  std::string argv0 = "bench_under_test";
  argv.push_back(argv0.data());
  for (std::string& a : args) {
    argv.push_back(a.data());
  }
  return ParseCommonFlags(static_cast<int>(argv.size()), argv.data(), accepted, flags);
}

class BenchFlagsTest : public ::testing::Test {
 protected:
  void SetUp() override { unsetenv("DISTSERVE_JOBS"); }
  void TearDown() override { unsetenv("DISTSERVE_JOBS"); }
};

TEST_F(BenchFlagsTest, ParsesEveryAcceptedFlag) {
  CommonFlags flags;
  EXPECT_TRUE(Parse({"--smoke", "--json=out.json", "--goodput-cache=cache.txt",
                     "--trace=trace.json", "--cluster=4x8xA100", "--no-analytic-tier",
                     "--jobs=4"},
                    kAll, &flags));
  EXPECT_TRUE(flags.smoke);
  EXPECT_EQ(flags.json_path, "out.json");
  EXPECT_EQ(flags.goodput_cache, "cache.txt");
  EXPECT_EQ(flags.trace_path, "trace.json");
  EXPECT_EQ(flags.cluster_spec, "4x8xA100");
  EXPECT_FALSE(flags.analytic_tier);
  EXPECT_EQ(flags.jobs, 4);
}

TEST_F(BenchFlagsTest, RejectsBadShardValues) {
  for (const char* arg : {"--jobs=0", "--jobs=-2", "--jobs=abc", "--jobs=4x",
                          "--jobs=", "--jobs=99999999999999"}) {
    CommonFlags flags;
    EXPECT_FALSE(Parse({arg}, kAll, &flags)) << arg;
  }
}

TEST_F(BenchFlagsTest, RejectsValueFlagWithMissingValue) {
  for (const char* arg : {"--goodput-cache", "--json", "--trace", "--cluster", "--json=",
                          "--goodput-cache="}) {
    CommonFlags flags;
    EXPECT_FALSE(Parse({arg}, kAll, &flags)) << arg;
  }
}

TEST_F(BenchFlagsTest, RejectsValueOnValuelessFlag) {
  CommonFlags flags;
  EXPECT_FALSE(Parse({"--smoke=1"}, kAll, &flags));
  EXPECT_FALSE(Parse({"--no-analytic-tier=0"}, kAll, &flags));
}

TEST_F(BenchFlagsTest, RejectsUnknownAndUnacceptedFlags) {
  CommonFlags flags;
  EXPECT_FALSE(Parse({"--bogus"}, kAll, &flags));
  EXPECT_FALSE(Parse({"--smokey"}, kAll, &flags));  // prefix of no accepted flag
  // A known flag outside the accepted subset is unknown to this bench.
  EXPECT_FALSE(Parse({"--trace=t.json"}, kFlagSmoke | kFlagJson, &flags));
}

TEST_F(BenchFlagsTest, ShardsEnvironmentFallbackAndOverride) {
  setenv("DISTSERVE_JOBS", "3", 1);
  CommonFlags flags;
  EXPECT_TRUE(Parse({}, kAll, &flags));
  EXPECT_EQ(flags.jobs, 3);
  // Explicit flag beats the environment.
  CommonFlags flags2;
  EXPECT_TRUE(Parse({"--jobs=7"}, kAll, &flags2));
  EXPECT_EQ(flags2.jobs, 7);
}

TEST_F(BenchFlagsTest, BadShardsEnvironmentFailsLoudly) {
  for (const char* bad : {"0", "-1", "two", "4x", ""}) {
    setenv("DISTSERVE_JOBS", bad, 1);
    CommonFlags flags;
    EXPECT_FALSE(Parse({}, kAll, &flags)) << "DISTSERVE_JOBS=" << bad;
  }
}

TEST_F(BenchFlagsTest, EnvironmentIgnoredWhenShardsNotAccepted) {
  setenv("DISTSERVE_JOBS", "junk", 1);
  CommonFlags flags;
  EXPECT_TRUE(Parse({"--smoke"}, kFlagSmoke, &flags));
  EXPECT_EQ(flags.jobs, 1);
}

TEST_F(BenchFlagsTest, StrictShardParser) {
  int out = 0;
  EXPECT_TRUE(ParseJobsValue("1", &out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(ParseJobsValue("1048576", &out));
  EXPECT_FALSE(ParseJobsValue("1048577", &out));  // above the sanity cap
  EXPECT_FALSE(ParseJobsValue("0", &out));
  EXPECT_FALSE(ParseJobsValue("4 ", &out));
  EXPECT_FALSE(ParseJobsValue("0x4", &out));
  EXPECT_FALSE(ParseJobsValue(nullptr, &out));
}

}  // namespace
}  // namespace distserve::bench
