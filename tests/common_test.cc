// Tests for the small common utilities: env-var config, logging, stopwatch.
#include <gtest/gtest.h>

#include <cstdlib>

#include "common/env.h"
#include "common/logging.h"
#include "common/stopwatch.h"

namespace urr {
namespace {

TEST(EnvTest, DoubleParsing) {
  ::setenv("URR_TEST_D", "2.5", 1);
  EXPECT_DOUBLE_EQ(GetEnvDouble("URR_TEST_D", 1.0), 2.5);
  ::setenv("URR_TEST_D", "garbage", 1);
  EXPECT_DOUBLE_EQ(GetEnvDouble("URR_TEST_D", 1.0), 1.0);
  // A numeric prefix is not a number: trailing garbage and empty values
  // fall back to the default too.
  for (const char* bad : {"2.5x", "3O", "1e3 ", ""}) {
    ::setenv("URR_TEST_D", bad, 1);
    EXPECT_DOUBLE_EQ(GetEnvDouble("URR_TEST_D", 1.0), 1.0) << bad;
  }
  ::unsetenv("URR_TEST_D");
  EXPECT_DOUBLE_EQ(GetEnvDouble("URR_TEST_D", 7.0), 7.0);
}

TEST(EnvTest, IntParsing) {
  ::setenv("URR_TEST_I", "42", 1);
  EXPECT_EQ(GetEnvInt("URR_TEST_I", 0), 42);
  ::setenv("URR_TEST_I", "-3", 1);
  EXPECT_EQ(GetEnvInt("URR_TEST_I", 0), -3);
  ::setenv("URR_TEST_I", "zzz", 1);
  EXPECT_EQ(GetEnvInt("URR_TEST_I", 9), 9);
  for (const char* bad : {"4x", "12 ", "2.5", "", "99999999999999999999"}) {
    ::setenv("URR_TEST_I", bad, 1);
    EXPECT_EQ(GetEnvInt("URR_TEST_I", 9), 9) << bad;
  }
  ::unsetenv("URR_TEST_I");
  EXPECT_EQ(GetEnvInt("URR_TEST_I", 5), 5);
}

TEST(EnvTest, StringFallback) {
  ::unsetenv("URR_TEST_S");
  EXPECT_EQ(GetEnvString("URR_TEST_S", "dflt"), "dflt");
  ::setenv("URR_TEST_S", "hello", 1);
  EXPECT_EQ(GetEnvString("URR_TEST_S", "dflt"), "hello");
  ::unsetenv("URR_TEST_S");
}

TEST(EnvTest, BenchKnobs) {
  ::unsetenv("URR_BENCH_SCALE");
  EXPECT_DOUBLE_EQ(BenchScale(), 0.2);
  ::setenv("URR_BENCH_SCALE", "1.0", 1);
  EXPECT_DOUBLE_EQ(BenchScale(), 1.0);
  ::unsetenv("URR_BENCH_SCALE");
  ::unsetenv("URR_SEED");
  EXPECT_EQ(BenchSeed(), 42u);
  ::setenv("URR_SEED", "7", 1);
  EXPECT_EQ(BenchSeed(), 7u);
  ::unsetenv("URR_SEED");
}

TEST(LoggingTest, LevelGate) {
  const LogLevel old = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // Emitting below the gate must be a no-op (no crash; output suppressed).
  URR_LOG(kDebug) << "suppressed debug " << 42;
  URR_LOG(kInfo) << "suppressed info";
  SetLogLevel(LogLevel::kDebug);
  URR_LOG(kDebug) << "emitted (to stderr)";
  SetLogLevel(old);
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch w;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i * 0.5;
  const double t1 = w.ElapsedSeconds();
  EXPECT_GT(t1, 0);
  EXPECT_GE(w.ElapsedMillis(), t1 * 1000 * 0.5);
  w.Reset();
  EXPECT_LT(w.ElapsedSeconds(), t1 + 1.0);
}

}  // namespace
}  // namespace urr
