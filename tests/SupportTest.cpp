//===----------------------------------------------------------------------===//
// Unit tests for the support library: PRNG, fork-join parallelism,
// statistics, string utilities, table printing, options parsing, and
// logging.
//===----------------------------------------------------------------------===//

#include "support/Logging.h"
#include "support/Options.h"
#include "support/Parallel.h"
#include "support/Prng.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

using namespace atmem;

//===----------------------------------------------------------------------===//
// Prng
//===----------------------------------------------------------------------===//

TEST(SplitMix64Test, DeterministicForSeed) {
  SplitMix64 A(42);
  SplitMix64 B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(SplitMix64Test, DifferentSeedsDiverge) {
  SplitMix64 A(1);
  SplitMix64 B(2);
  EXPECT_NE(A.next(), B.next());
}

TEST(SplitMix64Test, KnownFirstValueIsStable) {
  // Regression pin: dataset generation depends on this stream.
  SplitMix64 Gen(0);
  uint64_t First = Gen.next();
  SplitMix64 Gen2(0);
  EXPECT_EQ(First, Gen2.next());
  EXPECT_NE(First, Gen.next());
}

TEST(Xoshiro256Test, DeterministicForSeed) {
  Xoshiro256 A(7);
  Xoshiro256 B(7);
  for (int I = 0; I < 1000; ++I)
    ASSERT_EQ(A.next(), B.next());
}

TEST(Xoshiro256Test, DoubleInUnitInterval) {
  Xoshiro256 Rng(3);
  for (int I = 0; I < 10000; ++I) {
    double V = Rng.nextDouble();
    ASSERT_GE(V, 0.0);
    ASSERT_LT(V, 1.0);
  }
}

TEST(Xoshiro256Test, DoubleMeanNearHalf) {
  Xoshiro256 Rng(11);
  double Sum = 0.0;
  constexpr int N = 100000;
  for (int I = 0; I < N; ++I)
    Sum += Rng.nextDouble();
  EXPECT_NEAR(Sum / N, 0.5, 0.01);
}

TEST(Xoshiro256Test, BoundedStaysInRange) {
  Xoshiro256 Rng(5);
  for (uint64_t Bound : {1ull, 2ull, 7ull, 1000ull, 1ull << 40}) {
    for (int I = 0; I < 1000; ++I)
      ASSERT_LT(Rng.nextBounded(Bound), Bound);
  }
}

TEST(Xoshiro256Test, BoundedOneAlwaysZero) {
  Xoshiro256 Rng(5);
  for (int I = 0; I < 100; ++I)
    ASSERT_EQ(Rng.nextBounded(1), 0u);
}

TEST(Xoshiro256Test, BoundedCoversSmallRange) {
  Xoshiro256 Rng(9);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 1000; ++I)
    Seen.insert(Rng.nextBounded(8));
  EXPECT_EQ(Seen.size(), 8u);
}

TEST(XoshiroTest, DiscardMatchesSequentialNext) {
  // 255, 256 and 257 straddle the polynomial's degree; 2^20 + 3 needs
  // many reductions modulo the characteristic polynomial.
  for (uint64_t N : {0ull, 1ull, 255ull, 256ull, 257ull, (1ull << 20) + 3}) {
    Xoshiro256 Stepped(42), Jumped(42);
    for (uint64_t I = 0; I < N; ++I)
      Stepped.next();
    Jumped.discard(N);
    for (int I = 0; I < 4; ++I)
      ASSERT_EQ(Jumped.next(), Stepped.next()) << "N = " << N;
  }
  // Jumps compose: discard(A) then discard(B) is discard(A + B), also for
  // offsets far beyond anything a sequential check can reach.
  const uint64_t A = 0x9e3779b97f4a7c15ull >> 1, B = 0xc2b2ae3d27d4eb4full >> 1;
  Xoshiro256 TwoJumps(7), OneJump(7);
  TwoJumps.discard(A);
  TwoJumps.discard(B);
  OneJump.discard(A + B);
  for (int I = 0; I < 4; ++I)
    EXPECT_EQ(TwoJumps.next(), OneJump.next());
}

//===----------------------------------------------------------------------===//
// parallelFor
//===----------------------------------------------------------------------===//

TEST(ParallelForTest, SlicesCoverTheRangeInOrder) {
  for (unsigned Slices : {1u, 2u, 3u, 7u}) {
    for (uint64_t Count : {0ull, 1ull, 5ull, 1000ull}) {
      std::vector<uint64_t> Begins(Slices), Ends(Slices);
      std::vector<std::atomic<int>> Visits(Count);
      parallelFor(Slices, Count,
                  [&](unsigned Slice, uint64_t Begin, uint64_t End) {
                    Begins[Slice] = Begin;
                    Ends[Slice] = End;
                    for (uint64_t I = Begin; I < End; ++I)
                      ++Visits[I];
                  });
      EXPECT_EQ(Begins[0], 0u);
      EXPECT_EQ(Ends[Slices - 1], Count);
      for (unsigned Slice = 1; Slice < Slices; ++Slice) {
        EXPECT_EQ(Begins[Slice], Ends[Slice - 1]);
        // Slices differ in size by at most one element.
        EXPECT_LE(Ends[0] - Begins[0] - (Ends[Slice] - Begins[Slice]), 1u);
      }
      for (const std::atomic<int> &Visit : Visits)
        EXPECT_EQ(Visit.load(), 1);
    }
  }
}

TEST(ParallelForTest, ThreadsBoundedByWorkAndHardware) {
  unsigned Hardware = std::max(std::thread::hardware_concurrency(), 1u);
  EXPECT_EQ(parallelThreads(0), 1u);
  EXPECT_EQ(parallelThreads((2u << 20) - 1), 1u);
  EXPECT_EQ(parallelThreads(2u << 20), std::min(2u, Hardware));
  EXPECT_EQ(parallelThreads(~0ull), Hardware);
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

TEST(StatisticsTest, MeanBasics) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(mean({4.0}), 4.0);
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(StatisticsTest, GeomeanBasics) {
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
  EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
  EXPECT_NEAR(geomean({1.0, 1.0, 1.0}), 1.0, 1e-12);
}

TEST(StatisticsTest, StddevBasics) {
  EXPECT_DOUBLE_EQ(stddev({}), 0.0);
  EXPECT_DOUBLE_EQ(stddev({5.0}), 0.0);
  EXPECT_NEAR(stddev({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}), 2.138, 1e-3);
}

TEST(StatisticsTest, PercentileEndpoints) {
  std::vector<double> V = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile(V, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(V, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(V, 50.0), 3.0);
}

TEST(StatisticsTest, PercentileInterpolates) {
  std::vector<double> V = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(V, 25.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(V, 75.0), 7.5);
}

TEST(StatisticsTest, PercentileUnsortedInput) {
  std::vector<double> V = {9.0, 1.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile(V, 50.0), 5.0);
}

TEST(StatisticsTest, PercentileEmptyAndSingle) {
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile({3.0}, 90.0), 3.0);
}

TEST(StatisticsTest, TwoMeansSeparatesBimodal) {
  std::vector<double> V = {1.0, 1.1, 0.9, 1.05, 10.0, 10.2, 9.8};
  double Threshold = twoMeansThreshold(V);
  EXPECT_GT(Threshold, 1.2);
  EXPECT_LT(Threshold, 9.5);
}

TEST(StatisticsTest, TwoMeansUniformReturnsValue) {
  std::vector<double> V = {4.0, 4.0, 4.0};
  EXPECT_DOUBLE_EQ(twoMeansThreshold(V), 4.0);
}

TEST(StatisticsTest, TwoMeansDegenerate) {
  EXPECT_DOUBLE_EQ(twoMeansThreshold({}), 0.0);
  EXPECT_DOUBLE_EQ(twoMeansThreshold({1.0}), 0.0);
}

TEST(StatisticsTest, LargestGapFindsCliff) {
  std::vector<double> V = {100.0, 99.0, 98.0, 10.0, 9.0, 8.0};
  double Threshold = largestGapThreshold(V);
  EXPECT_GT(Threshold, 10.0);
  EXPECT_LT(Threshold, 98.0);
}

TEST(StatisticsTest, LargestGapDegenerate) {
  EXPECT_DOUBLE_EQ(largestGapThreshold({}), 0.0);
  EXPECT_DOUBLE_EQ(largestGapThreshold({5.0}), 0.0);
}

TEST(StatisticsTest, RunningStatTracksMinMaxMean) {
  RunningStat S;
  EXPECT_EQ(S.count(), 0u);
  EXPECT_DOUBLE_EQ(S.mean(), 0.0);
  S.add(2.0);
  S.add(4.0);
  S.add(9.0);
  EXPECT_EQ(S.count(), 3u);
  EXPECT_DOUBLE_EQ(S.mean(), 5.0);
  EXPECT_DOUBLE_EQ(S.min(), 2.0);
  EXPECT_DOUBLE_EQ(S.max(), 9.0);
}

TEST(StatisticsTest, RunningStatNegativeValues) {
  RunningStat S;
  S.add(-5.0);
  S.add(5.0);
  EXPECT_DOUBLE_EQ(S.min(), -5.0);
  EXPECT_DOUBLE_EQ(S.mean(), 0.0);
}

TEST(StatisticsTest, RunningStatVarianceMatchesBatchStddev) {
  std::vector<double> Values = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  RunningStat S;
  for (double V : Values)
    S.add(V);
  EXPECT_NEAR(S.stddev(), stddev(Values), 1e-12);
  EXPECT_NEAR(S.variance(), stddev(Values) * stddev(Values), 1e-12);
}

TEST(StatisticsTest, RunningStatVarianceDegenerate) {
  RunningStat S;
  EXPECT_DOUBLE_EQ(S.variance(), 0.0);
  EXPECT_DOUBLE_EQ(S.stddev(), 0.0);
  S.add(3.0);
  EXPECT_DOUBLE_EQ(S.variance(), 0.0); // one value: no spread defined
  S.add(3.0);
  EXPECT_DOUBLE_EQ(S.variance(), 0.0); // identical values: zero spread
}

TEST(StatisticsTest, RunningStatWelfordStableForLargeMean) {
  // Classic catastrophic-cancellation case: tiny spread around a huge
  // mean. The naive sum-of-squares formula loses all precision here;
  // Welford keeps it.
  RunningStat S;
  for (double Offset : {0.0, 1.0, 2.0})
    S.add(1e9 + Offset);
  EXPECT_NEAR(S.variance(), 1.0, 1e-6);
}

//===----------------------------------------------------------------------===//
// StringUtils
//===----------------------------------------------------------------------===//

TEST(StringUtilsTest, FormatBytes) {
  EXPECT_EQ(formatBytes(512), "512 B");
  EXPECT_EQ(formatBytes(2048), "2.00 KiB");
  EXPECT_EQ(formatBytes(3ull << 20), "3.00 MiB");
  EXPECT_EQ(formatBytes(5ull << 30), "5.00 GiB");
}

TEST(StringUtilsTest, FormatSeconds) {
  EXPECT_EQ(formatSeconds(2.5), "2.500 s");
  EXPECT_EQ(formatSeconds(0.0123), "12.30 ms");
  EXPECT_EQ(formatSeconds(4.2e-6), "4.20 us");
  EXPECT_EQ(formatSeconds(5e-9), "5.0 ns");
}

TEST(StringUtilsTest, FormatHelpers) {
  EXPECT_EQ(formatSpeedup(2.0), "2.00x");
  EXPECT_EQ(formatPercent(0.125), "12.5%");
  EXPECT_EQ(formatDouble(3.14159, 3), "3.142");
}

TEST(StringUtilsTest, SplitString) {
  auto Parts = splitString("a,b,,c", ',');
  ASSERT_EQ(Parts.size(), 3u);
  EXPECT_EQ(Parts[0], "a");
  EXPECT_EQ(Parts[1], "b");
  EXPECT_EQ(Parts[2], "c");
  EXPECT_TRUE(splitString("", ',').empty());
}

TEST(StringUtilsTest, StartsWith) {
  EXPECT_TRUE(startsWith("--flag", "--"));
  EXPECT_FALSE(startsWith("-", "--"));
  EXPECT_TRUE(startsWith("abc", ""));
}

TEST(StringUtilsTest, ParseUnsigned) {
  EXPECT_EQ(parseUnsigned("0"), 0u);
  EXPECT_EQ(parseUnsigned("123456789"), 123456789u);
}

TEST(StringUtilsTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(parseDoubleOrDie("1.5"), 1.5);
  EXPECT_DOUBLE_EQ(parseDoubleOrDie("-2"), -2.0);
}

//===----------------------------------------------------------------------===//
// TablePrinter
//===----------------------------------------------------------------------===//

TEST(TablePrinterTest, RendersAlignedColumns) {
  TablePrinter Table({"name", "value"});
  Table.addRow({"x", "1"});
  Table.addRow({"longer", "22"});
  std::string Out = Table.render();
  EXPECT_NE(Out.find("name"), std::string::npos);
  EXPECT_NE(Out.find("longer"), std::string::npos);
  // Header rule is present.
  EXPECT_NE(Out.find("---"), std::string::npos);
}

TEST(TablePrinterTest, RowCount) {
  TablePrinter Table({"a"});
  EXPECT_EQ(Table.rowCount(), 0u);
  Table.addRow({"1"});
  Table.addRow({"2"});
  EXPECT_EQ(Table.rowCount(), 2u);
}

TEST(TablePrinterTest, ColumnWidthFollowsWidestCell) {
  TablePrinter Table({"h", "k"});
  Table.addRow({"wide-cell", "x"});
  std::string Out = Table.render();
  // The header row pads "h" to the width of "wide-cell" plus separator.
  EXPECT_EQ(Out.substr(0, 11), "h          ");
}

//===----------------------------------------------------------------------===//
// OptionParser
//===----------------------------------------------------------------------===//

TEST(OptionParserTest, DefaultsApplyWithoutArgs) {
  OptionParser Parser("tool");
  Parser.addString("name", "alpha", "a name");
  Parser.addUnsigned("count", 7, "a count");
  Parser.addDouble("ratio", 0.5, "a ratio");
  Parser.addFlag("verbose", "talk more");
  const char *Argv[] = {"tool"};
  ASSERT_TRUE(Parser.parse(1, Argv));
  EXPECT_EQ(Parser.getString("name"), "alpha");
  EXPECT_EQ(Parser.getUnsigned("count"), 7u);
  EXPECT_DOUBLE_EQ(Parser.getDouble("ratio"), 0.5);
  EXPECT_FALSE(Parser.getFlag("verbose"));
}

TEST(OptionParserTest, EqualsAndSpaceForms) {
  OptionParser Parser("tool");
  Parser.addString("a", "", "");
  Parser.addUnsigned("b", 0, "");
  const char *Argv[] = {"tool", "--a=hello", "--b", "42"};
  ASSERT_TRUE(Parser.parse(4, Argv));
  EXPECT_EQ(Parser.getString("a"), "hello");
  EXPECT_EQ(Parser.getUnsigned("b"), 42u);
}

TEST(OptionParserTest, FlagPresenceSetsTrue) {
  OptionParser Parser("tool");
  Parser.addFlag("on", "");
  const char *Argv[] = {"tool", "--on"};
  ASSERT_TRUE(Parser.parse(2, Argv));
  EXPECT_TRUE(Parser.getFlag("on"));
}

TEST(OptionParserTest, UnknownOptionFails) {
  OptionParser Parser("tool");
  const char *Argv[] = {"tool", "--nope"};
  EXPECT_FALSE(Parser.parse(2, Argv));
}

TEST(OptionParserTest, HelpReturnsFalse) {
  OptionParser Parser("tool");
  const char *Argv[] = {"tool", "--help"};
  EXPECT_FALSE(Parser.parse(2, Argv));
}

TEST(OptionParserTest, MissingValueFails) {
  OptionParser Parser("tool");
  Parser.addString("x", "", "");
  const char *Argv[] = {"tool", "--x"};
  EXPECT_FALSE(Parser.parse(2, Argv));
}

TEST(OptionParserTest, UsageListsOptions) {
  OptionParser Parser("my tool");
  Parser.addString("alpha", "d", "the alpha option");
  std::string Usage = Parser.usage();
  EXPECT_NE(Usage.find("--alpha"), std::string::npos);
  EXPECT_NE(Usage.find("the alpha option"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Logging
//===----------------------------------------------------------------------===//

TEST(LoggingTest, LevelRoundTrip) {
  LogLevel Saved = logLevel();
  setLogLevel(LogLevel::Debug);
  EXPECT_EQ(logLevel(), LogLevel::Debug);
  setLogLevel(Saved);
}
