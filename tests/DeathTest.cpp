//===----------------------------------------------------------------------===//
// Death tests for the library's programmatic-error contracts: invariant
// violations must abort with a diagnostic rather than corrupt state.
//
// Only genuine invariant violations belong here. Conditions a caller can
// legitimately hit with user input (unknown dataset/kernel names, tier
// capacity, migration refusal) have query/result APIs — isKnownDataset(),
// isKnownKernel(), DataObjectRegistry::tryCreate(), MigrationStatus — and
// are tested below and in the migrator/fault suites as error results.
//===----------------------------------------------------------------------===//

#include "apps/Kernel.h"
#include "core/Runtime.h"
#include "graph/CsrGraph.h"
#include "graph/Datasets.h"
#include "graph/Generators.h"
#include "mem/DataObject.h"
#include "sim/CacheSim.h"
#include "sim/MachineConfig.h"
#include "support/Error.h"
#include "support/Options.h"
#include "support/TablePrinter.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace atmem;

namespace {

TEST(DeathTest, ReportFatalErrorAborts) {
  EXPECT_DEATH(reportFatalError("boom"), "atmem fatal error: boom");
}

TEST(DeathTest, UnreachableAborts) {
  EXPECT_DEATH(ATMEM_UNREACHABLE("impossible"), "impossible");
}

TEST(DeathTest, TableRowWidthMismatchAborts) {
  TablePrinter Table({"a", "b"});
  EXPECT_DEATH(Table.addRow({"only-one"}), "row width");
}

// Unknown dataset/kernel names arrive from user input (CLI flags), so the
// contract is a queryable predicate, not an abort: callers check
// isKnown*() and report an error result. makeDataset()/makeKernel() then
// only ever see validated names.
TEST(ErrorResultTest, UnknownDatasetIsReportedNotFatal) {
  EXPECT_FALSE(graph::isKnownDataset("orkut"));
  EXPECT_FALSE(graph::isKnownDataset(""));
  EXPECT_TRUE(graph::isKnownDataset("pokec"));
}

TEST(ErrorResultTest, UnknownKernelIsReportedNotFatal) {
  EXPECT_FALSE(apps::isKnownKernel("gnn"));
  EXPECT_FALSE(apps::isKnownKernel(""));
  EXPECT_TRUE(apps::isKnownKernel("pr"));
}

TEST(DeathTest, NonPowerOfTwoChunkAborts) {
  EXPECT_DEATH(mem::DataObject(0, "x", 0x1000000, 8192, 5000),
               "power of two");
}

TEST(DeathTest, SubPageChunkAborts) {
  EXPECT_DEATH(mem::DataObject(0, "x", 0x1000000, 8192, 1024),
               "power of two");
}

TEST(DeathTest, MismatchedCsrArraysAbort) {
  EXPECT_DEATH(graph::CsrGraph(std::vector<uint64_t>{0, 2},
                               std::vector<graph::VertexId>{1}),
               "row offsets");
}

TEST(DeathTest, MismatchedWeightsAbort) {
  EXPECT_DEATH(graph::CsrGraph(std::vector<uint64_t>{0, 1},
                               std::vector<graph::VertexId>{0},
                               std::vector<uint32_t>{1, 2}),
               "weight");
}

TEST(DeathTest, OutOfRangeEdgeEndpointAborts) {
  EXPECT_DEATH(graph::buildCsr(2, {{0, 1}, {0, 2}}), "out of range");
  EXPECT_DEATH(graph::buildCsr(2, {{5, 1}}), "out of range");
}

TEST(DeathTest, NanScaleDivisorAborts) {
  EXPECT_DEATH(graph::makeDataset("pokec", std::nan("")), "scale divisor");
}

// Generator parameters arrive from atmem_graphgen's options, and the
// release build compiles asserts out, so every bad value is a fatal error
// instead of undefined behaviour (1u << 32, a NaN cast to an edge count)
// or a silently wrong graph (gamma <= 1).
TEST(DeathTest, BadRmatParametersAbort) {
  graph::RmatParams Params;
  Params.Scale = 0;
  EXPECT_DEATH(graph::generateRmat(Params), "scale must be 1 to 31, got 0");
  Params.Scale = 32;
  EXPECT_DEATH(graph::generateRmat(Params), "scale must be 1 to 31, got 32");
  Params.Scale = 4;
  for (double Factor : {std::nan(""), -5.0, HUGE_VAL, 1e300}) {
    Params.EdgeFactor = Factor;
    EXPECT_DEATH(graph::generateRmat(Params),
                 "edge factor must be finite and non-negative");
  }
  Params.EdgeFactor = 4;
  Params.A = std::nan("");
  EXPECT_DEATH(graph::generateRmat(Params), "quadrant probabilities");
  Params.A = -0.1;
  EXPECT_DEATH(graph::generateRmat(Params), "quadrant probabilities");
}

TEST(DeathTest, BadPowerLawParametersAbort) {
  graph::PowerLawParams Params;
  Params.NumVertices = 16;
  for (double Degree : {std::nan(""), -5.0, HUGE_VAL}) {
    Params.AverageDegree = Degree;
    EXPECT_DEATH(graph::generatePowerLaw(Params),
                 "average degree must be finite and non-negative");
  }
  Params.AverageDegree = 4;
  for (double Gamma : {0.5, 1.0, std::nan(""), HUGE_VAL}) {
    Params.Gamma = Gamma;
    EXPECT_DEATH(graph::generatePowerLaw(Params),
                 "gamma must be finite and above 1");
  }
  // Exponent -10000: every weight (v + 2)^-10000 underflows to 0.
  Params.NumVertices = 1000;
  Params.Gamma = 1.0001;
  EXPECT_DEATH(graph::generatePowerLaw(Params), "weights underflow to 0");
  Params.Gamma = 2.0;
  Params.NumVertices = 0;
  EXPECT_DEATH(graph::generatePowerLaw(Params), "at least one vertex");
}

// MaxWeight 0 used to reach a modulo by zero (SIGFPE).
TEST(DeathTest, ZeroMaxWeightAborts) {
  graph::CsrGraph G = graph::buildCsr(2, {{0, 1}});
  EXPECT_DEATH(graph::withRandomWeights(G, 0, 1), "maximum of at least 1");
}

// A set's recency ranks and fingerprints are one 16-byte row each.
TEST(DeathTest, LlcWiderThanSixteenWaysAborts) {
  sim::CacheConfig Config;
  Config.SizeBytes = 32 * 64 * 4;
  Config.Ways = 32;
  Config.LineBytes = 64;
  EXPECT_DEATH(sim::CacheSim Cache(Config), "1 to 16 ways, got 32");
  Config.Ways = 0;
  EXPECT_DEATH(sim::CacheSim Cache(Config), "1 to 16 ways, got 0");
}

// Each engine thread models at least one LLC set, so more threads than
// sets would model more cache than configured. The check runs before any
// shard or thread exists; with a 4-set LLC and 5 threads even a missing
// check starts only 5 threads.
TEST(DeathTest, MoreSimThreadsThanLlcSetsAborts) {
  core::RuntimeConfig Config;
  Config.Machine = sim::nvmDramTestbed(1.0 / 256);
  Config.Machine.Cache.SizeBytes = 4 * 16 * 64; // 4 sets x 16 ways.
  Config.SimThreads = 5;
  EXPECT_DEATH(core::Runtime Rt(Config),
               "SimThreads 5 exceeds the LLC's 4 sets");
}

TEST(DeathTest, OptionWiderThan32BitsAborts) {
  OptionParser Parser("tool");
  Parser.addUnsigned("sim-threads", 1, "threads");
  const char *Argv[] = {"tool", "--sim-threads=4294967296"};
  ASSERT_TRUE(Parser.parse(2, Argv));
  EXPECT_EQ(Parser.getUnsigned("sim-threads"), 4294967296u);
  EXPECT_DEATH(Parser.getUnsigned32("sim-threads"), "does not fit in 32 bits");
}

} // namespace
