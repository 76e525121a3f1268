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
#include "graph/CsrGraph.h"
#include "graph/Datasets.h"
#include "mem/DataObject.h"
#include "support/Error.h"
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

} // namespace
