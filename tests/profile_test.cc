#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/csr.h"
#include "src/obs/memstat.h"
#include "src/obs/metrics.h"
#include "src/obs/profile.h"
#include "src/obs/trace.h"
#include "src/tensor/autograd.h"
#include "src/tensor/matrix.h"
#include "src/tensor/optimizer.h"

namespace rgae {
namespace {

using obs::JsonValue;
using obs::ProfileNode;

/// RAII fixture: metrics + profiling on with a clean profiler tree and
/// zeroed memory counters, everything restored afterwards.
class ProfileScope {
 public:
  ProfileScope() {
    obs::MetricsRegistry::Global().Reset();
    obs::Profiler::Global().Reset();
    obs::ResetMemCounters();
    obs::SetEnabled(true);
    obs::SetProfileEnabled(true);
  }
  ~ProfileScope() {
    obs::SetProfileEnabled(false);
    obs::SetEnabled(false);
    obs::Profiler::Global().Reset();
    obs::MetricsRegistry::Global().Reset();
    obs::ResetMemCounters();
  }
};

const ProfileNode* FindChild(const std::vector<ProfileNode>& nodes,
                             const std::string& name) {
  for (const ProfileNode& node : nodes) {
    if (node.name == name) return &node;
  }
  return nullptr;
}

/// Sums `field` (flops by default, or bytes) over every node named `name`
/// in the whole tree.
int64_t TreeTotal(const std::vector<ProfileNode>& nodes,
                  const std::string& name,
                  int64_t ProfileNode::*field = &ProfileNode::flops) {
  int64_t total = 0;
  for (const ProfileNode& node : nodes) {
    if (node.name == name) total += node.*field;
    total += TreeTotal(node.children, name, field);
  }
  return total;
}

int64_t TreeTotal(const std::string& name,
                  int64_t ProfileNode::*field = &ProfileNode::flops) {
  return TreeTotal(obs::Profiler::Global().Snapshot(), name, field);
}

// ---- Exact FLOP accounting -------------------------------------------------

TEST(ProfileTest, MatMulFlopsAreExactlyTwoMKN) {
  ProfileScope scope;
  const Matrix a(5, 7, 1.0);
  const Matrix b(7, 3, 2.0);
  { MatMul(a, b); }
  // 2·m·k·n flops, 8·(mk + kn + mn) bytes — the DESIGN.md §6.6 cost model.
  EXPECT_EQ(TreeTotal("kernel.matmul"), 2 * 5 * 7 * 3);
  EXPECT_EQ(TreeTotal("kernel.matmul", &ProfileNode::bytes),
            8 * (5 * 7 + 7 * 3 + 5 * 3));
}

TEST(ProfileTest, SpmmFlopsAreExactlyTwoNnzC) {
  ProfileScope scope;
  const CsrMatrix m = CsrMatrix::FromTriplets(
      3, 3, {{0, 0, 1.0}, {0, 2, 2.0}, {1, 1, 3.0}, {2, 0, 4.0}});
  ASSERT_EQ(m.nnz(), 4);
  const Matrix x(3, 5, 1.0);
  m.Multiply(x);
  EXPECT_EQ(TreeTotal("kernel.spmm"), 2 * 4 * 5);
  EXPECT_EQ(TreeTotal("kernel.spmm", &ProfileNode::bytes),
            8 * (4 + 4 * 5 + 3 * 5));
}

TEST(ProfileTest, AdamFlopsAreFourteenPerElement) {
  ProfileScope scope;
  Parameter p(Matrix(4, 6, 0.5));
  p.grad.Fill(0.1);
  Adam adam({&p}, {});
  adam.Step();
  const int64_t elems = 4 * 6;
  EXPECT_EQ(TreeTotal("kernel.adam"), 14 * elems);
  EXPECT_EQ(TreeTotal("kernel.adam", &ProfileNode::bytes), 56 * elems);
  adam.Step();  // Node totals are cumulative across steps.
  EXPECT_EQ(TreeTotal("kernel.adam"), 2 * 14 * elems);
}

// ---- Calling-context tree --------------------------------------------------

TEST(ProfileTest, NestedSpansBuildAContextTree) {
  ProfileScope scope;
  const Matrix a(2, 2, 1.0);
  const Matrix b(2, 2, 1.0);
  {
    RGAE_SPAN("phase.outer");
    MatMul(a, b);
    {
      RGAE_SPAN("phase.inner");
      MatMul(a, b);
    }
  }
  const std::vector<ProfileNode> roots = obs::Profiler::Global().Snapshot();
  const ProfileNode* outer = FindChild(roots, "phase.outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->calls, 1);
  const ProfileNode* direct = FindChild(outer->children, "kernel.matmul");
  const ProfileNode* inner = FindChild(outer->children, "phase.inner");
  ASSERT_NE(direct, nullptr);
  ASSERT_NE(inner, nullptr);
  const ProfileNode* nested = FindChild(inner->children, "kernel.matmul");
  ASSERT_NE(nested, nullptr);
  // One node per call path: the same kernel reached two ways is split.
  EXPECT_EQ(direct->calls, 1);
  EXPECT_EQ(nested->calls, 1);
  EXPECT_EQ(direct->flops, 2 * 2 * 2 * 2);
  EXPECT_EQ(nested->flops, 2 * 2 * 2 * 2);
}

TEST(ProfileTest, ExclusiveTimeNeverExceedsInclusive) {
  ProfileScope scope;
  const Matrix a(40, 40, 1.0);
  const Matrix b(40, 40, 1.0);
  {
    RGAE_SPAN("phase.work");
    for (int i = 0; i < 5; ++i) MatMul(a, b);
  }
  const std::vector<ProfileNode> roots = obs::Profiler::Global().Snapshot();
  const ProfileNode* work = FindChild(roots, "phase.work");
  ASSERT_NE(work, nullptr);
  EXPECT_LE(work->exclusive_us, work->inclusive_us);
  EXPECT_GE(work->exclusive_us, 0);
  const ProfileNode* mm = FindChild(work->children, "kernel.matmul");
  ASSERT_NE(mm, nullptr);
  EXPECT_EQ(mm->calls, 5);
}

TEST(ProfileTest, WorkOutsideAnyScopeIsUnattributed) {
  ProfileScope scope;
  obs::Profiler::Global().AddWork(123, 456);
  const std::vector<ProfileNode> roots = obs::Profiler::Global().Snapshot();
  const ProfileNode* unattributed = FindChild(roots, "(unattributed)");
  ASSERT_NE(unattributed, nullptr);
  EXPECT_EQ(unattributed->flops, 123);
  EXPECT_EQ(unattributed->bytes, 456);
}

TEST(ProfileTest, ResetWithAnOpenScopeIsSafe) {
  ProfileScope scope;
  obs::Profiler::Node* open = obs::Profiler::Global().BeginScope("stale");
  ASSERT_NE(open, nullptr);
  obs::Profiler::Global().Reset();
  // The retired node absorbs the close; the fresh tree never sees it.
  obs::Profiler::Global().EndScope(open, 10);
  EXPECT_TRUE(obs::Profiler::Global().Snapshot().empty());
  // New scopes after the reset land in the fresh tree.
  {
    RGAE_SPAN("fresh");
  }
  const std::vector<ProfileNode> roots = obs::Profiler::Global().Snapshot();
  EXPECT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0].name, "fresh");
}

TEST(ProfileTest, DisabledProfilerRecordsNothing) {
  ProfileScope scope;
  obs::SetProfileEnabled(false);
  EXPECT_EQ(obs::Profiler::Global().BeginScope("off"), nullptr);
  {
    RGAE_SPAN("off.span");
    MatMul(Matrix(2, 2, 1.0), Matrix(2, 2, 1.0));
  }
  // Kernel work feeds only the tree, so with profiling off nothing is
  // recorded: no node, not even the "(unattributed)" root.
  EXPECT_TRUE(obs::Profiler::Global().Snapshot().empty());
}

TEST(ProfileTest, ToJsonCarriesRatesAndChildren) {
  ProfileScope scope;
  {
    RGAE_SPAN("phase.json");
    MatMul(Matrix(8, 8, 1.0), Matrix(8, 8, 1.0));
  }
  const JsonValue json = obs::Profiler::Global().ToJson();
  EXPECT_TRUE(json.Get("enabled")->bool_value());
  const JsonValue* nodes = json.Get("nodes");
  ASSERT_NE(nodes, nullptr);
  ASSERT_GE(nodes->size(), 1u);
  const JsonValue& root = nodes->at(0);
  EXPECT_EQ(root.Get("name")->string(), "phase.json");
  for (const char* key : {"calls", "inclusive_us", "exclusive_us", "flops",
                          "bytes", "gflops", "gbs"}) {
    ASSERT_NE(root.Get(key), nullptr) << key;
    EXPECT_TRUE(root.Get(key)->is_number()) << key;
    EXPECT_GE(root.Get(key)->number(), 0.0) << key;
  }
  ASSERT_NE(root.Get("children"), nullptr);
  ASSERT_EQ(root.Get("children")->size(), 1u);
  EXPECT_EQ(root.Get("children")->at(0).Get("name")->string(),
            "kernel.matmul");
}

// ---- Memory accounting -----------------------------------------------------

TEST(MemstatTest, RssReadingsArePositive) {
  EXPECT_GT(obs::ReadPeakRssBytes(), 0);
  EXPECT_GT(obs::ReadCurrentRssBytes(), 0);
  // Peak can never trail current.
  EXPECT_GE(obs::ReadPeakRssBytes(), obs::ReadCurrentRssBytes());
}

TEST(MemstatTest, MatrixConstructionFeedsTheCounters) {
  ProfileScope scope;
  const obs::MemCounters before = obs::MemCountersNow();
  const Matrix m(10, 20, 0.0);
  const obs::MemCounters after = obs::MemCountersNow();
  EXPECT_EQ(after.matrix_allocs, before.matrix_allocs + 1);
  EXPECT_EQ(after.matrix_bytes, before.matrix_bytes + 10 * 20 * 8);
  // Copies are churn, not demand: not counted.
  const Matrix copy = m;
  EXPECT_EQ(obs::MemCountersNow().matrix_allocs, after.matrix_allocs);
  (void)copy;
}

TEST(MemstatTest, TapePushFeedsTheCounters) {
  ProfileScope scope;
  const obs::MemCounters before = obs::MemCountersNow();
  Parameter p(Matrix(3, 4, 1.0));
  Tape tape;
  tape.Leaf(&p);
  const obs::MemCounters after = obs::MemCountersNow();
  EXPECT_EQ(after.tape_nodes, before.tape_nodes + 1);
  EXPECT_EQ(after.tape_bytes, before.tape_bytes + 3 * 4 * 8);
}

TEST(MemstatTest, DisabledCountersStayFlat) {
  obs::SetEnabled(false);
  obs::ResetMemCounters();
  const Matrix m(5, 5, 0.0);
  (void)m;
  EXPECT_EQ(obs::MemCountersNow().matrix_allocs, 0);
}

TEST(MemstatTest, MemoryReportJsonShape) {
  ProfileScope scope;
  const Matrix m(6, 6, 0.0);
  (void)m;
  const JsonValue report = obs::MemoryReportJson();
  for (const char* key : {"peak_rss_bytes", "current_rss_bytes",
                          "matrix_allocs", "matrix_bytes", "tape_nodes",
                          "tape_bytes"}) {
    ASSERT_NE(report.Get(key), nullptr) << key;
    EXPECT_TRUE(report.Get(key)->is_number()) << key;
  }
  EXPECT_GT(report.Get("peak_rss_bytes")->number(), 0.0);
  EXPECT_EQ(report.Get("matrix_allocs")->number(), 1.0);
  // The report refreshed the gauges as a side effect.
  EXPECT_EQ(
      obs::MetricsRegistry::Global().GetGauge("mem.matrix_allocs")->value(),
      1.0);
}

}  // namespace
}  // namespace rgae
