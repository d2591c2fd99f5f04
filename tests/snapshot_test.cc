#include "src/serve/snapshot.h"

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/clustering/kmeans.h"
#include "src/graph/generators.h"
#include "src/models/model_factory.h"
#include "src/serve/forward.h"
#include "src/util/binio.h"

namespace rgae {
namespace {

using serve::ForwardEngine;
using serve::HeadKind;
using serve::ModelSnapshot;

AttributedGraph TinyGraph(uint64_t seed = 1) {
  CitationLikeOptions o;
  o.num_nodes = 60;
  o.num_clusters = 3;
  o.feature_dim = 40;
  o.topic_words = 10;
  o.intra_degree = 4.0;
  o.inter_degree = 0.5;
  Rng rng(seed);
  return MakeCitationLike(o, rng);
}

ModelOptions TinyModelOptions() {
  ModelOptions o;
  o.hidden_dim = 10;
  o.latent_dim = 5;
  o.seed = 5;
  return o;
}

// A trained-enough model: a few reconstruction steps move every weight off
// its init, and head models get their clustering head fitted on top.
std::unique_ptr<GaeModel> MakeModel(const std::string& name,
                                    const AttributedGraph& g) {
  auto model = CreateModel(name, g, TinyModelOptions());
  const CsrMatrix adj = g.Adjacency();
  TrainContext ctx;
  ctx.recon = MakeReconTarget(&adj);
  ctx.include_clustering = false;
  for (int i = 0; i < 3; ++i) model->TrainStep(ctx);
  if (model->has_clustering_head()) {
    Rng rng(3);
    model->InitClusteringHead(g.num_clusters(), rng);
  }
  return model;
}

void ExpectBitIdentical(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.data()[i], b.data()[i]) << "entry " << i;
  }
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// A valid snapshot file (DGAE: carries a student-t head) plus its bytes,
// shared by the rejection tests below.
std::string ValidSnapshotBytes(const std::string& path) {
  const AttributedGraph g = TinyGraph();
  const auto model = MakeModel("DGAE", g);
  std::string error;
  EXPECT_TRUE(SaveSnapshot(model->ExportSnapshot(), path, &error)) << error;
  return ReadFileBytes(path);
}

TEST(SnapshotTest, RoundTripIsBitIdenticalForAllSixModels) {
  const AttributedGraph g = TinyGraph();
  for (const std::string& name : AllModelNames()) {
    SCOPED_TRACE(name);
    const auto model = MakeModel(name, g);
    const ModelSnapshot snapshot = model->ExportSnapshot();
    EXPECT_EQ(snapshot.model_name, model->name());
    EXPECT_EQ(snapshot.has_head(), model->clustering_head_ready());

    const std::string path = ::testing::TempDir() + "/" + name + ".snapshot";
    std::string error;
    ASSERT_TRUE(SaveSnapshot(snapshot, path, &error)) << error;
    ModelSnapshot loaded;
    ASSERT_TRUE(LoadSnapshot(path, &loaded, &error)) << error;

    EXPECT_EQ(loaded.model_name, snapshot.model_name);
    EXPECT_EQ(loaded.head, snapshot.head);
    ExpectBitIdentical(loaded.w0, snapshot.w0);
    ExpectBitIdentical(loaded.w1, snapshot.w1);
    ExpectBitIdentical(loaded.features, snapshot.features);
    ASSERT_EQ(loaded.filter.rows(), snapshot.filter.rows());
    EXPECT_EQ(loaded.filter.col_idx(), snapshot.filter.col_idx());
    EXPECT_EQ(loaded.filter.values(), snapshot.filter.values());

    // The loaded artifact answers exactly like the in-memory one: the
    // embedding and (for head models) the assignments are bit-identical.
    const Matrix z = ForwardEngine::FullForward(snapshot);
    const Matrix z_loaded = ForwardEngine::FullForward(loaded);
    ExpectBitIdentical(z_loaded, z);
    if (snapshot.has_head()) {
      ExpectBitIdentical(SoftAssignRows(loaded, z_loaded),
                         SoftAssignRows(snapshot, z));
    }
    std::remove(path.c_str());
  }
}

TEST(SnapshotTest, HeadKindsMatchTheModelZoo) {
  const AttributedGraph g = TinyGraph();
  EXPECT_EQ(MakeModel("GAE", g)->ExportSnapshot().head, HeadKind::kNone);
  EXPECT_EQ(MakeModel("VGAE", g)->ExportSnapshot().head, HeadKind::kNone);
  EXPECT_EQ(MakeModel("DGAE", g)->ExportSnapshot().head, HeadKind::kStudentT);
  EXPECT_EQ(MakeModel("GMM-VGAE", g)->ExportSnapshot().head, HeadKind::kGmm);
}

TEST(SnapshotTest, SnapshotAssignmentsReproduceSoftAssignments) {
  const AttributedGraph g = TinyGraph();
  for (const std::string& name : {std::string("DGAE"),
                                  std::string("GMM-VGAE")}) {
    SCOPED_TRACE(name);
    const auto model = MakeModel(name, g);
    const ModelSnapshot snapshot = model->ExportSnapshot();
    ASSERT_TRUE(snapshot.has_head());
    EXPECT_EQ(snapshot.num_clusters(), g.num_clusters());
    const Matrix z = ForwardEngine::FullForward(snapshot);
    ExpectBitIdentical(z, model->Embed());
    ExpectBitIdentical(SoftAssignRows(snapshot, z),
                       model->SoftAssignments());
  }
}

TEST(SnapshotTest, AttachKMeansHeadServesAssignmentsForFirstGroupModels) {
  const AttributedGraph g = TinyGraph();
  const auto model = MakeModel("GAE", g);
  ModelSnapshot snapshot = model->ExportSnapshot();
  ASSERT_FALSE(snapshot.has_head());
  EXPECT_EQ(snapshot.num_clusters(), 0);

  Rng rng(7);
  snapshot.AttachKMeansHead(
      KMeans(ForwardEngine::FullForward(snapshot), 3, rng).centers);
  EXPECT_EQ(snapshot.head, HeadKind::kStudentT);
  EXPECT_EQ(snapshot.num_clusters(), 3);

  const Matrix p =
      SoftAssignRows(snapshot, ForwardEngine::FullForward(snapshot));
  ASSERT_EQ(p.rows(), g.num_nodes());
  ASSERT_EQ(p.cols(), 3);
  for (int i = 0; i < p.rows(); ++i) {
    double row_sum = 0.0;
    for (int k = 0; k < p.cols(); ++k) row_sum += p(i, k);
    EXPECT_NEAR(row_sum, 1.0, 1e-12);
  }

  // The attached head survives the disk round trip.
  const std::string path = ::testing::TempDir() + "/kmeans_head.snapshot";
  std::string error;
  ASSERT_TRUE(SaveSnapshot(snapshot, path, &error)) << error;
  ModelSnapshot loaded;
  ASSERT_TRUE(LoadSnapshot(path, &loaded, &error)) << error;
  ExpectBitIdentical(loaded.centers, snapshot.centers);
  std::remove(path.c_str());
}

TEST(SnapshotTest, GraphFromSnapshotReconstructsTheServingGraph) {
  const AttributedGraph g = TinyGraph();
  const auto model = MakeModel("VGAE", g);
  const ModelSnapshot snapshot = model->ExportSnapshot();
  const AttributedGraph rebuilt = serve::GraphFromSnapshot(snapshot);
  EXPECT_EQ(rebuilt.num_nodes(), g.num_nodes());
  EXPECT_EQ(rebuilt.edges(), g.edges());
  ExpectBitIdentical(rebuilt.features(), g.features());
  // NormalizedAdjacency is deterministic, so the rebuilt graph regenerates
  // the stored filter exactly.
  const CsrMatrix refilter = rebuilt.NormalizedAdjacency();
  EXPECT_EQ(refilter.col_idx(), snapshot.filter.col_idx());
  EXPECT_EQ(refilter.values(), snapshot.filter.values());
}

TEST(SnapshotTest, RejectsWrongMagicAndMissingFile) {
  const std::string path = ::testing::TempDir() + "/not_a.snapshot";
  WriteFileBytes(path, "definitely not a snapshot, but long enough to read");
  ModelSnapshot loaded;
  std::string error;
  EXPECT_FALSE(serve::LoadSnapshot(path, &loaded, &error));
  EXPECT_NE(error.find("is not an rgae snapshot"), std::string::npos)
      << error;
  EXPECT_FALSE(
      serve::LoadSnapshot("/nonexistent/nowhere.snapshot", &loaded, &error));
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
}

TEST(SnapshotTest, RejectsUnsupportedVersion) {
  const std::string path = ::testing::TempDir() + "/version.snapshot";
  std::string bytes = ValidSnapshotBytes(path);
  ASSERT_GT(bytes.size(), 16u);
  bytes[8] = static_cast<char>(0x63);  // Version field follows the magic.
  WriteFileBytes(path, bytes);
  ModelSnapshot loaded;
  std::string error;
  EXPECT_FALSE(serve::LoadSnapshot(path, &loaded, &error));
  EXPECT_NE(error.find("unsupported snapshot version"), std::string::npos)
      << error;
  std::remove(path.c_str());
}

TEST(SnapshotTest, RejectsTruncatedFiles) {
  const std::string path = ::testing::TempDir() + "/truncated.snapshot";
  const std::string bytes = ValidSnapshotBytes(path);
  ModelSnapshot loaded;
  std::string error;

  // Cut inside the header: not even magic + version + count survive.
  WriteFileBytes(path, bytes.substr(0, 10));
  EXPECT_FALSE(serve::LoadSnapshot(path, &loaded, &error));
  EXPECT_FALSE(error.empty());

  // Cut inside a section: header promises more payload than remains.
  WriteFileBytes(path, bytes.substr(0, bytes.size() / 2));
  EXPECT_FALSE(serve::LoadSnapshot(path, &loaded, &error));
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(SnapshotTest, RejectsCorruptSectionPayload) {
  const std::string path = ::testing::TempDir() + "/corrupt.snapshot";
  std::string bytes = ValidSnapshotBytes(path);
  // Offset 34 sits inside the first section's payload (16-byte file header
  // plus 16-byte section header), so the flip must trip that section's CRC.
  ASSERT_GT(bytes.size(), 40u);
  bytes[34] = static_cast<char>(bytes[34] ^ 0x5a);
  WriteFileBytes(path, bytes);
  ModelSnapshot loaded;
  std::string error;
  EXPECT_FALSE(serve::LoadSnapshot(path, &loaded, &error));
  EXPECT_NE(error.find("CRC mismatch"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(SnapshotTest, SaveRejectsShapeViolationsBeforeTouchingDisk) {
  const AttributedGraph g = TinyGraph();
  const auto model = MakeModel("GAE", g);
  ModelSnapshot snapshot = model->ExportSnapshot();
  snapshot.w1 = Matrix(snapshot.w1.rows() + 1, snapshot.w1.cols());

  std::string error;
  EXPECT_FALSE(serve::ValidateSnapshot(snapshot, &error));
  EXPECT_FALSE(error.empty());
  const std::string path = ::testing::TempDir() + "/invalid.snapshot";
  EXPECT_FALSE(serve::SaveSnapshot(snapshot, path, &error));
  std::ifstream probe(path);
  EXPECT_FALSE(probe.good()) << "rejected snapshot was still written";
}

TEST(SnapshotTest, ValidateRejectsBadHeads) {
  const AttributedGraph g = TinyGraph();
  const auto model = MakeModel("GMM-VGAE", g);
  std::string error;

  ModelSnapshot wrong_dim = model->ExportSnapshot();
  wrong_dim.means = Matrix(3, wrong_dim.latent_dim() + 2);
  EXPECT_FALSE(serve::ValidateSnapshot(wrong_dim, &error));

  ModelSnapshot bad_variance = model->ExportSnapshot();
  bad_variance.variances(0, 0) = 0.0;
  EXPECT_FALSE(serve::ValidateSnapshot(bad_variance, &error));
  EXPECT_NE(error.find("variance"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// BinaryReader bounds-check edge cases: the snapshot and checkpoint decoders'
// substrate must be as total as the decoders.

TEST(BinaryReaderBoundsTest, EmptyBufferFailsEveryRead) {
  BinaryReader r("", 0);
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  double f64 = 0.0;
  std::string s;
  EXPECT_FALSE(r.U32(&u32));
  EXPECT_FALSE(r.U64(&u64));
  EXPECT_FALSE(r.I64(&i64));
  EXPECT_FALSE(r.F64(&f64));
  EXPECT_FALSE(r.Str(&s));
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BinaryReaderBoundsTest, ReadsStopExactlyAtTheEnd) {
  std::string buf;
  BinaryWriter w(&buf);
  w.U32(7);
  BinaryReader r(buf);
  uint32_t v = 0;
  EXPECT_TRUE(r.U32(&v));
  EXPECT_EQ(v, 7u);
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_FALSE(r.U32(&v));      // One past the end fails...
  EXPECT_EQ(r.position(), 4u);  // ...without moving the cursor.
}

TEST(BinaryReaderBoundsTest, StringLengthPastTheEndFails) {
  std::string buf;
  BinaryWriter w(&buf);
  w.U64(100);  // Declares 100 bytes; none follow.
  BinaryReader r(buf);
  std::string s;
  EXPECT_FALSE(r.Str(&s));
}

TEST(BinaryReaderBoundsTest, StringLengthOverCapFails) {
  std::string buf;
  BinaryWriter w(&buf);
  w.U64((1ull << 28) + 1);  // One past the 2^28 cap.
  BinaryReader r(buf);
  std::string s;
  EXPECT_FALSE(r.Str(&s));
}

TEST(BinaryReaderBoundsTest, SkipPastTheEndFails) {
  std::string buf(8, 'a');
  BinaryReader r(buf);
  EXPECT_TRUE(r.Skip(8));
  EXPECT_FALSE(r.Skip(1));
  BinaryReader r2(buf);
  EXPECT_FALSE(r2.Skip(9));
}

TEST(BinaryReaderBoundsTest, IntVecCountOverCapFails) {
  std::string buf;
  BinaryWriter w(&buf);
  w.U64((1ull << 28) + 1);
  BinaryReader r(buf);
  std::vector<int> v;
  EXPECT_FALSE(r.IntVec(&v));
}

TEST(BinaryReaderBoundsTest, NegativeMatrixDimsFail) {
  std::string buf;
  BinaryWriter w(&buf);
  w.I64(-1);
  w.I64(4);
  BinaryReader r(buf);
  Matrix m;
  EXPECT_FALSE(r.Mat(&m));
}

}  // namespace
}  // namespace rgae
