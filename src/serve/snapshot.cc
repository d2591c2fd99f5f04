#include "src/serve/snapshot.h"

#include <cmath>
#include <cstdint>
#include <utility>

#include "src/clustering/assignments.h"
#include "src/clustering/gmm.h"
#include "src/obs/trace.h"
#include "src/util/binio.h"
#include "src/util/fileio.h"

namespace rgae {
namespace serve {

namespace {

// File header: magic, format version, section count. Sections follow as
// (u32 tag, u64 payload size, u32 CRC32 of payload, payload). Readers skip
// unknown tags so v1 loaders tolerate forward-compatible additions, but a
// missing required section or a CRC mismatch is a hard error.
constexpr uint64_t kMagic = 0x52474145534E5031ULL;  // "RGAESNP1".
constexpr uint32_t kVersion = 1;
constexpr uint32_t kMaxSections = 64;

constexpr uint32_t SectionTag(char a, char b, char c, char d) {
  return static_cast<uint32_t>(static_cast<unsigned char>(a)) |
         static_cast<uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(c)) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(d)) << 24;
}

constexpr uint32_t kMetaTag = SectionTag('M', 'E', 'T', 'A');
constexpr uint32_t kWeightsTag = SectionTag('W', 'G', 'T', 'S');
constexpr uint32_t kHeadTag = SectionTag('H', 'E', 'A', 'D');
constexpr uint32_t kGraphTag = SectionTag('G', 'R', 'P', 'H');

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

bool AllFinite(const Matrix& m) {
  const double* p = m.data();
  for (size_t i = 0; i < m.size(); ++i) {
    if (!std::isfinite(p[i])) return false;
  }
  return true;
}

void AppendSection(std::string* out, uint32_t tag, const std::string& payload) {
  BinaryWriter header(out);
  header.U32(tag);
  header.U64(payload.size());
  header.U32(Crc32(payload));
  out->append(payload);
}

std::string MetaPayload(const ModelSnapshot& s) {
  std::string payload;
  BinaryWriter w(&payload);
  w.Str(s.model_name);
  w.U32(static_cast<uint32_t>(s.head));
  w.I64(s.num_nodes());
  w.I64(s.feature_dim());
  w.I64(s.hidden_dim());
  w.I64(s.latent_dim());
  return payload;
}

std::string WeightsPayload(const ModelSnapshot& s) {
  std::string payload;
  BinaryWriter w(&payload);
  w.Mat(s.w0);
  w.Mat(s.w1);
  return payload;
}

std::string HeadPayload(const ModelSnapshot& s) {
  std::string payload;
  BinaryWriter w(&payload);
  if (s.head == HeadKind::kStudentT) {
    w.Mat(s.centers);
  } else if (s.head == HeadKind::kGmm) {
    w.Mat(s.means);
    w.Mat(s.variances);
    w.Mat(s.mix_weights);
  }
  return payload;
}

std::string GraphPayload(const ModelSnapshot& s) {
  std::string payload;
  BinaryWriter w(&payload);
  w.Mat(s.features);
  w.I64(s.filter.rows());
  w.I64(s.filter.cols());
  const std::vector<Triplet> entries = s.filter.ToTriplets();
  w.U64(entries.size());
  for (const Triplet& t : entries) {
    w.I64(t.row);
    w.I64(t.col);
    w.F64(t.value);
  }
  return payload;
}

bool ParseMeta(BinaryReader* r, ModelSnapshot* s, int64_t dims[4]) {
  uint32_t head = 0;
  if (!r->Str(&s->model_name) || !r->U32(&head) || head > 2) return false;
  s->head = static_cast<HeadKind>(head);
  for (int i = 0; i < 4; ++i) {
    if (!r->I64(&dims[i]) || dims[i] < 0) return false;
  }
  return true;
}

bool ParseWeights(BinaryReader* r, ModelSnapshot* s) {
  return r->Mat(&s->w0) && r->Mat(&s->w1);
}

bool ParseHead(BinaryReader* r, ModelSnapshot* s) {
  if (s->head == HeadKind::kStudentT) {
    return r->Mat(&s->centers);
  }
  if (s->head == HeadKind::kGmm) {
    return r->Mat(&s->means) && r->Mat(&s->variances) &&
           r->Mat(&s->mix_weights);
  }
  return true;  // kNone: empty payload.
}

bool ParseGraph(BinaryReader* r, ModelSnapshot* s) {
  int64_t rows = 0, cols = 0;
  uint64_t nnz = 0;
  if (!r->Mat(&s->features) || !r->I64(&rows) || !r->I64(&cols)) return false;
  if (rows < 0 || cols < 0 || rows > (int64_t{1} << 31) ||
      cols > (int64_t{1} << 31)) {
    return false;
  }
  if (!r->U64(&nnz) || nnz > (1u << 28)) return false;
  std::vector<Triplet> entries(static_cast<size_t>(nnz));
  for (Triplet& t : entries) {
    int64_t row = 0, col = 0;
    if (!r->I64(&row) || !r->I64(&col) || !r->F64(&t.value)) return false;
    if (row < 0 || row >= rows || col < 0 || col >= cols) return false;
    t.row = static_cast<int>(row);
    t.col = static_cast<int>(col);
  }
  s->filter = CsrMatrix::FromTriplets(static_cast<int>(rows),
                                      static_cast<int>(cols),
                                      std::move(entries));
  return true;
}

}  // namespace

int ModelSnapshot::num_clusters() const {
  switch (head) {
    case HeadKind::kStudentT:
      return centers.rows();
    case HeadKind::kGmm:
      return means.rows();
    case HeadKind::kNone:
      return 0;
  }
  return 0;
}

void ModelSnapshot::AttachKMeansHead(Matrix kmeans_centers) {
  head = HeadKind::kStudentT;
  centers = std::move(kmeans_centers);
}

bool ValidateSnapshot(const ModelSnapshot& s, std::string* error) {
  if (s.filter.rows() != s.filter.cols()) {
    return Fail(error, "snapshot filter is not square (" +
                           std::to_string(s.filter.rows()) + "x" +
                           std::to_string(s.filter.cols()) + ")");
  }
  if (s.filter.rows() == 0) {
    return Fail(error, "snapshot has no nodes");
  }
  if (s.features.rows() != s.filter.rows()) {
    return Fail(error, "snapshot features have " +
                           std::to_string(s.features.rows()) +
                           " rows but the filter has " +
                           std::to_string(s.filter.rows()));
  }
  if (s.w0.rows() != s.features.cols()) {
    return Fail(error, "encoder W0 expects input dim " +
                           std::to_string(s.w0.rows()) + ", features have " +
                           std::to_string(s.features.cols()));
  }
  if (s.w1.rows() != s.w0.cols()) {
    return Fail(error, "encoder W1 expects input dim " +
                           std::to_string(s.w1.rows()) + ", W0 produces " +
                           std::to_string(s.w0.cols()));
  }
  if (s.w1.cols() == 0) {
    return Fail(error, "snapshot has an empty latent dimension");
  }
  if (s.head == HeadKind::kStudentT) {
    if (s.centers.rows() == 0 || s.centers.cols() != s.w1.cols()) {
      return Fail(error, "student-t head centers " + s.centers.ShapeString() +
                             " do not match latent dim " +
                             std::to_string(s.w1.cols()));
    }
  } else if (s.head == HeadKind::kGmm) {
    if (s.means.rows() == 0 || s.means.cols() != s.w1.cols()) {
      return Fail(error, "gmm head means " + s.means.ShapeString() +
                             " do not match latent dim " +
                             std::to_string(s.w1.cols()));
    }
    if (s.variances.rows() != s.means.rows() ||
        s.variances.cols() != s.means.cols()) {
      return Fail(error, "gmm head variances " + s.variances.ShapeString() +
                             " do not match means " + s.means.ShapeString());
    }
    if (s.mix_weights.rows() != 1 || s.mix_weights.cols() != s.means.rows()) {
      return Fail(error, "gmm mixture weights " + s.mix_weights.ShapeString() +
                             " are not 1x" + std::to_string(s.means.rows()));
    }
    for (int k = 0; k < s.variances.rows(); ++k) {
      for (int d = 0; d < s.variances.cols(); ++d) {
        if (!(s.variances(k, d) > 0.0)) {
          return Fail(error, "gmm head has a non-positive variance");
        }
      }
    }
  }
  const Matrix* mats[] = {&s.w0,    &s.w1,        &s.centers,    &s.means,
                          &s.variances, &s.mix_weights, &s.features};
  for (const Matrix* m : mats) {
    if (!AllFinite(*m)) {
      return Fail(error, "snapshot contains a non-finite value");
    }
  }
  for (double v : s.filter.values()) {
    if (!std::isfinite(v)) {
      return Fail(error, "snapshot filter contains a non-finite value");
    }
  }
  return true;
}

bool SaveSnapshot(const ModelSnapshot& snapshot, const std::string& path,
                  std::string* error) {
  RGAE_SPAN("snap.save");
  RGAE_COUNT("snap.saves");
  if (!ValidateSnapshot(snapshot, error)) return false;

  std::string out;
  BinaryWriter header(&out);
  header.U64(kMagic);
  header.U32(kVersion);
  header.U32(4);
  AppendSection(&out, kMetaTag, MetaPayload(snapshot));
  AppendSection(&out, kWeightsTag, WeightsPayload(snapshot));
  AppendSection(&out, kHeadTag, HeadPayload(snapshot));
  AppendSection(&out, kGraphTag, GraphPayload(snapshot));
  return WriteFileAtomic(path, out, error);
}

bool LoadSnapshot(const std::string& path, ModelSnapshot* snapshot,
                  std::string* error) {
  RGAE_SPAN("snap.load");
  RGAE_COUNT("snap.loads");
  std::string contents;
  if (!ReadFileToString(path, &contents, error)) return false;

  BinaryReader r(contents);
  uint64_t magic = 0;
  if (!r.U64(&magic) || magic != kMagic) {
    return Fail(error, path + " is not an rgae snapshot");
  }
  uint32_t version = 0, section_count = 0;
  if (!r.U32(&version)) {
    return Fail(error, "truncated snapshot header in " + path);
  }
  if (version != kVersion) {
    return Fail(error, "unsupported snapshot version " +
                           std::to_string(version) + " in " + path);
  }
  if (!r.U32(&section_count) || section_count > kMaxSections) {
    return Fail(error, "bad section count in " + path);
  }

  *snapshot = ModelSnapshot();
  int64_t meta_dims[4] = {0, 0, 0, 0};
  bool seen_meta = false, seen_weights = false, seen_head = false,
       seen_graph = false;
  for (uint32_t i = 0; i < section_count; ++i) {
    uint32_t tag = 0, crc = 0;
    uint64_t size = 0;
    if (!r.U32(&tag) || !r.U64(&size) || !r.U32(&crc) || r.remaining() < size) {
      return Fail(error, "truncated section in " + path);
    }
    const char* payload = r.cursor();
    const size_t payload_size = static_cast<size_t>(size);
    r.Skip(payload_size);
    if (Crc32(payload, payload_size) != crc) {
      return Fail(error, "section CRC mismatch in " + path +
                             " (corrupt snapshot)");
    }
    BinaryReader section(payload, payload_size);
    bool ok = true;
    if (tag == kMetaTag) {
      // META must precede HEAD: ParseHead dispatches on the head kind.
      ok = ParseMeta(&section, snapshot, meta_dims);
      seen_meta = ok;
    } else if (tag == kWeightsTag) {
      ok = ParseWeights(&section, snapshot);
      seen_weights = ok;
    } else if (tag == kHeadTag) {
      ok = seen_meta && ParseHead(&section, snapshot);
      seen_head = ok;
    } else if (tag == kGraphTag) {
      ok = ParseGraph(&section, snapshot);
      seen_graph = ok;
    }
    // Unknown tags are skipped: a v1 reader tolerates additive extensions.
    if (!ok) {
      return Fail(error, "malformed section in " + path);
    }
  }
  if (!seen_meta || !seen_weights || !seen_head || !seen_graph) {
    return Fail(error, "missing required section in " + path);
  }
  std::string validation;
  if (!ValidateSnapshot(*snapshot, &validation)) {
    return Fail(error, path + ": " + validation);
  }
  if (meta_dims[0] != snapshot->num_nodes() ||
      meta_dims[1] != snapshot->feature_dim() ||
      meta_dims[2] != snapshot->hidden_dim() ||
      meta_dims[3] != snapshot->latent_dim()) {
    return Fail(error, "meta dimensions disagree with payload in " + path);
  }
  return true;
}

AttributedGraph GraphFromSnapshot(const ModelSnapshot& snapshot) {
  AttributedGraph g(snapshot.num_nodes());
  const std::vector<int>& row_ptr = snapshot.filter.row_ptr();
  const std::vector<int>& col_idx = snapshot.filter.col_idx();
  for (int u = 0; u < snapshot.num_nodes(); ++u) {
    for (int i = row_ptr[u]; i < row_ptr[u + 1]; ++i) {
      // The filter's off-diagonal support is the edge set of A; each edge
      // appears twice in the symmetric filter, so keep the u < v copy.
      if (col_idx[i] > u) g.AddEdge(u, col_idx[i]);
    }
  }
  if (!snapshot.features.empty()) g.set_features(snapshot.features);
  return g;
}

Matrix SoftAssignRows(const ModelSnapshot& snapshot, const Matrix& z_rows) {
  if (snapshot.head == HeadKind::kGmm) {
    GmmModel mixture;
    mixture.means = snapshot.means;
    mixture.variances = snapshot.variances;
    mixture.weights.resize(snapshot.mix_weights.cols());
    for (int k = 0; k < snapshot.mix_weights.cols(); ++k) {
      mixture.weights[static_cast<size_t>(k)] = snapshot.mix_weights(0, k);
    }
    return mixture.Responsibilities(z_rows);
  }
  return StudentTAssignments(z_rows, snapshot.centers);
}

}  // namespace serve
}  // namespace rgae
