#include "src/core/checkpoint.h"

#include <cstdint>

#include "src/models/model.h"
#include "src/obs/trace.h"
#include "src/util/binio.h"
#include "src/util/fileio.h"

namespace rgae {

namespace {

constexpr uint64_t kMagic = 0x52474145434B5031ULL;  // "RGAECKP1".

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

ModelCheckpoint CaptureModel(GaeModel* model) {
  RGAE_SPAN("ckpt.capture");
  RGAE_COUNT("ckpt.captures");
  ModelCheckpoint ckpt;
  for (Parameter* p : model->Params()) {
    ckpt.values.push_back(p->value);
    ckpt.adam_m.push_back(p->adam_m);
    ckpt.adam_v.push_back(p->adam_v);
  }
  ckpt.aux = model->SaveAuxState();
  if (model->optimizer() != nullptr) {
    ckpt.adam_step = model->optimizer()->step();
    ckpt.learning_rate = model->optimizer()->learning_rate();
  }
  return ckpt;
}

bool RestoreModel(const ModelCheckpoint& checkpoint, GaeModel* model,
                  std::string* error) {
  RGAE_SPAN("ckpt.restore");
  RGAE_COUNT("ckpt.restores");
  const std::vector<Parameter*> params = model->Params();
  if (checkpoint.values.size() != params.size()) {
    return Fail(error, "checkpoint has " +
                           std::to_string(checkpoint.values.size()) +
                           " parameters, model has " +
                           std::to_string(params.size()));
  }
  for (size_t i = 0; i < params.size(); ++i) {
    if (checkpoint.values[i].rows() != params[i]->value.rows() ||
        checkpoint.values[i].cols() != params[i]->value.cols()) {
      return Fail(error, "parameter " + std::to_string(i) + " shape " +
                             checkpoint.values[i].ShapeString() +
                             " does not match model " +
                             params[i]->value.ShapeString());
    }
  }
  for (size_t i = 0; i < params.size(); ++i) {
    params[i]->value = checkpoint.values[i];
    params[i]->adam_m = checkpoint.adam_m[i];
    params[i]->adam_v = checkpoint.adam_v[i];
    params[i]->ZeroGrad();
  }
  if (!model->RestoreAuxState(checkpoint.aux)) {
    return Fail(error, "model rejected the checkpoint's aux state");
  }
  if (model->optimizer() != nullptr) {
    model->optimizer()->set_step(checkpoint.adam_step);
    model->optimizer()->set_learning_rate(checkpoint.learning_rate);
  }
  return true;
}

bool SaveCheckpoint(const TrainerCheckpoint& checkpoint,
                    const std::string& path, std::string* error) {
  // Serialized into memory first so the file publishes atomically
  // (util/fileio.h): a crash mid-save leaves the previous checkpoint
  // intact, never a torn file. Field encodings come from util/binio.h and
  // are shared with the inference snapshot format.
  std::string out;
  BinaryWriter w(&out);
  w.U64(kMagic);
  w.MatList(checkpoint.model.values);
  w.MatList(checkpoint.model.adam_m);
  w.MatList(checkpoint.model.adam_v);
  w.MatList(checkpoint.model.aux);
  w.I64(checkpoint.model.adam_step);
  w.F64(checkpoint.model.learning_rate);

  const AttributedGraph& g = checkpoint.self_graph;
  w.I64(g.num_nodes());
  w.U64(g.edges().size());
  for (const auto& [u, v] : g.edges()) {
    w.I64(u);
    w.I64(v);
  }
  w.Mat(g.features());
  w.IntVec(g.labels());

  w.IntVec(checkpoint.omega);
  w.I64(checkpoint.epoch);
  w.I64(checkpoint.pretrain ? 1 : 0);
  return WriteFileAtomic(path, out, error);
}

bool LoadCheckpoint(const std::string& path, TrainerCheckpoint* checkpoint,
                    std::string* error) {
  std::string contents;
  if (!ReadFileToString(path, &contents, nullptr)) {
    return Fail(error, "cannot open " + path);
  }
  BinaryReader r(contents);
  uint64_t magic = 0;
  if (!r.U64(&magic) || magic != kMagic) {
    return Fail(error, path + " is not an rgae checkpoint");
  }
  if (!r.MatList(&checkpoint->model.values) ||
      !r.MatList(&checkpoint->model.adam_m) ||
      !r.MatList(&checkpoint->model.adam_v) ||
      !r.MatList(&checkpoint->model.aux)) {
    return Fail(error, "truncated model state in " + path);
  }
  int64_t step = 0;
  if (!r.I64(&step) || !r.F64(&checkpoint->model.learning_rate)) {
    return Fail(error, "truncated optimizer state in " + path);
  }
  checkpoint->model.adam_step = static_cast<long>(step);

  int64_t num_nodes = 0;
  uint64_t num_edges = 0;
  if (!r.I64(&num_nodes) || num_nodes < 0 || !r.U64(&num_edges) ||
      num_edges > (1u << 28)) {
    return Fail(error, "bad graph header in " + path);
  }
  AttributedGraph g(static_cast<int>(num_nodes));
  for (uint64_t i = 0; i < num_edges; ++i) {
    int64_t u = 0, v = 0;
    if (!r.I64(&u) || !r.I64(&v)) {
      return Fail(error, "truncated edge list in " + path);
    }
    if (u < 0 || u >= num_nodes || v < 0 || v >= num_nodes) {
      return Fail(error, "edge endpoint out of range in " + path);
    }
    g.AddEdge(static_cast<int>(u), static_cast<int>(v));
  }
  Matrix features;
  if (!r.Mat(&features)) {
    return Fail(error, "truncated features in " + path);
  }
  if (!features.empty()) g.set_features(std::move(features));
  std::vector<int> labels;
  if (!r.IntVec(&labels)) {
    return Fail(error, "truncated labels in " + path);
  }
  if (!labels.empty()) g.set_labels(std::move(labels));
  checkpoint->self_graph = std::move(g);

  int64_t epoch = 0, pretrain = 0;
  if (!r.IntVec(&checkpoint->omega) || !r.I64(&epoch) || !r.I64(&pretrain)) {
    return Fail(error, "truncated trainer state in " + path);
  }
  checkpoint->epoch = static_cast<int>(epoch);
  checkpoint->pretrain = pretrain != 0;
  return true;
}

}  // namespace rgae
