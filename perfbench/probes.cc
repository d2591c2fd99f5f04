// Layer probes of a traced run: after the timed part, each layer's public
// entry point is timed at the workload's shapes. The kernel probes run on
// the serving state the run reached (the engine's final graph and snapshot
// weights); the model, operator and clustering probes run on the generated
// graph, so every count they report depends only on the seed.

#include <algorithm>

#include "perfbench/bench.h"
#include "src/clustering/assignments.h"
#include "src/clustering/gmm.h"
#include "src/clustering/kmeans.h"
#include "src/core/operators.h"
#include "src/core/rgae_trainer.h"
#include "src/kernels/dispatch.h"
#include "src/kernels/kernels.h"
#include "src/metrics/clustering_metrics.h"
#include "src/models/model_factory.h"
#include "src/obs/memstat.h"
#include "src/obs/metrics.h"
#include "src/serve/forward.h"
#include "src/tensor/autograd.h"

namespace perfbench {

namespace {

constexpr double kProbeSeconds = 0.15;  // Timed work per probe, at least.
constexpr int kMaxReps = 400;
constexpr int kReplayMutations = 32;

class Prober {
 public:
  explicit Prober(HostProbe* probe) : probe_(probe) {}

  /// Normalised milliseconds per call of `fn`: one warm-up call, then
  /// enough calls to fill kProbeSeconds, each inside a span named `name`.
  template <class Fn>
  double TimeMs(const char* name, Fn&& fn) {
    const double t0 = NowSeconds();
    fn();
    const double once = std::max(1e-7, NowSeconds() - t0);
    const int reps =
        std::clamp(static_cast<int>(kProbeSeconds / once), 1, kMaxReps);
    const Timed t = TimeUnit(probe_, [&] {
      for (int i = 0; i < reps; ++i) {
        Span span(name);
        fn();
      }
    });
    return t.norm_s() / reps * 1e3;
  }

 private:
  HostProbe* probe_;
};

}  // namespace

void RunLayerProbes(const Options& options, Inputs* in, HostProbe* probe,
                    Report* report) {
  SetSpansEnabled(true);
  Prober p(probe);
  const rgae::AttributedGraph& graph = in->graph;
  const rgae::serve::ModelSnapshot snap = in->engine->SnapshotCopy();
  const int n = graph.num_nodes();
  const int k = in->num_clusters;

  // kernels: the dense and sparse products of a step, at this graph's size.
  const rgae::Matrix z = rgae::serve::ForwardEngine::FullForward(snap);
  const int d = z.cols();
  const rgae::Matrix& x = snap.features;
  const rgae::Matrix& w0 = snap.w0;
  const int f = x.cols(), h = w0.cols();
  rgae::Matrix xw(n, h), spmm_out(n, h), gram(n, n);
  const rgae::CsrMatrix& filter = snap.filter;
  const double matmul_ms = p.TimeMs("kernels.MatMul", [&] {
    rgae::kernels::MatMul(x.data(), w0.data(), xw.data(), n, f, h);
  });
  const double spmm_ms = p.TimeMs("kernels.Spmm", [&] {
    rgae::kernels::Spmm(filter.row_ptr().data(), filter.col_idx().data(),
                        filter.values().data(), n, xw.data(), h,
                        spmm_out.data());
  });
  const double gram_ms = p.TimeMs("kernels.MatMulTransB", [&] {
    rgae::kernels::MatMulTransB(z.data(), z.data(), gram.data(), n, d, n);
  });
  double sweep_sink = 0.0;
  const double bce_ms = p.TimeMs("kernels.BceSweep", [&] {
    sweep_sink += rgae::kernels::BceSweep(gram.data(),
                                          static_cast<int64_t>(n) * n);
  });
  std::vector<double> row_out(h);
  const double rows_ms = p.TimeMs("kernels.MatMulRow+SpmmRow", [&] {
    for (int r = 0; r < n; ++r) {
      rgae::kernels::MatMulRow(x.row(r), w0.data(), row_out.data(), f, h);
      const int begin = filter.row_ptr()[r];
      rgae::kernels::SpmmRow(filter.col_idx().data() + begin,
                             filter.values().data() + begin,
                             filter.row_ptr()[r + 1] - begin, xw.data(), h,
                             row_out.data());
    }
  });
  report->Add("kernels.matmul_ms", matmul_ms, "ms");
  report->Add("kernels.matmul_gflops", 2.0 * n * f * h / (matmul_ms * 1e6),
              "GFLOP/s");
  report->Add("kernels.spmm_ms", spmm_ms, "ms");
  report->Add("kernels.spmm_gflops", 2.0 * filter.nnz() * h / (spmm_ms * 1e6),
              "GFLOP/s");
  report->Add("kernels.gram_ms", gram_ms, "ms");
  report->Add("kernels.gram_gflops", 2.0 * n * n * d / (gram_ms * 1e6),
              "GFLOP/s");
  report->Add("kernels.bce_sweep_ms", bce_ms, "ms");
  report->detail.Set("bce_sweep_checksum", rgae::obs::JsonValue(sweep_sink));
  report->Add("kernels.row_us", rows_ms * 1e3 / n, "us");
  report->Add("kernels.isa",
              rgae::kernels::IsaLevel(rgae::kernels::SelectedIsa()), "level");

  // graph: adjacency materialisation (generation is timed in set-up).
  const double adjacency_ms =
      p.TimeMs("graph.Adjacency", [&] { (void)graph.Adjacency(); });
  report->Add("graph.adjacency_ms", adjacency_ms, "ms");

  // tensor: the fused reconstruction loss, forward + backward.
  const rgae::CsrMatrix adj = graph.Adjacency();
  const rgae::ReconTarget target = rgae::MakeReconTarget(&adj);
  rgae::Parameter zp(z);
  const double recon_ms = p.TimeMs("tensor.InnerProductBceLoss", [&] {
    rgae::Tape tape;
    const rgae::Var loss = tape.InnerProductBceLoss(
        tape.Leaf(&zp), target.graph, target.pos_weight, target.norm);
    tape.Backward(loss);
  });
  report->Add("tensor.recon_loss_ms", recon_ms, "ms");

  // models: one TrainStep per model, reconstruction-only (pretrain) and,
  // for models with a clustering head, the joint clustering step.
  rgae::TrainContext pre_ctx;
  pre_ctx.recon = target;
  rgae::TrainContext clus_ctx = pre_ctx;
  clus_ctx.include_clustering = true;
  clus_ctx.gamma = in->couple.base.gamma;
  double main_pretrain_ms = 0.0;
  for (const std::string& name : rgae::AllModelNames()) {
    const auto model =
        rgae::CreateModel(name, graph, in->couple.model_options);
    const double pre_ms = p.TimeMs("models.TrainStep.pretrain",
                                   [&] { model->TrainStep(pre_ctx); });
    report->Add("models.train_step_ms.pretrain." + name, pre_ms, "ms");
    if (name == in->main_model) main_pretrain_ms = pre_ms;
    if (!model->has_clustering_head()) continue;
    rgae::Rng rng(in->seed);
    model->InitClusteringHead(k, rng);
    const double clus_ms = p.TimeMs("models.TrainStep.cluster",
                                    [&] { model->TrainStep(clus_ctx); });
    report->Add("models.train_step_ms.cluster." + name, clus_ms, "ms");
  }
  report->Add("tensor.recon_loss_frac", recon_ms / main_pretrain_ms, "frac");

  // tensor allocation counts of one clustering epoch of the main model.
  const auto model =
      rgae::CreateModel(in->main_model, graph, in->couple.model_options);
  {
    rgae::Rng rng(in->seed);
    model->InitClusteringHead(k, rng);
  }
  model->TrainStep(clus_ctx);  // Warm-up: lazily built state.
  rgae::obs::SetEnabled(true);
  const rgae::obs::MemCounters m0 = rgae::obs::MemCountersNow();
  model->TrainStep(clus_ctx);
  const rgae::obs::MemCounters m1 = rgae::obs::MemCountersNow();
  rgae::obs::SetEnabled(false);
  report->Add("tensor.matrix_allocs_per_epoch",
              static_cast<double>(m1.matrix_allocs - m0.matrix_allocs),
              "count");
  report->Add("tensor.matrix_mb_per_epoch",
              static_cast<double>(m1.matrix_bytes - m0.matrix_bytes) / 1e6,
              "MB");
  report->Add("tensor.tape_nodes_per_epoch",
              static_cast<double>(m1.tape_nodes - m0.tape_nodes), "count");

  // core: the operators at this state (R-variant options of the workload).
  rgae::RGaeTrainer trainer(model.get(), in->couple.rvariant);
  const rgae::XiOptions xi_opts = in->couple.rvariant.xi;
  const double xi_ms = p.TimeMs("core.Xi", [&] {
    (void)rgae::OperatorXi(trainer.XiScores(), xi_opts);
  });
  report->Add("core.xi_ms", xi_ms, "ms");
  const rgae::Matrix emb = model->Embed();
  const rgae::Matrix scores = trainer.XiScores();
  std::vector<int> omega = rgae::OperatorXi(scores, xi_opts).omega;
  if (omega.empty()) {
    for (int v = 0; v < n; ++v) omega.push_back(v);
  }
  rgae::UpsilonStats ustats;
  const double upsilon_ms = p.TimeMs("core.Upsilon", [&] {
    ustats = rgae::UpsilonStats();
    const rgae::AttributedGraph g = rgae::OperatorUpsilon(
        graph, emb, scores, omega, in->couple.rvariant.upsilon, &ustats);
    const rgae::CsrMatrix a = g.Adjacency();
    (void)rgae::MakeReconTarget(&a);
  });
  report->Add("core.upsilon_ms", upsilon_ms, "ms");
  report->Add("core.upsilon_edges_changed",
              ustats.added_edges + ustats.dropped_edges, "count");

  // clustering and metrics on the embedding.
  const double gmm_ms = p.TimeMs("clustering.FitGmm", [&] {
    rgae::Rng rng(in->seed);
    (void)rgae::FitGmm(emb, k, rng);
  });
  report->Add("clustering.gmm_fit_ms", gmm_ms, "ms");
  const double kmeans_ms = p.TimeMs("clustering.KMeans", [&] {
    rgae::Rng rng(in->seed);
    (void)rgae::KMeans(emb, k, rng);
  });
  report->Add("clustering.kmeans_ms", kmeans_ms, "ms");
  const std::vector<int> hard = rgae::HardAssign(scores);
  const double evaluate_ms = p.TimeMs(
      "metrics.Evaluate", [&] { (void)rgae::Evaluate(hard, graph.labels()); });
  report->Add("metrics.evaluate_ms", evaluate_ms, "ms");

  // Adam last: its repetitions move the model, which the counts above read.
  const double adam_ms =
      p.TimeMs("tensor.Adam.Step", [&] { model->optimizer()->Step(); });
  report->Add("tensor.adam_ms", adam_ms, "ms");

  // serve: rows the incremental forward recomputes over a replay of the
  // first mutations of the serving loop, from the initial snapshot.
  rgae::serve::ForwardEngine replay(in->snapshot);
  rgae::AttributedGraph next = replay.graph();
  MutationState ms = InitialMutationState(options.seed);
  int64_t rows = 0;
  for (int i = 0; i < kReplayMutations; ++i) {
    MutateEdges(&next, &ms);
    replay.UpdateGraph(next);
    const rgae::serve::UpdateStats& u = replay.last_update();
    rows += u.xw0_rows + u.h_rows + u.z_rows;
  }
  report->Add("serve.update_rows", static_cast<double>(rows), "count");
  SetSpansEnabled(false);
}

}  // namespace perfbench
