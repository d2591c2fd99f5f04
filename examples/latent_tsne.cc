// Reproduces the *visual* side of the paper's Figure 10: trains GMM-VGAE
// and R-GMM-VGAE on the Cora-like dataset, embeds both final latent spaces
// into 2-D with exact t-SNE, and writes `tsne_<model>.csv` files
// (x,y,label per node) ready for any plotting tool. Also prints the
// k-means accuracy *of the 2-D embedding*, a one-number summary of how
// cluster-separated the picture is.
//
//   ./build/examples/latent_tsne [seed]

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "src/clustering/kmeans.h"
#include "src/clustering/tsne.h"
#include "src/eval/harness.h"
#include "src/metrics/clustering_metrics.h"

namespace {

void EmbedAndDump(const char* tag, const rgae::Matrix& z,
                  const rgae::AttributedGraph& graph, rgae::Rng& rng) {
  rgae::TsneOptions opts;
  opts.iterations = 300;
  opts.perplexity = 25.0;
  const rgae::Matrix y = Tsne(z, opts, rng);

  const std::string path = std::string("tsne_") + tag + ".csv";
  std::ofstream out(path);
  out << "x,y,label\n";
  for (int i = 0; i < y.rows(); ++i) {
    out << y(i, 0) << ',' << y(i, 1) << ',' << graph.labels()[i] << '\n';
  }
  rgae::Rng km_rng(99);
  const rgae::KMeansResult km =
      KMeans(y, graph.num_clusters(), km_rng);
  std::printf("%-12s t-SNE written to %s; 2-D k-means ACC %.1f%%\n", tag,
              path.c_str(),
              100 * rgae::ClusteringAccuracy(km.assignments, graph.labels()));
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1;
  const rgae::AttributedGraph graph = rgae::MakeDataset("Cora", seed);
  const rgae::CoupleConfig config =
      rgae::MakeCoupleConfig("GMM-VGAE", "Cora", seed);
  const rgae::CoupleOutcome outcome = RunCouple(config, graph);
  std::printf("GMM-VGAE ACC %.1f%% | R-GMM-VGAE ACC %.1f%%\n",
              100 * outcome.base.scores.acc,
              100 * outcome.rmodel.scores.acc);

  // The couple's own final embeddings: the same models whose ACC is above.
  rgae::Rng tsne_rng(7);
  EmbedAndDump("gmm_vgae", outcome.base.result.embedding, graph, tsne_rng);
  EmbedAndDump("r_gmm_vgae", outcome.rmodel.result.embedding, graph,
               tsne_rng);
  return 0;
}
