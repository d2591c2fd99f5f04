// Tables 1 and 2: best, and mean ± standard deviation, of ACC/NMI/ARI over
// trials for every (model, R-model) couple on the three citation-like
// datasets. Both tables come from the same trials. Paper reference values
// live in EXPERIMENTS.md; the shape to verify is that R-variants beat their
// bases and the second group beats the first group.

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  const rgae_bench::BenchObs obs(argc, argv, "table1_best_citation");
  rgae_bench::PrintRunBanner(
      "Tables 1 and 2 — best and mean/std clustering, citation networks");
  const int trials = rgae::NumTrialsFromEnv();

  const std::vector<std::string> header = {
      "Method",     "Cora ACC", "NMI", "ARI", "Citeseer ACC", "NMI", "ARI",
      "Pubmed ACC", "NMI",      "ARI"};
  rgae::TablePrinter best(header);
  rgae::TablePrinter mean(header);
  for (const std::string& model : rgae::AllModelNames()) {
    std::vector<std::string> best_base = {model};
    std::vector<std::string> best_r = {"R-" + model};
    std::vector<std::string> mean_base = best_base;
    std::vector<std::string> mean_r = best_r;
    for (const std::string& dataset : rgae::CitationDatasetNames()) {
      const rgae_bench::MethodResult result =
          rgae_bench::RunCoupleTrials(model, dataset, trials);
      rgae_bench::AppendCells(&best_base, rgae_bench::BestCells(result.base));
      rgae_bench::AppendCells(&best_r,
                              rgae_bench::BestCells(result.rvariant));
      rgae_bench::AppendCells(&mean_base, rgae_bench::MeanCells(result.base));
      rgae_bench::AppendCells(&mean_r,
                              rgae_bench::MeanCells(result.rvariant));
    }
    best.AddRow(best_base);
    best.AddRow(best_r);
    mean.AddRow(mean_base);
    mean.AddRow(mean_r);
    std::printf("  finished %s\n", model.c_str());
    std::fflush(stdout);
  }
  best.Print("Table 1: best clustering performance (citation networks)");
  mean.Print(
      "Table 2: mean +/- std clustering performance (citation networks)");
  return 0;
}
