// Tables 3 and 4: best, and mean ± std, of ACC/NMI/ARI of (GMM-VGAE,
// R-GMM-VGAE) and (DGAE, R-DGAE) on the three air-traffic-like datasets.
// Both tables come from the same trials.

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  const rgae_bench::BenchObs obs(argc, argv, "table3_best_airtraffic");
  rgae_bench::PrintRunBanner(
      "Tables 3 and 4 — best and mean/std clustering, air traffic");
  const int trials = rgae::NumTrialsFromEnv();

  const std::vector<std::string> header = {
      "Method",     "USA ACC", "NMI", "ARI", "Europe ACC", "NMI", "ARI",
      "Brazil ACC", "NMI",     "ARI"};
  rgae::TablePrinter best(header);
  rgae::TablePrinter mean(header);
  for (const std::string& model : {std::string("GMM-VGAE"),
                                   std::string("DGAE")}) {
    std::vector<std::string> best_base = {model};
    std::vector<std::string> best_r = {"R-" + model};
    std::vector<std::string> mean_base = best_base;
    std::vector<std::string> mean_r = best_r;
    for (const std::string& dataset : rgae::AirTrafficDatasetNames()) {
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
    std::fflush(stdout);
  }
  best.Print("Table 3: best clustering performance (air-traffic networks)");
  mean.Print(
      "Table 4: mean +/- std clustering performance (air-traffic networks)");
  return 0;
}
