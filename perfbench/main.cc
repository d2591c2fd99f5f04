// perfbench: the repository benchmark binary. Usually run through
// perfbench/run.py, which builds it, checks the recorded ACC values and
// prints the result line; see perfbench/README.md.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <chrome-trace.json>]
//
// Prints one line per metric ("name value unit"), a `detail` line with raw
// timings and host factors, and as its last line a JSON object with the
// metrics, the trial ACCs, the dispatched kernel ISA and any failed output
// check. Exits 1 when a check failed, 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/bench.h"
#include "src/kernels/dispatch.h"

namespace {

using rgae::obs::JsonValue;

int Usage() {
  std::string names;
  for (const auto& n : perfbench::WorkloadNames()) names += " " + n;
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <path>]\nworkloads:%s\n",
               names.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      options.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      options.seconds = std::atof(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (std::strcmp(flag, "--trace-out") == 0) {
      options.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || options.seconds <= 0.0) return Usage();

  perfbench::Report report;
  if (!perfbench::RunWorkload(options, &report)) return Usage();

  JsonValue metrics = JsonValue::MakeObject();
  for (const auto& m : report.metrics) {
    std::printf("%-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    JsonValue entry = JsonValue::MakeObject();
    entry.Set("value", JsonValue(m.value));
    entry.Set("unit", JsonValue(m.unit));
    metrics.Set(m.name, std::move(entry));
  }
  std::printf("detail %s\n", report.detail.Dump().c_str());
  for (const auto& p : report.problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }

  JsonValue out = JsonValue::MakeObject();
  out.Set("workload", JsonValue(options.workload));
  out.Set("seed", JsonValue(std::to_string(options.seed)));
  out.Set("isa", JsonValue(rgae::kernels::IsaName(
                     rgae::kernels::SelectedIsa())));
  out.Set("correct", JsonValue(report.problems.empty()));
  out.Set("attempted", JsonValue(static_cast<long long>(report.attempted)));
  out.Set("failed", JsonValue(static_cast<long long>(report.failed)));
  JsonValue accs = JsonValue::MakeArray();
  for (double a : report.accs) accs.Append(JsonValue(a));
  out.Set("acc_values", std::move(accs));
  JsonValue problems = JsonValue::MakeArray();
  for (const auto& p : report.problems) problems.Append(JsonValue(p));
  out.Set("problems", std::move(problems));
  out.Set("metrics", std::move(metrics));
  std::printf("%s\n", out.Dump().c_str());
  std::fflush(stdout);
  return report.problems.empty() && report.failed == 0 ? 0 : 1;
}
