#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Internal header of the repository benchmark (perfbench/README.md). The
// benchmark drives rgae only through its public entry points; everything in
// this directory is measurement scaffolding.

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/eval/harness.h"
#include "src/graph/graph.h"
#include "src/obs/json.h"
#include "src/serve/engine.h"
#include "src/serve/snapshot.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Timing and host-speed normalisation
// ---------------------------------------------------------------------------

/// Monotonic seconds.
double NowSeconds();

/// Fixed scalar work that calls no rgae code (reference.cc).
double ReferenceLoop();

/// Reference-loop time on the host the nominal was measured on: an idle
/// 4-core Intel Xeon VM (see README.md). A normalised time is the time the
/// unit would have taken at that nominal host speed.
inline constexpr double kNominalReferenceSeconds = 0.057;

/// Samples the reference loop and keeps every host factor
/// (measured / nominal reference time) of the run.
class HostProbe {
 public:
  /// Runs the reference loop once and returns its host factor.
  double Sample();
  /// The latest factor, sampling first when there is none yet.
  double Latest() { return factors_.empty() ? Sample() : factors_.back(); }
  const std::vector<double>& factors() const { return factors_; }

 private:
  std::vector<double> factors_;
  double sink_ = 0.0;
};

/// One timed unit: raw wall seconds and the host factor bracketing it.
struct Timed {
  double raw_s = 0.0;
  double factor = 1.0;
  double norm_s() const { return raw_s / factor; }
};

/// Times `fn` between two reference samples; the unit's factor is their
/// mean, so a slow host phase that covers the unit scales it back.
/// Back-to-back units share the sample between them.
template <class Fn>
Timed TimeUnit(HostProbe* probe, Fn&& fn) {
  const double before = probe->Latest();
  const double t0 = NowSeconds();
  fn();
  Timed t;
  t.raw_s = NowSeconds() - t0;
  t.factor = 0.5 * (before + probe->Sample());
  return t;
}

double Median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q);
/// (Q3 - Q1) / median, 0 for fewer than two samples.
double RelativeIqr(const std::vector<double>& v);

// ---------------------------------------------------------------------------
// Spans (measure.cc): recorded by the benchmark around its calls into each
// layer, kept in memory, written as a Chrome trace at exit.
// ---------------------------------------------------------------------------

/// Turns span recording on or off (off: a Span costs one branch).
void SetSpansEnabled(bool enabled);

class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_ = -1;
};

/// Per-name aggregate of the recorded spans. Self time is a span's
/// duration minus the part its child spans cover.
struct SpanStats {
  int64_t calls = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  std::vector<double> durations_ms;
};
std::map<std::string, SpanStats> AnalyzeSpans();
bool WriteTrace(const std::string& path, std::string* error);

// ---------------------------------------------------------------------------
// Workloads (workloads.cc)
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace path for --trace 1 runs.
};

/// Outcome of one training unit.
struct TrainUnitResult {
  int couples = 0;
  /// ACC of every trial in unit order (base, R per couple).
  std::vector<double> accs;
  int trials = 0;
  int trials_ok = 0;  // Neither failed nor timed out.
  int retries = 0;
  int dropped = 0;
};

/// Everything a workload builds before its timed part.
struct Inputs {
  rgae::AttributedGraph graph{0};  // Serving and probe graph.
  /// Model behind the serving snapshot and the allocation/operator probes.
  std::string main_model;
  int num_clusters = 0;
  /// Couple config: what RunCouple workloads train, and the model and
  /// trainer options of the layer probes.
  rgae::CoupleConfig couple;
  rgae::serve::ModelSnapshot snapshot;
  std::unique_ptr<rgae::serve::ServeEngine> engine;
  rgae::serve::ServeOptions serve_options;
  uint64_t seed = 0;
  double generate_s = 0.0;  // Input generation.
  double build_s = 0.0;     // ExportSnapshot + engine construction.
};

/// A metric as printed: name, value, unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }

  std::vector<Metric> metrics;
  /// Trial ACCs of the first training unit (every unit must repeat them).
  std::vector<double> accs;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Failed output checks, one line each; empty when every check passed.
  std::vector<std::string> problems;
  /// Raw timings, host factors, sample counts: printed, never gated.
  rgae::obs::JsonValue detail = rgae::obs::JsonValue::MakeObject();
};

/// Names accepted by --workload.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload end to end. Returns false on a usage error.
bool RunWorkload(const Options& options, Report* report);

// ---------------------------------------------------------------------------
// Layer probes (probes.cc): run after the timed part of a traced run.
// ---------------------------------------------------------------------------

/// Times each layer's public entry point at the workload's shapes and
/// appends the per-layer metrics to `report`.
void RunLayerProbes(const Options& options, Inputs* inputs, HostProbe* probe,
                    Report* report);

/// splitmix64 step: the benchmark's own deterministic choices (query nodes,
/// mutated edges) draw from it, never from the library's generators.
uint64_t NextRandom(uint64_t* state);

/// State of the serving loop's edge-mutation stream.
struct MutationState {
  uint64_t rng = 0;
  std::deque<std::pair<int, int>> added;  // Bench-added edges, oldest first.
};

/// The mutation stream of a workload seed.
MutationState InitialMutationState(uint64_t seed);

/// One small edge mutation, applied to `graph` in place: adds two random
/// non-edges and, once a window of added edges is full, removes the two
/// oldest of them, so the serving graph stays within a fixed distance of
/// the generated one. Deterministic in `state`, so a replay reproduces it.
void MutateEdges(rgae::AttributedGraph* graph, MutationState* state);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
