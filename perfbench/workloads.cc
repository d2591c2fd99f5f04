// The three workloads (README.md): each builds its inputs from the seed,
// then runs a training segment of couples and a serving segment of
// mutation + query rounds, every unit timed between host-speed reference
// samples. The share of the run each segment gets is what sets the
// workloads apart.

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <future>

#include "bench/bench_common.h"
#include "perfbench/bench.h"
#include "src/core/rgae_trainer.h"
#include "src/eval/datasets.h"
#include "src/graph/generators.h"
#include "src/models/model_factory.h"
#include "src/obs/memstat.h"
#include "src/obs/metrics.h"
#include "src/obs/profile.h"
#include "src/serve/forward.h"

namespace perfbench {

namespace {

using rgae::obs::JsonValue;

constexpr int kSetupReps = 5;
constexpr int kMinUnits = 3;
constexpr int kQueryBatch = 256;
constexpr int kMutationWindow = 64;

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

// Pubmed-like citation graph (the registry's Pubmed statistics) scaled to
// N = 2500, where the O(N²) reconstruction loss is nearly all of a step.
rgae::AttributedGraph GenerateLargeCitation(uint64_t seed) {
  rgae::CitationLikeOptions o;
  o.num_nodes = 2500;
  o.num_clusters = 3;
  o.feature_dim = 300;
  o.intra_degree = 3.0;
  o.inter_degree = 1.8;
  o.topic_words = 70;
  o.word_on_prob = 0.10;
  o.word_noise_prob = 0.05;
  o.imbalance = 0.2;
  rgae::Rng rng(seed ^ 0x7261696eULL);
  return rgae::MakeCitationLike(o, rng);
}

// The table protocol fixes its graphs: RunCoupleTrials builds trial t's
// dataset from seed t + 1, so the table suite serves and probes the
// Europe graph its single trial trains on, whatever the workload seed.
constexpr uint64_t kTableGraphSeed = 1;

rgae::AttributedGraph GenerateEurope(uint64_t /*seed*/) {
  return rgae::MakeDataset("Europe", kTableGraphSeed);
}

rgae::AttributedGraph GeneratePubmed(uint64_t seed) {
  return rgae::MakeDataset("Pubmed", seed);
}

// Fixed-length couple schedule: the R-model's early stop on |Ω| is off, so
// every unit does the same number of epochs.
void SetCoupleEpochs(rgae::CoupleConfig* c, int pretrain, int cluster) {
  for (rgae::TrainerOptions* t : {&c->base, &c->rvariant}) {
    t->pretrain_epochs = pretrain;
    t->max_cluster_epochs = cluster;
    t->convergence_fraction = 2.0;
  }
  c->rvariant.first_group_transform_start = pretrain / 2;
}

// Snapshot of `model` (already trained, or freshly initialised) behind a
// two-worker engine whose cache holds a quarter of the nodes.
void BuildServing(const rgae::GaeModel& model, Inputs* in) {
  const double t0 = NowSeconds();
  in->snapshot = model.ExportSnapshot();
  in->serve_options.num_workers = 2;
  in->serve_options.max_batch = 32;
  in->serve_options.cache_capacity = in->graph.num_nodes() / 4;
  in->engine = std::make_unique<rgae::serve::ServeEngine>(in->snapshot,
                                                          in->serve_options);
  in->build_s = NowSeconds() - t0;
}

void GenerateInputs(uint64_t seed, rgae::AttributedGraph (*generate)(uint64_t),
                    Inputs* in) {
  in->seed = seed;
  const double t0 = NowSeconds();
  in->graph = generate(seed);
  in->generate_s = NowSeconds() - t0;
}

void SetupTrainScale(uint64_t seed, Inputs* in) {
  GenerateInputs(seed, &GenerateLargeCitation, in);
  in->main_model = "GMM-VGAE";
  in->num_clusters = 3;
  in->couple = rgae::MakeCoupleConfig("GMM-VGAE", "Pubmed", seed);
  SetCoupleEpochs(&in->couple, /*pretrain=*/1, /*cluster=*/1);
  const auto model =
      rgae::CreateModel("GMM-VGAE", in->graph, in->couple.model_options);
  BuildServing(*model, in);
}

// The table suite runs the table benches' own couple-trials entry point;
// its tweak hook is a plain function pointer, so the workload seed reaches
// it through this variable.
uint64_t g_table_seed = 1;

// Epoch scale of the table-suite couples, applied through the harness's
// own RGAE_EPOCH_SCALE knob (the table benches' smoke-run setting).
constexpr const char* kTableEpochScale = "0.06";

void TableTweak(rgae::CoupleConfig* c) {
  *c = rgae::MakeCoupleConfig(c->model_name, c->dataset, g_table_seed);
  for (rgae::TrainerOptions* t : {&c->base, &c->rvariant}) {
    t->convergence_fraction = 2.0;
  }
}

const std::vector<std::string>& TableDatasets() {
  static const std::vector<std::string> names{"Brazil", "Europe"};
  return names;
}

void SetupTableSuite(uint64_t seed, Inputs* in) {
  g_table_seed = seed;
  GenerateInputs(seed, &GenerateEurope, in);
  in->main_model = "GMM-VGAE";
  in->num_clusters = rgae::DatasetClusters("Europe");
  in->couple = rgae::MakeCoupleConfig("GMM-VGAE", "Europe", seed);
  TableTweak(&in->couple);
  const auto model =
      rgae::CreateModel("GMM-VGAE", in->graph, in->couple.model_options);
  BuildServing(*model, in);
}

void SetupServeMutate(uint64_t seed, Inputs* in) {
  GenerateInputs(seed, &GeneratePubmed, in);
  in->main_model = "DGAE";
  in->num_clusters = rgae::DatasetClusters("Pubmed");
  in->couple = rgae::MakeCoupleConfig("DGAE", "Pubmed", seed);
  SetCoupleEpochs(&in->couple, /*pretrain=*/4, /*cluster=*/6);
  // The served model: a briefly trained R-DGAE.
  const auto model =
      rgae::CreateModel("DGAE", in->graph, in->couple.model_options);
  rgae::TrainerOptions opts = in->couple.rvariant;
  opts.pretrain_epochs = 5;
  opts.max_cluster_epochs = 5;
  rgae::RGaeTrainer(model.get(), opts).Run();
  BuildServing(*model, in);
}

// ---------------------------------------------------------------------------
// Training units
// ---------------------------------------------------------------------------

void AddTrial(const rgae::TrialOutcome& t, TrainUnitResult* r) {
  ++r->trials;
  r->accs.push_back(t.scores.acc);
  if (!t.failed && !t.timed_out) ++r->trials_ok;
  r->retries += t.retries;
  if (t.failed) ++r->dropped;
}

// One shared-pretrain couple through `rgae::RunCouple`.
TrainUnitResult CoupleUnit(const Inputs& in) {
  rgae::CoupleOutcome o;
  {
    Span span("eval.couple");
    o = rgae::RunCouple(in.couple, in.graph);
  }
  TrainUnitResult r;
  r.couples = 1;
  AddTrial(o.base, &r);
  AddTrial(o.rmodel, &r);
  return r;
}

void AddAggregate(const rgae::Aggregate& a, TrainUnitResult* r) {
  const int trials = a.num_trials + a.dropped_trials;
  r->trials += trials;
  r->trials_ok += a.num_trials - a.timed_out_trials;
  r->retries += a.retried_trials;
  r->dropped += a.dropped_trials;
  r->accs.push_back(a.mean.acc);
}

// The paper-table protocol: all six models as couples on Brazil and Europe,
// one trial each, through the table benches' RunCoupleTrials.
TrainUnitResult TableSuiteUnit(const Inputs& in) {
  TrainUnitResult r;
  for (const std::string& dataset : TableDatasets()) {
    for (const std::string& model : rgae::AllModelNames()) {
      rgae_bench::MethodResult m;
      {
        Span span("eval.couple");
        m = rgae_bench::RunCoupleTrials(model, dataset, 1, &TableTweak);
      }
      ++r.couples;
      AddAggregate(m.base, &r);
      AddAggregate(m.rvariant, &r);
    }
  }
  return r;
}

struct WorkloadDef {
  const char* name;
  /// Share of the measured seconds given to the training segment.
  double train_share;
  /// Mutation + query rounds per serving unit (about a second of work).
  int serve_rounds;
  void (*setup)(uint64_t seed, Inputs* in);
  TrainUnitResult (*train_unit)(const Inputs& in);
};

const std::vector<WorkloadDef>& Defs() {
  static const std::vector<WorkloadDef> defs{
      {"train_scale", 0.7, 100, &SetupTrainScale, &CoupleUnit},
      {"table_suite", 0.6, 300, &SetupTableSuite, &TableSuiteUnit},
      {"serve_mutate", 0.5, 150, &SetupServeMutate, &CoupleUnit},
  };
  return defs;
}

// ---------------------------------------------------------------------------
// Serving rounds
// ---------------------------------------------------------------------------

struct ServeTally {
  int64_t submitted = 0;
  int64_t queries = 0;
  int64_t queries_ok = 0;
  int64_t mutations = 0;
  int64_t mutations_applied = 0;
  std::vector<double> mutate_ms;      // Normalised, one per mutation.
  std::vector<double> unit_qps;       // Normalised, one per unit.
  std::vector<Timed> units;
};

// Closed loop from one issuing thread: mutate, then submit a batch of
// uniform-random node queries and wait for every answer.
void ServeUnit(int rounds, Inputs* in, rgae::AttributedGraph* next,
               MutationState* ms, uint64_t* rng, HostProbe* probe,
               ServeTally* tally) {
  std::vector<double> mutate_raw;
  mutate_raw.reserve(rounds);
  int64_t answered = 0;
  const int n = in->graph.num_nodes();
  const Timed t = TimeUnit(probe, [&] {
    Span unit_span("unit.serve");
    std::vector<std::future<rgae::serve::QueryResult>> futures;
    futures.reserve(kQueryBatch);
    for (int round = 0; round < rounds; ++round) {
      MutateEdges(next, ms);
      const double m0 = NowSeconds();
      std::vector<int> invalidated;
      {
        Span span("serve.MutateGraph");
        invalidated = in->engine->MutateGraph(*next);
      }
      mutate_raw.push_back(NowSeconds() - m0);
      ++tally->mutations;
      if (!invalidated.empty()) ++tally->mutations_applied;

      Span span("serve.Query");
      futures.clear();
      for (int q = 0; q < kQueryBatch; ++q) {
        const int node = static_cast<int>(NextRandom(rng) % n);
        futures.push_back(in->engine->Query(node));
      }
      tally->submitted += kQueryBatch;
      for (auto& f : futures) {
        const rgae::serve::QueryResult res = f.get();
        ++tally->queries;
        ++answered;
        if (res.ok()) ++tally->queries_ok;
      }
    }
  });
  for (double raw : mutate_raw) {
    tally->mutate_ms.push_back(raw / t.factor * 1e3);
  }
  tally->unit_qps.push_back(static_cast<double>(answered) / t.norm_s());
  tally->units.push_back(t);
}

// Every node answered by the engine must equal a from-scratch forward pass
// of the final serving graph bit for bit.
int64_t CheckFinalEmbeddings(Inputs* in, ServeTally* tally) {
  const rgae::Matrix ref = rgae::serve::ForwardEngine::FullForward(
      in->engine->SnapshotCopy());
  const int n = in->graph.num_nodes();
  int64_t mismatches = 0;
  constexpr int kChunk = 256;  // Below the admission queue bound.
  for (int begin = 0; begin < n; begin += kChunk) {
    std::vector<std::future<rgae::serve::QueryResult>> futures;
    const int end = std::min(n, begin + kChunk);
    for (int v = begin; v < end; ++v) futures.push_back(in->engine->Query(v));
    tally->submitted += end - begin;
    for (int v = begin; v < end; ++v) {
      const rgae::serve::QueryResult res = futures[v - begin].get();
      const size_t d = static_cast<size_t>(ref.cols());
      if (!res.ok() || res.embedding.size() != d ||
          std::memcmp(res.embedding.data(), ref.row(v), d * sizeof(double))) {
        ++mismatches;
      }
    }
  }
  return mismatches;
}

// ---------------------------------------------------------------------------
// Counted unit: the first training unit of a run, untimed, with the
// library's own counters on (and its profile tree, in traced runs).
// ---------------------------------------------------------------------------

void SumProfile(const std::vector<rgae::obs::ProfileNode>& nodes,
                const std::string& name, double* us) {
  for (const auto& node : nodes) {
    if (node.name == name) *us += static_cast<double>(node.inclusive_us);
    SumProfile(node.children, name, us);
  }
}

int64_t CounterValue(const char* name) {
  return rgae::obs::MetricsRegistry::Global().GetCounter(name)->value();
}

// Every timed unit repeats this one exactly (the ACC check below), so the
// trainer's epoch counters here give the epochs each timed unit trains,
// however the harness schedules them. Stores that count in `*epochs`.
TrainUnitResult CountedUnit(const WorkloadDef& def, const Inputs& in,
                            bool trace, int64_t* epochs, Report* report) {
  rgae::obs::MetricsRegistry::Global().Reset();
  rgae::obs::Profiler::Global().Reset();
  rgae::obs::SetEnabled(true);
  rgae::obs::SetProfileEnabled(trace);
  const TrainUnitResult r = def.train_unit(in);
  rgae::obs::SetProfileEnabled(false);
  rgae::obs::SetEnabled(false);
  *epochs = CounterValue("trainer.epochs.pretrain") +
            CounterValue("trainer.epochs.cluster");
  if (!trace) return r;
  double pretrain_us = 0.0, cluster_us = 0.0;
  const auto tree = rgae::obs::Profiler::Global().Snapshot();
  SumProfile(tree, "train.pretrain", &pretrain_us);
  SumProfile(tree, "train.cluster", &cluster_us);
  const double couples = r.couples;
  report->Add("eval.pretrain_frac", pretrain_us / (pretrain_us + cluster_us),
              "frac");
  report->Add("core.xi_refreshes",
              static_cast<double>(CounterValue("op.xi.calls")), "count");
  report->Add("core.upsilon_runs",
              static_cast<double>(CounterValue("op.upsilon.calls")), "count");
  report->Add("clustering.gmm_fits_per_couple",
              CounterValue("gmm.fits") / couples, "count");
  report->Add("clustering.kmeans_fits_per_couple",
              CounterValue("kmeans.fits") / couples, "count");
  return r;
}

JsonValue NumberArray(const std::vector<double>& v) {
  JsonValue a = JsonValue::MakeArray();
  for (double x : v) a.Append(JsonValue(x));
  return a;
}

}  // namespace

uint64_t NextRandom(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

MutationState InitialMutationState(uint64_t seed) {
  MutationState state;
  state.rng = seed * 0x2545F4914F6CDD1DULL + 1;
  return state;
}

void MutateEdges(rgae::AttributedGraph* graph, MutationState* state) {
  const int n = graph->num_nodes();
  for (int added = 0; added < 2;) {
    const int u = static_cast<int>(NextRandom(&state->rng) % n);
    const int v = static_cast<int>(NextRandom(&state->rng) % n);
    if (u == v || graph->HasEdge(u, v)) continue;
    graph->AddEdge(u, v);
    state->added.emplace_back(u, v);
    ++added;
  }
  while (static_cast<int>(state->added.size()) > kMutationWindow) {
    graph->RemoveEdge(state->added.front().first, state->added.front().second);
    state->added.pop_front();
  }
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const auto& d : Defs()) out.push_back(d.name);
    return out;
  }();
  return names;
}

bool RunWorkload(const Options& options, Report* report) {
  const WorkloadDef* def = nullptr;
  for (const auto& d : Defs()) {
    if (options.workload == d.name) def = &d;
  }
  if (def == nullptr) return false;

  // The library reads effort and instrumentation knobs from the
  // environment; pin them so the caller's environment cannot change the
  // work measured. RGAE_KERNEL (the kernel ISA) stays a caller's choice:
  // the recorded ACC values are kept per ISA.
  setenv("RGAE_EPOCH_SCALE", kTableEpochScale, 1);
  for (const char* var : {"RGAE_TRIALS", "RGAE_TRIAL_DEADLINE_S",
                          "RGAE_TRIAL_RETRIES", "RGAE_OBS_ENABLED",
                          "RGAE_LOCKCHECK"}) {
    unsetenv(var);
  }
  rgae::obs::SetEnabled(false);

  HostProbe probe;

  // Set-up, several times; the last one's inputs are measured.
  Inputs in;
  std::vector<double> setup_s, build_ms, generate_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    in = Inputs();
    const Timed t = TimeUnit(&probe, [&] { def->setup(options.seed, &in); });
    setup_s.push_back(t.norm_s());
    build_ms.push_back(in.build_s / t.factor * 1e3);
    generate_ms.push_back(in.generate_s / t.factor * 1e3);
  }
  // No engine workers run beside the training segment and its reference
  // samples; the serving segment gets a new engine on the same snapshot.
  in.engine.reset();

  // Training segment. In a traced run every other unit records spans, so
  // the traced/untraced ratio measures the tracing overhead.
  const double train_budget = options.seconds * def->train_share;
  std::vector<double> epochs_rate, couples_rate, train_traced, train_plain;
  std::vector<Timed> train_units;
  int64_t trials = 0, trials_ok = 0, retries = 0, dropped = 0;
  auto add_trials = [&](const TrainUnitResult& r) {
    trials += r.trials;
    trials_ok += r.trials_ok;
    retries += r.retries;
    dropped += r.dropped;
  };
  // Failed output checks count as failed operations too.
  int64_t check_failures = 0;
  const double train_begin = NowSeconds();
  int64_t unit_epochs = 0;
  {
    const TrainUnitResult r =
        CountedUnit(*def, in, options.trace, &unit_epochs, report);
    add_trials(r);
    report->accs = r.accs;
  }
  probe.Sample();  // The first timed unit's bracket follows the counted unit.
  if (unit_epochs <= 0) {
    ++check_failures;
    report->problems.push_back("the counted training unit trained no epochs");
  }
  while (train_units.size() < kMinUnits ||
         NowSeconds() - train_begin < train_budget) {
    const bool traced = options.trace && train_units.size() % 2 == 0;
    SetSpansEnabled(traced);
    TrainUnitResult r;
    const Timed t = TimeUnit(&probe, [&] {
      Span span("unit.train");
      r = def->train_unit(in);
    });
    SetSpansEnabled(false);
    train_units.push_back(t);
    (traced ? train_traced : train_plain).push_back(t.norm_s());
    epochs_rate.push_back(static_cast<double>(unit_epochs) / t.norm_s());
    couples_rate.push_back(r.couples / t.norm_s());
    add_trials(r);
    if (r.accs != report->accs) {
      int64_t differing = 0;
      for (size_t i = 0; i < std::max(r.accs.size(), report->accs.size());
           ++i) {
        differing += i >= r.accs.size() || i >= report->accs.size() ||
                     r.accs[i] != report->accs[i];
      }
      check_failures += differing;
      report->problems.push_back(
          "timed training unit " + std::to_string(train_units.size() - 1) +
          " ACC differs from the counted unit (same inputs)");
    }
  }

  // Serving segment.
  in.engine = std::make_unique<rgae::serve::ServeEngine>(in.snapshot,
                                                         in.serve_options);
  ServeTally tally;
  rgae::AttributedGraph next = in.engine->CurrentGraph();
  MutationState ms = InitialMutationState(options.seed);
  uint64_t query_rng = options.seed ^ 0xC0FFEEULL;
  const double serve_budget = options.seconds - (NowSeconds() - train_begin);
  const double serve_begin = NowSeconds();
  std::vector<double> serve_traced, serve_plain;
  while (tally.units.size() < kMinUnits ||
         NowSeconds() - serve_begin < serve_budget) {
    const bool traced = options.trace && tally.units.size() % 2 == 0;
    SetSpansEnabled(traced);
    ServeUnit(def->serve_rounds, &in, &next, &ms, &query_rng, &probe, &tally);
    SetSpansEnabled(false);
    (traced ? serve_traced : serve_plain)
        .push_back(tally.units.back().norm_s());
  }
  const rgae::serve::ServeStats stats = in.engine->stats();
  const int64_t mismatches = CheckFinalEmbeddings(&in, &tally);
  const rgae::serve::ServeStats final_stats = in.engine->stats();
  check_failures += mismatches;
  if (mismatches != 0) {
    report->problems.push_back(
        std::to_string(mismatches) +
        " served embeddings differ from ForwardEngine::FullForward");
  }
  const rgae::serve::AdmissionStats& adm = final_stats.admission;
  const int64_t unsettled = std::abs(adm.offered - tally.submitted) +
                            std::abs(adm.settled() - adm.offered);
  check_failures += unsettled;
  if (unsettled != 0) {
    report->problems.push_back(
        "admission accounting: submitted " + std::to_string(tally.submitted) +
        ", offered " + std::to_string(final_stats.admission.offered) +
        ", settled " + std::to_string(final_stats.admission.settled()));
  }
  if (report->accs.empty()) report->problems.push_back("no trials ran");

  // End-to-end metrics.
  report->attempted = trials + tally.queries + tally.mutations;
  const int64_t ok = std::max<int64_t>(
      0, trials_ok + tally.queries_ok + tally.mutations_applied -
             check_failures);
  report->failed = report->attempted - ok;
  double acc_sum = 0.0;
  for (double a : report->accs) acc_sum += a;
  const double mean_acc =
      report->accs.empty() ? 0.0 : acc_sum / report->accs.size();
  const double peak_rss_mb = rgae::obs::ReadPeakRssBytes() / 1e6;

  if (!options.trace) {
    report->Add("setup_s", Median(setup_s), "s");
    report->Add("epochs_per_s", Median(epochs_rate), "1/s");
    report->Add("couples_per_s", Median(couples_rate), "1/s");
    report->Add("peak_rss_mb", peak_rss_mb, "MB");
    report->Add("ok_frac", static_cast<double>(ok) / report->attempted,
                "frac");
    report->Add("acc", mean_acc, "frac");
    report->Add("queries_per_s", Median(tally.unit_qps), "1/s");
    report->Add("mutate_ms_p50", Median(tally.mutate_ms), "ms");
  } else {
    std::vector<double> couple_ms;
    const auto spans = AnalyzeSpans();
    if (auto it = spans.find("eval.couple"); it != spans.end()) {
      couple_ms = it->second.durations_ms;
    }
    std::vector<double> unit_factors;
    for (const Timed& t : train_units) unit_factors.push_back(t.factor);
    report->Add("eval.couple_s_p50",
                Median(couple_ms) / Median(unit_factors) / 1e3, "s");
    report->Add("eval.retries", static_cast<double>(retries), "count");
    report->Add("eval.dropped", static_cast<double>(dropped), "count");
    const double q = static_cast<double>(stats.cache.hits + stats.cache.misses);
    report->Add("serve.cache_hit_frac", q > 0 ? stats.cache.hits / q : 0.0,
                "frac");
    const double batch_slots =
        static_cast<double>(stats.batches) * in.serve_options.max_batch;
    report->Add("serve.batch_fill",
                batch_slots > 0 ? stats.queries / batch_slots : 0.0, "frac");
    const double offered = static_cast<double>(stats.admission.offered);
    report->Add("serve.shed_frac",
                offered > 0 ? stats.admission.shed() / offered : 0.0, "frac");
    report->Add("serve.mutate_ms_p99", Quantile(tally.mutate_ms, 0.99), "ms");
    report->Add("serve.build_ms", Median(build_ms), "ms");
    report->Add("graph.generate_ms", Median(generate_ms), "ms");
    // Tracing overhead: traced over untraced unit time, per segment,
    // weighted by the segment's share of the run.
    auto ratio = [](const std::vector<double>& a,
                    const std::vector<double>& b) {
      return a.empty() || b.empty() ? 0.0 : Median(a) / Median(b) - 1.0;
    };
    const double overhead =
        def->train_share * ratio(train_traced, train_plain) +
        (1.0 - def->train_share) * ratio(serve_traced, serve_plain);
    report->Add("bench.trace_overhead_frac", overhead, "frac");
    RunLayerProbes(options, &in, &probe, report);
    report->Add("bench.host_factor_iqr", RelativeIqr(probe.factors()), "frac");
    JsonValue self_ms = JsonValue::MakeObject();
    for (const auto& [name, s] : AnalyzeSpans()) {
      JsonValue entry = JsonValue::MakeObject();
      entry.Set("calls", JsonValue(static_cast<long long>(s.calls)));
      entry.Set("total_ms", JsonValue(s.total_ms));
      entry.Set("self_ms", JsonValue(s.self_ms));
      self_ms.Set(name, std::move(entry));
    }
    report->detail.Set("spans", std::move(self_ms));
    std::string error;
    if (!options.trace_out.empty() && !WriteTrace(options.trace_out, &error)) {
      report->problems.push_back("trace not written: " + error);
    }
  }

  // Raw timings and host factors, printed beside the metrics, never gated.
  JsonValue& d = report->detail;
  std::vector<double> raw_train, raw_serve, f_train, f_serve;
  for (const Timed& t : train_units) {
    raw_train.push_back(t.raw_s);
    f_train.push_back(t.factor);
  }
  for (const Timed& t : tally.units) {
    raw_serve.push_back(t.raw_s);
    f_serve.push_back(t.factor);
  }
  d.Set("train_unit_raw_s", NumberArray(raw_train));
  d.Set("train_unit_host_factor", NumberArray(f_train));
  d.Set("serve_unit_raw_s", NumberArray(raw_serve));
  d.Set("serve_unit_host_factor", NumberArray(f_serve));
  d.Set("setup_norm_s", NumberArray(setup_s));
  d.Set("mutate_samples",
        JsonValue(static_cast<long long>(tally.mutate_ms.size())));
  d.Set("query_samples", JsonValue(static_cast<long long>(tally.queries)));
  d.Set("host_factor_median", JsonValue(Median(probe.factors())));
  d.Set("train_host_factor_median", JsonValue(Median(f_train)));
  d.Set("serve_host_factor_median", JsonValue(Median(f_serve)));
  d.Set("unit_epochs", JsonValue(static_cast<long long>(unit_epochs)));
  d.Set("trials", JsonValue(static_cast<long long>(trials)));
  d.Set("acc_values", NumberArray(report->accs));
  return true;
}

}  // namespace perfbench
