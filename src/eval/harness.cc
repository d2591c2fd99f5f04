#include "src/eval/harness.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdlib>

#include "src/obs/log.h"
#include "src/obs/trace.h"

namespace rgae {

namespace {

// Raw timing: trial wall-clock is a product field on TrialOutcome, not an
// obs span (R8 opt-out).
double Seconds(std::chrono::steady_clock::time_point begin) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       begin)  // Raw timing: see above.
      .count();
}

int ScaledEpochs(int epochs) {
  const double scale = EpochScaleFromEnv();
  return std::max(1, static_cast<int>(epochs * scale));
}

// Copies the train result plus its failure state into a trial outcome, so
// AggregateTrials can exclude failed runs instead of poisoning the table.
TrialOutcome MakeOutcome(TrainResult result) {
  TrialOutcome outcome;
  outcome.failed = result.failed;
  outcome.failure_reason = result.failure_reason;
  outcome.timed_out = result.timed_out;
  outcome.scores = result.scores;
  outcome.seconds = result.cluster_seconds;
  outcome.result = std::move(result);
  return outcome;
}

// An attempt's outcome is usable when the run neither gave up numerically
// nor ran out of wall clock; anything else climbs the ladder.
bool AttemptOk(const TrialOutcome& outcome) {
  return !outcome.failed && !outcome.timed_out;
}

int ScaleEpochs(int epochs, double fraction) {
  return std::max(1, static_cast<int>(epochs * fraction));
}

// Trainer options of ladder attempt `attempt` (0 = the original run):
// deterministically perturbed seed, a fresh per-attempt deadline, and — on
// the degraded rung — reduced epoch counts.
TrainerOptions AttemptTrainerOptions(const TrainerOptions& base,
                                     const TrialPolicy& policy, int attempt,
                                     bool degraded) {
  TrainerOptions t = base;
  t.seed = base.seed + static_cast<uint64_t>(attempt) * kSeedPerturbation;
  t.deadline = Deadline::After(policy.deadline_seconds);
  if (degraded) {
    t.pretrain_epochs = ScaleEpochs(t.pretrain_epochs, kDegradedEpochFraction);
    t.max_cluster_epochs =
        ScaleEpochs(t.max_cluster_epochs, kDegradedEpochFraction);
    // The first-group transform start scales with its phase so the R-model
    // protocol keeps the same shape inside the shrunken schedule.
    t.first_group_transform_start = static_cast<int>(
        t.first_group_transform_start * kDegradedEpochFraction);
  }
  return t;
}

// Stamps the ladder accounting onto the outcome that leaves the ladder.
void StampLadder(TrialOutcome* outcome, int retries, bool degraded) {
  outcome->retries = retries;
  outcome->degraded = degraded;
}

// Final rung: the trial is dropped with a structured reason naming every
// rung it burned through (an active ladder always ends on the degraded one).
void DropTrial(TrialOutcome* outcome, int attempts, int trial_id) {
  const std::string cause = outcome->timed_out
                                ? "deadline exceeded"
                                : (outcome->failure_reason.empty()
                                       ? "run failed"
                                       : outcome->failure_reason);
  outcome->failed = true;
  outcome->failure_reason =
      "dropped after " + std::to_string(attempts) +
      " attempt(s) incl. degraded mode: " + cause;
  RGAE_COUNT("harness.dropped_trials");
  RGAE_LOG(kError)
      .Event("harness.trial_dropped")
      .Field("trial", trial_id)
      .Field("attempts", attempts)
      .Field("timed_out", outcome->timed_out)
      .Msg(outcome->failure_reason);
}

}  // namespace

TrialPolicy TrialPolicyFromEnv(TrialPolicy defaults) {
  if (const char* env = std::getenv("RGAE_TRIAL_DEADLINE_S")) {
    const double v = std::atof(env);
    if (v > 0.0) defaults.deadline_seconds = v;
  }
  if (const char* env = std::getenv("RGAE_TRIAL_RETRIES")) {
    const int v = std::atoi(env);
    if (v >= 0) defaults.max_retries = v;
  }
  return defaults;
}

int NumTrialsFromEnv(int default_trials) {
  const char* env = std::getenv("RGAE_TRIALS");
  if (env == nullptr) return default_trials;
  const int v = std::atoi(env);
  return v > 0 ? v : default_trials;
}

double EpochScaleFromEnv() {
  const char* env = std::getenv("RGAE_EPOCH_SCALE");
  if (env == nullptr) return 1.0;
  const double v = std::atof(env);
  return v > 0.0 ? v : 1.0;
}

CoupleConfig MakeCoupleConfig(const std::string& model_name,
                              const std::string& dataset, uint64_t seed) {
  CoupleConfig config;
  config.model_name = model_name;
  config.dataset = dataset;
  config.model_options.seed = seed;

  TrainerOptions t;
  // Variational encoders need roughly twice the pretraining budget to
  // reach a comparable embedding quality (the sampling path is noisy).
  const bool variational = model_name == "VGAE" || model_name == "ARVGAE" ||
                           model_name == "GMM-VGAE";
  t.pretrain_epochs = ScaledEpochs(variational ? 200 : 100);
  t.max_cluster_epochs = ScaledEpochs(150);
  t.num_clusters = DatasetClusters(dataset);
  t.seed = seed * 2654435761ULL + 17;

  const RHyperParams rp = GetRHyperParams(dataset, model_name);
  config.base = t;
  config.base.use_operators = false;

  config.rvariant = t;
  config.rvariant.use_operators = true;
  config.rvariant.xi.alpha1 = rp.alpha1;
  config.rvariant.m1 = rp.m1;
  config.rvariant.m2 = rp.m2;
  // First-group models transform the reconstruction target during the
  // second half of pretraining.
  config.rvariant.first_group_transform_start = t.pretrain_epochs / 2;
  return config;
}

TrialOutcome RunSingle(const std::string& model_name,
                       const AttributedGraph& graph,
                       const ModelOptions& model_options,
                       const TrainerOptions& trainer) {
  std::unique_ptr<GaeModel> model =
      CreateModel(model_name, graph, model_options);
  assert(model != nullptr);
  RGaeTrainer t(model.get(), trainer);
  return MakeOutcome(t.Run());
}

CoupleOutcome RunCouple(const CoupleConfig& config,
                        const AttributedGraph& graph) {
  CoupleOutcome outcome;
  std::unique_ptr<GaeModel> base_model =
      CreateModel(config.model_name, graph, config.model_options);
  assert(base_model != nullptr);

  if (base_model->has_clustering_head()) {
    // Second group: pretrain once, share the weights, run both clustering
    // phases from the identical checkpoint. A failed shared pretrain fails
    // both halves of the couple.
    RGaeTrainer base_trainer(base_model.get(), config.base);
    const auto pre_begin = std::chrono::steady_clock::now();  // Raw timing: phase clock.
    const bool pretrain_ok = base_trainer.Pretrain();
    const double pretrain_seconds = Seconds(pre_begin);
    const std::vector<Matrix> weights = base_model->SaveWeights();

    outcome.base = MakeOutcome(base_trainer.TrainClustering());
    outcome.base.result.pretrain_seconds = pretrain_seconds;

    std::unique_ptr<GaeModel> r_model =
        CreateModel(config.model_name, graph, config.model_options);
    r_model->LoadWeights(weights);
    RGaeTrainer r_trainer(r_model.get(), config.rvariant);
    outcome.rmodel = MakeOutcome(r_trainer.TrainClustering());
    outcome.rmodel.result.pretrain_seconds = pretrain_seconds;
    if (!pretrain_ok) {
      outcome.rmodel.failed = true;
      outcome.rmodel.failure_reason =
          "shared pretrain failed: " + base_trainer.failure_reason();
    }
  } else {
    // First group: the operators act during pretraining, so the couple
    // shares the initial weights (same model seed) and the identical plain
    // prefix of the pretraining schedule.
    RGaeTrainer base_trainer(base_model.get(), config.base);
    outcome.base = MakeOutcome(base_trainer.Run());
    outcome.base.seconds = outcome.base.result.pretrain_seconds;

    std::unique_ptr<GaeModel> r_model =
        CreateModel(config.model_name, graph, config.model_options);
    RGaeTrainer r_trainer(r_model.get(), config.rvariant);
    outcome.rmodel = MakeOutcome(r_trainer.Run());
    outcome.rmodel.seconds = outcome.rmodel.result.pretrain_seconds;
  }
  return outcome;
}

TrialOutcome RunSingleWithPolicy(const std::string& model_name,
                                 const AttributedGraph& graph,
                                 const ModelOptions& model_options,
                                 const TrainerOptions& trainer,
                                 const TrialPolicy& policy) {
  TrialOutcome outcome;
  int attempt = 0;
  for (; attempt <= policy.max_retries; ++attempt) {
    ModelOptions m = model_options;
    m.seed += static_cast<uint64_t>(attempt) * kSeedPerturbation;
    const TrainerOptions t =
        AttemptTrainerOptions(trainer, policy, attempt, /*degraded=*/false);
    outcome = RunSingle(model_name, graph, m, t);
    if (AttemptOk(outcome) || GlobalStopRequested()) {
      StampLadder(&outcome, attempt, /*degraded=*/false);
      return outcome;
    }
    // An inert ladder passes the outcome through untouched, so unconfigured
    // benches behave exactly as without one.
    if (!policy.active()) return outcome;
    RGAE_COUNT("harness.retries");
    RGAE_LOG(kWarn)
        .Event("harness.trial_retry")
        .Field("trial", trainer.trial_id)
        .Field("attempt", attempt)
        .Field("timed_out", outcome.timed_out)
        .Msg(outcome.failure_reason.empty() ? "attempt failed; retrying"
                                            : outcome.failure_reason);
  }
  // Only an active ladder gets here: the degraded rung.
  ModelOptions m = model_options;
  m.seed += static_cast<uint64_t>(attempt) * kSeedPerturbation;
  const TrainerOptions t =
      AttemptTrainerOptions(trainer, policy, attempt, /*degraded=*/true);
  outcome = RunSingle(model_name, graph, m, t);
  StampLadder(&outcome, attempt, /*degraded=*/true);
  if (AttemptOk(outcome) || GlobalStopRequested()) {
    RGAE_COUNT("harness.degraded_runs");
    return outcome;
  }
  DropTrial(&outcome, attempt + 1, trainer.trial_id);
  return outcome;
}

CoupleOutcome RunCoupleWithPolicy(const CoupleConfig& config,
                                  const AttributedGraph& graph,
                                  const TrialPolicy& policy) {
  // The couple climbs the ladder as a unit: both halves re-run under the
  // same perturbed seed, keeping the shared-pretrain comparison honest.
  auto attempt_config = [&](int attempt, bool degraded) {
    CoupleConfig c = config;
    c.model_options.seed += static_cast<uint64_t>(attempt) * kSeedPerturbation;
    c.base = AttemptTrainerOptions(config.base, policy, attempt, degraded);
    c.rvariant =
        AttemptTrainerOptions(config.rvariant, policy, attempt, degraded);
    return c;
  };
  auto couple_ok = [](const CoupleOutcome& o) {
    return AttemptOk(o.base) && AttemptOk(o.rmodel);
  };

  CoupleOutcome outcome;
  int attempt = 0;
  for (; attempt <= policy.max_retries; ++attempt) {
    outcome = RunCouple(attempt_config(attempt, /*degraded=*/false), graph);
    if (couple_ok(outcome) || GlobalStopRequested()) {
      StampLadder(&outcome.base, attempt, /*degraded=*/false);
      StampLadder(&outcome.rmodel, attempt, /*degraded=*/false);
      return outcome;
    }
    // Inert ladder: pass failures through untouched (see RunSingleWithPolicy).
    if (!policy.active()) return outcome;
    RGAE_COUNT("harness.retries");
    RGAE_LOG(kWarn)
        .Event("harness.couple_retry")
        .Field("trial", config.base.trial_id)
        .Field("attempt", attempt)
        .Field("base_ok", AttemptOk(outcome.base))
        .Field("rmodel_ok", AttemptOk(outcome.rmodel))
        .Msg("couple attempt failed; retrying both halves");
  }
  // Only an active ladder gets here: the degraded rung.
  outcome = RunCouple(attempt_config(attempt, /*degraded=*/true), graph);
  StampLadder(&outcome.base, attempt, /*degraded=*/true);
  StampLadder(&outcome.rmodel, attempt, /*degraded=*/true);
  if (couple_ok(outcome) || GlobalStopRequested()) {
    RGAE_COUNT("harness.degraded_runs");
    return outcome;
  }
  // Only the halves that are actually unusable get dropped; a healthy half
  // of a partially-failed couple still feeds its table column.
  if (!AttemptOk(outcome.base)) {
    DropTrial(&outcome.base, attempt + 1, config.base.trial_id);
  }
  if (!AttemptOk(outcome.rmodel)) {
    DropTrial(&outcome.rmodel, attempt + 1, config.rvariant.trial_id);
  }
  return outcome;
}

Aggregate AggregateTrials(const std::vector<TrialOutcome>& trials) {
  Aggregate agg;
  std::vector<const TrialOutcome*> alive;
  alive.reserve(trials.size());
  for (const TrialOutcome& t : trials) {
    if (t.timed_out) ++agg.timed_out_trials;
    if (t.retries > 0) ++agg.retried_trials;
    if (t.degraded) ++agg.degraded_trials;
    if (t.failed) {
      ++agg.dropped_trials;
    } else {
      alive.push_back(&t);
    }
  }
  if (agg.dropped_trials > 0) {
    // The first failure reason names the concrete cause; trial ids of all
    // dropped runs go into their own field so tables stay attributable.
    std::string dropped_ids;
    std::string first_reason;
    for (size_t i = 0; i < trials.size(); ++i) {
      if (!trials[i].failed) continue;
      if (!dropped_ids.empty()) dropped_ids += ",";
      dropped_ids += std::to_string(i);
      if (first_reason.empty()) first_reason = trials[i].failure_reason;
    }
    RGAE_LOG(kWarn)
        .Event("aggregate.dropped_trials")
        .Field("dropped", agg.dropped_trials)
        .Field("total", static_cast<long long>(trials.size()))
        .Field("survivors", static_cast<long long>(alive.size()))
        .Field("trials", dropped_ids)
        .Msg(first_reason);
  }
  agg.num_trials = static_cast<int>(alive.size());
  if (alive.empty()) return agg;  // Zeroed aggregate, never NaN.

  const TrialOutcome* best = alive[0];
  for (const TrialOutcome* t : alive) {
    if (t->scores.acc > best->scores.acc) best = t;
  }
  agg.best = best->scores;
  agg.best_seconds = alive[0]->seconds;
  double sum_acc = 0.0, sum_nmi = 0.0, sum_ari = 0.0, sum_sec = 0.0;
  for (const TrialOutcome* t : alive) {
    sum_acc += t->scores.acc;
    sum_nmi += t->scores.nmi;
    sum_ari += t->scores.ari;
    sum_sec += t->seconds;
    agg.best_seconds = std::min(agg.best_seconds, t->seconds);
    agg.trial_seconds.push_back(t->seconds);
  }
  const double n = static_cast<double>(alive.size());
  agg.mean = {sum_acc / n, sum_nmi / n, sum_ari / n};
  agg.mean_seconds = sum_sec / n;
  if (alive.size() < 2) return agg;  // Stddev of one trial is zero.
  double var_acc = 0.0, var_nmi = 0.0, var_ari = 0.0, var_sec = 0.0;
  for (const TrialOutcome* t : alive) {
    var_acc += (t->scores.acc - agg.mean.acc) * (t->scores.acc - agg.mean.acc);
    var_nmi += (t->scores.nmi - agg.mean.nmi) * (t->scores.nmi - agg.mean.nmi);
    var_ari += (t->scores.ari - agg.mean.ari) * (t->scores.ari - agg.mean.ari);
    var_sec +=
        (t->seconds - agg.mean_seconds) * (t->seconds - agg.mean_seconds);
  }
  agg.stddev = {std::sqrt(var_acc / n), std::sqrt(var_nmi / n),
                std::sqrt(var_ari / n)};
  agg.var_seconds = var_sec / n;
  return agg;
}

}  // namespace rgae
