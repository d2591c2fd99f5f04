#include "src/core/deadline.h"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "src/core/fault_injection.h"
#include "src/core/rgae_trainer.h"
#include "src/eval/harness.h"
#include "src/graph/generators.h"
#include "src/models/model_factory.h"

namespace rgae {
namespace {

AttributedGraph TinyGraph(uint64_t seed = 1) {
  CitationLikeOptions o;
  o.num_nodes = 70;
  o.num_clusters = 3;
  o.feature_dim = 50;
  o.topic_words = 14;
  o.intra_degree = 4.0;
  o.inter_degree = 0.5;
  Rng rng(seed);
  return MakeCitationLike(o, rng);
}

ModelOptions TinyModelOptions() {
  ModelOptions o;
  o.hidden_dim = 12;
  o.latent_dim = 6;
  o.seed = 5;
  return o;
}

TrainerOptions TinyTrainerOptions() {
  TrainerOptions t;
  t.pretrain_epochs = 8;
  t.max_cluster_epochs = 4;
  t.m1 = 2;
  t.m2 = 2;
  t.seed = 11;
  return t;
}

// ---------------------------------------------------------------------------
// Deadline unit tests.

TEST(DeadlineTest, DefaultIsUnlimited) {
  const Deadline d;
  EXPECT_TRUE(d.unlimited());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.remaining_seconds(),
            std::numeric_limits<double>::infinity());
}

TEST(DeadlineTest, NonPositiveBudgetMeansUnlimited) {
  EXPECT_TRUE(Deadline::After(0.0).unlimited());
  EXPECT_TRUE(Deadline::After(-3.5).unlimited());
  EXPECT_TRUE(Deadline::Unlimited().unlimited());
}

TEST(DeadlineTest, ExpiresAfterBudgetElapses) {
  const Deadline d = Deadline::After(1e-4);
  EXPECT_FALSE(d.unlimited());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining_seconds(), 0.0);  // Clamped, never negative.
}

TEST(DeadlineTest, RemainingSecondsBoundedByBudget) {
  const Deadline d = Deadline::After(60.0);
  EXPECT_FALSE(d.expired());
  const double remaining = d.remaining_seconds();
  EXPECT_GT(remaining, 0.0);
  EXPECT_LE(remaining, 60.0);
}

TEST(GlobalStopTest, RequestSetsAndClearResets) {
  ClearGlobalStop();
  EXPECT_FALSE(GlobalStopRequested());
  RequestGlobalStop();
  EXPECT_TRUE(GlobalStopRequested());
  ClearGlobalStop();
  EXPECT_FALSE(GlobalStopRequested());
}

// ---------------------------------------------------------------------------
// The trainer honours its deadline at epoch boundaries.

TEST(TrainerDeadlineTest, ExpiredDeadlineTimesOutNotFails) {
  ClearGlobalStop();
  const AttributedGraph g = TinyGraph();
  auto model = CreateModel("GAE", g, TinyModelOptions());
  TrainerOptions opts = TinyTrainerOptions();
  opts.deadline = Deadline::After(1e-6);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  RGaeTrainer trainer(model.get(), opts);
  const TrainResult r = trainer.Run();
  EXPECT_TRUE(r.timed_out);
  EXPECT_FALSE(r.failed);
  EXPECT_TRUE(r.trace.empty());  // Stopped at the very first boundary.
  // A timed-out trial still yields a finite partial-state evaluation.
  EXPECT_TRUE(std::isfinite(r.scores.acc));
}

TEST(TrainerDeadlineTest, GlobalStopBehavesLikeTimeout) {
  const AttributedGraph g = TinyGraph();
  auto model = CreateModel("GAE", g, TinyModelOptions());
  RGaeTrainer trainer(model.get(), TinyTrainerOptions());
  RequestGlobalStop();
  const TrainResult r = trainer.Run();
  ClearGlobalStop();
  EXPECT_TRUE(r.timed_out);
  EXPECT_FALSE(r.failed);
  EXPECT_TRUE(r.trace.empty());
}

TEST(TrainerDeadlineTest, SlowEpochFaultDrivesDeadline) {
  ClearGlobalStop();
  const AttributedGraph g = TinyGraph();
  auto model = CreateModel("GAE", g, TinyModelOptions());
  FaultEvent e;
  e.type = FaultEvent::Type::kSlowEpoch;
  e.epoch = 0;
  e.pretrain = true;
  e.once = false;
  e.magnitude = 80.0;  // 80 ms stall against a 40 ms budget.
  FaultInjector injector({e}, /*seed=*/42);
  TrainerOptions opts = TinyTrainerOptions();
  opts.fault_injector = &injector;
  opts.deadline = Deadline::After(0.04);
  RGaeTrainer trainer(model.get(), opts);
  const TrainResult r = trainer.Run();
  EXPECT_GE(injector.faults_fired(), 1);
  EXPECT_TRUE(r.timed_out);
  EXPECT_FALSE(r.failed);
  // The stalled epoch itself completed; the boundary after it stopped.
  EXPECT_LT(static_cast<int>(r.trace.size()),
            opts.pretrain_epochs + opts.max_cluster_epochs);
}

// ---------------------------------------------------------------------------
// The harness retry ladder (RunSingleWithPolicy).

TEST(TrialLadderTest, RetryRecoversFromTransientFault) {
  ClearGlobalStop();
  const AttributedGraph g = TinyGraph();
  // A one-shot NaN with a zero rollback budget: attempt 0 fails and
  // consumes the fault, so the ladder's first full retry runs clean.
  FaultEvent e;
  e.type = FaultEvent::Type::kNanWeight;
  e.epoch = 2;
  e.pretrain = true;
  FaultInjector injector({e}, /*seed=*/42);
  TrainerOptions opts = TinyTrainerOptions();
  opts.resilience.enabled = true;
  opts.resilience.max_rollbacks = 0;
  opts.fault_injector = &injector;

  TrialPolicy policy;
  policy.max_retries = 2;
  const TrialOutcome out =
      RunSingleWithPolicy("GAE", g, TinyModelOptions(), opts, policy);
  EXPECT_FALSE(out.failed) << out.failure_reason;
  EXPECT_FALSE(out.timed_out);
  EXPECT_EQ(out.retries, 1);
  EXPECT_FALSE(out.degraded);
  EXPECT_EQ(injector.faults_fired(), 1);
}

TEST(TrialLadderTest, DegradedRungRescuesChronicallySlowTrial) {
  ClearGlobalStop();
  const AttributedGraph g = TinyGraph();
  // A persistent stall at pretrain epoch 4 blows every full-length
  // attempt's 150 ms budget; the degraded rung (25% of 8 = 2 pretrain
  // epochs) never reaches the stalled epoch and completes in budget.
  FaultEvent e;
  e.type = FaultEvent::Type::kSlowEpoch;
  e.epoch = 4;
  e.pretrain = true;
  e.once = false;
  e.magnitude = 300.0;
  FaultInjector injector({e}, /*seed=*/42);
  TrainerOptions opts = TinyTrainerOptions();
  opts.fault_injector = &injector;

  TrialPolicy policy;
  policy.deadline_seconds = 0.15;
  policy.max_retries = 1;
  ASSERT_EQ(kDegradedEpochFraction, 0.25);
  const TrialOutcome out =
      RunSingleWithPolicy("GAE", g, TinyModelOptions(), opts, policy);
  EXPECT_FALSE(out.failed) << out.failure_reason;
  EXPECT_FALSE(out.timed_out);
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.retries, 2);  // Two full attempts burned before the rescue.
  EXPECT_EQ(out.result.scores.acc, out.scores.acc);
}

TEST(TrialLadderTest, ExhaustedLadderDropsWithStructuredReason) {
  ClearGlobalStop();
  const AttributedGraph g = TinyGraph();
  FaultEvent e;
  e.type = FaultEvent::Type::kNanWeight;
  e.epoch = 0;  // Epoch 0: even the shrunken degraded schedule hits it.
  e.pretrain = true;
  e.once = false;  // Re-fires on every attempt: unrecoverable.
  FaultInjector injector({e}, /*seed=*/42);
  TrainerOptions opts = TinyTrainerOptions();
  opts.resilience.enabled = true;
  opts.resilience.max_rollbacks = 0;
  opts.fault_injector = &injector;

  TrialPolicy policy;
  policy.max_retries = 1;
  const TrialOutcome out =
      RunSingleWithPolicy("GAE", g, TinyModelOptions(), opts, policy);
  EXPECT_TRUE(out.failed);
  EXPECT_NE(out.failure_reason.find("dropped after 3 attempt(s)"),
            std::string::npos)
      << out.failure_reason;
  EXPECT_NE(out.failure_reason.find("incl. degraded mode"),
            std::string::npos)
      << out.failure_reason;
  EXPECT_TRUE(out.degraded);  // The last rung it reached is on record.
}

TEST(TrialLadderTest, InertPolicyPassesFailureThroughUntouched) {
  ClearGlobalStop();
  const AttributedGraph g = TinyGraph();
  FaultEvent e;
  e.type = FaultEvent::Type::kNanWeight;
  e.epoch = 2;
  e.pretrain = true;
  e.once = false;
  FaultInjector injector({e}, /*seed=*/42);
  TrainerOptions opts = TinyTrainerOptions();
  opts.resilience.enabled = true;
  opts.resilience.max_rollbacks = 0;
  opts.fault_injector = &injector;

  const TrialPolicy inert;
  ASSERT_FALSE(inert.active());
  const TrialOutcome out =
      RunSingleWithPolicy("GAE", g, TinyModelOptions(), opts, inert);
  EXPECT_TRUE(out.failed);
  // The trainer's own reason survives; no ladder wrapper, no extra runs.
  EXPECT_EQ(out.failure_reason.find("dropped after"), std::string::npos)
      << out.failure_reason;
  EXPECT_FALSE(out.failure_reason.empty());
  EXPECT_EQ(out.retries, 0);
  EXPECT_FALSE(out.degraded);
  EXPECT_EQ(injector.faults_fired(), 1);  // Exactly one attempt ran.
}

TEST(TrialLadderTest, SucceedingTrialNeverClimbsTheLadder) {
  ClearGlobalStop();
  const AttributedGraph g = TinyGraph();
  TrialPolicy policy;
  policy.max_retries = 2;
  const TrialOutcome out = RunSingleWithPolicy(
      "GAE", g, TinyModelOptions(), TinyTrainerOptions(), policy);
  EXPECT_FALSE(out.failed) << out.failure_reason;
  EXPECT_EQ(out.retries, 0);
  EXPECT_FALSE(out.degraded);
}

// ---------------------------------------------------------------------------
// The couple ladder (RunCoupleWithPolicy).

CoupleConfig TinyCouple(const std::string& model) {
  CoupleConfig c;
  c.model_name = model;
  c.dataset = "Cora";
  c.model_options = TinyModelOptions();
  c.base = TinyTrainerOptions();
  c.rvariant = TinyTrainerOptions();
  c.rvariant.use_operators = true;
  c.rvariant.xi.alpha1 = 0.2;
  return c;
}

TEST(TrialLadderTest, CoupleDropsOnlyItsChronicallyFailingHalf) {
  ClearGlobalStop();
  const AttributedGraph g = TinyGraph();
  // A persistent NaN at pretrain epoch 0 of the R half only: every attempt
  // of it fails, the degraded rung included, while the base half is clean.
  FaultEvent e;
  e.type = FaultEvent::Type::kNanWeight;
  e.epoch = 0;
  e.pretrain = true;
  e.once = false;
  FaultInjector injector({e}, /*seed=*/42);
  CoupleConfig c = TinyCouple("GAE");
  c.rvariant.resilience.enabled = true;
  c.rvariant.resilience.max_rollbacks = 0;
  c.rvariant.fault_injector = &injector;

  TrialPolicy policy;
  policy.max_retries = 1;
  const CoupleOutcome out = RunCoupleWithPolicy(c, g, policy);
  // The couple climbs as a unit: both halves burned the same rungs.
  EXPECT_EQ(out.base.retries, 2);
  EXPECT_EQ(out.rmodel.retries, out.base.retries);
  EXPECT_TRUE(out.base.degraded);
  EXPECT_EQ(out.rmodel.degraded, out.base.degraded);
  EXPECT_EQ(injector.faults_fired(), 3);  // One per attempt.
  // Only the failing half is dropped; the healthy one keeps its column.
  EXPECT_FALSE(out.base.failed) << out.base.failure_reason;
  EXPECT_TRUE(out.rmodel.failed);
  EXPECT_NE(out.rmodel.failure_reason.find("dropped after 3 attempt(s)"),
            std::string::npos)
      << out.rmodel.failure_reason;
}

TEST(TrialLadderTest, InertPolicyPassesFailedSharedPretrainThrough) {
  ClearGlobalStop();
  const AttributedGraph g = TinyGraph();
  // DGAE pretrains once for both halves; a persistent NaN there fails the
  // shared pretrain and with it the whole couple.
  FaultEvent e;
  e.type = FaultEvent::Type::kNanWeight;
  e.epoch = 2;
  e.pretrain = true;
  e.once = false;
  FaultInjector injector({e}, /*seed=*/42);
  CoupleConfig c = TinyCouple("DGAE");
  c.base.resilience.enabled = true;
  c.base.resilience.max_rollbacks = 0;
  c.base.fault_injector = &injector;

  const TrialPolicy inert;
  ASSERT_FALSE(inert.active());
  const CoupleOutcome out = RunCoupleWithPolicy(c, g, inert);
  EXPECT_TRUE(out.base.failed);
  EXPECT_TRUE(out.rmodel.failed);
  EXPECT_NE(out.rmodel.failure_reason.find("shared pretrain failed"),
            std::string::npos)
      << out.rmodel.failure_reason;
  // No ladder wrapper and no retry: exactly one attempt ran.
  for (const TrialOutcome* half : {&out.base, &out.rmodel}) {
    EXPECT_EQ(half->failure_reason.find("dropped after"), std::string::npos)
        << half->failure_reason;
    EXPECT_EQ(half->retries, 0);
    EXPECT_FALSE(half->degraded);
  }
  EXPECT_EQ(injector.faults_fired(), 1);
}

// ---------------------------------------------------------------------------
// Policy configuration and aggregate accounting.

TEST(TrialPolicyTest, EnvOverridesApply) {
  setenv("RGAE_TRIAL_DEADLINE_S", "1.5", 1);
  setenv("RGAE_TRIAL_RETRIES", "4", 1);
  const TrialPolicy p = TrialPolicyFromEnv();
  EXPECT_DOUBLE_EQ(p.deadline_seconds, 1.5);
  EXPECT_EQ(p.max_retries, 4);
  unsetenv("RGAE_TRIAL_DEADLINE_S");
  unsetenv("RGAE_TRIAL_RETRIES");
}

TEST(TrialPolicyTest, DefaultsSurviveUnsetAndInvalidEnv) {
  unsetenv("RGAE_TRIAL_DEADLINE_S");
  unsetenv("RGAE_TRIAL_RETRIES");
  TrialPolicy defaults;
  defaults.deadline_seconds = 2.0;
  defaults.max_retries = 1;
  TrialPolicy p = TrialPolicyFromEnv(defaults);
  EXPECT_DOUBLE_EQ(p.deadline_seconds, 2.0);
  EXPECT_EQ(p.max_retries, 1);

  setenv("RGAE_TRIAL_DEADLINE_S", "-3", 1);
  setenv("RGAE_TRIAL_RETRIES", "-1", 1);
  p = TrialPolicyFromEnv(defaults);
  EXPECT_DOUBLE_EQ(p.deadline_seconds, 2.0);
  EXPECT_EQ(p.max_retries, 1);
  unsetenv("RGAE_TRIAL_DEADLINE_S");
  unsetenv("RGAE_TRIAL_RETRIES");
}

TEST(AggregateTest, CountsLadderOutcomes) {
  std::vector<TrialOutcome> trials(4);
  trials[0].scores = {0.8, 0.7, 0.6};  // Clean first-attempt success.
  trials[1].scores = {0.7, 0.6, 0.5};  // Succeeded on a retry.
  trials[1].retries = 1;
  trials[2].scores = {0.6, 0.5, 0.4};  // Rescued by the degraded rung.
  trials[2].retries = 2;
  trials[2].degraded = true;
  trials[3].failed = true;             // Dropped: timed out all the way down.
  trials[3].timed_out = true;
  trials[3].retries = 2;
  trials[3].degraded = true;
  trials[3].failure_reason = "dropped after 3 attempt(s): deadline exceeded";

  const Aggregate agg = AggregateTrials(trials);
  EXPECT_EQ(agg.num_trials, 3);
  EXPECT_EQ(agg.dropped_trials, 1);
  EXPECT_EQ(agg.timed_out_trials, 1);
  EXPECT_EQ(agg.retried_trials, 3);
  EXPECT_EQ(agg.degraded_trials, 2);
  EXPECT_DOUBLE_EQ(agg.best.acc, 0.8);  // The dropped trial never competes.
}

}  // namespace
}  // namespace rgae
