#ifndef RGAE_CORE_FAULT_INJECTION_H_
#define RGAE_CORE_FAULT_INJECTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/tensor/random.h"
#include "src/util/sync.h"

namespace rgae {

class GaeModel;

/// One scheduled fault. Faults fire just before the training step of the
/// matching (phase, epoch); which weight entries they hit is drawn from the
/// injector's seeded RNG, so runs reproduce bit-identically.
struct FaultEvent {
  enum class Type {
    /// Overwrite one randomly chosen weight entry with NaN.
    kNanWeight,
    /// Multiply the optimizer's learning rate by `magnitude` (the spike
    /// persists until a rollback restores the checkpointed rate).
    kLrSpike,
    /// Add `magnitude`-scaled random noise to one parameter block, the
    /// footprint of a corrupted gradient having been applied.
    kCorruptGradient,
    /// Stall the epoch for `magnitude` milliseconds of wall time, the
    /// footprint of a hung data source or an overloaded machine. Drives
    /// the trainer's per-trial `Deadline` deterministically in tests:
    /// a persistent slow-epoch fault times out every full-length attempt
    /// while a reduced-epoch "degraded" retry never reaches the stalled
    /// epoch and completes in budget.
    kSlowEpoch,
  };

  Type type = Type::kNanWeight;
  /// Epoch within the phase at which the fault fires.
  int epoch = 0;
  /// Fire during pretraining (true) or the clustering phase (false).
  bool pretrain = false;
  /// Strength of the fault (LR multiplier / noise scale).
  double magnitude = 1e3;
  /// One-shot faults are consumed by their first firing, so a rolled-back
  /// run passes the epoch cleanly on retry. Persistent faults (`once ==
  /// false`) re-fire on every pass and make the run unrecoverable.
  bool once = true;
};

/// Human-readable name of a fault type ("nan-weight", ...).
const char* FaultTypeName(FaultEvent::Type type);

/// Deterministic, seed-driven fault injector used by the resilience tests
/// and `bench_robust_training` to prove each recovery path fires. Attach
/// one via `TrainerOptions::fault_injector`; the trainer calls `Apply`
/// before every training step.
class FaultInjector {
 public:
  FaultInjector(std::vector<FaultEvent> events, uint64_t seed);

  /// Applies every event scheduled for (phase, epoch) to the model.
  /// Returns the number of faults that fired.
  int Apply(bool pretrain, int epoch, GaeModel* model);

  /// Total number of faults fired so far (across rollback replays).
  int faults_fired() const { return faults_fired_; }

  /// Log lines describing each fired fault, for bench output.
  const std::vector<std::string>& log() const { return log_; }

 private:
  struct Scheduled {
    FaultEvent event;
    bool consumed = false;
  };

  std::vector<Scheduled> events_;
  Rng rng_;
  int faults_fired_ = 0;
  std::vector<std::string> log_;
};

/// One serve-side fault. Where training faults fire on (phase, epoch),
/// serve faults fire on deterministic *trigger ordinals*: the injector
/// counts worker batches, offered requests, and swap attempts, and a fault
/// fires when its counter schedule matches — so a chaos run reproduces the
/// same fault sequence for the same workload, with no wall clock or RNG in
/// the firing decision.
struct ServeFault {
  enum class Type {
    /// Stall the worker for `magnitude` milliseconds before it processes a
    /// batch — the footprint of a slow disk, a page fault storm, or a noisy
    /// neighbor. Drives queue growth, and with it admission rejections,
    /// degraded serving, and deadline shedding.
    kWorkerStall,
    /// Amplify one offered request into `magnitude` extra synthetic offers
    /// of the same node — the footprint of a retry storm or a thundering
    /// herd. The extras run the full admission path and are counted in the
    /// engine's offered/shed/degraded totals.
    kQueueBurst,
    /// Corrupt the next snapshot handed to `ServeRegistry::Swap` (a NaN
    /// overwrites one weight) so validation must reject the swap and the
    /// serving engine must keep answering from the old snapshot.
    kSnapshotCorruptOnSwap,
  };

  Type type = Type::kWorkerStall;
  /// Fire on every `every_n`-th trigger of the matching kind (1 = every
  /// trigger); non-positive disables the event.
  int every_n = 1;
  /// Skip the first `after` triggers before the schedule starts counting
  /// (warm-up room for tests that need a healthy phase first).
  int after = 0;
  /// Stall milliseconds (kWorkerStall) or extra requests (kQueueBurst).
  double magnitude = 0.0;
  /// One-shot faults are consumed by their first firing.
  bool once = false;
};

/// Human-readable name of a serve fault type ("worker-stall", ...).
const char* ServeFaultTypeName(ServeFault::Type type);

/// Totals of serve faults fired, exported into the loadtest JSON block.
struct ServeFaultCounts {
  int64_t stalls = 0;
  int64_t burst_requests = 0;
  int64_t corrupted_swaps = 0;
};

/// Thread-safe, deterministic injector of serve-side faults. Attach one via
/// `serve::ServeOptions::faults`; `ServeEngine` consults `OnBatch`/`OnOffer`
/// and `ServeRegistry` consults `OnSwap`. With no armed events every hook
/// is a cheap no-op, so production configurations pass a null injector.
class ServeFaultInjector {
 public:
  explicit ServeFaultInjector(std::vector<ServeFault> faults);

  /// Called once per worker batch; returns the stall in milliseconds the
  /// worker must sleep before processing (0 when no stall fires).
  double OnBatch();
  /// Called once per externally offered request; returns how many extra
  /// synthetic offers of the same request to inject (0 = none).
  int OnOffer();
  /// Called once per swap attempt; true means the candidate snapshot must
  /// be corrupted before validation.
  bool OnSwap();
  ServeFaultCounts counts() const;
  /// Log lines describing each fired fault, for bench output.
  std::vector<std::string> log() const;

 private:
  struct Armed {
    ServeFault fault;
    bool consumed = false;
  };

  // Fires every armed, unconsumed event of `type` whose schedule matches
  // `ordinal`; returns how many fired and accumulates their magnitudes.
  int Fire(ServeFault::Type type, int64_t ordinal, const char* trigger,
           double* magnitude) RGAE_REQUIRES(mu_);

  mutable Mutex mu_{"ServeFaultInjector.mu"};
  std::vector<Armed> faults_ RGAE_GUARDED_BY(mu_);
  int64_t batches_ RGAE_GUARDED_BY(mu_) = 0;
  int64_t offers_ RGAE_GUARDED_BY(mu_) = 0;
  int64_t swaps_ RGAE_GUARDED_BY(mu_) = 0;
  ServeFaultCounts counts_ RGAE_GUARDED_BY(mu_);
  std::vector<std::string> log_ RGAE_GUARDED_BY(mu_);
};

}  // namespace rgae

#endif  // RGAE_CORE_FAULT_INJECTION_H_
