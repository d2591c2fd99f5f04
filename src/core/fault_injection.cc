#include "src/core/fault_injection.h"

#include <chrono>
#include <limits>
#include <thread>

#include "src/models/model.h"

namespace rgae {

const char* FaultTypeName(FaultEvent::Type type) {
  switch (type) {
    case FaultEvent::Type::kNanWeight:
      return "nan-weight";
    case FaultEvent::Type::kLrSpike:
      return "lr-spike";
    case FaultEvent::Type::kCorruptGradient:
      return "corrupt-gradient";
    case FaultEvent::Type::kSlowEpoch:
      return "slow-epoch";
  }
  return "unknown";
}

FaultInjector::FaultInjector(std::vector<FaultEvent> events, uint64_t seed)
    : rng_(seed) {
  events_.reserve(events.size());
  for (FaultEvent& e : events) events_.push_back({e, false});
}

int FaultInjector::Apply(bool pretrain, int epoch, GaeModel* model) {
  int fired = 0;
  for (Scheduled& s : events_) {
    if (s.consumed || s.event.pretrain != pretrain || s.event.epoch != epoch) {
      continue;
    }
    const std::vector<Parameter*> params = model->Params();
    if (params.empty()) continue;
    std::string line = std::string(pretrain ? "pretrain" : "cluster") +
                       " epoch " + std::to_string(epoch) + ": " +
                       FaultTypeName(s.event.type);
    switch (s.event.type) {
      case FaultEvent::Type::kNanWeight: {
        Parameter* p = params[rng_.UniformInt(static_cast<int>(params.size()))];
        const int idx = rng_.UniformInt(static_cast<int>(p->value.size()));
        p->value.data()[idx] = std::numeric_limits<double>::quiet_NaN();
        line += " in " + p->value.ShapeString();
        break;
      }
      case FaultEvent::Type::kLrSpike: {
        Adam* adam = model->optimizer();
        if (adam == nullptr) continue;
        adam->set_learning_rate(adam->learning_rate() * s.event.magnitude);
        line += " x" + std::to_string(s.event.magnitude);
        break;
      }
      case FaultEvent::Type::kCorruptGradient: {
        Parameter* p = params[rng_.UniformInt(static_cast<int>(params.size()))];
        double* v = p->value.data();
        for (size_t i = 0; i < p->value.size(); ++i) {
          v[i] += s.event.magnitude * rng_.Gaussian();
        }
        line += " in " + p->value.ShapeString();
        break;
      }
      case FaultEvent::Type::kSlowEpoch: {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            s.event.magnitude));
        line += " " + std::to_string(s.event.magnitude) + "ms";
        break;
      }
    }
    if (s.event.once) s.consumed = true;
    ++faults_fired_;
    ++fired;
    log_.push_back(std::move(line));
  }
  return fired;
}

const char* ServeFaultTypeName(ServeFault::Type type) {
  switch (type) {
    case ServeFault::Type::kWorkerStall:
      return "worker-stall";
    case ServeFault::Type::kQueueBurst:
      return "queue-burst";
    case ServeFault::Type::kSnapshotCorruptOnSwap:
      return "snapshot-corrupt-on-swap";
  }
  return "unknown";
}

ServeFaultInjector::ServeFaultInjector(std::vector<ServeFault> faults) {
  faults_.reserve(faults.size());
  for (ServeFault& f : faults) faults_.push_back({f, false});
}

int ServeFaultInjector::Fire(ServeFault::Type type, int64_t ordinal,
                             const char* trigger, double* magnitude) {
  int fired = 0;
  for (Armed& armed : faults_) {
    const ServeFault& f = armed.fault;
    if (armed.consumed || f.type != type || f.every_n <= 0) continue;
    const int64_t since_warmup = ordinal - f.after;
    if (since_warmup <= 0 || since_warmup % f.every_n != 0) continue;
    *magnitude += f.magnitude;
    ++fired;
    if (f.once) armed.consumed = true;
    log_.push_back(std::string(ServeFaultTypeName(type)) + " at " + trigger +
                   " " + std::to_string(ordinal));
  }
  return fired;
}

double ServeFaultInjector::OnBatch() {
  MutexLock lock(mu_);
  double stall_ms = 0.0;
  if (Fire(ServeFault::Type::kWorkerStall, ++batches_, "batch", &stall_ms) >
      0) {
    ++counts_.stalls;
  }
  return stall_ms;
}

int ServeFaultInjector::OnOffer() {
  MutexLock lock(mu_);
  double extra = 0.0;
  Fire(ServeFault::Type::kQueueBurst, ++offers_, "offer", &extra);
  counts_.burst_requests += static_cast<int64_t>(extra);
  return static_cast<int>(extra);
}

bool ServeFaultInjector::OnSwap() {
  MutexLock lock(mu_);
  double unused = 0.0;
  const bool corrupt =
      Fire(ServeFault::Type::kSnapshotCorruptOnSwap, ++swaps_, "swap",
           &unused) > 0;
  if (corrupt) ++counts_.corrupted_swaps;
  return corrupt;
}

ServeFaultCounts ServeFaultInjector::counts() const {
  MutexLock lock(mu_);
  return counts_;
}

std::vector<std::string> ServeFaultInjector::log() const {
  MutexLock lock(mu_);
  return log_;
}

}  // namespace rgae
