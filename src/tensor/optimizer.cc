#include "src/tensor/optimizer.h"

#include <cmath>

#include "src/kernels/kernels.h"
#include "src/obs/trace.h"

namespace rgae {

Adam::Adam(std::vector<Parameter*> params, Options options)
    : params_(std::move(params)), options_(options) {}

void Adam::Step() {
  RGAE_SPAN("kernel.adam");
  int64_t total_elems = 0;
  for (const Parameter* p : params_) {
    total_elems += static_cast<int64_t>(p->value.size());
  }
  // Cost model: ~14 flops per element (two EMA updates, bias correction,
  // sqrt, divide, apply) and 56 bytes (read g/m/v/value, write m/v/value).
  RGAE_KERNEL_WORK("kernel.adam", 14 * total_elems, 56 * total_elems);
  ++step_;
  const double bc1 = 1.0 - std::pow(options_.beta1, step_);
  const double bc2 = 1.0 - std::pow(options_.beta2, step_);
  for (Parameter* p : params_) {
    kernels::AdamStep(p->value.data(), p->grad.data(), p->adam_m.data(),
                      p->adam_v.data(), static_cast<int64_t>(p->value.size()),
                      options_.beta1, options_.beta2, options_.learning_rate,
                      options_.epsilon, bc1, bc2);
  }
}

void Adam::ZeroGrads() {
  for (Parameter* p : params_) p->ZeroGrad();
}

void Adam::ResetState() {
  step_ = 0;
  for (Parameter* p : params_) {
    p->adam_m.Zero();
    p->adam_v.Zero();
  }
}

}  // namespace rgae
