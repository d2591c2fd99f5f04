// Host-speed reference loop. This file calls no rgae code and is compiled
// with its own fixed flags (perfbench/CMakeLists.txt), so its run time
// depends only on how fast the host runs right now. Each timed unit of the
// benchmark is bracketed by it and scaled by nominal / measured reference
// time (see bench.h, HostProbe).
//
// It mixes the resources the workloads use, because the host's slow phases
// do not hit them alike: a latency-bound scalar chain over an L1-resident
// table (what cache-resident training and serving feel), and an 11.5 MB
// buffer filled and swept with the scalar softplus of the reconstruction
// loss (what the O(N²) loss feels: memory bandwidth and the shared
// last-level cache). The buffer is allocated once, so the probe adds a
// constant to the process's peak RSS.

#include <cmath>
#include <cstdint>
#include <memory>

namespace perfbench {

namespace {

constexpr int kTableSize = 4096;  // 32 KiB of doubles.
constexpr int kChainIterations = 3000000;
constexpr int64_t kSweepEntries = 1200 * 1200;

double ScalarChain() {
  static double table[kTableSize];
  static bool filled = false;
  if (!filled) {
    for (int i = 0; i < kTableSize; ++i) table[i] = 1.0 / (1.0 + i);
    filled = true;
  }
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  double acc = 0.0;
  for (int i = 0; i < kChainIterations; ++i) {
    // A serial LCG drives a data-dependent table walk feeding one scalar
    // floating-point dependency chain: latency-bound, never vectorized.
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    acc = acc * 0.999999 + table[(x >> 52) & (kTableSize - 1)];
  }
  return acc;
}

double SoftplusSweep() {
  static const std::unique_ptr<double[]> s(new double[kSweepEntries]);
  uint64_t x = 88172645463325252ULL;
  for (int64_t i = 0; i < kSweepEntries; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    s[i] = static_cast<double>(x >> 11) * (8.0 / 9007199254740992.0) - 4.0;
  }
  double acc = 0.0;
  for (int64_t i = 0; i < kSweepEntries; ++i) {
    const double v = s[i];
    acc += std::log1p(std::exp(-std::fabs(v))) + (v > 0.0 ? v : 0.0);
  }
  return acc;
}

}  // namespace

double ReferenceLoop() { return ScalarChain() + SoftplusSweep(); }

}  // namespace perfbench
