// Measurement primitives: the monotonic clock, the host-speed probe,
// quantiles, and the benchmark's spans on the repository's TraceCollector.

#include <algorithm>
#include <chrono>

#include "perfbench/bench.h"
#include "src/obs/trace.h"

namespace perfbench {

namespace {

bool g_spans_enabled = false;

}  // namespace

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double HostProbe::Sample() {
  const double t0 = NowSeconds();
  sink_ += ReferenceLoop();
  const double factor = (NowSeconds() - t0) / kNominalReferenceSeconds;
  factors_.push_back(factor);
  return factor;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  if (lo + 1 >= v.size()) return v.back();
  return v[lo] + (rank - static_cast<double>(lo)) * (v[lo + 1] - v[lo]);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double RelativeIqr(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double med = Median(v);
  if (med == 0.0) return 0.0;
  return (Quantile(v, 0.75) - Quantile(v, 0.25)) / med;
}

void SetSpansEnabled(bool enabled) { g_spans_enabled = enabled; }

// The repository's TraceCollector records these spans directly, with the
// library's own instrumentation left off, so only benchmark spans appear.
Span::Span(const char* name) {
  if (g_spans_enabled) {
    index_ = rgae::obs::TraceCollector::Global().BeginSpan(name);
  }
}

Span::~Span() { rgae::obs::TraceCollector::Global().EndSpan(index_); }

std::map<std::string, SpanStats> AnalyzeSpans() {
  const std::vector<rgae::obs::TraceEvent> events =
      rgae::obs::TraceCollector::Global().Snapshot();
  std::vector<double> child_ms(events.size(), 0.0);
  for (const auto& e : events) {
    if (e.parent >= 0 && e.dur_us >= 0) {
      child_ms[static_cast<size_t>(e.parent)] += e.dur_us / 1000.0;
    }
  }
  std::map<std::string, SpanStats> out;
  for (size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    if (e.dur_us < 0) continue;  // Still open.
    SpanStats& s = out[e.name];
    const double ms = e.dur_us / 1000.0;
    ++s.calls;
    s.total_ms += ms;
    s.self_ms += std::max(0.0, ms - child_ms[i]);
    s.durations_ms.push_back(ms);
  }
  return out;
}

bool WriteTrace(const std::string& path, std::string* error) {
  return rgae::obs::TraceCollector::Global().WriteChromeTrace(path, error);
}

}  // namespace perfbench
