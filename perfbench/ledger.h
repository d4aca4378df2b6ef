// Outside-in measurement for the S2 benchmark: a timing wrapper around
// calls into one layer's public functions, sample statistics, the span
// ledger that turns benchmark spans into per-layer self time, and the
// metric table the run prints.
//
// Nothing here reaches into the library: times come from the steady clock
// and getrusage around each call, counts from the values the calls return.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace s2perf {

// Process CPU so far (all threads), split as getrusage reports it.
struct CpuTimes {
  double user_s = 0;
  double sys_s = 0;
};

inline CpuTimes ProcessCpu() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * tv.tv_usec;
  };
  return {seconds(usage.ru_utime), seconds(usage.ru_stime)};
}

inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

// What one call cost: wall time plus the process CPU it consumed.
struct Cost {
  double wall_s = 0;
  double user_s = 0;
  double sys_s = 0;
  double cpu_s() const { return user_s + sys_s; }
};

// Runs `fn` inside a benchmark span named `span` (a string literal; the
// span is recorded only while the tracer is on) and returns its cost.
template <typename Fn>
Cost Measure(const char* span, Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  s2::obs::Span trace_span("bench", span);
  CpuTimes cpu0 = ProcessCpu();
  Clock::time_point t0 = Clock::now();
  fn();
  Clock::time_point t1 = Clock::now();
  CpuTimes cpu1 = ProcessCpu();
  return {std::chrono::duration<double>(t1 - t0).count(),
          cpu1.user_s - cpu0.user_s, cpu1.sys_s - cpu0.sys_s};
}

// ------------------------------------------------------------- statistics

inline double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// The highest percentile with at least ten samples beyond it. Below 21
// samples that percentile would sit at or under the median, so the
// maximum is reported instead; `percentile` says which one was taken.
struct Tail {
  double value = 0;
  double percentile = 0;
  size_t samples = 0;
};

inline Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  size_t index = n >= 21 ? n - 11 : n - 1;
  tail.value = values[index];
  tail.percentile = n > 1 ? 100.0 * static_cast<double>(index) /
                                static_cast<double>(n - 1)
                          : 100.0;
  return tail;
}

inline double Ratio(double part, double whole) {
  return whole > 0 ? part / whole : 0;
}

// ------------------------------------------------------------ span ledger

// Self time per benchmark span name over one traced operation: a span's
// duration minus the part its directly nested benchmark spans cover.
// Spans of the library's own categories are ignored; only the spans this
// benchmark recorded around layer calls count.
inline std::map<std::string, double> SelfSeconds(
    const std::vector<s2::obs::Tracer::Event>& events) {
  std::vector<const s2::obs::Tracer::Event*> spans;
  for (const s2::obs::Tracer::Event& event : events) {
    if (std::string(event.category) == "bench") spans.push_back(&event);
  }
  // Benchmark spans all come from the calling thread and nest properly;
  // sorted by start (longer first on ties) a stack recovers the tree.
  std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
    return a->ts_us != b->ts_us ? a->ts_us < b->ts_us : a->dur_us > b->dur_us;
  });
  std::map<std::string, double> self;
  std::vector<const s2::obs::Tracer::Event*> stack;
  for (const s2::obs::Tracer::Event* span : spans) {
    while (!stack.empty() &&
           span->ts_us >= stack.back()->ts_us + stack.back()->dur_us) {
      stack.pop_back();
    }
    self[span->name] += span->dur_us * 1e-6;
    if (!stack.empty()) self[stack.back()->name] -= span->dur_us * 1e-6;
    stack.push_back(span);
  }
  return self;
}

// ----------------------------------------------------------- metric table

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // base of a ratio, sample count of a statistic
};

class MetricTable {
 public:
  void Add(std::string name, double value, std::string unit,
           std::string note = "") {
    metrics_.push_back(
        {std::move(name), value, std::move(unit), std::move(note)});
  }

  // Human-readable lines, one metric each.
  void Print(const char* heading) const {
    std::printf("%s\n", heading);
    for (const Metric& metric : metrics_) {
      std::printf("  %-32s %16.6f %-6s %s\n", metric.name.c_str(),
                  metric.value, metric.unit.c_str(), metric.note.c_str());
    }
  }

  // The members of the result object's "metrics" map.
  std::string JsonMembers() const {
    std::string out;
    for (const Metric& metric : metrics_) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.9g", metric.value);
      if (!out.empty()) out += ", ";
      out += "\"" + metric.name + "\": {\"value\": " + value +
             ", \"unit\": \"" + metric.unit + "\"}";
    }
    return out;
  }

 private:
  std::vector<Metric> metrics_;
};

inline std::string Fmt(const char* format, double a, double b = 0) {
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer), format, a, b);
  return buffer;
}

}  // namespace s2perf
