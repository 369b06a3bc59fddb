// The benchmark's own arithmetic, kept apart from perfbench.cpp so that
// stats_test.cpp can check it on synthetic inputs: percentiles (and which
// percentile a sample supports), medians, the rate-ladder search with its
// pass/fail rule, span self times, and the failed-operation share.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

// Samples that must lie beyond a reported percentile.
inline constexpr std::size_t kMinBeyond = 10;

// 1-based rank of the nearest-rank q-percentile among n samples. The
// epsilon keeps q * n from rounding up past an exact integer.
inline std::size_t NearestRank(std::size_t n, double q) {
  return static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
}

// Nearest-rank percentile, q in [0, 1]: the smallest sample with at least
// q * n samples at or below it. NaN for an empty sample.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::sort(values.begin(), values.end());
  const std::size_t rank =
      std::clamp<std::size_t>(NearestRank(values.size(), q), 1, values.size());
  return values[rank - 1];
}

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

// Samples strictly beyond the nearest-rank q-percentile of n samples.
inline std::size_t SamplesBeyond(std::size_t n, double q) {
  const std::size_t rank = NearestRank(n, q);
  return n > rank ? n - rank : 0;
}

// True when n samples leave at least kMinBeyond beyond the q-percentile.
inline bool SupportsPercentile(std::size_t n, double q) {
  return SamplesBeyond(n, q) >= kMinBeyond;
}

// Latency of one open-loop phase. A request that failed (shed, error,
// wrong answer, or never answered) counts as missing every latency limit,
// so it enters the percentiles as +infinity.
struct LatencySummary {
  std::size_t samples = 0;  // answered + failed
  double p50 = kInf;
  double p99 = kInf;
  bool p99_supported = false;
};

inline LatencySummary Summarize(std::vector<double> latencies,
                                std::size_t failed) {
  latencies.insert(latencies.end(), failed, kInf);
  LatencySummary summary;
  summary.samples = latencies.size();
  if (latencies.empty()) {
    return summary;
  }
  summary.p99_supported = SupportsPercentile(latencies.size(), 0.99);
  summary.p50 = Percentile(latencies, 0.5);
  summary.p99 = Percentile(latencies, 0.99);
  return summary;
}

// Share of attempted operations that failed; 0 when nothing was tried.
inline double FailedShare(std::uint64_t attempted, std::uint64_t failed) {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

// --- rate ladder ------------------------------------------------------

// Geometric ladder anchor x ratio^i for i in [-down, up]; the anchor is
// step `down`.
inline std::vector<double> Ladder(double anchor, double ratio, int down,
                                  int up) {
  std::vector<double> rates;
  for (int i = -down; i <= up; ++i) {
    rates.push_back(anchor * std::pow(ratio, i));
  }
  return rates;
}

// Requests outstanding (scheduled but unanswered) sampled at evenly
// spaced points of a step. The backlog grows when its last sample
// exceeds its first by more than `allowance` requests — what Little's law
// lets be in flight at the latency limit (rate x SLO).
inline bool BacklogGrowing(const std::vector<std::uint64_t>& samples,
                           double allowance) {
  if (samples.size() < 2) {
    return false;
  }
  return static_cast<double>(samples.back()) >
         static_cast<double>(samples.front()) + allowance;
}

struct StepOutcome {
  double p99_ms = kInf;  // failures included as +infinity
  bool p99_supported = false;
  std::uint64_t failed = 0;
  std::vector<std::uint64_t> backlog;
};

// A ladder step passes when its p99 is measurable and within the SLO, no
// request failed, and the backlog did not grow.
inline bool StepPasses(const StepOutcome& step, double slo_ms,
                       double allowance) {
  return step.p99_supported && step.p99_ms <= slo_ms && step.failed == 0 &&
         !BacklogGrowing(step.backlog, allowance);
}

// Highest passing index of a ladder with `steps` steps, found by binary
// search under the usual assumption that pass/fail is monotone in rate.
// Steps <= known_pass are taken as passing without a probe (pass -1 when
// none is known). Returns -1 when no step passes.
inline long LadderSearch(std::size_t steps, long known_pass,
                         const std::function<bool(std::size_t)>& probe) {
  long lo = std::max<long>(known_pass, -1);  // highest known pass
  long hi = static_cast<long>(steps);        // lowest known fail
  while (hi - lo > 1) {
    const long mid = lo + (hi - lo) / 2;
    if (probe(static_cast<std::size_t>(mid))) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// --- spans ------------------------------------------------------------

// One timed call into a module, recorded by the benchmark around the call.
struct Span {
  std::uint64_t id = 0;      // 1-based; 0 is "no span"
  std::uint64_t parent = 0;  // id of the enclosing span, 0 at the root
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::string request;  // request id (the wire trace id for served requests)
};

// Self time of every span, in input order: its duration minus the part
// of its interval covered by its direct children (overlapping children
// count once; parts of a child outside the parent are ignored).
inline std::vector<std::uint64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::size_t> index_of;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    index_of[spans[i].id] = i;
  }
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> covered(
      spans.size());
  for (const Span& span : spans) {
    const auto parent = index_of.find(span.parent);
    if (span.parent == 0 || parent == index_of.end()) {
      continue;
    }
    const Span& p = spans[parent->second];
    const std::uint64_t begin = std::max(span.start_ns, p.start_ns);
    const std::uint64_t end = std::min(span.end_ns, p.end_ns);
    if (begin < end) {
      covered[parent->second].emplace_back(begin, end);
    }
  }
  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = covered[i];
    std::sort(intervals.begin(), intervals.end());
    std::uint64_t union_ns = 0;
    std::uint64_t cursor = 0;
    for (const auto& [begin, end] : intervals) {
      const std::uint64_t from = std::max(begin, cursor);
      if (end > from) {
        union_ns += end - from;
      }
      cursor = std::max(cursor, end);
    }
    const std::uint64_t duration =
        spans[i].end_ns > spans[i].start_ns ? spans[i].end_ns - spans[i].start_ns
                                            : 0;
    self[i] = duration > union_ns ? duration - union_ns : 0;
  }
  return self;
}

// Self times grouped by span name, in seconds, one entry per span.
inline std::map<std::string, std::vector<double>> SelfSecondsByName(
    const std::vector<Span>& spans) {
  const std::vector<std::uint64_t> self = SelfTimesNs(spans);
  std::map<std::string, std::vector<double>> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_name[spans[i].name].push_back(static_cast<double>(self[i]) * 1e-9);
  }
  return by_name;
}

}  // namespace perfbench
