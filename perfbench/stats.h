// Statistics used by the benchmark harness: percentile selection,
// schedule-relative latency, stationarity and the rate-ladder rule. Kept
// header-only and free of I/O so stats_test.cc can pin each rule.
#ifndef DBSCOUT_PERFBENCH_STATS_H_
#define DBSCOUT_PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of the p-th percentile of n samples, in [1, n].
/// The slack keeps 99.9% of 10000 at rank 9990 despite rounding.
inline size_t Rank(size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1,
                            std::max<size_t>(n, 1));
}

/// Nearest-rank percentile of `values` (p in (0, 100]); NaN when empty.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return std::nan("");
  }
  std::sort(values.begin(), values.end());
  return values[Rank(values.size(), p) - 1];
}

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

/// Samples strictly above the nearest-rank p-th percentile of n samples.
inline size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - Rank(n, p);
}

/// The highest of the reported percentiles (99.9, 99, 95, 90, 50) that
/// still has at least `min_beyond` samples above it; nullopt when even the
/// median does not. A tail figure with fewer samples beyond it is one
/// request's luck, not a property of the system.
inline std::optional<double> SupportedPercentile(size_t n,
                                                 size_t min_beyond = 10) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 50.0}) {
    if (SamplesBeyond(n, p) >= min_beyond) {
      return p;
    }
  }
  return std::nullopt;
}

/// One open-loop request: when it was due, when it actually went out and
/// when its reply arrived (seconds on one monotonic clock).
struct Sample {
  double scheduled = 0.0;
  double sent = 0.0;
  double done = 0.0;
  bool ok = false;
};

/// A send more than this far behind its schedule counts as late.
inline constexpr double kLateSendSeconds = 1e-3;

/// Latency measured from the scheduled send time, so a stall also charges
/// the requests queued behind it (no coordinated omission).
inline double ScheduleLatency(const Sample& s) { return s.done - s.scheduled; }

inline bool IsLate(const Sample& s) {
  return s.sent - s.scheduled > kLateSendSeconds;
}

/// Schedule-relative latencies of the successful samples, in seconds.
inline std::vector<double> Latencies(const std::vector<Sample>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) {
    if (s.ok) {
      out.push_back(ScheduleLatency(s));
    }
  }
  return out;
}

inline double LateShare(const std::vector<Sample>& samples) {
  if (samples.empty()) {
    return 0.0;
  }
  size_t late = 0;
  for (const Sample& s : samples) {
    late += IsLate(s) ? 1 : 0;
  }
  return static_cast<double>(late) / static_cast<double>(samples.size());
}

inline size_t Failures(const std::vector<Sample>& samples) {
  size_t failed = 0;
  for (const Sample& s : samples) {
    failed += s.ok ? 0 : 1;
  }
  return failed;
}

/// The backlog grew when the requests due in the last quarter of a phase
/// waited, at the median, more than `limit_seconds` longer than those due
/// in the first quarter: the generator (or the server) fell behind and
/// did not catch up. Samples must be in schedule order.
inline bool BacklogGrew(const std::vector<Sample>& samples,
                        double limit_seconds) {
  const size_t quarter = samples.size() / 4;
  if (quarter == 0) {
    return false;
  }
  const std::vector<Sample> head(samples.begin(), samples.begin() + quarter);
  const std::vector<Sample> tail(samples.end() - quarter, samples.end());
  std::vector<double> head_lat;
  std::vector<double> tail_lat;
  for (const Sample& s : head) head_lat.push_back(ScheduleLatency(s));
  for (const Sample& s : tail) tail_lat.push_back(ScheduleLatency(s));
  return Median(tail_lat) - Median(head_lat) > limit_seconds;
}

/// A ladder rung passes when nothing failed, its p-th percentile latency
/// has at least ten samples beyond it and stays within the limit, and its
/// backlog stayed flat.
inline bool RungPasses(const std::vector<Sample>& samples, double p,
                       double limit_seconds) {
  if (Failures(samples) > 0 || SamplesBeyond(samples.size(), p) < 10) {
    return false;
  }
  return Percentile(Latencies(samples), p) <= limit_seconds &&
         !BacklogGrew(samples, limit_seconds);
}

/// The highest rate of an ascending ladder such that it and every rung
/// below it passed; 0 when the lowest rung already fails. A pass above a
/// failed rung is noise, not capacity.
inline double HighestPassingRate(const std::vector<double>& rates,
                                 const std::vector<bool>& passed) {
  double best = 0.0;
  for (size_t i = 0; i < rates.size() && i < passed.size(); ++i) {
    if (!passed[i]) {
      break;
    }
    best = rates[i];
  }
  return best;
}

/// Fixed-rate phase stationarity: the second half's median latency may
/// not exceed twice the first half's (plus 0.1 ms of timer noise), and
/// server memory may not grow by more than half between the two halves.
struct Stationarity {
  double first_p50 = 0.0;
  double second_p50 = 0.0;
  double rss_mid = 0.0;
  double rss_end = 0.0;
  bool latency_flat() const { return second_p50 <= 2.0 * first_p50 + 1e-4; }
  bool memory_flat() const { return rss_end <= 1.5 * rss_mid; }
  bool ok() const { return latency_flat() && memory_flat(); }
};

}  // namespace perfbench

#endif  // DBSCOUT_PERFBENCH_STATS_H_
