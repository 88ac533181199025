#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Measurement helpers of the repository benchmark: nearest-rank
// percentiles with the ten-samples-beyond rule, the serving rate-ladder
// search, and in-memory spans with per-name self time.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least q% of the
/// samples at or below it (q in (0, 100]). 0 for an empty sample.
double Percentile(std::vector<double> samples, double q);

/// Samples that lie strictly beyond the nearest-rank q-th percentile's rank.
int64_t SamplesBeyond(int64_t count, double q);

/// The nearest-rank q-th percentile, or nullopt when fewer than
/// `min_beyond` samples lie beyond it (a p99 of 200 samples rests on two
/// samples and is not reported).
std::optional<double> SupportedPercentile(const std::vector<double>& samples,
                                          double q, int64_t min_beyond = 10);

/// The highest of p99, p95, p90 and p50 that `SupportedPercentile` accepts,
/// with the percentile it is; {0, 0} when not even the median is supported.
struct Tail {
  double q = 0.0;
  double value = 0.0;
};
Tail TailPercentile(const std::vector<double>& samples);

/// One open-loop step of the serving rate ladder.
struct LadderStep {
  double rate = 0.0;
  /// Tail latency of the step (TailPercentile), ms.
  double tail_ms = 0.0;
  double tail_q = 0.0;
  /// Last response minus last scheduled send, ms: a queue that kept
  /// growing through the step is still draining when the sends stop.
  double drain_ms = 0.0;
  int64_t failed = 0;
  bool passed = false;
};

/// A step passes when nothing failed and both its tail latency and its
/// drain stay within `limit_ms`.
bool StepPasses(const LadderStep& step, double limit_ms);

/// Runs `run_step(rate)` for each ladder rate in ascending order and stops
/// after the first failing step. The result is the highest rate whose step
/// and every lower step passed (0 when the first step fails).
struct LadderResult {
  double max_rate = 0.0;
  std::vector<LadderStep> steps;
};
LadderResult SearchRateLadder(
    const std::vector<double>& ladder, double limit_ms,
    const std::function<LadderStep(double rate)>& run_step);

/// One traced interval. Times are seconds since the log's origin; `parent`
/// is the index of the enclosing span (-1 at the root) and `request` groups
/// the spans of one serving request (-1 elsewhere).
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int64_t parent = -1;
  int64_t request = -1;
};

/// Spans kept in memory and written out when the run ends. A disabled log
/// records nothing, so untraced runs pay one branch per call site.
class SpanLog {
 public:
  explicit SpanLog(bool enabled);

  bool enabled() const { return enabled_; }
  /// Pauses or resumes recording (an untraced pass inside a traced run).
  void set_enabled(bool enabled) { enabled_ = enabled; }
  /// Index of the innermost open span, -1 when none is open.
  int64_t Current() const { return open_.empty() ? -1 : open_.back(); }
  /// Seconds since the log was created.
  double Now() const;
  double ToSeconds(std::chrono::steady_clock::time_point t) const;

  /// Opens a span under the innermost open span; returns its index (-1 when
  /// disabled).
  int64_t Begin(const std::string& name);
  void End(int64_t id);
  /// Records a finished interval directly (reconstructed request phases).
  int64_t Add(const std::string& name, double start, double end,
              int64_t parent, int64_t request = -1);

  const std::vector<Span>& spans() const { return spans_; }

  /// RAII span around one call.
  class Scope {
   public:
    Scope(SpanLog* log, const std::string& name)
        : log_(log), id_(log->Begin(name)) {}
    ~Scope() { log_->End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int64_t id_;
  };

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// Self time per span name: each span's duration minus the part of its
/// interval covered by its direct children (overlapping children count
/// once; a child sticking out of its parent is clipped to it).
std::map<std::string, double> SelfTimes(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
