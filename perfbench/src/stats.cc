#include "perfbench/src/stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

namespace {

// 1-based nearest rank of the q-th percentile among `count` samples.
int64_t NearestRank(int64_t count, double q) {
  const int64_t rank =
      static_cast<int64_t>(std::ceil(q / 100.0 * static_cast<double>(count)));
  return std::clamp<int64_t>(rank, 1, std::max<int64_t>(count, 1));
}

}  // namespace

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const int64_t rank = NearestRank(static_cast<int64_t>(samples.size()), q);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

int64_t SamplesBeyond(int64_t count, double q) {
  return count > 0 ? count - NearestRank(count, q) : 0;
}

std::optional<double> SupportedPercentile(const std::vector<double>& samples,
                                          double q, int64_t min_beyond) {
  if (SamplesBeyond(static_cast<int64_t>(samples.size()), q) < min_beyond) {
    return std::nullopt;
  }
  return Percentile(samples, q);
}

Tail TailPercentile(const std::vector<double>& samples) {
  for (double q : {99.0, 95.0, 90.0, 50.0}) {
    if (std::optional<double> value = SupportedPercentile(samples, q)) {
      return {q, *value};
    }
  }
  return {};
}

bool StepPasses(const LadderStep& step, double limit_ms) {
  return step.failed == 0 && step.tail_q > 0.0 && step.tail_ms <= limit_ms &&
         step.drain_ms <= limit_ms;
}

LadderResult SearchRateLadder(
    const std::vector<double>& ladder, double limit_ms,
    const std::function<LadderStep(double rate)>& run_step) {
  LadderResult result;
  for (double rate : ladder) {
    LadderStep step = run_step(rate);
    step.rate = rate;
    step.passed = StepPasses(step, limit_ms);
    result.steps.push_back(step);
    if (!step.passed) break;
    result.max_rate = rate;
  }
  return result;
}

SpanLog::SpanLog(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double SpanLog::Now() const {
  return ToSeconds(std::chrono::steady_clock::now());
}

double SpanLog::ToSeconds(std::chrono::steady_clock::time_point t) const {
  return std::chrono::duration<double>(t - origin_).count();
}

int64_t SpanLog::Begin(const std::string& name) {
  if (!enabled_) return -1;
  const int64_t id = Add(name, Now(), 0.0, Current());
  open_.push_back(id);
  return id;
}

void SpanLog::End(int64_t id) {
  if (id < 0) return;
  spans_[id].end = Now();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int64_t SpanLog::Add(const std::string& name, double start, double end,
                     int64_t parent, int64_t request) {
  if (!enabled_) return -1;
  spans_.push_back({name, start, end, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::map<std::string, double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    const Span& parent = spans[span.parent];
    const double start = std::max(span.start, parent.start);
    const double end = std::min(span.end, parent.end);
    if (end > start) children[span.parent].emplace_back(start, end);
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<double, double>>& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0, run_start = 0.0, run_end = -1.0;
    for (const auto& [start, end] : intervals) {
      if (start > run_end) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = start;
        run_end = end;
      } else {
        run_end = std::max(run_end, end);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    self[spans[i].name] += (spans[i].end - spans[i].start) - covered;
  }
  return self;
}

}  // namespace perfbench
