// Percentile, median and span self-time arithmetic for the benchmark, kept
// header-only so the self-test checks exactly what sashbench computes.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// Nearest-rank percentile: the smallest sample with at least p % of the
// samples at or below it. p in (0, 100]; 0 for an empty input.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

// Classic median: the middle sample, or the mean of the two middle ones.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// One recorded interval. `parent` is 0 for a root; spans of one request
// share `rid`.
struct Span {
  const char* name = "";  // A string literal.
  int64_t id = 0;
  int64_t parent = 0;
  int64_t rid = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Length of the union of [start, end) intervals.
inline int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0;
  int64_t cur_start = 0;
  int64_t cur_end = 0;
  bool open = false;
  for (const auto& [s, e] : intervals) {
    if (e <= s) continue;
    if (!open || s > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
      open = true;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

// Self time of every span: its duration minus the part of its interval that
// its children cover (children clipped to the parent, overlaps counted
// once). Keyed by span id.
inline std::map<int64_t, int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::map<int64_t, const Span*> by_id;
  for (const Span& s : spans) by_id[s.id] = &s;
  std::map<int64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& s : spans) {
    auto it = by_id.find(s.parent);
    if (s.parent == 0 || it == by_id.end()) continue;
    const Span& p = *it->second;
    children[p.id].emplace_back(std::max(s.start_ns, p.start_ns), std::min(s.end_ns, p.end_ns));
  }
  std::map<int64_t, int64_t> self;
  for (const Span& s : spans) {
    auto it = children.find(s.id);
    const int64_t covered = it == children.end() ? 0 : UnionLength(it->second);
    self[s.id] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
