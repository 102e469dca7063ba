// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own code around calls into sash, kept in memory, and written
// out once the run ends. With tracing off, Record is one branch.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  // Span ids start at 1; 0 means "no parent".
  int64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  // Records one finished span (any thread). `name` must be a string literal.
  void Record(int64_t id, const char* name, int64_t start_ns, int64_t end_ns, int64_t parent,
              int64_t rid) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, id, parent, rid, start_ns, end_ns});
  }

  // Convenience for a root span around `fn()`; returns fn's duration in ns.
  template <typename Fn>
  int64_t Time(const char* name, int64_t rid, Fn&& fn) {
    const int64_t start = NowNs();
    fn();
    const int64_t end = NowNs();
    if (enabled_) Record(NewId(), name, start, end, 0, rid);
    return end - start;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  // Chrome trace-event JSON ("X" events; the request id is the thread lane
  // so the spans of one request stack together). Returns false on I/O error.
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"traceEvents\":[\n", f);
    std::lock_guard<std::mutex> lock(mu_);
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%lld,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"id\":%lld,\"parent\":%lld,\"rid\":%lld}}\n",
                   i == 0 ? "" : ",", s.name, static_cast<long long>(s.rid),
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<long long>(s.id), static_cast<long long>(s.parent),
                   static_cast<long long>(s.rid));
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  const bool enabled_;
  std::atomic<int64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
