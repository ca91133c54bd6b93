// The benchmark's own spans: name, start, end and parent, recorded
// around each call the benchmark makes into a layer's public functions.
// Spans are kept in memory only while tracing is on (--trace 1); with
// tracing off a Span is one branch. At the end the recorder writes
// Chrome trace-event JSON and a per-name self-time table.
#ifndef PERFBENCH_SPAN_TRACE_H_
#define PERFBENCH_SPAN_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct SpanEvent {
  const char* name = "";  // string literal
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t id = 0;      // 1-based
  uint32_t parent = 0;  // 0 = root
  uint32_t thread = 0;  // small per-thread index
  uint64_t items = 0;   // work units the call covered (records, keys...)
};

class SpanRecorder {
 public:
  static SpanRecorder& Get();

  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  // Opens a span under the calling thread's innermost open span.
  uint32_t Begin(const char* name);
  void End(uint32_t id, uint64_t items);

  // Closed spans of one name.
  std::vector<SpanEvent> Named(const char* name) const;

  // Sum of durations (ns) and of items over the spans of one name.
  struct Total {
    uint64_t count = 0;
    double ns = 0.0;
    uint64_t items = 0;
  };
  Total TotalOf(const char* name) const;

  bool WriteChromeTrace(const std::string& path) const;
  // Per name: span count, total time and self time (duration minus the
  // part its child spans cover), in milliseconds.
  void PrintSelfTimes(std::FILE* out) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<SpanEvent> events_;  // guarded by mu_; index = id - 1
};

class Span {
 public:
  explicit Span(const char* name, uint64_t items = 0)
      : items_(items),
        id_(SpanRecorder::Get().enabled() ? SpanRecorder::Get().Begin(name)
                                          : 0) {}
  ~Span() {
    if (id_ != 0) SpanRecorder::Get().End(id_, items_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void set_items(uint64_t items) { items_ = items; }

 private:
  uint64_t items_;
  uint32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_TRACE_H_
