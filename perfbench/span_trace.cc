#include "span_trace.h"

#include <algorithm>
#include <atomic>
#include <map>

namespace perfbench {
namespace {

std::atomic<uint32_t> next_thread{0};
thread_local uint32_t thread_index = next_thread.fetch_add(1);
thread_local std::vector<uint32_t> open_spans;

}  // namespace

SpanRecorder& SpanRecorder::Get() {
  static SpanRecorder recorder;
  return recorder;
}

uint32_t SpanRecorder::Begin(const char* name) {
  SpanEvent event;
  event.name = name;
  event.parent = open_spans.empty() ? 0 : open_spans.back();
  event.thread = thread_index;
  uint32_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<uint32_t>(events_.size() + 1);
    event.id = id;
    events_.push_back(event);
  }
  open_spans.push_back(id);
  const uint64_t start = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  events_[id - 1].start_ns = start;
  return id;
}

void SpanRecorder::End(uint32_t id, uint64_t items) {
  const uint64_t end = NowNs();
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  events_[id - 1].end_ns = end;
  events_[id - 1].items = items;
}

std::vector<SpanEvent> SpanRecorder::Named(const char* name) const {
  const std::string wanted(name);
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanEvent> out;
  for (const SpanEvent& e : events_) {
    if (e.end_ns != 0 && wanted == e.name) out.push_back(e);
  }
  return out;
}

SpanRecorder::Total SpanRecorder::TotalOf(const char* name) const {
  Total total;
  for (const SpanEvent& e : Named(name)) {
    ++total.count;
    total.ns += static_cast<double>(e.end_ns - e.start_ns);
    total.items += e.items;
  }
  return total;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t origin = events_.empty() ? 0 : events_.front().start_ns;
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  for (const SpanEvent& e : events_) {
    if (e.end_ns == 0) continue;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                 "\"parent\":%u,\"items\":%llu}}",
                 first ? "" : ",\n", e.name, e.thread,
                 static_cast<double>(e.start_ns - origin) / 1e3,
                 static_cast<double>(e.end_ns - e.start_ns) / 1e3, e.id,
                 e.parent, static_cast<unsigned long long>(e.items));
    first = false;
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\"}\n");
  return std::fclose(f) == 0;
}

void SpanRecorder::PrintSelfTimes(std::FILE* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children per parent, to subtract the union of their intervals.
  std::vector<std::vector<uint32_t>> children(events_.size() + 1);
  for (const SpanEvent& e : events_) {
    if (e.end_ns != 0 && e.parent != 0) children[e.parent].push_back(e.id);
  }
  struct Row {
    uint64_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };
  std::map<std::string, Row> rows;
  for (const SpanEvent& e : events_) {
    if (e.end_ns == 0) continue;
    std::vector<std::pair<uint64_t, uint64_t>> covered;
    for (uint32_t c : children[e.id]) {
      const SpanEvent& child = events_[c - 1];
      covered.emplace_back(std::max(child.start_ns, e.start_ns),
                           std::min(child.end_ns, e.end_ns));
    }
    std::sort(covered.begin(), covered.end());
    uint64_t covered_ns = 0;
    uint64_t reach = e.start_ns;
    for (const auto& [begin, end] : covered) {
      const uint64_t from = std::max(begin, reach);
      if (end > from) {
        covered_ns += end - from;
        reach = end;
      }
    }
    Row& row = rows[e.name];
    ++row.count;
    row.total_ns += static_cast<double>(e.end_ns - e.start_ns);
    row.self_ns += static_cast<double>(e.end_ns - e.start_ns - covered_ns);
  }
  std::fprintf(out, "%-28s %8s %12s %12s\n", "span", "count", "total_ms",
               "self_ms");
  for (const auto& [name, row] : rows) {
    std::fprintf(out, "%-28s %8llu %12.3f %12.3f\n", name.c_str(),
                 static_cast<unsigned long long>(row.count),
                 row.total_ns / 1e6, row.self_ns / 1e6);
  }
}

}  // namespace perfbench
