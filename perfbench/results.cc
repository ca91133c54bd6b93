#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"

namespace perfbench {

ltc::LtcConfig PaperConfig(const Input& input, size_t memory_bytes) {
  ltc::LtcConfig config;
  config.memory_bytes = memory_bytes;
  config.cells_per_bucket = 8;
  config.alpha = kAlpha;
  config.beta = kBeta;
  config.period_mode = ltc::PeriodMode::kTimeBased;
  config.period_seconds = input.stream.period_length();
  return config;
}

std::vector<Reported> ToReported(
    const std::vector<ltc::SignificanceReport>& reports) {
  std::vector<Reported> out;
  out.reserve(reports.size());
  for (const auto& r : reports) out.push_back({r.item, r.significance});
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double MeanSpanUs(const char* name) {
  const SpanRecorder::Total t = SpanRecorder::Get().TotalOf(name);
  return t.ns / 1e3 / static_cast<double>(std::max<uint64_t>(t.count, 1));
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

void Results::Metric(const std::string& name, double value,
                     const std::string& unit, bool end_to_end) {
  metrics_[name] = {value, unit, end_to_end};
}

void Results::RoundMetric(const std::string& name,
                          const std::vector<double>& samples,
                          const std::string& unit) {
  std::fprintf(stderr, "rounds %s:", name.c_str());
  for (double v : samples) std::fprintf(stderr, " %.4g", v);
  std::fprintf(stderr, "\n");
  Metric(name, Median(samples), unit, true);
}

void Results::Count(const std::string& kind, uint64_t attempted,
                    uint64_t failed) {
  counts_[kind].first += attempted;
  counts_[kind].second += failed;
}

void Results::Check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

void Results::Setup(const std::string& phase, double seconds) {
  setups_[phase].push_back(seconds);
}

void Results::Finish(bool trace) const {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::fprintf(stderr, "%-30s %12s %8s\n", "operations", "attempted",
               "failed");
  for (const auto& [kind, c] : counts_) {
    std::fprintf(stderr, "%-30s %12llu %8llu\n", kind.c_str(),
                 static_cast<unsigned long long>(c.first),
                 static_cast<unsigned long long>(c.second));
    attempted += c.first;
    failed += c.second;
  }
  for (const std::string& f : failures_) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  // setup_s: the sum over phases of each phase's median set-up time.
  double setup = 0.0;
  for (const auto& [phase, times] : setups_) {
    std::fprintf(stderr, "setup %-14s median %.6f s over %zu rounds\n",
                 phase.c_str(), Median(times), times.size());
    setup += Median(times);
  }

  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  auto add = [&](const std::string& name, double value,
                 const std::string& unit) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12g", value);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + unit + "\"}";
    first = false;
  };
  if (!trace) add("setup_s", setup, "s");
  for (const auto& [name, e] : metrics_) {
    if (e.end_to_end == !trace) add(name, e.value, e.unit);
    if (trace && e.end_to_end) {
      // End-to-end figures of the traced run, for the tracing overhead.
      std::fprintf(stderr, "traced %s = %.9g %s\n", name.c_str(), e.value,
                   e.unit.c_str());
    }
  }
  if (trace) std::fprintf(stderr, "traced setup_s = %.9g s\n", setup);
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
