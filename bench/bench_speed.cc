// Insertion-throughput microbenchmarks (the paper's "high speed" claim,
// §I/§V): million insertions per second for every algorithm at the 100 KB
// budget on a CAIDA-like stream, via google-benchmark. Only relative
// numbers are meaningful across machines.
//
// After the google-benchmark run, main() prints one versioned JSON
// document (schema in bench_common.h, reading guide in docs/PERF.md)
// recording (a) LTC insert throughput under each supported bucket-probe
// backend — scalar vs vectorized, the perf trajectory of the SoA layout
// — (b) the metrics sink guard: throughput with no sink attached vs
// a sink attached (docs/TELEMETRY.md), so an instrumentation change
// that slows the detached hot path shows up as a diff in CI logs, not
// as a silent regression, and (c) the cost of one TopK against one
// table clone. Set LTC_BENCH_JSON_OUT=<path> to also write
// the document to a file (CI commits it as
// bench/trajectory/BENCH_speed.json).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/table_layout.h"

namespace ltc {
namespace bench {
namespace {

constexpr size_t kMemory = 100 * 1024;
constexpr size_t kK = 100;

// One shared, lazily built stream; sized down for micro runs.
const Stream& SharedStream() {
  static const Stream* stream =
      new Stream(MakeCaidaLike(ScaledRecords(500'000, 10'000'000), 42));
  return *stream;
}

// Times one pass of the whole stream into a fresh reporter per
// iteration, built (and the previous one destroyed) outside the timed
// region. Reusing one reporter would time a warm structure, and for LTC
// it would time the wrong path: from the second pass on every timestamp
// is behind the table's clock, so it is clamped and no CLOCK sweep runs.
template <typename Reporter, typename... Args>
void FeedAll(benchmark::State& state, const Args&... args) {
  const Stream& stream = SharedStream();
  std::optional<Reporter> reporter;
  for (auto _ : state) {
    state.PauseTiming();
    reporter.emplace(args...);
    state.ResumeTiming();
    reporter->InsertBatch(stream.records(), stream);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(stream.size()));
}

void BM_LtcInsert(benchmark::State& state) {
  const Stream& stream = SharedStream();
  LtcConfig config;
  config.memory_bytes = kMemory;
  FeedAll<LtcReporter>(state, config, stream.num_periods(),
                       stream.duration());
}
BENCHMARK(BM_LtcInsert)->Unit(benchmark::kMillisecond);

void BM_SpaceSavingInsert(benchmark::State& state) {
  FeedAll<SpaceSavingReporter>(state, kMemory);
}
BENCHMARK(BM_SpaceSavingInsert)->Unit(benchmark::kMillisecond);

void BM_LossyCountingInsert(benchmark::State& state) {
  FeedAll<LossyCountingReporter>(state, kMemory);
}
BENCHMARK(BM_LossyCountingInsert)->Unit(benchmark::kMillisecond);

void BM_MisraGriesInsert(benchmark::State& state) {
  FeedAll<MisraGriesReporter>(state, kMemory);
}
BENCHMARK(BM_MisraGriesInsert)->Unit(benchmark::kMillisecond);

void BM_CmHeapInsert(benchmark::State& state) {
  FeedAll<SketchHeapFrequentReporter>(state, SketchKind::kCountMin, kMemory,
                                      kK);
}
BENCHMARK(BM_CmHeapInsert)->Unit(benchmark::kMillisecond);

void BM_CuHeapInsert(benchmark::State& state) {
  FeedAll<SketchHeapFrequentReporter>(state, SketchKind::kCu, kMemory, kK);
}
BENCHMARK(BM_CuHeapInsert)->Unit(benchmark::kMillisecond);

void BM_CountHeapInsert(benchmark::State& state) {
  FeedAll<SketchHeapFrequentReporter>(state, SketchKind::kCount, kMemory, kK);
}
BENCHMARK(BM_CountHeapInsert)->Unit(benchmark::kMillisecond);

void BM_BfCuPersistentInsert(benchmark::State& state) {
  FeedAll<BfSketchPersistentReporter>(state, SketchKind::kCu, kMemory, kK);
}
BENCHMARK(BM_BfCuPersistentInsert)->Unit(benchmark::kMillisecond);

void BM_PieInsert(benchmark::State& state) {
  FeedAll<PieReporter>(state, kMemory, SharedStream().num_periods());
}
BENCHMARK(BM_PieInsert)->Unit(benchmark::kMillisecond);

void BM_CombinedSignificantInsert(benchmark::State& state) {
  FeedAll<CombinedSignificantReporter>(state, SketchKind::kCu, kMemory, kK,
                                       1.0, 1.0);
}
BENCHMARK(BM_CombinedSignificantInsert)->Unit(benchmark::kMillisecond);

// Core micro-op: a single LTC insert on a warm table.
void BM_LtcSingleInsert(benchmark::State& state) {
  LtcConfig config;
  config.memory_bytes = kMemory;
  config.items_per_period = 10'000;
  Ltc table(config);
  uint64_t key = 1;
  for (auto _ : state) {
    table.Insert((key++ % 50'000) + 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LtcSingleInsert);

// The TopK row: the serving table's shape (256 KB, d = 8, time-based
// pacing, as perfbench's serve phase) filled by a 2 M-record CAIDA-like
// stream. The stream is fixed, not LTC_SCALE'd, so the table is full at
// every scale. TopK(k) is timed against CloneAtBarrier on the same table
// in the same run: a clone is one linear copy of the table, so the ratio
// says how far TopK is from a single pass.
constexpr size_t kTopKTableBytes = 256 * 1024;
constexpr size_t kTopKK = 100;

struct TopKCost {
  size_t occupied_cells;
  double topk_us;   // best of 3 runs, each the mean of 20 calls
  double clone_us;  // the same, for CloneAtBarrier
};

TopKCost MeasureTopK() {
  constexpr int kCalls = 20;
  const Stream stream = MakeCaidaLike(2'000'000, 7);
  LtcConfig config;
  config.memory_bytes = kTopKTableBytes;
  config.period_mode = PeriodMode::kTimeBased;
  config.period_seconds = stream.duration() / stream.num_periods();
  Ltc table(config);
  table.InsertBatch(stream.records());

  const auto best_us = [&](auto&& call) {
    double best = 0.0;
    for (int r = 0; r < 3; ++r) {
      const auto start = std::chrono::steady_clock::now();
      for (int i = 0; i < kCalls; ++i) call();
      const double us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - start)
                            .count() /
                        kCalls;
      if (r == 0 || us < best) best = us;
    }
    return best;
  };
  size_t sink = 0;
  TopKCost cost;
  cost.occupied_cells = table.ComputeStats().occupied_cells;
  cost.topk_us = best_us([&] { sink += table.TopK(kTopKK).size(); });
  cost.clone_us = best_us([&] { sink += table.CloneAtBarrier().num_cells(); });
  benchmark::DoNotOptimize(sink);
  return cost;
}

}  // namespace

// Perf-trajectory report (docs/PERF.md): one versioned JSON document
// combining
//  * probe_throughput — best-of-3 full-stream LTC feed under each
//    supported bucket-probe backend (scalar is always measured, so the
//    vectorized win is recorded next to its baseline), and
//  * sink_guard — the same feed with the metrics sink detached vs
//    attached (docs/TELEMETRY.md). With LTC_METRICS compiled out both
//    runs are the identical uninstrumented code (sink_compiled tells
//    the reader which case the numbers describe), and
//  * topk — TopK(100) vs CloneAtBarrier on a full 256 KB table (see
//    MeasureTopK).
// The document goes to stdout and, when LTC_BENCH_JSON_OUT is set, to
// that path (the CI bench-trajectory step commits it as
// bench/trajectory/BENCH_speed.json).
void ReportPerfTrajectory() {
  const Stream& stream = SharedStream();
  LtcConfig config;
  config.memory_bytes = kMemory;
  config.period_mode = PeriodMode::kTimeBased;
  config.period_seconds = stream.duration() / stream.num_periods();

#ifdef LTC_METRICS
  constexpr bool kSinkCompiled = true;
#else
  constexpr bool kSinkCompiled = false;
#endif

  auto best_mops = [&](bool with_sink) {
    double best = 0.0;
    for (int r = 0; r < 3; ++r) {
      Ltc table(config);
#ifdef LTC_METRICS
      LtcMetricsSink sink;
      if (with_sink) table.AttachMetricsSink(&sink);
#else
      (void)with_sink;
#endif
      const auto start = std::chrono::steady_clock::now();
      table.InsertBatch(stream.records());
      const auto end = std::chrono::steady_clock::now();
      const double seconds =
          std::chrono::duration<double>(end - start).count();
      if (seconds <= 0.0) continue;
      const double mops =
          static_cast<double>(stream.size()) / seconds / 1e6;
      if (mops > best) best = mops;
    }
    return best;
  };

  // Header first, while the default dispatch is still active — its
  // probe_backend field records what a plain run of this build uses.
  const BenchReportHeader header = MakeBenchReportHeader("bench_speed");

  struct BackendResult {
    const char* name;
    double mops;
  };
  std::vector<BackendResult> probe_results;
  for (ProbeBackend backend :
       {ProbeBackend::kScalar, ProbeBackend::kSse2, ProbeBackend::kAvx2}) {
    if (SetProbeBackend(backend) != backend) continue;  // unsupported
    probe_results.push_back({ProbeBackendName(backend), best_mops(false)});
  }
  SetProbeBackend(BestSupportedProbeBackend());

  const double off = best_mops(false);
  const double on = best_mops(true);
  const double overhead_pct = off > 0.0 ? (off - on) / off * 100.0 : 0.0;

  const TopKCost topk = MeasureTopK();

  std::string json = "{\n  " + BenchReportHeaderJson(header) + ",\n";
  json += "  \"records\": " + std::to_string(stream.size()) + ",\n";
  json += "  \"memory_bytes\": " + std::to_string(kMemory) + ",\n";
  json += "  \"probe_throughput\": [\n";
  char line[256];
  for (size_t i = 0; i < probe_results.size(); ++i) {
    std::snprintf(line, sizeof(line),
                  "    {\"backend\": \"%s\", \"insert_mops\": %.3f}%s\n",
                  probe_results[i].name, probe_results[i].mops,
                  i + 1 < probe_results.size() ? "," : "");
    json += line;
  }
  json += "  ],\n";
  std::snprintf(line, sizeof(line),
                "  \"sink_guard\": {\"sink_compiled\": %s, "
                "\"sink_off_mops\": %.3f, \"sink_on_mops\": %.3f, "
                "\"overhead_pct\": %.2f},\n",
                kSinkCompiled ? "true" : "false", off, on, overhead_pct);
  json += line;
  std::snprintf(line, sizeof(line),
                "  \"topk\": {\"table_bytes\": %zu, \"k\": %zu, "
                "\"occupied_cells\": %zu, \"topk_us\": %.2f, "
                "\"clone_us\": %.2f}\n",
                kTopKTableBytes, kTopKK, topk.occupied_cells, topk.topk_us,
                topk.clone_us);
  json += line;
  json += "}\n";

  std::fputs(json.c_str(), stdout);
  if (!MaybeWriteBenchJson(json)) {
    std::fprintf(stderr, "bench_speed: failed to write LTC_BENCH_JSON_OUT\n");
  }
}

}  // namespace bench
}  // namespace ltc

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  ltc::bench::ReportPerfTrajectory();
  return 0;
}
