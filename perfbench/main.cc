// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--trace-out <file.json>]
//   perfbench --reference --workload <name> --seed <n>
//
// Every run generates its workload's stream from the seed, computes the
// exact answers with a plain count, and runs four phases over the
// library's public entry points: ingest (pipeline and one table), serve
// (live feed + open-loop queries over TCP), durable (snapshot rotation
// and the paged store) and aggregate (pushes into an aggregator). The
// phases take turns, one round each, until --seconds have passed. Each
// round checks its outputs. The last line of stdout is one JSON object:
// correct, attempted, failed and the metrics (end-to-end ones with
// --trace 0, per-layer ones with --trace 1). perfbench/README.md maps
// each layer metric to the end-to-end metric it should move.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--trace-out FILE]\n"
               "       perfbench --reference --workload NAME --seed N\n");
  return 2;
}

void PrintMakeUp(const Input& input, const Truth& truth) {
  std::fprintf(stderr,
               "input %s seed %llu: %llu records, %zu distinct items, %u "
               "periods (last reached: %u), top-%zu share of records %.4f\n",
               input.shape.name.c_str(),
               static_cast<unsigned long long>(input.seed),
               static_cast<unsigned long long>(truth.records),
               truth.by_item.size(), input.periods(), truth.last_period,
               truth.top.size(),
               static_cast<double>(truth.top_records) /
                   static_cast<double>(std::max<uint64_t>(truth.records, 1)));
}

// The exact reference as JSON: make-up plus the true top-k rows.
void PrintReference(const Input& input, const Truth& truth) {
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"records\":%llu,"
              "\"distinct\":%zu,\"periods\":%u,\"top_share\":%.6f,\"top\":[",
              input.shape.name.c_str(),
              static_cast<unsigned long long>(input.seed),
              static_cast<unsigned long long>(truth.records),
              truth.by_item.size(), input.periods(),
              static_cast<double>(truth.top_records) /
                  static_cast<double>(std::max<uint64_t>(truth.records, 1)));
  for (size_t i = 0; i < truth.top.size(); ++i) {
    const TruthRow& row = truth.top[i];
    std::printf("%s{\"item\":%llu,\"frequency\":%llu,\"persistency\":%llu,"
                "\"significance\":%.1f}",
                i == 0 ? "" : ",", static_cast<unsigned long long>(row.item),
                static_cast<unsigned long long>(row.frequency),
                static_cast<unsigned long long>(row.persistency),
                row.significance);
  }
  std::printf("]}\n");
}

int Main(int argc, char** argv) {
  Settings settings;
  bool reference = false;
  std::string trace_out;
  settings.work_dir = ".bench_build/work";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--reference") {
      reference = true;
    } else if (arg == "--workload" && has_value) {
      settings.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      settings.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      settings.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      settings.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--work-dir" && has_value) {
      settings.work_dir = argv[++i];
    } else if (arg == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else {
      return Usage();
    }
  }
  const StreamShape* shape = FindShape(settings.workload);
  if (shape == nullptr || settings.seconds <= 0.0) return Usage();
  settings.hardware_threads =
      std::max(1u, std::thread::hardware_concurrency());

  const Input input = Generate(*shape, settings.seed);
  const Truth truth = ComputeTruth(input, input.records());
  if (reference) {
    PrintReference(input, truth);
    return 0;
  }
  // The previous run's files go first, well before anything is timed.
  std::filesystem::remove_all(settings.work_dir);
  std::filesystem::create_directories(settings.work_dir);
  PrintMakeUp(input, truth);
  if (settings.trace) SpanRecorder::Get().Enable();

  Results results;
  const PhaseContext context{settings, input, truth, results};
  std::vector<std::unique_ptr<Phase>> phases;
  phases.push_back(MakeIngestPhase(context));
  phases.push_back(MakeServePhase(context));
  phases.push_back(MakeDurablePhase(context));
  phases.push_back(MakeAggregatePhase(context));
  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(settings.seconds * 1e9);
  int rounds = 0;
  std::vector<double> phase_seconds(phases.size(), 0.0);
  while (rounds < kMinRounds || NowNs() < deadline) {
    for (size_t i = 0; i < phases.size(); ++i) {
      const uint64_t start = NowNs();
      phases[i]->Round(rounds);
      phase_seconds[i] += (NowNs() - start) / 1e9;
    }
    ++rounds;
  }
  std::fprintf(stderr,
               "%d rounds of all four phases; seconds spent in ingest %.1f, "
               "serve %.1f, durable %.1f, aggregate %.1f\n",
               rounds, phase_seconds[0], phase_seconds[1], phase_seconds[2],
               phase_seconds[3]);
  for (const auto& phase : phases) phase->Report();

  if (settings.trace) {
    SpanRecorder::Get().PrintSelfTimes(stderr);
    if (!trace_out.empty()) {
      results.Check(SpanRecorder::Get().WriteChromeTrace(trace_out),
                    "cannot write the trace file " + trace_out);
      std::fprintf(stderr, "trace written to %s\n", trace_out.c_str());
    }
  }
  results.Finish(settings.trace);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
