// Shared plumbing of the benchmark's four phases: the run's settings,
// the result sink (metrics, per-kind attempted/failed operation counts,
// correctness checks) and small statistics helpers.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/ltc.h"
#include "span_trace.h"
#include "workload.h"

namespace perfbench {

struct Settings {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned hardware_threads = 1;
  std::string work_dir;  // scratch directory for durable files
};

// A run repeats whole rounds until --seconds have passed, at least
// kMinRounds of them. One round runs one round of every phase, so each
// phase's samples are spread over the whole run: a few seconds of noise
// from other tenants of the host then disturb one round of every metric
// instead of all of one metric, and the per-round medians absorb it.
constexpr int kMinRounds = 3;

// Records per chunk, as ltc_cli feeds a trace.
constexpr size_t kChunk = 65536;

// The paper's default table (§V-C): 100 KB, d = 8, time-based periods.
ltc::LtcConfig PaperConfig(const Input& input, size_t memory_bytes = 100'000);

class Results {
 public:
  void Metric(const std::string& name, double value, const std::string& unit,
              bool end_to_end);
  // An end-to-end metric from one sample per round (or pass): prints the
  // samples to stderr and reports their median.
  void RoundMetric(const std::string& name, const std::vector<double>& samples,
                   const std::string& unit);
  // One attempted operation of a kind, and whether it failed.
  void Count(const std::string& kind, uint64_t attempted, uint64_t failed);
  // A correctness check; a false `ok` marks the run incorrect.
  void Check(bool ok, const std::string& what);
  // One phase's set-up time for one round (median taken per phase).
  void Setup(const std::string& phase, double seconds);

  bool correct() const { return failures_.empty(); }
  // Prints the operation table and any failed checks to stderr and the
  // result JSON as the last line of stdout.
  void Finish(bool trace) const;

 private:
  struct Entry {
    double value;
    std::string unit;
    bool end_to_end;
  };
  std::map<std::string, Entry> metrics_;
  std::map<std::string, std::pair<uint64_t, uint64_t>> counts_;
  std::map<std::string, std::vector<double>> setups_;
  std::vector<std::string> failures_;
};

double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);
// Mean duration, in microseconds, of the recorded spans of one name.
double MeanSpanUs(const char* name);
// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> values, double q);

// Serialized bytes of anything with Serialize(BinaryWriter&).
template <typename Table>
std::string Bytes(const Table& table) {
  ltc::BinaryWriter writer;
  table.Serialize(writer);
  return writer.data();
}

std::vector<Reported> ToReported(
    const std::vector<ltc::SignificanceReport>& reports);

// One of the four phases. Round() runs one whole round on fresh tables
// and checks its outputs; Report() emits the phase's metrics.
class Phase {
 public:
  virtual ~Phase() = default;
  virtual void Round(int round) = 0;
  virtual void Report() = 0;
};

struct PhaseContext {
  const Settings& settings;
  const Input& input;
  const Truth& truth;
  Results& results;
};

std::unique_ptr<Phase> MakeIngestPhase(const PhaseContext& context);
std::unique_ptr<Phase> MakeServePhase(const PhaseContext& context);
std::unique_ptr<Phase> MakeDurablePhase(const PhaseContext& context);
std::unique_ptr<Phase> MakeAggregatePhase(const PhaseContext& context);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
