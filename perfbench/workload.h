// Inputs and reference answers of the end-to-end benchmark.
//
// Every input is generated in-process from the run's seed by the
// library's dataset stand-ins; the tables under test only ever receive
// the generated records.
// The exact frequency, persistency and significance of every item are a
// plain count over the same records, sharing no code with Ltc, so the
// precision/ARE checks judge the library against an independent truth.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "stream/stream.h"

namespace perfbench {

// One workload: the library's dataset stand-in it feeds
// (stream/generators.h, the generators EXPERIMENTS.md validated) and the
// final top-k correctness gates for it.
struct StreamShape {
  std::string name;
  ltc::Stream (*make)(uint64_t num_records, uint64_t seed);
  uint64_t records = 0;
  double precision_floor = 0.0;
  double are_ceiling = 0.0;
};

// Every workload the benchmark knows, in BENCHMARK.json order.
const std::vector<StreamShape>& Shapes();
const StreamShape* FindShape(const std::string& name);

// Significance weights and k, the paper's defaults (§V-A, Fig. 14/15).
constexpr double kAlpha = 1.0;
constexpr double kBeta = 1.0;
constexpr size_t kTopK = 100;

struct Input {
  StreamShape shape;
  uint64_t seed = 0;
  ltc::Stream stream;  // timestamps nondecreasing
  const std::vector<ltc::Record>& records() const { return stream.records(); }
  uint32_t periods() const { return stream.num_periods(); }
};

Input Generate(const StreamShape& shape, uint64_t seed);

// Exact per-item statistics of a stream.
struct TruthRow {
  ltc::ItemId item = 0;
  uint64_t frequency = 0;
  uint64_t persistency = 0;
  double significance = 0.0;
};

struct Truth {
  std::unordered_map<ltc::ItemId, TruthRow> by_item;
  std::vector<TruthRow> top;  // the true top-kTopK, (s desc, item asc)
  uint64_t records = 0;
  uint32_t last_period = 0;    // period of the stream's last record
  uint64_t top_records = 0;    // records belonging to the true top-k
};

// Counts `records` (which must be a time-ordered stream of `input`'s
// period structure, e.g. the whole input or one item-partitioned slice).
Truth ComputeTruth(const Input& input,
                   const std::vector<ltc::Record>& records);

// Precision |reported ∩ true top-k| / k and ARE (1/|reported|)
// Σ |s − ŝ| / s over the reported items (paper §V-A).
struct Accuracy {
  double precision = 0.0;
  double are = 0.0;
};
struct Reported {
  ltc::ItemId item;
  double significance;
};
Accuracy Score(const std::vector<Reported>& reported, const Truth& truth);

// splitmix64: the seeded generator of the request schedules.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
