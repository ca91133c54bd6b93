#include "workload.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "stream/generators.h"

namespace perfbench {

const std::vector<StreamShape>& Shapes() {
  // Thresholds come from the paper's Fig. 14/15 at the same memory
  // (100 KB, d = 8) and k (100); perfbench/README.md gives the argument.
  static const std::vector<StreamShape> shapes = {
      {"caida", &ltc::MakeCaidaLike, 2'000'000,
       /*precision_floor=*/0.95, /*are_ceiling=*/0.05},
      {"network", &ltc::MakeNetworkLike, 2'000'000,
       /*precision_floor=*/0.85, /*are_ceiling=*/0.10},
  };
  return shapes;
}

const StreamShape* FindShape(const std::string& name) {
  for (const StreamShape& shape : Shapes()) {
    if (shape.name == name) return &shape;
  }
  return nullptr;
}

Input Generate(const StreamShape& shape, uint64_t seed) {
  return Input{shape, seed, shape.make(shape.records, seed)};
}

Truth ComputeTruth(const Input& input,
                   const std::vector<ltc::Record>& records) {
  Truth truth;
  truth.records = records.size();
  std::unordered_map<ltc::ItemId, uint32_t> last_period;
  truth.by_item.reserve(records.size() / 4);
  last_period.reserve(records.size() / 4);
  for (const ltc::Record& record : records) {
    const uint32_t period = input.stream.PeriodOf(record.time);
    TruthRow& row = truth.by_item[record.item];
    row.item = record.item;
    ++row.frequency;
    auto [it, fresh] = last_period.try_emplace(record.item, period);
    if (fresh || it->second != period) {
      ++row.persistency;
      it->second = period;
    }
    truth.last_period = period;
  }
  std::vector<TruthRow> rows;
  rows.reserve(truth.by_item.size());
  for (auto& [item, row] : truth.by_item) {
    row.significance = kAlpha * static_cast<double>(row.frequency) +
                       kBeta * static_cast<double>(row.persistency);
    rows.push_back(row);
  }
  const size_t k = std::min(kTopK, rows.size());
  std::partial_sort(rows.begin(), rows.begin() + static_cast<long>(k),
                    rows.end(), [](const TruthRow& a, const TruthRow& b) {
                      return a.significance > b.significance ||
                             (a.significance == b.significance &&
                              a.item < b.item);
                    });
  rows.resize(k);
  truth.top = std::move(rows);
  for (const TruthRow& row : truth.top) truth.top_records += row.frequency;
  return truth;
}

Accuracy Score(const std::vector<Reported>& reported, const Truth& truth) {
  std::unordered_set<ltc::ItemId> true_top;
  for (const TruthRow& row : truth.top) true_top.insert(row.item);
  Accuracy accuracy;
  size_t hits = 0;
  double relative_error = 0.0;
  for (const Reported& r : reported) {
    if (true_top.count(r.item) > 0) ++hits;
    const auto it = truth.by_item.find(r.item);
    const double s = it == truth.by_item.end() ? 0.0 : it->second.significance;
    // An item the stream never held has no finite relative error; count
    // it as fully wrong.
    relative_error += s > 0.0 ? std::fabs(s - r.significance) / s : 1.0;
  }
  const size_t k = std::max<size_t>(truth.top.size(), 1);
  accuracy.precision = static_cast<double>(hits) / static_cast<double>(k);
  accuracy.are = reported.empty()
                     ? 1.0
                     : relative_error / static_cast<double>(reported.size());
  return accuracy;
}

}  // namespace perfbench
