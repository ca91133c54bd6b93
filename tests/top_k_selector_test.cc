// The bounded top-k selector (core/top_k_selector.h) against the full
// sort it replaced. The reference below is the pre-selector algorithm:
// read every cell, drop the empty ones, sort all of them by
// (significance desc, item asc), truncate to k. Cells are read back out
// of the table's serialized image, so the reference shares no code with
// the selection pass under test. Every answer must match it
// bit for bit — item, both fields and the significance's exact bits —
// at every tested k, under heavy integer ties (α = β = 1) and fractional
// weights, on nearly empty and empty tables, for Ltc::TopK,
// Ltc::SnapshotTopK and ShardedLtc::TopK.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/serial.h"
#include "core/ltc.h"
#include "core/sharded_ltc.h"
#include "core/top_k_selector.h"

namespace ltc {
namespace {

struct RawCell {
  uint64_t id;
  uint32_t freq;
  uint32_t counter;
  uint8_t flags;
};

// Parses the cell lanes out of Ltc::Serialize's image (format v3: the
// config, the CLOCK state, then m and one lane per field).
std::vector<RawCell> CellsOf(const Ltc& table) {
  BinaryWriter writer;
  table.Serialize(writer);
  BinaryReader reader(writer.data());
  reader.GetU32();  // magic
  reader.GetU32();  // version
  reader.GetU64();  // memory_bytes
  reader.GetU32();  // cells_per_bucket
  reader.GetDouble();  // alpha
  reader.GetDouble();  // beta
  for (int i = 0; i < 4; ++i) reader.GetU8();  // ltr, policy, de, mode
  reader.GetU64();     // items_per_period
  reader.GetDouble();  // period_seconds
  reader.GetU64();     // seed
  reader.GetU64();     // items_seen
  reader.GetU64();     // current_period
  reader.GetU64();     // scan_cursor
  reader.GetDouble();  // last_time
  reader.GetU64();     // merged_history_periods
  const uint64_t m = reader.GetU64();
  EXPECT_EQ(m, table.num_cells()) << "image layout drifted from this parser";
  std::vector<RawCell> cells(m);
  for (RawCell& c : cells) c.id = reader.GetU64();
  for (RawCell& c : cells) c.freq = reader.GetU32();
  for (RawCell& c : cells) c.counter = reader.GetU32();
  for (RawCell& c : cells) c.flags = reader.GetU8();
  EXPECT_FALSE(reader.failed());
  EXPECT_TRUE(reader.AtEnd());
  return cells;
}

// The full-sort reference over the union of `tables`. `credit_pending`
// reports each cell as SnapshotTopK does (pending flags credited).
std::vector<SignificanceReport> FullSortTopK(
    const std::vector<const Ltc*>& tables, size_t k, bool credit_pending) {
  std::vector<SignificanceReport> all;
  for (const Ltc* table : tables) {
    const LtcConfig& config = table->config();
    const uint8_t pending_mask =
        !credit_pending ? 0 : config.deviation_eliminator ? 0x3 : 0x1;
    for (const RawCell& cell : CellsOf(*table)) {
      if (cell.id == 0 &&
          config.alpha * cell.freq + config.beta * cell.counter == 0.0) {
        continue;
      }
      const uint64_t credited =
          cell.counter + static_cast<uint64_t>(
                             __builtin_popcount(cell.flags & pending_mask));
      all.push_back({cell.id, cell.freq, credited,
                     config.alpha * cell.freq + config.beta * credited});
    }
  }
  std::sort(all.begin(), all.end(),
            [](const SignificanceReport& a, const SignificanceReport& b) {
              if (a.significance != b.significance) {
                return a.significance > b.significance;
              }
              return a.item < b.item;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

void ExpectSameReports(const std::vector<SignificanceReport>& got,
                       const std::vector<SignificanceReport>& want,
                       const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].item, want[i].item) << label << " rank " << i;
    EXPECT_EQ(got[i].frequency, want[i].frequency) << label << " rank " << i;
    EXPECT_EQ(got[i].persistency, want[i].persistency)
        << label << " rank " << i;
    EXPECT_EQ(Bits(got[i].significance), Bits(want[i].significance))
        << label << " rank " << i;
    if (::testing::Test::HasFailure()) return;
  }
}

struct Scenario {
  const char* name;
  double alpha;
  double beta;
  size_t memory_bytes;
  uint32_t cells_per_bucket;
  uint64_t distinct;  // item universe drawn from
  uint64_t records;
  bool finalize;
};

// α = β = 1 gives integer significances and many ties; α = 0.3 gives
// fractional ones. Tables range from 128 to 2048 cells, so k = 1024 is
// both above and below m. The last scenario fills 1 000 cells with 20
// items: fewer occupants than most k.
const Scenario kScenarios[] = {
    {"ties_small", 1.0, 1.0, 2 * 1024, 8, 400, 6'000, false},
    {"ties_medium", 1.0, 1.0, 16 * 1024, 4, 3'000, 30'000, true},
    {"fractional_medium", 0.3, 1.0, 16 * 1024, 8, 3'000, 30'000, false},
    {"fractional_large", 0.3, 1.0, 32 * 1024, 8, 6'000, 40'000, true},
    {"sparse", 1.0, 1.0, 16 * 1000, 8, 20, 2'000, false},
};

LtcConfig ConfigOf(const Scenario& s, uint64_t seed) {
  LtcConfig config;
  config.memory_bytes = s.memory_bytes;
  config.cells_per_bucket = s.cells_per_bucket;
  config.alpha = s.alpha;
  config.beta = s.beta;
  config.items_per_period = std::max<uint64_t>(1, s.records / 25);
  config.seed = seed;
  return config;
}

// A skewed stream: small item IDs are drawn far more often, so the table
// holds a mix of heavy, light and freshly admitted occupants.
template <typename Table>
void Feed(Table& table, const Scenario& s, uint64_t seed) {
  Rng rng(seed * 7919 + 17);
  for (uint64_t i = 0; i < s.records; ++i) {
    table.Insert(1 + rng.Uniform(1 + rng.Uniform(s.distinct)));
  }
  if (s.finalize) table.Finalize();
}

// The named sizes, plus every k up to 64 so some k lands on a run of
// tied significances.
std::vector<size_t> KsFor(size_t m, uint32_t d) {
  std::vector<size_t> ks = {d, 100, m - 1, m, m + 1, 1024};
  for (size_t k = 0; k <= 64; ++k) ks.push_back(k);
  return ks;
}

constexpr uint64_t kSeeds[] = {1, 2, 3};

TEST(TopKSelector, MatchesTheSortedPrefixOfShuffledReports) {
  Rng rng(99);
  std::vector<SignificanceReport> reports;
  for (ItemId item = 1; item <= 300; ++item) {
    // Eight distinct significances over 300 items: ties everywhere.
    reports.push_back({item, 0, 0, static_cast<double>(rng.Uniform(8))});
  }
  std::vector<SignificanceReport> sorted = reports;
  std::sort(sorted.begin(), sorted.end(), RanksBefore);
  for (int round = 0; round < 5; ++round) {
    std::shuffle(reports.begin(), reports.end(), rng);
    for (size_t k = 0; k <= reports.size() + 2; ++k) {
      TopKSelector top(k, reports.size());
      for (const auto& r : reports) top.Offer(r);
      std::vector<SignificanceReport> want(
          sorted.begin(),
          sorted.begin() + static_cast<std::ptrdiff_t>(
                               std::min(k, sorted.size())));
      ExpectSameReports(std::move(top).Take(), want,
                        "k=" + std::to_string(k));
      if (HasFailure()) return;
    }
  }
}

TEST(TopKSelection, LtcTopKMatchesFullSort) {
  for (const Scenario& s : kScenarios) {
    for (uint64_t seed : kSeeds) {
      Ltc table(ConfigOf(s, seed));
      Feed(table, s, seed);
      for (size_t k : KsFor(table.num_cells(), s.cells_per_bucket)) {
        ExpectSameReports(table.TopK(k), FullSortTopK({&table}, k, false),
                          std::string(s.name) + " seed " +
                              std::to_string(seed) + " k=" +
                              std::to_string(k));
        if (HasFailure()) return;
      }
    }
  }
}

TEST(TopKSelection, SnapshotTopKMatchesFullSort) {
  for (const Scenario& s : kScenarios) {
    for (uint64_t seed : kSeeds) {
      Ltc table(ConfigOf(s, seed));
      Feed(table, s, seed);
      for (size_t k : KsFor(table.num_cells(), s.cells_per_bucket)) {
        ExpectSameReports(table.SnapshotTopK(k),
                          FullSortTopK({&table}, k, true),
                          std::string(s.name) + " seed " +
                              std::to_string(seed) + " k=" +
                              std::to_string(k));
        if (HasFailure()) return;
      }
    }
  }
}

TEST(TopKSelection, ShardedTopKMatchesFullSortOfTheShardUnion) {
  for (uint32_t shards : {1u, 4u}) {
    for (const Scenario& s : kScenarios) {
      for (uint64_t seed : kSeeds) {
        ShardedLtc table(ConfigOf(s, seed), shards);
        Feed(table, s, seed);
        std::vector<const Ltc*> parts;
        size_t m = 0;
        for (uint32_t i = 0; i < shards; ++i) {
          parts.push_back(&table.shard(i));
          m += table.shard(i).num_cells();
        }
        for (size_t k : KsFor(m, s.cells_per_bucket)) {
          ExpectSameReports(table.TopK(k), FullSortTopK(parts, k, false),
                            std::string(s.name) + " shards " +
                                std::to_string(shards) + " seed " +
                                std::to_string(seed) + " k=" +
                                std::to_string(k));
          if (HasFailure()) return;
        }
      }
    }
  }
}

TEST(TopKSelection, TiesAreExercised) {
  // Guards against a vacuous suite: the integer-weight scenario must put
  // equal significances next to each other inside the reported prefix.
  const Scenario& s = kScenarios[1];
  Ltc table(ConfigOf(s, 1));
  Feed(table, s, 1);
  const auto top = table.TopK(table.num_cells());
  size_t ties = 0;
  for (size_t i = 1; i < top.size(); ++i) {
    if (top[i].significance == top[i - 1].significance) ++ties;
  }
  EXPECT_GT(ties, top.size() / 4);
}

TEST(TopKSelection, FewerOccupantsThanKReturnsThemAll) {
  LtcConfig config;
  config.memory_bytes = 16 * 1024;
  config.alpha = 0.3;
  Ltc table(config);
  for (int round = 0; round < 3; ++round) {
    for (ItemId item = 1; item <= 10; ++item) table.Insert(item);
  }
  for (size_t k : {size_t{11}, size_t{100}, size_t{1024},
                   table.num_cells() + 1}) {
    const auto top = table.TopK(k);
    ASSERT_EQ(top.size(), 10u);
    ExpectSameReports(top, FullSortTopK({&table}, k, false), "TopK");
    ExpectSameReports(table.SnapshotTopK(k), FullSortTopK({&table}, k, true),
                      "SnapshotTopK");
  }
}

TEST(TopKSelection, EmptyTableYieldsNothing) {
  LtcConfig config;
  config.memory_bytes = 4 * 1024;
  Ltc table(config);
  ShardedLtc sharded(config, 4);
  for (size_t k : {size_t{0}, size_t{1}, size_t{100}, size_t{1024}}) {
    EXPECT_TRUE(table.TopK(k).empty());
    EXPECT_TRUE(table.SnapshotTopK(k).empty());
    EXPECT_TRUE(sharded.TopK(k).empty());
  }
}

TEST(TopKSelection, TopKIsAPrefixOfTopKPlusOne) {
  for (const Scenario& s : kScenarios) {
    Ltc table(ConfigOf(s, 5));
    Feed(table, s, 5);
    ShardedLtc sharded(ConfigOf(s, 5), 4);
    Feed(sharded, s, 5);
    const size_t limit = std::min<size_t>(table.num_cells() + 1, 300);
    auto prev = table.TopK(0);
    auto prev_snapshot = table.SnapshotTopK(0);
    auto prev_sharded = sharded.TopK(0);
    for (size_t k = 1; k <= limit; ++k) {
      const auto next = table.TopK(k);
      const auto next_snapshot = table.SnapshotTopK(k);
      const auto next_sharded = sharded.TopK(k);
      const std::string label = std::string(s.name) + " k=" +
                                std::to_string(k);
      ASSERT_LE(prev.size(), next.size()) << label;
      ExpectSameReports(prev, {next.begin(), next.begin() + prev.size()},
                        label + " TopK");
      ExpectSameReports(prev_snapshot,
                        {next_snapshot.begin(),
                         next_snapshot.begin() + prev_snapshot.size()},
                        label + " SnapshotTopK");
      ExpectSameReports(prev_sharded,
                        {next_sharded.begin(),
                         next_sharded.begin() + prev_sharded.size()},
                        label + " sharded");
      if (HasFailure()) return;
      prev = next;
      prev_snapshot = next_snapshot;
      prev_sharded = next_sharded;
    }
  }
}

}  // namespace
}  // namespace ltc
