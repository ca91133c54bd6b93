// Tests for the jumping-window LTC extension.

#include <cmath>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/serial.h"
#include "core/windowed_ltc.h"

namespace ltc {
namespace {

LtcConfig WindowConfig(size_t memory = 8 * 1024) {
  LtcConfig config;
  config.memory_bytes = memory;
  config.period_mode = PeriodMode::kTimeBased;
  config.period_seconds = 1.0;
  return config;
}

// The answer the point queries must reproduce: a copy of the active
// pane, Finalized, plus the previous pane's answer. The panes are read
// back out of the window's serialized image (format v2: magic, version,
// window periods, current pane, previous-live flag, last time, then the
// active and previous panes).
struct FinalizedPanes {
  Ltc active;
  Ltc previous;
  bool previous_live;
};

FinalizedPanes ReadFinalizedPanes(const WindowedLtc& window) {
  BinaryWriter writer;
  window.Serialize(writer);
  BinaryReader reader(writer.data());
  reader.GetU32();  // magic
  reader.GetU32();  // format version
  reader.GetU32();  // window periods
  reader.GetU64();  // current pane
  const bool previous_live = reader.GetU8() != 0;
  reader.GetDouble();  // last time
  std::optional<Ltc> active = Ltc::Deserialize(reader);
  std::optional<Ltc> previous = Ltc::Deserialize(reader);
  EXPECT_TRUE(active.has_value() && previous.has_value() && reader.AtEnd());
  active->Finalize();
  return {std::move(*active), std::move(*previous), previous_live};
}

TEST(WindowedLtc, PointQueriesMatchFinalizedPaneCopy) {
  for (bool eliminator : {true, false}) {
    SCOPED_TRACE(eliminator ? "eliminator on" : "eliminator off");
    LtcConfig config = WindowConfig(4 * 1024);
    config.deviation_eliminator = eliminator;
    WindowedLtc window(config, 4);  // panes of 2 periods
    Rng rng(eliminator ? 7 : 8);
    double time = 0.0;
    int checks = 0;
    for (int i = 0; i < 30000; ++i) {
      // Mostly small steps; now and then a jump to exactly the next
      // period boundary, which is a pane boundary every other time.
      const bool to_boundary = rng.Bernoulli(0.002);
      time = to_boundary ? std::floor(time) + 1.0
                         : time + rng.UniformDouble() * 0.004;
      // A skewed mix: a few heavy items, a long tail.
      const ItemId item = rng.Bernoulli(0.3) ? rng.UniformRange(1, 8)
                                             : rng.UniformRange(9, 400);
      window.Insert(item, time);
      if (!to_boundary && i % 211 != 0) continue;
      ++checks;
      const FinalizedPanes panes = ReadFinalizedPanes(window);
      for (ItemId probe = 0; probe <= 420; ++probe) {
        double significance = panes.active.QuerySignificance(probe);
        uint64_t frequency = panes.active.EstimateFrequency(probe);
        uint64_t persistency = panes.active.EstimatePersistency(probe);
        if (panes.previous_live) {
          significance += panes.previous.QuerySignificance(probe);
          frequency += panes.previous.EstimateFrequency(probe);
          persistency += panes.previous.EstimatePersistency(probe);
        }
        ASSERT_EQ(window.QuerySignificance(probe), significance)
            << "item " << probe << " at t=" << time;
        ASSERT_EQ(window.EstimateFrequency(probe), frequency)
            << "item " << probe << " at t=" << time;
        ASSERT_EQ(window.EstimatePersistency(probe), persistency)
            << "item " << probe << " at t=" << time;
      }
    }
    EXPECT_GT(checks, 150);
    EXPECT_GT(window.current_pane(), 10u) << "too few pane rotations";
  }
}

TEST(WindowedLtc, GeometryAndBudget) {
  WindowedLtc window(WindowConfig(16 * 1024), 10);
  EXPECT_EQ(window.window_periods(), 10u);
  EXPECT_EQ(window.pane_periods(), 5u);
  EXPECT_LE(window.MemoryBytes(), 16u * 1024);
}

TEST(WindowedLtc, CountsWithinTheActiveWindow) {
  WindowedLtc window(WindowConfig(), 4);  // panes of 2 periods
  // Item 7 once per period in periods 0..3.
  for (int p = 0; p < 4; ++p) window.Insert(7, p + 0.5);
  auto top = window.TopK(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].item, 7u);
  // Coverage: previous pane (periods 0-1) + active (2-3) -> f=4, p=4.
  EXPECT_EQ(top[0].frequency, 4u);
  EXPECT_EQ(top[0].persistency, 4u);
  EXPECT_EQ(window.WindowStartPeriod(), 0u);
}

TEST(WindowedLtc, OldHistoryExpires) {
  WindowedLtc window(WindowConfig(), 4);  // panes of 2 periods
  // A storm of item 9 confined to periods 0-1 (pane 0).
  for (int i = 0; i < 1'000; ++i) {
    window.Insert(9, 0.001 * i);  // all inside period 0-1
  }
  // Quiet item 7 afterwards, periods 2..7 (panes 1..3).
  for (int p = 2; p < 8; ++p) window.Insert(7, p + 0.5);

  // By period 6-7 (pane 3), pane 0's storm is gone entirely.
  EXPECT_EQ(window.QuerySignificance(9), 0.0);
  EXPECT_GT(window.QuerySignificance(7), 0.0);
  auto top = window.TopK(5);
  for (const auto& report : top) EXPECT_NE(report.item, 9u);
  EXPECT_GE(window.WindowStartPeriod(), 4u);
}

TEST(WindowedLtc, SkippedPanesClearEverything) {
  WindowedLtc window(WindowConfig(), 4);
  window.Insert(5, 0.5);
  // Next arrival far in the future: several empty panes in between.
  window.Insert(6, 100.5);
  EXPECT_EQ(window.QuerySignificance(5), 0.0);
  EXPECT_GT(window.QuerySignificance(6), 0.0);
}

TEST(WindowedLtc, QueriesAreNonDestructive) {
  WindowedLtc window(WindowConfig(), 6);
  window.Insert(1, 0.5);
  window.Insert(1, 1.5);
  double first = window.QuerySignificance(1);
  double second = window.QuerySignificance(1);
  EXPECT_EQ(first, second);
  auto a = window.TopK(3);
  auto b = window.TopK(3);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].significance, b[i].significance);
  }
  // And inserts still work afterwards.
  window.Insert(1, 2.5);
  EXPECT_GT(window.QuerySignificance(1), first);
}

TEST(WindowedLtc, PaneTransitionAddsFieldsExactly) {
  WindowedLtc window(WindowConfig(), 4);  // panes of 2 periods
  // Item 3: twice in period 1 (pane 0) and once in period 2 (pane 1).
  window.Insert(3, 1.2);
  window.Insert(3, 1.7);
  window.Insert(3, 2.5);
  auto top = window.TopK(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].frequency, 3u);
  EXPECT_EQ(top[0].persistency, 2u);  // periods 1 and 2
}

TEST(WindowedLtc, TracksRecentHeavyItemsUnderChurn) {
  WindowedLtc window(WindowConfig(16 * 1024), 10);
  Rng rng(42);
  // Phase 1 (periods 0..19): item A heavy; phase 2 (20..39): item B.
  for (int p = 0; p < 40; ++p) {
    ItemId heavy = p < 20 ? 111 : 222;
    for (int i = 0; i < 50; ++i) {
      window.Insert(heavy, p + 0.01 * i);
      window.Insert(rng.Uniform(5'000) + 1, p + 0.01 * i + 0.005);
    }
  }
  // End of phase 2: B dominates the window; A has fully expired.
  auto top = window.TopK(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].item, 222u);
  EXPECT_EQ(window.QuerySignificance(111), 0.0);
}

}  // namespace
}  // namespace ltc
