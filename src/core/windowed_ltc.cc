#include "core/windowed_ltc.h"

#include <cassert>
#include <string>
#include <utility>

namespace ltc {
namespace {

LtcConfig MakePaneConfig(LtcConfig config) {
  assert(config.period_mode == PeriodMode::kTimeBased);
  config.memory_bytes /= 2;
  return config;
}

}  // namespace

WindowedLtc::WindowedLtc(const LtcConfig& config, uint32_t window_periods)
    : pane_config_(MakePaneConfig(config)),
      window_periods_(window_periods),
      pane_periods_((window_periods + 1) / 2),
      pane_span_(pane_config_.period_seconds *
                 static_cast<double>(pane_periods_)),
      active_(pane_config_),
      previous_(pane_config_) {
  assert(window_periods >= 2);
}

WindowedLtc::WindowedLtc(Ltc active, Ltc previous, uint32_t window_periods,
                         uint64_t current_pane, bool previous_live,
                         double last_time)
    : pane_config_(active.config()),
      window_periods_(window_periods),
      pane_periods_((window_periods + 1) / 2),
      pane_span_(pane_config_.period_seconds *
                 static_cast<double>(pane_periods_)),
      current_pane_(current_pane),
      active_(std::move(active)),
      previous_(std::move(previous)),
      previous_live_(previous_live),
      last_time_(last_time) {}

uint64_t WindowedLtc::PaneOf(double time) const {
  return static_cast<uint64_t>(time / pane_span_);
}

void WindowedLtc::Rotate(uint64_t pane_index) {
  if (pane_index == current_pane_ + 1) {
    // Adjacent pane: the active pane becomes the "previous" half of the
    // window. Finalize commits its pending period flags — it will only
    // be read from now on.
    active_.Finalize();
    previous_ = std::move(active_);
    previous_live_ = true;
  } else {
    // Jumped over at least one empty pane: nothing recent survives.
    previous_ = Ltc(pane_config_);
    previous_live_ = false;
  }
  active_ = Ltc(pane_config_);
#ifdef LTC_AUDIT
  active_.AttachAuditOracle(audit_oracle_);
#endif
  current_pane_ = pane_index;
}

void WindowedLtc::InsertBatch(std::span<const Record> records) {
  // Pane routing is inherently per-record (a rotation can fall anywhere
  // inside the batch), so the batch win here is only the virtual-call
  // amortization; the heavy lifting (prefetch, CLOCK stepping) lives in
  // the panes' own InsertBatch, reached one record at a time.
  for (const Record& record : records) InsertOne(record.item, record.time);
}

void WindowedLtc::InsertOne(ItemId item, double time) {
  // The window never moves backwards (same clamp as Ltc's time clock):
  // a regressing timestamp would otherwise rotate into a stale pane.
  if (time < last_time_) time = last_time_;
  last_time_ = time;
  uint64_t pane = PaneOf(time);
  if (pane != current_pane_) {
    Rotate(pane);
  }
  // Each pane's internal clock runs on pane-relative time so its CLOCK
  // sweep stays aligned with global periods regardless of rotation.
  // pane·pane_span_ exactly, so external mirrors of the pane arithmetic
  // (the differential harness) agree bit-for-bit.
  double pane_start = static_cast<double>(pane) * pane_span_;
  active_.Insert(item, time - pane_start);
#ifdef LTC_AUDIT
  if (PaneOf(last_time_) != current_pane_) {
    AuditFail("WindowedLtc", "pane-rotation",
              "pane of latest timestamp " + std::to_string(last_time_) +
                  " != current pane " + std::to_string(current_pane_));
  }
  if (!previous_.CheckInvariants()) {
    AuditFail("WindowedLtc", "structural",
              "previous pane invariants broken at pane " +
                  std::to_string(current_pane_));
  }
#endif
}

std::vector<Ltc::Report> WindowedLtc::TopK(size_t k) const {
  // Merge copies: time-partitioned panes make MergeFrom exact.
  Ltc combined = active_;
  combined.Finalize();
  if (previous_live_) {
    // Panes share one config, so the merge cannot be rejected.
    bool merged = combined.MergeFrom(previous_);
    (void)merged;
    assert(merged);
  }
  return combined.TopK(k);
}

// Point queries probe the active pane and credit the item's own
// pending flags (Ltc::SnapshotQuery): the answer a Finalized copy would
// give, without copying the pane.
double WindowedLtc::QuerySignificance(ItemId item) const {
  double total = active_.SnapshotQuery(item).significance;
  if (previous_live_) total += previous_.QuerySignificance(item);
  return total;
}

uint64_t WindowedLtc::EstimateFrequency(ItemId item) const {
  uint64_t total = active_.SnapshotQuery(item).frequency;
  if (previous_live_) total += previous_.EstimateFrequency(item);
  return total;
}

uint64_t WindowedLtc::EstimatePersistency(ItemId item) const {
  uint64_t total = active_.SnapshotQuery(item).persistency;
  if (previous_live_) total += previous_.EstimatePersistency(item);
  return total;
}

uint64_t WindowedLtc::WindowStartPeriod() const {
  if (!previous_live_ || current_pane_ == 0) {
    return current_pane_ * pane_periods_;
  }
  return (current_pane_ - 1) * pane_periods_;
}

bool WindowedLtc::CheckInvariants() const {
  if (window_periods_ < 2 || pane_periods_ == 0) return false;
  if (previous_live_ && current_pane_ == 0) return false;
  return active_.CheckInvariants() && previous_.CheckInvariants() &&
         active_.CanMergeWith(previous_);
}

namespace {
constexpr uint32_t kWindowedMagic = 0x574c5431;  // "WLT1"
// v2: explicit format version after the magic (v1 had none).
constexpr uint32_t kWindowedFormatVersion = 2;
}  // namespace

void WindowedLtc::Serialize(BinaryWriter& writer) const {
  PutVersionedMagic(writer, kWindowedMagic, kWindowedFormatVersion);
  writer.PutU32(window_periods_);
  writer.PutU64(current_pane_);
  writer.PutU8(previous_live_ ? 1 : 0);
  writer.PutDouble(last_time_);
  active_.Serialize(writer);
  previous_.Serialize(writer);
}

std::optional<WindowedLtc> WindowedLtc::Deserialize(BinaryReader& reader) {
  if (!CheckVersionedMagic(reader, kWindowedMagic, kWindowedFormatVersion)) {
    return std::nullopt;
  }
  uint32_t window_periods = reader.GetU32();
  uint64_t current_pane = reader.GetU64();
  bool previous_live = reader.GetU8() != 0;
  double last_time = reader.GetDouble();
  if (reader.failed() || window_periods < 2) return std::nullopt;
  auto active = Ltc::Deserialize(reader);
  if (!active) return std::nullopt;
  auto previous = Ltc::Deserialize(reader);
  if (!previous) return std::nullopt;
  if (active->config().period_mode != PeriodMode::kTimeBased) {
    return std::nullopt;
  }
  WindowedLtc window(std::move(*active), std::move(*previous),
                     window_periods, current_pane, previous_live, last_time);
  if (!window.CheckInvariants()) return std::nullopt;
  return window;
}

}  // namespace ltc
