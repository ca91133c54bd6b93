// Jumping-window LTC — the natural extension of the paper's future-work
// direction: significance over the RECENT past instead of the whole
// stream (the §I congestion use case really wants "flows persistent over
// the last hour", not since boot).
//
// Construction: two panes, each an independent Ltc over half the memory
// budget, rotated every ⌈W/2⌉ periods. A query merges the active pane
// with the previous one, so the answer always covers between ⌈W/2⌉ and
// W recent periods and never anything older than W. Because the panes
// partition time disjointly, merging adds per-item fields exactly
// (Ltc::MergeFrom is exact for time-partitioned inputs).

#ifndef LTC_CORE_WINDOWED_LTC_H_
#define LTC_CORE_WINDOWED_LTC_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/serial.h"
#include "core/ltc.h"
#include "core/significance_estimator.h"

namespace ltc {

class WindowedLtc final : public SignificanceEstimator {
 public:
  /// \param config          per-pane configuration; memory_bytes is the
  ///                        TOTAL budget (halved per pane). Must be
  ///                        time-based: a window of periods needs a
  ///                        wall-clock period definition.
  /// \param window_periods  W >= 2, the history horizon in periods
  WindowedLtc(const LtcConfig& config, uint32_t window_periods);

  // Insert(item, time) is inherited from SignificanceEstimator (a
  // one-record batch through InsertBatch below). Like Ltc in time-based
  // mode, the window never moves backwards: a timestamp earlier than the
  // latest one seen is clamped to it, so a regressing feed can never
  // resurrect an expired pane (docs/TESTING.md "Time-based edge cases").

  /// Processes a run of arrivals in order: per-record pane routing (a
  /// rotation can fall mid-batch), identical state to one Insert per
  /// record.
  void InsertBatch(std::span<const Record> records) override;

  /// No-op, kept for the SignificanceEstimator contract: every query
  /// already credits the active pane's pending flags — TopK on a
  /// finalized pane copy, point queries per item — without touching
  /// the live pane (rotation must keep its flags intact), so there is
  /// never anything for the caller to credit.
  void Finalize() override {}

  /// Top-k significant items over the covered window (the last
  /// ⌈W/2⌉..W periods). Non-destructive; callable at any time.
  std::vector<Ltc::Report> TopK(size_t k) const override;

  /// Significance of one item over the covered window (0 if untracked).
  double QuerySignificance(ItemId item) const override;

  /// Frequency / persistency of one item over the covered window (0 if
  /// untracked): the active pane's (its pending flags credited, as
  /// Ltc::SnapshotQuery does) plus the previous pane's — exact, as the
  /// panes partition time. O(d), no pane copy.
  uint64_t EstimateFrequency(ItemId item) const override;
  uint64_t EstimatePersistency(ItemId item) const override;

  /// Oldest period index the current answer can include.
  uint64_t WindowStartPeriod() const;

  uint32_t window_periods() const { return window_periods_; }
  uint32_t pane_periods() const { return pane_periods_; }
  uint64_t current_pane() const { return current_pane_; }
  /// Per-pane configuration (memory already halved, time-based).
  const LtcConfig& pane_config() const { return pane_config_; }
  /// Wall-clock span of one pane: pane_periods · period_seconds. Pane
  /// boundaries are multiples of this exact double, so external mirrors
  /// (the differential harness) can reproduce them bit-for-bit.
  double pane_span() const { return pane_span_; }
  size_t MemoryBytes() const override {
    return active_.MemoryBytes() + previous_.MemoryBytes();
  }

  /// True iff both panes' structural invariants hold and the rotation
  /// bookkeeping is consistent.
  bool CheckInvariants() const;

  /// Checkpointing: writes both panes plus the rotation state; a restored
  /// window continues the stream exactly where the original left off.
  void Serialize(BinaryWriter& writer) const;
  static std::optional<WindowedLtc> Deserialize(BinaryReader& reader);

#ifdef LTC_AUDIT
  /// Attaches a ground-truth oracle to the ACTIVE pane. Panes are reset
  /// on rotation, so the truth must be pane-relative: the harness resets
  /// its oracle whenever current_pane() changes and observes times
  /// relative to the pane start (time − pane·pane_periods·t).
  void AttachAuditOracle(const AuditOracle* oracle) {
    audit_oracle_ = oracle;
    active_.AttachAuditOracle(oracle);
  }
#endif

 private:
  WindowedLtc(Ltc active, Ltc previous, uint32_t window_periods,
              uint64_t current_pane, bool previous_live, double last_time);

  void InsertOne(ItemId item, double time);
  void Rotate(uint64_t pane_index);
  uint64_t PaneOf(double time) const;

  LtcConfig pane_config_;
  uint32_t window_periods_;
  uint32_t pane_periods_;
  double pane_span_;
  uint64_t current_pane_ = 0;
  Ltc active_;
  Ltc previous_;
  bool previous_live_ = false;  // previous_ holds the preceding pane
  double last_time_ = 0.0;      // latest (clamped) timestamp seen

#ifdef LTC_AUDIT
  const AuditOracle* audit_oracle_ = nullptr;  // transient, not serialized
#endif
};

}  // namespace ltc

#endif  // LTC_CORE_WINDOWED_LTC_H_
