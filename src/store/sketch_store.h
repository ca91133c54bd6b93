// SketchStore — the front door of the crash-safe, larger-than-RAM,
// multi-tenant sketch store (docs/DURABILITY.md "Paged store, WAL, and
// incremental checkpoints").
//
// One store directory hosts N independent tenant sketches (numeric
// tenant ids — per-customer / per-API-key sketch families). Each
// sketch lives as CRC-framed page files (store/page.h) behind a
// CLOCK-evicting buffer pool under a configurable memory budget, so
// total sketch bytes can exceed RAM: cold tenants' pages spill to
// disk and page back in on demand, bit-identically.
//
// Durability contract — steal, no force, full page images:
//
//   Put() serializes the sketch, splits it into pages, and diffs them
//   against the resident/on-disk images. The changed pages are
//   appended to the WAL as ONE record of full page images and fsynced
//   BEFORE any in-memory frame is updated or marked dirty. So every
//   page image written since the last checkpoint is in the log, and
//   page-file write-back (eviction, EvictTenant, CheckpointDirty) is a
//   plain in-place write with no fsync: a crash that tears or loses it
//   is redone from the log. A kill or power loss at ANY operation
//   recovers every tenant to either its pre-Put or post-Put image —
//   never a mix (tests/store_crash_test.cc sweeps every op).
//
// CheckpointDirty() writes back only dirty frames, fsyncs each page
// file written since the last checkpoint once (plus the directory when
// a file is new), and only then removes the WAL: O(dirty), not the
// monolithic snapshot's O(table). A failed fsync poisons the store; it
// is never retried.
#ifndef LTC_STORE_SKETCH_STORE_H_
#define LTC_STORE_SKETCH_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/ltc.h"
#include "snapshot/fs.h"
#include "store/buffer_pool.h"
#include "store/disk_manager.h"
#include "store/recovery.h"
#include "telemetry/metrics.h"

namespace ltc {
namespace store {

struct SketchStoreOptions {
  /// Data-page payload size. Smaller pages mean finer dirty tracking
  /// (cheaper incremental checkpoints) but more frames and files.
  size_t page_bytes = 4096;

  /// Buffer-pool budget; the pool holds budget / page_bytes frames
  /// (at least one). May be far smaller than total sketch bytes.
  size_t mem_budget_bytes = size_t{64} << 20;
};

class SketchStore {
 public:
  struct Stats {
    uint64_t puts = 0;
    uint64_t gets = 0;
    uint64_t wal_records = 0;
    uint64_t wal_bytes = 0;
    uint64_t checkpoints = 0;
    uint64_t clean_puts = 0;  // Puts that changed no page (no log write)
    // fsyncs asked for, by what they cover (failed ones included).
    uint64_t fsyncs_wal = 0;
    uint64_t fsyncs_page = 0;
    uint64_t fsyncs_dir = 0;
  };

  /// Opens (and crash-recovers) the store in `dir`, which must exist.
  /// Replays the WAL over the page files first — see store/recovery.h.
  /// An intact log is kept for the next checkpoint; a torn one is
  /// checkpointed away here. nullptr + `error` on I/O failure.
  static std::unique_ptr<SketchStore> Open(Fs& fs, const std::string& dir,
                                           const SketchStoreOptions& options,
                                           std::string* error);

  /// Upserts the tenant's sketch. Only changed pages are logged and
  /// dirtied; an unchanged sketch writes nothing. A tenant's geometry
  /// (page count) is fixed at first Put.
  bool Put(uint64_t tenant, const Ltc& sketch, std::string* error);

  /// Reassembles the tenant's sketch from resident frames and page
  /// files. nullopt + `error` for unknown tenants, missing/corrupt
  /// pages, or a payload Deserialize rejects.
  std::optional<Ltc> Get(uint64_t tenant, std::string* error);

  /// Writes back the tenant's dirty frames (no fsync) and drops all its
  /// frames — the explicit make-this-tenant-cold hammer.
  bool EvictTenant(uint64_t tenant, std::string* error);

  /// Incremental checkpoint: write back every dirty frame, fsync each
  /// page file written since the last checkpoint, then remove the WAL.
  /// O(dirty), not O(table). A failed fsync poisons the store and keeps
  /// the WAL.
  bool CheckpointDirty(std::string* error);

  bool Contains(uint64_t tenant) const {
    return tenant_pages_.count(tenant) > 0;
  }
  std::vector<uint64_t> Tenants() const;

  /// Pages the tenant occupies (0 when unknown).
  uint32_t PageCountOf(uint64_t tenant) const;

  void AttachMetrics(telemetry::MetricsRegistry* registry);

  const Stats& stats() const { return stats_; }
  const RecoveryReport& recovery() const { return recovery_; }
  const BufferPool& pool() const { return *pool_; }

 private:
  SketchStore(Fs& fs, const std::string& dir,
              const SketchStoreOptions& options);

  /// Sets `error` and returns true once the store has failed closed
  /// (reopen to recover from the WAL).
  bool Poisoned(std::string* error) const;

  /// Fails the store closed for `reason`; sets `error`, returns false.
  bool Poison(std::string reason, std::string* error);

  /// CheckpointDirty without the stats: flush, sync, remove the WAL.
  bool WriteCheckpoint(std::string* error);

  /// Mirrors pool counters/gauges into the registry (if attached).
  void PublishMetrics();

  SketchStoreOptions options_;
  DiskManager disk_;
  std::unique_ptr<BufferPool> pool_;
  std::map<uint64_t, uint32_t> tenant_pages_;
  RecoveryReport recovery_;
  uint64_t next_lsn_ = 1;
  bool wal_dir_synced_ = false;  // wal.log's dirent made durable yet?
  std::string poison_;           // why the store failed closed, if it did
  Stats stats_;

  telemetry::MetricsRegistry* metrics_ = nullptr;
  telemetry::Counter* pages_in_ = nullptr;
  telemetry::Counter* pages_out_ = nullptr;
  telemetry::Counter* page_hits_ = nullptr;
  telemetry::Counter* page_misses_ = nullptr;
  telemetry::Counter* evictions_clean_ = nullptr;
  telemetry::Counter* evictions_dirty_ = nullptr;
  telemetry::Counter* wal_records_ = nullptr;
  telemetry::Counter* wal_bytes_ = nullptr;
  telemetry::Counter* checkpoints_ = nullptr;
  telemetry::Counter* fsyncs_wal_ = nullptr;
  telemetry::Counter* fsyncs_page_ = nullptr;
  telemetry::Counter* fsyncs_dir_ = nullptr;
  telemetry::Gauge* tenants_gauge_ = nullptr;
  telemetry::Gauge* frames_resident_ = nullptr;
  telemetry::Gauge* frames_dirty_ = nullptr;
  telemetry::Histogram* checkpoint_duration_usec_ = nullptr;
  telemetry::Histogram* checkpoint_dirty_pages_ = nullptr;
};

}  // namespace store
}  // namespace ltc

#endif  // LTC_STORE_SKETCH_STORE_H_
