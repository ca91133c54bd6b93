// Crash recovery for the paged sketch store (docs/DURABILITY.md
// "Paged store, WAL, and incremental checkpoints").
//
// Redo-only, in the minisql recovery-manager shape: replay the WAL
// over the newest page images. The walk:
//
//   1. Scan the store directory; decode every page file's frame header
//      (a corrupt file counts as LSN 0, so any logged image heals it).
//   2. Read wal.log and parse records front to back, truncating at the
//      first bad frame — a torn tail is a clean end-of-log, exactly
//      what a crash mid-append leaves behind.
//   3. For each page the log names, take its newest logged image:
//      rewrite the page file when the file's LSN is older (or its CRC
//      fails, or it is missing), skip it as stale otherwise. Either
//      way the page file joins the DiskManager's unsynced set: a stale
//      page's bytes may come from a write-back that was never fsynced.
//
// Nothing here fsyncs, renames or removes. The log stays: the page
// files only become durable at the next checkpoint, which syncs the
// unsynced set and only then removes wal.log. (SketchStore::Open runs
// that checkpoint at once when the tail was torn, so new appends never
// follow garbage.) Run() is therefore idempotent by construction: any
// prefix of it, killed at any operation, leaves the log intact and the
// next open replays the same decisions (tests/store_crash_test.cc
// sweeps exactly this).

#ifndef LTC_STORE_RECOVERY_H_
#define LTC_STORE_RECOVERY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "snapshot/fs.h"
#include "store/disk_manager.h"

namespace ltc {
namespace store {

struct RecoveryReport {
  bool wal_found = false;
  bool torn_tail = false;      // trailing garbage was truncated
  uint64_t wal_bytes = 0;      // log size before truncation
  uint64_t records = 0;        // intact records replayed
  uint64_t deltas_applied = 0; // page images rewritten from the log
  uint64_t deltas_stale = 0;   // pages whose file already held the image
  uint64_t corrupt_pages = 0;  // page files that failed frame checks
  uint64_t max_lsn = 0;        // highest LSN on disk or in the log
  /// Pages per tenant after replay (page-id-contiguity NOT yet
  /// checked; SketchStore::Open validates geometry).
  std::map<uint64_t, std::vector<uint32_t>> tenant_pages;
};

class RecoveryManager {
 public:
  /// `disk` must outlive this manager.
  explicit RecoveryManager(DiskManager& disk) : disk_(disk) {}

  /// Replays the WAL over the page files (see file comment). False +
  /// `error` only on I/O failure — torn tails and stale records are
  /// normal outcomes, reported through `report`. Every page the log
  /// names is left in `disk`'s unsynced set.
  bool Run(RecoveryReport* report, std::string* error);

 private:
  DiskManager& disk_;
};

}  // namespace store
}  // namespace ltc

#endif  // LTC_STORE_RECOVERY_H_
