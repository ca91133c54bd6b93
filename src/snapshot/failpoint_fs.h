// FailpointFs — deterministic fault injection for the snapshot I/O
// path (docs/DURABILITY.md "Failpoint catalog").
//
// Wraps any Fs and counts its *mutating* operations (WriteAll,
// AppendAll, Sync, SyncDir, Rename, Remove) in call order. Arm() schedules exactly one
// failure at a chosen operation index, which makes crash-consistency
// sweeps trivial: run a clean save once to learn its operation count,
// then re-run it once per index with a crash armed there
// (tests/snapshot_store_test.cc does exactly this — the
// "kill-mid-checkpoint at every point" proof).
//
// Failure semantics:
//   kCrash               the triggering op applies a partial effect
//                        (writes keep a seed-derived prefix), then the
//                        "process is dead": every later mutating op
//                        fails and changes nothing. Reads still work —
//                        recovery happens in a new process.
//   kShortWrite          one WriteAll persists only a prefix and
//                        reports failure (disk full / torn write).
//   kWriteError          one WriteAll writes nothing and fails.
//   kSyncError           one Sync/SyncDir reports failure.
//   kRenameError         one Rename fails, leaving both names as-is.
//   kTruncateAfterRename one Rename "succeeds" but the destination
//                        loses its tail (power loss before the data
//                        blocks hit the platter).
//   kFlipByteInWrite     one WriteAll silently flips a single byte at
//                        a seeded offset and reports success — the
//                        corruption only the CRC can catch.
//   kTornWriteCrash      the "torn sector": one WriteAll/AppendAll
//                        persists a *strict* prefix (seed % size bytes,
//                        so a non-empty write is always cut mid-record)
//                        and then the process is dead, like kCrash.
//                        Unlike kCrash — whose prefix is seed % (size+1)
//                        and may keep the whole write — this guarantees
//                        the tail record is torn, which pins the
//                        reader-side contract: a torn tail is clean
//                        end-of-log, never an error (src/store/wal.h).
//   kPowerLoss           the machine loses power at the triggering op
//                        (a write lands first; a sync, rename or remove
//                        does not). Everything not yet made durable is
//                        undone: each file written since its last Sync
//                        reverts to its last synced bytes or, by seed,
//                        to a torn prefix of its new bytes (never
//                        shorter than its synced bytes unless it was
//                        truncated since); each name created, removed
//                        or renamed since its directory's last SyncDir
//                        reverts too, or (by seed, name by name) sticks.
//                        Then the process is dead, like kCrash. Files
//                        the wrapper has not touched since Arm count as
//                        durable. Under kCrash every unsynced write
//                        survives, so a missing Sync passes a kCrash
//                        sweep; this one catches it.
//
// All choices (prefix lengths, flip offsets) derive from the seed, so
// every injected disaster is reproducible.

#ifndef LTC_SNAPSHOT_FAILPOINT_FS_H_
#define LTC_SNAPSHOT_FAILPOINT_FS_H_

#include <cstdint>
#include <map>
#include <string>

#include "snapshot/fs.h"

namespace ltc {

class FailpointFs final : public Fs {
 public:
  enum class Failure {
    kNone,
    kCrash,
    kShortWrite,
    kWriteError,
    kSyncError,
    kRenameError,
    kTruncateAfterRename,
    kFlipByteInWrite,
    kTornWriteCrash,
    kPowerLoss,
  };

  /// `base` must outlive this wrapper.
  explicit FailpointFs(Fs& base) : base_(base) {}

  /// Schedules `failure` at the first matching mutating operation with
  /// index >= trigger_op (indices count from 0 across ALL mutating
  /// ops). Re-arming resets the fired/crashed state. `burst` makes the
  /// failure fire on that many consecutive *matching* operations (an
  /// I/O fault burst — e.g. a disk that stays full for two writes);
  /// kCrash ignores it, being permanent by definition.
  void Arm(Failure failure, uint64_t trigger_op, uint64_t seed = 0,
           uint64_t burst = 1);

  /// Mutating operations observed so far.
  uint64_t mutating_ops() const { return ops_; }

  /// True once a kCrash failpoint has fired.
  bool crashed() const { return crashed_; }

  /// True once the armed failure has fired.
  bool fired() const { return fired_; }

  bool WriteAll(const std::string& path, std::string_view data) override;
  bool AppendAll(const std::string& path, std::string_view data) override;
  std::optional<std::string> ReadAll(const std::string& path) override;
  bool Sync(const std::string& path) override;
  bool SyncDir(const std::string& path) override;
  bool Rename(const std::string& from, const std::string& to) override;
  bool Remove(const std::string& path) override;
  bool Exists(const std::string& path) override;
  std::optional<std::vector<std::string>> ListDir(
      const std::string& dir) override;

 private:
  enum class OpKind { kWrite, kSync, kRename, kRemove };

  /// Accounts one mutating op; true iff the armed failure fires on it.
  bool Fires(OpKind op);

  /// Applies the armed write failure to one WriteAll/AppendAll.
  bool FailingWrite(const std::string& path, std::string_view data,
                    bool append);

  /// Applies the armed rename failure.
  bool FailingRename(const std::string& from, const std::string& to);

  // kPowerLoss bookkeeping, kept only while it is armed. A name's entry
  // records what the name held at its directory's last SyncDir; a
  // file's entry records its bytes at its last Sync.
  struct NameShadow {
    bool existed = false;
    std::string bytes;  // durable bytes of the file it named
  };
  struct DataShadow {
    std::string synced;
    bool truncated = false;  // rewritten from offset 0 since the Sync
  };
  bool Tracking() const {
    return failure_ == Failure::kPowerLoss && !crashed_;
  }
  std::string DurableBytes(const std::string& path);
  void NoteName(const std::string& path);
  void NoteData(const std::string& path, bool truncating);
  /// Reverts every unsynced effect on the base filesystem.
  void LosePower();

  Fs& base_;
  Failure failure_ = Failure::kNone;
  uint64_t trigger_op_ = 0;
  uint64_t seed_ = 0;
  uint64_t burst_left_ = 0;  // matching ops the armed failure still hits
  uint64_t ops_ = 0;
  bool fired_ = false;
  bool crashed_ = false;
  std::map<std::string, NameShadow> names_;
  std::map<std::string, DataShadow> data_;
};

}  // namespace ltc

#endif  // LTC_SNAPSHOT_FAILPOINT_FS_H_
