// Page-file I/O for the paged sketch store.
//
// One directory holds everything: per-page files named
// `t<tenant>.p<page>.pg` plus the write-ahead log `wal.log`. A page
// write is one plain WriteAll in place: no temp file, no fsync, no
// rename. That is safe because every page image written since the last
// checkpoint is also in the WAL (the steal/no-force rule of
// docs/DURABILITY.md "Paged store"): a page a crash tears fails its
// frame CRCs (store/page.h), and recovery rewrites it from the log.
//
// The manager remembers which page files it wrote since the last
// SyncUnsynced, and whether it created any. A checkpoint makes exactly
// those durable — one fsync per file, plus one directory fsync when a
// file is new — before the WAL may be removed.

#ifndef LTC_STORE_DISK_MANAGER_H_
#define LTC_STORE_DISK_MANAGER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "snapshot/fs.h"
#include "store/buffer_pool.h"

namespace ltc {
namespace store {

class DiskManager final : public PageIo {
 public:
  /// `fs` must outlive this manager; `dir` must already exist.
  DiskManager(Fs& fs, std::string dir);

  std::optional<Loaded> Load(uint64_t tenant, uint32_t page,
                             std::string* error) override;
  /// Writes the page file in place (see file comment) and adds it to
  /// the unsynced set.
  bool Store(uint64_t tenant, uint32_t page, uint64_t lsn,
             std::string_view payload, std::string* error) override;

  /// Adds a page file whose bytes may not be durable yet, nor its name
  /// (recovery: a page the WAL names may come from an unsynced write).
  void MarkUnsynced(uint64_t tenant, uint32_t page);

  struct SyncCounts {
    uint64_t files = 0;
    uint64_t dirs = 0;
  };

  /// fsyncs every page file in the unsynced set, then the directory if
  /// any of them may be new, and empties the set. Stops at the first
  /// failure: the caller must fail closed and never retry, since a
  /// failed fsync may already have dropped the dirty pages it covered.
  /// `counts` (optional) receives the fsyncs issued, failed one
  /// included.
  bool SyncUnsynced(SyncCounts* counts, std::string* error);

  size_t unsynced_count() const { return unsynced_.size(); }

  /// Page ids present on disk, per tenant (from a directory scan).
  std::optional<std::map<uint64_t, std::vector<uint32_t>>> ListPages(
      std::string* error);

  std::string PagePath(uint64_t tenant, uint32_t page) const;
  std::string WalPath() const;
  const std::string& dir() const { return dir_; }
  Fs& fs() { return fs_; }

  /// Parses a `t<tenant>.p<page>.pg` file name.
  static bool ParsePageName(const std::string& name, uint64_t* tenant,
                            uint32_t* page);

 private:
  Fs& fs_;
  std::string dir_;
  std::set<std::string> unsynced_;  // page files written since SyncUnsynced
  bool dir_unsynced_ = false;       // ...and one of them may be new
};

}  // namespace store
}  // namespace ltc

#endif  // LTC_STORE_DISK_MANAGER_H_
