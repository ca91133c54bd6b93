// The buffer pool of the paged sketch store: a fixed budget of
// in-memory page frames over many tenants' page files, with CLOCK
// eviction (src/clockcache — the paper's §III-B machinery, generalized
// with pin counts and dirty bits for exactly this use).
//
// Frames are keyed by (tenant, page). Fetch() pins the frame it
// returns; the caller reads or rewrites the payload and must Unpin()
// (marking it dirty when mutated). A dirty frame evicted by the CLOCK
// hand is written back through the PageIo seam before it is dropped —
// its image is already durable in the WAL by the time it was marked
// dirty (SketchStore's log-before-dirty rule), so eviction write-back
// is an optimization for reads, not a durability event: no fsync.

#ifndef LTC_STORE_BUFFER_POOL_H_
#define LTC_STORE_BUFFER_POOL_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "clockcache/clock_cache.h"

namespace ltc {
namespace store {

/// Where page images live when they are not resident. DiskManager is
/// the production implementation; tests can substitute their own.
class PageIo {
 public:
  virtual ~PageIo() = default;

  struct Loaded {
    bool found = false;  // false: the page has no image on disk yet
    std::string payload;
    uint64_t lsn = 0;
  };

  /// nullopt + `error` on I/O failure or a corrupt image; found=false
  /// (inside an ok result) when the page simply does not exist.
  virtual std::optional<Loaded> Load(uint64_t tenant, uint32_t page,
                                     std::string* error) = 0;

  /// Replaces the page image in place. Not durable by itself: the
  /// store's checkpoint fsyncs it later (store/disk_manager.h).
  virtual bool Store(uint64_t tenant, uint32_t page, uint64_t lsn,
                     std::string_view payload, std::string* error) = 0;
};

class BufferPool {
 public:
  struct Frame {
    uint64_t tenant = 0;
    uint32_t page = 0;
    uint64_t lsn = 0;
    bool dirty = false;
    std::string payload;
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t pages_loaded = 0;   // PageIo::Load calls that found bytes
    uint64_t pages_stored = 0;   // PageIo::Store calls (eviction + flush)
    uint64_t evictions_clean = 0;
    uint64_t evictions_dirty = 0;
  };

  /// `io` must outlive the pool.
  BufferPool(size_t capacity, PageIo* io);

  /// Returns the (pinned) frame for (tenant, page): a resident hit, or
  /// a miss served through PageIo — evicting a cold frame when full,
  /// writing it back first if dirty. With `create_if_absent`, a page
  /// with no disk image yet becomes a fresh empty frame (lsn 0);
  /// without it, absence is an error. nullptr + `error` on I/O
  /// failure, corruption, or when every frame is pinned.
  Frame* Fetch(uint64_t tenant, uint32_t page, bool create_if_absent,
               std::string* error);

  /// Releases one pin; `mark_dirty` records that the caller rewrote
  /// the payload (write-back owed).
  void Unpin(Frame* frame, bool mark_dirty);

  /// Writes back every dirty frame and clears its dirty bit. The
  /// incremental checkpoint: cost is O(dirty frames), not O(table).
  bool FlushDirty(std::string* error);

  /// Writes back the tenant's dirty frames and drops all its frames
  /// from the pool. Fails if any of them is pinned.
  bool DropTenant(uint64_t tenant, std::string* error);

  /// Every dirty (tenant, page) currently resident.
  std::vector<std::pair<uint64_t, uint32_t>> DirtyPages() const;

  /// The resident frame for (tenant, page), or nullptr (tests).
  const Frame* Peek(uint64_t tenant, uint32_t page) const;

  size_t capacity() const { return capacity_; }
  size_t resident() const { return frames_.size(); }
  size_t dirty_count() const;
  const Stats& stats() const { return stats_; }

  /// True after a failed eviction write-back: the pool fails closed
  /// (stale disk images must not be served) until the store reopens
  /// and replays the WAL.
  bool poisoned() const { return poisoned_; }

 private:
  uint64_t HandleOf(uint64_t tenant, uint32_t page);

  /// Drops the evicted handle's frame, writing it back when dirty.
  bool CompleteEviction(const ClockCache::Evicted& evicted,
                        std::string* error);

  /// Sets `error` and returns true when the pool is poisoned.
  bool Poisoned(std::string* error) const;

  size_t capacity_;
  PageIo* io_;
  ClockCache cache_;
  uint64_t next_handle_ = 1;
  std::map<std::pair<uint64_t, uint32_t>, uint64_t> handle_of_;
  std::unordered_map<uint64_t, Frame> frames_;  // by handle
  Stats stats_;
  bool poisoned_ = false;
};

}  // namespace store
}  // namespace ltc

#endif  // LTC_STORE_BUFFER_POOL_H_
