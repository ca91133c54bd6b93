#include "store/sketch_store.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/serial.h"
#include "store/page.h"
#include "store/wal.h"
#include "telemetry/trace.h"

namespace ltc {
namespace store {

SketchStore::SketchStore(Fs& fs, const std::string& dir,
                         const SketchStoreOptions& options)
    : options_(options), disk_(fs, dir) {
  size_t frames = options_.page_bytes == 0
                      ? 1
                      : options_.mem_budget_bytes / options_.page_bytes;
  if (frames < 1) frames = 1;
  pool_ = std::make_unique<BufferPool>(frames, &disk_);
}

std::unique_ptr<SketchStore> SketchStore::Open(
    Fs& fs, const std::string& dir, const SketchStoreOptions& options,
    std::string* error) {
  if (options.page_bytes == 0) {
    if (error != nullptr) *error = "page_bytes must be > 0";
    return nullptr;
  }
  if (!fs.ListDir(dir).has_value()) {
    if (error != nullptr) {
      *error = "store directory '" + dir + "' does not exist";
    }
    return nullptr;
  }
  std::unique_ptr<SketchStore> self(new SketchStore(fs, dir, options));
  telemetry::Span span("store.recover");
  RecoveryManager recovery(self->disk_);
  if (!recovery.Run(&self->recovery_, error)) return nullptr;
  span.AddAttr("records", self->recovery_.records);
  // An intact log stays until the next checkpoint makes the replayed
  // pages durable. A torn one is retired now, so that no append ever
  // lands behind its garbage.
  if (self->recovery_.torn_tail && !self->WriteCheckpoint(error)) {
    return nullptr;
  }
  self->next_lsn_ = self->recovery_.max_lsn + 1;
  for (const auto& [tenant, pages] : self->recovery_.tenant_pages) {
    uint32_t max_page = 0;
    for (uint32_t page : pages) max_page = std::max(max_page, page);
    // Geometry holes (a missing page file with no delta in the log)
    // surface as typed Get() errors, not silent truncation.
    self->tenant_pages_[tenant] = max_page + 1;
  }
  return self;
}

bool SketchStore::Poisoned(std::string* error) const {
  if (poison_.empty()) return false;
  if (error != nullptr) {
    *error = "store poisoned: " + poison_ +
             "; reopen the store to recover from the WAL";
  }
  return true;
}

bool SketchStore::Poison(std::string reason, std::string* error) {
  poison_ = std::move(reason);
  Poisoned(error);
  return false;
}

bool SketchStore::Put(uint64_t tenant, const Ltc& sketch,
                      std::string* error) {
  if (Poisoned(error)) return false;
  telemetry::Span span("store.put");
  BinaryWriter writer;
  sketch.Serialize(writer);
  std::vector<std::string> pages = PageCodec::SplitPayload(
      writer.data(), sketch.num_cells(), options_.page_bytes, error);
  if (pages.empty()) return false;
  auto known = tenant_pages_.find(tenant);
  if (known != tenant_pages_.end() && known->second != pages.size()) {
    if (error != nullptr) {
      *error = "tenant " + std::to_string(tenant) + " has " +
               std::to_string(known->second) + " pages; this sketch needs " +
               std::to_string(pages.size()) +
               " (a tenant's geometry is fixed at first Put)";
    }
    return false;
  }

  // Pass 1 — diff against the current images to find the dirty set.
  // Nothing is modified yet: a failure below leaves the store exactly
  // as it was.
  std::vector<uint32_t> dirty;
  for (uint32_t i = 0; i < pages.size(); ++i) {
    BufferPool::Frame* frame =
        pool_->Fetch(tenant, i, /*create_if_absent=*/true, error);
    if (frame == nullptr) return false;
    // Same page COUNT does not imply same cell count (different lane
    // sizes can slice into equally many pages), so page sizes are the
    // real geometry check: equal sizes on every page forces equal lane
    // bytes, which forces equal m.
    if (known != tenant_pages_.end() && !frame->payload.empty() &&
        frame->payload.size() != pages[i].size()) {
      const size_t existing_bytes = frame->payload.size();
      pool_->Unpin(frame, /*mark_dirty=*/false);
      if (error != nullptr) {
        *error = "tenant " + std::to_string(tenant) + " page " +
                 std::to_string(i) + " holds " +
                 std::to_string(existing_bytes) +
                 " bytes; this sketch needs " +
                 std::to_string(pages[i].size()) +
                 " (a tenant's geometry is fixed at first Put)";
      }
      return false;
    }
    const bool changed = frame->payload != pages[i];
    pool_->Unpin(frame, /*mark_dirty=*/false);
    if (changed) dirty.push_back(i);
  }
  if (dirty.empty()) {
    tenant_pages_[tenant] = static_cast<uint32_t>(pages.size());
    ++stats_.puts;
    ++stats_.clean_puts;
    PublishMetrics();
    return true;
  }

  // Log-before-dirty: ONE record carrying every changed page, durable
  // before any frame changes. Whole-record CRC framing makes the Put
  // atomic across a crash — recovery sees all of it or none of it.
  WalRecord record;
  record.lsn = next_lsn_;
  record.tenant = tenant;
  record.pages.reserve(dirty.size());
  for (uint32_t i : dirty) {
    WalPageDelta delta;
    delta.page_id = i;
    delta.payload = pages[i];
    record.pages.push_back(std::move(delta));
  }
  const std::string bytes = EncodeWalRecord(record);
  // Any failure from here on fails closed. A half-written append would
  // put later records behind garbage that recovery stops at, and a
  // failed fsync may have dropped the very bytes it covered, so neither
  // is retried; a reopen replays or truncates the log.
  const std::string wal_path = disk_.WalPath();
  if (!disk_.fs().AppendAll(wal_path, bytes)) {
    return Poison("cannot append to WAL '" + wal_path + "'", error);
  }
  ++stats_.fsyncs_wal;
  if (!disk_.fs().Sync(wal_path)) {
    return Poison("cannot fsync WAL '" + wal_path + "'", error);
  }
  if (!wal_dir_synced_) {
    ++stats_.fsyncs_dir;
    if (!disk_.fs().SyncDir(disk_.dir())) {
      return Poison("cannot fsync store directory '" + disk_.dir() + "'",
                    error);
    }
    wal_dir_synced_ = true;
  }

  // Pass 2 — commit to the pool. The record is durable, so a failure
  // here cannot lose data, but it can leave memory behind the log:
  // fail closed until a reopen replays it.
  for (uint32_t i : dirty) {
    std::string cause;
    BufferPool::Frame* frame =
        pool_->Fetch(tenant, i, /*create_if_absent=*/true, &cause);
    if (frame == nullptr) {
      return Poison("commit interrupted (" + cause +
                        "), in-memory frames lag the WAL",
                    error);
    }
    frame->payload = pages[i];
    frame->lsn = record.lsn;
    pool_->Unpin(frame, /*mark_dirty=*/true);
  }
  ++next_lsn_;
  tenant_pages_[tenant] = static_cast<uint32_t>(pages.size());
  ++stats_.puts;
  ++stats_.wal_records;
  stats_.wal_bytes += bytes.size();
  if (wal_records_ != nullptr) {
    wal_records_->Increment();
    wal_bytes_->Increment(bytes.size());
  }
  PublishMetrics();
  return true;
}

std::optional<Ltc> SketchStore::Get(uint64_t tenant, std::string* error) {
  if (Poisoned(error)) return std::nullopt;
  auto known = tenant_pages_.find(tenant);
  if (known == tenant_pages_.end()) {
    if (error != nullptr) {
      *error = "unknown tenant " + std::to_string(tenant);
    }
    return std::nullopt;
  }
  std::string payload;
  for (uint32_t i = 0; i < known->second; ++i) {
    BufferPool::Frame* frame =
        pool_->Fetch(tenant, i, /*create_if_absent=*/false, error);
    if (frame == nullptr) return std::nullopt;
    payload += frame->payload;
    pool_->Unpin(frame, /*mark_dirty=*/false);
  }
  BinaryReader reader(payload);
  std::optional<Ltc> sketch = Ltc::Deserialize(reader);
  if (!sketch.has_value() || !reader.AtEnd()) {
    if (error != nullptr) {
      *error = "tenant " + std::to_string(tenant) +
               ": assembled pages do not form a valid sketch image";
    }
    return std::nullopt;
  }
  ++stats_.gets;
  PublishMetrics();
  return sketch;
}

bool SketchStore::EvictTenant(uint64_t tenant, std::string* error) {
  if (Poisoned(error)) return false;
  if (tenant_pages_.count(tenant) == 0) {
    if (error != nullptr) {
      *error = "unknown tenant " + std::to_string(tenant);
    }
    return false;
  }
  const bool ok = pool_->DropTenant(tenant, error);
  PublishMetrics();
  return ok;
}

bool SketchStore::CheckpointDirty(std::string* error) {
  if (Poisoned(error)) return false;
  telemetry::Span span("store.checkpoint");
  const auto start = std::chrono::steady_clock::now();
  const size_t dirty_pages = pool_->dirty_count();
  span.AddAttr("pages", dirty_pages);
  if (!WriteCheckpoint(error)) {
    PublishMetrics();
    return false;
  }
  ++stats_.checkpoints;
  if (checkpoints_ != nullptr) {
    checkpoints_->Increment();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    const auto usec =
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
            .count();
    checkpoint_duration_usec_->Record(usec > 0 ? static_cast<uint64_t>(usec)
                                               : 0);
    checkpoint_dirty_pages_->Record(dirty_pages);
  }
  PublishMetrics();
  return true;
}

bool SketchStore::WriteCheckpoint(std::string* error) {
  if (!pool_->FlushDirty(error)) return false;
  // Every page image written since the last checkpoint becomes durable,
  // names included, before the log that backs it may go.
  DiskManager::SyncCounts synced;
  std::string sync_error;
  const bool synced_ok = disk_.SyncUnsynced(&synced, &sync_error);
  stats_.fsyncs_page += synced.files;
  stats_.fsyncs_dir += synced.dirs;
  if (!synced_ok) return Poison(sync_error, error);
  const std::string wal_path = disk_.WalPath();
  if (disk_.fs().Exists(wal_path)) {
    if (!disk_.fs().Remove(wal_path)) {
      if (error != nullptr) {
        *error = "cannot remove checkpointed WAL '" + wal_path + "'";
      }
      return false;
    }
    // No directory fsync for the removal: if it is undone, the old log
    // comes back with nothing newer than the synced pages, and the next
    // Put's directory fsync makes it final anyway.
    wal_dir_synced_ = false;
  }
  return true;
}

std::vector<uint64_t> SketchStore::Tenants() const {
  std::vector<uint64_t> tenants;
  tenants.reserve(tenant_pages_.size());
  for (const auto& [tenant, pages] : tenant_pages_) tenants.push_back(tenant);
  return tenants;
}

uint32_t SketchStore::PageCountOf(uint64_t tenant) const {
  auto it = tenant_pages_.find(tenant);
  return it == tenant_pages_.end() ? 0 : it->second;
}

void SketchStore::AttachMetrics(telemetry::MetricsRegistry* registry) {
  metrics_ = registry;
  if (registry == nullptr) {
    pages_in_ = pages_out_ = page_hits_ = page_misses_ = nullptr;
    evictions_clean_ = evictions_dirty_ = nullptr;
    wal_records_ = wal_bytes_ = checkpoints_ = nullptr;
    fsyncs_wal_ = fsyncs_page_ = fsyncs_dir_ = nullptr;
    tenants_gauge_ = frames_resident_ = frames_dirty_ = nullptr;
    checkpoint_duration_usec_ = checkpoint_dirty_pages_ = nullptr;
    return;
  }
  pages_in_ = &registry->CounterOf(
      "ltc_store_pages_in_total",
      "Page images loaded from page files into the buffer pool");
  pages_out_ = &registry->CounterOf(
      "ltc_store_pages_out_total",
      "Page images written back to page files (evictions + checkpoints)");
  page_hits_ = &registry->CounterOf(
      "ltc_store_page_hits_total", "Buffer-pool fetches served by a "
      "resident frame");
  page_misses_ = &registry->CounterOf(
      "ltc_store_page_misses_total",
      "Buffer-pool fetches that went to disk (or created a fresh page)");
  evictions_clean_ = &registry->CounterOf(
      "ltc_store_evictions_total",
      "Frames the CLOCK hand evicted, by whether a write-back was owed",
      {{"kind", "clean"}});
  evictions_dirty_ = &registry->CounterOf(
      "ltc_store_evictions_total",
      "Frames the CLOCK hand evicted, by whether a write-back was owed",
      {{"kind", "dirty"}});
  wal_records_ = &registry->CounterOf(
      "ltc_store_wal_records_total",
      "Atomic multi-page records appended to the write-ahead log");
  wal_bytes_ = &registry->CounterOf(
      "ltc_store_wal_bytes_total",
      "Bytes appended to the write-ahead log");
  checkpoints_ = &registry->CounterOf(
      "ltc_store_checkpoints_total",
      "CheckpointDirty calls that flushed, synced and removed the WAL");
  const char* fsyncs_help =
      "fsyncs the store asked for, by what they make durable";
  fsyncs_wal_ = &registry->CounterOf("ltc_store_fsyncs_total", fsyncs_help,
                                     {{"kind", "wal"}});
  fsyncs_page_ = &registry->CounterOf("ltc_store_fsyncs_total", fsyncs_help,
                                      {{"kind", "page"}});
  fsyncs_dir_ = &registry->CounterOf("ltc_store_fsyncs_total", fsyncs_help,
                                     {{"kind", "dir"}});
  const char* replay_help =
      "WAL page deltas at the last Open, by replay outcome";
  registry
      ->CounterOf("ltc_store_replay_deltas_total", replay_help,
                  {{"outcome", "applied"}})
      .SetFromSample(recovery_.deltas_applied);
  registry
      ->CounterOf("ltc_store_replay_deltas_total", replay_help,
                  {{"outcome", "stale"}})
      .SetFromSample(recovery_.deltas_stale);
  registry
      ->CounterOf("ltc_store_replay_torn_tails_total",
                  "WAL tails truncated at a bad frame during recovery")
      .SetFromSample(recovery_.torn_tail ? 1 : 0);
  registry
      ->CounterOf("ltc_store_corrupt_pages_total",
                  "Page files that failed frame checks during recovery")
      .SetFromSample(recovery_.corrupt_pages);
  tenants_gauge_ = &registry->GaugeOf(
      "ltc_store_tenants", "Tenant sketches the store currently hosts");
  frames_resident_ = &registry->GaugeOf(
      "ltc_store_frames_resident",
      "Page frames resident in the buffer pool");
  frames_dirty_ = &registry->GaugeOf(
      "ltc_store_frames_dirty",
      "Resident frames owing a write-back");
  checkpoint_duration_usec_ = &registry->HistogramOf(
      "ltc_store_checkpoint_duration_usec",
      "Latency of incremental checkpoints (flush dirty, fsync, remove WAL) "
      "in microseconds");
  checkpoint_dirty_pages_ = &registry->HistogramOf(
      "ltc_store_checkpoint_dirty_pages",
      "Dirty pages each incremental checkpoint had to write back");
  PublishMetrics();
}

void SketchStore::PublishMetrics() {
  if (metrics_ == nullptr) return;
  const BufferPool::Stats& pool_stats = pool_->stats();
  pages_in_->SetFromSample(pool_stats.pages_loaded);
  pages_out_->SetFromSample(pool_stats.pages_stored);
  page_hits_->SetFromSample(pool_stats.hits);
  page_misses_->SetFromSample(pool_stats.misses);
  evictions_clean_->SetFromSample(pool_stats.evictions_clean);
  evictions_dirty_->SetFromSample(pool_stats.evictions_dirty);
  fsyncs_wal_->SetFromSample(stats_.fsyncs_wal);
  fsyncs_page_->SetFromSample(stats_.fsyncs_page);
  fsyncs_dir_->SetFromSample(stats_.fsyncs_dir);
  tenants_gauge_->Set(static_cast<double>(tenant_pages_.size()));
  frames_resident_->Set(static_cast<double>(pool_->resident()));
  frames_dirty_->Set(static_cast<double>(pool_->dirty_count()));
}

}  // namespace store
}  // namespace ltc
