// Durable phase (durable_tenants): both durability
// engines on one input. (a) A one-sketch IngestPipeline with a
// SnapshotStore, checkpointed on a record cadence after an explicit
// Flush (ltc_cli --threads N --checkpoint-every). (b) A SketchStore with
// several tenants under a memory budget below their total size (ltc_cli
// --store): each chunk Puts the tenants it touched, CheckpointDirty runs
// on the same cadence, the last Puts follow the last checkpoint, and the
// store is reopened, which replays the WAL. fsync and page writes
// dominate here.
#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <memory>

#include "bench.h"
#include "core/sharded_ltc.h"
#include "ingest/ingest_pipeline.h"
#include "snapshot/fs.h"
#include "snapshot/snapshot_store.h"
#include "store/sketch_store.h"

namespace perfbench {
namespace {

constexpr uint64_t kCheckpointEvery = 131'072;  // records
constexpr uint64_t kTenants = 8;
constexpr size_t kTenantMemory = 64 * 1024;     // ltc_cli's default budget
constexpr size_t kPoolBudget = kTenants * kTenantMemory / 2;
// The store feeds the stream's first eight chunks. Every chunk past the
// first evicts dirty pages, and each eviction costs an fsync chain, so
// the whole stream would take most of a round; eight chunks keep three
// checkpoints and two chunks of WAL tail to replay.
constexpr uint64_t kStoreRecords = 8 * kChunk;

// The real filesystem, counting the bytes the engines write through it
// and the fsyncs (of files and directories) they ask for.
class CountingFs final : public ltc::Fs {
 public:
  uint64_t written = 0;
  uint64_t syncs = 0;
  bool WriteAll(const std::string& path, std::string_view data) override {
    written += data.size();
    return ltc::SystemFs().WriteAll(path, data);
  }
  bool AppendAll(const std::string& path, std::string_view data) override {
    written += data.size();
    return ltc::SystemFs().AppendAll(path, data);
  }
  std::optional<std::string> ReadAll(const std::string& path) override {
    return ltc::SystemFs().ReadAll(path);
  }
  bool Sync(const std::string& path) override {
    ++syncs;
    return ltc::SystemFs().Sync(path);
  }
  bool SyncDir(const std::string& path) override {
    ++syncs;
    return ltc::SystemFs().SyncDir(path);
  }
  bool Rename(const std::string& from, const std::string& to) override {
    return ltc::SystemFs().Rename(from, to);
  }
  bool Remove(const std::string& path) override {
    return ltc::SystemFs().Remove(path);
  }
  bool Exists(const std::string& path) override {
    return ltc::SystemFs().Exists(path);
  }
  std::optional<std::vector<std::string>> ListDir(
      const std::string& dir) override {
    return ltc::SystemFs().ListDir(dir);
  }
};

// ltc_cli's record -> tenant mix (a multiplicative hash, not a modulus).
uint64_t TenantOf(ltc::ItemId item) {
  return (item * 0x9E3779B97F4A7C15ULL >> 32) % kTenants;
}

// The disk's speed right now: one 4 KB write + fsync of a file of the
// benchmark's own, through plain POSIX calls (no library code), in ms.
// The host's fsync latency moves by 2x within seconds; this per-layer
// figure says how fast the disk was while the durable timings ran.
double ProbeFsyncMs(const std::string& path) {
  static const std::string page(4096, 'p');
  const uint64_t t0 = NowNs();
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return -1.0;
  const bool ok = ::write(fd, page.data(), page.size()) ==
                      static_cast<ssize_t>(page.size()) &&
                  ::fsync(fd) == 0;
  ::close(fd);
  return ok ? (NowNs() - t0) / 1e6 : -1.0;
}
constexpr int kProbesPerCheckpoint = 3;

class DurablePhase final : public Phase {
 public:
  explicit DurablePhase(const PhaseContext& c)
      : c_(c),
        records_(c.input.records()),
        pipeline_config_(PaperConfig(c.input)),
        tenant_config_(PaperConfig(c.input, kTenantMemory)) {}

  void Round(int round) override;
  void Report() override;

 private:
  const PhaseContext c_;
  const std::span<const ltc::Record> records_;
  const ltc::LtcConfig pipeline_config_;
  const ltc::LtcConfig tenant_config_;

  std::vector<double> pipeline_ckpt_ms_, store_ckpt_ms_, recovery_ms_,
      durable_mb_, durable_fsyncs_, put_us_, dirty_pages_, probe_ms_;
  double store_seconds_ = 0.0;
  uint64_t store_records_ = 0;

  uint64_t snapshot_bytes_ = 0, snapshot_count_ = 0;
  uint64_t put_bytes_ = 0, puts_ = 0, replayed_ = 0;
  ltc::store::BufferPool::Stats pool_stats_;
};

void DurablePhase::Round(int round) {
  namespace fs = std::filesystem;
  Results& results = c_.results;
  const std::span<const ltc::Record> records = records_;
  const uint64_t n = records.size();
  // Chunks small enough that the cadence lands on chunk boundaries.
  const size_t chunk = std::min<size_t>(kChunk, kCheckpointEvery);
  Span round_span("durable.round");
  // Round directories stay until the next run starts: deleting files
  // here would put the filesystem's discards under the next round's
  // fsyncs.
  const std::string dir =
      c_.settings.work_dir + "/durable-" + std::to_string(round);
  fs::create_directories(dir + "/snap");
  fs::create_directories(dir + "/store");
  CountingFs snap_fs;
  CountingFs store_fs;
  // Takes kProbesPerCheckpoint probe samples; returns the ns they took.
  auto probe = [&] {
    const uint64_t p0 = NowNs();
    for (int i = 0; i < kProbesPerCheckpoint; ++i) {
      const double ms = ProbeFsyncMs(dir + "/probe");
      results.Check(ms > 0.0, "the fsync probe failed");
      probe_ms_.push_back(ms);
    }
    return NowNs() - p0;
  };

  const uint64_t setup_start = NowNs();
  ltc::SnapshotStore rotation(dir + "/snap/ckpt", {}, &snap_fs);
  ltc::ShardedLtc sink(pipeline_config_, 1);
  auto pipeline = std::make_unique<ltc::IngestPipeline>(sink);
  pipeline->AttachSnapshotStore(&rotation);
  std::string error;
  auto store = ltc::store::SketchStore::Open(
      store_fs, dir + "/store", {4096, kPoolBudget}, &error);
  std::vector<ltc::Ltc> tenants(kTenants, ltc::Ltc(tenant_config_));
  results.Setup("durable", (NowNs() - setup_start) / 1e9);
  if (store == nullptr) {
    results.Check(false, "cannot open the sketch store: " + error);
    return;
  }

  // (a) Pipeline checkpoints.
  std::string last_checkpoint;
  uint64_t since = 0;
  for (uint64_t i = 0; i < n; i += chunk) {
    const size_t m = std::min<uint64_t>(chunk, n - i);
    pipeline->PushBatch(records.subspan(i, m));
    since += m;
    if (since < kCheckpointEvery) continue;
    since = 0;
    pipeline->Flush();
    probe();
    const uint64_t t0 = NowNs();
    bool ok = false;
    {
      Span span("snapshot.checkpoint");
      ok = pipeline->Checkpoint(&error);
    }
    pipeline_ckpt_ms_.push_back((NowNs() - t0) / 1e6);
    results.Count("durable.pipeline_checkpoints", 1, ok ? 0 : 1);
    last_checkpoint = Bytes(sink);  // quiescent: Checkpoint flushed
  }
  pipeline->Stop();
  results.Count("durable.pipeline_records", n,
                n - std::min(n, pipeline->TotalEnqueued()));
  snapshot_bytes_ += snap_fs.written;
  snapshot_count_ += pipeline->CheckpointsTaken();
  const auto loaded = rotation.LoadLatest(&error);
  std::optional<ltc::ShardedLtc> reloaded;
  if (loaded.has_value()) {
    ltc::BinaryReader reader(loaded->payload);
    reloaded = ltc::ShardedLtc::Deserialize(reader);
  }
  results.Check(reloaded.has_value() && Bytes(*reloaded) == last_checkpoint,
                "the newest snapshot does not reload the checkpointed "
                "tables byte for byte");

  // (b) The paged store: Put every touched tenant per chunk.
  const uint64_t store_n = std::min<uint64_t>(n, kStoreRecords);
  std::vector<std::vector<ltc::Record>> runs(kTenants);
  const uint64_t t0 = NowNs();
  uint64_t probe_ns = 0;
  since = 0;
  for (uint64_t i = 0; i < store_n; i += chunk) {
    const size_t m = std::min<uint64_t>(chunk, store_n - i);
    for (auto& run : runs) run.clear();
    for (const ltc::Record& r : records.subspan(i, m)) {
      runs[TenantOf(r.item)].push_back(r);
    }
    for (uint64_t t = 0; t < kTenants; ++t) {
      if (runs[t].empty()) continue;
      tenants[t].InsertBatch(runs[t]);
      const uint64_t wal_before = store->stats().wal_bytes;
      const uint64_t p0 = NowNs();
      bool ok = false;
      {
        Span span("store.put");
        ok = store->Put(t, tenants[t], &error);
      }
      put_us_.push_back((NowNs() - p0) / 1e3);
      put_bytes_ += store->stats().wal_bytes - wal_before;
      ++puts_;
      results.Count("durable.puts", 1, ok ? 0 : 1);
    }
    since += m;
    // The stream's tail stays in the WAL only: no checkpoint after the
    // last chunk, so reopening has records to replay.
    if (since < kCheckpointEvery || i + m >= store_n) continue;
    since = 0;
    dirty_pages_.push_back(static_cast<double>(store->pool().dirty_count()));
    probe_ns += probe();
    const uint64_t c0 = NowNs();
    bool ok = false;
    {
      Span span("store.checkpoint");
      ok = store->CheckpointDirty(&error);
    }
    store_ckpt_ms_.push_back((NowNs() - c0) / 1e6);
    results.Count("durable.store_checkpoints", 1, ok ? 0 : 1);
  }
  const double feed_seconds = (NowNs() - t0 - probe_ns) / 1e9;
  store_seconds_ += feed_seconds;
  store_records_ += store_n;
  const ltc::store::BufferPool::Stats& ps = store->pool().stats();
  pool_stats_.hits += ps.hits;
  pool_stats_.misses += ps.misses;
  pool_stats_.evictions_clean += ps.evictions_clean;
  pool_stats_.evictions_dirty += ps.evictions_dirty;
  store.reset();

  // Reopen: replays the WAL over the page files.
  probe();
  const uint64_t r0 = NowNs();
  {
    Span span("store.recovery");
    store = ltc::store::SketchStore::Open(store_fs, dir + "/store",
                                          {4096, kPoolBudget}, &error);
  }
  recovery_ms_.push_back((NowNs() - r0) / 1e6);
  results.Count("durable.reopens", 1, store == nullptr ? 1 : 0);
  if (store == nullptr) {
    results.Check(false, "cannot reopen the sketch store: " + error);
    return;
  }
  durable_mb_.push_back((snap_fs.written + store_fs.written) / 1e6);
  durable_fsyncs_.push_back(
      static_cast<double>(snap_fs.syncs + store_fs.syncs));
  const ltc::store::RecoveryReport& report = store->recovery();
  replayed_ += report.records;
  results.Check(report.records > 0, "reopening replayed no WAL records");
  results.Check(!report.torn_tail && report.corrupt_pages == 0,
                "recovery found torn or corrupt records");
  for (uint64_t t = 0; t < kTenants; ++t) {
    const auto got = store->Get(t, &error);
    results.Check(got.has_value() && Bytes(*got) == Bytes(tenants[t]),
                  "tenant " + std::to_string(t) +
                      " differs from memory after reopening");
  }
  store.reset();
}

void DurablePhase::Report() {
  Results& results = c_.results;
  // What the durable paths cost, as counts a seed fixes: bytes written
  // and fsyncs asked for in one round. The host's fsync latency flips
  // between levels every few seconds, so the timings did not repeat
  // within any usable bound; they are per-layer figures below.
  results.RoundMetric("durable_mb", durable_mb_, "MB");
  results.RoundMetric("durable_fsyncs", durable_fsyncs_, "count");

  if (!c_.settings.trace) return;
  // Means over every sample of the run: with fsync latency bimodal, a
  // median over rounds jumps between the modes.
  results.Metric("store.ingest_mrps",
                 static_cast<double>(store_records_) / store_seconds_ / 1e6,
                 "Mrec/s", false);
  results.Metric("snapshot.checkpoint_ms", Mean(pipeline_ckpt_ms_), "ms",
                 false);
  results.Metric("store.checkpoint_ms", Mean(store_ckpt_ms_), "ms", false);
  results.Metric("store.recovery_ms", Mean(recovery_ms_), "ms", false);
  results.Metric("disk.fsync_probe_ms", Median(probe_ms_), "ms", false);
  results.Metric("snapshot.checkpoint_bytes",
                 static_cast<double>(snapshot_bytes_) /
                     static_cast<double>(std::max<uint64_t>(snapshot_count_, 1)),
                 "bytes", false);
  results.Metric("store.put_us_p50", Median(put_us_), "us", false);
  results.Metric("store.put_us_p99", Percentile(put_us_, 0.99), "us", false);
  results.Metric("store.put_bytes",
                 static_cast<double>(put_bytes_) /
                     static_cast<double>(std::max<uint64_t>(puts_, 1)),
                 "bytes", false);
  results.Metric("store.dirty_pages", Median(dirty_pages_), "pages", false);
  const uint64_t lookups = pool_stats_.hits + pool_stats_.misses;
  results.Metric("pool.hit_ratio",
                 static_cast<double>(pool_stats_.hits) /
                     static_cast<double>(std::max<uint64_t>(lookups, 1)),
                 "ratio", false);
  results.Metric("pool.evictions_clean",
                 static_cast<double>(pool_stats_.evictions_clean), "count",
                 false);
  results.Metric("pool.evictions_dirty",
                 static_cast<double>(pool_stats_.evictions_dirty), "count",
                 false);
  results.Metric("recovery.replayed", static_cast<double>(replayed_), "records",
                 false);
}

}  // namespace

std::unique_ptr<Phase> MakeDurablePhase(const PhaseContext& context) {
  return std::make_unique<DurablePhase>(context);
}

}  // namespace perfbench
