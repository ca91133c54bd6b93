// The fault-injected proof for the paged sketch store: a
// deterministic kill at EVERY mutating filesystem operation — WAL
// appends, page write-backs, budget-pressure evictions, checkpoint
// syncs and truncation, and WAL replay itself — after which reopening
// the store must recover every tenant's sketch bit-identical to the
// sequential oracle: the last acked Put, or the in-flight Put for the
// one tenant whose update the crash interrupted. Never a mix, never a
// loss. Three fault shapes: a process kill (kCrash: unsynced writes
// survive), a torn write (kTornWriteCrash), and a power loss
// (kPowerLoss: everything not fsynced is undone), which is the one
// that proves each page fsync a checkpoint issues is needed.

#include <filesystem>
#include <map>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "common/serial.h"
#include "core/ltc.h"
#include "snapshot/failpoint_fs.h"
#include "snapshot/fs.h"
#include "store/sketch_store.h"

namespace ltc {
namespace store {
namespace {

// Four cells in one bucket: 5 pages at page_bytes=64 (header + one
// page per lane), so a 4-frame budget forces evictions mid-Put.
LtcConfig TinyConfig() {
  LtcConfig config;
  config.memory_bytes = LtcConfig::BytesPerCell() * 4;
  config.cells_per_bucket = 4;
  config.items_per_period = 50;
  return config;
}

SketchStoreOptions TinyOptions() {
  SketchStoreOptions options;
  options.page_bytes = 64;
  options.mem_budget_bytes = 64 * 4;
  return options;
}

// kPowerLoss draws, per file name and seed, whether an undurable name
// change sticks and whether unsynced bytes revert or tear. These seeds
// give wal.log all four outcomes.
constexpr uint64_t kPowerLossSeeds[] = {0, 1, 3, 12};

std::string SerializedBytes(const Ltc& sketch) {
  BinaryWriter writer;
  sketch.Serialize(writer);
  return writer.data();
}

// What the sequential oracle knows at the moment the run stopped:
// per tenant, the bytes of the last Put the store ACKED, and — for at
// most one tenant — the bytes of the Put that was in flight.
struct WorkloadResult {
  std::map<uint64_t, std::string> acked;
  std::map<uint64_t, std::string> pending;
  bool completed = false;
};

// The scripted workload: three tenants, three rounds of
// insert-then-Put, an incremental checkpoint after round 0, an
// explicit eviction after round 1, a final checkpoint. Deterministic,
// so every kill index replays the identical op sequence up to the
// kill.
bool RunWorkload(Fs& fs, const std::string& dir, WorkloadResult* out) {
  std::string error;
  auto store = SketchStore::Open(fs, dir, TinyOptions(), &error);
  if (store == nullptr) return false;

  std::map<uint64_t, Ltc> sketches;
  for (uint64_t t = 0; t < 3; ++t) sketches.emplace(t, Ltc(TinyConfig()));

  auto put = [&](uint64_t t) {
    out->pending[t] = SerializedBytes(sketches.at(t));
    if (!store->Put(t, sketches.at(t), &error)) return false;
    out->acked[t] = out->pending[t];
    out->pending.erase(t);
    return true;
  };

  for (int round = 0; round < 3; ++round) {
    for (uint64_t t = 0; t < 3; ++t) {
      for (int i = 0; i < 20; ++i) {
        // +1: ItemId 0 is the reserved empty-cell marker.
        sketches.at(t).Insert(100 * t + (i % (3 + t)) + round + 1);
      }
      if (!put(t)) return false;
    }
    if (round == 0 && !store->CheckpointDirty(&error)) return false;
    if (round == 1 && !store->EvictTenant(0, &error)) return false;
  }
  if (!store->CheckpointDirty(&error)) return false;
  out->completed = true;
  return true;
}

class StoreCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::path(::testing::TempDir()) /
           (std::string("storecrash_") + info->name());
    ResetDir();
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  void ResetDir() {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

  // Reopens on the clean filesystem and checks every tenant against
  // the oracle's allowed set, then proves the store is live again.
  void VerifyRecovery(const WorkloadResult& result, uint64_t kill_at,
                      uint64_t seed) {
    SCOPED_TRACE("kill_at=" + std::to_string(kill_at) +
                 " seed=" + std::to_string(seed));
    std::string error;
    auto store = SketchStore::Open(SystemFs(), dir_.string(), TinyOptions(),
                                   &error);
    ASSERT_NE(store, nullptr) << "recovery failed: " << error;

    for (uint64_t t = 0; t < 3; ++t) {
      const auto acked = result.acked.find(t);
      const auto pending = result.pending.find(t);
      if (!store->Contains(t)) {
        // A tenant may be missing only if no Put for it was ever acked
        // (its first WAL record was torn off the tail).
        EXPECT_EQ(acked, result.acked.end())
            << "tenant " << t << " lost an acked Put";
        continue;
      }
      auto got = store->Get(t, &error);
      ASSERT_TRUE(got.has_value()) << "tenant " << t << ": " << error;
      const std::string bytes = SerializedBytes(*got);
      const bool matches_acked =
          acked != result.acked.end() && bytes == acked->second;
      const bool matches_pending =
          pending != result.pending.end() && bytes == pending->second;
      EXPECT_TRUE(matches_acked || matches_pending)
          << "tenant " << t
          << " recovered to neither its pre-Put nor its post-Put image";
    }

    // Liveness: the recovered store takes new writes and checkpoints.
    Ltc fresh(TinyConfig());
    fresh.Insert(999);
    if (store->Contains(0)) {
      auto resumed = store->Get(0, &error);
      ASSERT_TRUE(resumed.has_value()) << error;
      resumed->Insert(999);
      fresh = std::move(*resumed);
    }
    ASSERT_TRUE(store->Put(0, fresh, &error)) << error;
    ASSERT_TRUE(store->CheckpointDirty(&error)) << error;
    auto back = store->Get(0, &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(SerializedBytes(*back), SerializedBytes(fresh));
  }

  // Two tenants, two rounds of Puts through `fs` and no checkpoint, with
  // tenant 0's pages written back after round 0: a replay then meets
  // both stale images (already in the page files) and fresh ones
  // (WAL-only).
  void BuildUncheckpointedState(Fs& fs,
                                std::map<uint64_t, std::string>* oracle) {
    ResetDir();
    std::string error;
    auto store = SketchStore::Open(fs, dir_.string(), TinyOptions(), &error);
    ASSERT_NE(store, nullptr) << error;
    std::map<uint64_t, Ltc> sketches;
    for (uint64_t t = 0; t < 2; ++t) sketches.emplace(t, Ltc(TinyConfig()));
    for (int round = 0; round < 2; ++round) {
      for (uint64_t t = 0; t < 2; ++t) {
        for (int i = 0; i < 15; ++i) {
          sketches.at(t).Insert(10 * t + i % 4 + 1);
        }
        ASSERT_TRUE(store->Put(t, sketches.at(t), &error)) << error;
      }
      if (round == 0) {
        ASSERT_TRUE(store->EvictTenant(0, &error)) << error;
      }
    }
    for (uint64_t t = 0; t < 2; ++t) {
      (*oracle)[t] = SerializedBytes(sketches.at(t));
    }
  }

  std::filesystem::path dir_;
};

TEST_F(StoreCrashTest, KillAtEveryOpRecoversBitIdentical) {
  // Rehearsal: learn how many mutating ops a clean run performs.
  uint64_t ops_total = 0;
  {
    FailpointFs fs(SystemFs());
    WorkloadResult rehearsal;
    ASSERT_TRUE(RunWorkload(fs, dir_.string(), &rehearsal));
    ASSERT_TRUE(rehearsal.completed);
    ops_total = fs.mutating_ops();
  }
  // Sanity: the workload must actually exercise WAL appends, page
  // write-backs from eviction pressure, and checkpoint truncation.
  ASSERT_GT(ops_total, 40u) << "workload too small to be a proof";

  for (uint64_t kill_at = 0; kill_at < ops_total; ++kill_at) {
    for (uint64_t seed : {0u, 1u, 7u}) {
      ResetDir();
      FailpointFs fs(SystemFs());
      fs.Arm(FailpointFs::Failure::kCrash, kill_at, seed);
      WorkloadResult result;
      EXPECT_FALSE(RunWorkload(fs, dir_.string(), &result))
          << "kill_at=" << kill_at << " did not stop the run";
      ASSERT_TRUE(fs.crashed());
      VerifyRecovery(result, kill_at, seed);
    }
  }
}

TEST_F(StoreCrashTest, TornWriteAtEveryWriteRecoversBitIdentical) {
  // Same sweep, but every kill tears the crashing write mid-record —
  // the strictest shape a WAL append or page write can be left in.
  uint64_t ops_total = 0;
  {
    FailpointFs fs(SystemFs());
    WorkloadResult rehearsal;
    ASSERT_TRUE(RunWorkload(fs, dir_.string(), &rehearsal));
    ops_total = fs.mutating_ops();
  }

  for (uint64_t kill_at = 0; kill_at < ops_total; ++kill_at) {
    for (uint64_t seed : {3u, 11u}) {
      ResetDir();
      FailpointFs fs(SystemFs());
      fs.Arm(FailpointFs::Failure::kTornWriteCrash, kill_at, seed);
      WorkloadResult result;
      RunWorkload(fs, dir_.string(), &result);
      if (!fs.fired()) continue;  // no write op at/after this index
      VerifyRecovery(result, kill_at, seed);
    }
  }
}

TEST_F(StoreCrashTest, PowerLossAtEveryOpRecoversBitIdentical) {
  // Page write-backs are plain writes with no fsync until the next
  // checkpoint, so here every unsynced page image (and every name not
  // yet covered by a directory fsync) is lost or torn at the cut.
  uint64_t ops_total = 0;
  {
    FailpointFs fs(SystemFs());
    WorkloadResult rehearsal;
    ASSERT_TRUE(RunWorkload(fs, dir_.string(), &rehearsal));
    ops_total = fs.mutating_ops();
  }
  ASSERT_GT(ops_total, 40u) << "workload too small to be a proof";

  for (uint64_t kill_at = 0; kill_at < ops_total; ++kill_at) {
    for (uint64_t seed : kPowerLossSeeds) {
      ResetDir();
      FailpointFs fs(SystemFs());
      fs.Arm(FailpointFs::Failure::kPowerLoss, kill_at, seed);
      WorkloadResult result;
      EXPECT_FALSE(RunWorkload(fs, dir_.string(), &result))
          << "kill_at=" << kill_at << " did not stop the run";
      ASSERT_TRUE(fs.crashed());
      VerifyRecovery(result, kill_at, seed);
    }
  }
}

TEST_F(StoreCrashTest, KillDuringReplayIsIdempotent) {
  // Crash recovery itself at every op: build a state whose WAL still
  // holds un-checkpointed images, kill the replaying Open at op k, and
  // demand a clean reopen land on the oracle regardless of how far the
  // interrupted replay got. Replay only writes page files and never
  // touches the log, and the LSN test skips what is already there, so
  // a rerun makes the same decisions; this sweep is the proof.
  uint64_t kill_at = 0;
  while (true) {
    SCOPED_TRACE("replay kill_at=" + std::to_string(kill_at));
    std::map<uint64_t, std::string> oracle;
    BuildUncheckpointedState(SystemFs(), &oracle);
    ASSERT_FALSE(oracle.empty());

    FailpointFs fs(SystemFs());
    fs.Arm(FailpointFs::Failure::kCrash, kill_at, /*seed=*/1);
    std::string error;
    auto interrupted =
        SketchStore::Open(fs, dir_.string(), TinyOptions(), &error);
    const bool fired = fs.fired();
    (void)interrupted;  // may be nullptr; either way we reopen clean

    auto recovered = SketchStore::Open(SystemFs(), dir_.string(),
                                       TinyOptions(), &error);
    ASSERT_NE(recovered, nullptr) << error;
    for (const auto& [tenant, bytes] : oracle) {
      auto got = recovered->Get(tenant, &error);
      ASSERT_TRUE(got.has_value()) << "tenant " << tenant << ": " << error;
      EXPECT_EQ(SerializedBytes(*got), bytes) << "tenant " << tenant;
    }

    if (!fired) break;  // replay finished before reaching op kill_at
    ++kill_at;
  }
  EXPECT_GT(kill_at, 0u) << "replay performed no mutating ops to kill";
}

TEST_F(StoreCrashTest, PowerLossAfterKillDuringReplayAndCheckpoint) {
  // One process writes the state and dies without a checkpoint, so its
  // page write-backs sit unsynced in the page cache. The next process
  // replays, checkpoints and Puts once more, and the power fails at any
  // op of it: every page the log names, stale or replayed, must be
  // fsynced before the log goes. The FailpointFs spans both processes,
  // so it knows which bytes the first one never synced.
  uint64_t build_ops = 0;
  {
    FailpointFs fs(SystemFs());
    std::map<uint64_t, std::string> oracle;
    BuildUncheckpointedState(fs, &oracle);
    build_ops = fs.mutating_ops();
  }
  for (uint64_t seed : kPowerLossSeeds) {
    uint64_t kill_at = 0;
    while (true) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " kill_at=" + std::to_string(kill_at));
      FailpointFs fs(SystemFs());
      fs.Arm(FailpointFs::Failure::kPowerLoss, build_ops + kill_at, seed);
      std::map<uint64_t, std::string> oracle;
      BuildUncheckpointedState(fs, &oracle);
      ASSERT_FALSE(fs.fired());

      std::string error;
      std::optional<std::string> pending;  // tenant 0's next image
      bool acked = false;
      auto next = SketchStore::Open(fs, dir_.string(), TinyOptions(), &error);
      if (next != nullptr && next->CheckpointDirty(&error)) {
        auto sketch = next->Get(0, &error);
        ASSERT_TRUE(sketch.has_value()) << error;
        sketch->Insert(77);
        pending = SerializedBytes(*sketch);
        acked = next->Put(0, *sketch, &error);
      }
      const bool fired = fs.fired();
      next.reset();

      auto recovered = SketchStore::Open(SystemFs(), dir_.string(),
                                         TinyOptions(), &error);
      ASSERT_NE(recovered, nullptr) << error;
      for (const auto& [tenant, bytes] : oracle) {
        auto got = recovered->Get(tenant, &error);
        ASSERT_TRUE(got.has_value()) << "tenant " << tenant << ": " << error;
        const std::string got_bytes = SerializedBytes(*got);
        if (tenant == 0 && pending.has_value() &&
            (acked || got_bytes == *pending)) {
          EXPECT_EQ(got_bytes, *pending) << "tenant 0 lost its acked Put";
        } else {
          EXPECT_EQ(got_bytes, bytes) << "tenant " << tenant;
        }
      }
      if (!fired) break;
      ++kill_at;
    }
    EXPECT_GT(kill_at, 2u) << "replay and checkpoint did too little";
  }
}

}  // namespace
}  // namespace store
}  // namespace ltc
