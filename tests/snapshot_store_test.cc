// SnapshotStore: rotation, retention, walk-back recovery, and the
// crash-consistency proof — a deterministic FailpointFs sweep that
// "kills the process" at EVERY mutating filesystem operation of a save
// and shows recovery always lands on a bit-valid snapshot.

#include <filesystem>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "snapshot/failpoint_fs.h"
#include "snapshot/frame.h"
#include "snapshot/fs.h"
#include "snapshot/snapshot_store.h"

namespace ltc {
namespace {

class SnapshotStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::path(::testing::TempDir()) /
           (std::string("snapstore_") + info->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    base_ = (dir_ / "table.ck").string();
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
  std::string base_;
};

TEST_F(SnapshotStoreTest, SaveAssignsIncreasingSequences) {
  SnapshotStore store(base_);
  std::string error;
  EXPECT_EQ(store.Save("one", &error), 1u) << error;
  EXPECT_EQ(store.Save("two", &error), 2u) << error;
  EXPECT_EQ(store.Save("three", &error), 3u) << error;
  auto latest = store.LoadLatest(&error);
  ASSERT_TRUE(latest.has_value()) << error;
  EXPECT_EQ(latest->payload, "three");
  EXPECT_EQ(latest->seq, 3u);
  EXPECT_TRUE(latest->skipped.empty());
}

TEST_F(SnapshotStoreTest, RetentionPrunesOldest) {
  SnapshotStoreConfig config;
  config.retain = 2;
  SnapshotStore store(base_, config);
  for (const char* p : {"a", "b", "c", "d", "e"}) {
    ASSERT_TRUE(store.Save(p).has_value());
  }
  const auto snapshots = store.ListSnapshots();
  ASSERT_EQ(snapshots.size(), 2u);
  EXPECT_EQ(snapshots[0].seq, 5u);  // newest first
  EXPECT_EQ(snapshots[1].seq, 4u);
}

TEST_F(SnapshotStoreTest, SequenceResumesAcrossStoreInstances) {
  {
    SnapshotStore store(base_);
    ASSERT_TRUE(store.Save("first").has_value());
  }
  SnapshotStore reopened(base_);
  EXPECT_EQ(reopened.Save("second"), 2u);
}

TEST_F(SnapshotStoreTest, LoadLatestWalksBackOverCorruption) {
  SnapshotStore store(base_);
  ASSERT_TRUE(store.Save("good-old").has_value());
  ASSERT_TRUE(store.Save("newest").has_value());
  // Corrupt the newest snapshot on disk.
  const auto snapshots = store.ListSnapshots();
  ASSERT_EQ(snapshots[0].seq, 2u);
  auto bytes = SystemFs().ReadAll(snapshots[0].path);
  ASSERT_TRUE(bytes.has_value());
  (*bytes)[bytes->size() - 1] ^= 0x20;
  ASSERT_TRUE(SystemFs().WriteAll(snapshots[0].path, *bytes));

  std::string error;
  const auto recovered = store.LoadLatest(&error);
  ASSERT_TRUE(recovered.has_value()) << error;
  EXPECT_EQ(recovered->payload, "good-old");
  EXPECT_EQ(recovered->seq, 1u);
  ASSERT_EQ(recovered->skipped.size(), 1u);
  EXPECT_EQ(recovered->skipped[0].seq, 2u);
  EXPECT_EQ(recovered->skipped[0].error, SnapshotError::kBadPayloadCrc);
}

TEST_F(SnapshotStoreTest, ValidatorRejectionContinuesTheWalk) {
  SnapshotStore store(base_);
  ASSERT_TRUE(store.Save("parseable").has_value());
  ASSERT_TRUE(store.Save("frame-valid-but-unparseable").has_value());
  std::string error;
  const auto recovered = store.LoadLatest(
      &error, [](std::string_view payload) { return payload == "parseable"; });
  ASSERT_TRUE(recovered.has_value()) << error;
  EXPECT_EQ(recovered->payload, "parseable");
  ASSERT_EQ(recovered->skipped.size(), 1u);
  EXPECT_EQ(recovered->skipped[0].error, SnapshotError::kPayloadRejected);
}

TEST_F(SnapshotStoreTest, NoSnapshotsIsATypedMiss) {
  SnapshotStore store(base_);
  std::string error;
  EXPECT_FALSE(store.LoadLatest(&error).has_value());
  EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------------
// Fault-injection matrix: every failpoint either fails the save cleanly
// or plants corruption the recovery walk skips — the previous snapshot
// is ALWAYS recoverable.
// ---------------------------------------------------------------------------

class SnapshotFaultMatrixTest
    : public SnapshotStoreTest,
      public ::testing::WithParamInterface<FailpointFs::Failure> {};

TEST_P(SnapshotFaultMatrixTest, PriorSnapshotSurvivesEveryFailure) {
  FailpointFs fs(SystemFs());
  SnapshotStore store(base_, {}, &fs);
  ASSERT_TRUE(store.Save("generation-1").has_value());

  const uint64_t ops_before = fs.mutating_ops();
  fs.Arm(GetParam(), ops_before, /*seed=*/5);
  std::string error;
  const auto seq = store.Save("generation-2", &error);
  EXPECT_TRUE(fs.fired());
  const bool silent_corruption =
      GetParam() == FailpointFs::Failure::kFlipByteInWrite ||
      GetParam() == FailpointFs::Failure::kTruncateAfterRename;
  if (!silent_corruption) {
    EXPECT_FALSE(seq.has_value()) << "save should have reported the fault";
    EXPECT_FALSE(error.empty());
  }

  // Recovery (a fresh store, as after a restart) must land on a valid
  // snapshot: generation-1, or generation-2 when the fault hit after
  // the payload was fully and correctly renamed into place.
  fs.Arm(FailpointFs::Failure::kNone, 0);
  SnapshotStore after_restart(base_, {}, &fs);
  const auto recovered = after_restart.LoadLatest(&error);
  ASSERT_TRUE(recovered.has_value()) << error;
  EXPECT_TRUE(recovered->payload == "generation-1" ||
              recovered->payload == "generation-2")
      << "recovered garbage: " << recovered->payload;
  if (silent_corruption) {
    // The corrupted generation-2 file must be skipped via CRC, never
    // returned.
    EXPECT_EQ(recovered->payload, "generation-1");
    ASSERT_FALSE(recovered->skipped.empty());
    EXPECT_NE(recovered->skipped[0].error, SnapshotError::kNone);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFailures, SnapshotFaultMatrixTest,
    ::testing::Values(FailpointFs::Failure::kShortWrite,
                      FailpointFs::Failure::kWriteError,
                      FailpointFs::Failure::kSyncError,
                      FailpointFs::Failure::kRenameError,
                      FailpointFs::Failure::kTruncateAfterRename,
                      FailpointFs::Failure::kFlipByteInWrite),
    [](const auto& info) {
      switch (info.param) {
        case FailpointFs::Failure::kShortWrite: return "ShortWrite";
        case FailpointFs::Failure::kWriteError: return "WriteError";
        case FailpointFs::Failure::kSyncError: return "SyncError";
        case FailpointFs::Failure::kRenameError: return "RenameError";
        case FailpointFs::Failure::kTruncateAfterRename:
          return "TruncateAfterRename";
        case FailpointFs::Failure::kFlipByteInWrite: return "FlipByteInWrite";
        default: return "Unknown";
      }
    });

// ---------------------------------------------------------------------------
// The kill-point sweep: crash at EVERY mutating filesystem operation of
// a checkpoint (with several torn-write seeds each) and prove recovery
// always returns a bit-valid prior snapshot. This is the unit-level
// "kill -9 mid-checkpoint" proof; tools/crash_recovery.sh repeats it
// with a real SIGKILL.
// ---------------------------------------------------------------------------

TEST_F(SnapshotStoreTest, CrashAtEveryOpRecoversToValidSnapshot) {
  // Learn how many mutating ops one save costs (a rehearsal run).
  uint64_t ops_per_save = 0;
  {
    FailpointFs fs(SystemFs());
    SnapshotStore store(base_, {}, &fs);
    ASSERT_TRUE(store.Save("rehearsal-1").has_value());
    const uint64_t before = fs.mutating_ops();
    ASSERT_TRUE(store.Save("rehearsal-2").has_value());
    ops_per_save = fs.mutating_ops() - before;
  }
  ASSERT_GE(ops_per_save, 3u);  // at least write, sync, rename

  for (uint64_t kill_at = 0; kill_at < ops_per_save; ++kill_at) {
    for (uint64_t seed : {0u, 1u, 7u}) {
      const std::string scenario = "kill at op " + std::to_string(kill_at) +
                                   " seed " + std::to_string(seed);
      std::filesystem::remove_all(dir_);
      std::filesystem::create_directories(dir_);

      FailpointFs fs(SystemFs());
      SnapshotStore store(base_, {}, &fs);
      ASSERT_TRUE(store.Save("before-crash").has_value()) << scenario;
      const uint64_t ops_before = fs.mutating_ops();
      fs.Arm(FailpointFs::Failure::kCrash, ops_before + kill_at, seed);
      store.Save("during-crash");
      ASSERT_TRUE(fs.crashed()) << scenario;

      // "Reboot": a fresh store over the real filesystem.
      std::string error;
      SnapshotStore recovery(base_);
      const auto recovered = recovery.LoadLatest(&error);
      ASSERT_TRUE(recovered.has_value()) << scenario << ": " << error;
      EXPECT_TRUE(recovered->payload == "before-crash" ||
                  recovered->payload == "during-crash")
          << scenario << " recovered garbage: " << recovered->payload;

      // And the machine keeps working: the next save after recovery
      // succeeds and becomes the newest snapshot.
      ASSERT_TRUE(recovery.Save("after-reboot").has_value()) << scenario;
      const auto next = recovery.LoadLatest(&error);
      ASSERT_TRUE(next.has_value()) << scenario << ": " << error;
      EXPECT_EQ(next->payload, "after-reboot") << scenario;
    }
  }
}

TEST_F(SnapshotStoreTest, AtomicWriteFileReplacesOrPreserves) {
  const std::string path = (dir_ / "file.bin").string();
  ASSERT_TRUE(AtomicWriteFile(SystemFs(), path, "old contents"));
  // A failed rewrite must leave the old bytes untouched.
  FailpointFs fs(SystemFs());
  fs.Arm(FailpointFs::Failure::kWriteError, 0);
  std::string error;
  EXPECT_FALSE(AtomicWriteFile(fs, path, "new contents", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(SystemFs().ReadAll(path), "old contents");
  // No temp file litter after the failure.
  EXPECT_FALSE(SystemFs().Exists(path + ".tmp"));
  // A clean rewrite replaces it.
  EXPECT_TRUE(AtomicWriteFile(SystemFs(), path, "new contents"));
  EXPECT_EQ(SystemFs().ReadAll(path), "new contents");
}

TEST_F(SnapshotStoreTest, PowerLossUndoesOnlyWhatWasNotMadeDurable) {
  const std::string synced = (dir_ / "synced.bin").string();
  const std::string loose = (dir_ / "loose.bin").string();
  for (uint64_t seed = 0; seed < 16; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::filesystem::remove(synced);
    ASSERT_TRUE(SystemFs().WriteAll(loose, "old"));  // durable: pre-Arm
    FailpointFs fs(SystemFs());
    fs.Arm(FailpointFs::Failure::kPowerLoss, /*trigger_op=*/4, seed);
    ASSERT_TRUE(fs.WriteAll(synced, "kept"));
    ASSERT_TRUE(fs.Sync(synced));
    ASSERT_TRUE(fs.SyncDir(dir_.string()));
    ASSERT_TRUE(fs.WriteAll(loose, "new bytes"));
    EXPECT_FALSE(fs.Sync(loose));  // the power goes before this fsync
    EXPECT_TRUE(fs.crashed());
    EXPECT_EQ(SystemFs().ReadAll(synced), "kept");
    const std::string after = SystemFs().ReadAll(loose).value_or("<gone>");
    EXPECT_TRUE(after == "old" ||
                std::string_view("new bytes").substr(0, after.size()) ==
                    after)
        << after;
  }
}

TEST_F(SnapshotStoreTest, AtomicWriteFileSurvivesPowerLossAtEveryOp) {
  // Temp write, fsync, rename, directory fsync: cut the power at each,
  // and the file holds the old bytes or the new ones, never a mix.
  const std::string path = (dir_ / "file.bin").string();
  for (uint64_t kill_at = 0; kill_at < 4; ++kill_at) {
    for (uint64_t seed = 0; seed < 8; ++seed) {
      SCOPED_TRACE("kill_at=" + std::to_string(kill_at) +
                   " seed=" + std::to_string(seed));
      std::filesystem::remove(path + ".tmp");
      ASSERT_TRUE(AtomicWriteFile(SystemFs(), path, "old contents"));
      FailpointFs fs(SystemFs());
      fs.Arm(FailpointFs::Failure::kPowerLoss, kill_at, seed);
      EXPECT_FALSE(AtomicWriteFile(fs, path, "new contents"));
      const auto after = SystemFs().ReadAll(path);
      ASSERT_TRUE(after.has_value());
      EXPECT_TRUE(*after == "old contents" || *after == "new contents")
          << *after;
    }
  }
}

}  // namespace
}  // namespace ltc
