#include "snapshot/failpoint_fs.h"

#include <algorithm>
#include <set>

namespace ltc {
namespace {

// Seeded per-file choice for kPowerLoss: FNV-1a over the file's base
// name (so the choice does not depend on where the test directory
// lives), finished with a SplitMix64 step.
uint64_t PowerLossDraw(uint64_t seed, const std::string& path) {
  const size_t slash = path.find_last_of('/');
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = slash == std::string::npos ? 0 : slash + 1;
       i < path.size(); ++i) {
    h = (h ^ static_cast<unsigned char>(path[i])) * 0x100000001b3ULL;
  }
  uint64_t z = h ^ (seed + 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

void FailpointFs::Arm(Failure failure, uint64_t trigger_op, uint64_t seed,
                      uint64_t burst) {
  failure_ = failure;
  trigger_op_ = trigger_op;
  seed_ = seed;
  burst_left_ = burst < 1 ? 1 : burst;
  fired_ = false;
  crashed_ = false;
  names_.clear();
  data_.clear();
}

bool FailpointFs::Fires(OpKind op) {
  const uint64_t index = ops_++;
  if (burst_left_ == 0 || failure_ == Failure::kNone || index < trigger_op_) {
    return false;
  }
  bool applies = false;
  switch (failure_) {
    case Failure::kCrash:
    case Failure::kPowerLoss:
      applies = true;  // a crash can land on any mutating op
      break;
    case Failure::kShortWrite:
    case Failure::kWriteError:
    case Failure::kFlipByteInWrite:
    case Failure::kTornWriteCrash:
      applies = op == OpKind::kWrite;
      break;
    case Failure::kSyncError:
      applies = op == OpKind::kSync;
      break;
    case Failure::kRenameError:
    case Failure::kTruncateAfterRename:
      applies = op == OpKind::kRename;
      break;
    case Failure::kNone:
      break;
  }
  if (!applies) return false;
  fired_ = true;
  --burst_left_;
  if (failure_ == Failure::kCrash || failure_ == Failure::kTornWriteCrash ||
      failure_ == Failure::kPowerLoss) {
    crashed_ = true;
  }
  return true;
}

std::string FailpointFs::DurableBytes(const std::string& path) {
  auto data = data_.find(path);
  if (data != data_.end()) return data->second.synced;
  return base_.ReadAll(path).value_or("");
}

void FailpointFs::NoteName(const std::string& path) {
  if (names_.count(path) > 0) return;
  NameShadow shadow;
  shadow.existed = base_.Exists(path);
  if (shadow.existed) shadow.bytes = DurableBytes(path);
  names_.emplace(path, std::move(shadow));
}

void FailpointFs::NoteData(const std::string& path, bool truncating) {
  if (!base_.Exists(path)) NoteName(path);  // this write creates it
  auto [it, fresh] = data_.try_emplace(path);
  if (fresh) it->second.synced = base_.ReadAll(path).value_or("");
  if (truncating) it->second.truncated = true;
}

void FailpointFs::LosePower() {
  std::set<std::string> paths;
  for (const auto& [path, shadow] : names_) paths.insert(path);
  for (const auto& [path, shadow] : data_) paths.insert(path);
  for (const std::string& path : paths) {
    const uint64_t draw = PowerLossDraw(seed_, path);
    auto name = names_.find(path);
    // A directory entry not covered by a SyncDir may or may not have
    // reached the disk, independently of its neighbours. If it did
    // not, the name points where it did at the last SyncDir, at that
    // file's synced bytes.
    if (name != names_.end() && (draw & 2) == 0) {
      if (name->second.existed) {
        base_.WriteAll(path, name->second.bytes);
      } else {
        base_.Remove(path);
      }
      continue;
    }
    auto data = data_.find(path);
    if (data == data_.end()) continue;  // the name change stuck
    if ((draw & 1) == 0) {
      base_.WriteAll(path, data->second.synced);
      continue;
    }
    // Part of the new bytes reached the platter. An append-only file
    // keeps at least its synced bytes; a rewritten one may be cut
    // anywhere.
    const std::string now = base_.ReadAll(path).value_or("");
    const size_t low = data->second.truncated
                           ? 0
                           : std::min(data->second.synced.size(), now.size());
    const size_t keep =
        low + static_cast<size_t>((draw >> 2) % (now.size() - low + 1));
    base_.WriteAll(path, std::string_view(now).substr(0, keep));
  }
  names_.clear();
  data_.clear();
}

bool FailpointFs::FailingWrite(const std::string& path, std::string_view data,
                               bool append) {
  auto write = [&](std::string_view bytes) {
    return append ? base_.AppendAll(path, bytes) : base_.WriteAll(path, bytes);
  };
  switch (failure_) {
    case Failure::kCrash:
    case Failure::kShortWrite: {
      // Persist a deterministic prefix: the torn write.
      const size_t keep =
          data.empty() ? 0 : static_cast<size_t>(seed_ % (data.size() + 1));
      write(data.substr(0, keep));
      return false;
    }
    case Failure::kTornWriteCrash: {
      // A strict prefix: non-empty writes are always cut mid-record.
      const size_t keep =
          data.empty() ? 0 : static_cast<size_t>(seed_ % data.size());
      write(data.substr(0, keep));
      return false;
    }
    case Failure::kFlipByteInWrite: {
      std::string corrupted(data);
      if (!corrupted.empty()) {
        corrupted[static_cast<size_t>(seed_ % corrupted.size())] ^= 0x40;
      }
      write(corrupted);
      return true;  // silent corruption: the write reports success
    }
    case Failure::kPowerLoss:
      write(data);  // the write lands, then the power goes
      LosePower();
      return false;
    case Failure::kWriteError:
    default:
      return false;
  }
}

bool FailpointFs::WriteAll(const std::string& path, std::string_view data) {
  if (crashed_) {
    ++ops_;
    return false;
  }
  if (Tracking()) NoteData(path, /*truncating=*/true);
  if (!Fires(OpKind::kWrite)) return base_.WriteAll(path, data);
  return FailingWrite(path, data, /*append=*/false);
}

bool FailpointFs::AppendAll(const std::string& path, std::string_view data) {
  if (crashed_) {
    ++ops_;
    return false;
  }
  if (Tracking()) NoteData(path, /*truncating=*/false);
  if (!Fires(OpKind::kWrite)) return base_.AppendAll(path, data);
  return FailingWrite(path, data, /*append=*/true);
}

std::optional<std::string> FailpointFs::ReadAll(const std::string& path) {
  return base_.ReadAll(path);
}

bool FailpointFs::Sync(const std::string& path) {
  if (crashed_) {
    ++ops_;
    return false;
  }
  if (Fires(OpKind::kSync)) {
    if (failure_ == Failure::kPowerLoss) LosePower();
    return false;
  }
  if (!base_.Sync(path)) return false;
  data_.erase(path);
  return true;
}

bool FailpointFs::SyncDir(const std::string& path) {
  if (crashed_) {
    ++ops_;
    return false;
  }
  if (Fires(OpKind::kSync)) {
    if (failure_ == Failure::kPowerLoss) LosePower();
    return false;
  }
  if (!base_.SyncDir(path)) return false;
  std::erase_if(names_, [&](const auto& entry) {
    return DirnameOf(entry.first) == path;
  });
  return true;
}

bool FailpointFs::Rename(const std::string& from, const std::string& to) {
  if (crashed_) {
    ++ops_;
    return false;
  }
  if (Fires(OpKind::kRename)) return FailingRename(from, to);
  if (Tracking()) {
    NoteName(from);
    NoteName(to);
    // The file moves with its unsynced bytes; whatever `to` named is
    // now reachable only through its name shadow.
    auto moved = data_.extract(from);
    data_.erase(to);
    if (!moved.empty()) {
      moved.key() = to;
      data_.insert(std::move(moved));
    }
  }
  return base_.Rename(from, to);
}

bool FailpointFs::FailingRename(const std::string& from,
                                const std::string& to) {
  switch (failure_) {
    case Failure::kTruncateAfterRename: {
      if (!base_.Rename(from, to)) return false;
      auto contents = base_.ReadAll(to);
      if (contents && !contents->empty()) {
        const size_t keep = static_cast<size_t>(seed_ % contents->size());
        base_.WriteAll(to, std::string_view(*contents).substr(0, keep));
      }
      return true;  // the rename itself "succeeded"
    }
    case Failure::kPowerLoss:
      LosePower();
      return false;
    case Failure::kCrash:
    case Failure::kRenameError:
    default:
      return false;
  }
}

bool FailpointFs::Remove(const std::string& path) {
  if (crashed_) {
    ++ops_;
    return false;
  }
  if (Fires(OpKind::kRemove)) {  // only kCrash and kPowerLoss land here
    if (failure_ == Failure::kPowerLoss) LosePower();
    return false;
  }
  if (Tracking()) {
    NoteName(path);
    data_.erase(path);
  }
  return base_.Remove(path);
}

bool FailpointFs::Exists(const std::string& path) {
  return base_.Exists(path);
}

std::optional<std::vector<std::string>> FailpointFs::ListDir(
    const std::string& dir) {
  return base_.ListDir(dir);
}

}  // namespace ltc
