#include "store/disk_manager.h"

#include <cstdio>
#include <cstdlib>

#include "store/page.h"

namespace ltc {
namespace store {

DiskManager::DiskManager(Fs& fs, std::string dir)
    : fs_(fs), dir_(std::move(dir)) {}

std::string DiskManager::PagePath(uint64_t tenant, uint32_t page) const {
  return dir_ + "/t" + std::to_string(tenant) + ".p" + std::to_string(page) +
         ".pg";
}

std::string DiskManager::WalPath() const { return dir_ + "/wal.log"; }

std::optional<PageIo::Loaded> DiskManager::Load(uint64_t tenant,
                                                uint32_t page,
                                                std::string* error) {
  const std::string path = PagePath(tenant, page);
  std::optional<std::string> image = fs_.ReadAll(path);
  if (!image.has_value()) {
    if (!fs_.Exists(path)) {
      Loaded loaded;
      loaded.found = false;
      return loaded;
    }
    if (error != nullptr) *error = "cannot read page file '" + path + "'";
    return std::nullopt;
  }
  PageDecodeResult decoded = DecodePage(*image);
  if (!decoded.ok()) {
    if (error != nullptr) {
      *error = "corrupt page file '" + path + "': " +
               SnapshotErrorName(decoded.error);
    }
    return std::nullopt;
  }
  if (decoded.page_id != page) {
    if (error != nullptr) {
      *error = "page file '" + path + "' holds page " +
               std::to_string(decoded.page_id) + " (cross-linked image?)";
    }
    return std::nullopt;
  }
  Loaded loaded;
  loaded.found = true;
  loaded.payload = std::string(decoded.payload);
  loaded.lsn = decoded.lsn;
  return loaded;
}

bool DiskManager::Store(uint64_t tenant, uint32_t page, uint64_t lsn,
                        std::string_view payload, std::string* error) {
  std::string path = PagePath(tenant, page);
  if (!dir_unsynced_ && !fs_.Exists(path)) dir_unsynced_ = true;
  // Listed before the write: even a failed write may change the file.
  const std::string& listed = *unsynced_.insert(std::move(path)).first;
  if (!fs_.WriteAll(listed, EncodePage(page, lsn, payload))) {
    if (error != nullptr) *error = "cannot write page file '" + listed + "'";
    return false;
  }
  return true;
}

void DiskManager::MarkUnsynced(uint64_t tenant, uint32_t page) {
  unsynced_.insert(PagePath(tenant, page));
  dir_unsynced_ = true;
}

bool DiskManager::SyncUnsynced(SyncCounts* counts, std::string* error) {
  SyncCounts local;
  SyncCounts& out = counts != nullptr ? *counts : local;
  out = SyncCounts{};
  for (const std::string& path : unsynced_) {
    ++out.files;
    if (!fs_.Sync(path)) {
      if (error != nullptr) *error = "cannot fsync page file '" + path + "'";
      return false;
    }
  }
  if (dir_unsynced_) {
    ++out.dirs;
    if (!fs_.SyncDir(dir_)) {
      if (error != nullptr) {
        *error = "cannot fsync store directory '" + dir_ + "'";
      }
      return false;
    }
  }
  unsynced_.clear();
  dir_unsynced_ = false;
  return true;
}

bool DiskManager::ParsePageName(const std::string& name, uint64_t* tenant,
                                uint32_t* page) {
  if (name.size() < 7 || name[0] != 't') return false;  // "t0.p0.pg"
  if (name.size() < 4 || name.compare(name.size() - 3, 3, ".pg") != 0) {
    return false;
  }
  const size_t dot_p = name.find(".p");
  if (dot_p == std::string::npos || dot_p == 1 ||
      dot_p + 2 > name.size() - 3) {
    return false;
  }
  const std::string tenant_text = name.substr(1, dot_p - 1);
  const std::string page_text =
      name.substr(dot_p + 2, name.size() - 3 - (dot_p + 2));
  if (tenant_text.empty() || page_text.empty()) return false;
  char* end = nullptr;
  *tenant = std::strtoull(tenant_text.c_str(), &end, 10);
  if (end != tenant_text.c_str() + tenant_text.size()) return false;
  const unsigned long long page_value =
      std::strtoull(page_text.c_str(), &end, 10);
  if (end != page_text.c_str() + page_text.size() || page_value > UINT32_MAX) {
    return false;
  }
  *page = static_cast<uint32_t>(page_value);
  return true;
}

std::optional<std::map<uint64_t, std::vector<uint32_t>>>
DiskManager::ListPages(std::string* error) {
  std::optional<std::vector<std::string>> names = fs_.ListDir(dir_);
  if (!names.has_value()) {
    if (error != nullptr) {
      *error = "cannot list store directory '" + dir_ + "'";
    }
    return std::nullopt;
  }
  std::map<uint64_t, std::vector<uint32_t>> pages;
  for (const std::string& name : *names) {
    uint64_t tenant = 0;
    uint32_t page = 0;
    if (ParsePageName(name, &tenant, &page)) pages[tenant].push_back(page);
  }
  return pages;
}

}  // namespace store
}  // namespace ltc
