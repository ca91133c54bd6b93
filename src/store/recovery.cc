#include "store/recovery.h"

#include <algorithm>
#include <utility>

#include "store/page.h"
#include "store/wal.h"

namespace ltc {
namespace store {

bool RecoveryManager::Run(RecoveryReport* report, std::string* error) {
  RecoveryReport local;
  RecoveryReport& out = report != nullptr ? *report : local;
  out = RecoveryReport{};

  // 1. What is on disk, and at which LSN? A page file that fails its
  // frame checks reads as LSN 0: if the log still holds its delta the
  // rewrite below heals it, otherwise it stays corrupt and Get()
  // reports it as a typed error.
  auto listed = disk_.ListPages(error);
  if (!listed.has_value()) return false;
  out.tenant_pages = std::move(*listed);
  std::map<std::pair<uint64_t, uint32_t>, uint64_t> disk_lsn;
  for (const auto& [tenant, pages] : out.tenant_pages) {
    for (uint32_t page : pages) {
      uint64_t lsn = 0;
      auto image = disk_.fs().ReadAll(disk_.PagePath(tenant, page));
      if (image.has_value()) {
        PageDecodeResult decoded = DecodePage(*image);
        if (decoded.ok()) {
          lsn = decoded.lsn;
        } else {
          ++out.corrupt_pages;
        }
      } else {
        ++out.corrupt_pages;
      }
      disk_lsn[{tenant, page}] = lsn;
      out.max_lsn = std::max(out.max_lsn, lsn);
    }
  }

  // 2. The log, truncated at the first bad frame.
  const std::string wal_path = disk_.WalPath();
  auto log = disk_.fs().ReadAll(wal_path);
  if (!log.has_value()) {
    if (disk_.fs().Exists(wal_path)) {
      if (error != nullptr) {
        *error = "cannot read WAL '" + wal_path + "'";
      }
      return false;
    }
    return true;  // no log: the store was checkpointed clean
  }
  out.wal_found = true;
  out.wal_bytes = log->size();
  WalReadResult walked = ReadWalRecords(*log);
  out.torn_tail = walked.torn;
  out.records = walked.records.size();

  // 3. Redo. Later records supersede earlier ones for the same page, so
  // only each page's newest image is considered, and a page is written
  // at most once.
  std::map<std::pair<uint64_t, uint32_t>, const WalRecord*> newest;
  for (const WalRecord& record : walked.records) {
    out.max_lsn = std::max(out.max_lsn, record.lsn);
    for (const WalPageDelta& delta : record.pages) {
      newest[{record.tenant, delta.page_id}] = &record;
    }
  }
  for (const auto& [key, record] : newest) {
    const auto& [tenant, page_id] = key;
    auto it = disk_lsn.find(key);
    if (it != disk_lsn.end() && record->lsn <= it->second) {
      ++out.deltas_stale;
      disk_.MarkUnsynced(tenant, page_id);
      continue;
    }
    const WalPageDelta* delta = nullptr;
    for (const WalPageDelta& candidate : record->pages) {
      if (candidate.page_id == page_id) delta = &candidate;
    }
    if (!disk_.Store(tenant, page_id, record->lsn, delta->payload, error)) {
      return false;  // the log is untouched: the next open retries
    }
    ++out.deltas_applied;
    auto& pages = out.tenant_pages[tenant];
    if (std::find(pages.begin(), pages.end(), page_id) == pages.end()) {
      pages.push_back(page_id);
    }
  }
  return true;
}

}  // namespace store
}  // namespace ltc
