// Exact bounded top-k selection — the one report order of the LTC family
// and the one selector every top-k query goes through.
//
// Ltc::TopK, Ltc::SnapshotTopK and ShardedLtc::TopK all answer "the k
// reports of largest significance, ties broken by smaller item first".
// Over one table's occupants that order is strict and total: an item
// occupies at most one cell (and at most one shard), and Validate keeps
// α and β finite, so no significance is NaN. The k best are therefore
// one well-defined set, and sorting just them yields exactly the prefix a
// sort of every occupant would — so the table walk never needs the full
// sort.
//
// TopKSelector keeps the k best reports seen so far in a heap whose root
// is the worst of them. A cell below that root's significance (Floor)
// costs one comparison, with no report built, so a pass over m cells
// costs O(m) plus O(log k) per admitted candidate, and
// Take sorts only the k survivors: O(m + k log k) instead of O(m log m).
// When k exceeds the candidate count the heap never forms and Take is a
// plain sort of everything offered, so large k loses nothing either.

#ifndef LTC_CORE_TOP_K_SELECTOR_H_
#define LTC_CORE_TOP_K_SELECTOR_H_

#include <algorithm>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "core/significance_estimator.h"

namespace ltc {

/// The report order: significance descending, then item ascending.
inline bool RanksBefore(const SignificanceReport& a,
                        const SignificanceReport& b) {
  if (a.significance != b.significance) {
    return a.significance > b.significance;
  }
  return a.item < b.item;
}

class TopKSelector {
 public:
  /// Keeps the best `k` offers. `candidates` bounds how many offers can
  /// arrive (e.g. the table's cell count) and only sizes the buffer.
  TopKSelector(size_t k, size_t candidates) : k_(k) {
    kept_.reserve(std::min(k, candidates));
  }

  /// No report of lower significance can enter the current k best:
  /// −∞ until k reports are kept, then the worst kept significance (+∞
  /// when k = 0). The hot pass compares against this before building a
  /// report; Offer settles equal significances by item.
  double Floor() const {
    if (kept_.size() < k_) return -std::numeric_limits<double>::infinity();
    if (k_ == 0) return std::numeric_limits<double>::infinity();
    return kept_.front().significance;
  }

  void Offer(const SignificanceReport& report) {
    if (kept_.size() < k_) {
      kept_.push_back(report);
      // Full: from here on the root is the worst kept report.
      if (kept_.size() == k_) {
        std::make_heap(kept_.begin(), kept_.end(), RanksBefore);
      }
      return;
    }
    if (k_ == 0 || !RanksBefore(report, kept_.front())) return;
    std::pop_heap(kept_.begin(), kept_.end(), RanksBefore);
    kept_.back() = report;
    std::push_heap(kept_.begin(), kept_.end(), RanksBefore);
  }

  /// The kept reports, best first.
  std::vector<SignificanceReport> Take() && {
    std::sort(kept_.begin(), kept_.end(), RanksBefore);
    return std::move(kept_);
  }

 private:
  size_t k_;
  std::vector<SignificanceReport> kept_;
};

}  // namespace ltc

#endif  // LTC_CORE_TOP_K_SELECTOR_H_
