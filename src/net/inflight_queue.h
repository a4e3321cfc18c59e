// InFlightQueue: the async driver's batched message timeline.
//
// The driver parks every undropped message here and, at each tick instant,
// drains everything due at or before that instant: once before the tick
// plans its sends and once after, before the metric sample. Nothing
// observes simulation state between tick instants, so delivering in
// batches there is exact.
//
// Sort on drain: drains only happen at tick instants, so Push
// just appends to one flat vector. The first HasDueBy(t)/Top() that needs
// entries partitions the ones due by t to the front and sorts that run
// once by (due, seq); Pop then only advances a cursor. Entries not yet due
// stay unsorted behind the run. When the run is used up its consumed
// prefix is erased, so the vector holds about one send wave, like a heap
// would, and a drain costs one partition pass plus one sort instead of a
// log-depth sift over the whole wave per message.
//
// Ordering contract: Pop order is (due, seq) where seq is Push order, and
// the driver pushes each tick's send wave in plan order. The contract holds
// for any interleaving of calls, including a Push that lands inside a run
// already being drained (the next drain re-sorts).

#ifndef DYNAGG_NET_INFLIGHT_QUEUE_H_
#define DYNAGG_NET_INFLIGHT_QUEUE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/types.h"
#include "net/message.h"

namespace dynagg {
namespace net {

class InFlightQueue {
 public:
  /// Pre-sizes the buffer (e.g. to one tick's expected wave) so
  /// steady-state pushes never reallocate.
  void Reserve(size_t n) { entries_.reserve(n); }

  void Push(SimTime due, const Message& m) {
    // An entry due inside the range the current run was built for belongs
    // in that run: the next drain rebuilds it.
    if (due <= run_bound_) stale_ = true;
    entries_.push_back(Entry{due, seq_++, m});
  }

  bool empty() const { return size() == 0; }
  size_t size() const { return entries_.size() - head_; }

  /// True when the earliest in-flight message is due at or before `t`.
  bool HasDueBy(SimTime t) { return Ready(t); }

  /// The earliest message (min (due, seq)); only valid when !empty().
  const Message& Top() {
    Ready(kSimTimeMax);
    return entries_[head_].msg;
  }

  /// Removes the earliest message; only valid when !empty().
  void Pop() {
    Ready(kSimTimeMax);
    if (++head_ == run_end_) DropConsumed();
  }

 private:
  struct Entry {
    SimTime due;
    uint64_t seq;
    Message msg;
  };

  /// Makes entries_[head_] the earliest pending entry if one is due by
  /// `t`; false when none is. While the run is current, every entry behind
  /// it is due after run_bound_, so the run's front is the global minimum.
  bool Ready(SimTime t) {
    if (!stale_) {
      if (head_ < run_end_) return entries_[head_].due <= t;
      if (t <= run_bound_) return false;  // the run held all due by t
    }
    BuildRun(t);
    return run_end_ > 0;
  }

  /// Partitions the pending entries due by `t` to the front and sorts
  /// them by (due, seq).
  void BuildRun(SimTime t) {
    DropConsumed();
    const auto run_end =
        std::partition(entries_.begin(), entries_.end(),
                       [t](const Entry& e) { return e.due <= t; });
    std::sort(entries_.begin(), run_end, [](const Entry& a, const Entry& b) {
      return a.due != b.due ? a.due < b.due : a.seq < b.seq;
    });
    run_end_ = static_cast<size_t>(run_end - entries_.begin());
    run_bound_ = t;
    stale_ = false;
  }

  /// Erases the consumed prefix [0, head_) and ends the run.
  void DropConsumed() {
    entries_.erase(entries_.begin(),
                   entries_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
    run_end_ = 0;
  }

  // [0, head_) consumed, [head_, run_end_) the sorted run, [run_end_, end)
  // pending entries due after run_bound_ (unless stale_), in no order.
  std::vector<Entry> entries_;
  size_t head_ = 0;
  size_t run_end_ = 0;
  SimTime run_bound_ = std::numeric_limits<SimTime>::min();
  bool stale_ = false;
  uint64_t seq_ = 0;
};

}  // namespace net
}  // namespace dynagg

#endif  // DYNAGG_NET_INFLIGHT_QUEUE_H_
