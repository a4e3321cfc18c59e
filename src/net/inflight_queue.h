// InFlightQueue: the async driver's batched message timeline.
//
// The driver parks every undropped message here and, at each tick instant,
// drains everything due at or before that instant: once before the tick
// plans its sends and once after, before the metric sample. Nothing
// observes simulation state between tick instants, so delivering in
// batches there is exact.
//
// Host-major drains: Push just appends to one flat vector. The first
// HasDueBy(t) that needs entries builds the drain to t, the *run*, in one
// pass that counts the due entries per destination and a second that
// scatters them into destination buckets (a stable counting sort on dst)
// while the entries not yet due keep their order behind the run.
// Each bucket is then ordered by (due, seq), seq being Push order:
// insertion sort for the short buckets, std::sort past kInsertionMax so a
// hub destination is not quadratic. Pop only advances a cursor. So a
// drain costs a counting pass and a scattering pass instead of an
// O(n log n) sort, and the deliveries walk destination state in host
// order instead of at random. The histogram spans every destination id
// pushed so far; a tick plans a message per host anyway, so its O(hosts)
// cost per drain stays below the tick's own.
//
// Ordering contract: a drain to t pops every entry due by t in (dst, due,
// seq) order. Delivery is exact in that order because a delivery reads and
// writes only its destination's state (the contract on
// SwarmHandle::async_deliver): deliveries to different hosts commute, and
// each host still sees its own messages in (due, seq) order, so the result
// is bit-identical to delivering the whole drain in (due, seq) order.
//
// Interleavings: HasDueBy(t) continues the current drain when t is its
// bound and starts a drain to t otherwise. A Push due by the current
// bound joins the current drain: the next call rebuilds what is left of
// it (still in (dst, due, seq) order). Top/Pop serve the current drain;
// with nothing left in it they start a drain to kSimTimeMax (the driver's
// settling drain after the last tick).

#ifndef DYNAGG_NET_INFLIGHT_QUEUE_H_
#define DYNAGG_NET_INFLIGHT_QUEUE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/macros.h"
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
    DYNAGG_DCHECK(m.dst >= 0);
    // An entry due inside the range the current run was built for belongs
    // in that run: the next call rebuilds it.
    if (due <= run_bound_) stale_ = true;
    const auto dst = static_cast<size_t>(m.dst);
    if (dst >= num_dsts_) num_dsts_ = dst + 1;
    entries_.push_back(Entry{due, seq_++, m});
  }

  bool empty() const { return size() == 0; }
  size_t size() const { return entries_.size() - head_; }

  /// True when the drain to `t` has a message left; starts that drain
  /// unless it is the current one.
  bool HasDueBy(SimTime t) {
    if (stale_ || t != run_bound_) BuildRun(t);
    return head_ < run_end_;
  }

  /// The current drain's next message (see the ordering contract); only
  /// valid when !empty().
  const Message& Top() {
    Settle();
    return entries_[head_].msg;
  }

  /// Removes Top(); only valid when !empty().
  void Pop() {
    Settle();
    if (++head_ == run_end_) DropConsumed();
  }

 private:
  struct Entry {
    SimTime due;
    uint64_t seq;
    Message msg;
  };

  /// Buckets up to this long are insertion-sorted.
  static constexpr size_t kInsertionMax = 16;

  static bool Earlier(const Entry& a, const Entry& b) {
    return a.due != b.due ? a.due < b.due : a.seq < b.seq;
  }

  /// Makes entries_[head_] the current drain's next entry, starting a
  /// drain to kSimTimeMax when the current one is used up.
  void Settle() {
    if (stale_) BuildRun(run_bound_);
    if (head_ == run_end_) BuildRun(kSimTimeMax);
  }

  /// Rebuilds entries_ as [run | pending]: the unconsumed entries due by
  /// `t` in (dst, due, seq) order, then the rest in their prior order.
  void BuildRun(SimTime t) {
    run_bound_ = t;
    stale_ = false;
    const Entry* const begin = entries_.data() + head_;
    const Entry* const end = entries_.data() + entries_.size();
    // Stable counting sort on dst: next_[d] is bucket d's next free slot.
    next_.assign(num_dsts_, 0);
    size_t run = 0;
    for (const Entry* e = begin; e != end; ++e) {
      if (e->due > t) continue;
      ++next_[static_cast<size_t>(e->msg.dst)];
      ++run;
    }
    size_t offset = 0;
    for (size_t& slot : next_) offset += std::exchange(slot, offset);
    out_.resize(static_cast<size_t>(end - begin));
    size_t p = run;
    for (const Entry* e = begin; e != end; ++e) {
      out_[e->due <= t ? next_[static_cast<size_t>(e->msg.dst)]++ : p++] = *e;
    }
    // next_[d] is now the end of bucket d, so the buckets tile the run.
    Entry* bucket = out_.data();
    for (const size_t bucket_end : next_) {
      SortBucket(bucket, out_.data() + bucket_end);
      bucket = out_.data() + bucket_end;
    }
    entries_.swap(out_);
    head_ = 0;
    run_end_ = run;
  }

  /// Erases the consumed prefix [0, head_) once the run is used up, so the
  /// vector holds about one send wave.
  void DropConsumed() {
    entries_.erase(entries_.begin(),
                   entries_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
    run_end_ = 0;
  }

  /// Orders one destination's bucket by (due, seq).
  static void SortBucket(Entry* first, Entry* last) {
    if (last - first < 2) return;
    if (static_cast<size_t>(last - first) > kInsertionMax) {
      std::sort(first, last, Earlier);
      return;
    }
    for (Entry* i = first + 1; i < last; ++i) {
      if (!Earlier(*i, i[-1])) continue;
      const Entry e = *i;
      Entry* j = i;
      do {
        *j = j[-1];
        --j;
      } while (j != first && Earlier(e, j[-1]));
      *j = e;
    }
  }

  // [0, head_) consumed, [head_, run_end_) the current drain in (dst, due,
  // seq) order, [run_end_, end) pending entries (due after run_bound_
  // unless stale_).
  std::vector<Entry> entries_;
  std::vector<Entry> out_;      // BuildRun's output, swapped with entries_
  std::vector<size_t> next_;    // counting-sort cursors, one per dst
  size_t num_dsts_ = 0;         // one past the largest dst pushed
  size_t head_ = 0;
  size_t run_end_ = 0;
  SimTime run_bound_ = std::numeric_limits<SimTime>::min();
  bool stale_ = false;
  uint64_t seq_ = 0;
};

}  // namespace net
}  // namespace dynagg

#endif  // DYNAGG_NET_INFLIGHT_QUEUE_H_
