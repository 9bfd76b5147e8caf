// The event queue at the heart of the deterministic simulation: a priority
// queue of EventKey -> callback, with cancellation support.
//
// Events are totally ordered by EventKey = (time, origin, seq):
//   * time   — the simulated firing time;
//   * origin — the node whose schedule sequence stamped the event (0 for
//     global/serial work). Ties at the same time order by origin, so global
//     events run before any node's events at the same instant;
//   * seq    — the origin's monotone schedule counter; ties within one
//     origin fire in schedule order.
// The key is assigned when the event is scheduled, by the scheduling node —
// never by the executing thread — so the total order is a property of the
// simulation's history, identical no matter how execution is interleaved.
//
// Hot-path representation: the heap holds only 32-byte {key, cell, gen}
// entries, moved with std::push_heap/pop_heap. Each callback (EventFn) and
// its exec_node live in a slab cell that never moves while the event is
// pending, so sifting touches plain keys and never relocates a closure.
// Every event, local or keyed, borrows a cell from a free list; a local
// event's EventId packs (generation << kSlotBits) | cell. Cancel and fire
// both retire the cell by bumping its generation, so a stale id — already
// fired, already cancelled, or plain garbage — can never match a live cell:
// the no-op guarantees cost one array load instead of two hash probes per
// schedule/cancel/pop. Cancel destroys the closure at once; only the 32-byte
// heap entry lingers until it reaches the top.

#ifndef ENCOMPASS_SIM_EVENT_QUEUE_H_
#define ENCOMPASS_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <vector>

#include "common/sim_time.h"
#include "sim/event_fn.h"

namespace encompass::sim {

/// Handle for a scheduled event; used to cancel timers. Opaque; never 0 for
/// a live event (generations start at 1), so 0 can serve as "no timer".
using EventId = uint64_t;

/// Total order on simulation events; see file comment.
struct EventKey {
  SimTime time = 0;
  uint16_t origin = 0;
  uint64_t seq = 0;

  friend bool operator<(const EventKey& a, const EventKey& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.origin != b.origin) return a.origin < b.origin;
    return a.seq < b.seq;
  }
};

/// Min-heap of timed callbacks ordered by EventKey. One EventQueue belongs
/// to one event loop (one node, or the global loop); `origin` stamps the
/// keys of locally scheduled events.
class EventQueue {
 public:
  /// EventId layout: low kSlotBits = cell index, rest = that cell's
  /// generation at schedule time. Simulation packs the owning loop's shard
  /// above these, so local ids must stay within kSlotBits + kGenBits.
  static constexpr int kSlotBits = 20;
  static constexpr int kGenBits = 28;

  explicit EventQueue(uint16_t origin = 0) : origin_(origin) {}

  uint16_t origin() const { return origin_; }

  /// Schedules `fn` to fire at absolute time `when`, stamped with this
  /// queue's origin and next sequence number. `exec_node` attributes the
  /// work to a node for PRNG/stats/trace purposes (defaults to the origin).
  /// Returns a handle for Cancel.
  EventId Schedule(SimTime when, EventFn fn) {
    return Schedule(when, origin_, std::move(fn));
  }
  EventId Schedule(SimTime when, uint16_t exec_node, EventFn fn);

  /// Inserts an event carrying a foreign key (a cross-node post stamped by
  /// its sender). Keyed events are not cancellable: their seq lives in the
  /// sender's numbering and no id is handed out for their cell.
  void ScheduleKeyed(const EventKey& key, uint16_t exec_node, EventFn fn);

  /// Draws the next local sequence number; used to stamp keys of cross-node
  /// posts originating here.
  uint64_t IssueSeq() { return next_seq_++; }

  /// Cancels a pending locally-scheduled event. Cancelling an already-fired,
  /// already-cancelled, or unknown event is a true no-op (no tombstone, no
  /// accounting change): the id's generation no longer matches its cell.
  /// O(1): the closure is destroyed now; the dead heap entry is dropped when
  /// it reaches the top.
  void Cancel(EventId id);

  bool empty() const { return live_count_ == 0; }
  size_t size() const { return live_count_; }

  /// Key of the earliest pending event; nullptr if empty.
  const EventKey* NextKey() const;

  /// Time of the earliest pending event; kNoDeadline if empty.
  SimTime NextTime() const;

  /// Pops and returns the earliest event's callback, setting *key to its
  /// event key and *exec_node to its attribution. Precondition: !empty().
  EventFn PopNext(EventKey* key, uint16_t* exec_node);

 private:
  static constexpr uint32_t kGenMask = (1u << kGenBits) - 1;

  struct Entry {
    EventKey key;
    uint32_t cell;
    uint32_t gen;  // the cell's generation when scheduled
  };
  static_assert(sizeof(Entry) == 32, "heap entries are sifted by value");
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const { return b.key < a.key; }
  };
  struct Cell {
    EventFn fn;
    uint16_t exec_node = 0;
    bool keyed = false;  // keyed cells are never cancellable
  };

  bool Dead(const Entry& e) const { return gens_[e.cell] != e.gen; }
  void SkipCancelled() const;
  uint32_t TakeCell(uint16_t exec_node, bool keyed, EventFn fn);
  void Push(const EventKey& key, uint32_t cell);
  void RetireCell(uint32_t cell) {
    gens_[cell] = (gens_[cell] + 1) & kGenMask;
    if (gens_[cell] == 0) gens_[cell] = 1;  // gen 0 is reserved for "never"
    free_cells_.push_back(cell);
  }

  uint16_t origin_;
  mutable std::vector<Entry> heap_;  // min-heap under Later
  std::vector<Cell> cells_;
  // gens_[c] is cell c's current generation; an id (or heap entry) is live
  // iff its stamped generation equals it. Generations start at 1 and bump on
  // fire and on cancel, so id 0 and recycled ids never match.
  std::vector<uint32_t> gens_;
  std::vector<uint32_t> free_cells_;
  size_t live_count_ = 0;
  uint64_t next_seq_ = 1;
};

}  // namespace encompass::sim

#endif  // ENCOMPASS_SIM_EVENT_QUEUE_H_
