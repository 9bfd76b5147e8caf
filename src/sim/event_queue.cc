#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>

namespace encompass::sim {

uint32_t EventQueue::TakeCell(uint16_t exec_node, bool keyed, EventFn fn) {
  uint32_t cell;
  if (!free_cells_.empty()) {
    cell = free_cells_.back();
    free_cells_.pop_back();
  } else {
    cell = static_cast<uint32_t>(cells_.size());
    assert(cell < (1u << kSlotBits) && "too many concurrently pending events");
    cells_.emplace_back();
    gens_.push_back(1);
  }
  Cell& c = cells_[cell];
  c.fn = std::move(fn);
  c.exec_node = exec_node;
  c.keyed = keyed;
  return cell;
}

void EventQueue::Push(const EventKey& key, uint32_t cell) {
  heap_.push_back(Entry{key, cell, gens_[cell]});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_count_;
}

EventId EventQueue::Schedule(SimTime when, uint16_t exec_node, EventFn fn) {
  const uint32_t cell = TakeCell(exec_node, /*keyed=*/false, std::move(fn));
  Push(EventKey{when, origin_, next_seq_++}, cell);
  return (static_cast<EventId>(gens_[cell]) << kSlotBits) | cell;
}

void EventQueue::ScheduleKeyed(const EventKey& key, uint16_t exec_node,
                               EventFn fn) {
  Push(key, TakeCell(exec_node, /*keyed=*/true, std::move(fn)));
}

void EventQueue::Cancel(EventId id) {
  const auto cell = static_cast<uint32_t>(id & ((1u << kSlotBits) - 1));
  const auto gen = static_cast<uint32_t>(id >> kSlotBits) & kGenMask;
  // Live iff the id's generation matches its cell's current one. Id 0 (gen 0)
  // and arbitrary stale ids fail the match: generations are never 0.
  if (cell >= gens_.size() || gens_[cell] != gen || cells_[cell].keyed) return;
  cells_[cell].fn = EventFn();
  RetireCell(cell);
  --live_count_;
  // The heap entry stays behind with the old generation stamped on it;
  // SkipCancelled drops it when it reaches the top.
}

void EventQueue::SkipCancelled() const {
  while (!heap_.empty() && Dead(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

const EventKey* EventQueue::NextKey() const {
  SkipCancelled();
  return heap_.empty() ? nullptr : &heap_.front().key;
}

SimTime EventQueue::NextTime() const {
  SkipCancelled();
  return heap_.empty() ? kNoDeadline : heap_.front().key.time;
}

EventFn EventQueue::PopNext(EventKey* key, uint16_t* exec_node) {
  SkipCancelled();
  assert(!heap_.empty());
  const Entry top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  Cell& c = cells_[top.cell];
  *key = top.key;
  *exec_node = c.exec_node;
  EventFn fn = std::move(c.fn);
  RetireCell(top.cell);
  --live_count_;
  return fn;
}

}  // namespace encompass::sim
