#include "sim/trace.h"

#include <algorithm>
#include <sstream>

namespace encompass::sim {

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kMsgSend:
      return "msg.send";
    case TraceEventKind::kMsgDeliver:
      return "msg.deliver";
    case TraceEventKind::kTxnState:
      return "txn.state";
    case TraceEventKind::kPhase1Start:
      return "phase1.start";
    case TraceEventKind::kPhase1Done:
      return "phase1.done";
    case TraceEventKind::kCommitRecord:
      return "commit.record";
    case TraceEventKind::kPhase2Queued:
      return "phase2.queued";
    case TraceEventKind::kPhase2Recv:
      return "phase2.recv";
    case TraceEventKind::kAbortStart:
      return "abort.start";
    case TraceEventKind::kAbortDone:
      return "abort.done";
    case TraceEventKind::kLockAcquire:
      return "lock.acquire";
    case TraceEventKind::kLockRelease:
      return "lock.release";
    case TraceEventKind::kAuditForce:
      return "audit.force";
  }
  return "?";
}

std::string TraceEvent::ToString() const {
  std::ostringstream out;
  out << "t=" << time << " node=" << node << " span=" << span;
  if (parent != 0) out << "<-" << parent;
  out << " " << TraceEventKindName(kind) << " a=" << a << " b=" << b;
  return out.str();
}

TraceLog::TraceLog(size_t capacity) : capacity_(capacity) { EnsureShards(1); }

void TraceLog::Record(const TraceEvent& e) {
  const internal::ExecContext* ec = internal::Exec();
  Shard* s;
  EventKey key;
  if (ec != nullptr && ec->trace == this) {
    s = shards_[ec->shard].get();
    key = ec->key;
  } else {
    // Outside event execution: shard 0 with a time-only key, which sorts
    // before any event's records at the same instant.
    s = shards_[0].get();
    key = EventKey{e.time, 0, 0};
  }
  Rec rec{key, s->next_ordinal++, e};
  if (s->size < capacity_) {
    if (s->size == s->chunks.size() * kChunkRecs) {
      s->chunks.push_back(
          std::make_unique<Rec[]>(std::min(kChunkRecs, capacity_ - s->size)));
    }
    s->at(s->size++) = rec;
  } else {
    s->at(s->head) = rec;
    s->head = (s->head + 1) % capacity_;
    s->dropped++;
  }
}

size_t TraceLog::size() const {
  size_t n = 0;
  for (const auto& s : shards_) n += s->size;
  return n;
}

size_t TraceLog::dropped() const {
  size_t n = 0;
  for (const auto& s : shards_) n += s->dropped;
  return n;
}

void TraceLog::Clear() {
  for (auto& s : shards_) {
    s->size = 0;  // chunks stay allocated for reuse
    s->head = 0;
    s->dropped = 0;
  }
  // span_counters_ deliberately keep counting: span ids stay unique per run.
}

void TraceLog::EnsureShards(size_t n) {
  while (shards_.size() < n) shards_.push_back(std::make_unique<Shard>());
}

std::vector<TraceEvent> TraceLog::Events(uint64_t transid) const {
  std::vector<const Rec*> recs;
  for (const auto& sp : shards_) {
    const Shard& s = *sp;
    const size_t n = s.size;
    // A full ring's oldest element sits at head (the next overwrite slot);
    // a partially filled ring starts at 0.
    const size_t start = (n == capacity_) ? s.head : 0;
    for (size_t i = 0; i < n; ++i) {
      const Rec& r = s.at((start + i) % n);
      if (r.e.transid == transid) recs.push_back(&r);
    }
  }
  // Canonical order: event key, then record order within the event. Keys
  // are globally unique per event, so the ordinal only breaks ties among
  // records of one event (or among keyless shard-0 records).
  std::sort(recs.begin(), recs.end(), [](const Rec* a, const Rec* b) {
    if (a->key < b->key) return true;
    if (b->key < a->key) return false;
    return a->ordinal < b->ordinal;
  });
  std::vector<TraceEvent> out;
  out.reserve(recs.size());
  for (const Rec* r : recs) out.push_back(r->e);
  return out;
}

std::vector<TraceEvent> TraceLog::AllEvents() const {
  std::vector<const Rec*> recs;
  for (const auto& sp : shards_) {
    const Shard& s = *sp;
    const size_t n = s.size;
    const size_t start = (n == capacity_) ? s.head : 0;
    for (size_t i = 0; i < n; ++i) recs.push_back(&s.at((start + i) % n));
  }
  std::sort(recs.begin(), recs.end(), [](const Rec* a, const Rec* b) {
    if (a->key < b->key) return true;
    if (b->key < a->key) return false;
    return a->ordinal < b->ordinal;
  });
  std::vector<TraceEvent> out;
  out.reserve(recs.size());
  for (const Rec* r : recs) out.push_back(r->e);
  return out;
}

std::string TraceLog::Dump(uint64_t transid) const {
  std::ostringstream out;
  out << "trace transid=" << transid;
  const size_t d = dropped();
  if (d > 0) out << " (ring dropped " << d << " oldest events)";
  out << "\n";
  for (const TraceEvent& e : Events(transid)) {
    out << "  " << e.ToString() << "\n";
  }
  return out.str();
}

}  // namespace encompass::sim
