// DiscProcess: the I/O process-pair controlling one disc volume. It is the
// single point of access to the volume's files and the keeper of their lock
// state ("each DISCPROCESS maintains the locking control information for
// those records and files resident on its volume only").
//
// Fault-tolerance per the paper's design:
//  * The primary checkpoints each completed operation (lock grants, the
//    reply, transaction release events) to its backup. The checkpoint is
//    the functional equivalent of Write-Ahead Log — no disc force happens
//    on the update path.
//  * After takeover the backup answers retried requests from its mirrored
//    reply cache, so requesters never observe a duplicate application.
//  * Audit images of updates to audited files are sent (unforced) to the
//    volume's AUDITPROCESS; TMF forces them at phase one of commit.

#ifndef ENCOMPASS_DISCPROCESS_DISC_PROCESS_H_
#define ENCOMPASS_DISCPROCESS_DISC_PROCESS_H_

#include <list>
#include <set>
#include <string>
#include <vector>

#include "common/flat_map.h"
#include "common/ring_queue.h"
#include "discprocess/disc_protocol.h"
#include "discprocess/lock_manager.h"
#include "os/process_pair.h"
#include "storage/volume.h"

namespace encompass::discprocess {

/// Configuration of one DISCPROCESS pair.
struct DiscProcessConfig {
  storage::Volume* volume = nullptr;   ///< shared durable volume (the discs)
  std::string audit_process;           ///< AUDITPROCESS name; "" = unaudited volume
  SimDuration base_latency = Micros(300);   ///< request processing cost
  SimDuration io_latency = Millis(10);      ///< per physical disc read
  SimDuration default_lock_timeout = Seconds(1);  ///< deadlock detection
  size_t reply_cache_capacity = 4096;
  /// Charge read latency from the volume's per-drive schedule (the paper's
  /// write-both / read-either rule: concurrent reads overlap across the
  /// mirror) instead of a flat disc_ios * io_latency. Default off preserves
  /// the legacy timing exactly (same convention as group_commit_window=0).
  bool overlap_mirror_reads = false;
  /// Piggyback consecutive operations' checkpoint deltas into one backup
  /// message flushed after this window. 0 = flush per operation (today's
  /// behavior). A nonzero window trades a bounded takeover-replay gap for
  /// far fewer interprocessor messages — the acknowledged main cost of
  /// process pairs.
  SimDuration ckpt_coalesce_window = 0;
};

/// The DISCPROCESS pair.
class DiscProcess : public os::PairedProcess {
 public:
  explicit DiscProcess(DiscProcessConfig config) : config_(config) {}

  std::string DebugName() const override { return pair_name() + "/disc"; }

  const LockManager& locks() const { return locks_; }
  storage::Volume* volume() const { return config_.volume; }

 protected:
  void OnPairAttach() override;
  void OnRequest(const net::Message& msg) override;
  void OnCheckpoint(const Slice& delta) override;
  void OnBackupAttached() override;
  void OnTakeover() override;

 private:
  /// A request's identity for duplicate suppression.
  struct RequestKey {
    net::ProcessId requester;
    uint64_t request_id = 0;
    friend bool operator==(const RequestKey& a, const RequestKey& b) {
      return a.requester == b.requester && a.request_id == b.request_id;
    }
  };
  struct RequestKeyHash {
    size_t operator()(const RequestKey& rk) const noexcept {
      return std::hash<net::ProcessId>()(rk.requester) * 31 +
             std::hash<uint64_t>()(rk.request_id);
    }
  };

  /// One reply-cache slot. Slots are reused once the ring is full, so the
  /// text and payload buffers keep their capacity from reply to reply.
  struct CachedReply {
    RequestKey rk;
    uint32_t tag = 0;
    Status::Code status = Status::Code::kOk;
    std::string message;  ///< full Status text, replayed verbatim on retries
    Bytes payload;
  };

  /// A reply waiting out the operation's service time before it is sent.
  struct DelayedReply {
    net::ProcessId requester;
    uint32_t tag = 0;
    uint64_t reply_to = 0;
    Status status;
    Bytes payload;
  };

  /// Accumulates one operation's checkpoint entries, flushed as one message
  /// (or folded into the coalescing buffer when ckpt_coalesce_window > 0).
  struct CheckpointBatch {
    Bytes delta;
    int entries = 0;
  };

  void HandleOperation(const net::Message& msg, const DiscRequestView& req);
  /// Queue-lane path: executes one lane batch in plan order, without lock
  /// acquisition. Mutations are audited per-op under the op's own transid,
  /// so abort backout and ROLLFORWARD see queue-lane work exactly like
  /// lock-lane work.
  void HandlePlannedBatch(const net::Message& msg);
  PlannedBatchReply::OpResult ExecutePlannedOp(const PlannedOp& op,
                                               int* disc_ios);
  /// Runs the operation body once required locks are held.
  void Execute(const net::Message& msg, const DiscRequestView& req);
  /// Lock step: returns true when held/granted; false when parked or failed
  /// (failure already replied).
  bool EnsureLock(const net::Message& msg, const DiscRequestView& req,
                  const Transid& owner, const LockKey& key);
  /// lock_key_ naming (file, record): the request path reuses one LockKey,
  /// so naming a lock copies no bytes onto the heap once it is warm.
  const LockKey& KeyFor(const std::string& file, const Slice& record);
  void ParkRequest(const net::Message& msg, const Transid& owner,
                   const LockKey& key, SimDuration timeout);
  void ResumeGranted(const std::vector<LockGrant>& grants);
  void HandleStateChange(const net::Message& msg);
  void FinishWithReply(const net::Message& msg, const Status& status,
                       Bytes payload, int disc_ios, CheckpointBatch* batch);
  void EmitAudit(const Transid& transid, storage::MutationOp op, const Slice& key,
                 const storage::OpResult& result, const Slice& after,
                 const std::string& file);
  /// Drives the reliable, ordered delivery of queued audit records to the
  /// AUDITPROCESS (one in-flight batch; retried until acknowledged).
  void PumpAuditQueue();
  /// Sends a parked delayed reply, moving its payload into the message.
  void SendDelayedReply(uint32_t slot);
  /// Copies a reply into the cache ring (no-op if rk is cached already).
  /// Past reply_cache_capacity the oldest reply is overwritten.
  void CacheReply(const RequestKey& rk, uint32_t tag, Status::Code status,
                  const Slice& message, const Slice& payload);
  /// Duplicate suppression for a request about to execute: replays a cached
  /// reply, or drops a retry of a request still in progress (its eventual
  /// reply answers the retry too — same request id). Returns true when the
  /// request was handled here; otherwise marks it in flight.
  bool SuppressDuplicate(const net::Message& msg);

  // Checkpoint encoding helpers.
  void CkptGrant(CheckpointBatch* batch, const Transid& owner, const LockKey& key);
  void CkptRelease(CheckpointBatch* batch, const Transid& owner);
  void CkptAborting(CheckpointBatch* batch, const Transid& owner);
  void CkptReply(CheckpointBatch* batch, const RequestKey& rk, uint32_t tag,
                 Status::Code status, const Slice& message,
                 const Slice& payload);
  void CkptAuditPushEntry(CheckpointBatch* batch, const Slice& encoded);
  void CkptAuditPopEntry(CheckpointBatch* batch);
  /// Sends the batch now (window 0) or folds it into the coalescing buffer
  /// and arms the flush timer.
  void FlushCheckpoint(CheckpointBatch* batch);
  /// Sends whatever the coalescing buffer holds, immediately.
  void FlushPendingCheckpoint();

  /// Marks a transaction as resolved (committed or backed out). A request
  /// carrying a resolved transid arriving later — e.g. a retransmission
  /// finally delivered after a partition heals — must not acquire locks for
  /// the dead transaction; it is rejected with Aborted.
  void MarkResolved(const Transid& transid);
  bool IsResolved(const Transid& transid) const {
    return resolved_.Contains(transid.Pack());
  }

  struct Metrics {
    sim::MetricId ops, dedup_replays, dedup_inflight_drops;
    sim::MetricId lock_waits, lock_timeouts, lock_releases;
    sim::MetricId lock_conflict_aborts, lock_timeout_aborts;
    sim::MetricId scan_batches, scan_records, undo_ops, flush_writes;
    sim::MetricId planned_batches, planned_ops, planned_rejects;
    sim::MetricId audit_records, audit_redelivery;
    sim::MetricId ckpt_messages, ckpt_entries;
    sim::MetricId op_ios, queue_depth, op_latency, lock_wait_time;  // histograms
  };

  DiscProcessConfig config_;
  Metrics m_;
  LockManager locks_;
  LockKey lock_key_;  ///< see KeyFor
  std::set<Transid> aborting_;
  /// The newest resolved transids (packed); older ones are forgotten.
  RecentSet<uint64_t> resolved_{8192};

  /// Reply cache: a ring in insertion (= eviction) order that grows lazily
  /// up to reply_cache_capacity, then overwrites its oldest slot.
  std::vector<CachedReply> reply_ring_;
  size_t reply_oldest_ = 0;  ///< ring index of the oldest reply once full
  FlatMap<RequestKey, uint32_t, RequestKeyHash> reply_index_;  ///< -> ring
  FlatSet<RequestKey, RequestKeyHash> in_flight_;

  /// Delayed replies in flight; a timer carries only the slot number.
  std::vector<DelayedReply> delayed_;
  std::vector<uint32_t> free_delayed_;

  struct ParkedOp {
    net::Message msg;
    Transid owner;
    LockKey key;
    uint64_t timer = 0;
    SimTime parked_at = 0;  ///< for the lock.wait_time histogram
  };
  std::list<ParkedOp> parked_;

  // Audit records awaiting acknowledged delivery. Mirrored to the backup so
  // a takeover never loses a before-image (the checkpoint IS the paper's
  // WAL-equivalent). FIFO with one batch in flight preserves LSN order.
  RingQueue<Bytes> audit_queue_;  // encoded AuditRecords; buffers reused
  bool audit_in_flight_ = false;

  // Coalescing buffer (ckpt_coalesce_window > 0): deltas accumulated since
  // the last backup message, flushed by timer, by a fresh backup attaching,
  // or discarded when the backup is lost (the full-state resync supersedes).
  CheckpointBatch pending_ckpt_;
  uint64_t ckpt_timer_ = 0;
  bool ckpt_timer_armed_ = false;
};

}  // namespace encompass::discprocess

#endif  // ENCOMPASS_DISCPROCESS_DISC_PROCESS_H_
