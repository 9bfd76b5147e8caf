// Allocation budget of the message and disc paths. A counting global
// operator new pins, once the simulator is warm (event slab, delivery slab,
// pending-call slab and stats shards grown), the heap cost of the verbs
// every transaction repeats:
//   * an intra-node delivery allocates nothing beyond its payload;
//   * a timer with a capture of up to 16 bytes allocates nothing;
//   * encoding up to 64 bytes allocates once;
//   * a Call without retries keeps no copy of its payload, and allocates
//     nothing else when its callback's capture fits the inline storage;
//   * a record lock's Acquire + ReleaseAll cycle, and a backup's ForceGrant
//     + release, allocate nothing;
//   * one audited DISCPROCESS update, end to end on a pair with a backup and
//     an AUDITPROCESS, stays within a pinned count.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "audit/audit_process.h"
#include "audit/audit_trail.h"
#include "common/coding.h"
#include "discprocess/disc_process.h"
#include "discprocess/lock_manager.h"
#include "os/cluster.h"
#include "os/process.h"
#include "os/process_pair.h"
#include "storage/volume.h"
#include "test_util.h"

namespace {

// Counted allocations, and those of at least kBigAlloc bytes (payload-sized
// in the Call test: nothing else on that path is this large).
size_t g_allocs = 0;
size_t g_big_allocs = 0;
constexpr size_t kBigAlloc = 4096;

void* CountedAlloc(size_t n) {
  ++g_allocs;
  if (n >= kBigAlloc) ++g_big_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every replaceable form is defined here, so no allocation made through this
// file's malloc is released by a sanitizer runtime's own operator delete
// (which would report an alloc-dealloc mismatch), and vice versa.
void* operator new(size_t n) { return CountedAlloc(n); }
void* operator new[](size_t n) { return CountedAlloc(n); }
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](size_t n, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace encompass::os {
namespace {

using testutil::TestClient;

/// Counts what it receives and answers requests with an empty reply.
class Sink : public Process {
 public:
  void OnMessage(const net::Message& msg) override {
    ++received;
    if (msg.request_id != 0) Reply(msg, Status::Ok());
  }
  int received = 0;
};

class AllocBudgetTest : public ::testing::Test {
 protected:
  AllocBudgetTest() : sim_(1), cluster_(&sim_) {
    node_ = cluster_.AddNode(1);
    sink_ = node_->Spawn<Sink>(0);
    same_cpu_ = node_->Spawn<TestClient>(0);
    other_cpu_ = node_->Spawn<TestClient>(1);
    sim_.Run();
  }

  /// Sends `n` one-way messages, each with a pre-built payload, to the sink
  /// from both a same-CPU and a cross-CPU sender, and runs to quiescence.
  void SendBurst(int n, std::vector<Bytes>* payloads) {
    for (int i = 0; i < n; ++i) {
      TestClient* from = (i % 2 == 0) ? same_cpu_ : other_cpu_;
      from->SendRaw(net::Address(sink_->id()), net::kTagApp,
                    std::move((*payloads)[i]));
    }
    sim_.Run();
  }

  sim::Simulation sim_;
  Cluster cluster_;
  Node* node_;
  Sink* sink_;
  TestClient* same_cpu_;
  TestClient* other_cpu_;
};

constexpr int kBurst = 64;

TEST_F(AllocBudgetTest, IntraNodeDeliveryAllocatesOnlyItsPayload) {
  std::vector<Bytes> warm(kBurst, Bytes(16, 1));
  SendBurst(kBurst, &warm);  // grows the event and delivery slabs

  std::vector<Bytes> payloads(kBurst, Bytes(16, 2));  // built outside the count
  const size_t before = g_allocs;
  SendBurst(kBurst, &payloads);
  const size_t allocs = g_allocs - before;
  EXPECT_EQ(sink_->received, 2 * kBurst);
  EXPECT_EQ(allocs, 0u) << "allocations per delivery: "
                        << static_cast<double>(allocs) / kBurst;
}

TEST_F(AllocBudgetTest, TimerWithSixteenByteCaptureAllocatesNothing) {
  int fired = 0;
  int* counter = &fired;
  auto arm = [&](int n) {
    for (int i = 0; i < n; ++i) {
      // 16 bytes of capture: a pointer and a 64-bit value.
      const uint64_t step = static_cast<uint64_t>(i);
      same_cpu_->SetTimer(Micros(1 + i), [counter, step]() {
        *counter += step < kBurst ? 1 : 0;
      });
    }
    sim_.Run();
  };
  arm(kBurst);  // warm

  const size_t before = g_allocs;
  arm(kBurst);
  const size_t allocs = g_allocs - before;
  EXPECT_EQ(fired, 2 * kBurst);
  EXPECT_EQ(allocs, 0u) << "allocations per timer: "
                        << static_cast<double>(allocs) / kBurst;
}

TEST(AllocBudgetEncodeTest, EncodingUpToSixtyFourBytesAllocatesOnce) {
  const Bytes value(20, 7);
  const size_t before = g_allocs;
  Bytes out;
  PutFixed8(&out, 1);                         //  1
  PutFixed16(&out, 2);                        //  3
  PutFixed32(&out, 3);                        //  7
  PutFixed64(&out, 4);                        // 15
  PutVarint64(&out, 0xffffffffffffffffULL);   // 25
  PutVarint32(&out, 300);                     // 27
  PutLengthPrefixed(&out, Slice(value));      // 48
  PutFixed64(&out, 5);                        // 56
  PutFixed64(&out, 6);                        // 64
  const size_t allocs = g_allocs - before;
  EXPECT_EQ(out.size(), 64u);
  EXPECT_EQ(allocs, 1u);
}

TEST_F(AllocBudgetTest, CallWithoutRetriesKeepsNoPayloadCopy) {
  auto call = [&](int retries) {
    Bytes payload(2 * kBigAlloc, 3);  // one big allocation, made here
    CallOptions opt;
    opt.retries = retries;
    const size_t before = g_big_allocs;
    TestClient::Outcome* out =
        other_cpu_->CallRaw(net::Address(sink_->id()), net::kTagApp,
                            std::move(payload), 0, opt);
    const size_t copies = g_big_allocs - before;
    sim_.Run();
    EXPECT_TRUE(out->done && out->status.ok());
    return copies;
  };
  call(0);  // warm
  EXPECT_EQ(call(0), 0u);
  // The retry copy is what the count detects: a retrying call keeps one.
  EXPECT_EQ(call(1), 1u);
}

TEST_F(AllocBudgetTest, CallWithInlineCaptureAllocatesOnlyItsPayload) {
  int replies = 0;
  auto burst = [&](std::vector<Bytes>* payloads) {
    for (Bytes& payload : *payloads) {
      // 40 bytes of capture: past std::function's 16-byte buffer, within
      // the reply callback's inline storage.
      int* counter = &replies;
      const uint64_t a = 1, b = 2, c = 3, d = 4;
      other_cpu_->Call(net::Address(sink_->id()), net::kTagApp,
                       std::move(payload),
                       [counter, a, b, c, d](const Status& s,
                                             const net::Message&) {
                         *counter += (s.ok() && a + b + c + d == 10) ? 1 : 0;
                       });
    }
    sim_.Run();
  };
  std::vector<Bytes> warm(kBurst, Bytes(16, 1));
  burst(&warm);

  std::vector<Bytes> payloads(kBurst, Bytes(16, 2));  // built outside the count
  const size_t before = g_allocs;
  burst(&payloads);
  const size_t allocs = g_allocs - before;
  EXPECT_EQ(replies, 2 * kBurst);
  EXPECT_EQ(allocs, 0u) << "allocations per call: "
                        << static_cast<double>(allocs) / kBurst;
}

}  // namespace
}  // namespace encompass::os

namespace encompass::discprocess {
namespace {

LockKey AcctKey(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "acct%05d", i);
  return LockKey{"acct", ToBytes(buf)};
}

/// Locks `per_txn` records per transaction, in a window sliding over 64
/// keys (so released units are recycled for other keys), then releases.
size_t LockCycleAllocs(bool force_grant) {
  LockManager lm;
  std::vector<LockKey> keys;
  for (int i = 0; i < 64; ++i) keys.push_back(AcctKey(i));
  constexpr int kPerTxn = 4;
  auto cycle = [&](uint64_t seq) {
    const Transid owner{1, 0, seq};
    for (int i = 0; i < kPerTxn; ++i) {
      const LockKey& key = keys[(seq * 3 + i) % keys.size()];
      if (force_grant) {
        lm.ForceGrant(owner, key);
      } else {
        EXPECT_EQ(lm.Acquire(owner, key), LockManager::AcquireResult::kGranted);
      }
    }
    EXPECT_TRUE(lm.ReleaseAll(owner).empty());
  };
  for (uint64_t seq = 1; seq <= 8; ++seq) cycle(seq);  // warm
  const size_t before = g_allocs;
  for (uint64_t seq = 9; seq <= 200; ++seq) cycle(seq);
  EXPECT_EQ(lm.held_count(), 0u);
  return g_allocs - before;
}

TEST(AllocBudgetLockTest, WarmAcquireReleaseCycleAllocatesNothing) {
  EXPECT_EQ(LockCycleAllocs(/*force_grant=*/false), 0u);
}

TEST(AllocBudgetLockTest, WarmForceGrantReleaseCycleAllocatesNothing) {
  EXPECT_EQ(LockCycleAllocs(/*force_grant=*/true), 0u);
}

// Pinned: 5 message payloads (four checkpoint deltas and the audit batch),
// the volume's update (5, in storage) and the audit trail's copy of the
// key and images (3). The DISCPROCESS, its lock table and the pending-call
// and delayed-reply slabs add none.
constexpr long kPinnedAllocsPerUpdate = 13;

// One warm audited update: request, record lock, volume mutation, audit
// push and acknowledgement, four checkpoints to the backup (grant, audit
// push, audit pop, reply) and the delayed reply. What remains is payloads
// (the request, four checkpoint deltas, the audit batch), the volume's own
// update and the audit trail's copy of the record.
TEST(AllocBudgetDiscTest, WarmAuditedUpdateStaysWithinPinnedCount) {
  sim::Simulation sim(1);
  os::Cluster cluster(&sim);
  os::Node* node = cluster.AddNode(1);
  storage::Volume volume("$DATA1");
  audit::AuditTrail trail("AT1");
  storage::FileOptions audited;
  audited.audited = true;
  ASSERT_TRUE(
      volume.CreateFile("acct", storage::FileOrganization::kKeySequenced, audited)
          .ok());
  audit::AuditProcessConfig acfg;
  acfg.trail = &trail;
  os::SpawnPair<audit::AuditProcess>(node, "$AUDIT", 0, 1, acfg);
  DiscProcessConfig dcfg;
  dcfg.volume = &volume;
  dcfg.audit_process = "$AUDIT";
  dcfg.reply_cache_capacity = 64;  // full after the warm-up: slots recycle
  os::SpawnPair<DiscProcess>(node, "$DATA1", 0, 1, dcfg);
  auto* client = node->Spawn<testutil::TestClient>(2);
  sim.Run();

  const net::Address disc(1, "$DATA1");
  constexpr int kAccounts = 32;
  uint64_t seq = 0;
  int ok = 0;
  // Runs one transaction of `tag` on account i; only the request itself
  // (built here, before any counting) is made outside the system.
  auto op = [&](uint32_t tag, int i, const char* value, size_t* counted) {
    DiscRequest req;
    req.file = "acct";
    req.key = AcctKey(i).record;
    req.record = ToBytes(value);
    Bytes payload = req.Encode();
    discprocess::TxnStateChange end;
    end.transid = Transid{1, 0, ++seq};
    end.state = DiscTxnState::kEnded;
    Bytes end_payload = end.Encode();
    os::CallOptions opt;
    opt.retries = 2;  // as the file system issues disc requests
    const size_t before = g_allocs;
    client->set_current_transid(end.transid.Pack());
    int* counter = &ok;
    client->Call(disc, tag, std::move(payload),
                 [counter](const Status& s, const net::Message&) {
                   *counter += s.ok() ? 1 : 0;
                 },
                 opt);
    client->set_current_transid(0);
    sim.Run();
    if (counted != nullptr) *counted += g_allocs - before;
    client->SendRaw(disc, kDiscTxnStateChange, std::move(end_payload));
    sim.Run();
  };
  for (int i = 0; i < kAccounts; ++i) op(kDiscInsert, i, "100", nullptr);
  for (int round = 0; round < 4; ++round) {  // warm
    for (int i = 0; i < kAccounts; ++i) op(kDiscUpdate, i, "150", nullptr);
  }
  size_t allocs = 0;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < kAccounts; ++i) op(kDiscUpdate, i, "175", &allocs);
  }
  constexpr int kCounted = 4 * kAccounts;
  EXPECT_EQ(ok, kAccounts + 8 * kAccounts);
  // Rounded: the trail's record vector grows now and then, amortized.
  const double per_update = static_cast<double>(allocs) / kCounted;
  EXPECT_EQ(std::lround(per_update), kPinnedAllocsPerUpdate) << per_update;
}

}  // namespace
}  // namespace encompass::discprocess
