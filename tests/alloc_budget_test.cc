// Allocation budget of the message path. A counting global operator new
// pins, once the simulator is warm (event slab, delivery slab and stats
// shards grown), the heap cost of the verbs every transaction repeats:
//   * an intra-node delivery allocates nothing beyond its payload;
//   * a timer with a capture of up to 16 bytes allocates nothing;
//   * encoding up to 64 bytes allocates once;
//   * a Call without retries keeps no copy of its payload.

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "common/coding.h"
#include "os/cluster.h"
#include "os/process.h"
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

}  // namespace
}  // namespace encompass::os
