// Tests for audit records, audit trails (force/volatility/purge), the
// Monitor Audit Trail, and group commit in the AUDITPROCESS.

#include <gtest/gtest.h>

#include "audit/audit_process.h"
#include "audit/audit_record.h"
#include "audit/audit_trail.h"
#include "common/coding.h"
#include "common/random.h"
#include "os/cluster.h"
#include "os/process_pair.h"
#include "test_util.h"

namespace encompass::audit {
namespace {

using testutil::TestClient;

AuditRecord MakeRecord(uint64_t seq, const std::string& key) {
  AuditRecord rec;
  rec.transid = Transid{1, 0, seq};
  rec.volume = "$DATA1";
  rec.file = "acct";
  rec.op = storage::MutationOp::kUpdate;
  rec.key = ToBytes(key);
  rec.before = ToBytes("old");
  rec.after = ToBytes("new");
  return rec;
}

TEST(AuditRecordTest, EncodeDecodeRoundTrip) {
  AuditRecord rec = MakeRecord(42, "acct-7");
  rec.lsn = 99;
  Bytes encoded = rec.Encode();
  Slice in(encoded);
  auto decoded = AuditRecord::Decode(&in);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(decoded->transid, rec.transid);
  EXPECT_EQ(decoded->volume, "$DATA1");
  EXPECT_EQ(decoded->file, "acct");
  EXPECT_EQ(decoded->op, storage::MutationOp::kUpdate);
  EXPECT_EQ(decoded->key, rec.key);
  EXPECT_EQ(decoded->before, rec.before);
  EXPECT_EQ(decoded->after, rec.after);
  EXPECT_EQ(decoded->lsn, 99u);
}

TEST(AuditRecordTest, DecodeRejectsTruncation) {
  Bytes encoded = MakeRecord(1, "k").Encode();
  encoded.resize(encoded.size() / 2);
  Slice in(encoded);
  EXPECT_FALSE(AuditRecord::Decode(&in).ok());
}

// The record layout spelled out field by field: what every encoder of an
// audit record must produce.
Bytes ReferenceEncoding(const AuditRecord& rec) {
  Bytes out;
  PutFixed64(&out, rec.transid.Pack());
  PutLengthPrefixed(&out, Slice(rec.volume));
  PutLengthPrefixed(&out, Slice(rec.file));
  PutFixed8(&out, static_cast<uint8_t>(rec.op));
  PutLengthPrefixed(&out, Slice(rec.key));
  PutLengthPrefixed(&out, Slice(rec.before));
  PutLengthPrefixed(&out, Slice(rec.after));
  PutVarint64(&out, rec.lsn);
  return out;
}

TEST(AuditRecordTest, DirectEncodingMatchesRecordEncodingForRandomFields) {
  // A DISCPROCESS encodes its audit straight from the operation's key and
  // images (AuditRecordView), into a buffer sized exactly once.
  Random rng(64);
  auto bytes = [&rng](size_t max_len) {
    Bytes b(rng.Uniform(max_len + 1));
    for (auto& c : b) c = static_cast<uint8_t>(rng.Next());
    return b;
  };
  for (int i = 0; i < 300; ++i) {
    AuditRecord rec;
    rec.transid = Transid{static_cast<uint16_t>(rng.Uniform(16)),
                          static_cast<uint8_t>(rng.Uniform(4)),
                          rng.Uniform(1ull << 40)};
    rec.volume = "$DATA" + std::to_string(rng.Uniform(100));
    rec.file = ToString(bytes(20));
    rec.op = static_cast<storage::MutationOp>(rng.Uniform(3));
    rec.key = bytes(40);
    // Empty images and images past the 64-byte first reservation.
    rec.before = rng.Uniform(4) == 0 ? Bytes() : bytes(300);
    rec.after = rng.Uniform(4) == 0 ? Bytes() : bytes(300);
    rec.lsn = rng.Uniform(3) == 0 ? 0 : rng.Next();
    const Bytes want = ReferenceEncoding(rec);

    const AuditRecordView view{rec.transid,      Slice(rec.volume),
                               Slice(rec.file),  rec.op,
                               Slice(rec.key),   Slice(rec.before),
                               Slice(rec.after), rec.lsn};
    const Bytes direct = view.Encode();
    ASSERT_EQ(direct, want) << "record " << i;
    EXPECT_EQ(direct.capacity(), direct.size()) << "record " << i;
    EXPECT_EQ(rec.Encode(), want) << "record " << i;

    // Appending into a reused buffer writes the same bytes after its
    // prefix, and a buffer already large enough is not regrown.
    Bytes reused(7, 0xAB);
    reused.reserve(reused.size() + view.EncodedSize());
    const uint8_t* data = reused.data();
    view.EncodeTo(&reused);
    EXPECT_EQ(reused.data(), data);
    EXPECT_EQ(Bytes(reused.begin() + 7, reused.end()), want);

    Slice in(direct);
    auto decoded = AuditRecord::Decode(&in);
    ASSERT_TRUE(decoded.ok());
    EXPECT_TRUE(in.empty());
    EXPECT_EQ(ReferenceEncoding(*decoded), want);
  }
}

TEST(CompletionRecordTest, RoundTrip) {
  CompletionRecord rec{Transid{3, 2, 17}, Completion::kAborted};
  Bytes encoded = rec.Encode();
  Slice in(encoded);
  auto decoded = CompletionRecord::Decode(&in);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->transid, rec.transid);
  EXPECT_EQ(decoded->completion, Completion::kAborted);
}

TEST(AuditBatchTest, RoundTripAndCorruption) {
  std::vector<AuditRecord> batch{MakeRecord(1, "a"), MakeRecord(2, "b")};
  Bytes encoded = EncodeAuditBatch(batch);
  auto decoded = DecodeAuditBatch(Slice(encoded));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ((*decoded)[1].transid.seq, 2u);
  encoded.resize(3);
  EXPECT_FALSE(DecodeAuditBatch(Slice(encoded)).ok());
}

TEST(AuditTrailTest, AppendAssignsMonotoneLsns) {
  AuditTrail trail("AT1");
  EXPECT_EQ(trail.Append(MakeRecord(1, "a")), 1u);
  EXPECT_EQ(trail.Append(MakeRecord(1, "b")), 2u);
  EXPECT_EQ(trail.Append(MakeRecord(2, "c")), 3u);
  EXPECT_EQ(trail.record_count(), 3u);
  EXPECT_EQ(trail.next_lsn(), 4u);
}

TEST(AuditTrailTest, ForceMovesDurableBoundary) {
  AuditTrail trail("AT1");
  trail.Append(MakeRecord(1, "a"));
  trail.Append(MakeRecord(1, "b"));
  EXPECT_EQ(trail.durable_lsn(), 0u);
  EXPECT_EQ(trail.Force(), 2u);
  EXPECT_EQ(trail.durable_lsn(), 2u);
  EXPECT_EQ(trail.Force(), 0u);  // nothing new
}

TEST(AuditTrailTest, DropVolatileLosesUnforcedSuffix) {
  AuditTrail trail("AT1");
  trail.Append(MakeRecord(1, "a"));
  trail.Force();
  trail.Append(MakeRecord(1, "b"));
  trail.Append(MakeRecord(1, "c"));
  trail.DropVolatile();
  EXPECT_EQ(trail.record_count(), 1u);
  EXPECT_EQ(trail.next_lsn(), 2u);
  // New appends continue from the durable boundary.
  EXPECT_EQ(trail.Append(MakeRecord(1, "d")), 2u);
}

TEST(AuditTrailTest, RecordsForTransactionFiltersByTransid) {
  AuditTrail trail("AT1");
  trail.Append(MakeRecord(1, "a"));
  trail.Append(MakeRecord(2, "b"));
  trail.Append(MakeRecord(1, "c"));
  auto recs = trail.RecordsForTransaction(Transid{1, 0, 1});
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(ToString(recs[0].key), "a");
  EXPECT_EQ(ToString(recs[1].key), "c");
}

TEST(AuditTrailTest, DurableRecordsAfterScansForwardOnly) {
  AuditTrail trail("AT1");
  for (int i = 0; i < 5; ++i) trail.Append(MakeRecord(1, std::to_string(i)));
  trail.Force();
  trail.Append(MakeRecord(1, "volatile"));
  auto recs = trail.DurableRecordsAfter(2);
  ASSERT_EQ(recs.size(), 3u);  // lsns 3,4,5; the unforced 6th is excluded
  EXPECT_EQ(recs[0].lsn, 3u);
  EXPECT_EQ(recs[2].lsn, 5u);
}

TEST(AuditTrailTest, FileRolloverAndPurge) {
  AuditTrailConfig cfg;
  cfg.records_per_file = 10;
  AuditTrail trail("AT1", cfg);
  for (int i = 0; i < 35; ++i) trail.Append(MakeRecord(1, std::to_string(i)));
  EXPECT_EQ(trail.file_count(), 4u);
  trail.Force();
  // Purge everything up to LSN 25: the first two full files (1-10, 11-20) go.
  size_t purged = trail.Purge(25);
  EXPECT_EQ(purged, 2u);
  EXPECT_EQ(trail.file_count(), 2u);
  EXPECT_EQ(trail.first_file_number(), 3u);
  // Remaining records still scannable.
  EXPECT_EQ(trail.DurableRecordsAfter(0).size(), 15u);
}

TEST(AuditTrailTest, PurgeKeepsUnforcedFiles) {
  AuditTrailConfig cfg;
  cfg.records_per_file = 5;
  AuditTrail trail("AT1", cfg);
  for (int i = 0; i < 12; ++i) trail.Append(MakeRecord(1, std::to_string(i)));
  // Nothing forced: nothing purgeable.
  EXPECT_EQ(trail.Purge(100), 0u);
}

TEST(MonitorAuditTrailTest, CommitAndAbortLookup) {
  MonitorAuditTrail mat;
  EXPECT_EQ(mat.Lookup(Transid{1, 0, 1}), -1);
  mat.AppendForced(CompletionRecord{Transid{1, 0, 1}, Completion::kCommitted});
  mat.AppendForced(CompletionRecord{Transid{1, 0, 2}, Completion::kAborted});
  EXPECT_EQ(mat.Lookup(Transid{1, 0, 1}), 1);
  EXPECT_EQ(mat.Lookup(Transid{1, 0, 2}), 0);
  EXPECT_EQ(mat.Lookup(Transid{1, 0, 3}), -1);
  EXPECT_EQ(mat.size(), 2u);
}

TEST(MonitorAuditTrailTest, FirstCompletionWinsOverDuplicates) {
  MonitorAuditTrail mat;
  // Idempotent re-commits (phase-2 retries, takeover replays) append
  // duplicate records; the disposition answered must never change.
  mat.AppendForced(CompletionRecord{Transid{1, 0, 5}, Completion::kCommitted});
  mat.AppendForced(CompletionRecord{Transid{1, 0, 5}, Completion::kCommitted});
  EXPECT_EQ(mat.Lookup(Transid{1, 0, 5}), 1);
  EXPECT_EQ(mat.size(), 2u);  // the log keeps both, the index keeps one
}

// -- AUDITPROCESS group commit ----------------------------------------------

class AuditGroupCommitTest : public ::testing::Test {
 protected:
  void Start(SimDuration window) {
    sim_ = std::make_unique<sim::Simulation>(11);
    cluster_ = std::make_unique<os::Cluster>(sim_.get());
    node_ = cluster_->AddNode(1);
    AuditProcessConfig acfg;
    acfg.trail = &trail_;
    acfg.group_commit_window = window;
    os::SpawnPair<AuditProcess>(node_, "$AUDIT", 0, 1, acfg);
    client_ = node_->Spawn<TestClient>(2);
    sim_->Run();
  }

  net::Address Audit() { return net::Address(1, "$AUDIT"); }

  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<os::Cluster> cluster_;
  os::Node* node_ = nullptr;
  AuditTrail trail_{"AT1"};
  TestClient* client_ = nullptr;
};

// The AUDITPROCESS's append path, on the same one-pair cluster.
class AuditAppendTest : public AuditGroupCommitTest {};

TEST_F(AuditAppendTest, BatchAppendsEveryRecordInOrder) {
  Start(0);
  std::vector<AuditRecord> batch{MakeRecord(7, "a"), MakeRecord(8, "bb"),
                                 MakeRecord(7, "ccc")};
  batch[1].before.clear();  // an insert's empty before-image
  batch[2].after = Bytes(100, 9);
  auto* r = client_->CallRaw(Audit(), kAuditAppend, EncodeAuditBatch(batch));
  sim_->Run();
  ASSERT_TRUE(r->done && r->status.ok());
  EXPECT_EQ(trail_.record_count(), 3u);
  auto seven = trail_.RecordsForTransaction(Transid{1, 0, 7});
  ASSERT_EQ(seven.size(), 2u);
  EXPECT_EQ(seven[0].lsn, 1u);
  EXPECT_EQ(ToString(seven[0].key), "a");
  EXPECT_EQ(seven[1].lsn, 3u);
  EXPECT_EQ(ToString(seven[1].key), "ccc");
  EXPECT_EQ(seven[1].after, Bytes(100, 9));
  auto eight = trail_.RecordsForTransaction(Transid{1, 0, 8});
  ASSERT_EQ(eight.size(), 1u);
  EXPECT_EQ(eight[0].lsn, 2u);
  EXPECT_TRUE(eight[0].before.empty());
  EXPECT_EQ(eight[0].volume, "$DATA1");
  EXPECT_EQ(eight[0].file, "acct");
}

TEST_F(AuditAppendTest, MalformedBatchIsRejectedWhole) {
  Start(0);
  // Claims 200 records but carries one: nothing may be appended.
  Bytes payload;
  PutVarint32(&payload, 200);
  PutLengthPrefixed(&payload, Slice(MakeRecord(1, "a").Encode()));
  auto* r = client_->CallRaw(Audit(), kAuditAppend, std::move(payload));
  // A malformed record after a valid one rejects the whole batch too.
  Bytes torn;
  PutVarint32(&torn, 2);
  PutLengthPrefixed(&torn, Slice(MakeRecord(2, "b").Encode()));
  PutLengthPrefixed(&torn, Slice("junk"));
  auto* t = client_->CallRaw(Audit(), kAuditAppend, std::move(torn));
  sim_->Run();
  ASSERT_TRUE(r->done && t->done);
  EXPECT_TRUE(r->status.IsCorruption()) << r->status.ToString();
  EXPECT_TRUE(t->status.IsCorruption()) << t->status.ToString();
  EXPECT_EQ(trail_.record_count(), 0u);
}

TEST_F(AuditGroupCommitTest, ConcurrentForcesCoalesce) {
  Start(/*window=*/0);
  // Four force requests in flight together: the first starts a physical
  // write; the other three arrive while it is in flight and share the next
  // one. Two writes total, batch sizes exactly {1, 3}.
  auto* a = client_->CallRaw(Audit(), kAuditForce, {});
  auto* b = client_->CallRaw(Audit(), kAuditForce, {});
  auto* c = client_->CallRaw(Audit(), kAuditForce, {});
  auto* d = client_->CallRaw(Audit(), kAuditForce, {});
  sim_->Run();
  for (auto* out : {a, b, c, d}) {
    ASSERT_TRUE(out->done);
    EXPECT_TRUE(out->status.ok());
  }
  EXPECT_EQ(sim_->GetStats().Counter("audit.forces"), 2);
  const auto* sizes = sim_->GetStats().FindHistogram("audit.group_commit_size");
  ASSERT_NE(sizes, nullptr);
  EXPECT_EQ(sizes->count(), 2u);
  EXPECT_EQ(sizes->Sum(), 4);
  EXPECT_EQ(sizes->Min(), 1);
  EXPECT_EQ(sizes->Max(), 3);
}

TEST_F(AuditGroupCommitTest, BatchingWindowMergesIntoOneWrite) {
  Start(Millis(1));
  // With a batching window longer than the arrival spread, all four forces
  // land in one physical write.
  auto* a = client_->CallRaw(Audit(), kAuditForce, {});
  auto* b = client_->CallRaw(Audit(), kAuditForce, {});
  auto* c = client_->CallRaw(Audit(), kAuditForce, {});
  auto* d = client_->CallRaw(Audit(), kAuditForce, {});
  sim_->Run();
  for (auto* out : {a, b, c, d}) {
    ASSERT_TRUE(out->done);
    EXPECT_TRUE(out->status.ok());
  }
  EXPECT_EQ(sim_->GetStats().Counter("audit.forces"), 1);
  const auto* sizes = sim_->GetStats().FindHistogram("audit.group_commit_size");
  ASSERT_NE(sizes, nullptr);
  EXPECT_EQ(sizes->count(), 1u);
  EXPECT_EQ(sizes->Max(), 4);
}

TEST_F(AuditGroupCommitTest, SequentialForcesDoNotCoalesce) {
  Start(/*window=*/0);
  // Forces separated in time keep the pre-group-commit behaviour: one
  // physical write each.
  for (int i = 0; i < 3; ++i) {
    auto* out = client_->CallRaw(Audit(), kAuditForce, {});
    sim_->Run();
    ASSERT_TRUE(out->done);
    EXPECT_TRUE(out->status.ok());
  }
  EXPECT_EQ(sim_->GetStats().Counter("audit.forces"), 3);
  const auto* sizes = sim_->GetStats().FindHistogram("audit.group_commit_size");
  ASSERT_NE(sizes, nullptr);
  EXPECT_EQ(sizes->count(), 3u);
  EXPECT_EQ(sizes->Max(), 1);
}

TEST_F(AuditGroupCommitTest, ForceCoversRecordsAppendedBeforeWriteStart) {
  Start(/*window=*/0);
  // A record appended before the physical write starts is durable once the
  // force's reply arrives, even when the force coalesced into a batch.
  trail_.Append(AuditRecord{});
  auto* a = client_->CallRaw(Audit(), kAuditForce, {});
  auto* b = client_->CallRaw(Audit(), kAuditForce, {});
  sim_->Run();
  ASSERT_TRUE(a->done && b->done);
  EXPECT_TRUE(a->status.ok());
  EXPECT_TRUE(b->status.ok());
  EXPECT_EQ(trail_.durable_lsn(), 1u);
}

}  // namespace
}  // namespace encompass::audit
