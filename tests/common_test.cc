// Unit tests for the common module: Status/Result, Slice, coding, CRC32,
// Random, Transid.

#include <gtest/gtest.h>

#include <deque>
#include <iterator>
#include <limits>
#include <unordered_map>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/flat_map.h"
#include "common/random.h"
#include "common/result.h"
#include "common/ring_queue.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/transid.h"

namespace encompass {
namespace {

// ---------------------------------------------------------------------------
// Status
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryAndPredicates) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::Timeout().IsTimeout());
  EXPECT_TRUE(Status::Aborted().IsAborted());
  EXPECT_TRUE(Status::Partitioned().IsPartitioned());
  EXPECT_TRUE(Status::InDoubt().IsInDoubt());
  EXPECT_FALSE(Status::NotFound().ok());
}

TEST(StatusTest, MessagePreserved) {
  Status s = Status::IoError("disc 3 path down");
  EXPECT_EQ(s.message(), "disc 3 path down");
  EXPECT_EQ(s.ToString(), "IoError: disc 3 path down");
}

TEST(StatusTest, EqualityIgnoresMessage) {
  EXPECT_EQ(Status::Busy("a"), Status::Busy("b"));
  EXPECT_FALSE(Status::Busy() == Status::Timeout());
}

TEST(StatusTest, CodeNamesCoverAllCodes) {
  for (int c = 0; c <= 16; ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<Status::Code>(c)), "Unknown");
  }
}

TEST(StatusTest, ReturnIfErrorMacro) {
  auto fails = []() -> Status {
    ENCOMPASS_RETURN_IF_ERROR(Status::NotFound("inner"));
    return Status::Ok();
  };
  EXPECT_TRUE(fails().IsNotFound());
  auto passes = []() -> Status {
    ENCOMPASS_RETURN_IF_ERROR(Status::Ok());
    return Status::Aborted();
  };
  EXPECT_TRUE(passes().IsAborted());
}

// ---------------------------------------------------------------------------
// Result<T>
// ---------------------------------------------------------------------------

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("gone"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::Busy();
    return 7;
  };
  auto outer = [&](bool fail) -> Status {
    int v = 0;
    ENCOMPASS_ASSIGN_OR_RETURN(v, inner(fail));
    return v == 7 ? Status::Ok() : Status::Corruption();
  };
  EXPECT_TRUE(outer(false).ok());
  EXPECT_TRUE(outer(true).IsBusy());
}

// ---------------------------------------------------------------------------
// Slice
// ---------------------------------------------------------------------------

TEST(SliceTest, BasicViewsAndCompare) {
  std::string s = "hello";
  Slice a(s);
  EXPECT_EQ(a.size(), 5u);
  EXPECT_EQ(a.ToString(), "hello");
  EXPECT_EQ(a.Compare(Slice("hello")), 0);
  EXPECT_LT(Slice("abc").Compare(Slice("abd")), 0);
  EXPECT_LT(Slice("ab").Compare(Slice("abc")), 0);  // prefix sorts first
  EXPECT_GT(Slice("b").Compare(Slice("ab")), 0);
}

TEST(SliceTest, RemovePrefixAndStartsWith) {
  Slice a("transaction");
  EXPECT_TRUE(a.StartsWith(Slice("trans")));
  a.RemovePrefix(5);
  EXPECT_EQ(a.ToString(), "action");
  EXPECT_FALSE(a.StartsWith(Slice("trans")));
}

TEST(SliceTest, SharedPrefixLength) {
  EXPECT_EQ(SharedPrefixLength(Slice("abcde"), Slice("abcxy")), 3u);
  EXPECT_EQ(SharedPrefixLength(Slice(""), Slice("a")), 0u);
  EXPECT_EQ(SharedPrefixLength(Slice("same"), Slice("same")), 4u);
}

TEST(SliceTest, BytesRoundTrip) {
  Bytes b = ToBytes("payload");
  EXPECT_EQ(ToString(b), "payload");
  Slice s(b);
  EXPECT_EQ(s.ToBytes(), b);
}

// ---------------------------------------------------------------------------
// Coding
// ---------------------------------------------------------------------------

TEST(CodingTest, FixedRoundTrip) {
  Bytes buf;
  PutFixed8(&buf, 0xab);
  PutFixed16(&buf, 0x1234);
  PutFixed32(&buf, 0xdeadbeef);
  PutFixed64(&buf, 0x0123456789abcdefULL);
  Slice in(buf);
  uint8_t v8;
  uint16_t v16;
  uint32_t v32;
  uint64_t v64;
  ASSERT_TRUE(GetFixed8(&in, &v8));
  ASSERT_TRUE(GetFixed16(&in, &v16));
  ASSERT_TRUE(GetFixed32(&in, &v32));
  ASSERT_TRUE(GetFixed64(&in, &v64));
  EXPECT_EQ(v8, 0xab);
  EXPECT_EQ(v16, 0x1234);
  EXPECT_EQ(v32, 0xdeadbeefu);
  EXPECT_EQ(v64, 0x0123456789abcdefULL);
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, VarintRoundTripBoundaries) {
  const uint64_t values[] = {0,    1,        127,        128,
                             300,  16383,    16384,      (1ULL << 32) - 1,
                             1ULL << 32, std::numeric_limits<uint64_t>::max()};
  Bytes buf;
  for (uint64_t v : values) PutVarint64(&buf, v);
  Slice in(buf);
  for (uint64_t v : values) {
    uint64_t decoded;
    ASSERT_TRUE(GetVarint64(&in, &decoded));
    EXPECT_EQ(decoded, v);
  }
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, Varint32RejectsOverflow) {
  Bytes buf;
  PutVarint64(&buf, 1ULL << 33);
  Slice in(buf);
  uint32_t v;
  EXPECT_FALSE(GetVarint32(&in, &v));
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  Bytes buf;
  PutLengthPrefixed(&buf, Slice("alpha"));
  PutLengthPrefixed(&buf, Slice(""));
  PutLengthPrefixed(&buf, Slice("gamma"));
  Slice in(buf);
  std::string a, b, c;
  ASSERT_TRUE(GetLengthPrefixedString(&in, &a));
  ASSERT_TRUE(GetLengthPrefixedString(&in, &b));
  ASSERT_TRUE(GetLengthPrefixedString(&in, &c));
  EXPECT_EQ(a, "alpha");
  EXPECT_EQ(b, "");
  EXPECT_EQ(c, "gamma");
}

TEST(CodingTest, DecodeUnderflowFails) {
  Bytes buf;
  PutFixed32(&buf, 7);
  Slice in(buf);
  uint64_t v64;
  EXPECT_FALSE(GetFixed64(&in, &v64));
  Bytes truncated;
  PutVarint64(&truncated, 1000000);
  truncated.pop_back();
  Slice in2(truncated);
  uint64_t v;
  EXPECT_FALSE(GetVarint64(&in2, &v));
}

TEST(CodingTest, LengthPrefixTruncationFails) {
  Bytes buf;
  PutVarint64(&buf, 100);  // claims 100 bytes follow
  buf.push_back('x');
  Slice in(buf);
  Slice out;
  EXPECT_FALSE(GetLengthPrefixed(&in, &out));
}

// Byte-by-byte reference encoders: the obvious form of each wire format.
// The production Put* must produce exactly these bytes.
namespace ref {

void Fixed(Bytes* dst, uint64_t v, int width) {
  for (int i = 0; i < width; ++i) dst->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void Varint(Bytes* dst, uint64_t v) {
  while (v >= 0x80) {
    dst->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  dst->push_back(static_cast<uint8_t>(v));
}

void LengthPrefixed(Bytes* dst, const Bytes& value) {
  Varint(dst, value.size());
  for (uint8_t b : value) dst->push_back(b);
}

}  // namespace ref

// Applies one random field to both the production and the reference buffer.
void PutRandomField(Random* rng, Bytes* got, Bytes* want) {
  static constexpr uint64_t kEdges[] = {
      0,          1,          0x7f,       0x80,           0x3fff,
      0x4000,     0xffff,     0xffffffff, 0x100000000ULL, 0xffffffffffffffffULL};
  const uint64_t v = rng->Bernoulli(0.5) ? kEdges[rng->Uniform(std::size(kEdges))]
                                         : rng->Next() >> rng->Uniform(64);
  switch (rng->Uniform(7)) {
    case 0: PutFixed8(got, static_cast<uint8_t>(v)); ref::Fixed(want, v, 1); break;
    case 1: PutFixed16(got, static_cast<uint16_t>(v)); ref::Fixed(want, v, 2); break;
    case 2: PutFixed32(got, static_cast<uint32_t>(v)); ref::Fixed(want, v, 4); break;
    case 3: PutFixed64(got, v); ref::Fixed(want, v, 8); break;
    case 4:
      PutVarint32(got, static_cast<uint32_t>(v));
      ref::Varint(want, static_cast<uint32_t>(v));
      break;
    case 5: PutVarint64(got, v); ref::Varint(want, v); break;
    default: {
      // Empty, short, exactly the first reserve, and past it.
      static constexpr size_t kLens[] = {0, 1, 40, 63, 64, 65, 200, 1000};
      Bytes value(kLens[rng->Uniform(std::size(kLens))]);
      for (auto& b : value) b = static_cast<uint8_t>(rng->Next());
      PutLengthPrefixed(got, Slice(value));
      ref::LengthPrefixed(want, value);
    }
  }
}

TEST(CodingTest, EncodersMatchByteByByteReference) {
  Random rng(2024);
  for (int round = 0; round < 2000; ++round) {
    Bytes got, want;
    if (round % 3 == 1) {
      // Append to a non-empty buffer, sometimes one with spare capacity.
      got.assign(1 + rng.Uniform(100), 0xab);
      if (round % 2 == 0) got.reserve(got.size() + rng.Uniform(64));
      want = got;
    }
    const int fields = static_cast<int>(rng.Uniform(24));
    for (int f = 0; f < fields; ++f) PutRandomField(&rng, &got, &want);
    ASSERT_EQ(got, want) << "round " << round;
  }
}

TEST(CodingTest, VarintBoundariesMatchReference) {
  for (uint64_t v : {0ULL, 0x7fULL, 0x80ULL, 0xffffffffULL, 0xffffffffffffffffULL}) {
    Bytes got, want;
    PutVarint64(&got, v);
    ref::Varint(&want, v);
    EXPECT_EQ(got, want) << v;
    if (v <= 0xffffffffULL) {
      Bytes got32;
      PutVarint32(&got32, static_cast<uint32_t>(v));
      EXPECT_EQ(got32, want) << v;
    }
  }
  Bytes max;
  PutVarint64(&max, 0xffffffffffffffffULL);
  EXPECT_EQ(max.size(), 10u);
}

// ---------------------------------------------------------------------------
// CRC32
// ---------------------------------------------------------------------------

TEST(Crc32Test, KnownVector) {
  // CRC32C("123456789") = 0xE3069283 (well-known check value).
  EXPECT_EQ(Crc32c(Slice("123456789")), 0xE3069283u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(Crc32c(Slice("")), 0u); }

TEST(Crc32Test, Incremental) {
  Slice full("transaction monitoring");
  uint32_t whole = Crc32c(full);
  uint32_t part = Crc32c(0, full.data(), 11);
  part = Crc32c(part, full.data() + 11, full.size() - 11);
  EXPECT_EQ(whole, part);
}

TEST(Crc32Test, DetectsCorruption) {
  Bytes data = ToBytes("audit record body");
  uint32_t before = Crc32c(Slice(data));
  data[5] ^= 0x01;
  EXPECT_NE(before, Crc32c(Slice(data)));
}

// ---------------------------------------------------------------------------
// Random
// ---------------------------------------------------------------------------

TEST(RandomTest, DeterministicForSeed) {
  Random a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 2);
}

TEST(RandomTest, UniformInRange) {
  Random r(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = r.Range(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(RandomTest, BernoulliExtremes) {
  Random r(7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(r.Bernoulli(0.0));
    EXPECT_TRUE(r.Bernoulli(1.0));
  }
}

TEST(RandomTest, SkewedFavorsSmallIndices) {
  Random r(9);
  int64_t low = 0, high = 0;
  const uint64_t n = 1000;
  for (int i = 0; i < 20000; ++i) {
    uint64_t v = r.Skewed(n, 0.99);
    EXPECT_LT(v, n);
    if (v < n / 10) ++low;
    if (v >= 9 * n / 10) ++high;
  }
  EXPECT_GT(low, high * 2);
}

TEST(RandomTest, SkewedDegenerateN) {
  Random r(3);
  EXPECT_EQ(r.Skewed(0, 0.5), 0u);
  EXPECT_EQ(r.Skewed(1, 0.5), 0u);
}

// ---------------------------------------------------------------------------
// Transid
// ---------------------------------------------------------------------------

TEST(TransidTest, PackUnpackRoundTrip) {
  Transid t{/*home_node=*/300, /*cpu=*/15, /*seq=*/(1ULL << 40) - 1};
  Transid u = Transid::Unpack(t.Pack());
  EXPECT_EQ(u.home_node, 300);
  EXPECT_EQ(u.cpu, 15);
  EXPECT_EQ(u.seq, (1ULL << 40) - 1);
  EXPECT_EQ(t, u);
}

TEST(TransidTest, InvalidHasSeqZero) {
  Transid t;
  EXPECT_FALSE(t.valid());
  EXPECT_EQ(t.ToString(), "txn(none)");
  Transid v{1, 0, 5};
  EXPECT_TRUE(v.valid());
}

TEST(TransidTest, OrderingFollowsPack) {
  Transid a{1, 0, 5}, b{1, 0, 6}, c{2, 0, 1};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

TEST(TransidTest, HashDistinct) {
  std::hash<Transid> h;
  EXPECT_NE(h(Transid{1, 0, 1}), h(Transid{1, 0, 2}));
}

// FlatMap against std::unordered_map: a small key space and a high erase
// rate keep probe runs long and wrapping, so backward-shift deletion is
// exercised at every position of a run.
TEST(FlatMapTest, MatchesUnorderedMapUnderChurn) {
  Random rng(17);
  FlatMap<uint64_t, uint32_t> flat;
  std::unordered_map<uint64_t, uint32_t> want;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t key = rng.Uniform(97) * 64;  // shared low bits
    const uint32_t value = static_cast<uint32_t>(rng.Next());
    switch (rng.Uniform(3)) {
      case 0: {
        auto [slot, inserted] = flat.Insert(key, value);
        const bool want_inserted = want.emplace(key, value).second;
        ASSERT_EQ(inserted, want_inserted);
        ASSERT_EQ(*slot, want.at(key));
        break;
      }
      case 1:
        ASSERT_EQ(flat.Erase(key), want.erase(key) == 1);
        break;
      default: {
        const uint32_t* found = flat.Find(key);
        auto it = want.find(key);
        ASSERT_EQ(found != nullptr, it != want.end());
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second);
        }
      }
    }
    ASSERT_EQ(flat.size(), want.size());
  }
  for (const auto& [key, value] : want) {
    ASSERT_NE(flat.Find(key), nullptr);
    EXPECT_EQ(*flat.Find(key), value);
  }
}

TEST(RecentSetTest, ForgetsOldestFirstAndIgnoresRepeats) {
  RecentSet<uint64_t> recent(3);
  for (uint64_t k : {1, 2, 3, 2}) recent.Insert(k);  // the repeat is a no-op
  EXPECT_EQ(recent.size(), 3u);
  recent.Insert(4);  // forgets 1, the oldest
  EXPECT_FALSE(recent.Contains(1));
  EXPECT_TRUE(recent.Contains(2) && recent.Contains(3) && recent.Contains(4));
  recent.Insert(5);  // forgets 2: a repeat did not refresh it
  EXPECT_FALSE(recent.Contains(2));
  EXPECT_EQ(recent.size(), 3u);
  for (uint64_t k = 6; k < 1000; ++k) recent.Insert(k);
  EXPECT_EQ(recent.size(), 3u);
  EXPECT_TRUE(recent.Contains(997) && recent.Contains(998) &&
              recent.Contains(999));
}

TEST(RingQueueTest, KeepsFifoOrderWhileGrowingAndWrapping) {
  Random rng(5);
  RingQueue<Bytes> ring;
  std::deque<Bytes> want;
  for (int i = 0; i < 5000; ++i) {
    if (want.empty() || rng.Uniform(5) < 3) {
      Bytes value(1 + rng.Uniform(8), static_cast<uint8_t>(i));
      Bytes& slot = ring.PushBack();
      slot.assign(value.begin(), value.end());  // reuses a retired buffer
      want.push_back(value);
    } else {
      ASSERT_EQ(ring.front(), want.front());
      ring.PopFront();
      want.pop_front();
    }
    ASSERT_EQ(ring.size(), want.size());
    if (i % 97 == 0) {
      for (size_t j = 0; j < want.size(); ++j) ASSERT_EQ(ring[j], want[j]);
    }
  }
}

}  // namespace
}  // namespace encompass
