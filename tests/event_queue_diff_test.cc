// Randomized differential test: the production EventQueue (EventFn callbacks,
// generation-stamped slot cancellation) against ReferenceEventQueue (the old
// std::function + hash-set implementation). Both are driven with identical
// operation sequences — schedules, keyed inserts, pops, and cancels aimed at
// live, fired, cancelled, and never-issued ids — and must agree on firing
// order, key/exec_node attribution, live-size accounting, and whether each
// cancel took effect.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <utility>
#include <vector>

#include "reference_event_queue.h"
#include "sim/event_queue.h"

namespace encompass::sim {
namespace {

struct IdPair {
  EventId prod;
  testing::ReferenceEventQueue::EventId ref;
};

TEST(EventQueueDiffTest, RandomizedOperationSequences) {
  for (uint32_t trial = 0; trial < 24; ++trial) {
    std::mt19937_64 rng(0xD1FF0000 + trial);
    EventQueue prod(/*origin=*/3);
    testing::ReferenceEventQueue ref(/*origin=*/3);

    std::vector<IdPair> issued;   // every locally scheduled pair, ever
    std::vector<std::string> prod_fired, ref_fired;
    uint64_t keyed_seq = 1;
    int label = 0;

    const int ops = 400;
    for (int op = 0; op < ops; ++op) {
      switch (rng() % 5) {
        case 0:
        case 1: {  // local schedule, occasionally at a tied time
          const SimTime when = 50 + rng() % 40;
          const auto exec = static_cast<uint16_t>(3 + rng() % 2);
          const std::string tag = "L" + std::to_string(label++);
          issued.push_back(IdPair{
              prod.Schedule(when, exec,
                            [&prod_fired, tag]() { prod_fired.push_back(tag); }),
              ref.Schedule(when, exec,
                           [&ref_fired, tag]() { ref_fired.push_back(tag); })});
          break;
        }
        case 2: {  // keyed insert from a foreign origin
          const EventKey key{static_cast<SimTime>(50 + rng() % 40),
                             static_cast<uint16_t>(7 + rng() % 2), keyed_seq++};
          const std::string tag = "K" + std::to_string(label++);
          prod.ScheduleKeyed(key, key.origin,
                             [&prod_fired, tag]() { prod_fired.push_back(tag); });
          ref.ScheduleKeyed(key, key.origin,
                            [&ref_fired, tag]() { ref_fired.push_back(tag); });
          break;
        }
        case 3: {  // cancel: a previously issued pair (any state) or garbage
          const size_t before_p = prod.size();
          bool ref_effect;
          if (!issued.empty() && rng() % 4 != 0) {
            const IdPair& p = issued[rng() % issued.size()];
            prod.Cancel(p.prod);
            ref_effect = ref.Cancel(p.ref);
          } else {
            // Ids no queue ever issued: 0 and large garbage. Both must be
            // exact no-ops.
            const EventId junk = (rng() % 2 == 0) ? 0 : (rng() | (1ull << 47));
            prod.Cancel(junk);
            ref_effect = false;
          }
          const bool prod_effect = prod.size() != before_p;
          ASSERT_EQ(prod_effect, ref_effect) << "trial " << trial << " op " << op;
          break;
        }
        case 4: {  // pop one (if any): identical key, attribution, payload
          ASSERT_EQ(prod.empty(), ref.empty());
          if (prod.empty()) break;
          EventKey pk, rk;
          uint16_t pe, re;
          prod.PopNext(&pk, &pe)();
          ref.PopNext(&rk, &re)();
          ASSERT_EQ(pk.time, rk.time);
          ASSERT_EQ(pk.origin, rk.origin);
          ASSERT_EQ(pk.seq, rk.seq);
          ASSERT_EQ(pe, re);
          break;
        }
      }
      ASSERT_EQ(prod.size(), ref.size()) << "trial " << trial << " op " << op;
      ASSERT_EQ(prod.NextTime(), ref.NextTime());
    }

    // Drain completely; firing sequences must be identical.
    while (!prod.empty()) {
      ASSERT_FALSE(ref.empty());
      EventKey pk, rk;
      uint16_t pe, re;
      prod.PopNext(&pk, &pe)();
      ref.PopNext(&rk, &re)();
      ASSERT_EQ(pk.seq, rk.seq);
      ASSERT_EQ(pe, re);
    }
    EXPECT_TRUE(ref.empty());
    EXPECT_EQ(prod_fired, ref_fired) << "trial " << trial;
  }
}

// Slot reuse stress: schedule/cancel/fire churn far past the initial slot
// population, then verify stale ids from every earlier round stay no-ops.
TEST(EventQueueDiffTest, SlotReuseKeepsStaleIdsDead) {
  EventQueue q(1);
  std::vector<EventId> stale;
  int fired = 0;
  for (int round = 0; round < 200; ++round) {
    EventId keep = q.Schedule(10 + round, [&fired]() { ++fired; });
    EventId dead = q.Schedule(10 + round, [&fired]() { fired += 1000; });
    q.Cancel(dead);
    stale.push_back(dead);
    stale.push_back(keep);  // becomes stale once fired below
    EventKey key;
    uint16_t exec_node;
    q.PopNext(&key, &exec_node)();
  }
  EXPECT_EQ(fired, 200);
  EXPECT_TRUE(q.empty());
  const size_t size_before = q.size();
  for (EventId id : stale) q.Cancel(id);
  EXPECT_EQ(q.size(), size_before);
  // The queue still works after the churn.
  q.Schedule(1, [&fired]() { ++fired; });
  EventKey key;
  uint16_t exec_node;
  q.PopNext(&key, &exec_node)();
  EXPECT_EQ(fired, 201);
}

// Cancel-heavy churn shaped like Process::Call: every call arms a 5 s
// timeout that its reply cancels a few milliseconds later, while short local
// events and keyed cross-node posts keep arriving. Dead timeout entries pile
// up in the heap far longer than their cells stay retired, so cells are
// reused many times over while stale ids for them are still around.
TEST(EventQueueDiffTest, CallTimeoutChurnMatchesReference) {
  std::mt19937_64 rng(0xCA11);
  EventQueue prod(/*origin=*/2);
  testing::ReferenceEventQueue ref(/*origin=*/2);
  std::vector<std::string> prod_fired, ref_fired;
  std::vector<IdPair> armed;  // timeouts not yet cancelled, oldest first
  std::vector<IdPair> stale;  // cancelled timeouts and fired short events
  std::vector<std::pair<SimTime, IdPair>> shorts;  // short events, in order
  uint64_t keyed_seq = 1;
  int label = 0;
  SimTime now = 0;

  auto record = [](std::vector<std::string>& fired, int tag) {
    return [&fired, tag]() { fired.push_back(std::to_string(tag)); };
  };
  auto pop_due = [&]() {
    while (!prod.empty() && prod.NextTime() <= now) {
      ASSERT_EQ(ref.NextTime(), prod.NextTime());
      EventKey pk, rk;
      uint16_t pe, re;
      prod.PopNext(&pk, &pe)();
      ref.PopNext(&rk, &re)();
      ASSERT_EQ(pk.origin, rk.origin);
      ASSERT_EQ(pk.seq, rk.seq);
      ASSERT_EQ(pe, re);
    }
  };

  for (int call = 0; call < 5000; ++call) {
    now += Micros(static_cast<int64_t>(rng() % 700));
    const SimTime timeout = now + Seconds(5);
    armed.push_back(IdPair{prod.Schedule(timeout, record(prod_fired, label)),
                           ref.Schedule(timeout, 2, record(ref_fired, label))});
    ++label;
    const SimTime soon = now + Micros(static_cast<int64_t>(rng() % 3000));
    shorts.emplace_back(soon,
                        IdPair{prod.Schedule(soon, record(prod_fired, label)),
                               ref.Schedule(soon, 2, record(ref_fired, label))});
    ++label;
    if (rng() % 2 == 0) {
      const EventKey key{now + Millis(1) + static_cast<SimTime>(rng() % 2000),
                         static_cast<uint16_t>(5 + rng() % 3), keyed_seq++};
      prod.ScheduleKeyed(key, key.origin, record(prod_fired, label));
      ref.ScheduleKeyed(key, key.origin, record(ref_fired, label));
      ++label;
    }
    // Replies arrive within milliseconds: cancel every timeout armed more
    // than a few calls ago, except the rare one that is left to fire.
    while (armed.size() > 4) {
      const IdPair p = armed.front();
      armed.erase(armed.begin());
      if (rng() % 50 == 0) continue;  // no reply: this timeout fires
      const size_t before = prod.size();
      prod.Cancel(p.prod);
      ASSERT_TRUE(ref.Cancel(p.ref));
      ASSERT_EQ(prod.size() + 1, before);
      stale.push_back(p);
    }
    // Stale ids stay no-ops even though their cells have been reused.
    if (!stale.empty()) {
      const IdPair& p = stale[rng() % stale.size()];
      const size_t before = prod.size();
      prod.Cancel(p.prod);
      ASSERT_FALSE(ref.Cancel(p.ref));
      ASSERT_EQ(prod.size(), before);
    }
    pop_due();
    ASSERT_EQ(prod.size(), ref.size()) << "call " << call;
    std::erase_if(shorts, [&](const auto& s) {
      if (s.first > now) return false;
      stale.push_back(s.second);  // fired: its id is stale from now on
      return true;
    });
  }

  for (const IdPair& p : stale) {
    prod.Cancel(p.prod);
    ASSERT_FALSE(ref.Cancel(p.ref));
  }
  ASSERT_EQ(prod.size(), ref.size());
  now = kNoDeadline - 1;
  pop_due();
  EXPECT_TRUE(prod.empty());
  EXPECT_TRUE(ref.empty());
  EXPECT_EQ(prod_fired, ref_fired);
  EXPECT_GT(stale.size(), 9000u);
}

}  // namespace
}  // namespace encompass::sim
