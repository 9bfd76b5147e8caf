// Chaos recovery campaign tests: randomized fault schedules (CPU kills, bus
// cuts, drive drops, link flaps, partitions, total node crashes) run against
// a three-node transfer workload, with the cluster-wide atomicity oracle
// checked after every storm. Each seed must survive: zero oracle violations,
// conserved balances, no leaked locks/transactions, and every crashed node
// recovered through ROLLFORWARD. A failing seed writes its schedule dump to
// chaos_failing_seed_<n>.schedule so CI can archive it and anyone can replay
// the exact storm with ReplayChaosCampaign.

#include <gtest/gtest.h>

#include <fstream>

#include "encompass/chaos.h"
#include "tmf/tmf_protocol.h"
#include "test_util.h"

namespace encompass::app {
namespace {

using testutil::TestClient;

ChaosCampaignConfig CampaignConfig(uint64_t seed) {
  ChaosCampaignConfig cfg;
  cfg.seed = seed;
  cfg.nodes = 3;
  cfg.accounts_per_node = 20;
  cfg.clients_per_node = 2;
  cfg.schedule.faults = 8;
  cfg.schedule.min_node_crashes = 1;
  return cfg;
}

/// Asserts every survival invariant; on any failure, writes the schedule
/// dump next to the test binary for archival/replay.
void ExpectSurvived(const ChaosCampaignResult& r, uint64_t seed) {
  bool clean = r.quiesced && r.violations.empty() &&
               r.balance_sum == r.expected_sum && r.leaked_locks == 0 &&
               r.leaked_txns == 0 && r.pending_safe == 0 &&
               r.illegal_transitions == 0 &&
               r.recoveries_completed == r.node_crashes;
  if (!clean) {
    std::ofstream out("chaos_failing_seed_" + std::to_string(seed) +
                      ".schedule");
    out << r.schedule_dump;
    out.close();
    for (const auto& line : r.journal) {
      ADD_FAILURE() << "journal: " << line;
    }
  }
  EXPECT_TRUE(r.quiesced) << "seed " << seed << " did not quiesce";
  for (const auto& v : r.violations) {
    ADD_FAILURE() << "seed " << seed << " txn " << v.transid << ": "
                  << v.detail;
  }
  EXPECT_EQ(r.balance_sum, r.expected_sum) << "seed " << seed;
  EXPECT_EQ(r.leaked_locks, 0u) << "seed " << seed;
  EXPECT_EQ(r.leaked_txns, 0u) << "seed " << seed;
  EXPECT_EQ(r.pending_safe, 0u) << "seed " << seed;
  EXPECT_EQ(r.illegal_transitions, 0) << "seed " << seed;
  EXPECT_EQ(r.recoveries_completed, r.node_crashes) << "seed " << seed;
}

class ChaosCampaignTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosCampaignTest, SurvivesSeed) {
  const uint64_t seed = GetParam();
  ChaosCampaignResult r = RunChaosCampaign(CampaignConfig(seed));

  // The schedule itself must meet the campaign floor: at least 5 faults,
  // at least one total node crash (so ROLLFORWARD + negotiation run).
  EXPECT_GE(r.schedule.faults.size(), 5u) << "seed " << seed;
  EXPECT_GE(r.node_crashes, 1u) << "seed " << seed;
  EXPECT_GE(r.faults_fired, r.schedule.faults.size()) << "seed " << seed;

  // The workload must have actually exercised the system.
  EXPECT_GT(r.txns_started, 0u) << "seed " << seed;
  EXPECT_GT(r.txns_committed, 0u) << "seed " << seed;

  ExpectSurvived(r, seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosCampaignTest,
                         ::testing::Range<uint64_t>(1, 21));

// A failing (or any) seed replays deterministically from its dumped
// schedule: Dump -> Parse round-trips exactly, and the replayed campaign
// reproduces the original run event for event.
TEST(ChaosReplayTest, DumpedScheduleReplaysDeterministically) {
  ChaosCampaignConfig cfg = CampaignConfig(42);
  ChaosCampaignResult first = RunChaosCampaign(cfg);

  sim::FaultSchedule parsed;
  ASSERT_TRUE(sim::FaultSchedule::Parse(first.schedule_dump, &parsed));
  ASSERT_EQ(parsed.faults.size(), first.schedule.faults.size());
  EXPECT_EQ(parsed.seed, first.schedule.seed);
  for (size_t i = 0; i < parsed.faults.size(); ++i) {
    EXPECT_TRUE(parsed.faults[i] == first.schedule.faults[i]) << "fault " << i;
  }

  ChaosCampaignResult replay = ReplayChaosCampaign(cfg, parsed);
  EXPECT_EQ(replay.txns_started, first.txns_started);
  EXPECT_EQ(replay.txns_committed, first.txns_committed);
  EXPECT_EQ(replay.txns_aborted, first.txns_aborted);
  EXPECT_EQ(replay.txns_unknown, first.txns_unknown);
  EXPECT_EQ(replay.balance_sum, first.balance_sum);
  EXPECT_EQ(replay.recoveries_completed, first.recoveries_completed);
  EXPECT_EQ(replay.journal, first.journal);
}

// The same storm on the parallel engine: every PDES worker count yields the
// same history — journal, transaction counts, balances — and survives the
// same invariants. The per-node PRNG streams and key-ordered journal are
// what make this hold; a regression in either shows up as a diff here.
TEST(ChaosParallelTest, SameSeedSameStormAtAnyWorkerCount) {
  ChaosCampaignConfig cfg = CampaignConfig(7);
  cfg.parallel_workers = 1;
  ChaosCampaignResult oracle = RunChaosCampaign(cfg);
  ExpectSurvived(oracle, 7);
  for (int workers : {2, 4}) {
    cfg.parallel_workers = workers;
    ChaosCampaignResult r = RunChaosCampaign(cfg);
    EXPECT_EQ(r.journal, oracle.journal) << "workers=" << workers;
    EXPECT_EQ(r.txns_started, oracle.txns_started) << "workers=" << workers;
    EXPECT_EQ(r.txns_committed, oracle.txns_committed)
        << "workers=" << workers;
    EXPECT_EQ(r.txns_aborted, oracle.txns_aborted) << "workers=" << workers;
    EXPECT_EQ(r.txns_unknown, oracle.txns_unknown) << "workers=" << workers;
    EXPECT_EQ(r.balance_sum, oracle.balance_sum) << "workers=" << workers;
    EXPECT_EQ(r.recoveries_completed, oracle.recoveries_completed)
        << "workers=" << workers;
    EXPECT_EQ(r.faults_fired, oracle.faults_fired) << "workers=" << workers;
    EXPECT_EQ(r.stats_dump, oracle.stats_dump) << "workers=" << workers;
    // The message ledger sits outside the Stats dump.
    EXPECT_EQ(r.tracked_messages, oracle.tracked_messages)
        << "workers=" << workers;
    EXPECT_EQ(r.msgs_per_tag, oracle.msgs_per_tag) << "workers=" << workers;
  }
}

// Engine identity beyond the 3-node golden: the no-fault campaign at 3 and
// 16 nodes, 8 clients each, must produce byte-equal full Stats dumps at
// every worker count — every counter and histogram, not a coarse
// fingerprint — and the same network message ledger.
TEST(ChaosParallelTest, NoFaultCampaignStatsIdenticalAtAnyWorkerCount) {
  for (int nodes : {3, 16}) {
    ChaosCampaignConfig cfg;
    cfg.seed = 1;
    cfg.nodes = nodes;
    cfg.accounts_per_node = 20;
    cfg.clients_per_node = 8;
    cfg.schedule.faults = 0;
    cfg.schedule.min_node_crashes = 0;
    ChaosCampaignResult oracle = RunChaosCampaign(cfg);
    EXPECT_TRUE(oracle.quiesced) << nodes << " nodes";
    EXPECT_TRUE(oracle.violations.empty()) << nodes << " nodes";
    EXPECT_GT(oracle.txns_committed, 0u) << nodes << " nodes";
    ASSERT_FALSE(oracle.stats_dump.empty());
    EXPECT_GT(oracle.tracked_messages, 0u) << nodes << " nodes";
    EXPECT_FALSE(oracle.msgs_per_tag.empty()) << nodes << " nodes";
    for (int workers : {2, 4}) {
      cfg.parallel_workers = workers;
      ChaosCampaignResult r = RunChaosCampaign(cfg);
      EXPECT_EQ(r.stats_dump, oracle.stats_dump)
          << nodes << " nodes, workers=" << workers;
      EXPECT_EQ(r.journal, oracle.journal)
          << nodes << " nodes, workers=" << workers;
      EXPECT_EQ(r.tracked_messages, oracle.tracked_messages)
          << nodes << " nodes, workers=" << workers;
      EXPECT_EQ(r.msgs_per_tag, oracle.msgs_per_tag)
          << nodes << " nodes, workers=" << workers;
    }
  }
}

// Regression: storm seed 242 (3 nodes x 2 clients, 10 faults, two or more
// node crashes, 2-4 s heals, 250 ms in-doubt probing). A transaction read
// account 30 under lock on node 2, node 2 crashed and lost the lock, and
// after recovery the transaction's retried update parked behind a newer
// transaction's lock. The abort from the home arrived while it waited;
// backout found nothing to undo, then the lock passed to the aborting
// transaction and its stale write landed: balance sum 59986, not 60000.
class ChaosLostUpdateTest : public ::testing::TestWithParam<int> {};

TEST_P(ChaosLostUpdateTest, CrashedParticipantLeavesNoStrayWrite) {
  ChaosCampaignConfig cfg;
  cfg.seed = 242;
  cfg.nodes = 3;
  cfg.accounts_per_node = 20;
  cfg.clients_per_node = 2;
  cfg.schedule.faults = 10;
  cfg.schedule.min_node_crashes = 2;
  cfg.schedule.w_crash = 1.5;
  cfg.schedule.min_heal = 2'000'000;
  cfg.schedule.max_heal = 4'000'000;
  cfg.schedule.crash_recovery_pad = 4'000'000;
  cfg.indoubt_resolve_interval = Millis(250);
  cfg.parallel_workers = GetParam();
  ChaosCampaignResult r = RunChaosCampaign(cfg);
  EXPECT_GE(r.node_crashes, 2u);
  ExpectSurvived(r, cfg.seed);
}

INSTANTIATE_TEST_SUITE_P(Workers, ChaosLostUpdateTest,
                         ::testing::Values(1, 2, 4));

// The same storm with every node on the queue execution lane: clients
// submit whole predeclared transactions to $QPLAN instead of running the
// lock-lane verb sequence. A queue-lane commit is a normal TMF commit, so
// the atomicity oracle, balance conservation, leak checks, and ROLLFORWARD
// floor all hold unchanged.
TEST(ChaosQueueLaneTest, QueueLaneStormHoldsOracle) {
  ChaosCampaignConfig cfg = CampaignConfig(9);
  cfg.queue_lane = true;
  ChaosCampaignResult r = RunChaosCampaign(cfg);
  EXPECT_GE(r.node_crashes, 1u);
  EXPECT_GT(r.txns_started, 0u);
  EXPECT_GT(r.txns_committed, 0u);
  ExpectSurvived(r, 9);
}

// The generator's structural guarantees hold for many seeds: every fault
// heals, heavy faults never overlap, and the crash floor is honored.
TEST(FaultScheduleTest, StructuralGuaranteesAcrossSeeds) {
  sim::FaultScheduleConfig cfg;
  cfg.nodes = 3;
  cfg.faults = 10;
  cfg.min_node_crashes = 2;
  sim::FaultScheduleGenerator gen(cfg);
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    sim::FaultSchedule s = gen.Generate(seed);
    EXPECT_EQ(s.faults.size(), 10u);
    EXPECT_GE(s.CountOf(sim::FaultClass::kNodeCrash), 2u);
    SimTime heavy_free = 0;
    for (const auto& f : s.faults) {
      EXPECT_GT(f.heal_after, 0) << "seed " << seed;  // everything heals
      if (f.fault == sim::FaultClass::kNodeCrash ||
          f.fault == sim::FaultClass::kPartition) {
        EXPECT_GE(f.at, heavy_free) << "seed " << seed;
        heavy_free = f.at + f.heal_after;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Satellite: partition between phase 1 and phase 2 of a distributed commit,
// convergence asserted through the oracle.
// ---------------------------------------------------------------------------

TEST(ChaosOracleTest, PartitionBetweenPhasesConvergesAfterHeal) {
  sim::Simulation sim(7);
  Deployment deploy(&sim);
  for (int n = 1; n <= 2; ++n) {
    NodeSpec spec;
    spec.id = static_cast<net::NodeId>(n);
    std::string vol = "$DATA" + std::to_string(n);
    spec.volumes = {VolumeSpec{
        vol, {FileSpec{"mark" + std::to_string(n)}}, {}}};
    deploy.AddNode(spec);
  }
  deploy.LinkAll();
  ASSERT_TRUE(deploy.DefineFile("mark1", 1, "$DATA1").ok());
  ASSERT_TRUE(deploy.DefineFile("mark2", 2, "$DATA2").ok());

  auto* client = deploy.GetNode(1)->node()->Spawn<TestClient>(2);
  tmf::FileSystem fs(client, &deploy.catalog());
  sim.Run();

  // Begin, write the marker on both nodes.
  auto* b = client->CallRaw(net::Address(1, "$TMP"), tmf::kTmfBegin, {});
  sim.Run();
  ASSERT_TRUE(b->done && b->status.ok());
  uint64_t t = tmf::DecodeTransidPayload(Slice(b->payload))->Pack();

  AtomicityOracle oracle;
  oracle.RegisterIntent(t, "m1",
                        {{1, "$DATA1", "mark1"}, {2, "$DATA2", "mark2"}});

  auto insert = [&](const std::string& file) {
    bool done = false;
    Status st;
    client->set_current_transid(t);
    fs.Insert(file, Slice(std::string("m1")), Slice(std::string("x")),
              [&](const Status& s, const Bytes&) {
                st = s;
                done = true;
              });
    client->set_current_transid(0);
    sim.Run();
    EXPECT_TRUE(done);
    return st;
  };
  ASSERT_TRUE(insert("mark1").ok());
  ASSERT_TRUE(insert("mark2").ok());

  // END; cut the link the instant the commit record hits the home MAT —
  // after phase 1 (node 2 is prepared, in doubt) and before its phase 2.
  auto* e = client->CallRaw(net::Address(1, "$TMP"), tmf::kTmfEnd,
                            tmf::EncodeTransidPayload(Transid::Unpack(t)), t);
  for (int i = 0;
       i < 2000 &&
       deploy.GetNode(1)->storage().monitor_trail.Lookup(Transid::Unpack(t)) != 1;
       ++i) {
    sim.RunFor(Micros(500));
  }
  ASSERT_EQ(deploy.GetNode(1)->storage().monitor_trail.Lookup(Transid::Unpack(t)), 1);
  deploy.cluster().CutLink(1, 2);
  sim.RunFor(Seconds(1));

  // Home committed; the participant side is partitioned away in doubt.
  ASSERT_TRUE(e->done);
  ASSERT_TRUE(e->status.ok());
  oracle.RecordOutcome(t, AtomicityOracle::Outcome::kCommitted);
  EXPECT_GT(deploy.GetNode(2)->disc("$DATA2")->locks().held_count(), 0u);
  EXPECT_GT(deploy.GetNode(1)->tmp()->PendingSafeDeliveries(), 0u);

  // Heal; safe delivery finishes phase 2 and both sides converge.
  deploy.cluster().RestoreLink(1, 2);
  sim.RunFor(Seconds(5));

  auto violations = oracle.Check(&deploy);
  for (const auto& v : violations) {
    ADD_FAILURE() << "txn " << v.transid << ": " << v.detail;
  }
  EXPECT_EQ(deploy.GetNode(2)->disc("$DATA2")->locks().held_count(), 0u);
  EXPECT_EQ(deploy.GetNode(1)->tmp()->PendingSafeDeliveries(), 0u);
  EXPECT_EQ(deploy.GetNode(2)->storage().monitor_trail.Lookup(Transid::Unpack(t)), 1);
}

// Same window, but the partitioned participant then loses the whole node:
// its volatile marker insert is gone, and only ROLLFORWARD + negotiation
// with the home TMP can restore the committed write. The oracle must still
// see the marker on both volumes afterwards.
TEST(ChaosOracleTest, CrashedInDoubtParticipantRecoversCommittedWrite) {
  sim::Simulation sim(11);
  Deployment deploy(&sim);
  for (int n = 1; n <= 2; ++n) {
    NodeSpec spec;
    spec.id = static_cast<net::NodeId>(n);
    std::string vol = "$DATA" + std::to_string(n);
    spec.volumes = {VolumeSpec{
        vol, {FileSpec{"mark" + std::to_string(n)}}, {}}};
    deploy.AddNode(spec);
  }
  deploy.LinkAll();
  ASSERT_TRUE(deploy.DefineFile("mark1", 1, "$DATA1").ok());
  ASSERT_TRUE(deploy.DefineFile("mark2", 2, "$DATA2").ok());
  deploy.GetNode(1)->ArchiveVolumes();
  deploy.GetNode(2)->ArchiveVolumes();

  auto* client = deploy.GetNode(1)->node()->Spawn<TestClient>(2);
  tmf::FileSystem fs(client, &deploy.catalog());
  sim.Run();

  auto* b = client->CallRaw(net::Address(1, "$TMP"), tmf::kTmfBegin, {});
  sim.Run();
  ASSERT_TRUE(b->done && b->status.ok());
  uint64_t t = tmf::DecodeTransidPayload(Slice(b->payload))->Pack();

  AtomicityOracle oracle;
  oracle.RegisterIntent(t, "m1",
                        {{1, "$DATA1", "mark1"}, {2, "$DATA2", "mark2"}});

  auto insert = [&](const std::string& file) {
    bool done = false;
    Status st;
    client->set_current_transid(t);
    fs.Insert(file, Slice(std::string("m1")), Slice(std::string("x")),
              [&](const Status& s, const Bytes&) {
                st = s;
                done = true;
              });
    client->set_current_transid(0);
    sim.Run();
    EXPECT_TRUE(done);
    return st;
  };
  ASSERT_TRUE(insert("mark1").ok());
  ASSERT_TRUE(insert("mark2").ok());

  auto* e = client->CallRaw(net::Address(1, "$TMP"), tmf::kTmfEnd,
                            tmf::EncodeTransidPayload(Transid::Unpack(t)), t);
  for (int i = 0;
       i < 2000 &&
       deploy.GetNode(1)->storage().monitor_trail.Lookup(Transid::Unpack(t)) != 1;
       ++i) {
    sim.RunFor(Micros(500));
  }
  deploy.cluster().CutLink(1, 2);
  sim.RunFor(Seconds(1));
  ASSERT_TRUE(e->done && e->status.ok());
  oracle.RecordOutcome(t, AtomicityOracle::Outcome::kCommitted);

  // Total failure of the in-doubt participant: volatile state (including
  // the unforced marker insert... but NOT its phase-1-forced after-image)
  // is lost.
  deploy.CrashNode(2);
  sim.RunFor(Seconds(1));

  bool recovered = false;
  deploy.RecoverNode(2, [&](const std::vector<tmf::RollforwardReport>&) {
    recovered = true;
  });
  sim.RunFor(Seconds(10));
  ASSERT_TRUE(recovered);

  auto violations = oracle.Check(&deploy);
  for (const auto& v : violations) {
    ADD_FAILURE() << "txn " << v.transid << ": " << v.detail;
  }
  EXPECT_EQ(deploy.GetNode(2)->storage().monitor_trail.Lookup(Transid::Unpack(t)), 1);
}

}  // namespace
}  // namespace encompass::app
