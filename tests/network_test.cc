// Unit tests for the Network layer: routing determinism, reachability
// computation under link changes, isolate/reconnect, delivery and
// retransmission behaviour, and undeliverable notification.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "net/network.h"

namespace encompass::net {
namespace {

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : sim_(17), network_(&sim_) {}

  /// Adds `n` nodes (1..n) whose deliveries are recorded per node.
  void AddNodes(int n) {
    delivered_.resize(n + 1);
    for (int i = 1; i <= n; ++i) {
      NodeId id = static_cast<NodeId>(i);
      network_.AddNode(id, [this, id](Message msg) {
        delivered_[id].push_back(std::move(msg));
      });
    }
  }

  Message Make(NodeId from, NodeId to, uint64_t request_id = 0) {
    Message msg;
    msg.src = ProcessId{from, 1};
    msg.dst = Address(ProcessId{to, 1});
    msg.tag = kTagApp;
    msg.request_id = request_id;
    return msg;
  }

  sim::Simulation sim_;
  Network network_;
  std::vector<std::vector<Message>> delivered_;
};

TEST_F(NetworkTest, MinHopRouting) {
  AddNodes(4);
  // Square: 1-2, 2-3, 3-4, 4-1 plus diagonal 1-3.
  network_.AddLink(1, 2);
  network_.AddLink(2, 3);
  network_.AddLink(3, 4);
  network_.AddLink(4, 1);
  network_.AddLink(1, 3);
  EXPECT_EQ(network_.Route(1, 3).size(), 2u);  // direct via diagonal
  network_.SetLinkUp(1, 3, false);
  EXPECT_EQ(network_.Route(1, 3).size(), 3u);  // around the square
  network_.SetLinkUp(1, 2, false);
  auto route = network_.Route(1, 3);
  ASSERT_EQ(route.size(), 3u);  // 1-4-3 is the only path left
  EXPECT_EQ(route[1], 4);
}

TEST_F(NetworkTest, RoutingIsDeterministic) {
  AddNodes(4);
  network_.AddLink(1, 2);
  network_.AddLink(1, 3);
  network_.AddLink(2, 4);
  network_.AddLink(3, 4);
  auto r1 = network_.Route(1, 4);
  auto r2 = network_.Route(1, 4);
  EXPECT_EQ(r1, r2);
  ASSERT_EQ(r1.size(), 3u);
  EXPECT_EQ(r1[1], 2u);  // ordered link map breaks the tie toward node 2
}

TEST_F(NetworkTest, ReachabilityEventsFireOncePerTransition) {
  AddNodes(3);
  network_.AddLink(1, 2);
  network_.AddLink(2, 3);
  std::vector<std::string> events;
  network_.SetReachabilityListener([&](NodeId obs, NodeId peer, bool up) {
    events.push_back(std::to_string(obs) + (up ? "+" : "-") +
                     std::to_string(peer));
  });
  network_.SetLinkUp(2, 3, false);
  // Node 3 lost both 1 and 2; nodes 1 and 2 each lost 3.
  EXPECT_EQ(events.size(), 4u);
  events.clear();
  network_.SetLinkUp(2, 3, false);  // already down: no events
  EXPECT_TRUE(events.empty());
  network_.SetLinkUp(2, 3, true);
  EXPECT_EQ(events.size(), 4u);
}

TEST_F(NetworkTest, IsolateAndReconnect) {
  AddNodes(3);
  network_.AddLink(1, 2);
  network_.AddLink(1, 3);
  network_.AddLink(2, 3);
  network_.IsolateNode(3);
  EXPECT_FALSE(network_.Reachable(1, 3));
  EXPECT_FALSE(network_.Reachable(2, 3));
  EXPECT_TRUE(network_.Reachable(1, 2));
  network_.ReconnectNode(3);
  EXPECT_TRUE(network_.Reachable(1, 3));
}

TEST_F(NetworkTest, DeliversAcrossMultipleHops) {
  AddNodes(3);
  network_.AddLink(1, 2);
  network_.AddLink(2, 3);
  network_.Send(Make(1, 3));
  sim_.Run();
  ASSERT_EQ(delivered_[3].size(), 1u);
  EXPECT_EQ(delivered_[3][0].src.node, 1);
}

TEST_F(NetworkTest, UndeliverableRequestNotifiesSender) {
  AddNodes(2);
  network_.AddLink(1, 2);
  network_.SetLinkUp(1, 2, false);
  network_.Send(Make(1, 2, /*request_id=*/42));
  sim_.Run();
  EXPECT_TRUE(delivered_[2].empty());
  ASSERT_EQ(delivered_[1].size(), 1u);  // send-failed notice
  EXPECT_EQ(delivered_[1][0].tag, kTagSendFailed);
  EXPECT_EQ(delivered_[1][0].reply_to, 42u);
  EXPECT_EQ(delivered_[1][0].status, Status::Code::kPartitioned);
  EXPECT_GT(sim_.GetStats().Counter("net.undeliverable"), 0);
}

TEST_F(NetworkTest, OneWayUndeliverableIsDroppedSilently) {
  AddNodes(2);
  network_.AddLink(1, 2);
  network_.SetLinkUp(1, 2, false);
  network_.Send(Make(1, 2, /*request_id=*/0));
  sim_.Run();
  EXPECT_TRUE(delivered_[1].empty());
  EXPECT_TRUE(delivered_[2].empty());
}

TEST_F(NetworkTest, TransientFlapHealedByRetransmission) {
  AddNodes(2);
  network_.AddLink(1, 2);
  network_.SetLinkUp(1, 2, false);
  network_.Send(Make(1, 2, 7));
  // Restore before the retry budget runs out.
  sim_.After(Millis(120), [this] { network_.SetLinkUp(1, 2, true); });
  sim_.Run();
  ASSERT_EQ(delivered_[2].size(), 1u);
  EXPECT_GT(sim_.GetStats().Counter("net.retransmits"), 0);
}

TEST_F(NetworkTest, LossyLinkEventuallyDelivers) {
  NetworkConfig cfg;
  cfg.loss_probability = 0.5;
  sim::Simulation sim(23);
  Network net(&sim, cfg);
  int got = 0;
  net.AddNode(1, [](Message) {});
  net.AddNode(2, [&got](Message) { ++got; });
  net.AddLink(1, 2);
  for (int i = 0; i < 50; ++i) {
    Message msg;
    msg.src = ProcessId{1, 1};
    msg.dst = Address(ProcessId{2, 1});
    msg.request_id = static_cast<uint64_t>(i + 1);
    net.Send(std::move(msg));
  }
  sim.Run();
  // With 6 retries at 50% loss, effectively everything arrives.
  EXPECT_GE(got, 49);
}

TEST_F(NetworkTest, PerLinkLatencyHonoured) {
  AddNodes(2);
  network_.AddLink(1, 2, Millis(42));
  network_.Send(Make(1, 2));
  SimTime before = sim_.Now();
  sim_.Run();
  EXPECT_EQ(sim_.Now() - before, Millis(42));
}

TEST_F(NetworkTest, MultiHopArrivalIsSumOfRouteLatencies) {
  AddNodes(6);
  // Two three-hop paths from 1 to 4 with unequal per-link latencies; the
  // ordered link map picks 1-2-3-4.
  const std::map<std::pair<NodeId, NodeId>, SimDuration> latency = {
      {{1, 2}, Millis(7)}, {{2, 3}, Millis(19)}, {{3, 4}, Micros(3250)},
      {{1, 5}, Millis(2)}, {{5, 6}, Millis(2)},  {{4, 6}, Millis(2)}};
  for (const auto& [link, l] : latency) network_.AddLink(link.first, link.second, l);
  const std::vector<NodeId> route = network_.Route(1, 4);
  ASSERT_EQ(route, (std::vector<NodeId>{1, 2, 3, 4}));
  SimDuration expected = 0;
  for (size_t i = 0; i + 1 < route.size(); ++i) {
    expected += latency.at(std::minmax(route[i], route[i + 1]));
  }

  const SimTime sent = sim_.Now();
  network_.Send(Make(1, 4));
  sim_.Run();  // the last events are the delivery and its source probe
  ASSERT_EQ(delivered_[4].size(), 1u);
  EXPECT_EQ(sim_.Now() - sent, expected);
}

// A link cut that lands exactly at a message's arrival instant: topology
// events order before node events at the same time, so the delivery finds
// the packet dead and the source probe retransmits it. The in-flight
// message, shared by the two events, must be consumed exactly once.
TEST(NetworkCutTest, CutAtArrivalRetransmitsOnceAndDeliversOnce) {
  for (int workers : {1, 2}) {
    sim::Simulation sim(5, workers);
    Network net(&sim);
    std::vector<Message> got;
    net.AddNode(1, [](Message) {});
    net.AddNode(2, [&got](Message msg) { got.push_back(std::move(msg)); });
    net.AddLink(1, 2, Millis(15));
    sim.At(Millis(15), [&net] { net.SetLinkUp(1, 2, false); });
    sim.At(Millis(40), [&net] { net.SetLinkUp(1, 2, true); });
    sim.AfterOn(1, 0, [&net] {
      Message msg;
      msg.src = ProcessId{1, 1};
      msg.dst = Address(ProcessId{2, 1});
      msg.tag = kTagApp;
      msg.request_id = 9;
      msg.payload = Bytes(100, 'x');
      net.Send(std::move(msg));
    });
    sim.Run();
    ASSERT_EQ(got.size(), 1u) << "workers " << workers;
    EXPECT_EQ(got[0].request_id, 9u);
    EXPECT_EQ(got[0].payload, Bytes(100, 'x'));
    EXPECT_EQ(sim.GetStats().Counter("net.retransmits"), 1);
    EXPECT_EQ(sim.GetStats().Counter("net.delivered"), 1);
    EXPECT_EQ(sim.GetStats().Counter("net.undeliverable"), 0);
    // Cut at 15 ms, retransmit 50 ms later, one more 15 ms hop.
    EXPECT_EQ(sim.Now(), Millis(80));
  }
}

// Reference implementation for the route-cache tests: a fresh breadth-first
// search per query over the same deterministic link order the Network uses.
std::vector<NodeId> ReferenceBfs(std::vector<std::pair<NodeId, NodeId>> up_links,
                                 NodeId from, NodeId to) {
  if (from == to) return {from};
  // Match the Network's deterministic tie-break: links are visited in the
  // order of its normalized (min, max) ordered link map.
  for (auto& [a, b] : up_links) {
    if (a > b) std::swap(a, b);
  }
  std::sort(up_links.begin(), up_links.end());
  std::map<NodeId, NodeId> parent;
  std::deque<NodeId> frontier{from};
  parent[from] = from;
  while (!frontier.empty()) {
    NodeId cur = frontier.front();
    frontier.pop_front();
    for (const auto& [a, b] : up_links) {
      NodeId next;
      if (a == cur) next = b;
      else if (b == cur) next = a;
      else continue;
      if (parent.count(next)) continue;
      parent[next] = cur;
      frontier.push_back(next);
    }
  }
  if (!parent.count(to)) return {};
  std::vector<NodeId> path{to};
  for (NodeId n = to; n != from; n = parent[n]) path.push_back(parent[n]);
  std::reverse(path.begin(), path.end());
  return path;
}

TEST_F(NetworkTest, RouteCacheSurvivesLinkFlaps) {
  AddNodes(5);
  // Two squares sharing the 2-3 edge, plus a 1-5 long-way edge: rich enough
  // that partitions reroute rather than disconnect.
  std::vector<std::pair<NodeId, NodeId>> links = {
      {1, 2}, {2, 3}, {3, 4}, {4, 5}, {1, 5}, {2, 4}};
  for (const auto& [a, b] : links) network_.AddLink(a, b);

  auto up_links = [&](const std::set<std::pair<NodeId, NodeId>>& down) {
    std::vector<std::pair<NodeId, NodeId>> up;
    for (const auto& l : links) {
      if (!down.count(l)) up.push_back(l);
    }
    return up;
  };
  auto check_all_pairs = [&](const std::set<std::pair<NodeId, NodeId>>& down) {
    auto up = up_links(down);
    for (NodeId from = 1; from <= 5; ++from) {
      for (NodeId to = 1; to <= 5; ++to) {
        EXPECT_EQ(network_.Route(from, to), ReferenceBfs(up, from, to))
            << "route " << from << "->" << to;
        EXPECT_EQ(network_.Reachable(from, to),
                  !ReferenceBfs(up, from, to).empty());
      }
    }
  };

  check_all_pairs({});
  // Partition the 2-3 bridge mid-run, re-query everything, then flap more
  // links, heal, and re-verify: cached tables must always match a fresh BFS.
  network_.SetLinkUp(2, 3, false);
  check_all_pairs({{2, 3}});
  network_.SetLinkUp(1, 2, false);
  check_all_pairs({{2, 3}, {1, 2}});
  network_.SetLinkUp(2, 3, true);
  check_all_pairs({{1, 2}});
  network_.SetLinkUp(1, 2, true);
  check_all_pairs({});
  // Repeated queries against an unchanged topology are cache hits.
  int64_t misses_before = sim_.GetStats().Counter("net.route_cache_misses");
  for (int i = 0; i < 100; ++i) network_.Route(1, 4);
  EXPECT_EQ(sim_.GetStats().Counter("net.route_cache_misses"), misses_before);
  EXPECT_GT(sim_.GetStats().Counter("net.route_cache_hits"), 100);
}

TEST_F(NetworkTest, RouteCacheInvalidatesOnIsolateAndReconnect) {
  AddNodes(4);
  network_.AddLink(1, 2);
  network_.AddLink(2, 3);
  network_.AddLink(3, 4);
  network_.AddLink(4, 1);
  uint64_t v0 = network_.topology_version();
  ASSERT_EQ(network_.Route(1, 3).size(), 3u);  // warm the cache
  network_.IsolateNode(2);
  EXPECT_GT(network_.topology_version(), v0);
  auto route = network_.Route(1, 3);
  ASSERT_EQ(route.size(), 3u);  // re-routed around the isolated node
  EXPECT_EQ(route[1], 4);
  EXPECT_FALSE(network_.Reachable(1, 2));
  network_.ReconnectNode(2);
  EXPECT_TRUE(network_.Reachable(1, 2));
  EXPECT_EQ(network_.Route(1, 2).size(), 2u);
  // Isolating again without any change in between is a no-op: no version
  // bump, cache stays valid.
  uint64_t v1 = network_.topology_version();
  network_.ReconnectNode(2);  // already connected
  EXPECT_EQ(network_.topology_version(), v1);
}

// The message ledger is always on: every cross-node send counts once per
// tag, and once in the transaction total when it carries a transid.
TEST_F(NetworkTest, LedgerCountsCrossNodeSendsPerTagAndTransaction) {
  AddNodes(3);
  network_.AddLink(1, 2);
  network_.AddLink(2, 3);
  Message a = Make(1, 2);
  a.transid = 5;
  network_.Send(a);
  Message b = Make(1, 3);  // two hops, still one send
  b.transid = 6;
  network_.Send(b);
  Message c = Make(3, 2);  // no transaction: tag total only
  c.tag = kTagApp + 1;
  network_.Send(c);
  sim_.Run();
  EXPECT_EQ(delivered_[2].size(), 2u);
  EXPECT_EQ(delivered_[3].size(), 1u);
  EXPECT_EQ(network_.TxnMessages(), 2u);
  EXPECT_EQ(network_.PerTagMessages(),
            (std::map<uint32_t, uint64_t>{{kTagApp, 2}, {kTagApp + 1, 1}}));
}

TEST_F(NetworkTest, LedgerIgnoresSameNodeSends) {
  AddNodes(2);
  network_.AddLink(1, 2);
  Message msg = Make(1, 1);
  msg.transid = 5;
  network_.Send(msg);
  sim_.Run();
  EXPECT_EQ(delivered_[1].size(), 1u);
  EXPECT_EQ(network_.TxnMessages(), 0u);
  EXPECT_TRUE(network_.PerTagMessages().empty());
}

// Counted at first send, not per retransmit: the ledger prices a protocol's
// messages, not the loss schedule.
TEST_F(NetworkTest, LedgerCountsRetransmittedMessageOnce) {
  AddNodes(2);
  network_.AddLink(1, 2);
  network_.SetLinkUp(1, 2, false);
  Message msg = Make(1, 2, 7);
  msg.transid = 5;
  network_.Send(msg);
  sim_.After(Millis(120), [this] { network_.SetLinkUp(1, 2, true); });
  sim_.Run();
  ASSERT_EQ(delivered_[2].size(), 1u);
  EXPECT_GT(sim_.GetStats().Counter("net.retransmits"), 1);
  EXPECT_EQ(network_.TxnMessages(), 1u);
  EXPECT_EQ(network_.PerTagMessages(),
            (std::map<uint32_t, uint64_t>{{kTagApp, 1}}));
}

// A message without a transid stamp is attributed through its causal trace
// context.
TEST_F(NetworkTest, LedgerAttributesUnstampedMessageByTraceContext) {
  AddNodes(2);
  network_.AddLink(1, 2);
  Message msg = Make(1, 2);
  msg.trace.transid = 42;
  network_.Send(msg);
  sim_.Run();
  EXPECT_EQ(network_.TxnMessages(), 1u);
}

}  // namespace
}  // namespace encompass::net
