#include "net/network.h"

#include <algorithm>
#include <cassert>
#include <memory>

#include "common/logging.h"

namespace encompass::net {

Network::Metrics::Metrics(sim::Stats& stats)
    : sent(stats.RegisterCounter("net.sent")),
      delivered(stats.RegisterCounter("net.delivered")),
      retransmits(stats.RegisterCounter("net.retransmits")),
      undeliverable(stats.RegisterCounter("net.undeliverable")),
      link_cut(stats.RegisterCounter("net.link_cut")),
      link_restored(stats.RegisterCounter("net.link_restored")),
      node_isolated(stats.RegisterCounter("net.node_isolated")),
      node_reconnected(stats.RegisterCounter("net.node_reconnected")),
      route_cache_hits(stats.RegisterCounter("net.route_cache_hits")),
      route_cache_misses(stats.RegisterCounter("net.route_cache_misses")),
      route_hops(stats.RegisterHistogram("net.route_hops")) {}

void Network::AddNode(NodeId id, DeliverFn deliver) {
  assert(deliver);
  if (id >= nodes_.size()) nodes_.resize(id + 1);
  nodes_[id] = std::move(deliver);
  sim_->EnsureNode(id);  // the node's event loop exists before any traffic
  // Pre-create the per-source routing table: after setup the table vector
  // is frozen, so node events (possibly on worker threads) only ever touch
  // their own node's table.
  // Likewise the message ledgers: each is written only by its own node.
  if (id >= route_tables_.size()) route_tables_.resize(id + 1);
  if (id >= ledgers_.size()) ledgers_.resize(id + 1);
  ++topology_version_;
}

void Network::AddLink(NodeId a, NodeId b, SimDuration latency) {
  assert(Known(a) && Known(b) && a != b);
  const SimDuration l = latency > 0 ? latency : config_.link_latency;
  links_[Key(a, b)] = Link{l, true};
  // Feed the conservative engine's per-pair lookahead table: no cross-node
  // interaction between two nodes can take effect sooner than the least
  // declared-link path between them.
  sim_->NoteLinkLatency(a, b, l);
  ++topology_version_;
}

void Network::SetLinkUp(NodeId a, NodeId b, bool up) {
  auto it = links_.find(Key(a, b));
  if (it == links_.end() || it->second.up == up) return;
  auto before = ReachableSets();
  it->second.up = up;
  ++topology_version_;
  sim_->GetStats().Incr(up ? metrics_.link_restored : metrics_.link_cut);
  NotifyReachabilityChanges(before);
}

void Network::IsolateNode(NodeId id) {
  auto before = ReachableSets();
  bool changed = false;
  for (auto& [key, link] : links_) {
    if ((key.a == id || key.b == id) && link.up) {
      link.up = false;
      changed = true;
    }
  }
  if (changed) {
    ++topology_version_;
    sim_->GetStats().Incr(metrics_.node_isolated);
    NotifyReachabilityChanges(before);
  }
}

void Network::ReconnectNode(NodeId id) {
  auto before = ReachableSets();
  bool changed = false;
  for (auto& [key, link] : links_) {
    if ((key.a == id || key.b == id) && !link.up) {
      link.up = true;
      changed = true;
    }
  }
  if (changed) {
    ++topology_version_;
    sim_->GetStats().Incr(metrics_.node_reconnected);
    NotifyReachabilityChanges(before);
  }
}

bool Network::LinkUp(NodeId a, NodeId b) const {
  auto it = links_.find(Key(a, b));
  return it != links_.end() && it->second.up;
}

bool Network::Reachable(NodeId from, NodeId to) const {
  if (!Known(from) || !Known(to)) return false;
  return from == to || TableFor(from).reached[to];
}

const Network::RouteTable& Network::TableFor(NodeId from) const {
  assert(Known(from));
  RouteTable& table = route_tables_[from];
  if (table.version == topology_version_) {
    sim_->GetStats().Incr(metrics_.route_cache_hits);
    return table;
  }
  sim_->GetStats().Incr(metrics_.route_cache_misses);
  // Full BFS over up links builds the min-hop parent forest rooted at `from`;
  // ties break toward smaller node ids because links_ is an ordered map —
  // deterministic routing. Parents are assigned at first discovery, so the
  // forest yields the same paths a per-query BFS would. Each node's path
  // latency and hop count extend its parent's along the discovering link.
  const size_t n = nodes_.size();
  table.reached.assign(n, 0);
  table.parent.assign(n, from);
  table.latency.assign(n, 0);
  table.hops.assign(n, 0);
  table.reached[from] = 1;
  std::vector<NodeId> frontier{from};
  for (size_t head = 0; head < frontier.size(); ++head) {
    const NodeId cur = frontier[head];
    for (const auto& [key, link] : links_) {
      if (!link.up) continue;
      NodeId next;
      if (key.a == cur) next = key.b;
      else if (key.b == cur) next = key.a;
      else continue;
      if (table.reached[next]) continue;
      table.reached[next] = 1;
      table.parent[next] = cur;
      table.latency[next] = table.latency[cur] + link.latency;
      table.hops[next] = static_cast<uint16_t>(table.hops[cur] + 1);
      frontier.push_back(next);
    }
  }
  table.version = topology_version_;
  return table;
}

std::vector<NodeId> Network::Route(NodeId from, NodeId to) const {
  if (!Known(from) || !Known(to)) return {};
  if (from == to) return {from};
  const RouteTable& table = TableFor(from);
  if (!table.reached[to]) return {};
  std::vector<NodeId> path(table.hops[to] + 1);
  NodeId n = to;
  for (size_t i = path.size(); i-- > 0; n = table.parent[n]) path[i] = n;
  return path;
}

void Network::Send(Message msg) {
  sim_->GetStats().Incr(metrics_.sent);
  CountSend(msg);
  Transmit(std::move(msg), 0);
}

// Counted here, at first send, and never in Transmit: the ledger prices the
// protocol's message complexity, not the loss schedule.
void Network::CountSend(const Message& msg) {
  const NodeId src = msg.src.node;
  if (src == msg.dst.node || src >= ledgers_.size()) return;
  Ledger& ledger = ledgers_[src];
  if (msg.transid != 0 || msg.trace.transid != 0) ++ledger.txn_msgs;
  auto& tags = ledger.per_tag;
  auto it = std::lower_bound(tags.begin(), tags.end(),
                             std::pair<uint32_t, uint64_t>{msg.tag, 0});
  if (it == tags.end() || it->first != msg.tag) it = tags.insert(it, {msg.tag, 0});
  ++it->second;
}

uint64_t Network::TxnMessages() const {
  uint64_t total = 0;
  for (const Ledger& ledger : ledgers_) total += ledger.txn_msgs;
  return total;
}

std::map<uint32_t, uint64_t> Network::PerTagMessages() const {
  std::map<uint32_t, uint64_t> total;
  for (const Ledger& ledger : ledgers_) {
    for (const auto& [tag, count] : ledger.per_tag) total[tag] += count;
  }
  return total;
}

void Network::Transmit(Message msg, int attempt) {
  // Transmit always runs at the source node: the loss draw comes from the
  // source's PRNG stream and retries are source-local timers, so a message's
  // fate depends only on source-local state (plus the shared topology).
  // One routing-table lookup gives both reachability and the path latency
  // (the same lookups, and route-cache counts, as Route()).
  const NodeId src = msg.src.node;
  const NodeId dst = msg.dst.node;
  const bool known = Known(src) && Known(dst);
  const RouteTable* table = known && src != dst ? &TableFor(src) : nullptr;
  const bool routed = known && (table == nullptr || table->reached[dst]);
  if (!routed ||
      (config_.loss_probability > 0 &&
       sim_->RngFor(src).Bernoulli(config_.loss_probability))) {
    // No route now (or the transmission was lost): the end-to-end protocol
    // retries with pacing; after max_retries the sender is notified.
    if (attempt >= config_.max_retries) {
      sim_->GetStats().Incr(metrics_.undeliverable);
      if (msg.request_id != 0) {
        Message fail;
        fail.src = ProcessId{msg.dst.node, 0};
        fail.dst = Address(msg.src);
        fail.tag = kTagSendFailed;
        fail.reply_to = msg.request_id;
        fail.status = Status::Code::kPartitioned;
        if (Known(src)) {
          // Local notification at the sender's node: no network traversal.
          sim_->After(Micros(1), [deliver = nodes_[src], fail]() { deliver(fail); });
        }
      }
      return;
    }
    sim_->GetStats().Incr(metrics_.retransmits);
    sim_->After(config_.retry_interval,
                [this, msg = std::move(msg), attempt]() mutable {
                  Transmit(std::move(msg), attempt + 1);
                });
    return;
  }

  const SimDuration latency = table != nullptr ? table->latency[dst] : 0;
  const int64_t hops = table != nullptr ? table->hops[dst] : 0;
  sim_->GetStats().Record(metrics_.route_hops, hops);

  // End-to-end verification is split between the two endpoints so that each
  // side only touches its own node's state:
  //   * the packet itself is delivered at the destination iff the topology
  //     still connects the endpoints at arrival time (checked against the
  //     destination's routing table — reachability is symmetric);
  //   * a source-local probe fires at the same instant and, if the path is
  //     gone, treats the attempt as failed and drives the retransmit (the
  //     pre-split code ran this retransmit logic at the destination).
  // Both events see the same topology version: topology mutations at the
  // same timestamp are global events that order before node events. So
  // exactly one of them consumes the message, and it is moved once into a
  // cell both share. Each reads the cell only when it owns the message; the
  // endpoints are captured by value for the reachability checks.
  auto cell = std::make_shared<Message>(std::move(msg));
  sim_->PostToNode(dst, latency, [this, cell, src, dst]() {
    if (!Reachable(dst, src)) return;  // dead packet: the probe resends it
    sim_->GetStats().Incr(metrics_.delivered);
    nodes_[dst](std::move(*cell));
  });
  sim_->After(latency, [this, cell = std::move(cell), src, dst, attempt]() {
    if (Reachable(src, dst)) return;  // delivered
    Transmit(std::move(*cell), attempt + 1);
  });
}

std::map<NodeId, std::set<NodeId>> Network::ReachableSets() const {
  std::map<NodeId, std::set<NodeId>> result;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    for (NodeId other = 0; other < nodes_.size(); ++other) {
      if (id != other && Reachable(id, other)) result[id].insert(other);
    }
  }
  return result;
}

void Network::NotifyReachabilityChanges(
    const std::map<NodeId, std::set<NodeId>>& before) {
  if (!reachability_fn_) return;
  auto after = ReachableSets();
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (!Known(id)) continue;
    const auto& was = before.count(id) ? before.at(id) : std::set<NodeId>{};
    const auto& now = after.count(id) ? after.at(id) : std::set<NodeId>{};
    for (NodeId peer : was) {
      if (!now.count(peer)) reachability_fn_(id, peer, false);
    }
    for (NodeId peer : now) {
      if (!was.count(peer)) reachability_fn_(id, peer, true);
    }
  }
}

}  // namespace encompass::net
