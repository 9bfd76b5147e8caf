// perfbench: the standing end-to-end benchmark of the ENCOMPASS/TMF stack.
//
//   perfbench --workload <mesh16_2pc|bank1_tcp|storm3_2pc> --seed N --seconds S
//
// One run repeats one workload, built from --seed, until --seconds of host
// time have passed (at least twice). Every repetition simulates exactly the
// same history on the single-threaded PDES engine (parallel_workers = 1), so
//   * the simulated-clock metrics come from the first repetition, and every
//     later one must reproduce its Stats dump byte for byte;
//   * the host-clock metrics are medians over the repetitions after the
//     first (the warm-up), each pass of identical work timed once per
//     repetition and scaled by a reference kernel timed just before it;
//   * set-up is timed on its own, once per deployment built.
// Every repetition checks its outputs; a failed check prints an error and no
// numbers, and the process exits non-zero.
//
// The program prints one JSON object on its last line. The traced build
// (perfbench_traced) adds per-layer self time, calls and allocations; see
// spans.h and README.md.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "apps/banking/banking.h"
#include "encompass/chaos.h"
#include "encompass/deployment.h"
#include "encompass/tcp.h"
#include "sim/simulation.h"
#include "sim/stats.h"
#include "spans.h"

namespace perfbench {
namespace {

namespace en = encompass;
using en::sim::Histogram;

// ---- clocks -----------------------------------------------------------------

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuNow() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

struct Stamp {
  double wall = 0, cpu = 0;
  static Stamp Now() { return Stamp{WallNow(), CpuNow()}; }
  Stamp operator-(const Stamp& o) const { return Stamp{wall - o.wall, cpu - o.cpu}; }
};

// ---- host-speed reference ---------------------------------------------------
//
// The host is shared. Other tenants slow the simulator down by up to 1.7x,
// for seconds at a time, so raw times of identical work differ by more than
// 20% from one run to the next. A fixed kernel of the benchmark's own -- a
// std::map churned over 65,536 keys, pointer-chasing and allocating like
// the simulator -- is timed right before each stretch of measured work. Each
// host time is divided by the kernel's time and reported at the kernel's
// nominal speed: kReferenceNominalS is its typical time on the 4-vCPU Xeon
// VM the benchmark was calibrated on. The program cannot move the kernel,
// so a faster program still reads faster.
constexpr double kReferenceNominalS = 0.004;
// Written once per kernel run, so the compiler cannot drop the kernel.
volatile uint64_t g_reference_sink = 0;

Stamp ReferenceKernel() {
  const Stamp start = Stamp::Now();
  std::map<uint32_t, uint64_t> m;
  uint32_t x = 2463534242u;  // xorshift32
  for (int i = 0; i < 20000; ++i) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    m[x & 65535] += x;
    if ((x & 3) == 0) m.erase((x >> 3) & 65535);
  }
  uint64_t digest = 0;
  for (const auto& [k, v] : m) digest += k ^ v;
  g_reference_sink = digest;
  return Stamp::Now() - start;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n == 0) return 0;
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

uint64_t Fnv1a(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// ---- what one repetition yields ----------------------------------------------

/// The simulated-clock outcome of one repetition. Identical across the
/// repetitions of a run (checked through `fingerprint`).
struct SimOutcome {
  uint64_t started = 0;    // transactions begun, restarted attempts included
  uint64_t committed = 0;  // transactions committed
  uint64_t window_commits = 0;  // commits inside the load window
  double window_sim_s = 0;      // length of the load window
  uint64_t indoubt_at_recovery = 0;
  uint64_t rollforward_redo_applied = 0;
  uint64_t events = 0;
  std::map<std::string, int64_t> counters;
  Histogram commit_latency, lock_wait, group_commit, route_hops;
  uint64_t fingerprint = 1469598103934665603ull;

  /// Folds one finished Simulation's registry into this outcome.
  void Absorb(en::sim::Simulation& sim) {
    en::sim::Stats& stats = sim.GetStats();
    for (const auto& [name, value] : stats.counters()) counters[name] += value;
    auto merge = [&stats](Histogram& into, const char* name) {
      if (const Histogram* h = stats.FindHistogram(name)) into.Merge(*h);
    };
    merge(commit_latency, "tmf.commit_latency_us");
    merge(lock_wait, "lock.wait_time");
    merge(group_commit, "audit.group_commit_size");
    merge(route_hops, "net.route_hops");
    events += sim.ExecutedEvents();
    fingerprint = Fnv1a(fingerprint, stats.ToString());
    fingerprint = Fnv1a(fingerprint, std::to_string(sim.ExecutedEvents()));
  }
};

/// One timed pass of simulated work, with the reference kernel timed just
/// before it.
struct Pass {
  Stamp time, reference;
  uint64_t commits = 0, events = 0;
};

struct Repetition {
  SimOutcome sim;
  std::vector<Pass> passes;
  std::vector<double> setups_s;  // at the reference kernel's nominal speed
  std::string error;  // non-empty: an output check failed
};

/// Root span around a stretch of measured simulated work (traced build).
class RootSpan {
 public:
  RootSpan() { OpenRoot(); }
  ~RootSpan() { CloseRoot(); }
  RootSpan(const RootSpan&) = delete;
  RootSpan& operator=(const RootSpan&) = delete;
};

/// Sets a TmpConfig commit-latency switch where the program still has one;
/// compiles unchanged once the histogram is always recorded.
template <typename C>
void RecordCommitLatency(C& config) {
  if constexpr (requires { config.track_commit_latency = true; }) {
    config.track_commit_latency = true;
  }
}

// ---- chaos-campaign workloads (mesh16_2pc, storm3_2pc) ------------------------

/// Runs each campaign through the program's own campaign runner. Two link
/// hooks see inside the single call: the last ArchiveVolumes of set-up ends
/// set-up (and starts the timed pass), and the campaign's Simulation is
/// folded into the outcome just before it is destroyed.
Repetition RunCampaigns(const std::vector<en::app::ChaosCampaignConfig>& configs) {
  Repetition rep;
  for (const en::app::ChaosCampaignConfig& config : configs) {
    int archived = 0;
    Stamp setup_end, sim_end;
    const uint64_t events_before = rep.sim.events;
    SetArchiveHook([&]() {
      if (++archived == config.nodes) {
        setup_end = Stamp::Now();
        OpenRoot();
      }
    });
    // The pass ends when the campaign's Simulation is about to go; folding
    // its Stats in is harness work and stays outside the pass.
    SetSimulationEndHook([&](en::sim::Simulation& sim) {
      if (archived == config.nodes) CloseRoot();
      sim_end = Stamp::Now();
      rep.sim.Absorb(sim);
    });

    const Stamp reference = ReferenceKernel();
    const Stamp start = Stamp::Now();
    en::app::ChaosCampaignResult res = en::app::RunChaosCampaign(config);
    SetArchiveHook(nullptr);
    SetSimulationEndHook(nullptr);

    const std::string tag = "seed " + std::to_string(config.seed) + ": ";
    if (archived != config.nodes) {
      rep.error = tag + "set-up archived " + std::to_string(archived) +
                  " nodes, expected " + std::to_string(config.nodes);
      return rep;
    }
    if (!res.violations.empty()) {
      rep.error = tag + std::to_string(res.violations.size()) +
                  " atomicity violations, first: " + res.violations[0].detail;
    } else if (res.balance_sum != res.expected_sum) {
      rep.error = tag + "balance sum " + std::to_string(res.balance_sum) +
                  " != " + std::to_string(res.expected_sum);
    } else if (!res.quiesced || res.leaked_locks != 0 || res.leaked_txns != 0 ||
               res.pending_safe != 0) {
      rep.error = tag + "not quiesced: leaked locks " +
                  std::to_string(res.leaked_locks) + ", leaked txns " +
                  std::to_string(res.leaked_txns) + ", pending safe " +
                  std::to_string(res.pending_safe);
    } else if (res.illegal_transitions != 0) {
      rep.error = tag + "illegal state transitions";
    }
    if (!rep.error.empty()) return rep;

    rep.setups_s.push_back((setup_end.wall - start.wall) * kReferenceNominalS /
                           reference.wall);
    rep.passes.push_back(Pass{sim_end - setup_end, reference,
                              res.txns_committed,
                              rep.sim.events - events_before});
    SimOutcome& o = rep.sim;
    o.started += res.txns_started;
    o.committed += res.txns_committed;
    o.indoubt_at_recovery += res.indoubt_at_recovery;
    o.rollforward_redo_applied += res.rollforward_redo_applied;
    // Clients start transactions until the campaign's stop time: two
    // seconds past the last scheduled heal (RunChaosCampaign).
    o.window_sim_s +=
        static_cast<double>(res.schedule.EndTime() + en::Seconds(2)) / 1e6;
    o.window_commits += res.txns_committed;
    o.fingerprint = Fnv1a(o.fingerprint, res.schedule_dump);
  }
  return rep;
}

/// mesh16_2pc: the no-fault campaign at 16 nodes x 8 clients, 2PC, lock
/// lane. Four consecutive campaign seeds per repetition: enough commits for
/// a steady p99, short enough for many timed repetitions per run.
std::vector<en::app::ChaosCampaignConfig> Mesh16Configs(uint64_t seed) {
  std::vector<en::app::ChaosCampaignConfig> out;
  for (uint64_t k = 0; k < 4; ++k) {
    en::app::ChaosCampaignConfig cfg;
    cfg.seed = seed * 4 + k + 1;
    cfg.nodes = 16;
    cfg.clients_per_node = 8;
    cfg.accounts_per_node = 20;
    cfg.client_think = en::Millis(25);
    cfg.schedule.faults = 0;
    cfg.schedule.min_node_crashes = 0;
    cfg.parallel_workers = 1;
    cfg.commit_protocol = en::tmf::CommitProtocol::kTwoPhase;
    out.push_back(cfg);
  }
  return out;
}

/// storm3_2pc: the E13 storm shape under the paper's 2PC. 32 consecutive
/// seeds per repetition: storms differ widely from seed to seed, and blocks
/// of 8 or 16 left committed_per_sim_s spreading 4-5% between runs.
std::vector<en::app::ChaosCampaignConfig> Storm3Configs(uint64_t seed) {
  std::vector<en::app::ChaosCampaignConfig> out;
  for (uint64_t k = 0; k < 32; ++k) {
    en::app::ChaosCampaignConfig cfg;
    cfg.seed = seed * 32 + k + 1;
    cfg.nodes = 3;
    cfg.accounts_per_node = 20;
    cfg.clients_per_node = 2;
    cfg.schedule.faults = 10;
    cfg.schedule.min_node_crashes = 2;
    cfg.schedule.w_crash = 1.5;
    cfg.schedule.min_heal = 2'000'000;
    cfg.schedule.max_heal = 4'000'000;
    cfg.schedule.crash_recovery_pad = 4'000'000;
    cfg.indoubt_resolve_interval = en::Millis(250);
    cfg.parallel_workers = 1;
    cfg.commit_protocol = en::tmf::CommitProtocol::kTwoPhase;
    out.push_back(cfg);
  }
  return out;
}

// ---- bank1_tcp ----------------------------------------------------------------

constexpr int kBankAccounts = 100'000;
constexpr int64_t kBankInitial = 1000;
constexpr int kBankTerminals = 32;
constexpr en::SimDuration kBankWindow = en::Seconds(20);  // timed load window
constexpr int kBankPasses = 10;                       // slices of the window
// Iterations per terminal: enough to keep all 32 busy through the window at
// the measured ~134 commits per simulated second (x1.25 headroom). A pass
// that would start with an idle terminal is not run.
constexpr uint64_t kBankIterations = 105;

/// One node, 8 CPUs, 32 TCP terminals running the banking transfer screen
/// program against 100,000 accounts, no think time.
Repetition RunBank1(uint64_t seed) {
  Repetition rep;
  const Stamp reference = ReferenceKernel();
  const Stamp start = Stamp::Now();
  en::sim::Simulation sim(seed + 1, /*parallel_workers=*/1);
  en::app::Deployment deploy(&sim);
  en::app::NodeSpec spec;
  spec.id = 1;
  spec.node_config.num_cpus = 8;
  en::app::FileSpec acct;
  acct.name = "acct";
  spec.volumes = {en::app::VolumeSpec{"$DATA1", {acct}, {}}};
  spec.tmp_config.commit_protocol = en::tmf::CommitProtocol::kTwoPhase;
  RecordCommitLatency(spec.tmp_config);
  en::app::NodeDeployment* nd = deploy.AddNode(spec);
  deploy.DefineFile("acct", 1, "$DATA1");
  en::storage::Volume* vol = nd->storage().volumes.at("$DATA1").get();
  en::apps::banking::SeedAccounts(vol, "acct", kBankAccounts, kBankInitial);
  en::app::ServerClassConfig server_class;
  server_class.cpus = {0, 1, 2, 3, 4, 5, 6, 7};
  en::apps::banking::AddBankServerClass(&deploy, 1, "$SC.BANK", "acct",
                                        server_class);
  en::app::ScreenProgram transfer = en::apps::banking::MakeTransferProgram(
      1, "$SC.BANK", kBankAccounts, /*max_amount=*/50);
  en::app::TcpConfig tcp_config;
  tcp_config.programs = {{"transfer", &transfer}};
  tcp_config.restart_limit = 100;
  auto tcp = en::os::SpawnPair<en::app::Tcp>(nd->node(), "$TCP1", 2, 3,
                                             tcp_config);
  sim.RunFor(en::Millis(10));  // let the service pairs settle
  rep.setups_s.push_back((WallNow() - start.wall) * kReferenceNominalS /
                         reference.wall);

  for (int t = 0; t < kBankTerminals; ++t) {
    tcp.primary->AttachTerminal("term" + std::to_string(t), "transfer",
                                kBankIterations);
  }
  en::sim::Stats& stats = sim.GetStats();
  const en::sim::MetricId commits = stats.RegisterCounter("tmf.commits");
  const en::SimTime window_start = sim.Now();
  for (int p = 0; p < kBankPasses; ++p) {
    if (tcp.primary->idle_terminals() != 0) break;
    const Stamp pass_reference = ReferenceKernel();
    const int64_t c0 = stats.Counter(commits);
    const uint64_t e0 = sim.ExecutedEvents();
    const Stamp t0 = Stamp::Now();
    {
      RootSpan root;
      sim.RunUntil(window_start + kBankWindow * (p + 1) / kBankPasses);
    }
    const Stamp t1 = Stamp::Now();
    rep.passes.push_back(Pass{t1 - t0, pass_reference,
                              static_cast<uint64_t>(stats.Counter(commits) - c0),
                              sim.ExecutedEvents() - e0});
    rep.sim.window_commits += rep.passes.back().commits;
    rep.sim.window_sim_s +=
        static_cast<double>(kBankWindow) / kBankPasses / 1e6;
  }
  // Drain: every terminal finishes its iterations.
  bool quiesced = false;
  for (int spin = 0; spin < 600 && !quiesced; ++spin) {
    sim.RunFor(en::Seconds(1));
    quiesced = tcp.primary->idle_terminals() == kBankTerminals;
  }
  sim.RunFor(en::Seconds(2));

  const int64_t sum = en::apps::banking::SumBalances(vol, "acct");
  const int64_t expected = kBankAccounts * kBankInitial;
  en::tmf::TmpProcess* tmp = nd->tmp();
  en::discprocess::DiscProcess* disc = nd->disc("$DATA1");
  if (!quiesced) {
    rep.error = "terminals did not finish";
  } else if (sum != expected) {
    rep.error = "balance sum " + std::to_string(sum) + " != seeded " +
                std::to_string(expected);
  } else if (tmp == nullptr || tmp->ActiveTransactionCount() != 0 ||
             disc == nullptr || disc->locks().held_count() != 0) {
    rep.error = "transactions or locks leaked after the drain";
  } else if (stats.Counter("tmf.illegal_transitions") != 0) {
    rep.error = "illegal state transitions";
  }
  SimOutcome& o = rep.sim;
  o.started = static_cast<uint64_t>(stats.Counter("tmf.begins"));
  o.committed = static_cast<uint64_t>(stats.Counter("tmf.commits"));
  o.Absorb(sim);
  return rep;
}

// ---- output --------------------------------------------------------------------

struct Json {
  std::string body;
  void Add(const std::string& key, const std::string& raw) {
    body += (body.empty() ? "" : ",") + ("\"" + key + "\":" + raw);
  }
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Add(key, buf);
  }
  void Str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (c == '\n' ? ' ' : c);
    }
    Add(key, quoted + "\"");
  }
  std::string Object() const { return "{" + body + "}"; }
};

int64_t SumSuffix(const std::map<std::string, int64_t>& counters,
                  const std::string& prefix, const std::string& suffix) {
  int64_t total = 0;
  for (const auto& [name, value] : counters) {
    if (name.size() >= prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += value;
    }
  }
  return total;
}

/// Per-layer counts from the program's Stats registry (deterministic).
Json LayerCounts(const SimOutcome& o) {
  const auto& c = o.counters;
  auto get = [&c](const char* name) -> double {
    auto it = c.find(name);
    return it == c.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double txn = static_cast<double>(std::max<uint64_t>(o.committed, 1));
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double hits = static_cast<double>(SumSuffix(c, "storage.", ".cache_hits"));
  const double misses =
      static_cast<double>(SumSuffix(c, "storage.", ".cache_misses"));
  Json j;
  j.Num("sim.events_per_txn", static_cast<double>(o.events) / txn);
  j.Num("net.sends_per_txn", get("net.sent") / txn);
  j.Num("net.route_hops_per_send", o.route_hops.Mean());
  j.Num("net.route_cache_hit_ratio",
        ratio(get("net.route_cache_hits"),
              get("net.route_cache_hits") + get("net.route_cache_misses")));
  j.Num("net.retransmits_per_txn", get("net.retransmits") / txn);
  j.Num("os.checkpoints_per_txn", get("os.checkpoints_sent") / txn);
  j.Num("os.bus_msgs_per_txn", (get("os.bus_x_msgs") + get("os.bus_y_msgs")) / txn);
  j.Num("os.call_retries_per_txn", get("os.call_retries") / txn);
  j.Num("os.takeovers", get("os.takeovers"));
  j.Num("storage.cache_hit_ratio", ratio(hits, hits + misses));
  j.Num("storage.reads_per_txn", (hits + misses) / txn);
  j.Num("storage.physical_reads_per_txn",
        static_cast<double>(SumSuffix(c, "storage.", ".physical_reads")) / txn);
  j.Num("storage.physical_writes_per_txn",
        static_cast<double>(SumSuffix(c, "storage.", ".physical_writes")) / txn);
  j.Num("discprocess.ops_per_txn", get("disc.ops") / txn);
  j.Num("discprocess.ckpt_messages_per_txn", get("disc.ckpt_messages") / txn);
  j.Num("discprocess.lock_waits_per_txn", get("disc.lock_waits") / txn);
  j.Num("discprocess.lock_wait_p50_ms",
        static_cast<double>(o.lock_wait.Percentile(50)) / 1e3);
  j.Num("discprocess.lock_wait_p99_ms",
        static_cast<double>(o.lock_wait.Percentile(99)) / 1e3);
  j.Num("discprocess.lock_aborts_per_txn",
        (get("lock.conflict_aborts") + get("lock.timeout_aborts")) / txn);
  j.Num("audit.forces_per_txn", get("audit.forces") / txn);
  j.Num("audit.appends_per_txn", get("audit.appended") / txn);
  j.Num("audit.group_commit_size_p50",
        static_cast<double>(o.group_commit.Percentile(50)));
  j.Num("tmf.phase1_sent_per_txn", get("tmf.phase1_sent") / txn);
  j.Num("tmf.mat_forces_per_txn", get("tmf.mat_forces") / txn);
  j.Num("tmf.state_broadcasts_per_txn", get("tmf.state_broadcasts") / txn);
  j.Num("tmf.safe_queued_per_txn", get("tmf.safe_queued") / txn);
  j.Num("tmf.indoubt_blocked_on_home", get("tmf.indoubt_blocked_on_home"));
  j.Num("tmf.indoubt_at_recovery", static_cast<double>(o.indoubt_at_recovery));
  j.Num("tmf.recovery_negotiations", get("recovery.negotiations"));
  j.Num("tmf.rollforward_redo_applied",
        static_cast<double>(o.rollforward_redo_applied));
  j.Num("tmf.commit_latency_n", static_cast<double>(o.commit_latency.count()));
  j.Num("encompass.txn_restarts_per_txn", get("tcp.txn_restarts") / txn);
  return j;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
};

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      opt->workload = value;
    } else if (key == "--seed") {
      opt->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      opt->seconds = std::strtod(value, nullptr);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt->workload.empty() && opt->seconds > 0;
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload mesh16_2pc|bank1_tcp|storm3_2pc "
                 "--seed N --seconds S\n");
    return 2;
  }
  std::function<Repetition()> run_rep;
  if (opt.workload == "mesh16_2pc") {
    run_rep = [seed = opt.seed]() { return RunCampaigns(Mesh16Configs(seed)); };
  } else if (opt.workload == "storm3_2pc") {
    run_rep = [seed = opt.seed]() { return RunCampaigns(Storm3Configs(seed)); };
  } else if (opt.workload == "bank1_tcp") {
    run_rep = [seed = opt.seed]() { return RunBank1(seed); };
  } else {
    std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
    return 2;
  }

  // Repetition 0 is the warm-up and the simulated-clock reference; the
  // later ones are timed. Every repetition simulates the same passes, so
  // pass p's samples are repeated measurements of identical work; each is
  // scaled to the reference kernel's nominal speed, and a pass costs the
  // median of its samples. On bank1_tcp the first pass (cold volume cache,
  // terminals ramping up) is left out. Span totals restart with repetition
  // 1 and so cover exactly the timed passes. Only repetition 0's outcome is
  // kept: the harness's own memory does not grow with the repetitions.
  const size_t warm_passes = opt.workload == "bank1_tcp" ? 1 : 0;
  SimOutcome o;
  size_t reps = 0;
  uint64_t timed_commits = 0;
  double timed_wall = 0, timed_wall_scaled = 0;
  std::vector<std::vector<double>> pass_wall, pass_cpu;  // [pass][rep]
  std::vector<uint64_t> pass_commits, pass_events;
  std::vector<double> setups;
  const double t_start = WallNow();
  while (reps < 2 || WallNow() - t_start < opt.seconds) {
    if (reps == 1) ResetTotals();
    Repetition rep = run_rep();
    if (rep.error.empty() && reps > 0 && rep.sim.fingerprint != o.fingerprint) {
      rep.error = "repetition " + std::to_string(reps) +
                  " diverged from repetition 0 (same seed)";
    }
    if (!rep.error.empty()) {
      Json failure;
      failure.Add("correct", "false");
      failure.Str("error", rep.error);
      std::printf("%s\n", failure.Object().c_str());
      return 1;
    }
    setups.insert(setups.end(), rep.setups_s.begin(), rep.setups_s.end());
    if (reps++ == 0) {
      o = std::move(rep.sim);
      continue;
    }
    pass_wall.resize(rep.passes.size());
    pass_cpu.resize(rep.passes.size());
    pass_commits.resize(rep.passes.size());
    pass_events.resize(rep.passes.size());
    for (size_t p = 0; p < rep.passes.size(); ++p) {
      const Pass& pass = rep.passes[p];
      timed_wall += pass.time.wall;
      timed_wall_scaled +=
          pass.time.wall * kReferenceNominalS / pass.reference.wall;
      timed_commits += pass.commits;
      pass_wall[p].push_back(pass.time.wall * kReferenceNominalS /
                             pass.reference.wall);
      pass_cpu[p].push_back(pass.time.cpu * kReferenceNominalS /
                            pass.reference.cpu);
      pass_commits[p] = pass.commits;
      pass_events[p] = pass.events;
    }
  }
  const LayerTotals spans = Totals();
  double wall = 0, cpu = 0;
  uint64_t commits = 0, events = 0;
  for (size_t p = warm_passes; p < pass_wall.size(); ++p) {
    wall += Median(pass_wall[p]);
    cpu += Median(pass_cpu[p]);
    commits += pass_commits[p];
    events += pass_events[p];
  }
  // Set-up is cheap next to the load on every workload; build extra
  // deployments (bank1_tcp) until the median has at least five samples.
  while (setups.size() < 5) {
    Repetition extra = run_rep();
    setups.insert(setups.end(), extra.setups_s.begin(), extra.setups_s.end());
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Json e2e;
  e2e.Num("commit_p50_ms", static_cast<double>(o.commit_latency.Percentile(50)) / 1e3);
  e2e.Num("commit_p99_ms", static_cast<double>(o.commit_latency.Percentile(99)) / 1e3);
  e2e.Num("committed_per_sim_s",
          o.window_sim_s > 0 ? static_cast<double>(o.window_commits) / o.window_sim_s : 0);
  e2e.Num("commit_ratio", o.started > 0 ? static_cast<double>(o.committed) /
                                              static_cast<double>(o.started)
                                        : 0);
  const double txns = static_cast<double>(std::max<uint64_t>(commits, 1));
  e2e.Num("host_wall_us_per_txn", wall * 1e6 / txns);
  e2e.Num("host_cpu_us_per_txn", cpu * 1e6 / txns);
  e2e.Num("sim.host_ns_per_event",
          wall * 1e9 / static_cast<double>(std::max<uint64_t>(events, 1)));
  e2e.Num("setup_s", Median(setups));
  e2e.Num("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);

  Json out;
  out.Str("workload", opt.workload);
  out.Num("seed", static_cast<double>(opt.seed));
  out.Num("traced", kTraced ? 1 : 0);
  out.Add("correct", "true");
  out.Num("attempted", static_cast<double>(o.started));
  out.Num("failed", 0);
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016" PRIx64, o.fingerprint);
  out.Str("fingerprint", fp);
  out.Num("repetitions", static_cast<double>(reps));
  out.Num("timed_passes", static_cast<double>((reps - 1) * pass_wall.size()));
  out.Num("setup_samples", static_cast<double>(setups.size()));
  out.Add("e2e", e2e.Object());

  out.Add("counts", LayerCounts(o).Object());
  if (kTraced) {
    // Per committed transaction over every pass of the timed repetitions:
    // the same stretch of work the span totals cover. Self times are scaled
    // to the reference kernel's nominal speed like the passes they add up to.
    const double txn = static_cast<double>(std::max<uint64_t>(timed_commits, 1));
    const double scale = timed_wall > 0 ? timed_wall_scaled / timed_wall : 0;
    Json s;
    double self_total = 0;
    for (int l = 0; l < kNumLayers; ++l) {
      const std::string name = kLayerNames[l];
      s.Num(name + ".self_us_per_txn",
            static_cast<double>(spans.self_ns[l]) * scale / 1e3 / txn);
      s.Num(name + ".calls_per_txn", static_cast<double>(spans.calls[l]) / txn);
      s.Num(name + ".allocs_per_txn", static_cast<double>(spans.allocs[l]) / txn);
      self_total += static_cast<double>(spans.self_ns[l]) / 1e9;
    }
    s.Num("trace.self_sum_share", timed_wall > 0 ? self_total / timed_wall : 0);
    out.Add("spans", s.Object());
  }
  std::printf("%s\n", out.Object().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
