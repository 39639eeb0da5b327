// Chaos harness for the real-clock runtime: scripted and seeded-random fault scenarios
// against a live 3f+1 cluster while closed-loop clients drive load, with machine-checked
// safety and liveness.
//
// Safety checks (violations fail the scenario):
//   - every certified PUT reply is "ok" and every certified ordered GET returns exactly the
//     last value this client's certified PUTs wrote (a sequential KV model per key; keys are
//     per-client, so the model is total);
//   - after the run, an audit client re-reads every counter key and the stored value must be
//     the last certified write (or the one in-flight op of a stalled client);
//   - once loops stop, replicas that executed the same sequence number must hold
//     bit-identical state bytes (no divergent certified state).
// Liveness check: after a scenario heals its faults, every load client must complete a new
// certified op within a bounded window (the paper's weak-synchrony liveness claim, measured
// with real timers).
//
// Usage: bft_chaos [--scenario all|primary_crash|partition_heal|drop10|corrupt_burst|
//                   rolling_restart|random]
//                  [--seed S] [--transport udp|inproc] [--formation] [--clients C]
//                  [--random-rounds N] [--recovery-window-s W] [--list]
//                  [--metrics-json PATH] [--trace-sample N]
//
// --metrics-json dumps each scenario's final metrics+traces JSON to PATH (and turns on
// request tracing at --trace-sample, default 16, so per-phase latency histograms populate).
// Once a scenario fails the file stops being overwritten — a chaos failure ships with the
// failing run's phase histograms and fault counters attached, not a later passing run's.
//
// Exit status: 0 when every selected scenario passes, 1 on any safety or liveness failure,
// 2 (with the usage line) on an unknown --transport name.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/thread_annotations.h"
#include "src/obs/export.h"
#include "src/runtime/rt_cluster.h"
#include "src/service/kv_service.h"

namespace bft {
namespace {

// An Execute that outlives this has genuinely wedged: every scenario heals within a few
// seconds and retransmission re-probes at least every max_client_retry_timeout.
constexpr SimTime kOpTimeout = 60 * kSecond;

const char kUsage[] =
    "usage: bft_chaos [--scenario all|primary_crash|partition_heal|drop10|corrupt_burst|\n"
    "                  rolling_restart|random]\n"
    "                 [--seed S] [--transport udp|inproc] [--formation] [--clients C]\n"
    "                 [--random-rounds N] [--recovery-window-s W] [--list]\n"
    "                 [--metrics-json PATH] [--trace-sample N]\n";

const char* FlagString(int argc, char** argv, const char* name, const char* fallback) {
  size_t name_len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0 && i + 1 < argc) {
      return argv[i + 1];
    }
    if (std::strncmp(argv[i], name, name_len) == 0 && argv[i][name_len] == '=') {
      return argv[i] + name_len + 1;
    }
  }
  return fallback;
}

uint64_t FlagValue(int argc, char** argv, const char* name, uint64_t fallback) {
  const char* s = FlagString(argc, argv, name, nullptr);
  return s != nullptr ? std::strtoull(s, nullptr, 10) : fallback;
}

bool FlagPresent(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) {
      return true;
    }
  }
  return false;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepMs(uint64_t ms) { std::this_thread::sleep_for(std::chrono::milliseconds(ms)); }

RtClusterOptions ChaosOptions(RtClusterOptions::TransportKind transport, bool formation,
                              uint64_t seed) {
  RtClusterOptions options;
  options.config.n = 4;
  options.config.state_pages = 64;
  // Small checkpoint period / log: crash-and-restart must outrun the log so rejoin exercises
  // state transfer, not just retransmission.
  options.config.checkpoint_period = 16;
  options.config.log_size = 32;
  // Fault timers sized for chaos: view changes within a few hundred ms of a dead primary,
  // but far above loopback latency so a healthy run stays in view 0.
  options.config.view_change_timeout = 400 * kMillisecond;
  options.config.max_view_change_timeout = 5 * kSecond;
  options.config.client_retry_timeout = 100 * kMillisecond;
  options.config.max_client_retry_timeout = 2 * kSecond;
  options.seed = seed;
  options.fault_seed = seed ^ 0xc8a05c8a05c8a05fULL;
  options.transport = transport;
  options.formation = formation;
  return options;
}

struct Outcome {
  std::string name;
  bool pass = false;
  uint64_t ops = 0;
  uint64_t faults = 0;
  double recover_ms = -1.0;  // time from heal to every client certifying a fresh op
  std::vector<std::string> violations;
};

// One cluster + load generator + checker, living for one scenario.
class ChaosHarness {
 public:
  ChaosHarness(RtClusterOptions options, size_t num_load_clients)
      : cluster_(options, [](NodeId) { return std::make_unique<KvService>(); }),
        completed_(num_load_clients),
        stalled_(num_load_clients) {
    for (size_t c = 0; c < num_load_clients; ++c) {
      Client* client = cluster_.AddClient();
      ClientConfig cc;
      cc.retry_timeout = 100 * kMillisecond;
      cc.max_retry_timeout = 2 * kSecond;
      client->set_client_config(cc);
      load_clients_.push_back(client);
      completed_[c].store(0);
      stalled_[c].store(false);
    }
    checker_ = cluster_.AddClient();
  }

  RtCluster& cluster() { return cluster_; }

  void Start() {
    cluster_.Start();
    for (size_t c = 0; c < load_clients_.size(); ++c) {
      threads_.emplace_back([this, c]() { LoadLoop(c); });
    }
  }

  void Violation(const std::string& msg) {
    MutexLock lock(mu_);
    violations_.push_back(msg);
  }

  uint64_t TotalCompleted() const {
    uint64_t total = 0;
    for (const auto& n : completed_) {
      total += n.load(std::memory_order_relaxed);
    }
    return total;
  }

  // Liveness: from now, every load client must certify at least one new op within
  // `window_s` seconds. Returns elapsed ms when the last client recovered, or -1.
  double AwaitProgress(double window_s) {
    std::vector<uint64_t> base(completed_.size());
    for (size_t c = 0; c < base.size(); ++c) {
      base[c] = completed_[c].load();
    }
    double start = NowSeconds();
    while (NowSeconds() - start < window_s) {
      bool all = true;
      for (size_t c = 0; c < base.size(); ++c) {
        if (completed_[c].load() <= base[c]) {
          all = false;
          break;
        }
      }
      if (all) {
        return (NowSeconds() - start) * 1e3;
      }
      SleepMs(20);
    }
    for (size_t c = 0; c < base.size(); ++c) {
      if (completed_[c].load() <= base[c]) {
        Violation("liveness: client " + std::to_string(c) + " made no progress within " +
                  std::to_string(window_s) + "s of heal");
      }
    }
    return -1.0;
  }

  // Blocks until restarted/lagging replica `i` has executed at least as much as a currently
  // live reference replica had when we started waiting. Returns false on timeout.
  bool AwaitReplicaCaughtUp(int i, double window_s) {
    int ref = -1;
    for (int j = 0; j < cluster_.num_replicas(); ++j) {
      if (j != i && cluster_.replica_running(j)) {
        ref = j;
        break;
      }
    }
    if (ref < 0 || !cluster_.replica_running(i)) {
      return false;
    }
    SeqNo target = 0;
    Replica* rref = cluster_.replica(ref);
    cluster_.RunOn(ref, [&target, rref]() { target = rref->last_executed(); });
    double start = NowSeconds();
    while (NowSeconds() - start < window_s) {
      SeqNo got = 0;
      Replica* ri = cluster_.replica(i);
      cluster_.RunOn(i, [&got, ri]() { got = ri->last_executed(); });
      if (got >= target) {
        return true;
      }
      SleepMs(25);
    }
    Violation("replica " + std::to_string(i) + " failed to catch up to seq " +
              std::to_string(target) + " within " + std::to_string(window_s) + "s");
    return false;
  }

  void StopLoad() {
    stop_.store(true);
    for (std::thread& t : threads_) {
      t.join();
    }
    threads_.clear();
  }

  // Post-run audit; call after StopLoad() with all faults healed. Stops the cluster.
  void FinalAudit() {
    // 1) Stored value vs. the sequential model: the audit client re-reads every counter key
    //    through the ordered path. A stalled client may have one op still in flight (its
    //    retransmission can legally commit any time), hence the +1 tolerance.
    for (size_t c = 0; c < load_clients_.size(); ++c) {
      std::optional<Bytes> got = cluster_.Execute(
          checker_, KvService::GetOp(ToBytes(CounterKey(c))), /*read_only=*/false, kOpTimeout);
      if (!got.has_value()) {
        Violation("audit: GET " + CounterKey(c) + " got no certificate");
        continue;
      }
      uint64_t n = completed_[c].load();
      std::string stored = ToString(*got);
      bool ok = stored == CounterValue(n) || stored == CounterValue(n + 1) ||
                (n == 0 && stored.empty());
      if (!ok) {
        Violation("audit: " + CounterKey(c) + " holds \"" + stored + "\" but client " +
                  "certified " + CounterValue(n));
      }
    }
    // 2) No divergent certified state: replicas that executed the same sequence number must
    //    be byte-identical. Let in-flight commits settle, then freeze and compare.
    SleepMs(300);
    cluster_.Stop();
    for (int i = 0; i < cluster_.num_replicas(); ++i) {
      for (int j = i + 1; j < cluster_.num_replicas(); ++j) {
        Replica* a = cluster_.replica(i);
        Replica* b = cluster_.replica(j);
        if (a == nullptr || b == nullptr || a->last_executed() != b->last_executed()) {
          continue;
        }
        if (std::memcmp(a->state().data(), b->state().data(), a->state().size_bytes()) != 0) {
          Violation("divergence: replicas " + std::to_string(i) + " and " + std::to_string(j) +
                    " executed seq " + std::to_string(a->last_executed()) +
                    " with different state bytes");
        }
      }
    }
  }

  std::vector<std::string> violations() {
    MutexLock lock(mu_);
    return violations_;
  }

 private:
  static std::string CounterKey(size_t c) { return "ctr-" + std::to_string(c); }
  static std::string CounterValue(uint64_t n) { return "v-" + std::to_string(n); }

  void LoadLoop(size_t c) {
    Client* client = load_clients_[c];
    const std::string key = CounterKey(c);
    uint64_t n = 0;
    while (!stop_.load(std::memory_order_relaxed)) {
      std::string value = CounterValue(n + 1);
      std::optional<Bytes> put = cluster_.Execute(
          client, KvService::PutOp(ToBytes(key), ToBytes(value)), /*read_only=*/false,
          kOpTimeout);
      if (!put.has_value()) {
        // The op is still in flight and Invoke is one-outstanding: this client is wedged for
        // good. Liveness has already failed by 60s; record and retire the thread.
        stalled_[c].store(true);
        Violation("client " + std::to_string(c) + " wedged: no certificate in 60s");
        return;
      }
      if (ToString(*put) != "ok") {
        Violation("client " + std::to_string(c) + " PUT certified \"" + ToString(*put) +
                  "\", model says \"ok\"");
      }
      ++n;
      completed_[c].store(n, std::memory_order_relaxed);
      if (n % 4 == 0) {
        std::optional<Bytes> got = cluster_.Execute(
            client, KvService::GetOp(ToBytes(key)), /*read_only=*/false, kOpTimeout);
        if (!got.has_value()) {
          stalled_[c].store(true);
          Violation("client " + std::to_string(c) + " wedged on GET");
          return;
        }
        if (ToString(*got) != value) {
          Violation("client " + std::to_string(c) + " certified GET \"" + ToString(*got) +
                    "\" after certifying PUT \"" + value + "\"");
        }
      }
    }
  }

  RtCluster cluster_;
  std::vector<Client*> load_clients_;
  Client* checker_ = nullptr;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
  std::vector<std::atomic<uint64_t>> completed_;
  std::vector<std::atomic<bool>> stalled_;
  Mutex mu_;
  std::vector<std::string> violations_ BFT_GUARDED_BY(mu_);
};

// ---- Scenarios ---------------------------------------------------------------------------

void ScenarioPrimaryCrash(ChaosHarness& h) {
  // Kill the view-0 primary mid-load. The view change IS the heal: progress must resume on
  // replica 1's primaryship. Restart the dead node afterwards so the audit sees 4 replicas.
  h.cluster().CrashReplica(0);
  SleepMs(3000);
  h.cluster().RestartReplica(0);
  h.AwaitReplicaCaughtUp(0, 20.0);
}

void ScenarioPartitionHeal(ChaosHarness& h) {
  // Cut the primary off from everyone (both directions) for 2.5s — longer than the view
  // change timeout, so the majority side elects a new primary — then heal and let the old
  // primary rejoin.
  h.cluster().faults().Partition({0});
  SleepMs(2500);
  h.cluster().faults().Heal();
  h.AwaitReplicaCaughtUp(0, 20.0);
}

void ScenarioDrop10(ChaosHarness& h) {
  // Sustained 10% loss on every link. Liveness must hold DURING the fault — this is the
  // paper's operating regime, not an outage — so require progress before clearing.
  FaultSpec spec;
  spec.drop = 0.10;
  h.cluster().faults().SetDefaultFaults(spec);
  uint64_t before = h.TotalCompleted();
  SleepMs(4000);
  if (h.TotalCompleted() <= before) {
    h.Violation("no ops certified during sustained 10% drop");
  }
  h.cluster().faults().ClearFaults();
}

void ScenarioCorruptBurst(ChaosHarness& h) {
  // Three bursts of heavy corruption with short clean gaps: every decoder sees torn
  // datagrams; MACs reject what framing lets through; retransmission carries the load.
  for (int burst = 0; burst < 3; ++burst) {
    FaultSpec spec;
    spec.corrupt = 0.5;
    h.cluster().faults().SetDefaultFaults(spec);
    SleepMs(700);
    h.cluster().faults().ClearFaults();
    SleepMs(300);
  }
}

void ScenarioRollingRestart(ChaosHarness& h) {
  // Restart every replica in turn, backups first, primary last. Waiting for each rejoin
  // before the next kill keeps at most one replica down (f=1) — the system must never lose
  // liveness, and each rejoin exercises crash + state transfer under live load.
  for (int i = 1; i < h.cluster().num_replicas(); ++i) {
    h.cluster().CrashReplica(i);
    SleepMs(1200);
    h.cluster().RestartReplica(i);
    if (!h.AwaitReplicaCaughtUp(i, 20.0)) {
      return;  // already recorded as a violation; keep the fault count honest
    }
  }
  h.cluster().CrashReplica(0);
  SleepMs(1200);
  h.cluster().RestartReplica(0);
  h.AwaitReplicaCaughtUp(0, 20.0);
}

struct RandomPlan {
  uint64_t seed = 0;
  int rounds = 4;
};

void ScenarioRandom(ChaosHarness& h, const RandomPlan& plan) {
  // Seeded random composition of everything above: each round draws one fault, holds it for
  // 1–2s, heals, and demands recovery before the next round.
  Rng rng(plan.seed ^ 0x5eeded0123456789ULL);
  for (int round = 0; round < plan.rounds; ++round) {
    uint64_t hold_ms = rng.Range(1000, 2000);
    switch (rng.Below(5)) {
      case 0: {
        FaultSpec spec;
        spec.drop = 0.05 + rng.Uniform() * 0.20;
        h.cluster().faults().SetDefaultFaults(spec);
        SleepMs(hold_ms);
        h.cluster().faults().ClearFaults();
        break;
      }
      case 1: {
        FaultSpec spec;
        spec.delay = rng.Range(1, 5) * kMillisecond;
        spec.delay_jitter = 2 * kMillisecond;
        spec.reorder = 0.05;
        h.cluster().faults().SetDefaultFaults(spec);
        SleepMs(hold_ms);
        h.cluster().faults().ClearFaults();
        break;
      }
      case 2: {
        FaultSpec spec;
        spec.corrupt = 0.2 + rng.Uniform() * 0.3;
        spec.duplicate = 0.1;
        h.cluster().faults().SetDefaultFaults(spec);
        SleepMs(hold_ms);
        h.cluster().faults().ClearFaults();
        break;
      }
      case 3: {
        NodeId victim = static_cast<NodeId>(rng.Below(4));
        h.cluster().faults().Partition({victim});
        SleepMs(hold_ms);
        h.cluster().faults().Heal();
        break;
      }
      default: {
        int victim = static_cast<int>(rng.Below(4));
        h.cluster().CrashReplica(victim);
        SleepMs(hold_ms);
        h.cluster().RestartReplica(victim);
        h.AwaitReplicaCaughtUp(victim, 20.0);
        break;
      }
    }
    if (h.AwaitProgress(15.0) < 0) {
      return;  // violation recorded; later rounds would only pile on noise
    }
  }
}

// ---- Driver ------------------------------------------------------------------------------

Outcome RunScenario(const std::string& name, RtClusterOptions options, size_t clients,
                    double recovery_window_s, const RandomPlan& plan,
                    const char* metrics_json, uint64_t trace_sample) {
  Outcome out;
  out.name = name;
  ChaosHarness h(options, clients);
  h.cluster().tracer().set_sample_every(static_cast<uint32_t>(trace_sample));
  h.Start();

  // Warmup: the load must be certifiably flowing before any fault lands.
  SleepMs(700);
  if (h.TotalCompleted() == 0) {
    h.Violation("no ops certified during fault-free warmup");
  }

  if (name == "primary_crash") {
    ScenarioPrimaryCrash(h);
  } else if (name == "partition_heal") {
    ScenarioPartitionHeal(h);
  } else if (name == "drop10") {
    ScenarioDrop10(h);
  } else if (name == "corrupt_burst") {
    ScenarioCorruptBurst(h);
  } else if (name == "rolling_restart") {
    ScenarioRollingRestart(h);
  } else if (name == "random") {
    ScenarioRandom(h, plan);
  } else {
    h.Violation("unknown scenario: " + name);
  }

  out.recover_ms = h.AwaitProgress(recovery_window_s);
  h.StopLoad();
  h.FinalAudit();

  if (metrics_json != nullptr) {
    // The loops are stopped (FinalAudit): this snapshot is the scenario's final word.
    WriteMetricsJson(metrics_json, h.cluster().metrics(), &h.cluster().tracer());
  }

  out.ops = h.TotalCompleted();
  out.faults = h.cluster().faults().injected_count();
  out.violations = h.violations();
  out.pass = out.violations.empty() && out.recover_ms >= 0.0;
  return out;
}

const char* const kScripted[] = {"primary_crash", "partition_heal", "drop10", "corrupt_burst",
                                 "rolling_restart"};

}  // namespace
}  // namespace bft

int main(int argc, char** argv) {
  using namespace bft;

  if (FlagPresent(argc, argv, "--list")) {
    for (const char* s : kScripted) {
      std::printf("%s\n", s);
    }
    std::printf("random\n");
    return 0;
  }

  const char* scenario = FlagString(argc, argv, "--scenario", "all");
  const char* transport = FlagString(argc, argv, "--transport", "udp");
  uint64_t seed = FlagValue(argc, argv, "--seed", 2029);
  size_t clients = FlagValue(argc, argv, "--clients", 3);
  bool formation = FlagPresent(argc, argv, "--formation");
  RandomPlan plan;
  plan.seed = seed;
  plan.rounds = static_cast<int>(FlagValue(argc, argv, "--random-rounds", 4));
  double recovery_window_s =
      static_cast<double>(FlagValue(argc, argv, "--recovery-window-s", 15));
  const char* metrics_json = FlagString(argc, argv, "--metrics-json", nullptr);
  uint64_t trace_sample =
      FlagValue(argc, argv, "--trace-sample", metrics_json != nullptr ? 16 : 0);

  RtClusterOptions::TransportKind kind;
  if (std::strcmp(transport, "udp") == 0) {
    kind = RtClusterOptions::TransportKind::kUdp;
  } else if (std::strcmp(transport, "inproc") == 0) {
    kind = RtClusterOptions::TransportKind::kInProc;
  } else {
    std::fprintf(stderr, "bft_chaos: unknown --transport '%s'\n%s", transport, kUsage);
    return 2;
  }

  std::vector<std::string> selected;
  if (std::strcmp(scenario, "all") == 0) {
    selected.assign(std::begin(kScripted), std::end(kScripted));
  } else {
    selected.push_back(scenario);
  }

  std::printf("bft_chaos: transport=%s%s seed=%llu clients=%zu\n", transport,
              formation ? "+formation" : "", static_cast<unsigned long long>(seed), clients);
  std::printf("%-17s %-6s %8s %8s %12s\n", "scenario", "result", "ops", "faults",
              "recovery_ms");

  bool all_pass = true;
  for (const std::string& name : selected) {
    // Stop overwriting the snapshot after the first failure: the dump on disk must belong
    // to the failing scenario, not whichever passing scenario ran last.
    Outcome out =
        RunScenario(name, ChaosOptions(kind, formation, seed), clients, recovery_window_s,
                    plan, all_pass ? metrics_json : nullptr, trace_sample);
    all_pass = all_pass && out.pass;
    std::printf("%-17s %-6s %8llu %8llu %12.0f\n", out.name.c_str(),
                out.pass ? "PASS" : "FAIL", static_cast<unsigned long long>(out.ops),
                static_cast<unsigned long long>(out.faults), out.recover_ms);
    for (const std::string& v : out.violations) {
      std::printf("    violation: %s\n", v.c_str());
    }
  }
  std::printf("%s\n", all_pass ? "all scenarios passed: zero safety violations, "
                                 "bounded-time recovery"
                               : "CHAOS FAILURE: see violations above");
  return all_pass ? 0 : 1;
}
