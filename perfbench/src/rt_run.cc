#include "perfbench/src/rt_run.h"

#include <pthread.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "perfbench/src/layers.h"
#include "src/common/thread_annotations.h"
#include "src/crypto/digest.h"
#include "src/runtime/rt_cluster.h"
#include "src/service/kv_service.h"
#include "src/service/null_service.h"

namespace perfbench {

using bft::Bytes;

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// User + system CPU time of the whole process.
double ProcessCpuUs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

void SleepUntilNs(int64_t t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(std::chrono::nanoseconds(t)));
}

constexpr int64_t kMs = 1000 * 1000;
constexpr int64_t kSec = 1000 * kMs;
constexpr double kWarmupS = 0.5;
constexpr double kCrashAt = 0.2;  // kv_failover: share of the window before the crash
constexpr size_t kMaxViolations = 20;

// Run-wide signals between the harness thread and the endpoint loops.
struct Shared {
  std::atomic<int64_t> stop_at_ns{LLONG_MAX};  // no op starts at or after this instant
  std::atomic<int64_t> crash_ns{0};            // set just before the primary is crashed
  std::atomic<int64_t> first_write_after_crash_ns{0};
  std::atomic<uint64_t> preloaded{0};
};

// Runs `fn` on `node`'s loop thread and waits for it.
void RunOnNode(bft::RtNode* node, std::function<void()> fn) {
  struct Rendezvous {
    bft::Mutex mu;
    bft::CondVar cv;
    bool done BFT_GUARDED_BY(mu) = false;
  };
  auto rv = std::make_shared<Rendezvous>();
  bool posted = node->Post([fn = std::move(fn), rv]() {
    fn();
    bft::MutexLock lock(rv->mu);
    rv->done = true;
    rv->cv.NotifyAll();
  });
  if (!posted) {
    throw std::runtime_error("endpoint loop is not running");
  }
  bft::MutexLock lock(rv->mu);
  while (!rv->done) {
    rv->cv.Wait(rv->mu);
  }
}

clockid_t LoopClock(bft::RtNode* node) {
  clockid_t clock = CLOCK_THREAD_CPUTIME_ID;
  RunOnNode(node, [&clock]() { pthread_getcpuclockid(pthread_self(), &clock); });
  return clock;
}

int64_t ReadClockNs(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) {
    return 0;
  }
  return static_cast<int64_t>(ts.tv_sec) * kSec + ts.tv_nsec;
}

// Drives one client endpoint entirely from its own loop thread: the first op is posted, each
// later one is issued from a completion callback (closed loop) or from the endpoint's own
// arrival timer (open loop). Everything but the atomics is touched only on that thread until
// the cluster is stopped.
class LoadEndpoint {
 public:
  LoadEndpoint(bft::Client* client, const RunConfig& config, int index, Shared* shared)
      : client_(client),
        node_(dynamic_cast<bft::RtNode*>(client->endpoint())),
        spec_(config.spec),
        stream_(config.spec, config.seed, index, config.endpoints),
        index_(index),
        inject_reply_(config.inject == "reply" && index == 0),
        shared_(shared) {
    if (node_ == nullptr) {
      throw std::runtime_error("client endpoint is not a real-clock node");
    }
  }

  bft::RtNode* node() { return node_; }
  bool idle() const { return idle_.load(std::memory_order_acquire); }

  void StartPreload(std::vector<uint32_t> keys) {
    node_->Post([this, keys = std::move(keys)]() mutable {
      preload_ = std::move(keys);
      NextPreload();
    });
  }

  void StartLoad(int64_t start_ns) {
    idle_.store(false, std::memory_order_release);
    node_->Post([this, start_ns]() {
      if (spec_.kv) {
        ScheduleArrival(start_ns);
      } else {
        IssueClosed();
      }
    });
  }

  // --- Read after the cluster is stopped ---------------------------------------------------
  const std::vector<Sample>& samples() const { return samples_; }
  const std::vector<std::pair<int64_t, int64_t>>& lateness() const { return lateness_; }
  const std::vector<int32_t>& put_keys() const { return put_keys_; }
  struct SeenValue {
    uint32_t key;
    ValueTag tag;
  };
  const std::vector<SeenValue>& seen_values() const { return seen_; }
  const std::vector<std::string>& violations() const { return violations_; }
  uint64_t bad_results() const { return bad_results_; }

 private:
  struct Pending {
    GenOp gen;
    size_t sample = 0;  // index into samples_
  };

  void NextPreload() {
    if (preload_next_ >= preload_.size()) {
      return;
    }
    uint32_t key = preload_[preload_next_++];
    client_->Invoke(bft::KvService::PutOp(KeyName(key), MakeValue(key, kPreloadWriter, key)),
                    false, [this](Bytes result) {
                      if (result != Bytes{'o', 'k'}) {
                        Violation("preload PUT returned an error");
                      }
                      shared_->preloaded.fetch_add(1, std::memory_order_acq_rel);
                      NextPreload();
                    });
  }

  // Logs a generated op (its sample and, for a PUT, its key) and wraps it for sending.
  Pending Record(GenOp g, int64_t start_ns) {
    put_keys_.push_back(spec_.kv && !g.read ? static_cast<int32_t>(g.key) : -1);
    samples_.push_back(Sample{start_ns, 0, g.read});
    return Pending{std::move(g), samples_.size() - 1};
  }

  void IssueClosed() {
    int64_t now = NowNs();
    if (now >= shared_->stop_at_ns.load(std::memory_order_acquire)) {
      idle_.store(true, std::memory_order_release);
      return;
    }
    Send(Record(stream_.Next(), now));
  }

  void ScheduleArrival(int64_t previous_due) {
    // The gap belongs to the op it precedes, so generate now and hold it until it is due.
    GenOp g = stream_.Next();
    int64_t due = previous_due + static_cast<int64_t>(g.gap_s * 1e9);
    if (due >= shared_->stop_at_ns.load(std::memory_order_acquire)) {
      arrivals_done_ = true;
      MaybeIdle();
      return;
    }
    node_->SetTimer(static_cast<bft::SimTime>(std::max<int64_t>(0, due - NowNs())),
                    [this, due, g = std::move(g)]() mutable { OnArrival(due, std::move(g)); });
  }

  void OnArrival(int64_t due, GenOp g) {
    lateness_.emplace_back(due, NowNs() - due);
    queue_.push_back(Record(std::move(g), due));
    ScheduleArrival(due);
    if (!in_flight_) {
      IssueQueued();
    }
  }

  void IssueQueued() {
    Pending p = std::move(queue_.front());
    queue_.pop_front();
    Send(std::move(p));
  }

  void Send(Pending p) {
    in_flight_ = true;
    current_ = p.sample;
    current_key_ = p.gen.key;
    current_read_ = p.gen.read;
    client_->Invoke(std::move(p.gen.op), p.gen.read,
                    [this](Bytes result) { OnResult(std::move(result)); });
  }

  void OnResult(Bytes result) {
    int64_t now = NowNs();
    in_flight_ = false;
    Sample& s = samples_[current_];
    s.done_ns = now;
    if (inject_reply_ && current_ >= 50 && (!spec_.kv || current_read_)) {
      inject_reply_ = false;
      result = spec_.kv ? MakeValue(current_key_ + 1, 0, 0) : Bytes{0};
    }
    Check(result);
    if (!current_read_) {
      int64_t crash = shared_->crash_ns.load(std::memory_order_acquire);
      int64_t none = 0;
      if (crash != 0 && s.start_ns > crash) {
        shared_->first_write_after_crash_ns.compare_exchange_strong(none, now);
      }
    }
    if (spec_.kv) {
      if (!queue_.empty()) {
        IssueQueued();
      } else {
        MaybeIdle();
      }
    } else {
      IssueClosed();
    }
  }

  void MaybeIdle() {
    if (arrivals_done_ && queue_.empty() && !in_flight_) {
      idle_.store(true, std::memory_order_release);
    }
  }

  void Check(const Bytes& result) {
    if (!spec_.kv) {
      if (!result.empty()) {  // the op asked for a 0-byte result
        Violation("null reply of " + std::to_string(result.size()) + " bytes, expected 0");
      }
      return;
    }
    if (!current_read_) {
      if (result == Bytes{'f', 'u', 'l', 'l'}) {
        ++bad_results_;
      } else if (result != Bytes{'o', 'k'}) {
        Violation("PUT returned neither ok nor full");
      }
      return;
    }
    // Every key was preloaded and nothing deletes, so an empty GET would be a lost write.
    std::optional<ValueTag> tag = ParseValue(result);
    if (!tag.has_value() || tag->key != current_key_) {
      Violation("GET key" + std::to_string(current_key_) + " returned a value not written for it");
      return;
    }
    seen_.push_back(SeenValue{current_key_, *tag});
  }

  void Violation(std::string what) {
    if (violations_.size() < kMaxViolations) {
      violations_.push_back("endpoint " + std::to_string(index_) + ": " + std::move(what));
    }
  }

  bft::Client* client_;
  bft::RtNode* node_;
  WorkloadSpec spec_;
  OpStream stream_;
  int index_;
  bool inject_reply_;
  Shared* shared_;
  std::atomic<bool> idle_{true};

  std::vector<uint32_t> preload_;
  size_t preload_next_ = 0;
  std::deque<Pending> queue_;
  bool in_flight_ = false;
  bool arrivals_done_ = false;
  size_t current_ = 0;
  uint32_t current_key_ = 0;
  bool current_read_ = false;
  std::vector<Sample> samples_;
  std::vector<std::pair<int64_t, int64_t>> lateness_;  // (due, fire - due)
  std::vector<int32_t> put_keys_;                      // op index -> PUT key, -1 for GET
  std::vector<SeenValue> seen_;
  std::vector<std::string> violations_;
  uint64_t bad_results_ = 0;
};

// A cluster plus the load of each client endpoint. Endpoints are declared first so they
// outlive the cluster, whose destructor stops every loop that could still call into them.
struct Live {
  std::vector<std::unique_ptr<LoadEndpoint>> endpoints;
  std::unique_ptr<bft::RtCluster> cluster;
};

// True once every live replica is in the same active view, has executed the same prefix and
// is not transferring state.
bool GroupSettled(bft::RtCluster& cluster) {
  bft::HealthSnapshot health = cluster.Health();
  const bft::ReplicaHealth* first = nullptr;
  for (const bft::ReplicaHealth& r : health.replicas) {
    if (!r.running) {
      continue;
    }
    if (!r.view_active || r.transfer_active) {
      return false;
    }
    if (first == nullptr) {
      first = &r;
    } else if (r.view != first->view || r.last_executed != first->last_executed) {
      return false;
    }
  }
  return true;
}

bool WaitSettled(bft::RtCluster& cluster, int64_t timeout_ns) {
  int64_t deadline = NowNs() + timeout_ns;
  while (NowNs() < deadline) {
    if (GroupSettled(cluster)) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return false;
}

// Replica `i` has rejoined: same view as the rest of the group and executed at least as far
// as the slowest of the others.
bool CaughtUp(bft::RtCluster& cluster, int i) {
  bft::HealthSnapshot health = cluster.Health();
  const bft::ReplicaHealth& me = health.replicas[static_cast<size_t>(i)];
  if (!me.running || !me.view_active || me.transfer_active) {
    return false;
  }
  bft::View view = 0;
  bft::SeqNo slowest = ~bft::SeqNo{0};
  for (size_t r = 0; r < health.replicas.size(); ++r) {
    if (static_cast<int>(r) != i && health.replicas[r].running) {
      view = std::max(view, health.replicas[r].view);
      slowest = std::min(slowest, health.replicas[r].last_executed);
    }
  }
  return me.view == view && me.last_executed >= slowest;
}

// Polls until replica `i` has caught up; ms since `since`, or -1 if `deadline` passes first.
double WaitCaughtUp(bft::RtCluster& cluster, int i, int64_t since, int64_t deadline) {
  while (NowNs() < deadline) {
    if (CaughtUp(cluster, i)) {
      return static_cast<double>(NowNs() - since) / 1e6;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return -1;
}

// One line per replica, for a message about a group that did not settle.
std::string DescribeGroup(bft::RtCluster& cluster) {
  std::string out;
  for (const bft::ReplicaHealth& r : cluster.Health().replicas) {
    out += (out.empty() ? "" : "; ") + std::string("replica ") + std::to_string(r.id) +
           (!r.running ? " down"
                       : std::string(" view ") + std::to_string(r.view) +
                             (r.view_active ? "" : " (changing)") + " executed " +
                             std::to_string(r.last_executed) +
                             (r.transfer_active ? " (transferring)" : ""));
  }
  return out;
}

Live SetUpOnce(const RunConfig& config, Shared* shared, ExecuteStats* exec_stats) {
  bft::RtClusterOptions options;
  options.config = BenchReplicaConfig(config.spec);
  options.seed = config.seed;
  options.transport = bft::RtClusterOptions::TransportKind::kUdp;
  options.formation = false;
  WorkloadSpec spec = config.spec;
  Live live;
  live.cluster = std::make_unique<bft::RtCluster>(
      options, [spec, exec_stats](bft::NodeId) -> std::unique_ptr<bft::Service> {
        if (exec_stats != nullptr) {
          return std::make_unique<TimedService>(MakeService(spec), exec_stats);
        }
        return MakeService(spec);
      });
  for (int e = 0; e < config.endpoints; ++e) {
    bft::Client* client = live.cluster->AddClient();
    client->set_client_config(BenchClientConfig());
    live.endpoints.push_back(std::make_unique<LoadEndpoint>(client, config, e, shared));
  }
  live.cluster->Start();
  Bytes first = spec.kv ? bft::KvService::GetOp(KeyName(0))
                        : bft::NullService::MakeOp(/*read_only=*/false, 0, 0);
  for (int e = 0; e < config.endpoints; ++e) {
    if (!live.cluster->Execute(live.cluster->client(static_cast<size_t>(e)), first, spec.kv,
                               10 * bft::kSecond)) {
      throw std::runtime_error("set-up: a client's first op was not certified");
    }
  }
  if (spec.kv) {
    shared->preloaded.store(0);
    for (int e = 0; e < config.endpoints; ++e) {
      std::vector<uint32_t> keys;
      for (uint32_t k = static_cast<uint32_t>(e); k < kNumKeys;
           k += static_cast<uint32_t>(config.endpoints)) {
        keys.push_back(k);
      }
      live.endpoints[static_cast<size_t>(e)]->StartPreload(std::move(keys));
    }
    int64_t deadline = NowNs() + 120 * kSec;
    while (shared->preloaded.load() < kNumKeys) {
      if (NowNs() > deadline) {
        throw std::runtime_error("set-up: KV preload did not finish");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  return live;
}

// A set-up whose replicas do not settle is discarded and done again, at most
// kSetUpAttempts times in all. It happens when one replica's loop falls a view-change
// timeout behind during the preload: that replica moves to the next view alone and, as PBFT
// prescribes, waits there until the group follows, which an idle group never does. Each
// retry is named on stderr and counted in `cost->retries`; `cpu_s` and `wall_s` are the
// cost of the set-up that settled.
constexpr int kSetUpAttempts = 3;

Live SetUp(const RunConfig& config, Shared* shared, ExecuteStats* exec_stats, SetUpCost* cost) {
  for (int attempt = 1;; ++attempt) {
    const double cpu_start = ProcessCpuUs();
    const int64_t wall_start = NowNs();
    Live live = SetUpOnce(config, shared, exec_stats);
    if (WaitSettled(*live.cluster, 5 * kSec)) {
      cost->cpu_s = (ProcessCpuUs() - cpu_start) / 1e6;
      cost->wall_s = static_cast<double>(NowNs() - wall_start) / 1e9;
      return live;
    }
    const std::string group = DescribeGroup(*live.cluster);
    live.cluster->Stop();
    if (attempt == kSetUpAttempts) {
      throw std::runtime_error("set-up: replicas did not settle after set-up, " +
                               std::to_string(attempt) + " times; last: " + group);
    }
    ++cost->retries;
    std::fprintf(stderr, "pbft_bench: set-up did not settle (%s); setting up again\n",
                 group.c_str());
  }
}

struct LoopClocks {
  std::vector<clockid_t> replicas;
  std::vector<clockid_t> clients;
};

void AddLoopCpu(const LoopClocks& clocks, Snapshot* snap) {
  snap->values["loop.cpu_wall_ns"] = static_cast<double>(NowNs());
  snap->values["loop.primary_ns"] = static_cast<double>(ReadClockNs(clocks.replicas[0]));
  double backups = 0;
  for (size_t i = 1; i < clocks.replicas.size(); ++i) {
    backups += static_cast<double>(ReadClockNs(clocks.replicas[i]));
  }
  snap->values["loop.backups_ns"] = backups;
  double clients = 0;
  for (clockid_t c : clocks.clients) {
    clients += static_cast<double>(ReadClockNs(c));
  }
  snap->values["loop.clients_ns"] = clients;
}

Snapshot TakeSnapshot(bft::RtCluster& cluster, const ExecuteStats* exec_stats) {
  Snapshot snap;
  auto& v = snap.values;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  v["ru.cpu_us"] = ProcessCpuUs();
  v["ru.nvcsw"] = static_cast<double>(ru.ru_nvcsw);
  v["ru.nivcsw"] = static_cast<double>(ru.ru_nivcsw);
  bft::MetricsRegistry& registry = cluster.metrics();
  registry.VisitScalars([&v](const std::string& name, const std::string&, int64_t value) {
    v[name] += static_cast<double>(value);
  });
  auto add_hist = [&](const std::string& key, const std::string& name, const std::string& labels) {
    bft::Histogram* h = registry.GetHistogram(name, labels);
    v[key + ".count"] += static_cast<double>(h->count());
    v[key + ".sum"] += static_cast<double>(h->sum());
  };
  for (int i = 0; i < cluster.num_replicas(); ++i) {
    add_hist("h.batch_size", "bft_batch_size", "node=\"" + std::to_string(i) + "\"");
  }
  add_hist("h.sendmmsg_batch", "bft_transport_sendmmsg_batch", "transport=\"udp\"");
  for (const char* phase : {"dispatch_to_pre_prepare", "pre_prepare_to_prepared",
                            "prepared_to_committed", "committed_to_executed",
                            "executed_to_certified"}) {
    add_hist(std::string("h.phase.") + phase, "bft_phase_latency_us",
             std::string("phase=\"") + phase + "\"");
  }
  if (exec_stats != nullptr) {
    v["exec.read_ns"] = static_cast<double>(exec_stats->read_ns.load());
    v["exec.reads"] = static_cast<double>(exec_stats->reads.load());
    v["exec.write_ns"] = static_cast<double>(exec_stats->write_ns.load());
    v["exec.writes"] = static_cast<double>(exec_stats->writes.load());
  }
  return snap;
}

void CheckAgreement(bft::RtCluster& cluster, const RunConfig& config, RtRunResult* result) {
  if (config.inject == "state") {
    bft::ReplicaState& victim = cluster.replica(cluster.num_replicas() - 1)->state();
    size_t last = victim.size_bytes() - 1;
    uint8_t flipped = static_cast<uint8_t>(victim.data()[last] ^ 0xff);
    victim.Write(last, bft::ByteView(&flipped, 1));
  }
  // The root digest covers the state as of the last checkpoint; the digest of the raw
  // state memory also covers what executed after it.
  auto digests = [](bft::Replica* r) {
    const bft::ReplicaState& state = r->state();
    return std::make_pair(state.CurrentRootDigest(),
                          bft::ComputeDigest(bft::ByteView(state.data(), state.size_bytes())));
  };
  const bft::Replica* reference = nullptr;
  std::pair<bft::Digest, bft::Digest> reference_digest;
  for (int i = 0; i < cluster.num_replicas(); ++i) {
    bft::Replica* r = cluster.replica(i);
    if (r == nullptr) {
      continue;
    }
    std::pair<bft::Digest, bft::Digest> digest = digests(r);
    if (reference == nullptr) {
      reference = r;
      reference_digest = digest;
      continue;
    }
    if (r->last_executed() != reference->last_executed()) {
      result->violations.push_back("replica " + std::to_string(i) + " executed " +
                                   std::to_string(r->last_executed()) + ", replica " +
                                   std::to_string(reference->id()) + " executed " +
                                   std::to_string(reference->last_executed()));
    } else if (digest != reference_digest) {
      result->violations.push_back("replica " + std::to_string(i) +
                                   " state digest differs at seq " +
                                   std::to_string(r->last_executed()));
    }
  }
}

// Every value a GET returned must have been written for that key: by the preload, or by the
// PUT at that op index of that endpoint's stream.
void CheckReads(const std::vector<std::unique_ptr<LoadEndpoint>>& endpoints,
                RtRunResult* result) {
  for (const auto& d : endpoints) {
    for (const LoadEndpoint::SeenValue& seen : d->seen_values()) {
      const ValueTag& tag = seen.tag;
      bool ok = false;
      if (tag.writer == kPreloadWriter) {
        ok = tag.op_index == tag.key;
      } else if (tag.writer < endpoints.size()) {
        const std::vector<int32_t>& puts = endpoints[tag.writer]->put_keys();
        ok = tag.op_index < puts.size() && puts[tag.op_index] == static_cast<int32_t>(tag.key);
      }
      if (!ok) {
        result->violations.push_back("GET key" + std::to_string(seen.key) +
                                     " returned a value no PUT wrote");
        return;
      }
    }
  }
}

}  // namespace

SetUpCost TimeSetUp(const RunConfig& config) {
  Shared shared;
  SetUpCost cost;
  Live live = SetUp(config, &shared, nullptr, &cost);
  live.cluster->Stop();
  return cost;
}

RtRunResult RunRealClock(const RunConfig& config) {
  RtRunResult result;
  Shared shared;
  ExecuteStats exec_stats;
  ExecuteStats* exec = config.trace ? &exec_stats : nullptr;

  Live live = SetUp(config, &shared, exec, &result.setup);
  bft::RtCluster& cluster = *live.cluster;

  LoopClocks clocks;
  for (int i = 0; i < cluster.num_replicas(); ++i) {
    bft::RtNode* node = dynamic_cast<bft::RtNode*>(cluster.replica(i)->endpoint());
    clocks.replicas.push_back(LoopClock(node));
  }
  for (const auto& d : live.endpoints) {
    clocks.clients.push_back(LoopClock(d->node()));
  }

  const int64_t seconds_ns = static_cast<int64_t>(config.seconds * 1e9);
  const int64_t load_start = NowNs() + 5 * kMs;
  const int64_t warm_end = load_start + static_cast<int64_t>(kWarmupS * 1e9);
  // Trace runs first measure an untraced reference window, then switch tracing on.
  const int64_t ref_ns = config.trace ? std::max<int64_t>(kSec, seconds_ns / 3) : 0;
  result.r0_ns = warm_end;
  result.r1_ns = warm_end + ref_ns;
  result.t0_ns = result.r1_ns;
  result.t1_ns = result.t0_ns + seconds_ns;
  shared.stop_at_ns.store(result.t1_ns);
  for (auto& d : live.endpoints) {
    d->StartLoad(load_start);
  }

  SleepUntilNs(result.t0_ns);
  if (config.trace) {
    cluster.tracer().set_sample_every(1);
    exec_stats.on.store(true, std::memory_order_relaxed);
  }
  result.begin = TakeSnapshot(cluster, exec);
  AddLoopCpu(clocks, &result.begin);

  Snapshot crash_cpu;
  int64_t crash_ns = 0;
  if (config.spec.failover) {
    SleepUntilNs(result.t0_ns + static_cast<int64_t>(kCrashAt * static_cast<double>(seconds_ns)));
    AddLoopCpu(clocks, &crash_cpu);  // the primary's loop dies with it
    crash_ns = NowNs();
    shared.crash_ns.store(crash_ns);
    cluster.CrashReplica(0);
  }
  SleepUntilNs(result.t1_ns);
  result.end = TakeSnapshot(cluster, exec);
  if (config.spec.failover) {
    for (const char* key : {"loop.cpu_wall_ns", "loop.primary_ns", "loop.backups_ns",
                            "loop.clients_ns"}) {
      result.end.values[key] = crash_cpu.values[key];
    }
  } else {
    AddLoopCpu(clocks, &result.end);
  }

  // Drain: ops already due or in flight get up to 10 s to certify; later they count failed.
  int64_t drain_deadline = NowNs() + 10 * kSec;
  for (const auto& d : live.endpoints) {
    while (!d->idle() && NowNs() < drain_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  // The first write due after the crash may certify in the window or during the drain. If
  // none does, the round is a failed failover round: outage_ms and catchup_ms stay -1.
  const int64_t resumed_ns = crash_ns != 0 ? shared.first_write_after_crash_ns.load() : 0;
  if (resumed_ns != 0) {
    result.outage_ms = static_cast<double>(resumed_ns - crash_ns) / 1e6;
    // Restarted into the drained group, whose executed prefix no longer moves, so the figure
    // is the rejoin alone: status exchange, view, checkpoint certificate, state transfer and
    // the log suffix after the checkpoint. A replica restarted while the load runs can start
    // a view change on its own before its state transfer ends and then stays behind the
    // group for good (see README, "A defect the check catches").
    cluster.RestartReplica(0);
    const int64_t restart_ns = NowNs();
    // Still -1 after this, the round is a failed failover round; if the restarted replica
    // never catches up, the settle and agreement checks below fail the run as well.
    result.catchup_ms = WaitCaughtUp(cluster, 0, restart_ns, restart_ns + 10 * kSec);
  }
  result.after_catchup = TakeSnapshot(cluster, exec);
  if (!WaitSettled(cluster, 20 * kSec)) {
    result.violations.push_back("replicas did not settle on one executed prefix after the load");
  }
  cluster.Stop();

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  result.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  CheckAgreement(cluster, config, &result);
  CheckReads(live.endpoints, &result);
  const int64_t first = config.trace ? result.r0_ns : result.t0_ns;
  for (const auto& d : live.endpoints) {
    for (const std::string& v : d->violations()) {
      result.violations.push_back(v);
    }
    result.bad_results += d->bad_results();
    for (const Sample& s : d->samples()) {
      if (s.start_ns >= first && s.start_ns < result.t1_ns) {
        result.samples.push_back(s);
      }
    }
    for (const auto& [due, late] : d->lateness()) {
      if (due >= result.t0_ns && due < result.t1_ns) {
        result.lateness_ns.push_back(late);
      }
    }
  }
  return result;
}

}  // namespace perfbench
