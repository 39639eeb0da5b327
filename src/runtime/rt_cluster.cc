#include "src/runtime/rt_cluster.h"

#include <cassert>
#include <chrono>
#include <cstdio>

#include "src/common/thread_annotations.h"

namespace bft {

RtCluster::RtCluster(RtClusterOptions options, RtServiceFactory factory)
    : options_(options), factory_(std::move(factory)) {
  tracer_.InstallMetrics(&metrics_);
  if (options_.transport == RtClusterOptions::TransportKind::kUdp) {
    transport_ = std::make_unique<UdpTransport>();
  } else {
    transport_ = std::make_unique<InProcTransport>();
  }
  // The fault layer is always in the stack: disarmed it forwards after one relaxed atomic
  // load, so the happy path (and bench_runtime) pays nothing measurable. Formation wraps it,
  // so injected faults hit fully-formed wire datagrams.
  uint64_t fault_seed =
      options_.fault_seed != 0 ? options_.fault_seed : options_.seed ^ 0xfa517fa517fa517bULL;
  auto fault = std::make_unique<FaultTransport>(std::move(transport_), fault_seed);
  fault_ = fault.get();
  transport_ = std::move(fault);
  if (options_.formation) {
    transport_ = std::make_unique<FormationTransport>(std::move(transport_));
  }
  transport_->InstallMetrics(&metrics_);
  for (int i = 0; i < options_.config.n; ++i) {
    NodeId id = options_.config.ReplicaId(i);
    auto node = std::make_unique<RtNode>(id, transport_.get(), options_.seed);
    replica_nodes_.push_back(node.get());
    replicas_.push_back(std::make_unique<Replica>(
        std::move(node), &options_.config, &options_.model, &directory_, factory_(id),
        options_.seed + static_cast<uint64_t>(i)));
    replicas_.back()->InstallObservability(&metrics_, &tracer_);
  }
}

RtCluster::~RtCluster() { Stop(); }

Client* RtCluster::AddClient() {
  if (started_) {
    // Key generation writes the shared directory, which running loops read concurrently;
    // a hard stop beats the silent never-started-loop hang an assert would compile out to.
    std::fprintf(stderr, "RtCluster: AddClient() must precede Start()\n");
    std::abort();
  }
  NodeId id = next_client_id_++;
  auto node = std::make_unique<RtNode>(id, transport_.get(), options_.seed);
  client_nodes_.push_back(node.get());
  clients_.push_back(std::make_unique<Client>(std::move(node), &options_.config,
                                              &options_.model, &directory_,
                                              options_.seed ^ (id * 0x2545f4914f6cdd1dULL)));
  clients_.back()->InstallObservability(&metrics_, &tracer_);
  return clients_.back().get();
}

void RtCluster::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  for (size_t i = 0; i < replicas_.size(); ++i) {
    replicas_[i]->Start();  // arms status (and recovery) timers; loops are not running yet
    replica_nodes_[i]->Start();
  }
  for (RtNode* node : client_nodes_) {
    node->Start();
  }
}

void RtCluster::Stop() {
  for (RtNode* node : client_nodes_) {
    node->Stop();
  }
  for (RtNode* node : replica_nodes_) {
    if (node != nullptr) {  // crashed replicas have no node
      node->Stop();
    }
  }
  started_ = false;
}

void RtCluster::CrashReplica(int i) {
  size_t idx = static_cast<size_t>(i);
  if (replicas_[idx] == nullptr) {
    return;
  }
  // The replica's mac-cache probes capture the object being destroyed, and an admin export
  // may race this crash. Overwrite them (RegisterProbe replaces by name+labels) with the
  // final values first — the totals stay monotonic across the outage, like a scrape of a
  // dead machine's last known counters.
  std::string node = "node=\"" + std::to_string(options_.config.ReplicaId(i)) + "\"";
  uint64_t hits = replicas_[idx]->auth().mac_cache_hits();
  uint64_t misses = replicas_[idx]->auth().mac_cache_misses();
  metrics_.RegisterProbe("bft_mac_cache_hits_total", node, [hits]() { return hits; });
  metrics_.RegisterProbe("bft_mac_cache_misses_total", node, [misses]() { return misses; });
  replica_nodes_[idx] = nullptr;
  // ~Replica closes its endpoint: the loop stops, the node unregisters from the transport
  // (waiting out in-flight deliveries), and all volatile state dies with the object.
  replicas_[idx].reset();
}

void RtCluster::RestartReplica(int i) {
  size_t idx = static_cast<size_t>(i);
  if (replicas_[idx] != nullptr) {
    return;
  }
  NodeId id = options_.config.ReplicaId(i);
  auto node = std::make_unique<RtNode>(id, transport_.get(), options_.seed);
  replica_nodes_[idx] = node.get();
  // Same id and seed as the original: Generate() re-derives the identical key material, so
  // MAC-mode peers (whose session keys hash the static master secret) accept it without any
  // re-keying ceremony. The replica itself starts from view 0 with empty state and learns
  // the group's real view and checkpoint through the status exchange.
  replicas_[idx] = std::make_unique<Replica>(std::move(node), &options_.config,
                                             &options_.model, &directory_, factory_(id),
                                             options_.seed + static_cast<uint64_t>(i));
  replicas_[idx]->InstallObservability(&metrics_, &tracer_);
  if (started_) {
    replicas_[idx]->Start();
    replica_nodes_[idx]->Start();
  }
}

RtNode* RtCluster::NodeOf(const Client* client) {
  for (size_t i = 0; i < clients_.size(); ++i) {
    if (clients_[i].get() == client) {
      return client_nodes_[i];
    }
  }
  return nullptr;
}

std::optional<Bytes> RtCluster::Execute(Client* client, Bytes op, bool read_only,
                                        SimTime timeout) {
  struct Rendezvous {
    Mutex mu;
    CondVar cv;
    std::optional<Bytes> result BFT_GUARDED_BY(mu);
    bool rejected BFT_GUARDED_BY(mu) = false;
  };
  // Shared, not stack-captured: on timeout the client still holds the callback, which may
  // fire after this frame is gone.
  auto rv = std::make_shared<Rendezvous>();
  RtNode* node = NodeOf(client);
  assert(node != nullptr);
  bool posted = node->Post([client, op = std::move(op), read_only, rv]() mutable {
    if (client->busy()) {
      // A previous Execute timed out and its request is still in flight; Invoke allows only
      // one outstanding op per client. Refuse cleanly (checked on the client's own loop
      // thread, where busy_ is safe to read) instead of clobbering the live request.
      MutexLock lock(rv->mu);
      rv->rejected = true;
      rv->cv.NotifyAll();
      return;
    }
    client->Invoke(std::move(op), read_only, [rv](Bytes r) {
      {
        MutexLock lock(rv->mu);
        rv->result = std::move(r);
      }
      rv->cv.NotifyAll();
    });
  });
  if (!posted) {
    return std::nullopt;  // the client's loop is stopped; nothing will ever complete
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::nanoseconds(timeout);
  MutexLock lock(rv->mu);
  while (!rv->result.has_value() && !rv->rejected) {
    if (!rv->cv.WaitUntil(rv->mu, deadline)) {
      break;  // timed out; the final read below sees whatever arrived before the relock
    }
  }
  return rv->result;
}

void RtCluster::RunOn(int i, std::function<void()> fn) {
  struct Rendezvous {
    Mutex mu;
    CondVar cv;
    bool done BFT_GUARDED_BY(mu) = false;
  };
  auto rv = std::make_shared<Rendezvous>();
  RtNode* node = replica_nodes_[static_cast<size_t>(i)];
  if (node == nullptr) {
    return;  // crashed: there is no loop to run on
  }
  bool posted = node->Post([fn = std::move(fn), rv]() {
    fn();
    {
      MutexLock lock(rv->mu);
      rv->done = true;
    }
    rv->cv.NotifyAll();
  });
  if (!posted) {
    return;  // loop stopped: the task was rejected and will never run
  }
  // An accepted post always runs (the loop drains tasks on stop), so waiting until done is
  // safe — and required: `fn` may capture the caller's stack.
  MutexLock lock(rv->mu);
  while (!rv->done) {
    rv->cv.Wait(rv->mu);
  }
}

HealthSnapshot RtCluster::Health() {
  HealthSnapshot snapshot;
  int n = num_replicas();
  snapshot.replicas.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    ReplicaHealth& row = snapshot.replicas[static_cast<size_t>(i)];
    // Default row: crashed (RunOn no-ops, leaving running=false). The id is filled here so
    // a down replica is still identifiable in the document.
    row.id = options_.config.ReplicaId(i);
    if (replicas_[static_cast<size_t>(i)] == nullptr) {
      continue;  // crashed: row stays running=false
    }
    if (!started_) {
      // Loops are not running (pre-Start or post-Stop); direct reads are single-threaded.
      row = replicas_[static_cast<size_t>(i)]->Health();
      continue;
    }
    RunOn(i, [this, i, &row]() {
      row = replicas_[static_cast<size_t>(i)]->Health();
    });
  }
  snapshot.faults_armed = fault_->armed();
  snapshot.faults_injected = fault_->injected_count();
  return snapshot;
}

}  // namespace bft
