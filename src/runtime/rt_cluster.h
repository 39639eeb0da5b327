// Real-clock harness: a replica group plus clients, each on its own event-loop thread,
// joined by a Transport (loopback UDP sockets or the in-process channel).
//
// The runtime mirror of workload/Cluster. Construction wires every node (key directory,
// services, handlers) single-threaded; Start() then launches all loops at once. Execute()
// posts the operation onto the client's own loop and blocks the calling thread until the
// reply certificate completes or the real-time timeout passes.
#ifndef SRC_RUNTIME_RT_CLUSTER_H_
#define SRC_RUNTIME_RT_CLUSTER_H_

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/core/client.h"
#include "src/core/replica.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/runtime/fault_transport.h"
#include "src/runtime/formation.h"
#include "src/runtime/inproc_transport.h"
#include "src/runtime/rt_node.h"
#include "src/runtime/udp_transport.h"

namespace bft {

struct RtClusterOptions {
  ReplicaConfig config;
  PerfModel model;  // drives CpuMeter bookkeeping only; nothing delays real execution
  uint64_t seed = 42;
  enum class TransportKind { kInProc, kUdp };
  TransportKind transport = TransportKind::kInProc;
  // Wrap the backend in the datagram-formation layer: protocol messages to the same
  // destination coalesce into one framed datagram per event-loop iteration. Orthogonal to
  // the backend choice; pointless (but harmless) over kInProc, which has no syscalls to save.
  bool formation = false;
  // Seed for the fault-injection schedule (see FaultTransport). 0 derives one from `seed`,
  // so deterministic tests can pin the fault stream independently of node RNGs.
  uint64_t fault_seed = 0;
};

class RtCluster {
 public:
  using RtServiceFactory = std::function<std::unique_ptr<Service>(NodeId replica)>;

  RtCluster(RtClusterOptions options, RtServiceFactory factory);
  ~RtCluster();  // stops all loops

  RtCluster(const RtCluster&) = delete;
  RtCluster& operator=(const RtCluster&) = delete;

  // Clients must be added before Start(): key distribution is a construction-time ceremony
  // (as in the paper's setup phase), not a runtime protocol.
  Client* AddClient();

  // Launches every node's event loop. Call once, after all AddClient() calls.
  void Start();
  // Stops and joins every loop. After Stop() returns, replica state may be read directly.
  void Stop();

  // Synchronously executes one operation; `timeout` is real time.
  std::optional<Bytes> Execute(Client* client, Bytes op, bool read_only = false,
                               SimTime timeout = 10 * kSecond);

  // Runs `fn` on `replica(i)`'s loop thread and waits for it — the safe way to inspect live
  // replica state from the harness thread. No-op while replica `i` is crashed.
  void RunOn(int i, std::function<void()> fn);

  // --- Crash / restart (real fail-stop faults) ----------------------------------------------
  // Tears replica `i` down completely: its event loop stops, it unregisters from the
  // transport, and every piece of volatile state — message log, view, checkpoints, service
  // state — is destroyed. In-flight datagrams to it drop, exactly like a machine losing
  // power. Safe to call from the harness thread while the cluster runs; idempotent.
  void CrashReplica(int i);
  // Brings a crashed replica back with a fresh endpoint and empty state, as if rebooted from
  // a blank disk. It rejoins through the paper's protocol: status exchange reveals the
  // current view and stable checkpoint, and state transfer (§4.6) fetches the service state.
  // The same node id and key seed are reused, so session keys re-derive identically.
  void RestartReplica(int i);
  bool replica_running(int i) const {
    return replica_nodes_[static_cast<size_t>(i)] != nullptr;
  }

  // Fault-injection control. Always present in the transport stack (disabled injection is a
  // relaxed atomic load per send); sits under the formation layer so faults hit whole wire
  // datagrams — a corrupt burst exercises the framing decoder, as real bit rot would.
  FaultTransport& faults() { return *fault_; }

  // Null while replica `i` is crashed.
  Replica* replica(int i) { return replicas_[static_cast<size_t>(i)].get(); }
  int num_replicas() const { return options_.config.n; }
  Client* client(size_t i) { return clients_[i].get(); }
  size_t num_clients() const { return clients_.size(); }
  Transport& transport() { return *transport_; }
  const ReplicaConfig& config() const { return options_.config; }

  // Harness-owned observability (see workload/Cluster). Thread-safe: instruments are
  // atomics, the tracer locks internally, so loop threads record while the harness exports.
  MetricsRegistry& metrics() { return metrics_; }
  RequestTracer& tracer() { return tracer_; }

  // The /healthz document: each live replica's row is collected ON its loop thread (RunOn),
  // crashed replicas report running=false. Callable from any thread that is not itself
  // concurrently crashing/restarting replicas — the AdminServer accept thread qualifies,
  // since harness threads block on their HTTP request while this runs.
  HealthSnapshot Health();

 private:
  RtNode* NodeOf(const Client* client);

  RtClusterOptions options_;
  RtServiceFactory factory_;  // kept for RestartReplica
  // Destroyed after the replicas/clients/transport whose instruments point into it.
  MetricsRegistry metrics_;
  RequestTracer tracer_;
  std::unique_ptr<Transport> transport_;
  FaultTransport* fault_ = nullptr;  // borrowed from the transport_ stack
  PublicKeyDirectory directory_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<RtNode*> replica_nodes_;  // borrowed from replicas_' endpoints
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<RtNode*> client_nodes_;   // borrowed from clients_' endpoints
  NodeId next_client_id_ = kClientIdBase;
  bool started_ = false;
};

}  // namespace bft

#endif  // SRC_RUNTIME_RT_CLUSTER_H_
