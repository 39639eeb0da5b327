// Configuration for a BFT replica group.
#ifndef SRC_CORE_CONFIG_H_
#define SRC_CORE_CONFIG_H_

#include <cstdint>
#include <vector>

#include "src/core/clock.h"
#include "src/model/perf_model.h"

namespace bft {

// Replicas use node ids [0, n); clients use ids >= kClientIdBase.
constexpr NodeId kClientIdBase = 1000;

// Default first id of the reserved *admin* client range (see ReplicaConfig::admin_id_base):
// admin clients are ordinary authenticated clients whose id falls at or above this mark.
// Administrative service operations (the MIG_*/REB_* control-plane verbs) execute only for
// admin clients; everyone else gets Service::AccessDeniedResult(). Far above any id a
// harness hands out for regular load clients.
constexpr NodeId kAdminIdBase = 1u << 30;

inline bool IsClientId(NodeId id) { return id >= kClientIdBase; }

struct ReplicaConfig {
  // Group size. |R| = 3f+1; more replicas are tolerated but degrade performance (Section 2.3).
  int n = 4;

  // First node id of this group. Replicas occupy ids [base_id, base_id + n); independent
  // groups sharing one network (sharding, src/shard/) must use disjoint ranges below
  // kClientIdBase. The default 0 preserves the single-group layout.
  NodeId base_id = 0;

  // Reserved admin client-id range: authenticated clients with id >= admin_id_base may issue
  // administrative service operations (Service::IsAdminOp — the MIG_* migration verbs and
  // REB_* rebalance queries). Replicas reject admin ops from any other client with
  // Service::AccessDeniedResult() *before* the service executes them, so a Byzantine — or
  // merely buggy — regular client cannot seal, purge, or move a bucket. The check is pure
  // config + request, hence deterministic across the group.
  NodeId admin_id_base = kAdminIdBase;
  bool IsAdminClient(NodeId id) const { return id >= admin_id_base; }
  int f() const { return (n - 1) / 3; }
  int quorum() const { return 2 * f() + 1; }       // quorum certificate size
  int weak() const { return f() + 1; }             // weak certificate size

  // BFT (MACs) vs BFT-PK (signatures).
  AuthMode auth_mode = AuthMode::kMac;

  // Garbage collection (Section 2.3.4): checkpoints every K requests; log spans L = 2K.
  uint64_t checkpoint_period = 128;
  uint64_t log_size = 256;

  // --- Optimizations (Section 5.1), all individually toggleable for the ablation bench ------
  bool tentative_execution = true;
  bool digest_replies = true;
  size_t digest_reply_threshold = 32;              // bytes; smaller results are sent by all
  bool read_only_optimization = true;
  bool batching = true;
  size_t max_batch_requests = 16;                  // request digests per pre-prepare (Fig 6-1)
  size_t max_batch_bytes = 8192;
  // Sliding window: pre-prepared batches the primary has not yet executed (tentatively or
  // not). At 1, requests that arrive while a batch is open form the next batch.
  size_t batch_window = 1;
  size_t separate_transmission_threshold = 255;    // bytes; larger requests multicast by client

  // --- Timers -------------------------------------------------------------------------------
  SimTime view_change_timeout = 50 * kMillisecond;  // T; doubles per consecutive view change
  // Backoff cap: the paper doubles without bound until an operation executes; a cap bounds
  // how long a healed group takes to converge after a long quorum-less outage.
  SimTime max_view_change_timeout = 10 * kSecond;
  SimTime status_interval = 20 * kMillisecond;
  SimTime client_retry_timeout = 150 * kMillisecond;
  SimTime max_client_retry_timeout = 10 * kSecond;

  // --- Service state / checkpointing --------------------------------------------------------
  size_t page_size = 4096;
  size_t state_pages = 256;                        // service state = state_pages * page_size
  size_t partition_branching = 16;                 // children per internal partition ("s")

  // --- Proactive recovery (Chapter 4) --------------------------------------------------------
  bool proactive_recovery = false;
  SimTime watchdog_period = 80 * kSecond;          // Tw
  SimTime key_refresh_period = 15 * kSecond;       // Tk
  SimTime recovery_reboot_time = 30 * kSecond;     // simulated reboot + code check

  // Node id of the group member at `index` in [0, n).
  NodeId ReplicaId(int index) const { return base_id + static_cast<NodeId>(index); }

  bool IsReplicaMember(NodeId id) const {
    return id >= base_id && id < base_id + static_cast<NodeId>(n);
  }

  // Position of a member id within the group; only meaningful when IsReplicaMember(id).
  int ReplicaIndex(NodeId id) const { return static_cast<int>(id - base_id); }

  std::vector<NodeId> ReplicaIds() const {
    std::vector<NodeId> ids;
    ids.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      ids.push_back(ReplicaId(i));
    }
    return ids;
  }

  NodeId PrimaryOf(uint64_t view) const { return ReplicaId(static_cast<int>(view % n)); }
};

// Per-client retransmission tuning (the Section 5.2 randomized exponential backoff). Zero
// fields inherit the group-wide ReplicaConfig timers, so existing harnesses are unchanged;
// chaos and load harnesses tighten the base/cap per client without touching the shared
// group config every replica also reads.
struct ClientConfig {
  SimTime retry_timeout = 0;      // backoff base; 0 = ReplicaConfig::client_retry_timeout
  SimTime max_retry_timeout = 0;  // backoff cap; 0 = ReplicaConfig::max_client_retry_timeout
  SimTime retry_jitter = 10 * kMillisecond;  // uniform extra per doubling (0 = deterministic)
};

}  // namespace bft

#endif  // SRC_CORE_CONFIG_H_
