// Fault-injecting transport decorator for the real-clock runtime.
//
// Wraps any Transport (udp, inproc — and stacks under the formation layer) and
// injects per-link drop / delay / duplicate / reorder / corrupt faults plus bidirectional
// partitions, driven by a deterministic seeded schedule. The paper's correctness argument
// (Castro & Liskov, OSDI'99 §4.4–4.6) is exactly a claim about behavior under these faults;
// this is the layer that lets the real runtime experience them on demand.
//
// Design constraints, in order:
//  - Disabled must be free: every fault setter recomputes one `armed_` atomic, and the
//    unarmed Send/Multicast path is a relaxed load plus the inner virtual call. RtCluster
//    stacks this transport unconditionally, so bench_runtime rides through it.
//  - Fault decisions happen on the SEND side, where both link endpoints are known (datagrams
//    carry no sender identity, so a receive-side decorator could not be per-link).
//  - Delayed/reordered datagrams are delivered by a private timer thread straight into the
//    destination's registered MessageSink, not re-sent through inner_. The faults model the
//    wire, and the sink is where the wire terminates; skipping the inner hop also keeps a
//    held datagram from being counted, re-formed or re-faulted a second time.
//  - Determinism: each (src, dst) link owns an Rng seeded from (seed, src, dst), consumed
//    only by that link's Send calls. A single-threaded sender therefore produces an
//    identical injected-fault log for the same seed and schedule (asserted in rt_fault_test).
#ifndef SRC_RUNTIME_FAULT_TRANSPORT_H_
#define SRC_RUNTIME_FAULT_TRANSPORT_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <queue>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_annotations.h"
#include "src/runtime/transport.h"

namespace bft {

class Counter;

// Per-link fault probabilities and latencies. All-zero (the default) injects nothing.
struct FaultSpec {
  double drop = 0.0;       // P(datagram silently dropped)
  double corrupt = 0.0;    // P(1–8 payload bytes flipped; strict decoders must reject)
  double duplicate = 0.0;  // P(datagram delivered twice)
  double reorder = 0.0;    // P(datagram held for reorder_window so later sends overtake it)
  SimTime delay = 0;       // fixed added one-way latency
  SimTime delay_jitter = 0;            // plus uniform [0, delay_jitter)
  SimTime reorder_window = 2 * kMillisecond;

  bool Quiet() const {
    return drop == 0.0 && corrupt == 0.0 && duplicate == 0.0 && reorder == 0.0 && delay == 0 &&
           delay_jitter == 0;
  }
};

enum class FaultKind : uint8_t { kDrop, kDelay, kDuplicate, kReorder, kCorrupt, kPartition };
const char* FaultKindName(FaultKind kind);

// One injected fault, in send order per link (and globally whenever sends are serialized).
struct FaultEvent {
  FaultKind kind;
  NodeId src;
  NodeId dst;

  bool operator==(const FaultEvent& other) const = default;
};

class FaultTransport final : public Transport {
 public:
  explicit FaultTransport(std::unique_ptr<Transport> inner, uint64_t seed = 0);
  ~FaultTransport() override;

  // --- Control API (thread-safe, callable at any time while the cluster runs) --------------
  // Applies to every link without a per-link override.
  void SetDefaultFaults(const FaultSpec& spec);
  // Overrides the default for the directed link src -> dst.
  void SetLinkFaults(NodeId src, NodeId dst, const FaultSpec& spec);
  // Removes all default and per-link fault specs (partitions persist until Heal()).
  void ClearFaults();
  // Bidirectional partition: datagrams between a member of `group` and a non-member drop,
  // both directions. Replaces any previous partition. An empty group is a no-op cut.
  void Partition(const std::vector<NodeId>& group);
  // Removes the partition.
  void Heal();

  // Total faults injected since construction (cheap; for harness progress checks).
  uint64_t injected_count() const { return injected_.load(std::memory_order_relaxed); }
  // True while any fault schedule is active (the /healthz "fault injection armed" signal).
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  // The injected-fault log, in decision order per sending thread. Bounded (old entries stop
  // accumulating past kMaxLogEvents); determinism tests read it, chaos reports summarize it.
  std::vector<FaultEvent> FaultLog() const;
  void ClearFaultLog();

  Transport* inner() { return inner_.get(); }

  // --- Transport --------------------------------------------------------------------------
  void Register(NodeId id, MessageSink* sink) override;
  void Unregister(NodeId id) override;
  void Send(NodeId src, NodeId dst, MsgBuffer message) override;
  void Multicast(NodeId src, const std::vector<NodeId>& dsts, const MsgBuffer& message) override;
  void Flush(NodeId src) override { inner_->Flush(src); }
  void InstallMetrics(MetricsRegistry* registry) override;
  int ReceiveFd(NodeId id) const override { return inner_->ReceiveFd(id); }
  void Drain(NodeId id) override { inner_->Drain(id); }

 private:
  static constexpr size_t kMaxLogEvents = 1 << 16;

  struct Pending {
    std::chrono::steady_clock::time_point due;
    uint64_t tie;  // FIFO among equal deadlines
    NodeId dst;
    MsgBuffer message;
  };
  struct PendingLater {
    bool operator()(const Pending& a, const Pending& b) const {
      return a.due != b.due ? a.due > b.due : a.tie > b.tie;
    }
  };

  static uint64_t LinkKey(NodeId src, NodeId dst) {
    return (static_cast<uint64_t>(src) << 32) | dst;
  }

  // All Locked helpers require mu_.
  const FaultSpec* SpecForLocked(NodeId src, NodeId dst) const BFT_REQUIRES(mu_);
  Rng& RngForLocked(NodeId src, NodeId dst) BFT_REQUIRES(mu_);
  void RecordLocked(FaultKind kind, NodeId src, NodeId dst) BFT_REQUIRES(mu_);
  void RecomputeArmedLocked() BFT_REQUIRES(mu_);

  void SendFaulty(NodeId src, NodeId dst, MsgBuffer message);
  void ScheduleDelivery(NodeId dst, MsgBuffer message, SimTime hold);
  void DeliverDirect(NodeId dst, MsgBuffer message);
  void DelayLoop();

  std::unique_ptr<Transport> inner_;
  const uint64_t seed_;
  std::atomic<bool> armed_{false};
  std::atomic<uint64_t> injected_{0};

  // Registered sinks; shared for delivery lookups, exclusive for (un)registration. The
  // exclusive acquisition in Unregister doubles as the barrier that waits out an in-flight
  // delayed delivery before the caller may destroy the sink.
  mutable SharedMutex sinks_mu_;
  std::unordered_map<NodeId, MessageSink*> sinks_ BFT_GUARDED_BY(sinks_mu_);

  // Fault configuration + per-link RNG streams + log.
  mutable Mutex mu_;
  bool has_default_ BFT_GUARDED_BY(mu_) = false;
  FaultSpec default_spec_ BFT_GUARDED_BY(mu_);
  std::unordered_map<uint64_t, FaultSpec> link_specs_ BFT_GUARDED_BY(mu_);
  bool partitioned_ BFT_GUARDED_BY(mu_) = false;
  std::unordered_set<NodeId> partition_ BFT_GUARDED_BY(mu_);
  std::unordered_map<uint64_t, Rng> link_rngs_ BFT_GUARDED_BY(mu_);
  std::vector<FaultEvent> log_ BFT_GUARDED_BY(mu_);

  // Held-back datagrams (delay / reorder / duplicate-with-delay). The thread starts lazily
  // on the first hold and exits in the destructor, which moves the handle out under the lock
  // and joins it unlocked (joining under delay_mu_ would deadlock against DelayLoop).
  Mutex delay_mu_;
  CondVar delay_cv_;
  std::priority_queue<Pending, std::vector<Pending>, PendingLater> held_ BFT_GUARDED_BY(delay_mu_);
  uint64_t next_tie_ BFT_GUARDED_BY(delay_mu_) = 0;
  bool delay_stop_ BFT_GUARDED_BY(delay_mu_) = false;
  std::thread delay_thread_ BFT_GUARDED_BY(delay_mu_);

  struct Obs {
    Counter* drop = nullptr;
    Counter* delay = nullptr;
    Counter* duplicate = nullptr;
    Counter* reorder = nullptr;
    Counter* corrupt = nullptr;
    Counter* partition = nullptr;
  };
  Obs obs_;
};

}  // namespace bft

#endif  // SRC_RUNTIME_FAULT_TRANSPORT_H_
