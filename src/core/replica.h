// The BFT replica automaton (Chapters 2-5).
//
// Implements the three-phase normal-case protocol with batching and the Section 5.1
// optimizations, garbage collection via checkpoints, the MAC-based view-change protocol with
// view-change-acks and the Fig 3-3 decision procedure, status-message retransmission,
// hierarchical state transfer, and (when enabled) proactive recovery.
#ifndef SRC_CORE_REPLICA_H_
#define SRC_CORE_REPLICA_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/core/auth.h"
#include "src/core/config.h"
#include "src/core/endpoint.h"
#include "src/core/messages.h"
#include "src/core/state.h"
#include "src/core/view_change.h"
#include "src/obs/health.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/service/service.h"

namespace bft {

class Replica {
 public:
  // The replica owns its endpoint; it installs itself as the message handler and from then
  // on speaks only to the Endpoint seam (sends, timers, clock, CPU meter).
  Replica(std::unique_ptr<Endpoint> endpoint, const ReplicaConfig* config,
          const PerfModel* model, PublicKeyDirectory* directory,
          std::unique_ptr<Service> service, uint64_t seed);
  ~Replica();

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  // Starts periodic timers (status; watchdog if proactive recovery is on).
  void Start();

  void OnMessage(MsgBuffer message);

  NodeId id() const { return ep_->id(); }
  CpuMeter& cpu() { return ep_->cpu(); }
  Endpoint* endpoint() { return ep_.get(); }

  // --- Introspection -------------------------------------------------------------------------
  View view() const { return view_; }
  bool view_active() const { return view_active_; }
  bool is_primary() const { return config_->PrimaryOf(view_) == id() && view_active_; }
  SeqNo last_executed() const { return last_exec_; }
  SeqNo last_tentative_executed() const { return last_tentative_exec_; }
  SeqNo low_water() const { return low_; }
  bool transfer_active() const { return transfer_active_; }

  // One row of the /healthz document: plain integers, so harnesses can copy it off-loop.
  ReplicaHealth Health() const {
    ReplicaHealth h;
    h.id = id();
    h.running = true;
    h.view = view_;
    h.view_active = view_active_;
    h.last_stable = low_;
    h.high_water = low_ + config_->log_size;
    h.last_executed = last_exec_;
    h.transfer_active = transfer_active_;
    return h;
  }
  Service* service() { return service_.get(); }
  ReplicaState& state() { return state_; }
  AuthContext& auth() { return auth_; }

  struct Stats {
    uint64_t requests_executed = 0;
    uint64_t batches_executed = 0;
    uint64_t view_changes_started = 0;
    uint64_t new_views_entered = 0;
    uint64_t checkpoints_taken = 0;
    uint64_t stable_checkpoints = 0;
    uint64_t state_transfers = 0;
    uint64_t pages_fetched = 0;
    uint64_t rollbacks = 0;
    uint64_t recoveries = 0;          // completed
    uint64_t recoveries_started = 0;
    SimTime last_recovery_duration = 0;
    uint64_t rejected_auth = 0;
  };
  const Stats& stats() const { return stats_; }

  // Re-resolves this replica's instruments into `registry` (labeled node="<id>") and attaches
  // `tracer` (may be null) for request-phase stamping. The constructor wires the process-wide
  // default registry, so increments are always valid; harnesses call this — single-threaded,
  // before Start() — to collect their replicas into a registry they own and export.
  void InstallObservability(MetricsRegistry* registry, RequestTracer* tracer);

  // --- Fault injection (tests / examples) -----------------------------------------------------
  // Stops processing and sending entirely (fail-stop crash).
  void Crash();
  // Crash + drop volatile protocol state, keeping only the service state (used with recovery).
  bool crashed() const { return crashed_; }
  // When set, the replica stays silent (receives but never sends) — a "mute" Byzantine fault.
  void SetMute(bool mute) { mute_ = mute; }
  // Corrupts `count` pages of the service state without telling the protocol (an attacker who
  // scribbled on memory); recovery's state checking must detect and repair this.
  void CorruptStatePages(size_t count);

  // Triggers proactive recovery immediately (also fired by the watchdog timer).
  void StartRecovery();

  // Forces a view change (used by tests and by recovering primaries).
  void ForceViewChange();

 private:
  struct LogEntry {
    std::optional<PrePrepareMsg> pre_prepare;
    Digest d;                 // batch digest of the accepted pre-prepare
    View pp_view = 0;         // view of the accepted pre-prepare
    std::map<NodeId, PrepareMsg> prepares;
    std::map<NodeId, CommitMsg> commits;
    bool sent_prepare = false;
    bool sent_commit = false;
    bool prepared = false;
    bool committed = false;
    bool executed_tentative = false;
    bool executed_committed = false;
    bool is_null = false;  // null request installed by a new-view
  };

  // --- Dispatch (one overload per message type, driven by std::visit) --------------------------
  void Dispatch(RequestMsg m);
  void Dispatch(ReplyMsg m);
  void Dispatch(PrePrepareMsg m);
  void Dispatch(PrepareMsg m);
  void Dispatch(CommitMsg m);
  void Dispatch(CheckpointMsg m);
  void Dispatch(ViewChangeMsg m);
  void Dispatch(ViewChangeAckMsg m);
  void Dispatch(NewViewMsg m);
  void Dispatch(StatusMsg m);
  void Dispatch(FetchMsg m);
  void Dispatch(MetaDataMsg m);
  void Dispatch(DataMsg m);
  void Dispatch(BatchFetchMsg m);
  void Dispatch(BatchReplyMsg m);
  void Dispatch(NewKeyMsg m);
  void Dispatch(QueryStableMsg m);
  void Dispatch(ReplyStableMsg m);

  // --- Message handlers ------------------------------------------------------------------------
  void HandleRequest(RequestMsg m);
  void HandlePrePrepare(PrePrepareMsg m);
  void HandlePrepare(PrepareMsg m);
  void HandleCommit(CommitMsg m);
  void HandleCheckpoint(CheckpointMsg m);
  void HandleViewChange(ViewChangeMsg m);
  void HandleViewChangeAck(ViewChangeAckMsg m);
  void HandleNewView(NewViewMsg m);
  void HandleStatus(StatusMsg m);
  void HandleFetch(FetchMsg m);
  void HandleMetaData(MetaDataMsg m);
  void HandleData(DataMsg m);
  void HandleBatchFetch(BatchFetchMsg m);
  void HandleBatchReply(BatchReplyMsg m);
  void HandleNewKey(NewKeyMsg m);
  void HandleQueryStable(QueryStableMsg m);
  void HandleReplyStable(ReplyStableMsg m);
  void HandleReply(ReplyMsg m);  // recovery request replies

  // --- Normal case -------------------------------------------------------------------------------
  bool InWatermarks(SeqNo n) const { return n > low_ && n <= low_ + config_->log_size; }
  LogEntry& Entry(SeqNo n) { return log_[n]; }
  void TrySendPrePrepare();
  bool BatchRequestsAvailable(const PrePrepareMsg& pp) const;
  void AcceptPrePrepare(const PrePrepareMsg& pp);
  void TryPrepared(SeqNo n);
  void TryCommitted(SeqNo n);
  void TryExecute();
  void ExecuteBatch(SeqNo n, bool tentative);
  void SendReply(NodeId client, const ReplyMsg& reply);
  void MaybeTakeCheckpoint(SeqNo n);
  // Sets the bft_checkpoint_page_copies gauge (at checkpoint events, never per op).
  void PublishCheckpointCopies();
  void OnCheckpointCommitted(SeqNo n);
  void TryStable(SeqNo n);
  void CollectGarbage(SeqNo new_low);
  Bytes EncodeLastReplies() const;
  void DecodeLastReplies(ByteView raw);
  void ProcessPendingPrePrepares();
  void DrainReadOnlyQueue();
  void ExecuteReadOnly(const RequestMsg& req);

  // --- View changes --------------------------------------------------------------------------------
  void StartViewChange(View new_view);
  void SendViewChange();
  std::vector<SeqObservation> CollectLogObservations(View leaving_view) const;
  void MaybeAckViewChange(const ViewChangeMsg& m);
  void TryAcceptViewChange(View v, NodeId sender);
  void PrimaryTryNewView();
  void ProcessNewView(const NewViewMsg& nv, const std::map<NodeId, ViewChangeMsg>& s);
  bool HavePayload(const Digest& d) const;
  void InstallChosenBatches(const NewViewMsg& nv);
  void EnterView(View v);
  void StartViewChangeTimer();
  void StopViewChangeTimer();
  void OnViewChangeTimeout();
  // Starts the pending-view timer once 2f+1 view-change messages arrived (liveness rule 1).
  void MaybeStartPendingTimer();

  // --- Retransmission ----------------------------------------------------------------------------
  void SendStatus();
  void OnStatusTimer();

  // --- State transfer ------------------------------------------------------------------------------
  void MaybeStartStateTransfer(SeqNo target, const Digest& full_digest);
  void FetchNextPartition();
  void FinishStateTransfer();
  void AbortStateTransfer();

  // --- Recovery (Chapter 4) -------------------------------------------------------------------------
  void OnWatchdog();
  void OnKeyRefresh();
  void ContinueRecoveryAfterReboot();
  void RecomputeEstimation();
  void SendRecoveryRequest();
  void CheckRecoveryComplete();
  void SendNewKey();
  void RunStateCheck();

  // --- Helpers ----------------------------------------------------------------------------------------
  // Fills msg.auth in place and multicasts; callers that log the message for retransmission
  // must store it *after* this call so the stored copy carries the authenticator.
  template <typename M>
  void AuthAndMulticast(M& msg);
  template <typename M>
  void AuthAndSend(NodeId dst, M msg);
  // Retransmits one of our own multicast-authenticated messages point-to-point, regenerating
  // the authenticator with the *latest* session keys (Section 5.2 — liveness under frequent
  // key changes requires re-authentication, not replay).
  template <typename M>
  void ResendOwn(NodeId dst, M msg);
  bool VerifyFromReplica(NodeId sender, ByteView content, ByteView auth);
  bool VerifyFromAny(NodeId sender, ByteView content, ByteView auth);
  NodeId primary() const { return config_->PrimaryOf(view_); }
  std::vector<NodeId> OtherReplicas() const;

  // --- Observability ----------------------------------------------------------------------
  // Stamps `phase` for every sampled request in the batch identified by `d` (no-op when
  // tracing is off — one relaxed load and a branch).
  void TraceBatch(TracePhase phase, const Digest& d);
  void TraceRequest(TracePhase phase, NodeId client, uint64_t timestamp) {
    if (tracer_ != nullptr && tracer_->enabled() && tracer_->Sampled(client, timestamp)) {
      tracer_->Stamp(phase, client, timestamp, Now());
    }
  }

  // --- Endpoint seam shims (keep protocol code terse) -------------------------------------
  SimTime Now() const { return ep_->Now(); }
  void SendTo(NodeId dst, MsgBuffer msg) {
    obs_.bytes_out->Inc(msg.size());
    ep_->Send(dst, std::move(msg));
  }
  void MulticastTo(const std::vector<NodeId>& dsts, const MsgBuffer& msg) {
    obs_.bytes_out->Inc(msg.size());
    ep_->Multicast(dsts, msg);
  }
  Endpoint::TimerId SetTimer(SimTime delay, std::function<void()> fn) {
    return ep_->SetTimer(delay, std::move(fn));
  }
  void CancelTimer(Endpoint::TimerId id) { ep_->CancelTimer(id); }
  void CancelAllTimers() { ep_->CancelAllTimers(); }
  void Detach() { ep_->Detach(); }
  void Reattach() { ep_->Reattach(); }

  std::unique_ptr<Endpoint> ep_;
  const ReplicaConfig* config_;
  const PerfModel* model_;
  std::unique_ptr<Service> service_;
  AuthContext auth_;
  ReplicaState state_;
  Rng rng_;
  Stats stats_;

  // Pre-resolved instruments (see InstallObservability): the hot path pays one relaxed
  // atomic add per event, never a registry lookup. Multicasts count once per protocol send,
  // not per destination — the transport layer counts datagrams.
  struct Obs {
    Counter* msg_in[kNumMsgTypes + 1] = {};
    Counter* msg_out[kNumMsgTypes + 1] = {};
    Counter* bytes_in = nullptr;
    Counter* bytes_out = nullptr;
    Counter* dropped_undecodable = nullptr;
    Counter* dropped_duplicate = nullptr;
    Counter* request_replays = nullptr;
    Counter* auth_rejected = nullptr;
    Counter* view_changes = nullptr;
    Counter* new_views = nullptr;
    Counter* checkpoints = nullptr;
    Counter* stable_checkpoints = nullptr;
    Counter* state_transfers = nullptr;
    Counter* state_fetches = nullptr;
    Counter* state_pages = nullptr;
    Counter* batches_executed = nullptr;
    Counter* requests_executed = nullptr;
    Counter* rollbacks = nullptr;
    Gauge* view = nullptr;
    Gauge* last_executed = nullptr;
    Gauge* checkpoint_page_copies = nullptr;
    Histogram* batch_size = nullptr;
  };
  Obs obs_;
  RequestTracer* tracer_ = nullptr;

  // Protocol state.
  View view_ = 0;
  bool view_active_ = true;  // view 0 starts active
  SeqNo seqno_ = 0;          // primary: last assigned sequence number
  SeqNo low_ = 0;            // h: last stable checkpoint
  SeqNo last_exec_ = 0;      // last committed-and-executed sequence number
  SeqNo last_tentative_exec_ = 0;
  SeqNo last_prepared_seq_ = 0;  // highest sequence number ever prepared here
  std::map<SeqNo, LogEntry> log_;

  // Request buffering.
  std::unordered_map<Digest, RequestMsg, DigestHasher> requests_;
  std::deque<Digest> request_queue_;                    // FIFO batching queue
  std::map<NodeId, uint64_t> queued_timestamp_;         // one outstanding request per client
  std::unordered_map<Digest, BatchPayload, DigestHasher> batch_store_;
  std::vector<PrePrepareMsg> pending_pps_;              // pre-prepares awaiting request bodies
  std::deque<RequestMsg> ro_queue_;                     // read-only ops awaiting quiescence

  // Exactly-once semantics: last reply sent to each client.
  std::map<NodeId, ReplyMsg> last_reply_;

  // Checkpoint certificates.
  std::map<SeqNo, std::map<NodeId, CheckpointMsg>> checkpoint_msgs_;
  std::map<SeqNo, Digest> pending_checkpoint_digest_;  // our own digests awaiting commit

  // View-change state.
  PqState pq_;
  std::map<View, std::map<NodeId, ViewChangeMsg>> vc_msgs_;           // verified VCs per view
  std::map<View, std::map<NodeId, std::set<NodeId>>> vc_acks_;        // acks per vc sender
  std::map<View, std::map<NodeId, ViewChangeMsg>> vc_unverified_;     // awaiting acks
  std::map<View, std::map<NodeId, ViewChangeMsg>> vc_accepted_;       // S sets (acked)
  std::optional<NewViewMsg> pending_new_view_;
  std::map<View, NewViewMsg> sent_new_view_;   // primary: new-view we sent, for retransmission
  Endpoint::TimerId vc_timer_ = 0;
  bool vc_timer_running_ = false;
  SimTime vc_timeout_;
  uint64_t batches_at_timer_start_ = 0;
  std::set<Digest> wanted_payloads_;

  // State transfer.
  bool transfer_active_ = false;
  SeqNo transfer_target_ = 0;
  Digest transfer_full_digest_;
  Bytes transfer_extra_;
  Digest transfer_root_digest_;
  bool transfer_have_root_ = false;
  bool transfer_checking_ = false;  // recovery state check: compare instead of blind fetch
  bool state_check_pending_ = false;
  bool transfer_grace_pending_ = false;
  struct PendingPart {
    uint32_t level;
    uint64_t index;
    SeqNo lm;
    Digest d;
  };
  std::deque<PendingPart> transfer_queue_;
  std::optional<PendingPart> transfer_inflight_;
  uint64_t transfer_nonce_ = 0;
  Endpoint::TimerId transfer_timer_ = 0;
  SimTime transfer_started_at_ = 0;

  // Latest stable checkpoint observed elsewhere (candidate state-transfer target).
  SeqNo observed_stable_seq_ = 0;
  Digest observed_stable_digest_;

  // Recovery.
  bool recovering_ = false;
  bool recovery_estimating_ = false;  // estimation phase: only new-key/query/status handled
  SeqNo recovery_max_seq_ = 0;        // Hm: estimated high-water bound
  SeqNo recovery_point_ = 0;          // Hr
  bool recovery_point_known_ = false;
  uint64_t recovery_nonce_ = 0;
  std::map<NodeId, std::pair<SeqNo, SeqNo>> est_replies_;  // min c, max p per replica
  uint64_t recovery_request_ts_ = 0;
  std::map<NodeId, ReplyMsg> recovery_replies_;
  SimTime recovery_started_at_ = 0;
  uint64_t monotonic_counter_ = 0;          // secure co-processor counter
  std::map<NodeId, uint64_t> peer_counters_;  // anti-replay for NEW-KEY

  bool crashed_ = false;
  bool mute_ = false;
  Endpoint::TimerId status_timer_ = 0;
};

template <typename M>
void Replica::AuthAndMulticast(M& msg) {
  if (crashed_) {
    return;
  }
  msg.auth = auth_.GenAuthMulticast(msg.AuthContent(), &cpu());
  if (mute_) {
    return;  // a mute replica still authenticates (so its own log is consistent), never sends
  }
  obs_.msg_out[static_cast<size_t>(MsgTypeTrait<M>::value)]->Inc();
  MulticastTo(OtherReplicas(), EncodeMessage(Message(msg)));
}

template <typename M>
void Replica::AuthAndSend(NodeId dst, M msg) {
  if (mute_ || crashed_) {
    return;
  }
  msg.auth = auth_.GenAuthPoint(dst, msg.AuthContent(), &cpu());
  obs_.msg_out[static_cast<size_t>(MsgTypeTrait<M>::value)]->Inc();
  SendTo(dst, EncodeMessage(Message(std::move(msg))));
}

template <typename M>
void Replica::ResendOwn(NodeId dst, M msg) {
  if (mute_ || crashed_) {
    return;
  }
  // MACs are regenerated so retransmissions carry the latest session keys; signatures never
  // go stale (BFT-PK), so re-signing would only burn CPU.
  if (auth_.mode() == AuthMode::kMac || msg.auth.empty()) {
    msg.auth = auth_.GenAuthMulticast(msg.AuthContent(), &cpu());
  }
  obs_.msg_out[static_cast<size_t>(MsgTypeTrait<M>::value)]->Inc();
  SendTo(dst, EncodeMessage(Message(std::move(msg))));
}

}  // namespace bft

#endif  // SRC_CORE_REPLICA_H_
