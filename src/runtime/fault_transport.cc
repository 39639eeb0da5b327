#include "src/runtime/fault_transport.h"

#include "src/obs/metrics.h"

namespace bft {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDrop:
      return "drop";
    case FaultKind::kDelay:
      return "delay";
    case FaultKind::kDuplicate:
      return "duplicate";
    case FaultKind::kReorder:
      return "reorder";
    case FaultKind::kCorrupt:
      return "corrupt";
    case FaultKind::kPartition:
      return "partition";
  }
  return "unknown";
}

FaultTransport::FaultTransport(std::unique_ptr<Transport> inner, uint64_t seed)
    : inner_(std::move(inner)), seed_(seed) {
  InstallMetrics(&MetricsRegistry::Process());
}

FaultTransport::~FaultTransport() {
  std::thread delay_thread;
  {
    MutexLock lock(delay_mu_);
    delay_stop_ = true;
    delay_thread = std::move(delay_thread_);
  }
  delay_cv_.NotifyAll();
  if (delay_thread.joinable()) {
    delay_thread.join();
  }
}

void FaultTransport::InstallMetrics(MetricsRegistry* registry) {
  obs_.drop = registry->GetCounter("bft_fault_injected_total", "kind=\"drop\"");
  obs_.delay = registry->GetCounter("bft_fault_injected_total", "kind=\"delay\"");
  obs_.duplicate = registry->GetCounter("bft_fault_injected_total", "kind=\"duplicate\"");
  obs_.reorder = registry->GetCounter("bft_fault_injected_total", "kind=\"reorder\"");
  obs_.corrupt = registry->GetCounter("bft_fault_injected_total", "kind=\"corrupt\"");
  obs_.partition = registry->GetCounter("bft_fault_injected_total", "kind=\"partition\"");
  inner_->InstallMetrics(registry);
}

// ---- Control API -----------------------------------------------------------------------

void FaultTransport::SetDefaultFaults(const FaultSpec& spec) {
  MutexLock lock(mu_);
  default_spec_ = spec;
  has_default_ = true;
  RecomputeArmedLocked();
}

void FaultTransport::SetLinkFaults(NodeId src, NodeId dst, const FaultSpec& spec) {
  MutexLock lock(mu_);
  link_specs_[LinkKey(src, dst)] = spec;
  RecomputeArmedLocked();
}

void FaultTransport::ClearFaults() {
  MutexLock lock(mu_);
  has_default_ = false;
  default_spec_ = FaultSpec{};
  link_specs_.clear();
  RecomputeArmedLocked();
}

void FaultTransport::Partition(const std::vector<NodeId>& group) {
  MutexLock lock(mu_);
  partition_.clear();
  partition_.insert(group.begin(), group.end());
  partitioned_ = true;
  RecomputeArmedLocked();
}

void FaultTransport::Heal() {
  MutexLock lock(mu_);
  partition_.clear();
  partitioned_ = false;
  RecomputeArmedLocked();
}

std::vector<FaultEvent> FaultTransport::FaultLog() const {
  MutexLock lock(mu_);
  return log_;
}

void FaultTransport::ClearFaultLog() {
  MutexLock lock(mu_);
  log_.clear();
}

void FaultTransport::RecomputeArmedLocked() {
  bool armed = partitioned_ || (has_default_ && !default_spec_.Quiet());
  if (!armed) {
    for (const auto& [key, spec] : link_specs_) {
      if (!spec.Quiet()) {
        armed = true;
        break;
      }
    }
  }
  armed_.store(armed, std::memory_order_relaxed);
}

// ---- Registration ----------------------------------------------------------------------

void FaultTransport::Register(NodeId id, MessageSink* sink) {
  // The sink goes to the inner transport unchanged — faults are decided on the send side, so
  // the receive path needs no wrapper. The private map only serves held-back deliveries.
  {
    WriterMutexLock lock(sinks_mu_);
    sinks_[id] = sink;
  }
  inner_->Register(id, sink);
}

void FaultTransport::Unregister(NodeId id) {
  // Purge held datagrams addressed to the departing node so the delay thread cannot start a
  // new delivery for it, ...
  {
    MutexLock lock(delay_mu_);
    std::priority_queue<Pending, std::vector<Pending>, PendingLater> kept;
    while (!held_.empty()) {
      Pending p = std::move(const_cast<Pending&>(held_.top()));
      held_.pop();
      if (p.dst != id) {
        kept.push(std::move(p));
      }
    }
    held_ = std::move(kept);
  }
  // ... then wait out any delivery already holding the map (DeliverDirect takes it shared;
  // this exclusive section cannot begin until that enqueue returns), ...
  {
    WriterMutexLock lock(sinks_mu_);
    sinks_.erase(id);
  }
  // ... and finally quiesce the inner transport. After this returns no EnqueueMessage for
  // `id` is in flight from either source, which is exactly the base-class contract.
  inner_->Unregister(id);
}

// ---- Send-side fault pipeline ----------------------------------------------------------

void FaultTransport::Send(NodeId src, NodeId dst, MsgBuffer message) {
  if (!armed_.load(std::memory_order_relaxed)) {
    inner_->Send(src, dst, std::move(message));
    return;
  }
  SendFaulty(src, dst, std::move(message));
}

void FaultTransport::Multicast(NodeId src, const std::vector<NodeId>& dsts,
                               const MsgBuffer& message) {
  if (!armed_.load(std::memory_order_relaxed)) {
    inner_->Multicast(src, dsts, message);
    return;
  }
  // Armed: decompose so each link rolls its own dice. Loses the inner batched fan-out, which
  // is fine — fault scenarios measure correctness, not throughput.
  for (NodeId dst : dsts) {
    if (dst != src) {
      SendFaulty(src, dst, message);
    }
  }
}

const FaultSpec* FaultTransport::SpecForLocked(NodeId src, NodeId dst) const {
  auto it = link_specs_.find(LinkKey(src, dst));
  if (it != link_specs_.end()) {
    return &it->second;
  }
  return has_default_ ? &default_spec_ : nullptr;
}

Rng& FaultTransport::RngForLocked(NodeId src, NodeId dst) {
  uint64_t key = LinkKey(src, dst);
  auto it = link_rngs_.find(key);
  if (it == link_rngs_.end()) {
    // Mix the link into the seed with distinct odd multipliers per endpoint so (a, b) and
    // (b, a) get independent streams.
    uint64_t link_seed = seed_ ^ (static_cast<uint64_t>(src) * 0x9e3779b97f4a7c15ULL) ^
                         (static_cast<uint64_t>(dst) * 0xc2b2ae3d27d4eb4fULL);
    it = link_rngs_.emplace(key, Rng(link_seed)).first;
  }
  return it->second;
}

void FaultTransport::RecordLocked(FaultKind kind, NodeId src, NodeId dst) {
  injected_.fetch_add(1, std::memory_order_relaxed);
  switch (kind) {
    case FaultKind::kDrop:
      obs_.drop->Inc();
      break;
    case FaultKind::kDelay:
      obs_.delay->Inc();
      break;
    case FaultKind::kDuplicate:
      obs_.duplicate->Inc();
      break;
    case FaultKind::kReorder:
      obs_.reorder->Inc();
      break;
    case FaultKind::kCorrupt:
      obs_.corrupt->Inc();
      break;
    case FaultKind::kPartition:
      obs_.partition->Inc();
      break;
  }
  if (log_.size() < kMaxLogEvents) {
    log_.push_back(FaultEvent{kind, src, dst});
  }
}

namespace {
MsgBuffer CorruptCopy(const MsgBuffer& message, Rng& rng) {
  Bytes bytes = message.Copy();
  if (bytes.empty()) {
    return message;
  }
  // Flip 1–8 random bytes. XOR with a nonzero mask guarantees the wire image differs, so a
  // strict decoder (or a MAC check) must notice — "corrupt but identical" cannot happen.
  size_t flips = 1 + rng.Below(8);
  for (size_t i = 0; i < flips; ++i) {
    bytes[rng.Below(bytes.size())] ^= static_cast<uint8_t>(1 + rng.Below(255));
  }
  return MsgBuffer(std::move(bytes));
}
}  // namespace

void FaultTransport::SendFaulty(NodeId src, NodeId dst, MsgBuffer message) {
  SimTime hold = 0;
  bool duplicate = false;
  {
    MutexLock lock(mu_);
    if (partitioned_ && (partition_.count(src) > 0) != (partition_.count(dst) > 0)) {
      RecordLocked(FaultKind::kPartition, src, dst);
      return;
    }
    const FaultSpec* spec = SpecForLocked(src, dst);
    if (spec != nullptr && !spec->Quiet()) {
      Rng& rng = RngForLocked(src, dst);
      if (spec->drop > 0.0 && rng.Chance(spec->drop)) {
        RecordLocked(FaultKind::kDrop, src, dst);
        return;
      }
      if (spec->corrupt > 0.0 && rng.Chance(spec->corrupt)) {
        message = CorruptCopy(message, rng);
        RecordLocked(FaultKind::kCorrupt, src, dst);
      }
      if (spec->duplicate > 0.0 && rng.Chance(spec->duplicate)) {
        duplicate = true;
        RecordLocked(FaultKind::kDuplicate, src, dst);
      }
      if (spec->delay > 0 || spec->delay_jitter > 0) {
        hold = spec->delay + (spec->delay_jitter > 0 ? rng.Below(spec->delay_jitter) : 0);
        if (hold > 0) {
          RecordLocked(FaultKind::kDelay, src, dst);
        }
      }
      if (spec->reorder > 0.0 && rng.Chance(spec->reorder)) {
        // Hold this datagram back a full window while subsequent sends pass through
        // immediately: the arrival order inverts without any datagram being lost.
        hold += spec->reorder_window;
        RecordLocked(FaultKind::kReorder, src, dst);
      }
    }
  }
  if (hold > 0) {
    if (duplicate) {
      ScheduleDelivery(dst, message, hold);
    }
    ScheduleDelivery(dst, std::move(message), hold);
    return;
  }
  if (duplicate) {
    // The copy takes the wire path too; refcounting makes the second send byte-identical.
    inner_->Send(src, dst, message);
  }
  inner_->Send(src, dst, std::move(message));
}

// ---- Held-back delivery ----------------------------------------------------------------

void FaultTransport::ScheduleDelivery(NodeId dst, MsgBuffer message, SimTime hold) {
  {
    MutexLock lock(delay_mu_);
    if (delay_stop_) {
      return;
    }
    if (!delay_thread_.joinable()) {
      delay_thread_ = std::thread([this]() { DelayLoop(); });
    }
    held_.push(Pending{std::chrono::steady_clock::now() + std::chrono::nanoseconds(hold),
                       next_tie_++, dst, std::move(message)});
  }
  delay_cv_.NotifyOne();
}

// Runs on the delay thread: the held datagram goes straight to the destination's sink.
void FaultTransport::DeliverDirect(NodeId dst, MsgBuffer message) {
  ReaderMutexLock lock(sinks_mu_);
  auto it = sinks_.find(dst);
  if (it != sinks_.end()) {
    it->second->EnqueueMessage(std::move(message));  // MessageSink is thread-safe by contract
  }
}

void FaultTransport::DelayLoop() {
  MutexLock lock(delay_mu_);
  while (true) {
    if (delay_stop_) {
      return;
    }
    if (held_.empty()) {
      delay_cv_.Wait(delay_mu_);
      continue;
    }
    auto due = held_.top().due;
    if (std::chrono::steady_clock::now() < due) {
      delay_cv_.WaitUntil(delay_mu_, due);
      continue;
    }
    Pending p = std::move(const_cast<Pending&>(held_.top()));
    held_.pop();
    lock.Unlock();
    DeliverDirect(p.dst, std::move(p.message));
    lock.Lock();
  }
}

}  // namespace bft
