// Formation layer: coalesces protocol messages per destination per event-loop iteration.
//
// The real-clock loop is wakeup/syscall-bound, not compute-bound: every prepare, commit,
// and reply is its own datagram, its own sendto, and its own receiver wakeup. Formation
// (after motr's rpc/formation.c item-packing policy) sits behind the Transport seam and
// batches by *time*, not by count: Send/Multicast only queue, and the owning event loop
// calls Flush(src) the moment it runs out of work — so an idle node's message leaves in the
// same loop iteration it was produced (no added latency), while a loaded node's burst of
// prepares/commits/replies to the same peer leaves as ONE framed datagram (packing emerges
// exactly when there is something to pack).
//
// Wire format of a formed datagram:
//
//   magic   u8[4]  = { 0xBF, 'F', 'R', 'M' }   (0xBF exceeds every protocol message tag,
//                                               so a formed datagram can never be confused
//                                               with a bare encoded message)
//   frame   u32 length (LE, >= 1) + payload     repeated 1..N times
//
// Flush keeps two fast paths byte-identical to the unformed transport: a destination with
// exactly one queued frame gets the original buffer unframed (refcount share, no copy), and
// an iteration whose only output is one multicast passes straight through to the inner
// transport's fan-out (one sendmmsg from one shared buffer, as before).
//
// The receive-side decoder is strict and fuzz-tolerant: frames are validated one at a time,
// a truncated or garbage tail drops only itself (valid leading frames are still delivered as
// zero-copy slices of the datagram), and a bare datagram that merely fails the magic check
// passes through untouched — Byzantine senders gain nothing they could not already do.
#ifndef SRC_RUNTIME_FORMATION_H_
#define SRC_RUNTIME_FORMATION_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/common/serializer.h"
#include "src/common/thread_annotations.h"
#include "src/obs/metrics.h"
#include "src/runtime/transport.h"

namespace bft {

// --- Wire format ----------------------------------------------------------------------------

inline constexpr uint8_t kFormationMagic[4] = {0xBF, 'F', 'R', 'M'};
inline constexpr size_t kFormationHeaderSize = 4;   // magic
inline constexpr size_t kFrameHeaderSize = 4;       // u32 little-endian payload length

bool IsFormedDatagram(ByteView datagram);

// Starts a formed datagram / appends one length-prefixed frame.
void BeginFormedDatagram(Writer& w);
void AppendFormedFrame(Writer& w, ByteView frame);

struct FrameSplitResult {
  size_t frames = 0;    // valid frames delivered
  bool formed = false;  // the magic matched (false: deliver the datagram as a bare message)
  bool ok = false;      // formed and every byte belonged to a valid frame
};

// Invokes `fn` once per valid frame, each a zero-copy slice sharing the datagram's storage.
// Returns {0, false} without calling `fn` when the magic is absent (caller delivers the
// datagram as a bare message). A malformed tail ends decoding but keeps the leading frames.
FrameSplitResult SplitFormedDatagram(const MsgBuffer& datagram,
                                     const std::function<void(MsgBuffer)>& fn);

// --- Transport decorator --------------------------------------------------------------------

struct FormationOptions {
  // Largest datagram handed to the inner transport (loopback UDP's practical ceiling).
  size_t max_datagram = 65507;
  // Eager-flush threshold: a destination whose queue reaches this many frames is sent
  // immediately, bounding the extra latency a never-idle loop could otherwise add.
  size_t max_frames = 64;
};

class FormationTransport final : public Transport {
 public:
  explicit FormationTransport(std::unique_ptr<Transport> inner, FormationOptions options = {});
  ~FormationTransport() override;

  FormationTransport(const FormationTransport&) = delete;
  FormationTransport& operator=(const FormationTransport&) = delete;

  void Register(NodeId id, MessageSink* sink) override;
  void Unregister(NodeId id) override;
  void Send(NodeId src, NodeId dst, MsgBuffer message) override;
  void Multicast(NodeId src, const std::vector<NodeId>& dsts, const MsgBuffer& message) override;
  void Flush(NodeId src) override;
  int ReceiveFd(NodeId id) const override;
  void Drain(NodeId id) override;
  void InstallMetrics(MetricsRegistry* registry) override;

  // The wrapped backend (for harness introspection, e.g. UdpTransport::PortOf).
  Transport* inner() { return inner_.get(); }

 private:
  // Queued output of one source node. Touched only by that node's loop thread (under the
  // shared lock, which serializes against Register/Unregister only).
  struct PerDst {
    std::vector<MsgBuffer> frames;
    size_t wire_bytes = kFormationHeaderSize;  // size of the datagram these frames would form
  };
  struct PendingMulticast {
    std::vector<NodeId> dsts;
    MsgBuffer message;
  };
  struct SourceState {
    std::map<NodeId, PerDst> queues;  // entries persist across flushes; empty ones are skipped
    std::vector<PendingMulticast> multicasts;
  };

  // Decodes formed datagrams into per-frame slices before the real sink sees them.
  class SplitSink;

  // All private helpers run with mu_ held (shared) by the calling loop thread. SHARED
  // suffices for mutation because each SourceState is single-writer (only src's own loop
  // thread touches it); the lock only serializes against Register/Unregister reshaping the
  // maps, exactly like the backend transports' node tables.
  void AppendFrameLocked(NodeId src, SourceState& state, NodeId dst, const MsgBuffer& message,
                         Counter* flush_reason) BFT_REQUIRES_SHARED(mu_);
  void FoldMulticastsLocked(NodeId src, SourceState& state) BFT_REQUIRES_SHARED(mu_);
  void EmitQueueLocked(NodeId src, NodeId dst, PerDst& queue, Counter* flush_reason)
      BFT_REQUIRES_SHARED(mu_);

  std::unique_ptr<Transport> inner_;
  const FormationOptions options_;

  mutable SharedMutex mu_;
  std::map<NodeId, std::unique_ptr<SourceState>> states_ BFT_GUARDED_BY(mu_);
  std::map<NodeId, std::unique_ptr<SplitSink>> sinks_ BFT_GUARDED_BY(mu_);

  struct Obs {
    Histogram* frames_per_datagram = nullptr;  // every emitted datagram, passthroughs as 1
    Counter* packed_messages = nullptr;        // messages that left inside a multi-frame datagram
    Counter* flush_idle = nullptr;             // datagrams emitted by the idle-loop Flush
    Counter* flush_size = nullptr;             // ...by the max_datagram budget
    Counter* flush_frames = nullptr;           // ...by the max_frames cap
    Counter* passthrough_multicast = nullptr;  // idle multicasts handed to the inner fan-out
    Counter* decode_errors = nullptr;          // malformed frames/tails on the receive side
  };
  Obs obs_;
};

}  // namespace bft

#endif  // SRC_RUNTIME_FORMATION_H_
