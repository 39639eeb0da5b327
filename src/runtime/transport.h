// Real-clock transport seam.
//
// A Transport moves encoded protocol messages between nodes with UDP semantics: best-effort,
// unordered, no sender identity on the wire (receivers authenticate at the protocol layer).
// Implementations: InProcTransport (an in-process channel, for fast deterministic-ish tests)
// and UdpTransport (real loopback sockets, one per node).
#ifndef SRC_RUNTIME_TRANSPORT_H_
#define SRC_RUNTIME_TRANSPORT_H_

#include <vector>

#include "src/common/bytes.h"
#include "src/common/msg_buffer.h"
#include "src/core/clock.h"

namespace bft {

class MetricsRegistry;

// Where a transport delivers received datagrams. Called from transport-internal threads;
// implementations must be thread-safe.
class MessageSink {
 public:
  virtual ~MessageSink() = default;
  virtual void EnqueueMessage(MsgBuffer message) = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  // Starts delivering datagrams addressed to `id` into `sink`. One sink per id.
  virtual void Register(NodeId id, MessageSink* sink) = 0;

  // Stops delivery to `id`. On return, no further EnqueueMessage calls for this id are in
  // flight — safe to destroy the sink.
  virtual void Unregister(NodeId id) = 0;

  // Best-effort datagram from `src` to `dst`. Unknown destinations and full buffers drop the
  // message, exactly like the network the protocol is built to survive. The buffer is shared,
  // never copied: a multicast caller passes the same refcounted encoding to every destination.
  virtual void Send(NodeId src, NodeId dst, MsgBuffer message) = 0;

  // One encoded buffer to every destination except `src` itself. Transports override this to
  // batch the fan-out (UdpTransport: a single sendmmsg syscall; InProcTransport: one lock
  // acquisition for all mailboxes) — the wire behavior is identical to per-destination Send.
  virtual void Multicast(NodeId src, const std::vector<NodeId>& dsts, const MsgBuffer& message) {
    for (NodeId dst : dsts) {
      if (dst == src) {
        continue;
      }
      Send(src, dst, message);
    }
  }

  // Event-loop idle barrier. The owning loop calls Flush(src) once it has no runnable work
  // left, immediately before parking: a coalescing transport (FormationTransport) emits the
  // datagrams it packed during the iteration. Plain transports send eagerly and ignore it.
  // Nothing a Send promises is observable before the next Flush on `src`'s loop.
  virtual void Flush(NodeId src) {}

  // Re-points the transport's metric instruments at a harness-owned registry. Transports
  // wire the process-wide default at construction, so instrument pointers are always valid.
  virtual void InstallMetrics(MetricsRegistry* registry) {}

  // --- Loop-driven receive ----------------------------------------------------------------
  // When ReceiveFd returns >= 0 the transport spawns no internal delivery thread for `id`:
  // the owning endpoint's event loop polls the fd and calls Drain when it turns readable,
  // so datagrams flow kernel -> handler with no cross-thread handoff. Drain never blocks; it
  // feeds every queued datagram to the registered sink on the calling thread.
  virtual int ReceiveFd(NodeId id) const { return -1; }
  virtual void Drain(NodeId id) {}
};

}  // namespace bft

#endif  // SRC_RUNTIME_TRANSPORT_H_
