// Formation layer: wire-format round trips, strict decoding of hostile datagrams, and the
// pack-under-load / flush-when-idle policy observed through a recording inner transport.
#include "src/runtime/formation.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/serializer.h"

namespace bft {
namespace {

MsgBuffer Buf(const std::string& s) { return MsgBuffer(ToBytes(s)); }

Bytes FormDatagram(const std::vector<std::string>& frames) {
  Writer w;
  BeginFormedDatagram(w);
  for (const std::string& f : frames) {
    AppendFormedFrame(w, ToBytes(f));
  }
  return w.Take();
}

std::vector<std::string> SplitToStrings(const MsgBuffer& datagram, FrameSplitResult* result) {
  std::vector<std::string> out;
  *result = SplitFormedDatagram(
      datagram, [&out](MsgBuffer frame) { out.push_back(ToString(frame.view())); });
  return out;
}

// --- Wire format ----------------------------------------------------------------------------

TEST(FormationWire, RoundTripsManyFrames) {
  std::vector<std::string> frames = {"prepare", "x", std::string(1000, 'c'), "commit"};
  MsgBuffer datagram(FormDatagram(frames));
  ASSERT_TRUE(IsFormedDatagram(datagram.view()));

  FrameSplitResult r;
  std::vector<std::string> got = SplitToStrings(datagram, &r);
  EXPECT_TRUE(r.formed);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.frames, frames.size());
  EXPECT_EQ(got, frames);
}

TEST(FormationWire, FramesAreZeroCopySlices) {
  MsgBuffer datagram(FormDatagram({"alpha", "beta"}));
  std::vector<MsgBuffer> got;
  SplitFormedDatagram(datagram, [&got](MsgBuffer frame) { got.push_back(std::move(frame)); });
  ASSERT_EQ(got.size(), 2u);
  // A slice points into the datagram's own storage — no copy was made.
  EXPECT_GE(got[0].data(), datagram.data());
  EXPECT_LT(got[0].data() + got[0].size(), datagram.data() + datagram.size());
  EXPECT_EQ(ToString(got[0].view()), "alpha");
  EXPECT_EQ(ToString(got[1].view()), "beta");
}

TEST(FormationWire, BareMessagePassesMagicCheck) {
  // Every protocol message starts with its tag byte (1..18), far below 0xBF: no encoded
  // message can ever be mistaken for a formed datagram.
  MsgBuffer bare(ToBytes(std::string("\x01" "request-body")));
  FrameSplitResult r;
  std::vector<std::string> got = SplitToStrings(bare, &r);
  EXPECT_FALSE(r.formed);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(got.empty());  // the callback never fires: caller delivers the bare message
}

TEST(FormationWire, TruncatedTailKeepsLeadingFrames) {
  Bytes wire = FormDatagram({"first", "second"});
  // Chop mid-way through the second frame's payload: its declared length no longer fits.
  wire.resize(wire.size() - 3);
  FrameSplitResult r;
  std::vector<std::string> got = SplitToStrings(MsgBuffer(std::move(wire)), &r);
  EXPECT_TRUE(r.formed);
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "first");
}

TEST(FormationWire, GarbageTailKeepsLeadingFrames) {
  Bytes wire = FormDatagram({"valid"});
  // A trailing fragment too short to hold a frame header.
  wire.push_back(0xde);
  wire.push_back(0xad);
  FrameSplitResult r;
  std::vector<std::string> got = SplitToStrings(MsgBuffer(std::move(wire)), &r);
  EXPECT_TRUE(r.formed);
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "valid");
}

TEST(FormationWire, RejectsZeroLengthAndOverflowingFrames) {
  {
    Writer w;
    BeginFormedDatagram(w);
    w.U32(0);  // zero-length frame: a real sender never writes one
    FrameSplitResult r;
    EXPECT_TRUE(SplitToStrings(MsgBuffer(w.Take()), &r).empty());
    EXPECT_TRUE(r.formed);
    EXPECT_FALSE(r.ok);
  }
  {
    Writer w;
    BeginFormedDatagram(w);
    w.U32(0xffffffffu);  // length far past the end of the datagram
    w.Raw(ToBytes("short"));
    FrameSplitResult r;
    EXPECT_TRUE(SplitToStrings(MsgBuffer(w.Take()), &r).empty());
    EXPECT_TRUE(r.formed);
    EXPECT_FALSE(r.ok);
  }
  {
    // Magic with no frames at all: formed but malformed (real senders pack at least one).
    Bytes wire(kFormationMagic, kFormationMagic + kFormationHeaderSize);
    FrameSplitResult r;
    EXPECT_TRUE(SplitToStrings(MsgBuffer(std::move(wire)), &r).empty());
    EXPECT_TRUE(r.formed);
    EXPECT_FALSE(r.ok);
  }
}

TEST(FormationWire, DecoderSurvivesPseudoFuzz) {
  // Deterministic mutation sweep: every delivered frame must be a sane in-bounds slice no
  // matter which byte of a valid datagram is flipped or where it is cut. (No Byzantine
  // sender should be able to crash the decoder — the sim's fault injectors rely on that.)
  Bytes base = FormDatagram({"aaaa", "bbbbbbbb", "cc"});
  uint64_t rng = 0x9e3779b97f4a7c15ull;
  for (int trial = 0; trial < 2000; ++trial) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    Bytes wire = base;
    size_t pos = static_cast<size_t>((rng >> 13) % wire.size());
    wire[pos] ^= static_cast<uint8_t>(rng >> 37);
    if ((rng & 1) != 0) {
      wire.resize(static_cast<size_t>((rng >> 3) % wire.size()) + 1);
    }
    MsgBuffer datagram(std::move(wire));
    SplitFormedDatagram(datagram, [&datagram](MsgBuffer frame) {
      ASSERT_GE(frame.data(), datagram.data());
      ASSERT_LE(frame.data() + frame.size(), datagram.data() + datagram.size());
      ASSERT_GE(frame.size(), 1u);
    });
  }
}

// --- Transport decorator --------------------------------------------------------------------

// Records every call the formation layer makes on its inner transport.
class RecordingTransport final : public Transport {
 public:
  struct Sent {
    NodeId src = 0;
    NodeId dst = 0;
    MsgBuffer message;
    bool multicast = false;
  };

  void Register(NodeId id, MessageSink* sink) override { sinks_[id] = sink; }
  void Unregister(NodeId id) override { sinks_.erase(id); }
  void Send(NodeId src, NodeId dst, MsgBuffer message) override {
    sent.push_back(Sent{src, dst, std::move(message), false});
  }
  void Multicast(NodeId src, const std::vector<NodeId>& dsts, const MsgBuffer& message) override {
    for (NodeId dst : dsts) {
      if (dst != src) {
        sent.push_back(Sent{src, dst, message, true});
      }
    }
    ++multicast_calls;
  }
  void Flush(NodeId src) override { ++flush_calls; }

  // Test-side delivery: what the wire would hand to dst's sink.
  void Deliver(NodeId dst, MsgBuffer message) { sinks_.at(dst)->EnqueueMessage(std::move(message)); }

  std::vector<Sent> sent;
  int multicast_calls = 0;
  int flush_calls = 0;

 private:
  std::map<NodeId, MessageSink*> sinks_;
};

class RecordingSink final : public MessageSink {
 public:
  void EnqueueMessage(MsgBuffer message) override {
    received.push_back(ToString(message.view()));
  }
  std::vector<std::string> received;
};

struct Harness {
  explicit Harness(FormationOptions options = {}) {
    auto owned = std::make_unique<RecordingTransport>();
    inner = owned.get();
    formation = std::make_unique<FormationTransport>(std::move(owned), options);
    formation->InstallMetrics(&metrics);
    formation->Register(1, &sink1);
    formation->Register(2, &sink2);
    formation->Register(3, &sink3);
  }

  uint64_t CounterValue(const std::string& name, const std::string& labels = "") {
    return metrics.GetCounter(name, labels)->value();
  }

  RecordingTransport* inner = nullptr;
  std::unique_ptr<FormationTransport> formation;
  MetricsRegistry metrics;
  RecordingSink sink1, sink2, sink3;
};

TEST(FormationTransportTest, IdleSingleSendPassesThroughUnframed) {
  Harness h;
  h.formation->Send(1, 2, Buf("lonely"));
  EXPECT_TRUE(h.inner->sent.empty());  // queued, not sent: the loop has not flushed yet
  h.formation->Flush(1);
  ASSERT_EQ(h.inner->sent.size(), 1u);
  // Byte-identical to the unformed transport — no magic, no framing.
  EXPECT_EQ(ToString(h.inner->sent[0].message.view()), "lonely");
  EXPECT_EQ(h.inner->flush_calls, 1);  // the idle barrier always reaches the inner backend
  EXPECT_EQ(h.CounterValue("bft_formation_flush_total", "reason=\"idle\""), 1u);
}

TEST(FormationTransportTest, LoadPacksSameDestinationIntoOneDatagram) {
  Harness h;
  h.formation->Send(1, 2, Buf("prepare"));
  h.formation->Send(1, 2, Buf("commit"));
  h.formation->Send(1, 2, Buf("reply"));
  h.formation->Flush(1);
  ASSERT_EQ(h.inner->sent.size(), 1u);  // three messages, one datagram

  FrameSplitResult r;
  std::vector<std::string> frames = SplitToStrings(h.inner->sent[0].message, &r);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(frames, (std::vector<std::string>{"prepare", "commit", "reply"}));
  EXPECT_EQ(h.CounterValue("bft_formation_packed_messages_total"), 3u);
}

TEST(FormationTransportTest, DistinctDestinationsGetDistinctDatagrams) {
  Harness h;
  h.formation->Send(1, 2, Buf("to-two"));
  h.formation->Send(1, 3, Buf("to-three"));
  h.formation->Flush(1);
  ASSERT_EQ(h.inner->sent.size(), 2u);
  EXPECT_EQ(ToString(h.inner->sent[0].message.view()), "to-two");
  EXPECT_EQ(ToString(h.inner->sent[1].message.view()), "to-three");
}

TEST(FormationTransportTest, SoleMulticastPassesThroughToInnerFanout) {
  Harness h;
  h.formation->Multicast(1, {1, 2, 3}, Buf("pre-prepare"));
  EXPECT_EQ(h.inner->multicast_calls, 0);
  h.formation->Flush(1);
  // The idle fast path hands the fan-out to the inner transport's batched Multicast (one
  // sendmmsg from one shared buffer over UDP) rather than splitting it per destination.
  EXPECT_EQ(h.inner->multicast_calls, 1);
  ASSERT_EQ(h.inner->sent.size(), 2u);  // 2 and 3; never back to the source
  EXPECT_EQ(ToString(h.inner->sent[0].message.view()), "pre-prepare");
  EXPECT_EQ(h.CounterValue("bft_formation_passthrough_total", "kind=\"multicast\""), 1u);
}

TEST(FormationTransportTest, MulticastUnderLoadFoldsIntoPerPeerDatagrams) {
  Harness h;
  h.formation->Send(1, 2, Buf("reply"));
  h.formation->Multicast(1, {1, 2, 3}, Buf("commit"));
  h.formation->Flush(1);
  // Node 2 had a unicast queued, so the multicast folds: 2 gets one packed datagram
  // (reply + commit), 3 gets the commit alone, and the inner Multicast is never used.
  EXPECT_EQ(h.inner->multicast_calls, 0);
  ASSERT_EQ(h.inner->sent.size(), 2u);

  FrameSplitResult r;
  std::vector<std::string> to_two = SplitToStrings(h.inner->sent[0].message, &r);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(h.inner->sent[0].dst, 2u);
  EXPECT_EQ(to_two, (std::vector<std::string>{"reply", "commit"}));
  EXPECT_EQ(h.inner->sent[1].dst, 3u);
  EXPECT_EQ(ToString(h.inner->sent[1].message.view()), "commit");
}

TEST(FormationTransportTest, MaxFramesCapFlushesEagerly) {
  FormationOptions options;
  options.max_frames = 4;
  Harness h(options);
  for (int i = 0; i < 4; ++i) {
    h.formation->Send(1, 2, Buf("m" + std::to_string(i)));
  }
  // The cap fired inside Send: a never-idle loop still drains every max_frames-th message.
  ASSERT_EQ(h.inner->sent.size(), 1u);
  FrameSplitResult r;
  EXPECT_EQ(SplitToStrings(h.inner->sent[0].message, &r).size(), 4u);
  EXPECT_EQ(h.CounterValue("bft_formation_flush_total", "reason=\"frames\""), 1u);
}

TEST(FormationTransportTest, DatagramBudgetSplitsOversizedQueues) {
  FormationOptions options;
  options.max_datagram = 100;
  Harness h(options);
  h.formation->Send(1, 2, Buf(std::string(60, 'a')));
  h.formation->Send(1, 2, Buf(std::string(60, 'b')));  // would overflow: first emits alone
  h.formation->Flush(1);
  ASSERT_EQ(h.inner->sent.size(), 2u);
  for (const auto& s : h.inner->sent) {
    EXPECT_LE(s.message.size(), options.max_datagram);
  }
  EXPECT_EQ(h.CounterValue("bft_formation_flush_total", "reason=\"size\""), 1u);
}

TEST(FormationTransportTest, ReceiveSideSplitsFormedDatagrams) {
  Harness h;
  h.inner->Deliver(2, MsgBuffer(FormDatagram({"one", "two", "three"})));
  EXPECT_EQ(h.sink2.received, (std::vector<std::string>{"one", "two", "three"}));
}

TEST(FormationTransportTest, ReceiveSidePassesBareDatagramsThrough) {
  Harness h;
  h.inner->Deliver(2, Buf("\x05" "bare-protocol-message"));
  ASSERT_EQ(h.sink2.received.size(), 1u);
  EXPECT_EQ(h.sink2.received[0], "\x05" "bare-protocol-message");
  EXPECT_EQ(h.CounterValue("bft_formation_decode_errors_total"), 0u);
}

TEST(FormationTransportTest, ReceiveSideCountsMalformedTailsButKeepsLeadingFrames) {
  Harness h;
  Bytes wire = FormDatagram({"good", "alsogood"});
  wire.resize(wire.size() - 2);  // truncate the last frame
  h.inner->Deliver(2, MsgBuffer(std::move(wire)));
  EXPECT_EQ(h.sink2.received, (std::vector<std::string>{"good"}));
  EXPECT_EQ(h.CounterValue("bft_formation_decode_errors_total"), 1u);
}

TEST(FormationTransportTest, FlushWithNothingQueuedStillReachesInner) {
  Harness h;
  h.formation->Flush(1);
  EXPECT_TRUE(h.inner->sent.empty());
  // A layer below may have *its own* buffered work (e.g. another decorator): the barrier
  // must always propagate.
  EXPECT_EQ(h.inner->flush_calls, 1);
}

TEST(FormationTransportTest, UnregisteredSourceBypassesQueues) {
  Harness h;
  h.formation->Send(99, 2, Buf("from-nowhere"));
  // No queue exists for src 99: the message goes straight through (and would otherwise wait
  // for a Flush(99) that no loop will ever call).
  ASSERT_EQ(h.inner->sent.size(), 1u);
  EXPECT_EQ(ToString(h.inner->sent[0].message.view()), "from-nowhere");
}

}  // namespace
}  // namespace bft
