// Real-clock end-to-end smoke test: 4 replicas + 1 client, run over both transports
// (in-process channel, loopback UDP) with and without the datagram-formation layer, plus a
// 4-client cell over UDP that pins request batching.
//
// Every Execute() result is backed by a full reply certificate (f+1 matching non-tentative
// or 2f+1 matching tentative/read-only replies, digest-verified) assembled by the Client
// automaton — the same code path the simulator exercises, now over real datagrams, real
// threads, and the monotonic clock.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/runtime/rt_cluster.h"
#include "src/runtime/rt_node.h"
#include "src/service/kv_service.h"

namespace bft {
namespace {

RtClusterOptions SmokeOptions(RtClusterOptions::TransportKind transport,
                              bool formation = false) {
  RtClusterOptions options;
  options.config.n = 4;
  options.config.state_pages = 64;
  // These timers now burn wall-clock time: the simulator defaults (50 ms view-change fault
  // timeout) would let one scheduler stall on a loaded/sanitized CI machine trigger a
  // spurious view change and flake the view()==0 assertion below. Loopback ops complete in
  // well under a millisecond, so generous timeouts cost nothing on the happy path.
  options.config.view_change_timeout = 10 * kSecond;
  options.config.max_view_change_timeout = 60 * kSecond;
  options.config.client_retry_timeout = 2 * kSecond;
  options.seed = 2024;
  options.transport = transport;
  options.formation = formation;
  return options;
}

void CommitKvOps(RtClusterOptions options) {
  RtCluster cluster(options, [](NodeId) { return std::make_unique<KvService>(); });
  // Trace every request: the CI sanitizer job runs this suite, so the whole stamp path
  // (client dispatch on one loop thread, replica phases on others) gets ASan/UBSan coverage.
  cluster.tracer().set_sample_every(1);
  Client* client = cluster.AddClient();
  cluster.Start();

  // 100 certified operations: 50 PUTs ordered through the three-phase protocol, then 50
  // read-only GETs, each verified against the value the PUT certificate committed.
  for (int i = 0; i < 50; ++i) {
    std::string key = "key-" + std::to_string(i);
    std::string value = "value-" + std::to_string(i);
    std::optional<Bytes> put =
        cluster.Execute(client, KvService::PutOp(ToBytes(key), ToBytes(value)),
                        /*read_only=*/false, 30 * kSecond);
    ASSERT_TRUE(put.has_value()) << "PUT " << key << " got no reply certificate";
    EXPECT_EQ(ToString(*put), "ok");
  }
  for (int i = 0; i < 50; ++i) {
    std::string key = "key-" + std::to_string(i);
    std::optional<Bytes> got = cluster.Execute(client, KvService::GetOp(ToBytes(key)),
                                               /*read_only=*/true, 30 * kSecond);
    ASSERT_TRUE(got.has_value()) << "GET " << key << " got no reply certificate";
    EXPECT_EQ(ToString(*got), "value-" + std::to_string(i));
  }
  EXPECT_EQ(client->stats().ops_completed, 100u);

  // Every live replica executed all 50 writes (reads bypass ordering). Sampled on each
  // replica's own loop thread. The sample runs ahead of datagrams already in that replica's
  // mailbox, so a failure names the backlog: a replica descheduled under load can be several
  // batches behind with their messages queued, which differs from one waiting for a message.
  for (int i = 0; i < cluster.num_replicas(); ++i) {
    SeqNo executed = 0;
    SeqNo tentative = 0;
    size_t queued = 0;
    Replica* replica = cluster.replica(i);
    RtNode* node = static_cast<RtNode*>(replica->endpoint());
    cluster.RunOn(i, [&executed, &tentative, &queued, replica, node]() {
      executed = replica->last_executed();
      tentative = replica->last_tentative_executed();
      queued = node->queued_messages();
    });
    EXPECT_GE(executed, 50u) << "replica " << i << ": tentatively executed " << tentative
                             << ", " << queued << " datagrams queued unhandled";
  }

  // The last write's commit deliveries race the client's certificate (2f+1 tentative
  // replies suffice), and Stop() does not drain socket backlogs — give the loop threads a
  // bounded window to finish stamping before freezing the timelines.
  auto all_writes_traced = [&cluster]() {
    size_t full = 0;
    for (const TraceTimeline& tl : cluster.tracer().Completed()) {
      full += tl.complete() ? 1 : 0;
    }
    return full == 50;
  };
  for (int spins = 0; !all_writes_traced() && spins < 2000; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  cluster.Stop();
  // Loops are joined: state is safe to read directly. No replica saw a view change or had
  // to reject authentication — a quiet network and honest nodes.
  for (int i = 0; i < cluster.num_replicas(); ++i) {
    EXPECT_EQ(cluster.replica(i)->stats().requests_executed, 50u) << "replica " << i;
    EXPECT_EQ(cluster.replica(i)->view(), 0u) << "replica " << i;
  }

  // Every certified request retired a timeline. The 50 PUTs went through the full ordered
  // pipeline, so their timelines carry all six phases and respect the protocol orderings;
  // read-only GETs bypass ordering and legitimately stay partial (dispatch + certified).
  std::vector<TraceTimeline> traces = cluster.tracer().Completed();
  EXPECT_EQ(cluster.tracer().completed_count(), 100u);
  size_t full = 0;
  for (const TraceTimeline& tl : traces) {
    EXPECT_TRUE(tl.monotonic()) << "client " << tl.client << " ts " << tl.timestamp;
    EXPECT_TRUE(tl.has(TracePhase::kDispatch));
    EXPECT_TRUE(tl.has(TracePhase::kCertified));
    if (tl.complete()) {
      ++full;
      EXPECT_GT(tl.total(), 0) << "wall-clock phases cannot be simultaneous end to end";
    }
  }
  EXPECT_EQ(full, 50u) << "every ordered write should yield a six-phase timeline";

  // The MAC session cache ran hot (PR 3's cache, surfaced at run time this PR): after the
  // first derivations, every authenticator hit the cached HMAC state.
  uint64_t hits = 0;
  uint64_t misses = 0;
  for (int i = 0; i < cluster.num_replicas(); ++i) {
    hits += cluster.replica(i)->auth().mac_cache_hits();
    misses += cluster.replica(i)->auth().mac_cache_misses();
  }
  EXPECT_GT(hits, 0u);
  EXPECT_GT(hits, misses) << "steady-state authentication should be cache hits";

  // The harness registry saw the run: protocol counters and the transport's datagram
  // counters are live, and the Prometheus rendering carries them.
  std::string text = cluster.metrics().RenderPrometheusText();
  EXPECT_NE(text.find("bft_messages_in_total"), std::string::npos);
  EXPECT_NE(text.find("bft_transport_datagrams_sent_total"), std::string::npos);

  // Retirement fed the per-phase latency family on the real-clock runtime too: same schema
  // as the simulator, with the percentile summary lines in the exposition.
  EXPECT_EQ(cluster.metrics().GetHistogram("bft_phase_latency_us", "phase=\"total\"")->count(),
            100u);
  EXPECT_GT(cluster.metrics()
                .GetHistogram("bft_phase_latency_us", "phase=\"executed_to_certified\"")
                ->count(),
            0u);
  EXPECT_NE(text.find("bft_phase_latency_us_p99{phase=\"total\"}"), std::string::npos);
  EXPECT_NE(text.find("bft_trace_completed_total 100"), std::string::npos);
}

TEST(UdpSmokeTest, FourReplicasCommit100KvOpsOverLoopback) {
  CommitKvOps(SmokeOptions(RtClusterOptions::TransportKind::kUdp));
}

TEST(UdpSmokeTest, SameClusterOverInProcChannel) {
  CommitKvOps(SmokeOptions(RtClusterOptions::TransportKind::kInProc));
}

TEST(UdpSmokeTest, LoopbackWithFormationLayer) {
  CommitKvOps(SmokeOptions(RtClusterOptions::TransportKind::kUdp, /*formation=*/true));
}

TEST(UdpSmokeTest, InProcWithFormationLayer) {
  CommitKvOps(SmokeOptions(RtClusterOptions::TransportKind::kInProc, /*formation=*/true));
}

// Batching on the runtime the repository benchmark measures: four clients, each driven from
// its own harness thread, keep writes in flight together over loopback UDP. The primary holds
// one batch open at a time, so requests that arrive meanwhile must share a pre-prepare.
TEST(UdpSmokeTest, ConcurrentClientsBatchOverLoopback) {
  RtCluster cluster(SmokeOptions(RtClusterOptions::TransportKind::kUdp),
                    [](NodeId) { return std::make_unique<KvService>(); });
  constexpr int kClients = 4;
  constexpr int kOpsPerClient = 50;
  for (int c = 0; c < kClients; ++c) {
    cluster.AddClient();
  }
  cluster.Start();

  std::vector<std::thread> threads;
  std::atomic<int> certified{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&cluster, &certified, c]() {
      for (int i = 0; i < kOpsPerClient; ++i) {
        std::string key = "c" + std::to_string(c) + "-" + std::to_string(i);
        std::optional<Bytes> put =
            cluster.Execute(cluster.client(static_cast<size_t>(c)),
                            KvService::PutOp(ToBytes(key), ToBytes(key)), false, 30 * kSecond);
        if (put.has_value() && ToString(*put) == "ok") {
          certified.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  cluster.Stop();
  EXPECT_EQ(certified.load(), kClients * kOpsPerClient);

  Histogram* batch = cluster.metrics().GetHistogram("bft_batch_size", "node=\"0\"");
  ASSERT_GT(batch->count(), 0u);
  EXPECT_GT(static_cast<double>(batch->sum()) / static_cast<double>(batch->count()), 1.0)
      << "mean bft_batch_size at the primary over " << batch->count() << " batches";
  EXPECT_EQ(cluster.replica(0)->view(), 0u);
}

// Corrupt-datagram cell: under a sustained 20% corrupt rate every strict decoder in the
// stack (formation framing, message decode, MAC verification) must DROP the damaged wire
// image — never crash, never certify it — while retransmission keeps the ops committing.
// Complements formation_test's in-memory fuzz cases with real corruption on live links.
void CommitKvOpsThroughCorruption(RtClusterOptions options) {
  // Faults burn real retransmission time; a short retry base keeps the test quick.
  options.config.client_retry_timeout = 100 * kMillisecond;
  RtCluster cluster(options, [](NodeId) { return std::make_unique<KvService>(); });
  Client* client = cluster.AddClient();
  cluster.Start();

  FaultSpec spec;
  spec.corrupt = 0.2;
  cluster.faults().SetDefaultFaults(spec);

  for (int i = 0; i < 20; ++i) {
    std::string key = "key-" + std::to_string(i);
    std::string value = "value-" + std::to_string(i);
    std::optional<Bytes> put =
        cluster.Execute(client, KvService::PutOp(ToBytes(key), ToBytes(value)),
                        /*read_only=*/false, 60 * kSecond);
    ASSERT_TRUE(put.has_value()) << "PUT " << key << " through corruption";
    EXPECT_EQ(ToString(*put), "ok");
    std::optional<Bytes> got = cluster.Execute(client, KvService::GetOp(ToBytes(key)),
                                               /*read_only=*/false, 60 * kSecond);
    ASSERT_TRUE(got.has_value()) << "GET " << key << " through corruption";
    EXPECT_EQ(ToString(*got), value) << "a corrupted datagram must never change a result";
  }

  cluster.faults().ClearFaults();
  EXPECT_GT(cluster.faults().injected_count(), 0u) << "the schedule must actually corrupt";
  cluster.Stop();
  std::string text = cluster.metrics().RenderPrometheusText();
  EXPECT_NE(text.find("bft_fault_injected_total{kind=\"corrupt\"}"), std::string::npos);
}

TEST(UdpSmokeTest, CorruptDatagramsDropCleanlyOverLoopback) {
  CommitKvOpsThroughCorruption(SmokeOptions(RtClusterOptions::TransportKind::kUdp));
}

TEST(UdpSmokeTest, CorruptDatagramsDropCleanlyOverInProc) {
  CommitKvOpsThroughCorruption(SmokeOptions(RtClusterOptions::TransportKind::kInProc));
}

TEST(UdpSmokeTest, CorruptDatagramsDropCleanlyWithFormation) {
  // Corruption lands on fully-formed datagrams here, so the framing decoder itself (magic,
  // lengths, truncation) eats most of the damage — the closest real analogue to bit rot.
  CommitKvOpsThroughCorruption(
      SmokeOptions(RtClusterOptions::TransportKind::kUdp, /*formation=*/true));
}

}  // namespace
}  // namespace bft
