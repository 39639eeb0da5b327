// Observability subsystem tests: histogram bucketing, the shared percentile helper,
// exact protocol-counter and gauge values on a deterministic simulation, request-tracer
// timelines on the simulator, and the Prometheus text round trip.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/export.h"
#include "src/obs/health.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/service/kv_service.h"
#include "src/service/null_service.h"
#include "src/workload/cluster.h"

namespace bft {
namespace {

TEST(HistogramTest, BucketIndexRoundTrip) {
  std::vector<uint64_t> values = {0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 100, 1000, 4095, 4096};
  for (uint64_t e = 2; e < 63; ++e) {
    values.push_back((uint64_t{1} << e) - 1);
    values.push_back(uint64_t{1} << e);
    values.push_back((uint64_t{1} << e) + 1);
  }
  for (uint64_t v : values) {
    int index = Histogram::BucketIndex(v);
    ASSERT_GE(index, 0) << v;
    ASSERT_LT(index, Histogram::kNumBuckets) << v;
    // The value lands at or below its bucket's inclusive upper bound, and above the
    // previous bucket's bound — i.e., BucketIndex and BucketUpperBound agree.
    EXPECT_LE(v, Histogram::BucketUpperBound(index)) << v;
    if (index > 0) {
      EXPECT_GT(v, Histogram::BucketUpperBound(index - 1)) << v;
    }
  }
}

TEST(HistogramTest, RecordCountSumPercentile) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.sum(), 500500u);
  // Log-linear buckets hold their values within ~25% of the bound (2 significant bits).
  uint64_t p50 = h.Percentile(50);
  EXPECT_GE(p50, 500u);
  EXPECT_LE(p50, 640u);
  uint64_t p99 = h.Percentile(99);
  EXPECT_GE(p99, 990u);
  EXPECT_LE(p99, 1280u);
  EXPECT_EQ(Histogram().Percentile(99), 0u) << "empty histogram";
}

// PercentileOf replaced two open-coded implementations (bench_runtime's sorted-index p50/p99
// and closed_loop's Percentile99); the deterministic benches' byte-identity depends on it
// computing exactly the same element.
TEST(PercentileOfTest, MatchesTheLegacySortedIndexFormulas) {
  uint64_t state = 0x123456789abcdefULL;
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (size_t size = 1; size <= 200; ++size) {
    std::vector<uint64_t> samples;
    samples.reserve(size);
    for (size_t i = 0; i < size; ++i) {
      samples.push_back(next() % 10000);
    }
    std::vector<uint64_t> sorted = samples;
    std::sort(sorted.begin(), sorted.end());

    std::vector<uint64_t> work = samples;
    EXPECT_EQ(PercentileOf(work, 50), sorted[size / 2]) << "size " << size;
    work = samples;
    EXPECT_EQ(PercentileOf(work, 99), sorted[std::min(size - 1, size * 99 / 100)])
        << "size " << size;
  }
  std::vector<uint64_t> empty;
  EXPECT_EQ(PercentileOf(empty, 99), 0u);
}

ClusterOptions QuietOptions() {
  ClusterOptions options;
  options.config.n = 4;
  options.config.state_pages = 16;
  // No periodic status traffic and no view-change risk inside the run: every message the
  // counters see is a direct consequence of the ten operations, making the expected values
  // exact rather than lower bounds.
  options.config.status_interval = 100 * kSecond;
  options.config.view_change_timeout = 100 * kSecond;
  options.config.max_view_change_timeout = 200 * kSecond;
  options.seed = 99;
  return options;
}

// The protocol's message complexity, pinned exactly: for B single-request batches on a
// quiet four-replica group (f = 1), every backup receives 2f prepares per batch, every
// replica receives n-1 commits per batch, and each backup receives exactly one pre-prepare.
TEST(ObsSimTest, ProtocolCountersMatchTheoreticalCounts) {
  Cluster cluster(QuietOptions(), [](NodeId) { return std::make_unique<NullService>(); });
  Client* client = cluster.AddClient();

  constexpr uint64_t kOps = 10;
  for (uint64_t i = 0; i < kOps; ++i) {
    std::optional<Bytes> result =
        cluster.Execute(client, NullService::MakeOp(/*read_only=*/false, 0, 0));
    ASSERT_TRUE(result.has_value()) << "op " << i;
  }
  // The client certifies from 2f+1 tentative replies, which can precede the last commit
  // deliveries; drain so every sent message is consumed before counting.
  cluster.sim().RunFor(2 * kSecond);

  MetricsRegistry& m = cluster.metrics();
  const int n = cluster.config().n;
  const uint64_t f = 1;
  for (int i = 0; i < n; ++i) {
    std::string node = "node=\"" + std::to_string(i) + "\"";
    bool is_primary = i == 0;  // view 0 held for the whole run (asserted below)
    EXPECT_EQ(m.GetGauge("bft_view", node)->value(), 0) << "replica " << i;
    EXPECT_EQ(m.GetCounter("bft_batches_executed_total", node)->value(), kOps);
    EXPECT_EQ(m.GetCounter("bft_requests_executed_total", node)->value(), kOps);
    EXPECT_EQ(m.GetGauge("bft_last_executed", node)->value(),
              static_cast<int64_t>(kOps));
    EXPECT_EQ(m.GetHistogram("bft_batch_size", node)->count(), kOps);
    EXPECT_EQ(m.GetHistogram("bft_batch_size", node)->sum(), kOps) << "all batches size 1";

    auto in = [&m, &node](const char* type) {
      return m.GetCounter("bft_messages_in_total", node + ",type=\"" + type + "\"")->value();
    };
    auto out = [&m, &node](const char* type) {
      return m.GetCounter("bft_messages_out_total", node + ",type=\"" + type + "\"")->value();
    };
    if (is_primary) {
      EXPECT_EQ(in("request"), kOps);
      EXPECT_EQ(out("pre_prepare"), kOps);
      EXPECT_EQ(in("prepare"), static_cast<uint64_t>(n - 1) * kOps)
          << "primary hears every backup's prepare";
      EXPECT_EQ(out("prepare"), 0u) << "the primary's pre-prepare acts as its prepare";
    } else {
      EXPECT_EQ(in("pre_prepare"), kOps);
      EXPECT_EQ(out("pre_prepare"), 0u);
      EXPECT_EQ(in("prepare"), 2 * f * kOps) << "prepares from the other 2f backups";
      EXPECT_EQ(out("prepare"), kOps);
    }
    EXPECT_EQ(in("commit"), static_cast<uint64_t>(n - 1) * kOps) << "replica " << i;
    EXPECT_EQ(out("commit"), kOps);
    EXPECT_EQ(m.GetCounter("bft_messages_undecodable_total", node)->value(), 0u);
    EXPECT_EQ(m.GetCounter("bft_auth_rejected_total", node)->value(), 0u);
    EXPECT_EQ(m.GetCounter("bft_view_changes_started_total", node)->value(), 0u);
  }

  // The client-side view of the same run, and the MAC session cache surfaced at run time:
  // after each pair derives its key once, steady-state authentication is all cache hits.
  std::string c = "client=\"" + std::to_string(client->id()) + "\"";
  EXPECT_EQ(m.GetCounter("bft_client_ops_total", c)->value(), kOps);
  EXPECT_EQ(m.GetCounter("bft_client_retransmissions_total", c)->value(), 0u);
  EXPECT_EQ(m.GetHistogram("bft_client_latency_us", c)->count(), kOps);
  for (int i = 0; i < n; ++i) {
    EXPECT_GT(cluster.replica(i)->auth().mac_cache_hits(),
              cluster.replica(i)->auth().mac_cache_misses())
        << "replica " << i;
  }
}

// bft_checkpoint_page_copies is set at checkpoint events. With CHECKPOINT messages dropped
// nothing becomes stable or is discarded, so when the run ends on a checkpoint the gauge
// equals the pre-images each replica holds: the pages the run wrote, not the whole state.
TEST(ObsSimTest, CheckpointPageCopiesGaugeMatchesRetainedPreImages) {
  ClusterOptions options = QuietOptions();
  options.config.checkpoint_period = 4;
  Cluster cluster(options, [](NodeId) { return std::make_unique<KvService>(); });
  cluster.net().SetFilter([](NodeId, NodeId, const Bytes& msg) {
    return !msg.empty() && msg[0] == static_cast<uint8_t>(MsgType::kCheckpoint)
               ? Network::FilterAction::kDrop
               : Network::FilterAction::kDeliver;
  });
  Client* client = cluster.AddClient();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(cluster.Execute(client, KvService::PutOp(ToBytes("key-" + std::to_string(i)),
                                                         ToBytes("value")))
                    .has_value());
  }
  cluster.sim().RunFor(2 * kSecond);

  for (int i = 0; i < cluster.num_replicas(); ++i) {
    const ReplicaState& state = cluster.replica(i)->state();
    ASSERT_EQ(state.OldestCheckpoint(), 0u) << "replica " << i;
    ASSERT_EQ(state.NewestCheckpoint(), 8u) << "replica " << i;
    size_t copies = state.retained_page_copies();
    EXPECT_GT(copies, 0u) << "replica " << i;
    EXPECT_LT(copies, state.num_pages()) << "replica " << i;
    std::string node = "node=\"" + std::to_string(i) + "\"";
    EXPECT_EQ(cluster.metrics().GetGauge("bft_checkpoint_page_copies", node)->value(),
              static_cast<int64_t>(copies))
        << "replica " << i;
  }
}

// Same schema on the simulator as on the real-clock runtime (the runtime half lives in
// udp_smoke_test): full sampling yields one complete, monotonic six-phase timeline per
// ordered operation.
TEST(ObsSimTest, TracerYieldsCompleteMonotonicTimelines) {
  Cluster cluster(QuietOptions(), [](NodeId) { return std::make_unique<NullService>(); });
  cluster.tracer().set_sample_every(1);
  Client* client = cluster.AddClient();

  constexpr uint64_t kOps = 5;
  for (uint64_t i = 0; i < kOps; ++i) {
    ASSERT_TRUE(
        cluster.Execute(client, NullService::MakeOp(/*read_only=*/false, 0, 0)).has_value());
  }
  cluster.sim().RunFor(2 * kSecond);

  std::vector<TraceTimeline> traces = cluster.tracer().Completed();
  ASSERT_EQ(traces.size(), kOps);
  for (const TraceTimeline& tl : traces) {
    EXPECT_EQ(tl.client, client->id());
    EXPECT_TRUE(tl.complete()) << "ts " << tl.timestamp;
    EXPECT_TRUE(tl.monotonic()) << "ts " << tl.timestamp;
    EXPECT_GT(tl.total(), 0) << "sim latency is modeled, never zero";
  }
  EXPECT_TRUE(cluster.tracer().Active().empty()) << "every timeline retired";

  // The JSON rendering carries every phase of every retired timeline.
  std::string json = cluster.tracer().RenderJson();
  for (int p = 0; p < kNumTracePhases; ++p) {
    EXPECT_NE(json.find(TracePhaseName(static_cast<TracePhase>(p))), std::string::npos);
  }
}

// Sampling off (the default) must keep the tracer entirely passive — this is what the
// deterministic benches rely on to stay byte-identical with tracing compiled in.
TEST(ObsSimTest, SamplingOffRecordsNothing) {
  Cluster cluster(QuietOptions(), [](NodeId) { return std::make_unique<NullService>(); });
  Client* client = cluster.AddClient();
  ASSERT_TRUE(
      cluster.Execute(client, NullService::MakeOp(/*read_only=*/false, 0, 0)).has_value());
  EXPECT_EQ(cluster.tracer().completed_count(), 0u);
  EXPECT_TRUE(cluster.tracer().Active().empty());
}

// Retirement feeds per-phase delta histograms. On the simulator events execute in global
// time order, so every phase a timeline shows at retirement is final (straggler merges can
// only ADD the late `committed` stamp, never lower an existing minimum) — which makes the
// histograms for the always-present deltas exactly reconstructible from the retired ring.
TEST(ObsSimTest, PhaseHistogramsMatchRetiredTimelines) {
  Cluster cluster(QuietOptions(), [](NodeId) { return std::make_unique<NullService>(); });
  cluster.tracer().set_sample_every(1);
  Client* client = cluster.AddClient();

  constexpr uint64_t kOps = 8;
  for (uint64_t i = 0; i < kOps; ++i) {
    ASSERT_TRUE(
        cluster.Execute(client, NullService::MakeOp(/*read_only=*/false, 0, 0)).has_value());
  }
  cluster.sim().RunFor(2 * kSecond);

  std::vector<TraceTimeline> traces = cluster.tracer().Completed();
  ASSERT_EQ(traces.size(), kOps);
  // Expected sums in microseconds, straight from the retired timelines. The deltas ending
  // at `committed` are excluded: the client certifies from tentative replies, so committed
  // may land after retirement and those histograms see only a subset.
  auto delta_sum = [&traces](TracePhase a, TracePhase b) {
    uint64_t sum = 0;
    for (const TraceTimeline& tl : traces) {
      sum += (tl.at(b) >= tl.at(a) ? tl.at(b) - tl.at(a) : 0) / kMicrosecond;
    }
    return sum;
  };
  MetricsRegistry& m = cluster.metrics();
  Histogram* d0 = m.GetHistogram("bft_phase_latency_us", "phase=\"dispatch_to_pre_prepare\"");
  Histogram* d1 = m.GetHistogram("bft_phase_latency_us", "phase=\"pre_prepare_to_prepared\"");
  Histogram* d4 = m.GetHistogram("bft_phase_latency_us", "phase=\"executed_to_certified\"");
  Histogram* total = m.GetHistogram("bft_phase_latency_us", "phase=\"total\"");
  EXPECT_EQ(d0->count(), kOps);
  EXPECT_EQ(d0->sum(), delta_sum(TracePhase::kDispatch, TracePhase::kPrePrepare));
  EXPECT_EQ(d1->count(), kOps);
  EXPECT_EQ(d1->sum(), delta_sum(TracePhase::kPrePrepare, TracePhase::kPrepared));
  EXPECT_EQ(d4->count(), kOps);
  EXPECT_EQ(d4->sum(), delta_sum(TracePhase::kExecuted, TracePhase::kCertified));
  EXPECT_EQ(total->count(), kOps);
  uint64_t total_sum = 0;
  for (const TraceTimeline& tl : traces) {
    total_sum += tl.total() / kMicrosecond;
  }
  EXPECT_EQ(total->sum(), total_sum);
  EXPECT_LE(m.GetHistogram("bft_phase_latency_us", "phase=\"prepared_to_committed\"")->count(),
            kOps);

  // The exposition formats carry the percentile summaries of the same family.
  std::string text = m.RenderPrometheusText();
  EXPECT_NE(text.find("bft_phase_latency_us_p50{phase=\"total\"}"), std::string::npos);
  EXPECT_NE(text.find("bft_phase_latency_us_p99{phase=\"dispatch_to_pre_prepare\"}"),
            std::string::npos);
  EXPECT_NE(m.RenderJson().find("\"p95\""), std::string::npos);
}

// Admin-op timelines share the tracer machinery: phase 0 opens, the kind's last phase
// retires into the ring and the bft_admin_phase_latency_us family, out-of-order stamps for
// unknown ops are dropped and counted, and a disabled tracer records nothing.
TEST(AdminTraceTest, StampAdminDrivesTimelinesAndHistograms) {
  MetricsRegistry registry;
  RequestTracer tracer;
  tracer.InstallMetrics(&registry);

  // Disabled: stamps vanish without opening anything.
  tracer.StampAdmin(TraceKind::kMigration, 1, 0, 10 * kMicrosecond);
  EXPECT_TRUE(tracer.Active().empty());

  tracer.set_sample_every(4);  // any non-zero rate traces every admin op
  uint64_t move = tracer.NextAdminOpId();
  for (int p = 0; p < TraceKindPhases(TraceKind::kMigration); ++p) {
    tracer.StampAdmin(TraceKind::kMigration, move, p,
                      static_cast<SimTime>(p + 1) * 100 * kMicrosecond);
  }
  uint64_t round = tracer.NextAdminOpId();
  EXPECT_NE(move, round);
  for (int p = 0; p < TraceKindPhases(TraceKind::kRebalance); ++p) {
    tracer.StampAdmin(TraceKind::kRebalance, round, p,
                      static_cast<SimTime>(p + 1) * kMillisecond);
  }

  std::vector<TraceTimeline> traces = tracer.Completed();
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].kind, TraceKind::kMigration);
  EXPECT_EQ(traces[1].kind, TraceKind::kRebalance);
  for (const TraceTimeline& tl : traces) {
    EXPECT_TRUE(tl.complete());
    EXPECT_TRUE(tl.monotonic());
  }
  EXPECT_EQ(traces[0].total(), 500 * kMicrosecond);
  EXPECT_EQ(traces[1].total(), 3 * kMillisecond);

  // Each consecutive migration delta is 100us; the rebalance deltas are 1000us.
  Histogram* freeze_seal = registry.GetHistogram(
      "bft_admin_phase_latency_us", "kind=\"migration\",phase=\"freeze_to_seal\"");
  EXPECT_EQ(freeze_seal->count(), 1u);
  EXPECT_EQ(freeze_seal->sum(), 100u);
  Histogram* snap_plan = registry.GetHistogram(
      "bft_admin_phase_latency_us", "kind=\"rebalance\",phase=\"snapshot_to_plan\"");
  EXPECT_EQ(snap_plan->count(), 1u);
  EXPECT_EQ(snap_plan->sum(), 1000u);
  EXPECT_EQ(registry.GetHistogram("bft_admin_phase_latency_us",
                                  "kind=\"migration\",phase=\"total\"")
                ->sum(),
            500u);

  // A non-zero phase for an op the tracer never saw opened: dropped, not adopted.
  uint64_t before = tracer.dropped_stamps();
  tracer.StampAdmin(TraceKind::kMigration, 9999, 3, kSecond);
  EXPECT_EQ(tracer.dropped_stamps(), before + 1);
  EXPECT_TRUE(tracer.Active().empty());
  // The JSON rendering names the admin milestones, not the request phases, for admin kinds.
  std::string json = tracer.RenderJson();
  EXPECT_NE(json.find("\"migration\""), std::string::npos);
  EXPECT_NE(json.find("\"freeze\""), std::string::npos);
  EXPECT_NE(json.find("\"snapshot\""), std::string::npos);
}

// The exemplar tier must keep the slowest requests visible after the bounded ring has
// evicted them — that is its whole point at low sample rates, where a rare slow request
// would otherwise age out long before anyone scrapes /traces.
TEST(ExemplarTest, SlowestTimelinesSurviveRingEviction) {
  RequestTracer tracer;
  tracer.set_sample_every(64);
  constexpr NodeId kClient = 7;

  // Collect sampled (client, timestamp) pairs — at 1/64 the hash gate passes ~1 in 64.
  std::vector<uint64_t> sampled;
  for (uint64_t ts = 1; sampled.size() < 1100; ++ts) {
    if (tracer.Sampled(kClient, ts)) {
      sampled.push_back(ts);
    }
  }
  // Retire them all: one early request is pathologically slow (5s), the rest take 200us.
  const uint64_t slow_ts = sampled[10];
  for (uint64_t ts : sampled) {
    tracer.Stamp(TracePhase::kDispatch, kClient, ts, kSecond);
    SimTime latency = ts == slow_ts ? 5 * kSecond : 200 * kMicrosecond;
    tracer.Stamp(TracePhase::kCertified, kClient, ts, kSecond + latency);
  }
  EXPECT_EQ(tracer.completed_count(), sampled.size());
  EXPECT_GT(tracer.evicted_timelines(), 0u);

  // The ring dropped the slow one (it was retired ~1090 retirements ago)...
  bool in_ring = false;
  for (const TraceTimeline& tl : tracer.Completed()) {
    in_ring = in_ring || tl.timestamp == slow_ts;
  }
  EXPECT_FALSE(in_ring) << "ring kept more than kMaxCompleted timelines";
  // ...but the exemplar tier kept it, slowest first.
  std::vector<TraceTimeline> slowest = tracer.Slowest();
  ASSERT_FALSE(slowest.empty());
  EXPECT_EQ(slowest.front().timestamp, slow_ts);
  EXPECT_EQ(slowest.front().total(), 5 * kSecond);
  EXPECT_NE(tracer.RenderJson().find("\"exemplars\""), std::string::npos);

  // A replica stamp arriving just after retirement merges into the ring, not the floor.
  uint64_t merges = tracer.straggler_merges();
  tracer.Stamp(TracePhase::kCommitted, kClient, sampled.back(), 2 * kSecond);
  EXPECT_EQ(tracer.straggler_merges(), merges + 1);
}

// /healthz verdict logic, from healthy through induced degradation on a live simulation.
TEST(HealthzTest, VerdictTracksClusterState) {
  Cluster cluster(QuietOptions(), [](NodeId) { return std::make_unique<NullService>(); });
  Client* client = cluster.AddClient();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        cluster.Execute(client, NullService::MakeOp(/*read_only=*/false, 0, 0)).has_value());
  }
  cluster.sim().RunFor(2 * kSecond);

  HealthSnapshot healthy = cluster.Health();
  ASSERT_EQ(healthy.replicas.size(), 4u);
  EXPECT_TRUE(EvaluateHealth(healthy).ok);
  std::string json = RenderHealthJson(healthy);
  EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"last_stable\""), std::string::npos);
  EXPECT_NE(json.find("\"high_water\""), std::string::npos);

  // A backup forced into a view change (without letting the sim complete it) degrades the
  // verdict with a per-replica reason.
  cluster.replica(1)->ForceViewChange();
  HealthVerdict verdict = EvaluateHealth(cluster.Health());
  EXPECT_FALSE(verdict.ok);
  bool saw_vc = false;
  for (const std::string& r : verdict.reasons) {
    saw_vc = saw_vc || r.find("view change") != std::string::npos;
  }
  EXPECT_TRUE(saw_vc) << RenderHealthJson(cluster.Health());
  EXPECT_NE(RenderHealthJson(cluster.Health()).find("\"status\": \"degraded\""),
            std::string::npos);

  // A crashed replica is its own reason, independent of view state.
  cluster.replica(2)->Crash();
  verdict = EvaluateHealth(cluster.Health());
  EXPECT_FALSE(verdict.ok);
  bool saw_down = false;
  for (const std::string& r : verdict.reasons) {
    saw_down = saw_down || r.find("down") != std::string::npos;
  }
  EXPECT_TRUE(saw_down);
}

// Verdict inputs that no simulator harness produces: control-plane and fault-arm signals.
TEST(HealthzTest, ControlPlaneSignalsDegradeTheVerdict) {
  HealthSnapshot snapshot;
  ReplicaHealth r;
  r.running = true;
  r.view_active = true;
  snapshot.replicas = {r, r};
  EXPECT_TRUE(EvaluateHealth(snapshot).ok);

  snapshot.replicas[1].view = 3;  // divergence between running replicas
  EXPECT_FALSE(EvaluateHealth(snapshot).ok);
  snapshot.replicas[1].view = 0;

  snapshot.active_migrations = 2;
  snapshot.frozen_buckets = 1;
  snapshot.faults_armed = true;
  HealthVerdict verdict = EvaluateHealth(snapshot);
  ASSERT_EQ(verdict.reasons.size(), 3u);
  std::string joined;
  for (const std::string& reason : verdict.reasons) {
    joined += reason + ";";
  }
  EXPECT_NE(joined.find("migration"), std::string::npos);
  EXPECT_NE(joined.find("frozen"), std::string::npos);
  EXPECT_NE(joined.find("fault injection armed"), std::string::npos);
  std::string json = RenderHealthJson(snapshot);
  EXPECT_NE(json.find("\"active_migrations\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"armed\": true"), std::string::npos);
}

// Raw-socket HTTP client for the hardening tests: sends `request` bytes (possibly a
// truncated request line, modeling a stalled client), then reads to EOF.
std::string RawHttp(uint16_t port, const std::string& request) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  if (!request.empty()) {
    EXPECT_EQ(send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  return response;
}

// Malformed or malicious clients must not wedge the single accept thread, and every
// response — success or error — must carry a status line and a Content-Type.
TEST(AdminServerTest, SurvivesMalformedClients) {
  MetricsRegistry registry;
  registry.GetCounter("bft_test_total")->Inc(5);
  RequestTracer tracer;
  AdminServer server(&registry, &tracer);
  server.set_read_timeout_ms(200);
  HealthSnapshot snapshot;
  ReplicaHealth r;
  r.running = true;
  r.view_active = true;
  snapshot.replicas = {r};
  server.SetHealthSource([snapshot]() { return snapshot; });
  ASSERT_TRUE(server.Listen(0));
  ASSERT_NE(server.port(), 0);

  // Unknown path: 404 with a Content-Type, and the error body names the routes.
  std::string response = RawHttp(server.port(), "GET /nope HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("404"), std::string::npos);
  EXPECT_NE(response.find("Content-Type:"), std::string::npos);
  EXPECT_NE(response.find("/healthz"), std::string::npos);

  // Happy paths still serve.
  response = RawHttp(server.port(), "GET /healthz HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("200"), std::string::npos);
  EXPECT_NE(response.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(response.find("Content-Type: application/json"), std::string::npos);

  // A client that sends a partial request line and stalls: the read deadline fires and the
  // connection is answered (408) instead of blocking the accept loop forever.
  response = RawHttp(server.port(), "GET /met");
  EXPECT_NE(response.find("408"), std::string::npos);
  EXPECT_NE(response.find("Content-Type:"), std::string::npos);

  // An oversized request line (no newline within the cap) is rejected as a bad request.
  response = RawHttp(server.port(), std::string(5000, 'x'));
  EXPECT_NE(response.find("400"), std::string::npos);

  // After all of the above the server is still fully serviceable.
  response = RawHttp(server.port(), "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("200"), std::string::npos);
  EXPECT_NE(response.find("bft_test_total 5"), std::string::npos);
  server.Stop();

  // Without a health source the route does not exist.
  AdminServer bare(&registry, &tracer);
  ASSERT_TRUE(bare.Listen(0));
  response = RawHttp(bare.port(), "GET /healthz HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("404"), std::string::npos);
  bare.Stop();
}

TEST(PrometheusTest, TextExpositionRoundTrip) {
  MetricsRegistry registry;
  registry.GetCounter("bft_test_ops_total", "node=\"1\"")->Inc(42);
  registry.GetCounter("bft_test_ops_total", "node=\"2\"")->Inc(7);
  registry.GetGauge("bft_test_view")->Set(-3);
  Histogram* h = registry.GetHistogram("bft_test_latency");
  h->Record(1);
  h->Record(100);
  registry.RegisterProbe("bft_test_probe", "src=\"auth\"", []() { return uint64_t{13}; });

  std::string text = registry.RenderPrometheusText();

  // Parse it back: every non-comment line is `name{labels} value` or `name value`.
  uint64_t ops_1 = 0;
  uint64_t ops_2 = 0;
  int64_t view = 1;
  uint64_t probe = 0;
  uint64_t hist_count = 0;
  uint64_t hist_sum = 0;
  uint64_t inf_bucket = 0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    std::string series = line.substr(0, space);
    std::string value = line.substr(space + 1);
    if (series == "bft_test_ops_total{node=\"1\"}") {
      ops_1 = std::stoull(value);
    } else if (series == "bft_test_ops_total{node=\"2\"}") {
      ops_2 = std::stoull(value);
    } else if (series == "bft_test_view") {
      view = std::stoll(value);
    } else if (series == "bft_test_probe{src=\"auth\"}") {
      probe = std::stoull(value);
    } else if (series == "bft_test_latency_count") {
      hist_count = std::stoull(value);
    } else if (series == "bft_test_latency_sum") {
      hist_sum = std::stoull(value);
    } else if (series == "bft_test_latency_bucket{le=\"+Inf\"}") {
      inf_bucket = std::stoull(value);
    }
  }
  EXPECT_EQ(ops_1, 42u);
  EXPECT_EQ(ops_2, 7u);
  EXPECT_EQ(view, -3);
  EXPECT_EQ(probe, 13u);
  EXPECT_EQ(hist_count, 2u);
  EXPECT_EQ(hist_sum, 101u);
  EXPECT_EQ(inf_bucket, 2u) << "+Inf bucket is cumulative over all records";
  EXPECT_NE(text.find("# TYPE bft_test_ops_total counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE bft_test_view gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE bft_test_latency histogram"), std::string::npos);

  // The JSON export draws from the same registry walk. Label-value quotes inside the
  // series id are JSON-escaped, so the key reads bft_test_ops_total{node=\"1\"}.
  std::string json = registry.RenderJson();
  EXPECT_NE(json.find("bft_test_ops_total{node=\\\"1\\\"}"), std::string::npos);
  EXPECT_NE(json.find("42"), std::string::npos);
  std::string combined = MetricsAndTracesJson(registry, nullptr);
  EXPECT_NE(combined.find("\"metrics\""), std::string::npos);
}

}  // namespace
}  // namespace bft
