// Integration tests for the normal-case three-phase protocol (Chapter 2/3) on a simulated
// cluster: agreement, exactly-once semantics, batching, optimizations, and fail-stop faults.
#include <gtest/gtest.h>

#include "src/service/counter_service.h"
#include "src/service/kv_service.h"
#include "src/service/null_service.h"
#include "src/workload/closed_loop.h"
#include "src/workload/cluster.h"

namespace bft {
namespace {

ClusterOptions SmallCluster(uint64_t seed = 1) {
  ClusterOptions options;
  options.seed = seed;
  options.config.n = 4;
  options.config.checkpoint_period = 8;
  options.config.log_size = 16;
  options.config.state_pages = 16;
  options.config.partition_branching = 4;
  return options;
}

ServiceFactory CounterFactory() {
  return [](NodeId) { return std::make_unique<CounterService>(); };
}

TEST(ProtocolTest, SingleOperationCommits) {
  Cluster cluster(SmallCluster(), CounterFactory());
  Client* client = cluster.AddClient();
  std::optional<Bytes> result = cluster.Execute(client, CounterService::IncOp());
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(CounterService::DecodeValue(*result), 1u);
}

TEST(ProtocolTest, SequentialOperationsAllExecuteInOrder) {
  Cluster cluster(SmallCluster(), CounterFactory());
  Client* client = cluster.AddClient();
  for (uint64_t i = 1; i <= 20; ++i) {
    std::optional<Bytes> result = cluster.Execute(client, CounterService::IncOp());
    ASSERT_TRUE(result.has_value()) << "op " << i;
    EXPECT_EQ(CounterService::DecodeValue(*result), i);
  }
}

TEST(ProtocolTest, AllReplicasConverge) {
  Cluster cluster(SmallCluster(), CounterFactory());
  Client* client = cluster.AddClient();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.Execute(client, CounterService::IncOp()).has_value());
  }
  // Let commits propagate everywhere, then check every replica executed everything.
  cluster.sim().RunFor(2 * kSecond);
  for (int i = 0; i < cluster.num_replicas(); ++i) {
    EXPECT_GE(cluster.replica(i)->last_executed(), 10u) << "replica " << i;
    uint64_t value = 0;
    cluster.replica(i)->state().Read(0, sizeof(value), reinterpret_cast<uint8_t*>(&value));
    EXPECT_EQ(value, 10u) << "replica " << i;
  }
}

TEST(ProtocolTest, ReadOnlyOperationSingleRoundTrip) {
  Cluster cluster(SmallCluster(), CounterFactory());
  Client* client = cluster.AddClient();
  ASSERT_TRUE(cluster.Execute(client, CounterService::IncOp()).has_value());
  cluster.sim().RunFor(kSecond);

  uint64_t msgs_before = cluster.net().messages_sent();
  std::optional<Bytes> result =
      cluster.Execute(client, CounterService::GetOp(), /*read_only=*/true);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(CounterService::DecodeValue(*result), 1u);
  // Read-only: one multicast request + n replies (plus possibly status traffic).
  uint64_t msgs = cluster.net().messages_sent() - msgs_before;
  EXPECT_LE(msgs, 10u);
}

TEST(ProtocolTest, ReadOnlyLatencyBeatsReadWrite) {
  Cluster cluster(SmallCluster(), CounterFactory());
  Client* client = cluster.AddClient();
  ASSERT_TRUE(cluster.Execute(client, CounterService::IncOp()).has_value());
  SimTime rw = client->stats().last_latency;
  ASSERT_TRUE(cluster.Execute(client, CounterService::GetOp(), true).has_value());
  SimTime ro = client->stats().last_latency;
  EXPECT_LT(ro, rw);
}

TEST(ProtocolTest, MultipleClientsInterleave) {
  Cluster cluster(SmallCluster(), CounterFactory());
  std::vector<Client*> clients;
  for (int i = 0; i < 5; ++i) {
    clients.push_back(cluster.AddClient());
  }
  int completed = 0;
  for (Client* c : clients) {
    c->Invoke(CounterService::IncOp(), false, [&completed](Bytes) { ++completed; });
  }
  ASSERT_TRUE(cluster.sim().RunUntilCondition([&completed]() { return completed == 5; },
                                              10 * kSecond));
  cluster.sim().RunFor(kSecond);
  uint64_t value = 0;
  cluster.replica(0)->state().Read(0, sizeof(value), reinterpret_cast<uint8_t*>(&value));
  EXPECT_EQ(value, 5u);
}

TEST(ProtocolTest, SurvivesOneCrashedBackup) {
  Cluster cluster(SmallCluster(), CounterFactory());
  cluster.replica(2)->Crash();  // a backup
  Client* client = cluster.AddClient();
  for (uint64_t i = 1; i <= 5; ++i) {
    std::optional<Bytes> result = cluster.Execute(client, CounterService::IncOp());
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(CounterService::DecodeValue(*result), i);
  }
}

TEST(ProtocolTest, SurvivesOneMuteBackup) {
  Cluster cluster(SmallCluster(), CounterFactory());
  cluster.replica(1)->SetMute(true);  // Byzantine-silent backup
  Client* client = cluster.AddClient();
  for (uint64_t i = 1; i <= 5; ++i) {
    std::optional<Bytes> result = cluster.Execute(client, CounterService::IncOp());
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(CounterService::DecodeValue(*result), i);
  }
}

TEST(ProtocolTest, ExactlyOnceUnderMessageLoss) {
  ClusterOptions options = SmallCluster(7);
  Cluster cluster(options, CounterFactory());
  cluster.net().SetDropProbability(0.05);
  Client* client = cluster.AddClient();
  for (uint64_t i = 1; i <= 15; ++i) {
    std::optional<Bytes> result =
        cluster.Execute(client, CounterService::IncOp(), false, 60 * kSecond);
    ASSERT_TRUE(result.has_value()) << "op " << i;
    EXPECT_EQ(CounterService::DecodeValue(*result), i) << "duplicate or lost execution";
  }
}

TEST(ProtocolTest, ExactlyOnceAcrossTheLogWindowUnderHeavyLoss) {
  // 20 sequential ops overrun the 16-entry log, so the window can only advance through a
  // checkpoint certificate assembled under 10% loss.
  ClusterOptions options = SmallCluster(7);
  Cluster cluster(options, CounterFactory());
  cluster.net().SetDropProbability(0.1);
  Client* client = cluster.AddClient();
  for (uint64_t i = 1; i <= 20; ++i) {
    std::optional<Bytes> result =
        cluster.Execute(client, CounterService::IncOp(), false, 60 * kSecond);
    ASSERT_TRUE(result.has_value()) << "op " << i;
    EXPECT_EQ(CounterService::DecodeValue(*result), i) << "duplicate or lost execution";
  }
  EXPECT_GT(cluster.replica(0)->low_water(), 0u) << "the log window never advanced";
}

TEST(ProtocolTest, ExactlyOnceUnderDuplication) {
  ClusterOptions options = SmallCluster(8);
  Cluster cluster(options, CounterFactory());
  cluster.net().SetDropProbability(0.02);
  Cluster* c = &cluster;
  (void)c;
  Client* client = cluster.AddClient();
  for (uint64_t i = 1; i <= 10; ++i) {
    std::optional<Bytes> result =
        cluster.Execute(client, CounterService::IncOp(), false, 60 * kSecond);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(CounterService::DecodeValue(*result), i);
  }
}

TEST(ProtocolTest, KvStoreBasicOperations) {
  ClusterOptions options = SmallCluster(3);
  Cluster cluster(options, [](NodeId) { return std::make_unique<KvService>(); });
  Client* client = cluster.AddClient();

  auto result = cluster.Execute(client, KvService::PutOp(ToBytes("key1"), ToBytes("value1")));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(ToString(*result), "ok");

  result = cluster.Execute(client, KvService::GetOp(ToBytes("key1")), true);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(ToString(*result), "value1");

  result = cluster.Execute(client, KvService::DelOp(ToBytes("key1")));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(ToString(*result), "ok");

  result = cluster.Execute(client, KvService::GetOp(ToBytes("key1")), true);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->empty());
}

TEST(ProtocolTest, LargeRequestUsesSeparateTransmission) {
  ClusterOptions options = SmallCluster(4);
  Cluster cluster(options, [](NodeId) { return std::make_unique<NullService>(); });
  Client* client = cluster.AddClient();
  // 4 KB argument: above the 255-byte inline threshold.
  std::optional<Bytes> result =
      cluster.Execute(client, NullService::MakeOp(false, 4096, 16));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->size(), 16u);
}

TEST(ProtocolTest, LargeReplyUsesDigestReplies) {
  ClusterOptions options = SmallCluster(5);
  Cluster cluster(options, [](NodeId) { return std::make_unique<NullService>(); });
  Client* client = cluster.AddClient();
  std::optional<Bytes> result = cluster.Execute(client, NullService::MakeOp(false, 16, 4096));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->size(), 4096u);
}

TEST(ProtocolTest, GarbageCollectionAdvancesWatermarks) {
  ClusterOptions options = SmallCluster(6);
  Cluster cluster(options, CounterFactory());
  Client* client = cluster.AddClient();
  // Push well past the checkpoint period (8) so the low-water mark must advance.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(cluster.Execute(client, CounterService::IncOp()).has_value());
  }
  cluster.sim().RunFor(2 * kSecond);
  for (int i = 0; i < cluster.num_replicas(); ++i) {
    EXPECT_GE(cluster.replica(i)->low_water(), 8u) << "replica " << i;
    EXPECT_GT(cluster.replica(i)->stats().stable_checkpoints, 0u);
  }
}

TEST(ProtocolTest, BatchingAssignsOneSeqToManyRequests) {
  ClusterOptions options = SmallCluster(9);
  options.config.max_batch_requests = 8;
  Cluster cluster(options, CounterFactory());
  std::vector<Client*> clients;
  for (int i = 0; i < 8; ++i) {
    clients.push_back(cluster.AddClient());
  }
  int completed = 0;
  for (Client* c : clients) {
    c->Invoke(CounterService::IncOp(), false, [&completed](Bytes) { ++completed; });
  }
  ASSERT_TRUE(
      cluster.sim().RunUntilCondition([&completed]() { return completed == 8; }, 10 * kSecond));
  // With batching, 8 requests should need far fewer than 8 sequence numbers.
  EXPECT_LT(cluster.replica(0)->last_executed(), 8u);
  cluster.sim().RunFor(kSecond);
  uint64_t value = 0;
  cluster.replica(0)->state().Read(0, sizeof(value), reinterpret_cast<uint8_t*>(&value));
  EXPECT_EQ(value, 8u);
}

// Batching behind the open instance (Section 5.1.4's window at its default of one batch):
// requests that reach the primary while its batch is still unexecuted share the next
// pre-prepare. Returns the primary's counts after a closed-loop run has drained.
struct BatchCounts {
  uint64_t requests = 0;      // ops executed (the counter's final value)
  uint64_t pre_prepares = 0;  // pre-prepares the primary sent, status retransmissions included
  uint64_t batches = 0;       // bft_batch_size samples
  uint64_t batched = 0;       // bft_batch_size sum
};

BatchCounts RunClosedLoopCounter(size_t clients) {
  Cluster cluster(SmallCluster(11), CounterFactory());
  ClosedLoopLoad load(
      &cluster, clients, [](size_t, uint64_t) { return CounterService::IncOp(); }, false);
  load.Run(50 * kMillisecond, 300 * kMillisecond);
  cluster.sim().RunFor(2 * kSecond);  // the load stopped pumping; let in-flight ops finish

  MetricsRegistry& m = cluster.metrics();
  const std::string node = "node=\"0\"";
  BatchCounts counts;
  cluster.replica(0)->state().Read(0, sizeof(counts.requests),
                                   reinterpret_cast<uint8_t*>(&counts.requests));
  counts.pre_prepares =
      m.GetCounter("bft_messages_out_total", node + ",type=\"pre_prepare\"")->value();
  counts.batches = m.GetHistogram("bft_batch_size", node)->count();
  counts.batched = m.GetHistogram("bft_batch_size", node)->sum();
  EXPECT_EQ(cluster.replica(0)->view(), 0u);
  EXPECT_EQ(counts.batched, counts.requests) << "every executed request ran exactly once";
  return counts;
}

TEST(ProtocolTest, RequestsThatWaitShareTheNextBatch) {
  // Four clients, the repository benchmark's shape: never more requests outstanding than a
  // window of four open instances, so only a window that closes on execution batches them.
  BatchCounts many = RunClosedLoopCounter(4);
  ASSERT_GT(many.batches, 0u);
  EXPECT_GT(static_cast<double>(many.batched) / static_cast<double>(many.batches), 1.0)
      << "mean bft_batch_size with 4 clients";
  EXPECT_LT(many.pre_prepares, many.requests);

  BatchCounts lone = RunClosedLoopCounter(1);
  ASSERT_GT(lone.batches, 0u);
  EXPECT_EQ(lone.batched, lone.batches) << "an idle primary pre-prepares a lone request at once";
}

TEST(ProtocolTest, TentativeExecutionDisabledStillCorrect) {
  ClusterOptions options = SmallCluster(10);
  options.config.tentative_execution = false;
  Cluster cluster(options, CounterFactory());
  Client* client = cluster.AddClient();
  for (uint64_t i = 1; i <= 5; ++i) {
    std::optional<Bytes> result = cluster.Execute(client, CounterService::IncOp());
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(CounterService::DecodeValue(*result), i);
  }
}

TEST(ProtocolTest, SignatureModeBftPk) {
  ClusterOptions options = SmallCluster(11);
  options.config.auth_mode = AuthMode::kSignature;
  // Signature-mode operations take tens of milliseconds; scale the timers accordingly so the
  // slow crypto is not mistaken for a faulty primary (as a deployment would configure them).
  options.config.view_change_timeout = 5 * kSecond;
  options.config.client_retry_timeout = 10 * kSecond;
  Cluster cluster(options, CounterFactory());
  Client* client = cluster.AddClient();
  for (uint64_t i = 1; i <= 3; ++i) {
    std::optional<Bytes> result =
        cluster.Execute(client, CounterService::IncOp(), false, 120 * kSecond);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(CounterService::DecodeValue(*result), i);
  }
}

TEST(ProtocolTest, SignatureModeSlowerThanMacMode) {
  SimTime mac_latency = 0;
  SimTime sig_latency = 0;
  {
    Cluster cluster(SmallCluster(12), CounterFactory());
    Client* client = cluster.AddClient();
    ASSERT_TRUE(cluster.Execute(client, CounterService::IncOp()).has_value());
    mac_latency = client->stats().last_latency;
  }
  {
    ClusterOptions options = SmallCluster(12);
    options.config.auth_mode = AuthMode::kSignature;
    Cluster cluster(options, CounterFactory());
    Client* client = cluster.AddClient();
    ASSERT_TRUE(
        cluster.Execute(client, CounterService::IncOp(), false, 120 * kSecond).has_value());
    sig_latency = client->stats().last_latency;
  }
  // The paper's headline: MACs beat signatures by orders of magnitude.
  EXPECT_GT(sig_latency, 10 * mac_latency);
}

TEST(ProtocolTest, MoreReplicasStillCommit) {
  for (int n : {7, 10}) {
    ClusterOptions options = SmallCluster(static_cast<uint64_t>(n));
    options.config.n = n;
    Cluster cluster(options, CounterFactory());
    Client* client = cluster.AddClient();
    std::optional<Bytes> result = cluster.Execute(client, CounterService::IncOp());
    ASSERT_TRUE(result.has_value()) << "n=" << n;
    EXPECT_EQ(CounterService::DecodeValue(*result), 1u);
  }
}

}  // namespace
}  // namespace bft
