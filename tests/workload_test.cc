// Tests for the workload substrate: closed-loop load, the Andrew generator, and the KV and
// null services under parameterized sweeps.
#include <gtest/gtest.h>

#include "src/service/kv_service.h"
#include "src/service/null_service.h"
#include "src/workload/andrew.h"
#include "src/workload/closed_loop.h"

namespace bft {
namespace {

ClusterOptions Options(uint64_t seed) {
  ClusterOptions options;
  options.seed = seed;
  options.config.checkpoint_period = 32;
  options.config.log_size = 64;
  options.config.state_pages = 64;
  return options;
}

TEST(ClosedLoopTest, ProducesThroughputAndLatency) {
  Cluster cluster(Options(71), [](NodeId) { return std::make_unique<NullService>(); });
  ClosedLoopLoad load(
      &cluster, 5, [](size_t, uint64_t) { return NullService::MakeOp(false, 0, 8); }, false);
  ClosedLoopLoad::Result r = load.Run(500 * kMillisecond, 2 * kSecond);
  EXPECT_GT(r.ops_completed, 100u);
  EXPECT_GT(r.ops_per_second, 100.0);
  EXPECT_GT(r.mean_latency, 0u);
}

TEST(ClosedLoopTest, MoreClientsMoreThroughputUntilSaturation) {
  double t1;
  double t10;
  {
    Cluster cluster(Options(72), [](NodeId) { return std::make_unique<NullService>(); });
    ClosedLoopLoad load(
        &cluster, 1, [](size_t, uint64_t) { return NullService::MakeOp(false, 0, 8); },
        false);
    t1 = load.Run(500 * kMillisecond, 2 * kSecond).ops_per_second;
  }
  {
    Cluster cluster(Options(73), [](NodeId) { return std::make_unique<NullService>(); });
    ClosedLoopLoad load(
        &cluster, 10, [](size_t, uint64_t) { return NullService::MakeOp(false, 0, 8); },
        false);
    t10 = load.Run(500 * kMillisecond, 2 * kSecond).ops_per_second;
  }
  EXPECT_GT(t10, 1.5 * t1);
}

TEST(ClosedLoopTest, ManyClientsWithLargeArgumentsStayInViewZero) {
  // 20 clients each sending 4 KiB arguments saturate the group; the load alone must not
  // trip a view change or an authentication failure.
  ClusterOptions options = Options(4616);
  options.config.checkpoint_period = 128;
  options.config.log_size = 256;
  options.config.partition_branching = 16;
  Cluster cluster(options, [](NodeId) { return std::make_unique<NullService>(); });
  ClosedLoopLoad load(
      &cluster, 20, [](size_t, uint64_t) { return NullService::MakeOp(false, 4096, 8); },
      false);
  ClosedLoopLoad::Result r = load.Run(kSecond, 4 * kSecond);
  EXPECT_GT(r.ops_completed, 100u);
  for (int i = 0; i < cluster.num_replicas(); ++i) {
    EXPECT_EQ(cluster.replica(i)->view(), 0u) << "replica " << i;
    EXPECT_EQ(cluster.replica(i)->stats().view_changes_started, 0u) << "replica " << i;
    EXPECT_EQ(cluster.replica(i)->stats().rejected_auth, 0u) << "replica " << i;
  }
}

TEST(AndrewTest, GeneratorIsDeterministic) {
  AndrewScale scale;
  std::vector<AndrewOp> a = BuildAndrewOps(scale);
  std::vector<AndrewOp> b = BuildAndrewOps(scale);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].op, b[i].op) << i;
    EXPECT_EQ(a[i].read_only, b[i].read_only);
    EXPECT_EQ(a[i].phase, b[i].phase);
  }
}

TEST(AndrewTest, PhasesAreOrderedAndReadOnlyCorrect) {
  std::vector<AndrewOp> ops = BuildAndrewOps(AndrewScale{});
  int last_phase = 0;
  for (const AndrewOp& op : ops) {
    EXPECT_GE(op.phase, last_phase);
    last_phase = op.phase;
    if (op.phase == 2 || op.phase == 3) {
      EXPECT_TRUE(op.read_only) << "stat/read phases must be read-only";
    }
  }
  EXPECT_EQ(last_phase, 4);
}

TEST(AndrewTest, UnreplicatedRunExecutesEveryOpSuccessfully) {
  AndrewScale scale;
  scale.dirs = 3;
  scale.files_per_dir = 2;
  ReplicaConfig config;
  config.state_pages = 512;
  config.page_size = 1024;
  PerfModel model;
  AndrewResult result = RunAndrewUnreplicated(config, model, scale, 1);
  uint64_t total_ops = 0;
  for (int p = 0; p < AndrewResult::kPhases; ++p) {
    EXPECT_GT(result.phase_time[p], 0u) << AndrewResult::PhaseName(p);
    total_ops += result.phase_ops[p];
  }
  EXPECT_EQ(total_ops, BuildAndrewOps(scale).size());
}

TEST(AndrewTest, ReplicatedSmallRunCompletes) {
  AndrewScale scale;
  scale.dirs = 2;
  scale.files_per_dir = 2;
  scale.file_size = 2048;
  scale.objects = 2;
  ClusterOptions options = Options(74);
  options.config.state_pages = 512;
  options.config.page_size = 1024;
  Cluster cluster(options, [](NodeId) { return std::make_unique<BfsService>(); });
  Client* client = cluster.AddClient();
  AndrewResult result = RunAndrewReplicated(&cluster, client, scale, 60 * kSecond);
  uint64_t total_ops = 0;
  for (uint64_t ops : result.phase_ops) {
    total_ops += ops;
  }
  EXPECT_EQ(total_ops, BuildAndrewOps(scale).size()) << "some ops timed out";
  EXPECT_GT(result.total(), 0u);
}

// --- Parameterized service sweeps ---------------------------------------------------------------

class KvSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(KvSweepTest, ManyKeysSurviveCheckpointingAndReads) {
  int keys = GetParam();
  ClusterOptions options = Options(75 + static_cast<uint64_t>(keys));
  options.config.checkpoint_period = 8;
  options.config.log_size = 16;
  Cluster cluster(options, [](NodeId) { return std::make_unique<KvService>(); });
  Client* client = cluster.AddClient();
  for (int i = 0; i < keys; ++i) {
    std::string key = "k" + std::to_string(i);
    std::string value = "v" + std::to_string(i * i);
    auto r = cluster.Execute(client, KvService::PutOp(ToBytes(key), ToBytes(value)), false,
                             60 * kSecond);
    ASSERT_TRUE(r.has_value());
    ASSERT_EQ(ToString(*r), "ok");
  }
  for (int i = 0; i < keys; ++i) {
    std::string key = "k" + std::to_string(i);
    auto r = cluster.Execute(client, KvService::GetOp(ToBytes(key)), true, 60 * kSecond);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(ToString(*r), "v" + std::to_string(i * i));
  }
}

INSTANTIATE_TEST_SUITE_P(KeyCounts, KvSweepTest, ::testing::Values(1, 10, 40));

class NullOpSizeTest : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(NullOpSizeTest, ArbitraryArgResultSizesRoundTrip) {
  auto [arg, result_size] = GetParam();
  Cluster cluster(Options(90 + arg + result_size),
                  [](NodeId) { return std::make_unique<NullService>(); });
  Client* client = cluster.AddClient();
  auto r = cluster.Execute(client, NullService::MakeOp(false, arg, result_size), false,
                           60 * kSecond);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->size(), result_size);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, NullOpSizeTest,
    ::testing::Values(std::make_tuple(0, 0), std::make_tuple(0, 1), std::make_tuple(1, 0),
                      std::make_tuple(255, 255), std::make_tuple(256, 256),
                      std::make_tuple(4096, 0), std::make_tuple(0, 4096),
                      std::make_tuple(8192, 8192)));

}  // namespace
}  // namespace bft
