#include "perfbench/src/layers.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "src/core/messages.h"
#include "src/crypto/digest.h"
#include "src/crypto/mac.h"
#include "src/crypto/sha256.h"
#include "src/service/kv_service.h"
#include "src/service/null_service.h"
#include "src/workload/cluster.h"

namespace perfbench {

using bft::Bytes;
using bft::ByteView;

namespace {

uint64_t SteadyNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Median over `batches` of the mean ns per call of `fn` across `calls` calls.
template <typename Fn>
double MedianNsPerCall(int batches, int calls, Fn fn) {
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    uint64_t t0 = SteadyNs();
    for (int i = 0; i < calls; ++i) {
      fn(i);
    }
    per_call.push_back(static_cast<double>(SteadyNs() - t0) / calls);
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[per_call.size() / 2];
}

// Keeps a computed value observable so the timed call cannot be optimized away.
volatile uint8_t g_sink = 0;

}  // namespace

Bytes TimedService::Execute(bft::NodeId client, ByteView op, ByteView ndet, bool read_only) {
  if (!stats_->on.load(std::memory_order_relaxed)) {
    return inner_->Execute(client, op, ndet, read_only);
  }
  uint64_t t0 = SteadyNs();
  Bytes result = inner_->Execute(client, op, ndet, read_only);
  uint64_t ns = SteadyNs() - t0;
  if (read_only) {
    stats_->read_ns.fetch_add(ns, std::memory_order_relaxed);
    stats_->reads.fetch_add(1, std::memory_order_relaxed);
  } else {
    stats_->write_ns.fetch_add(ns, std::memory_order_relaxed);
    stats_->writes.fetch_add(1, std::memory_order_relaxed);
  }
  return result;
}

std::unique_ptr<bft::Service> MakeService(const WorkloadSpec& spec) {
  if (spec.kv) {
    return std::make_unique<bft::KvService>();
  }
  return std::make_unique<bft::NullService>();
}

CodecCosts MeasureCodecCosts() {
  CodecCosts costs;
  constexpr int kBatches = 9;

  bft::HmacState hmac(Bytes(bft::kSessionKeySize, 0x5a));
  Bytes header(48, 0x11);
  costs.mac_ns = MedianNsPerCall(kBatches, 20000, [&](int i) {
    header[0] = static_cast<uint8_t>(i);
    g_sink = g_sink + bft::ComputeMac(hmac, header).bytes[0];
  });

  Bytes page(4096, 0x22);
  costs.digest_ns_per_kb = MedianNsPerCall(kBatches, 500, [&](int i) {
    page[0] = static_cast<uint8_t>(i);
    g_sink = g_sink + bft::ComputeDigest(page).bytes[0];
  }) / 4.0;

  bft::PrepareMsg prepare;
  prepare.view = 3;
  prepare.seq = 12345;
  prepare.batch_digest = bft::ComputeDigest(page);
  prepare.replica = 2;
  prepare.auth = Bytes(4 * bft::MacTag::kSize, 0x33);
  bft::RequestMsg put;
  put.client = bft::kClientIdBase;
  put.timestamp = 77;
  put.op = bft::KvService::PutOp(KeyName(42), MakeValue(42, 0, 77));
  put.auth = Bytes(4 * bft::MacTag::kSize, 0x44);
  const bft::Message messages[2] = {bft::Message(prepare), bft::Message(put)};
  const Bytes wires[2] = {bft::EncodeMessage(messages[0]), bft::EncodeMessage(messages[1])};

  costs.encode_ns = MedianNsPerCall(kBatches, 20000, [&](int i) {
    g_sink = g_sink + static_cast<uint8_t>(bft::EncodeMessage(messages[i & 1]).size());
  });
  costs.decode_ns = MedianNsPerCall(kBatches, 20000, [&](int i) {
    std::optional<bft::Message> m = bft::DecodeMessage(wires[i & 1]);
    g_sink = g_sink + static_cast<uint8_t>(m.has_value() ? m->index() : 0xff);
  });
  return costs;
}

namespace {

uint64_t SumScalars(const bft::MetricsRegistry& registry, const std::string& name) {
  uint64_t total = 0;
  registry.VisitScalars([&](const std::string& n, const std::string&, int64_t v) {
    if (n == name) {
      total += static_cast<uint64_t>(v);
    }
  });
  return total;
}

uint64_t ReplicaMacs(const bft::MetricsRegistry& registry) {
  return SumScalars(registry, "bft_mac_cache_hits_total") +
         SumScalars(registry, "bft_mac_cache_misses_total");
}

}  // namespace

SimCounts RunSimCounts(const WorkloadSpec& spec, uint64_t seed, int endpoints,
                       uint64_t ops_per_endpoint) {
  bft::ClusterOptions options;
  options.config = BenchReplicaConfig(spec);
  options.seed = seed;
  bft::Cluster cluster(options, [&spec](bft::NodeId) { return MakeService(spec); });
  std::vector<bft::Client*> clients;
  for (int e = 0; e < endpoints; ++e) {
    clients.push_back(cluster.AddClient());
    clients.back()->set_client_config(BenchClientConfig());
  }
  if (spec.kv) {
    for (uint32_t k = 0; k < kNumKeys; ++k) {
      cluster.Execute(clients[k % clients.size()],
                      bft::KvService::PutOp(KeyName(k), MakeValue(k, kPreloadWriter, k)));
    }
  }

  uint64_t msgs0 = cluster.net().messages_delivered();
  uint64_t bytes0 = cluster.net().bytes_sent();
  uint64_t macs0 = ReplicaMacs(cluster.metrics());

  struct Loop {
    OpStream stream;
    uint64_t done = 0;
  };
  std::vector<Loop> loops;
  for (int e = 0; e < endpoints; ++e) {
    loops.push_back(Loop{OpStream(spec, seed, e, endpoints)});
  }
  std::function<void(size_t)> issue = [&](size_t e) {
    GenOp g = loops[e].stream.Next();
    clients[e]->Invoke(std::move(g.op), g.read, [&, e](Bytes) {
      if (++loops[e].done < ops_per_endpoint) {
        issue(e);
      }
    });
  };
  for (size_t e = 0; e < loops.size(); ++e) {
    issue(e);
  }
  cluster.sim().RunUntilCondition(
      [&]() {
        for (const Loop& l : loops) {
          if (l.done < ops_per_endpoint) {
            return false;
          }
        }
        return true;
      },
      cluster.sim().Now() + 600 * bft::kSecond);

  SimCounts counts;
  for (const Loop& l : loops) {
    counts.ops += l.done;
  }
  if (counts.ops > 0) {
    double ops = static_cast<double>(counts.ops);
    counts.msgs_per_op = static_cast<double>(cluster.net().messages_delivered() - msgs0) / ops;
    counts.bytes_per_op = static_cast<double>(cluster.net().bytes_sent() - bytes0) / ops;
    counts.macs_per_op = static_cast<double>(ReplicaMacs(cluster.metrics()) - macs0) / ops;
  }
  return counts;
}

double ReferenceLoopMs() {
  Bytes block(64 * 1024, 0x5c);
  std::vector<double> runs;
  for (int r = 0; r < 5; ++r) {
    uint64_t t0 = SteadyNs();
    for (int i = 0; i < 64; ++i) {
      block[0] = static_cast<uint8_t>(i);
      g_sink = g_sink + bft::ComputeDigest(block).bytes[0];
    }
    runs.push_back(static_cast<double>(SteadyNs() - t0) / 1e6);
  }
  std::sort(runs.begin(), runs.end());
  return runs[runs.size() / 2];
}

}  // namespace perfbench
