// E5 — Impact of each optimization (thesis Section 8.3.3): ablation of digest replies,
// tentative execution, request batching, separate transmission, and MACs vs signatures.
#include "bench/bench_util.h"

using namespace bft;

namespace {

struct Variant {
  const char* name;
  void (*apply)(ReplicaConfig*);
};

SimTime LatencyFor(const Variant& v, size_t arg, size_t result, uint64_t seed) {
  ClusterOptions options = BenchOptions(seed);
  v.apply(&options.config);
  if (options.config.auth_mode == AuthMode::kSignature) {
    ScaleTimersForSignatures(&options.config);
  }
  Cluster cluster(options, NullFactory());
  return MeasureLatency(&cluster, NullService::MakeOp(false, arg, result), false, 12);
}

double ThroughputFor(const Variant& v, uint64_t seed) {
  ClusterOptions options = BenchOptions(seed);
  v.apply(&options.config);
  if (options.config.auth_mode == AuthMode::kSignature) {
    ScaleTimersForSignatures(&options.config);
  }
  Cluster cluster(options, NullFactory());
  ClosedLoopLoad load(
      &cluster, 20, [](size_t, uint64_t) { return NullService::MakeOp(false, 0, 8); }, false);
  return load.Run(kSecond, 4 * kSecond).ops_per_second;
}

}  // namespace

int main(int argc, char** argv) {
  BenchJson json("bench_optimizations", argc, argv);
  PrintHeader("E5", "impact of the optimizations (ablation)");

  const Variant kVariants[] = {
      {"all optimizations on", [](ReplicaConfig*) {}},
      {"no digest replies", [](ReplicaConfig* c) { c->digest_replies = false; }},
      {"no tentative execution", [](ReplicaConfig* c) { c->tentative_execution = false; }},
      // One request per pre-prepare under the default window of one open batch: this row
      // orders one request at a time, so it has neither batching nor pipelining.
      {"no batching", [](ReplicaConfig* c) { c->batching = false; }},
      {"no separate transmission",
       [](ReplicaConfig* c) { c->separate_transmission_threshold = 1 << 30; }},
      {"signatures (BFT-PK)", [](ReplicaConfig* c) { c->auth_mode = AuthMode::kSignature; }},
  };

  std::printf("%-28s %16s %16s %18s\n", "variant", "0/0 lat (us)", "4/4 lat (us)",
              "tput@20cli (op/s)");
  uint64_t seed = 600;
  for (const Variant& v : kVariants) {
    SimTime small = LatencyFor(v, 0, 8, seed++);
    SimTime big = LatencyFor(v, 4096, 4096, seed++);
    double tput = ThroughputFor(v, seed++);
    std::printf("%-28s %16.0f %16.0f %18.0f\n", v.name, ToUs(small), ToUs(big), tput);
    json.Row(v.name, {{"variant", v.name}},
             {{"lat_0_0_us", ToUs(small)}, {"lat_4_4_us", ToUs(big)}, {"tput_ops_per_s", tput}});
  }

  std::printf("\npaper shape checks:\n");
  std::printf("  - signatures are by far the largest slowdown (BFT vs BFT-PK)\n");
  std::printf("  - digest replies matter for large results (4/4 column)\n");
  std::printf("  - tentative execution shaves one phase off latency\n");
  std::printf("  - batching mainly lifts throughput under load\n");
  return 0;
}
