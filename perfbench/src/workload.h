// Workload definitions and the seeded op-stream generator.
//
// The cluster only ever sees what this file generates from (workload, seed, endpoint): keys,
// the read/write choice, PUT values, and open-loop arrival gaps. The same seed gives the same
// stream, so two runs of one seed differ only by the host, never by the inputs.
#ifndef PERFBENCH_SRC_WORKLOAD_H_
#define PERFBENCH_SRC_WORKLOAD_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/core/config.h"
#include "src/workload/closed_loop.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  // KvService with a preloaded key space, driven open-loop by Poisson arrivals at kKvRate;
  // else NullService 0/0 ops, driven closed-loop.
  bool kv = false;
  bool failover = false;  // crash the view-0 primary mid-run, restart it once writes resume
  size_t state_pages = 64;
};

// null_closed, kv_open, kv_failover; nullopt for anything else.
std::optional<WorkloadSpec> FindWorkload(const std::string& name);

// The real-clock timeouts every workload shares: client retry after 100 ms (capped at 2 s),
// as in bft_chaos; view change after kViewChangeTimeout (capped at 5 s), where bft_chaos
// waits 400 ms. On a shared 4-vCPU host one replica's loop thread can fall 400 ms behind its
// peers; its view-change timer then fires on its own, and a replica alone in a higher view
// waits there until the group changes view, which a healthy group never does (see README,
// Caveats). Everything else keeps the ReplicaConfig defaults except `state_pages`.
constexpr bft::SimTime kViewChangeTimeout = 1000 * bft::kMillisecond;
bft::ReplicaConfig BenchReplicaConfig(const WorkloadSpec& spec);
bft::ClientConfig BenchClientConfig();

// KV geometry: 8192 keys preloaded into 2048 state pages; Zipf 0.99 popularity; 50% GET on
// the read-only path, 50% PUT of 100-byte values.
constexpr uint32_t kNumKeys = 8192;
// Offered KV load in ops/s over all endpoints. Not more: on a host whose speed halves,
// per-endpoint utilisation stays near 0.25 and p50 still measures service time, not queueing.
constexpr double kKvRate = 2000;
constexpr double kZipfTheta = 0.99;
constexpr double kReadShare = 0.5;
constexpr size_t kValueSize = 100;
// Writer id stamped into preloaded values (load endpoints are 0..N-1).
constexpr uint32_t kPreloadWriter = 255;

bft::Bytes KeyName(uint32_t key);
// A PUT value names its key and its writer: "k=<key> w=<writer> n=<op index> " then filler,
// so any GET result can be traced back to the one PUT that wrote it.
bft::Bytes MakeValue(uint32_t key, uint32_t writer, uint64_t op_index);
struct ValueTag {
  uint32_t key = 0;
  uint32_t writer = 0;
  uint64_t op_index = 0;
};
std::optional<ValueTag> ParseValue(bft::ByteView value);

struct GenOp {
  bft::Bytes op;
  bool read = false;   // issued on the read-only path
  uint32_t key = 0;    // KV only
  double gap_s = 0;    // open loop: time since this endpoint's previous arrival
};

// One endpoint's infinite op stream. Endpoints get independent streams derived from the
// seed, each carrying 1/endpoints of the offered rate.
class OpStream {
 public:
  OpStream(const WorkloadSpec& spec, uint64_t seed, int endpoint, int endpoints);

  GenOp Next();
  uint64_t index() const { return index_; }  // ops generated so far

 private:
  WorkloadSpec spec_;
  int endpoint_;
  double rate_;  // this endpoint's share of kKvRate
  bft::Rng rng_;
  bft::ZipfianGenerator zipf_;
  uint64_t key_mul_;  // rank -> key bijection on [0, kNumKeys): (rank * mul + add) mod N
  uint64_t key_add_;
  uint64_t index_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOAD_H_
