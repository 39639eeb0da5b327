// Per-layer probes that time public entry points from outside the program: a timing
// decorator around Service::Execute, microbenchmarks of the crypto and codec calls, the
// deterministic simulator count pass, and the host reference loop.
#ifndef PERFBENCH_SRC_LAYERS_H_
#define PERFBENCH_SRC_LAYERS_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "perfbench/src/workload.h"
#include "src/service/service.h"

namespace perfbench {

// Execute() wall time, split by the read-only flag, summed over every replica that wraps
// its service with the same ExecuteStats. Nothing is timed until `on` is set, so before that
// the decorator costs one forwarding call and one relaxed load per Execute().
struct ExecuteStats {
  std::atomic<bool> on{false};
  std::atomic<uint64_t> read_ns{0};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> write_ns{0};
  std::atomic<uint64_t> writes{0};
};

// Forwards every upcall the replica makes to `inner`, timing Execute().
class TimedService : public bft::Service {
 public:
  TimedService(std::unique_ptr<bft::Service> inner, ExecuteStats* stats)
      : inner_(std::move(inner)), stats_(stats) {}

  void Initialize(bft::ReplicaState* state) override { inner_->Initialize(state); }
  bft::Bytes Execute(bft::NodeId client, bft::ByteView op, bft::ByteView ndet,
                     bool read_only) override;
  bool IsReadOnly(bft::ByteView op) const override { return inner_->IsReadOnly(op); }
  bool IsAdminOp(bft::ByteView op) const override { return inner_->IsAdminOp(op); }
  bft::Bytes ChooseNonDet(bft::SeqNo seq, bft::SimTime now) override {
    return inner_->ChooseNonDet(seq, now);
  }
  bool CheckNonDet(bft::ByteView ndet, bft::SimTime now) const override {
    return inner_->CheckNonDet(ndet, now);
  }
  bft::SimTime ExecutionCost(bft::ByteView op) const override {
    return inner_->ExecutionCost(op);
  }

 private:
  std::unique_ptr<bft::Service> inner_;
  ExecuteStats* stats_;
};

std::unique_ptr<bft::Service> MakeService(const WorkloadSpec& spec);

// Median ns per call over several timed batches.
struct CodecCosts {
  double mac_ns = 0;            // ComputeMac(HmacState, 48-byte header)
  double digest_ns_per_kb = 0;  // ComputeDigest over one 4 KB page, per KB
  double encode_ns = 0;         // EncodeMessage, mean of a PREPARE and a 100-B PUT request
  double decode_ns = 0;         // DecodeMessage of the same two
};
CodecCosts MeasureCodecCosts();

// Replays the first `ops_per_endpoint` ops of every endpoint's stream through the
// simulator Cluster (same ReplicaConfig, KV preload included but not counted), each endpoint
// closed-loop. No faults, no real clock: the counts repeat exactly for a given seed.
struct SimCounts {
  double msgs_per_op = 0;   // messages delivered (per destination)
  double bytes_per_op = 0;  // bytes put on the simulated wire (a multicast counts once)
  double macs_per_op = 0;   // replica-side MAC computations (generate + verify)
  uint64_t ops = 0;
};
SimCounts RunSimCounts(const WorkloadSpec& spec, uint64_t seed, int endpoints,
                       uint64_t ops_per_endpoint);

// A fixed CPU-bound loop (SHA-256 over a fixed buffer); its wall time tracks host speed.
double ReferenceLoopMs();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LAYERS_H_
