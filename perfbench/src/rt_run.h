// One real-clock round of a workload: set-up, warm-up, the measured window, the
// optional primary failover, drain, quiesce, and the correctness check.
#ifndef PERFBENCH_SRC_RT_RUN_H_
#define PERFBENCH_SRC_RT_RUN_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/workload.h"

namespace perfbench {

struct RunConfig {
  WorkloadSpec spec;
  uint64_t seed = 1;
  double seconds = 10;  // measured window of one round
  bool trace = false;
  int endpoints = 4;
  // Fault injected into the benchmark's own view of the run, to prove the correctness check
  // bites: "reply" corrupts one delivered result, "state" one replica's state after Stop().
  std::string inject;
};

// One certified (or abandoned) operation. `start_ns` is the invoke time on the closed loop
// and the due time on the open loop; `done_ns` is 0 if no certificate arrived.
struct Sample {
  int64_t start_ns = 0;
  int64_t done_ns = 0;
  bool read = false;
};

// Registry counters, histogram sums/counts, loop-thread CPU clocks and getrusage, read at
// one instant; the per-layer metrics are differences of two of these.
struct Snapshot {
  std::map<std::string, double> values;
};

// One set-up: construction, Start(), each client's first op, the KV preload, and the wait
// until the replicas agree. `cpu_s` is process CPU time over every thread, which a
// host that steals cycles does not inflate; `wall_s` is elapsed time. `retries` counts the
// set-ups discarded before it because their replicas did not settle (see SetUp).
struct SetUpCost {
  double cpu_s = 0;
  double wall_s = 0;
  int retries = 0;
};

struct RtRunResult {
  SetUpCost setup;
  // Measured window [t0, t1) on the steady clock; in trace runs, [r0, r1) is the untraced
  // reference window that precedes it.
  int64_t t0_ns = 0;
  int64_t t1_ns = 0;
  int64_t r0_ns = 0;
  int64_t r1_ns = 0;
  std::vector<Sample> samples;        // every op whose start fell in a window
  std::vector<int64_t> lateness_ns;   // open loop: timer fire time - due time, in window
  uint64_t bad_results = 0;           // certified, but the result was an error ("full")
  std::vector<std::string> violations;
  Snapshot begin;  // at t0
  Snapshot end;    // at t1 (failover: rt_node CPU clocks stop at the crash)
  Snapshot after_catchup;  // after the drain and, on kv_failover, the restarted replica's rejoin
  double peak_rss_mb = 0;
  // Failover only; -1 when the event never happened (a failed failover round).
  double outage_ms = -1;
  double catchup_ms = -1;
};

// One round on a freshly set-up cluster.
RtRunResult RunRealClock(const RunConfig& config);

// Sets up a cluster as a round does and stops it again, untimed.
SetUpCost TimeSetUp(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_RT_RUN_H_
