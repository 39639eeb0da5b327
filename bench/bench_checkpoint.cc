// E7 — Checkpoint creation cost (thesis Section 8.4.1): copy-on-write checkpointing cost as a
// function of state size and the fraction of pages modified per checkpoint epoch.
//
// Two measurements:
//  - simulated digest cost charged by the model (what a replica pays in protocol time)
//  - real wall-clock time of the data structure itself (google-benchmark)
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/core/state.h"

using namespace bft;

namespace {

ReplicaConfig StateConfig(size_t mb) {
  ReplicaConfig config;
  config.page_size = 4096;
  config.state_pages = mb * 1024 * 1024 / config.page_size;
  config.partition_branching = 256;
  return config;
}

void TouchPages(ReplicaState* state, size_t count, Rng* rng) {
  for (size_t i = 0; i < count; ++i) {
    uint64_t page = rng->Below(state->num_pages());
    uint64_t stamp = rng->Next();
    state->Write(page * state->page_size(),
                 ByteView(reinterpret_cast<const uint8_t*>(&stamp), sizeof(stamp)));
  }
}

// Real-time micro-benchmark of TakeCheckpoint, registered with google-benchmark. The timed
// region excludes TouchPages, and with copy-before-write checkpoints that is where the page
// copy now happens (the first Write of a page saves its pre-image). TakeCheckpoint itself
// only re-digests, so its times dropped when the copy moved out of it; that is not a
// speed-up of checkpointing as a whole and should not be cited as one.
void BM_TakeCheckpoint(benchmark::State& bench_state) {
  size_t mb = static_cast<size_t>(bench_state.range(0));
  size_t dirty = static_cast<size_t>(bench_state.range(1));
  ReplicaConfig config = StateConfig(mb);
  PerfModel model;
  ReplicaState state(&config, &model);
  state.Baseline({});
  Rng rng(99);
  SeqNo seq = 0;
  for (auto _ : bench_state) {
    bench_state.PauseTiming();
    TouchPages(&state, dirty, &rng);
    seq += 128;
    bench_state.ResumeTiming();
    benchmark::DoNotOptimize(state.TakeCheckpoint(seq, {}, nullptr));
    bench_state.PauseTiming();
    state.DiscardCheckpointsBelow(seq);
    bench_state.ResumeTiming();
  }
  bench_state.counters["dirty_pages"] = static_cast<double>(dirty);
}
BENCHMARK(BM_TakeCheckpoint)
    ->Args({4, 16})
    ->Args({4, 128})
    ->Args({16, 16})
    ->Args({16, 128})
    ->Args({64, 128})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  BenchJson json("bench_checkpoint", argc, argv);
  PrintHeader("E7", "checkpoint creation cost (copy-on-write + incremental AdHash digests)");

  PerfModel model;
  std::printf("%-12s %-14s %20s %16s\n", "state (MB)", "dirty pages", "simulated cost (us)",
              "per dirty page");
  for (size_t mb : {4u, 16u, 64u}) {
    for (size_t dirty : {16u, 128u, 1024u}) {
      ReplicaConfig config = StateConfig(mb);
      ReplicaState state(&config, &model);
      state.Baseline({});
      Rng rng(7);
      TouchPages(&state, dirty, &rng);
      CpuMeter cpu;
      cpu.BeginEvent(0);
      state.TakeCheckpoint(128, {}, &cpu);
      cpu.EndEvent();
      std::printf("%-12zu %-14zu %20.0f %15.2f\n", mb, dirty, ToUs(cpu.total_busy()),
                  ToUs(cpu.total_busy()) / static_cast<double>(dirty));
      json.Row("mb=" + std::to_string(mb) + ",dirty=" + std::to_string(dirty),
               {{"state_mb", std::to_string(mb)}, {"dirty_pages", std::to_string(dirty)}},
               {{"cost_us", ToUs(cpu.total_busy())},
                {"per_dirty_page_us", ToUs(cpu.total_busy()) / static_cast<double>(dirty)}});
    }
  }
  std::printf("\npaper shape checks:\n");
  std::printf("  - cost scales with the number of *modified* pages, not total state size\n");
  std::printf("    (copy-on-write + incremental digests)\n");
  std::printf("  - per-dirty-page cost is flat: the tree update above each page is O(levels)\n");

  std::printf("\nreal-time micro-benchmark of the data structure:\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
