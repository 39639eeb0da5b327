// Real-clock runtime benchmark: certified-ops throughput and latency of an RtCluster over
// the in-process channel and over loopback UDP sockets, with the datagram-formation layer
// and request batching on and off.
//
// Unlike every other bench in this directory, the numbers here are *wall-clock* — real
// threads, real sockets, the monotonic clock — so they move when the implementation gets
// faster, not when the Chapter-7 cost model changes. Each cell runs C closed-loop clients,
// each on its own harness thread, issuing null 0/0 operations; every completed operation is
// backed by a full reply certificate.
//
// Usage: bench_runtime [--duration-ms D] [--clients C] [--replicas N] [--quick] [--json path]
//                      [--metrics-json path]
//
// --metrics-json writes one per-cell observability dump (the harness registry plus the
// tracer, as JSON) next to the bench artifacts — path "m.json" yields "m.<cell>.json". It is
// a separate file from --json on purpose: the gated bench rows stay exactly as the
// regression differ expects them.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/obs/export.h"
#include "src/runtime/rt_cluster.h"

namespace bft {
namespace {

struct CellResult {
  double ops_per_sec = 0;
  double mean_us = 0;
  double p50_us = 0;
  double p99_us = 0;
  uint64_t ops = 0;
  uint64_t failures = 0;
};

RtClusterOptions RuntimeOptions(RtClusterOptions::TransportKind transport, bool formation,
                                bool batching, int replicas) {
  RtClusterOptions options;
  options.config.n = replicas;
  options.config.state_pages = 64;
  options.config.batching = batching;
  // Real time burns here: the simulator's 50 ms fault timeout would let one scheduler stall
  // on a loaded machine fake a faulty primary mid-measurement.
  options.config.view_change_timeout = 10 * kSecond;
  options.config.max_view_change_timeout = 60 * kSecond;
  options.config.client_retry_timeout = 2 * kSecond;
  options.seed = 7;
  options.transport = transport;
  options.formation = formation;
  return options;
}

// C closed-loop clients for `duration`; returns certified throughput and latency stats.
// With a non-empty `metrics_path`, the cell's metrics registry is dumped there as JSON
// after the loops stop.
CellResult RunCell(RtClusterOptions options, int clients, double duration_s,
                   const std::string& metrics_path) {
  RtCluster cluster(options, [](NodeId) { return std::make_unique<NullService>(); });
  std::vector<Client*> handles;
  for (int c = 0; c < clients; ++c) {
    handles.push_back(cluster.AddClient());
  }
  cluster.Start();

  Bytes op = NullService::MakeOp(/*read_only=*/false, 0, 0);
  // Warmup outside the measured window: first ops pay session-key derivation and page-in.
  for (Client* client : handles) {
    cluster.Execute(client, op, /*read_only=*/false, 10 * kSecond);
  }

  std::atomic<bool> stop{false};
  std::vector<std::vector<double>> latencies(static_cast<size_t>(clients));
  std::vector<uint64_t> failures(static_cast<size_t>(clients), 0);
  std::vector<std::thread> threads;
  auto start = std::chrono::steady_clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c]() {
      Client* client = handles[static_cast<size_t>(c)];
      auto& lat = latencies[static_cast<size_t>(c)];
      while (!stop.load(std::memory_order_relaxed)) {
        auto t0 = std::chrono::steady_clock::now();
        std::optional<Bytes> r = cluster.Execute(client, op, /*read_only=*/false, 10 * kSecond);
        auto t1 = std::chrono::steady_clock::now();
        if (r.has_value()) {
          lat.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
        } else {
          ++failures[static_cast<size_t>(c)];
          return;  // a timed-out client keeps its op in flight; retire rather than clobber
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(duration_s));
  stop.store(true);
  for (std::thread& t : threads) {
    t.join();
  }
  double elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  cluster.Stop();
  if (!metrics_path.empty()) {
    WriteMetricsJson(metrics_path, cluster.metrics(), &cluster.tracer());
  }

  CellResult result;
  std::vector<double> all;
  for (const auto& lat : latencies) {
    all.insert(all.end(), lat.begin(), lat.end());
  }
  for (uint64_t f : failures) {
    result.failures += f;
  }
  result.ops = all.size();
  result.ops_per_sec = elapsed > 0 ? static_cast<double>(all.size()) / elapsed : 0;
  if (!all.empty()) {
    double sum = 0;
    for (double v : all) {
      sum += v;
    }
    result.mean_us = sum / static_cast<double>(all.size());
    result.p50_us = PercentileOf(all, 50);
    result.p99_us = PercentileOf(all, 99);
  }
  return result;
}

}  // namespace
}  // namespace bft

int main(int argc, char** argv) {
  using namespace bft;

  uint64_t duration_ms = 2000;
  int clients = 8;
  int replicas = 4;
  bool quick = false;
  std::string metrics_json;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--duration-ms") == 0 && i + 1 < argc) {
      duration_ms = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--clients") == 0 && i + 1 < argc) {
      clients = static_cast<int>(std::strtol(argv[i + 1], nullptr, 10));
    } else if (std::strcmp(argv[i], "--replicas") == 0 && i + 1 < argc) {
      replicas = static_cast<int>(std::strtol(argv[i + 1], nullptr, 10));
    } else if (std::strcmp(argv[i], "--metrics-json") == 0 && i + 1 < argc) {
      metrics_json = argv[i + 1];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    }
  }
  if (quick) {
    duration_ms = std::min<uint64_t>(duration_ms, 300);
    clients = std::min(clients, 2);
  }
  double duration_s = static_cast<double>(duration_ms) / 1000.0;

  BenchJson json("bench_runtime", argc, argv);

  std::printf("\n================================================================\n");
  std::printf("RUNTIME: real-clock RtCluster throughput and latency\n");
  std::printf("(wall-clock time; %d replicas, %d closed-loop clients, %.1f s/cell)\n",
              replicas, clients, duration_s);
  std::printf("================================================================\n");
  std::printf("%-12s %-9s %-9s %12s %10s %10s %10s\n", "backend", "formation", "batching",
              "ops/s", "mean us", "p50 us", "p99 us");

  struct Cell {
    const char* backend;  // socket backend (row identity for diff_bench.py)
    RtClusterOptions::TransportKind transport;
    bool formation;
    bool batching;
  };
  const Cell cells[] = {
      {"inproc", RtClusterOptions::TransportKind::kInProc, false, true},
      {"inproc", RtClusterOptions::TransportKind::kInProc, false, false},
      {"udp", RtClusterOptions::TransportKind::kUdp, false, true},
      {"udp", RtClusterOptions::TransportKind::kUdp, false, false},
      {"udp", RtClusterOptions::TransportKind::kUdp, true, true},
  };
  for (const Cell& cell : cells) {
    std::string name = std::string(cell.backend) + (cell.formation ? "+form" : "") +
                       (cell.batching ? "/batching" : "/no-batch");
    std::string cell_metrics;
    if (!metrics_json.empty()) {
      std::string tag = std::string(cell.backend) + (cell.formation ? "-form" : "") +
                        (cell.batching ? "-batching" : "-no-batch");
      size_t dot = metrics_json.rfind(".json");
      cell_metrics = dot == std::string::npos
                         ? metrics_json + "." + tag
                         : metrics_json.substr(0, dot) + "." + tag + ".json";
    }
    CellResult r = RunCell(
        RuntimeOptions(cell.transport, cell.formation, cell.batching, replicas), clients,
        duration_s, cell_metrics);
    std::printf("%-12s %-9s %-9s %12.0f %10.1f %10.1f %10.1f\n", cell.backend,
                cell.formation ? "on" : "off", cell.batching ? "on" : "off", r.ops_per_sec,
                r.mean_us, r.p50_us, r.p99_us);
    if (r.failures > 0) {
      std::printf("  (%llu client(s) retired on timeout)\n",
                  static_cast<unsigned long long>(r.failures));
    }
    json.Row(name,
             {{"backend", cell.backend},
              {"formation", cell.formation ? "on" : "off"},
              {"batching", cell.batching ? "on" : "off"},
              {"replicas", std::to_string(replicas)},
              {"clients", std::to_string(clients)}},
             {{"ops_per_sec", r.ops_per_sec},
              {"mean_us", r.mean_us},
              {"p50_us", r.p50_us},
              {"p99_us", r.p99_us},
              {"certified_ops", static_cast<double>(r.ops)}});
  }
  return 0;
}
