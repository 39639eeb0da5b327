#include "src/obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <iterator>

#include "src/common/logging.h"

namespace bft {

const char* TracePhaseName(TracePhase phase) {
  switch (phase) {
    case TracePhase::kDispatch:
      return "dispatch";
    case TracePhase::kPrePrepare:
      return "pre_prepare";
    case TracePhase::kPrepared:
      return "prepared";
    case TracePhase::kCommitted:
      return "committed";
    case TracePhase::kExecuted:
      return "executed";
    case TracePhase::kCertified:
      return "certified";
  }
  return "?";
}

const char* TraceKindName(TraceKind kind) {
  switch (kind) {
    case TraceKind::kRequest:
      return "request";
    case TraceKind::kMigration:
      return "migration";
    case TraceKind::kRebalance:
      return "rebalance";
  }
  return "?";
}

int TraceKindPhases(TraceKind kind) {
  return kind == TraceKind::kRebalance ? 4 : kNumTracePhases;
}

const char* TracePhaseLabel(TraceKind kind, int phase) {
  static const char* kMigration[kNumTracePhases] = {"freeze",  "seal",    "export",
                                                    "import",  "publish", "complete"};
  static const char* kRebalance[kNumTracePhases] = {"snapshot", "plan", "dispatch",
                                                    "complete", "?",    "?"};
  if (phase < 0 || phase >= kNumTracePhases) {
    return "?";
  }
  switch (kind) {
    case TraceKind::kRequest:
      return TracePhaseName(static_cast<TracePhase>(phase));
    case TraceKind::kMigration:
      return kMigration[phase];
    case TraceKind::kRebalance:
      return kRebalance[phase];
  }
  return "?";
}

bool TraceTimeline::complete() const {
  int phases = TraceKindPhases(kind);
  for (int p = 0; p < phases; ++p) {
    if (!seen[p]) {
      return false;
    }
  }
  return true;
}

bool TraceTimeline::monotonic() const {
  auto ordered = [this](int a, int b) {
    return !seen[a] || !seen[b] || phase_time[a] <= phase_time[b];
  };
  if (kind == TraceKind::kRequest) {
    auto ord = [&ordered](TracePhase a, TracePhase b) {
      return ordered(static_cast<int>(a), static_cast<int>(b));
    };
    return ord(TracePhase::kDispatch, TracePhase::kPrePrepare) &&
           ord(TracePhase::kPrePrepare, TracePhase::kPrepared) &&
           ord(TracePhase::kPrepared, TracePhase::kCommitted) &&
           ord(TracePhase::kPrepared, TracePhase::kExecuted) &&
           ord(TracePhase::kExecuted, TracePhase::kCertified);
  }
  int phases = TraceKindPhases(kind);
  for (int p = 0; p + 1 < phases; ++p) {
    if (!ordered(p, p + 1)) {
      return false;
    }
  }
  return true;
}

SimTime TraceTimeline::total() const {
  int last = TraceKindPhases(kind) - 1;
  if (!seen[0] || !seen[last]) {
    return 0;
  }
  return phase_time[last] >= phase_time[0] ? phase_time[last] - phase_time[0] : 0;
}

void RequestTracer::set_slow_threshold(SimTime t) {
  MutexLock lock(mu_);
  slow_threshold_ = t;
}

void RequestTracer::InstallMetrics(MetricsRegistry* registry) {
  // Resolve the histograms before taking mu_: the registry calls this tracer's probes under
  // its own lock, so taking the registry's lock under mu_ would invert the lock order.
  Histogram* delta_hist[kNumTraceKinds][kNumTracePhases - 1] = {};
  Histogram* total_hist[kNumTraceKinds] = {};
  for (int k = 0; k < kNumTraceKinds; ++k) {
    TraceKind kind = static_cast<TraceKind>(k);
    const char* family =
        kind == TraceKind::kRequest ? "bft_phase_latency_us" : "bft_admin_phase_latency_us";
    std::string kind_label =
        kind == TraceKind::kRequest
            ? ""
            : std::string("kind=\"") + TraceKindName(kind) + "\",";
    int phases = TraceKindPhases(kind);
    for (int p = 0; p + 1 < phases; ++p) {
      std::string labels = kind_label + "phase=\"" + TracePhaseLabel(kind, p) + "_to_" +
                           TracePhaseLabel(kind, p + 1) + "\"";
      delta_hist[k][p] = registry->GetHistogram(family, labels);
    }
    total_hist[k] = registry->GetHistogram(family, kind_label + "phase=\"total\"");
  }
  {
    MutexLock lock(mu_);
    for (int k = 0; k < kNumTraceKinds; ++k) {
      std::copy(std::begin(delta_hist[k]), std::end(delta_hist[k]), delta_hist_[k]);
      total_hist_[k] = total_hist[k];
    }
  }
  if (registry == &MetricsRegistry::Process()) {
    return;  // probes capture `this`; the process registry outlives any tracer
  }
  registry->RegisterProbe("bft_trace_completed_total", "", [this]() {
    return completed_count();
  });
  registry->RegisterProbe("bft_trace_slow_requests_total", "", [this]() {
    return slow_count();
  });
  registry->RegisterProbe("bft_trace_straggler_merges_total", "", [this]() {
    return straggler_merges();
  });
  registry->RegisterProbe("bft_trace_dropped_stamps_total", "", [this]() {
    return dropped_stamps();
  });
  registry->RegisterProbe("bft_trace_evicted_timelines_total", "", [this]() {
    return evicted_timelines();
  });
}

void RequestTracer::Stamp(TracePhase phase, NodeId client, uint64_t timestamp, SimTime now) {
  MutexLock lock(mu_);
  auto key = std::make_tuple(static_cast<uint8_t>(TraceKind::kRequest), client, timestamp);
  auto it = active_.find(key);
  if (it == active_.end()) {
    // Only a dispatch opens a timeline; admitting arbitrary replica stamps would grow
    // active_ with entries nothing ever retires (recovery requests, admin ops). A stamp
    // for a *recently retired* timeline is different: on the real-clock runtime the
    // client's certificate (2f+1 tentative replies) legitimately races the last commit
    // deliveries, so merge stragglers into the completed ring — they land within
    // microseconds of retirement, i.e. at its back.
    if (phase != TracePhase::kDispatch) {
      int scan = 0;
      for (auto rit = completed_.rbegin(); rit != completed_.rend() && scan < 64;
           ++rit, ++scan) {
        if (rit->kind == TraceKind::kRequest && rit->client == client &&
            rit->timestamp == timestamp) {
          int rp = static_cast<int>(phase);
          if (!rit->seen[rp] || now < rit->phase_time[rp]) {
            rit->seen[rp] = true;
            rit->phase_time[rp] = now;
          }
          ++straggler_merges_;
          return;
        }
      }
      ++dropped_stamps_;
      return;
    }
    it = active_.emplace(key, TraceTimeline{}).first;
  }
  TraceTimeline& tl = it->second;
  tl.client = client;
  tl.timestamp = timestamp;
  int p = static_cast<int>(phase);
  if (!tl.seen[p] || now < tl.phase_time[p]) {
    tl.seen[p] = true;
    tl.phase_time[p] = now;
  }
  if (phase != TracePhase::kCertified) {
    return;
  }
  // The client saw its certificate: the request is over from the caller's point of view.
  // Replica stamps arriving after this point are lost, which is fine — they would only
  // re-report phases some straggler reached late.
  TraceTimeline done = tl;
  active_.erase(key);
  Retire(done);
}

void RequestTracer::StampAdmin(TraceKind kind, uint64_t op_id, int phase, SimTime now) {
  if (!enabled() || kind == TraceKind::kRequest || phase < 0 ||
      phase >= TraceKindPhases(kind)) {
    return;
  }
  MutexLock lock(mu_);
  auto key = std::make_tuple(static_cast<uint8_t>(kind), NodeId{0}, op_id);
  auto it = active_.find(key);
  if (it == active_.end()) {
    if (phase != 0) {
      // Admin milestones are issued by one coordinator in order; an unknown op here means
      // tracing was switched on mid-operation. No straggler semantics — drop and count.
      ++dropped_stamps_;
      return;
    }
    it = active_.emplace(key, TraceTimeline{}).first;
    it->second.kind = kind;
    it->second.timestamp = op_id;
  }
  TraceTimeline& tl = it->second;
  // The coordinator issues milestones strictly in order, but the simulator's CPU-cursor
  // time model can hand a later milestone an EARLIER Now() reading (a long-idle node's
  // sends depart at its stale CPU cursor, and executing that delivery steps the global
  // clock backward). Clamp each stamp to its predecessors: the recorded timeline is the
  // order-preserving projection, so admin timelines stay monotonic by construction.
  for (int q = 0; q < phase; ++q) {
    if (tl.seen[q] && tl.phase_time[q] > now) {
      now = tl.phase_time[q];
    }
  }
  if (!tl.seen[phase] || now < tl.phase_time[phase]) {
    tl.seen[phase] = true;
    tl.phase_time[phase] = now;
  }
  if (phase != TraceKindPhases(kind) - 1) {
    return;
  }
  TraceTimeline done = tl;
  active_.erase(key);
  Retire(done);
}

void RequestTracer::Retire(const TraceTimeline& done) {
  int k = static_cast<int>(done.kind);
  int phases = TraceKindPhases(done.kind);
  for (int p = 0; p + 1 < phases; ++p) {
    if (delta_hist_[k][p] == nullptr || !done.seen[p] || !done.seen[p + 1]) {
      continue;
    }
    // Tentative execution can stamp `executed` before `committed`; the chain delta clamps
    // to 0 then (the separate prepared→executed ordering still holds).
    SimTime d = done.phase_time[p + 1] >= done.phase_time[p]
                    ? done.phase_time[p + 1] - done.phase_time[p]
                    : 0;
    delta_hist_[k][p]->Record(d / kMicrosecond);
  }
  if (total_hist_[k] != nullptr && done.total() > 0) {
    total_hist_[k]->Record(done.total() / kMicrosecond);
  }
  if (done.kind == TraceKind::kRequest && slow_threshold_ != 0 &&
      done.total() > slow_threshold_) {
    ++slow_count_;
    BFT_INFO("slow request client " << done.client << " ts " << done.timestamp << ": total "
                                    << done.total() / kMicrosecond << " us (prepared +"
                                    << (done.has(TracePhase::kPrepared)
                                            ? (done.at(TracePhase::kPrepared) -
                                               done.at(TracePhase::kDispatch)) /
                                                  kMicrosecond
                                            : 0)
                                    << " us)");
  }
  if (done.kind == TraceKind::kRequest && done.total() > 0) {
    // The exemplar tier keeps worst-case *requests*; admin ops are rare enough that the
    // ring alone retains them, and their multi-ms totals would otherwise evict every
    // request exemplar.
    auto faster = [](const TraceTimeline& a, const TraceTimeline& b) {
      return a.total() > b.total();
    };
    if (slowest_.size() < kMaxExemplars) {
      slowest_.push_back(done);
      std::push_heap(slowest_.begin(), slowest_.end(), faster);
    } else if (done.total() > slowest_.front().total()) {
      std::pop_heap(slowest_.begin(), slowest_.end(), faster);
      slowest_.back() = done;
      std::push_heap(slowest_.begin(), slowest_.end(), faster);
    }
  }
  completed_.push_back(done);
  ++completed_total_;
  if (completed_.size() > kMaxCompleted) {
    completed_.pop_front();
    ++evicted_;
  }
}

std::vector<TraceTimeline> RequestTracer::Completed() const {
  MutexLock lock(mu_);
  return std::vector<TraceTimeline>(completed_.begin(), completed_.end());
}

std::vector<TraceTimeline> RequestTracer::Active() const {
  MutexLock lock(mu_);
  std::vector<TraceTimeline> out;
  out.reserve(active_.size());
  for (const auto& [key, tl] : active_) {
    out.push_back(tl);
  }
  return out;
}

std::vector<TraceTimeline> RequestTracer::Slowest() const {
  MutexLock lock(mu_);
  std::vector<TraceTimeline> out = slowest_;
  std::sort(out.begin(), out.end(), [](const TraceTimeline& a, const TraceTimeline& b) {
    return a.total() > b.total();
  });
  return out;
}

uint64_t RequestTracer::completed_count() const {
  MutexLock lock(mu_);
  return completed_total_;
}

uint64_t RequestTracer::slow_count() const {
  MutexLock lock(mu_);
  return slow_count_;
}

uint64_t RequestTracer::straggler_merges() const {
  MutexLock lock(mu_);
  return straggler_merges_;
}

uint64_t RequestTracer::dropped_stamps() const {
  MutexLock lock(mu_);
  return dropped_stamps_;
}

uint64_t RequestTracer::evicted_timelines() const {
  MutexLock lock(mu_);
  return evicted_;
}

namespace {

void AppendTimelineJson(std::string& out, const TraceTimeline& tl, bool first) {
  char head[128];
  std::snprintf(head, sizeof(head),
                "%s    {\"kind\": \"%s\", \"client\": %u, \"timestamp\": %llu, ",
                first ? "" : ",\n", TraceKindName(tl.kind), tl.client,
                static_cast<unsigned long long>(tl.timestamp));
  out += head;
  out += "\"phases\": {";
  bool pfirst = true;
  int phases = TraceKindPhases(tl.kind);
  for (int p = 0; p < phases; ++p) {
    if (!tl.seen[p]) {
      continue;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %llu", pfirst ? "" : ", ",
                  TracePhaseLabel(tl.kind, p),
                  static_cast<unsigned long long>(tl.phase_time[p]));
    out += buf;
    pfirst = false;
  }
  char tail[48];
  std::snprintf(tail, sizeof(tail), "}, \"complete\": %s}", tl.complete() ? "true" : "false");
  out += tail;
}

}  // namespace

std::string RequestTracer::RenderJson() const {
  MutexLock lock(mu_);
  std::string out = "{\n  \"traces\": [\n";
  bool first = true;
  for (const TraceTimeline& tl : completed_) {
    AppendTimelineJson(out, tl, first);
    first = false;
  }
  out += "\n  ],\n  \"exemplars\": [\n";
  std::vector<TraceTimeline> slowest = slowest_;
  std::sort(slowest.begin(), slowest.end(), [](const TraceTimeline& a, const TraceTimeline& b) {
    return a.total() > b.total();
  });
  first = true;
  for (const TraceTimeline& tl : slowest) {
    AppendTimelineJson(out, tl, first);
    first = false;
  }
  char summary[192];
  std::snprintf(summary, sizeof(summary),
                "\n  ],\n  \"active\": %zu,\n  \"slow_requests\": %llu,\n"
                "  \"straggler_merges\": %llu,\n  \"dropped_stamps\": %llu,\n"
                "  \"evicted\": %llu\n}\n",
                active_.size(), static_cast<unsigned long long>(slow_count_),
                static_cast<unsigned long long>(straggler_merges_),
                static_cast<unsigned long long>(dropped_stamps_),
                static_cast<unsigned long long>(evicted_));
  out += summary;
  return out;
}

}  // namespace bft
