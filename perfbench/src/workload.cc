#include "perfbench/src/workload.h"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "src/service/kv_service.h"
#include "src/service/null_service.h"

namespace perfbench {

using bft::Bytes;
using bft::ByteView;

std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "null_closed") {
    return spec;
  }
  spec.kv = true;
  spec.state_pages = 2048;
  if (name == "kv_open") {
    return spec;
  }
  if (name == "kv_failover") {
    spec.failover = true;
    return spec;
  }
  return std::nullopt;
}

bft::ReplicaConfig BenchReplicaConfig(const WorkloadSpec& spec) {
  bft::ReplicaConfig config;
  config.n = 4;
  config.state_pages = spec.state_pages;
  config.view_change_timeout = kViewChangeTimeout;
  config.max_view_change_timeout = 5 * bft::kSecond;
  config.client_retry_timeout = 100 * bft::kMillisecond;
  config.max_client_retry_timeout = 2 * bft::kSecond;
  return config;
}

bft::ClientConfig BenchClientConfig() {
  bft::ClientConfig cc;
  cc.retry_timeout = 100 * bft::kMillisecond;
  cc.max_retry_timeout = 2 * bft::kSecond;
  return cc;
}

Bytes KeyName(uint32_t key) {
  char buf[16];
  int len = std::snprintf(buf, sizeof(buf), "key%05u", key);
  return Bytes(buf, buf + len);
}

Bytes MakeValue(uint32_t key, uint32_t writer, uint64_t op_index) {
  char buf[64];
  int len = std::snprintf(buf, sizeof(buf), "k=%u w=%u n=%llu ", key, writer,
                          static_cast<unsigned long long>(op_index));
  Bytes value(buf, buf + len);
  // Filler that is a function of the tag, so a value torn between two writes cannot pass.
  while (value.size() < kValueSize) {
    value.push_back(static_cast<uint8_t>('a' + (key + writer + op_index + value.size()) % 26));
  }
  return value;
}

std::optional<ValueTag> ParseValue(ByteView value) {
  if (value.size() != kValueSize) {
    return std::nullopt;
  }
  std::string head(value.begin(), value.begin() + 48);
  unsigned key = 0;
  unsigned writer = 0;
  unsigned long long index = 0;
  if (std::sscanf(head.c_str(), "k=%u w=%u n=%llu ", &key, &writer, &index) != 3) {
    return std::nullopt;
  }
  ValueTag tag{key, writer, index};
  if (MakeValue(tag.key, tag.writer, tag.op_index) != Bytes(value.begin(), value.end())) {
    return std::nullopt;
  }
  return tag;
}

namespace {
uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t x = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

OpStream::OpStream(const WorkloadSpec& spec, uint64_t seed, int endpoint, int endpoints)
    : spec_(spec),
      endpoint_(endpoint),
      rate_(kKvRate / endpoints),
      rng_(Mix(seed, 2 * static_cast<uint64_t>(endpoint) + 1)),
      zipf_(kNumKeys, kZipfTheta, Mix(seed, 2 * static_cast<uint64_t>(endpoint) + 2)),
      key_mul_((Mix(seed, 0x6b6579) | 1) % kNumKeys),
      key_add_(Mix(seed, 0x616464) % kNumKeys) {}

GenOp OpStream::Next() {
  GenOp g;
  if (spec_.kv) {
    // Exponential gaps: Poisson arrivals. 1 - U is in (0, 1], so the log is finite.
    g.gap_s = -std::log(1.0 - rng_.Uniform()) / rate_;
  }
  if (!spec_.kv) {
    g.op = bft::NullService::MakeOp(/*read_only=*/false, 0, 0);
  } else {
    // The same seed-wide bijection on every endpoint: all endpoints agree on which keys are hot.
    g.key = static_cast<uint32_t>((zipf_.Next() * key_mul_ + key_add_) % kNumKeys);
    g.read = rng_.Chance(kReadShare);
    g.op = g.read ? bft::KvService::GetOp(KeyName(g.key))
                  : bft::KvService::PutOp(KeyName(g.key),
                                          MakeValue(g.key, static_cast<uint32_t>(endpoint_),
                                                    index_));
  }
  ++index_;
  return g;
}

}  // namespace perfbench
