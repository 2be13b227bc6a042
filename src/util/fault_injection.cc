#include "util/fault_injection.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/string_util.h"

namespace rdfsum::util {
namespace {

struct ArmedPoint {
  Status status;
  uint64_t countdown = 1;  // fail on this hit and later ones
  uint64_t latency_ms = 0;
  bool latency_only = false;  // sleep, then return OK
};

struct Registry {
  std::mutex mu;
  std::unordered_map<std::string, ArmedPoint> points;
  std::unordered_map<std::string, uint64_t> hits;
  // random mode: every failpoint fails with `percent`% probability.
  bool random_mode = false;
  uint32_t random_percent = 1;
  uint64_t rng_state = 0;
  bool env_parsed = false;
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: outlives static dtors
  return *r;
}

// Any-failpoint-armed fast path, updated under the registry mutex.
std::atomic<bool> g_armed{false};

bool ParseCode(std::string_view code, Status* out, std::string_view name) {
  std::string msg = "injected fault at " + std::string(name);
  if (code == "ioerror") *out = Status::IOError(msg);
  else if (code == "corruption") *out = Status::Corruption(msg);
  else if (code == "cancelled") *out = Status::Cancelled(msg);
  else if (code == "deadline") *out = Status::DeadlineExceeded(msg);
  else if (code == "resource") *out = Status::ResourceExhausted(msg);
  else if (code == "internal") *out = Status::Internal(msg);
  else if (code == "invalid") *out = Status::InvalidArgument(msg);
  else if (code == "notfound") *out = Status::NotFound(msg);
  else return false;
  return true;
}

// splitmix64: deterministic, seedable, good enough for fault dice.
uint64_t NextRandom(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void WarnBadSpec(std::string_view spec) {
  std::fprintf(stderr, "rdfsum: ignoring bad failpoint spec '%.*s'\n",
               static_cast<int>(spec.size()), spec.data());
}

/// Arms random mode from `random[:SEED[:PERCENT]]`; an empty or absent
/// SEED takes the clock. A SEED that is not a u64 decimal or a PERCENT
/// outside 1..100 makes the spec malformed: it warns and arms nothing.
void ArmRandomSpecLocked(Registry& r, std::string_view spec) {
  uint64_t seed = static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  uint64_t percent = 1;
  bool ok = true;
  constexpr std::string_view kPrefix = "random:";
  if (StartsWith(spec, kPrefix)) {
    const std::string_view rest = spec.substr(kPrefix.size());
    const size_t colon = rest.find(':');
    const std::string_view seed_str = rest.substr(0, colon);
    if (!seed_str.empty()) ok = ParseDecimal(seed_str, UINT64_MAX, &seed);
    if (ok && colon != std::string_view::npos) {
      ok = ParseDecimal(rest.substr(colon + 1), 100, &percent) && percent > 0;
    }
  }
  if (!ok) {
    WarnBadSpec(spec);
    return;
  }
  r.random_mode = true;
  r.random_percent = static_cast<uint32_t>(percent);
  r.rng_state = seed;
  std::fprintf(stderr,
               "rdfsum: fault injection armed (random mode, seed=%llu, "
               "p=%u%%)\n",
               static_cast<unsigned long long>(seed), r.random_percent);
  g_armed.store(true, std::memory_order_release);
}

/// Arms what an RDFSUM_FAILPOINTS value names; called under the registry
/// mutex.
void ArmSpecLocked(Registry& r, std::string_view spec) {
  if (spec == "random" || StartsWith(spec, "random:")) {
    ArmRandomSpecLocked(r, spec);
    return;
  }
  // name=code[;name=code...]  (',' also accepted as separator); a
  // malformed entry is skipped with a warning, the others still arm.
  size_t pos = 0;
  size_t armed = 0;
  while (pos < spec.size()) {
    const size_t end = spec.find_first_of(";,", pos);
    const std::string_view entry = spec.substr(
        pos, end == std::string_view::npos ? std::string_view::npos
                                           : end - pos);
    pos = end == std::string_view::npos ? spec.size() : end + 1;
    if (entry.empty()) continue;
    const size_t eq = entry.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      WarnBadSpec(entry);
      continue;
    }
    const std::string name(entry.substr(0, eq));
    const std::string_view code = entry.substr(eq + 1);
    ArmedPoint p;
    if (StartsWith(code, "sleep:")) {
      p.latency_only = true;
      if (!ParseDecimal(code.substr(6), UINT64_MAX, &p.latency_ms)) {
        WarnBadSpec(entry);
        continue;
      }
    } else if (!ParseCode(code, &p.status, name)) {
      WarnBadSpec(entry);
      continue;
    }
    r.points[name] = std::move(p);
    ++armed;
  }
  if (armed > 0) {
    std::fprintf(stderr, "rdfsum: fault injection armed (%zu failpoint(s))\n",
                 armed);
    g_armed.store(true, std::memory_order_release);
  }
}

/// Parses RDFSUM_FAILPOINTS once; called under the registry mutex.
void ParseEnvLocked(Registry& r) {
  if (r.env_parsed) return;
  r.env_parsed = true;
  const char* env = std::getenv("RDFSUM_FAILPOINTS");
  if (env != nullptr) ArmSpecLocked(r, env);
}

}  // namespace

bool FaultInjection::enabled() {
  if (g_armed.load(std::memory_order_acquire)) return true;
  // The env var may arm points lazily; parse it the first time through.
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  ParseEnvLocked(r);
  return g_armed.load(std::memory_order_acquire);
}

Status FaultInjection::Hit(std::string_view name) {
  Registry& r = registry();
  uint64_t latency_ms = 0;
  Status result;
  {
    std::lock_guard<std::mutex> lock(r.mu);
    ParseEnvLocked(r);
    std::string key(name);
    uint64_t count = ++r.hits[key];
    if (r.random_mode) {
      if (NextRandom(&r.rng_state) % 100 < r.random_percent) {
        result = Status::IOError("injected fault at " + key);
      }
    }
    auto it = r.points.find(key);
    if (it != r.points.end() && count >= it->second.countdown) {
      latency_ms = it->second.latency_ms;
      if (!it->second.latency_only) result = it->second.status;
    }
  }
  if (latency_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(latency_ms));
  }
  return result;
}

void FaultInjection::Arm(std::string_view name, Status status,
                         const ArmOptions& options) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.env_parsed = true;  // explicit arming overrides env lazily-parsed state
  ArmedPoint p;
  p.status = std::move(status);
  p.countdown = options.countdown == 0 ? 1 : options.countdown;
  p.latency_ms = options.latency_ms;
  p.latency_only = p.status.ok();
  r.points[std::string(name)] = std::move(p);
  g_armed.store(true, std::memory_order_release);
}

void FaultInjection::ArmSpec(std::string_view spec) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.env_parsed = true;  // explicit arming overrides env lazily-parsed state
  ArmSpecLocked(r, spec);
}

void FaultInjection::ArmRandom(uint64_t seed, uint32_t percent) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.env_parsed = true;
  r.random_mode = true;
  r.random_percent = percent == 0 ? 1 : percent;
  r.rng_state = seed;
  g_armed.store(true, std::memory_order_release);
}

void FaultInjection::Clear() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.points.clear();
  r.hits.clear();
  r.random_mode = false;
  r.env_parsed = true;  // a cleared registry stays cleared
  g_armed.store(false, std::memory_order_release);
}

uint64_t FaultInjection::HitCount(std::string_view name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.hits.find(std::string(name));
  return it == r.hits.end() ? 0 : it->second;
}

}  // namespace rdfsum::util
