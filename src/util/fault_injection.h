#ifndef RDFSUM_UTIL_FAULT_INJECTION_H_
#define RDFSUM_UTIL_FAULT_INJECTION_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace rdfsum::util {

/// Named failpoints: code sites declare RDFSUM_FAILPOINT("area:site") at I/O
/// and shard boundaries; tests and CI arm them to inject Status errors,
/// allocation failures (kResourceExhausted at sites with a degrade path),
/// and latency — so every error path actually executes under sanitizers.
///
/// Compiled in only when RDFSUM_FAILPOINTS_ENABLED is defined (CMake defines
/// it for Debug builds); in Release the macro expands to nothing and Hit()
/// is never called from library code. The registry API below always exists
/// so tests link in every configuration — guard tests with
/// FaultInjection::compiled_in().
///
/// Arming:
///   - Test API: FaultInjection::Arm("image:open",
///         Status::IOError("injected"), {.countdown = 3, .latency_ms = 5});
///     fails the 3rd hit (and every later one) after sleeping 5 ms.
///   - Env var, parsed once at first Hit():
///         RDFSUM_FAILPOINTS="image:open=ioerror;quotient:shard=cancelled"
///     codes: ioerror, corruption, cancelled, deadline, resource, internal,
///     invalid, notfound. `name=sleep:MS` injects latency only.
///         RDFSUM_FAILPOINTS="random:SEED[:PERCENT]"
///     arms *every* failpoint to fail with PERCENT% probability (1..100,
///     default 1) using a deterministic RNG seeded with SEED (a u64) — the
///     CI fault wall; the seed is logged so failures replay. Numbers are
///     strict decimals: a malformed value is reported on stderr ("ignoring
///     bad failpoint spec") and arms nothing.
///
/// Thread safety: Hit() takes a mutex. Failpoints are a debugging facility;
/// the contention is irrelevant and keeps the registry simple.
class FaultInjection {
 public:
  struct ArmOptions {
    /// Fail on the Nth hit (1 = first, the default) and every one after.
    uint64_t countdown = 1;
    /// Sleep this long at every hit before deciding the outcome.
    uint64_t latency_ms = 0;
  };

  /// True when the library was built with failpoint support.
  static constexpr bool compiled_in() {
#ifdef RDFSUM_FAILPOINTS_ENABLED
    return true;
#else
    return false;
#endif
  }

  /// True when at least one failpoint is armed (cheap: one relaxed atomic
  /// load — the fast path of every RDFSUM_FAILPOINT in an idle process).
  static bool enabled();

  /// Evaluates the failpoint `name`: returns the armed Status (after any
  /// injected latency), or OK when the failpoint is not armed / not yet
  /// counted down. Also rolls the random-mode dice when armed via
  /// RDFSUM_FAILPOINTS=random:....
  static Status Hit(std::string_view name);

  /// Arms `name` to return `status`. Overwrites an existing arming. (Two
  /// overloads instead of a `= {}` default: GCC rejects brace defaults for
  /// nested aggregates with member initializers, PR 88165.)
  static void Arm(std::string_view name, Status status) {
    Arm(name, std::move(status), ArmOptions());
  }
  static void Arm(std::string_view name, Status status,
                  const ArmOptions& options);

  /// Arms what an RDFSUM_FAILPOINTS value names, with the same warnings on
  /// stderr: a malformed random-mode spec arms nothing, a malformed entry
  /// of a name=code list is skipped.
  static void ArmSpec(std::string_view spec);

  /// Arms every failpoint to fail with `percent`% probability, seeded
  /// deterministically. Equivalent to RDFSUM_FAILPOINTS=random:seed:percent.
  static void ArmRandom(uint64_t seed, uint32_t percent = 1);

  /// Disarms everything (including random mode and the env arming).
  static void Clear();

  /// Number of times `name` was evaluated (armed or not), for tests.
  static uint64_t HitCount(std::string_view name);
};

/// Declares a failpoint in a function returning Status or StatusOr<T>.
/// Expands to nothing unless the build defines RDFSUM_FAILPOINTS_ENABLED.
#ifdef RDFSUM_FAILPOINTS_ENABLED
#define RDFSUM_FAILPOINT(name)                                        \
  do {                                                                \
    if (::rdfsum::util::FaultInjection::enabled()) {                  \
      ::rdfsum::Status _fp_status =                                   \
          ::rdfsum::util::FaultInjection::Hit(name);                  \
      if (!_fp_status.ok()) return _fp_status;                        \
    }                                                                 \
  } while (0)
/// Failpoint for sites that handle the injected Status themselves (degrade
/// paths, per-shard status slots): evaluates to a Status expression.
#define RDFSUM_FAILPOINT_STATUS(name)                     \
  (::rdfsum::util::FaultInjection::enabled()              \
       ? ::rdfsum::util::FaultInjection::Hit(name)        \
       : ::rdfsum::Status::OK())
#else
#define RDFSUM_FAILPOINT(name) \
  do {                         \
  } while (0)
#define RDFSUM_FAILPOINT_STATUS(name) (::rdfsum::Status::OK())
#endif

}  // namespace rdfsum::util

#endif  // RDFSUM_UTIL_FAULT_INJECTION_H_
