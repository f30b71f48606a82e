// Fault-domain supervision for campaign jobs: retries with deterministic
// backoff, poison-job quarantine, chaos injection, and the crash-recovery
// audit behind `clb campaign fsck` (docs/ROBUSTNESS.md).
//
// The scheduler (campaign/scheduler.hpp) answers "when does a job run";
// this layer answers "what happens when it fails". A job body that throws
// is retried up to RetryPolicy::max_attempts times with an exponential
// backoff whose jitter comes from support/deadline.hpp's backoff_delay_us —
// a pure function of (job seed, attempt), so the retry/backoff sequence a
// job experiences is byte-identical across worker counts and runs. A job
// that fails every attempt is *quarantined*: the supervisor records a
// FaultRecord diagnostic and reports failure to the caller instead of
// rethrowing, so one poison job degrades one grid point rather than
// sinking the whole campaign.
//
// Chaos injection is the test seam for all of the above. ChaosConfig (or
// the CLB_CHAOS_* environment contract, read by chaos_from_env) injects
// deterministic per-(job, attempt) failures, marks matching job ids as
// unconditionally poisoned, and can simulate SIGKILL by _Exit(137)-ing the
// process after N supervised completions — destructors are deliberately
// skipped, so in-flight cache writes are torn exactly like a real kill.
//
// fsck_campaign audits the on-disk state such a kill leaves behind. Every
// cache mutation is bracketed by a write-ahead intent marker (see
// campaign/cache.hpp), so the possible crash states are enumerable:
// dangling intents, orphaned temp files, torn slots (header/digest
// verification fails), and a torn manifest. `--repair` deletes exactly
// those — the content cache is the campaign's write-ahead log, so a
// resumed run rebuilds anything deleted and converges to the same
// canonical manifest.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace congestlb::campaign {

struct RetryPolicy {
  /// Total tries per job (first attempt included). 1 = no retries.
  std::size_t max_attempts = 3;
  /// Backoff envelope: attempt k waits in [base*2^k / 2, base*2^k] us,
  /// saturating at cap (support/deadline.hpp).
  std::uint64_t backoff_base_us = 500;
  std::uint64_t backoff_cap_us = 50'000;
  /// Actually sleep the backoff. Off in unit tests: the *sequence* of
  /// delays stays identical (it is pure), only the waiting is skipped.
  bool sleep = true;
};

/// Deterministic fault injection. All decisions are pure functions of
/// (fail_seed, job id, attempt) — never of wall clock or scheduling.
struct ChaosConfig {
  /// Probability that a given (job, attempt) fails before the body runs.
  double fail_rate = 0.0;
  std::uint64_t fail_seed = 0;
  /// Job ids containing this substring fail *every* attempt — the poison
  /// job that must end up quarantined. Empty = no poison.
  std::string poison_substring;
  /// _Exit(137) after this many supervised jobs complete (success or
  /// quarantine), simulating SIGKILL mid-campaign. < 0 = never.
  std::int64_t kill_after_jobs = -1;
};

/// Environment contract (used by tests/chaos_harness and scripts/
/// chaos_campaign.py to attack a live `clb campaign run`):
///   CLB_CHAOS_KILL_AFTER_JOBS=N   kill_after_jobs
///   CLB_CHAOS_FAIL_RATE=p         fail_rate in [0,1]
///   CLB_CHAOS_FAIL_SEED=s         fail_seed (decimal u64)
///   CLB_CHAOS_POISON=substr       poison_substring
/// Returns nullopt when none of the variables is set; throws
/// InvariantError on malformed values (chaos config typos must not
/// silently run a non-chaotic campaign).
std::optional<ChaosConfig> chaos_from_env();

/// Diagnostic for a quarantined job, persisted into the manifest so a
/// post-mortem does not depend on scraped logs.
struct FaultRecord {
  std::string job_id;
  std::size_t attempts = 0;
  std::uint64_t backoff_total_us = 0;
  std::string diagnostic;  ///< what() of the last failure
};

/// What supervise() observed for one job.
struct SuperviseOutcome {
  bool ok = false;
  std::size_t attempts = 1;             ///< tries consumed (>= 1)
  std::uint64_t backoff_total_us = 0;   ///< sum of scheduled backoff delays
  std::string diagnostic;               ///< last failure message (!ok)
};

/// Thread-safe: supervise() may be called concurrently from scheduler
/// workers; counters and the fault log are internally synchronized.
class Supervisor {
 public:
  /// `seed` namespaces the backoff jitter per campaign (each job's delay
  /// stream is hash_mix(seed, fnv1a64(job_id))-derived).
  Supervisor(RetryPolicy policy, std::uint64_t seed,
             std::optional<ChaosConfig> chaos = std::nullopt);

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Run `body` under the retry/quarantine discipline. Body exceptions
  /// (std::exception) are caught and retried; on exhaustion the outcome
  /// reports !ok with a diagnostic and the job is logged as a fault —
  /// never rethrown. Exceptions that are not std::exception propagate
  /// (they indicate harness bugs, not job failures).
  SuperviseOutcome supervise(std::string_view job_id,
                             const std::function<void()>& body);

  /// Pure: the exact delay supervise() schedules before retry `attempt`
  /// (0-based) of `job_id`. Exposed so tests pin the cross-thread
  /// byte-identity of the backoff sequence without racing real sleeps.
  std::uint64_t backoff_for(std::string_view job_id,
                            std::size_t attempt) const;

  std::uint64_t retries() const { return retries_.load(); }
  std::uint64_t quarantined() const { return quarantined_.load(); }
  std::vector<FaultRecord> faults() const;

 private:
  bool inject_failure(std::string_view job_id, std::size_t attempt) const;
  void note_completed();

  RetryPolicy policy_;
  std::uint64_t seed_;
  std::optional<ChaosConfig> chaos_;
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> quarantined_{0};
  std::atomic<std::int64_t> completed_{0};
  mutable std::mutex mu_;
  std::vector<FaultRecord> faults_;
};

// ---- Crash-recovery audit (clb campaign fsck) ----------------------------

struct FsckOptions {
  /// Delete every classified artifact (dangling intents, orphan tmps, torn
  /// slots, a torn manifest). Foreign files are reported but never deleted.
  bool repair = false;
};

struct FsckIssue {
  enum class Kind : std::uint8_t {
    kDanglingIntent,  ///< write-ahead marker with no completed rename
    kOrphanTmp,       ///< temp file a crash stranded before rename
    kTornSlot,        ///< slot failing header/size/digest verification
    kTornManifest,    ///< manifest file that does not parse
    kForeignFile,     ///< unrecognized file in the cache tree (kept)
  };
  Kind kind = Kind::kForeignFile;
  std::string path;
  std::string detail;
  bool repaired = false;
};

std::string_view to_string(FsckIssue::Kind kind);

struct FsckReport {
  std::size_t slots_scanned = 0;  ///< .clbc files examined
  std::size_t slots_valid = 0;    ///< ... passing full verification
  std::size_t repaired = 0;       ///< issues deleted under --repair
  std::vector<FsckIssue> issues;

  /// No torn/dangling/orphaned artifacts (foreign files don't count: they
  /// are outside the protocol and left alone).
  bool clean() const;
};

/// Audit `cache_dir` (every kind subdirectory) and, when non-empty,
/// `manifest_path` plus its intent/tmp siblings. Missing cache_dir is
/// clean (a campaign that never wrote is consistent). With opts.repair,
/// deletes what it classifies; a second pass is then clean by
/// construction.
FsckReport fsck_campaign(const std::string& cache_dir,
                         const std::string& manifest_path = {},
                         const FsckOptions& opts = {});

/// Audit one directory of atomic-file artifacts (a service sweep dir, say):
/// report the debris classify_debris() names, and with opts.repair delete
/// it. Every other file is left alone and unreported.
FsckReport fsck_debris_dir(const std::string& dir,
                           const FsckOptions& opts = {});

/// JSON report (schema key "clb_fsck_report": 1) for CI artifacts.
void write_fsck_report(std::ostream& os, const FsckReport& report);

}  // namespace congestlb::campaign
