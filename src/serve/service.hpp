// Service: the in-process core of `clb serve` (docs/SERVICE.md).
//
// One Service owns everything multi-tenant about the campaign daemon: a
// single SharedScheduler pool that every accepted sweep feeds jobs into, a
// SessionManager enforcing per-client quotas, an EventHub carrying the
// live progress feed, a MetricsRegistry shared by every campaign, and a
// state directory that makes the whole thing kill -9 durable. The HTTP
// frontend (serve/routes.hpp) is a thin JSON adapter over this class;
// tests and the latency bench drive the core directly, with no sockets.
//
// Submission protocol. A sweep is identified by its canonical spec hash
// (campaign/manifest.hpp: a pure function of the spec text), printed as
// the 16-hex-digit key the content cache uses. submit() canonicalizes,
// then decides in one locked step:
//   - a completed manifest for the hash exists      -> kWarmHit (answered
//     from disk; the scheduler is never touched — the warm path is
//     observable as pool_executed() not moving),
//   - the hash is already queued or running         -> kDuplicate (the
//     caller attaches as a watcher of the existing run),
//   - the server is draining                        -> kDraining,
//   - the client is at its max_queued quota         -> kRejectedQuota,
//   - otherwise                                     -> kAccepted: the spec
//     and the server manifest are persisted *before* submit returns, so a
//     kill -9 at any later byte cannot lose the sweep.
//
// Execution. Orchestrator threads pick the highest-priority queued sweep
// (FIFO within a priority) whose client is under its max_inflight quota
// and run it via campaign::run_campaign with RunOptions::shared pointing
// at the pool — the DAG discipline stays in the campaign layer, the pool
// interleaves tenants by job priority. On completion the canonical
// manifest (byte-identical to `clb campaign run --canonical` of the same
// spec, by the campaign determinism contract) is written atomically under
// sweeps/<key>/.
//
// Crash story. State dir layout, every file written by the one
// intent -> tmp -> rename protocol of support/atomic_file.hpp:
//   server.json          accepted-sweep ledger
//   port                 the daemon's listening port (`clb serve`)
//   cache/               the campaign content cache
//   sweeps/<key>/spec.json       canonical spec, written at accept
//   sweeps/<key>/campaign.json   canonical manifest, written at completion
// Startup runs fsck --repair over the cache and every incomplete sweep's
// manifest path, removes write debris from every sweeps/<key>/ dir (ledger
// entry or not), then re-enqueues every accepted-but-incomplete sweep from
// the ledger; the content cache replays finished jobs, so a restarted
// server converges to the same canonical manifests an uninterrupted one
// writes. Graceful drain (SIGTERM -> shutdown()) additionally finishes
// in-flight sweeps before exiting; queued ones stay in the ledger.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/manifest.hpp"
#include "campaign/scheduler.hpp"
#include "obs/metrics.hpp"
#include "serve/events.hpp"
#include "serve/session.hpp"

namespace congestlb::serve {

struct ServiceConfig {
  std::string state_dir;
  /// Shared pool width (worker threads executing campaign jobs).
  std::size_t pool_threads = 4;
  /// Sweeps orchestrated concurrently. 0 = admission-only mode: sweeps are
  /// accepted and persisted but never started — used by the admission
  /// bench and by tests that need deterministic queue states (a follow-up
  /// Service on the same state dir picks the queue up).
  std::size_t orchestrators = 2;
  Quota quota;
  std::size_t event_capacity = 1 << 12;
  /// Per-job deadline and retry discipline forwarded to every campaign.
  std::uint64_t job_deadline_ms = 0;
  campaign::RetryPolicy retry;
  /// Deterministic fault injection forwarded to every campaign — the same
  /// CLB_CHAOS_* contract `clb campaign run` honors (supervise.hpp). The
  /// serve-smoke harness uses kill_after_jobs to _Exit(137) the daemon
  /// mid-sweep and then proves the restart converges.
  std::optional<campaign::ChaosConfig> chaos;
};

enum class SubmitOutcome : std::uint8_t {
  kAccepted,       ///< cold: queued for orchestration
  kDuplicate,      ///< same spec hash already queued or running
  kWarmHit,        ///< completed manifest served; no scheduler dispatch
  kRejectedQuota,  ///< client at max_queued
  kDraining,       ///< server no longer admits work
  kInvalid,        ///< spec failed to parse/validate
};

std::string_view to_string(SubmitOutcome outcome);

struct SubmitResult {
  SubmitOutcome outcome = SubmitOutcome::kInvalid;
  std::string sweep;    ///< hex16 spec hash (empty for kInvalid)
  std::string message;  ///< diagnostic for kInvalid
  /// Wall time submit() spent (admission latency; volatile, bench food).
  std::uint64_t admit_ns = 0;
};

enum class SweepState : std::uint8_t { kQueued, kRunning, kComplete, kFailed };

std::string_view to_string(SweepState state);

struct SweepStatus {
  std::string sweep;
  std::string name;    ///< CampaignSpec::name
  std::string client;
  int priority = 0;
  SweepState state = SweepState::kQueued;
  std::uint64_t jobs_total = 0;
  std::uint64_t jobs_done = 0;  ///< records landed (monotone while running)
  bool all_hold = false;        ///< meaningful once kComplete
  std::string diagnostic;       ///< kFailed: what the harness threw
};

class Service {
 public:
  /// Creates the state-dir layout, fscks crash debris, loads the ledger,
  /// re-enqueues incomplete sweeps, and starts the pool + orchestrators.
  explicit Service(ServiceConfig config);
  /// shutdown() — graceful drain, never loses an accepted sweep.
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Submit a parsed spec. `client` must be non-empty ("anon" is the CLI
  /// default); `priority` orders this sweep's jobs on the shared pool and
  /// the sweep itself in the orchestration queue.
  SubmitResult submit(const std::string& client,
                      const campaign::CampaignSpec& spec, int priority);
  /// Parse + submit a spec document ("paper"/"smoke"/... builtin names are
  /// resolved first, then JSON). Parse failures map to kInvalid.
  SubmitResult submit_text(const std::string& client,
                           std::string_view spec_text, int priority);

  std::optional<SweepStatus> status(const std::string& sweep) const;
  /// Every known sweep, admission-ordered.
  std::vector<SweepStatus> list() const;

  /// The canonical manifest of a completed sweep; nullopt until complete.
  std::optional<std::string> manifest_text(const std::string& sweep) const;

  EventHub& events() { return hub_; }

  /// Stop admitting (submit -> kDraining). Idempotent.
  void begin_drain();
  bool draining() const { return draining_.load(std::memory_order_relaxed); }

  /// Graceful shutdown: stop admitting, let in-flight sweeps finish, stop
  /// the orchestrators and the pool, persist the ledger. Queued sweeps
  /// stay in the ledger for the next Service on this state dir. Idempotent.
  void shutdown();

  /// Block until no sweep is queued or running (e.g. after submitting a
  /// batch). Returns false on timeout_ms (0 = wait forever).
  bool wait_idle(std::uint64_t timeout_ms = 0);

  // -- introspection (tests, bench, /v1/stats) --
  const ServiceConfig& config() const { return config_; }
  /// Jobs the shared pool ran — the counter warm-hit tests pin down.
  std::uint64_t pool_executed() const { return pool_.executed(); }
  std::uint64_t pool_errors() const { return pool_.job_errors(); }
  std::vector<SessionManager::ClientStats> session_stats() const;
  obs::MetricsRegistry& metrics() { return metrics_; }

 private:
  struct Sweep {
    std::string key;  ///< hex16 spec hash
    campaign::CampaignSpec spec;
    std::string client;
    int priority = 0;
    std::uint64_t admit_seq = 0;  ///< FIFO tie-break within a priority
    SweepState state = SweepState::kQueued;
    std::uint64_t jobs_total = 0;
    std::atomic<std::uint64_t> jobs_done{0};
    bool all_hold = false;
    std::string diagnostic;
  };

  std::string sweep_dir(const std::string& key) const;
  std::string manifest_path(const std::string& key) const;
  void persist_spec(const Sweep& sw) const;
  /// Write server.json atomically. Caller holds mu_.
  void persist_ledger_locked() const;
  void load_state();  ///< constructor: fsck + ledger -> sweeps_/queue
  void orchestrate(std::size_t slot);
  /// Best eligible queued sweep under quotas, or nullptr. Caller holds mu_.
  Sweep* pick_locked();
  /// How a run_sweep() call ended; orchestrate() applies it to the Sweep
  /// under mu_, together with the ledger write, so no reader sees a state
  /// the ledger on disk does not yet hold.
  struct SweepOutcome {
    SweepState state = SweepState::kFailed;
    std::uint64_t jobs_done = 0;  ///< kComplete: records in the manifest
    bool all_hold = false;
    std::string diagnostic;  ///< kFailed: what the run threw
  };
  /// Run the sweep's campaign and write its manifest. Runs without mu_ and
  /// touches no Sweep field but the atomic jobs_done progress counter.
  SweepOutcome run_sweep(Sweep& sw);
  SweepStatus status_of(const Sweep& sw) const;

  ServiceConfig config_;
  obs::MetricsRegistry metrics_;
  EventHub hub_;
  campaign::SharedScheduler pool_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< orchestrators: queue or stop
  std::condition_variable idle_cv_;  ///< wait_idle()
  SessionManager sessions_;
  /// Admission-ordered (admit_seq ascending). Node-stable: orchestrators
  /// hold Sweep* across unlocked run_campaign calls.
  std::map<std::string, std::unique_ptr<Sweep>> sweeps_;
  std::uint64_t next_admit_seq_ = 0;
  std::size_t active_ = 0;  ///< sweeps inside run_sweep right now
  bool stop_ = false;

  std::atomic<bool> draining_{false};
  bool shut_down_ = false;  ///< shutdown() ran (guarded by mu_)
  std::vector<std::thread> orchestrators_;
};

}  // namespace congestlb::serve
