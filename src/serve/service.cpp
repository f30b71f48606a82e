#include "serve/service.hpp"

#include <chrono>
#include <filesystem>
#include <sstream>
#include <utility>

#include "campaign/cache.hpp"
#include "campaign/supervise.hpp"
#include "support/atomic_file.hpp"
#include "support/expect.hpp"
#include "support/json.hpp"

namespace congestlb::serve {

namespace fs = std::filesystem;

std::string_view to_string(SubmitOutcome outcome) {
  switch (outcome) {
    case SubmitOutcome::kAccepted: return "accepted";
    case SubmitOutcome::kDuplicate: return "duplicate";
    case SubmitOutcome::kWarmHit: return "warm_hit";
    case SubmitOutcome::kRejectedQuota: return "rejected_quota";
    case SubmitOutcome::kDraining: return "draining";
    case SubmitOutcome::kInvalid: return "invalid";
  }
  return "unknown";
}

std::string_view to_string(SweepState state) {
  switch (state) {
    case SweepState::kQueued: return "queued";
    case SweepState::kRunning: return "running";
    case SweepState::kComplete: return "complete";
    case SweepState::kFailed: return "failed";
  }
  return "unknown";
}

Service::Service(ServiceConfig config)
    : config_(std::move(config)),
      metrics_(std::max<std::size_t>(1, config_.pool_threads)),
      hub_(config_.event_capacity),
      pool_(config_.pool_threads),
      sessions_(config_.quota) {
  CLB_EXPECT(!config_.state_dir.empty(), "serve: state_dir must be set");
  // Pre-register every instrument any concurrent campaign will touch:
  // registration is serial-only, so it must all happen before the
  // orchestrators exist (docs/SERVICE.md "metrics" note).
  campaign::register_campaign_metrics(metrics_, pool_.num_threads());
  metrics_.counter("serve.submits");
  metrics_.counter("serve.accepted");
  metrics_.counter("serve.warm_hits");
  metrics_.counter("serve.duplicates");
  metrics_.counter("serve.rejected_quota");
  metrics_.counter("serve.invalid");
  metrics_.counter("serve.completed");
  metrics_.counter("serve.failed");
  load_state();
  orchestrators_.reserve(config_.orchestrators);
  for (std::size_t i = 0; i < config_.orchestrators; ++i) {
    orchestrators_.emplace_back([this, i] { orchestrate(i); });
  }
}

Service::~Service() { shutdown(); }

std::string Service::sweep_dir(const std::string& key) const {
  return config_.state_dir + "/sweeps/" + key;
}

std::string Service::manifest_path(const std::string& key) const {
  return sweep_dir(key) + "/campaign.json";
}

void Service::persist_spec(const Sweep& sw) const {
  fs::create_directories(sweep_dir(sw.key));
  std::ostringstream text;
  campaign::write_campaign_spec(text, sw.spec);
  CLB_EXPECT(write_file_atomic(sweep_dir(sw.key) + "/spec.json", text.str()),
             "serve: cannot persist sweep spec");
}

void Service::persist_ledger_locked() const {
  std::ostringstream text;
  {
    JsonWriter w(text);
    w.begin_object();
    w.kv("clb_server", 1);
    w.key("sweeps");
    w.begin_array();
    // Admission order: stable across rewrites, so ledger diffs are sane.
    std::vector<const Sweep*> ordered;
    ordered.reserve(sweeps_.size());
    for (const auto& [key, sw] : sweeps_) ordered.push_back(sw.get());
    std::sort(ordered.begin(), ordered.end(),
              [](const Sweep* a, const Sweep* b) {
                return a->admit_seq < b->admit_seq;
              });
    for (const Sweep* sw : ordered) {
      w.begin_object();
      w.kv("sweep", sw->key);
      w.kv("name", sw->spec.name);
      w.kv("client", sw->client);
      w.kv("priority", sw->priority);
      w.kv("admit_seq", sw->admit_seq);
      w.kv("state", to_string(sw->state));
      w.kv("all_hold", sw->all_hold);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  text << "\n";
  CLB_EXPECT(
      write_file_atomic(config_.state_dir + "/server.json", text.str()),
      "serve: cannot persist server ledger");
}

void Service::load_state() {
  fs::create_directories(config_.state_dir + "/sweeps");
  fs::create_directories(config_.state_dir + "/cache");
  const std::string cache_dir = config_.state_dir + "/cache";
  // Clear crash debris from the cache before anything replays out of it.
  campaign::FsckOptions fopts;
  fopts.repair = true;
  campaign::fsck_campaign(cache_dir, /*manifest_path=*/{}, fopts);
  // And from every sweep dir: a kill inside persist_spec() or a manifest
  // write leaves an intent marker or temp file there, also for sweeps that
  // never reached the ledger and so are never loaded below.
  std::error_code ec;
  for (const auto& dir :
       fs::directory_iterator(config_.state_dir + "/sweeps", ec)) {
    if (dir.is_directory(ec)) {
      campaign::fsck_debris_dir(dir.path().string(), fopts);
    }
  }

  const auto ledger = read_file(config_.state_dir + "/server.json");
  if (!ledger) return;
  JsonValue doc;
  try {
    doc = parse_json(*ledger);
  } catch (const std::exception&) {
    return;  // torn/foreign ledger: start empty, the file is rewritten
  }
  const JsonValue* sweeps = doc.find("sweeps");
  if (sweeps == nullptr || !sweeps->is_array()) return;
  for (const JsonValue& entry : sweeps->as_array()) {
    try {
      auto sw = std::make_unique<Sweep>();
      sw->key = entry.at("sweep").as_string();
      sw->client = entry.at("client").as_string();
      sw->priority = static_cast<int>(entry.at("priority").as_i64());
      sw->admit_seq = entry.at("admit_seq").as_u64();
      const std::string state = entry.at("state").as_string();
      const auto spec_text = read_file(sweep_dir(sw->key) + "/spec.json");
      if (!spec_text) continue;  // unrecoverable without the spec
      sw->spec = campaign::parse_campaign_spec_text(*spec_text);
      CLB_EXPECT(campaign::ContentCache::hex_key(sw->spec.content_hash()) ==
                     sw->key,
                 "serve: sweep dir key does not match its spec hash");
      sw->jobs_total = campaign::count_campaign_jobs(sw->spec);
      next_admit_seq_ = std::max(next_admit_seq_, sw->admit_seq + 1);
      if (state == "complete" && fs::exists(manifest_path(sw->key))) {
        sw->state = SweepState::kComplete;
        sw->all_hold = entry.at("all_hold").as_bool();
        sw->jobs_done.store(sw->jobs_total, std::memory_order_relaxed);
      } else if (state == "failed") {
        sw->state = SweepState::kFailed;
      } else {
        // queued, running, or complete-with-missing-manifest: re-run. The
        // fsck'd content cache replays every job that finished before the
        // kill, so convergence to the same canonical manifest is the
        // campaign resume contract, now across the process boundary.
        // Both debris passes above ran already; what is left to check
        // here is a torn manifest.
        campaign::fsck_campaign(/*cache_dir=*/{}, manifest_path(sw->key),
                                fopts);
        sw->state = SweepState::kQueued;
        sessions_.force_enqueue(sw->client);
      }
      sweeps_.emplace(sw->key, std::move(sw));
    } catch (const std::exception&) {
      continue;  // one corrupt entry must not sink the ledger
    }
  }
  persist_ledger_locked();  // constructor context: no concurrent access
}

SubmitResult Service::submit(const std::string& client,
                             const campaign::CampaignSpec& spec,
                             int priority) {
  const auto t0 = std::chrono::steady_clock::now();
  SubmitResult res;
  const auto finish = [&t0, &res]() -> SubmitResult& {
    res.admit_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    return res;
  };
  std::uint64_t jobs_total = 0;
  try {
    CLB_EXPECT(!client.empty(), "serve: client name must be non-empty");
    // Expansion doubles as validation: a spec that cannot expand is
    // rejected here, at admission, not inside an orchestrator.
    jobs_total = campaign::count_campaign_jobs(spec);
  } catch (const std::exception& e) {
    res.outcome = SubmitOutcome::kInvalid;
    res.message = e.what();
    std::lock_guard<std::mutex> lock(mu_);
    metrics_.counter("serve.invalid").inc();
    return finish();
  }
  const std::string key =
      campaign::ContentCache::hex_key(spec.content_hash());
  res.sweep = key;

  std::lock_guard<std::mutex> lock(mu_);
  metrics_.counter("serve.submits").inc();
  const auto it = sweeps_.find(key);
  if (it != sweeps_.end() && it->second->state == SweepState::kComplete) {
    res.outcome = SubmitOutcome::kWarmHit;
    metrics_.counter("serve.warm_hits").inc();
    return finish();
  }
  if (it != sweeps_.end() && (it->second->state == SweepState::kQueued ||
                              it->second->state == SweepState::kRunning)) {
    res.outcome = SubmitOutcome::kDuplicate;
    metrics_.counter("serve.duplicates").inc();
    return finish();
  }
  if (draining_.load(std::memory_order_relaxed)) {
    res.outcome = SubmitOutcome::kDraining;
    return finish();
  }
  if (!sessions_.try_enqueue(client)) {
    res.outcome = SubmitOutcome::kRejectedQuota;
    metrics_.counter("serve.rejected_quota").inc();
    return finish();
  }

  Sweep* sw;
  if (it != sweeps_.end()) {
    // A failed sweep re-submitted: fresh attempt under the new submitter.
    sw = it->second.get();
    sw->client = client;
    sw->priority = priority;
    sw->admit_seq = next_admit_seq_++;
    sw->state = SweepState::kQueued;
    sw->jobs_done.store(0, std::memory_order_relaxed);
    sw->all_hold = false;
    sw->diagnostic.clear();
  } else {
    auto owned = std::make_unique<Sweep>();
    owned->key = key;
    owned->spec = spec;
    owned->client = client;
    owned->priority = priority;
    owned->admit_seq = next_admit_seq_++;
    owned->jobs_total = jobs_total;
    sw = owned.get();
    sweeps_.emplace(key, std::move(owned));
  }
  // Durability before acknowledgement: spec and ledger hit disk before
  // submit() returns kAccepted, so a kill -9 one instruction later still
  // resumes this sweep.
  persist_spec(*sw);
  persist_ledger_locked();
  metrics_.counter("serve.accepted").inc();
  hub_.publish({0, key, "accepted", "", "", "", 0, sw->jobs_total});
  res.outcome = SubmitOutcome::kAccepted;
  work_cv_.notify_one();
  return finish();
}

SubmitResult Service::submit_text(const std::string& client,
                                  std::string_view spec_text, int priority) {
  campaign::CampaignSpec spec;
  try {
    if (const auto builtin = campaign::builtin_campaign(spec_text)) {
      spec = *builtin;
    } else {
      spec = campaign::parse_campaign_spec_text(spec_text);
    }
  } catch (const std::exception& e) {
    SubmitResult res;
    res.outcome = SubmitOutcome::kInvalid;
    res.message = e.what();
    std::lock_guard<std::mutex> lock(mu_);
    metrics_.counter("serve.invalid").inc();
    return res;
  }
  return submit(client, spec, priority);
}

Service::Sweep* Service::pick_locked() {
  Sweep* best = nullptr;
  for (auto& [key, sw] : sweeps_) {
    if (sw->state != SweepState::kQueued) continue;
    if (!sessions_.can_start(sw->client)) continue;
    if (best == nullptr || sw->priority > best->priority ||
        (sw->priority == best->priority &&
         sw->admit_seq < best->admit_seq)) {
      best = sw.get();
    }
  }
  return best;
}

void Service::orchestrate(std::size_t slot) {
  (void)slot;
  while (true) {
    Sweep* sw = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock,
                    [this, &sw] { return stop_ || (sw = pick_locked()); });
      if (sw == nullptr) return;  // stop_, nothing eligible: drain done
      sw->state = SweepState::kRunning;
      sessions_.on_start(sw->client);
      ++active_;
      persist_ledger_locked();
      hub_.publish({0, sw->key, "started", "", "", "", 0, sw->jobs_total});
    }
    SweepOutcome outcome = run_sweep(*sw);
    {
      std::lock_guard<std::mutex> lock(mu_);
      sw->state = outcome.state;
      if (outcome.state == SweepState::kComplete) {
        sw->jobs_done.store(outcome.jobs_done, std::memory_order_relaxed);
        sw->all_hold = outcome.all_hold;
      } else {
        sw->diagnostic = std::move(outcome.diagnostic);
      }
      sessions_.on_finish(sw->client);
      --active_;
      if (sw->state == SweepState::kComplete) {
        metrics_.counter("serve.completed").inc();
      } else {
        metrics_.counter("serve.failed").inc();
      }
      persist_ledger_locked();
      hub_.publish({0, sw->key,
                    sw->state == SweepState::kComplete ? "completed"
                                                       : "failed",
                    "", "",
                    sw->state == SweepState::kComplete
                        ? (sw->all_hold ? "all_hold" : "degraded")
                        : sw->diagnostic,
                    sw->jobs_done.load(std::memory_order_relaxed),
                    sw->jobs_total});
      // A finished sweep frees one of its client's in-flight slots: a
      // same-client queued sweep may be eligible now. And wake every
      // wait_idle()er in case this was the last one.
      work_cv_.notify_all();
      idle_cv_.notify_all();
    }
  }
}

Service::SweepOutcome Service::run_sweep(Sweep& sw) {
  campaign::RunOptions opts;
  opts.cache_dir = config_.state_dir + "/cache";
  opts.shared = &pool_;
  opts.priority = sw.priority;
  opts.metrics = &metrics_;
  opts.job_deadline_ms = config_.job_deadline_ms;
  opts.retry = config_.retry;
  opts.chaos = config_.chaos;
  opts.on_job = [this, &sw](const campaign::JobRecord& rec) {
    const std::uint64_t done =
        sw.jobs_done.fetch_add(1, std::memory_order_relaxed) + 1;
    hub_.publish({0, sw.key, "job", rec.id, rec.stage, rec.verdict, done,
                  sw.jobs_total});
  };

  // Manifest-level resume: a manifest from a drained previous life (or a
  // foreign one someone copied in) feeds prior records; jobs it already
  // holds are carried instead of re-run.
  std::map<std::string, campaign::JobRecord> prior;
  bool resuming = false;
  if (const auto text = read_file(manifest_path(sw.key))) {
    try {
      auto m = campaign::read_manifest(*text);
      if (m.spec_hash == sw.spec.content_hash()) {
        prior = std::move(m.records);
        resuming = true;
      }
    } catch (const std::exception&) {
      // torn manifest: startup fsck handles the protocol debris; run cold
    }
  }

  SweepOutcome outcome;
  try {
    const auto result =
        campaign::run_campaign(sw.spec, opts, resuming ? &prior : nullptr);
    campaign::ManifestWriteOptions wopts;
    wopts.include_volatile = false;  // the canonical, byte-comparable form
    std::ostringstream text;
    campaign::write_manifest(text, result, wopts);
    CLB_EXPECT(write_file_atomic(manifest_path(sw.key), text.str()),
               "serve: cannot write sweep manifest");
    outcome.state = SweepState::kComplete;
    outcome.jobs_done = result.records.size();
    outcome.all_hold = result.all_hold;
  } catch (const std::exception& e) {
    outcome.diagnostic = e.what();
  }
  return outcome;
}

SweepStatus Service::status_of(const Sweep& sw) const {
  SweepStatus st;
  st.sweep = sw.key;
  st.name = sw.spec.name;
  st.client = sw.client;
  st.priority = sw.priority;
  st.state = sw.state;
  st.jobs_total = sw.jobs_total;
  st.jobs_done = sw.jobs_done.load(std::memory_order_relaxed);
  st.all_hold = sw.all_hold;
  st.diagnostic = sw.diagnostic;
  return st;
}

std::optional<SweepStatus> Service::status(const std::string& sweep) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sweeps_.find(sweep);
  if (it == sweeps_.end()) return std::nullopt;
  return status_of(*it->second);
}

std::vector<SweepStatus> Service::list() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SweepStatus> out;
  out.reserve(sweeps_.size());
  for (const auto& [key, sw] : sweeps_) out.push_back(status_of(*sw));
  std::sort(out.begin(), out.end(),
            [this](const SweepStatus& a, const SweepStatus& b) {
              return sweeps_.at(a.sweep)->admit_seq <
                     sweeps_.at(b.sweep)->admit_seq;
            });
  return out;
}

std::optional<std::string> Service::manifest_text(
    const std::string& sweep) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = sweeps_.find(sweep);
    if (it == sweeps_.end() || it->second->state != SweepState::kComplete) {
      return std::nullopt;
    }
  }
  return read_file(manifest_path(sweep));
}

void Service::begin_drain() {
  draining_.store(true, std::memory_order_relaxed);
}

void Service::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shut_down_) return;
    shut_down_ = true;
    stop_ = true;
  }
  draining_.store(true, std::memory_order_relaxed);
  work_cv_.notify_all();
  for (std::thread& th : orchestrators_) {
    if (th.joinable()) th.join();  // in-flight sweeps finish here
  }
  orchestrators_.clear();
  pool_.close();
  pool_.drain();
  std::lock_guard<std::mutex> lock(mu_);
  persist_ledger_locked();
  idle_cv_.notify_all();
}

bool Service::wait_idle(std::uint64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto idle = [this] {
    if (active_ > 0) return false;
    for (const auto& [key, sw] : sweeps_) {
      if (sw->state == SweepState::kQueued ||
          sw->state == SweepState::kRunning) {
        return false;
      }
    }
    return true;
  };
  if (timeout_ms == 0) {
    idle_cv_.wait(lock, idle);
    return true;
  }
  return idle_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                           idle);
}

std::vector<SessionManager::ClientStats> Service::session_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.stats();
}

}  // namespace congestlb::serve
