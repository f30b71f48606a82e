#include "campaign/supervise.hpp"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <ostream>
#include <thread>

#include "campaign/cache.hpp"
#include "campaign/campaign.hpp"
#include "support/atomic_file.hpp"
#include "support/deadline.hpp"
#include "support/expect.hpp"
#include "support/hash.hpp"
#include "support/json.hpp"

namespace congestlb::campaign {

namespace fs = std::filesystem;

namespace {

std::uint64_t env_u64(const char* value, const char* name) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value, &end, 10);
  CLB_EXPECT(end != value && *end == '\0' && errno == 0 && *value != '-',
             std::string("chaos: malformed ") + name);
  return static_cast<std::uint64_t>(v);
}

double env_unit(const char* value, const char* name) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(value, &end);
  CLB_EXPECT(end != value && *end == '\0' && errno == 0 && v >= 0.0 &&
                 v <= 1.0,
             std::string("chaos: ") + name + " must be in [0,1]");
  return v;
}

}  // namespace

std::optional<ChaosConfig> chaos_from_env() {
  const char* kill = std::getenv("CLB_CHAOS_KILL_AFTER_JOBS");
  const char* rate = std::getenv("CLB_CHAOS_FAIL_RATE");
  const char* seed = std::getenv("CLB_CHAOS_FAIL_SEED");
  const char* poison = std::getenv("CLB_CHAOS_POISON");
  if (kill == nullptr && rate == nullptr && seed == nullptr &&
      poison == nullptr) {
    return std::nullopt;
  }
  ChaosConfig c;
  if (kill != nullptr) {
    c.kill_after_jobs =
        static_cast<std::int64_t>(env_u64(kill, "CLB_CHAOS_KILL_AFTER_JOBS"));
  }
  if (rate != nullptr) c.fail_rate = env_unit(rate, "CLB_CHAOS_FAIL_RATE");
  if (seed != nullptr) c.fail_seed = env_u64(seed, "CLB_CHAOS_FAIL_SEED");
  if (poison != nullptr) c.poison_substring = poison;
  return c;
}

Supervisor::Supervisor(RetryPolicy policy, std::uint64_t seed,
                       std::optional<ChaosConfig> chaos)
    : policy_(policy), seed_(seed), chaos_(std::move(chaos)) {
  CLB_EXPECT(policy_.max_attempts >= 1,
             "supervisor: max_attempts must be >= 1");
}

std::uint64_t Supervisor::backoff_for(std::string_view job_id,
                                      std::size_t attempt) const {
  return backoff_delay_us(hash_mix(seed_, fnv1a64(job_id)), attempt,
                          policy_.backoff_base_us, policy_.backoff_cap_us);
}

bool Supervisor::inject_failure(std::string_view job_id,
                                std::size_t attempt) const {
  if (!chaos_.has_value()) return false;
  if (!chaos_->poison_substring.empty() &&
      job_id.find(chaos_->poison_substring) != std::string_view::npos) {
    return true;
  }
  if (chaos_->fail_rate <= 0.0) return false;
  return hash_to_unit(hash_mix(chaos_->fail_seed, fnv1a64(job_id), attempt)) <
         chaos_->fail_rate;
}

void Supervisor::note_completed() {
  if (!chaos_.has_value() || chaos_->kill_after_jobs < 0) return;
  const std::int64_t done =
      completed_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (done >= chaos_->kill_after_jobs) {
    // Simulated SIGKILL: no unwinding, no destructors, no manifest flush —
    // whatever the cache writer was mid-way through stays torn on disk,
    // exactly the state fsck and resume must cope with.
    std::_Exit(137);
  }
}

SuperviseOutcome Supervisor::supervise(std::string_view job_id,
                                       const std::function<void()>& body) {
  SuperviseOutcome out;
  std::string last;
  for (std::size_t attempt = 0; attempt < policy_.max_attempts; ++attempt) {
    out.attempts = attempt + 1;
    try {
      if (inject_failure(job_id, attempt)) {
        throw InvariantError("chaos: injected failure (attempt " +
                             std::to_string(attempt) + ")");
      }
      body();
      out.ok = true;
      break;
    } catch (const std::exception& e) {
      last = e.what();
      if (attempt + 1 < policy_.max_attempts) {
        retries_.fetch_add(1, std::memory_order_relaxed);
        const std::uint64_t delay = backoff_for(job_id, attempt);
        out.backoff_total_us += delay;
        if (policy_.sleep) {
          std::this_thread::sleep_for(std::chrono::microseconds(delay));
        }
      }
    }
  }
  if (!out.ok) {
    out.diagnostic = last;
    quarantined_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    faults_.push_back(FaultRecord{std::string(job_id), out.attempts,
                                  out.backoff_total_us, last});
  }
  note_completed();
  return out;
}

std::vector<FaultRecord> Supervisor::faults() const {
  std::lock_guard<std::mutex> lock(mu_);
  return faults_;
}

// ---- fsck ----------------------------------------------------------------

std::string_view to_string(FsckIssue::Kind kind) {
  switch (kind) {
    case FsckIssue::Kind::kDanglingIntent: return "dangling-intent";
    case FsckIssue::Kind::kOrphanTmp: return "orphan-tmp";
    case FsckIssue::Kind::kTornSlot: return "torn-slot";
    case FsckIssue::Kind::kTornManifest: return "torn-manifest";
    case FsckIssue::Kind::kForeignFile: return "foreign-file";
  }
  return "?";
}

bool FsckReport::clean() const {
  for (const FsckIssue& i : issues) {
    if (i.kind != FsckIssue::Kind::kForeignFile) return false;
  }
  return true;
}

namespace {

bool is_hex16(std::string_view s) {
  if (s.size() != 16) return false;
  for (const char c : s) {
    const bool ok = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!ok) return false;
  }
  return true;
}

void add_issue(FsckReport& report, const FsckOptions& opts,
               FsckIssue::Kind kind, const fs::path& path,
               std::string detail) {
  FsckIssue issue;
  issue.kind = kind;
  issue.path = path.string();
  issue.detail = std::move(detail);
  if (opts.repair && kind != FsckIssue::Kind::kForeignFile) {
    std::error_code ec;
    issue.repaired = fs::remove(path, ec) && !ec;
    if (issue.repaired) ++report.repaired;
  }
  report.issues.push_back(std::move(issue));
}

/// Report `path` if its name is atomic-file debris; returns whether it was.
bool report_debris(FsckReport& report, const FsckOptions& opts,
                   const fs::path& path) {
  const Debris debris = classify_debris(path.filename().string());
  if (debris == Debris::kIntent) {
    add_issue(report, opts, FsckIssue::Kind::kDanglingIntent, path,
              "write-ahead marker outlived its write");
  } else if (debris == Debris::kTmp) {
    add_issue(report, opts, FsckIssue::Kind::kOrphanTmp, path,
              "temp file never renamed into place");
  }
  return debris != Debris::kNone;
}

void fsck_kind_dir(FsckReport& report, const FsckOptions& opts,
                   const std::string& kind, const fs::path& dir) {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) {
      add_issue(report, opts, FsckIssue::Kind::kForeignFile, entry.path(),
                "not a regular file");
      continue;
    }
    if (report_debris(report, opts, entry.path())) continue;
    const std::string name = entry.path().filename().string();
    if (name.ends_with(ContentCache::kSlotSuffix)) {
      ++report.slots_scanned;
      const std::string hex16 =
          name.substr(0, name.size() - ContentCache::kSlotSuffix.size());
      if (is_hex16(hex16) &&
          ContentCache::valid_slot_file(entry.path().string(), kind, hex16)) {
        ++report.slots_valid;
      } else {
        add_issue(report, opts, FsckIssue::Kind::kTornSlot, entry.path(),
                  "header/size/digest verification failed");
      }
      continue;
    }
    add_issue(report, opts, FsckIssue::Kind::kForeignFile, entry.path(),
              "unrecognized file in cache tree");
  }
}

void fsck_manifest(FsckReport& report, const FsckOptions& opts,
                   const std::string& manifest_path) {
  std::error_code ec;
  for (const std::string& debris :
       {intent_path(manifest_path), tmp_path(manifest_path)}) {
    if (fs::exists(debris, ec)) report_debris(report, opts, debris);
  }
  if (!fs::exists(manifest_path, ec)) return;
  bool ok = false;
  if (const auto text = read_file(manifest_path)) {
    try {
      read_manifest(*text);
      ok = true;
    } catch (const std::exception&) {
    }
  }
  if (!ok) {
    // Safe to delete under --repair: the content cache is the write-ahead
    // log, so a resumed run regenerates every record the manifest held.
    add_issue(report, opts, FsckIssue::Kind::kTornManifest, manifest_path,
              "manifest does not parse");
  }
}

}  // namespace

FsckReport fsck_campaign(const std::string& cache_dir,
                         const std::string& manifest_path,
                         const FsckOptions& opts) {
  FsckReport report;
  std::error_code ec;
  if (!cache_dir.empty() && fs::exists(cache_dir, ec)) {
    for (const auto& entry : fs::directory_iterator(cache_dir, ec)) {
      if (entry.is_directory()) {
        fsck_kind_dir(report, opts, entry.path().filename().string(),
                      entry.path());
      } else {
        add_issue(report, opts, FsckIssue::Kind::kForeignFile, entry.path(),
                  "unrecognized entry at cache root");
      }
    }
  }
  if (!manifest_path.empty()) fsck_manifest(report, opts, manifest_path);
  return report;
}

FsckReport fsck_debris_dir(const std::string& dir, const FsckOptions& opts) {
  FsckReport report;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    report_debris(report, opts, entry.path());
  }
  return report;
}

void write_fsck_report(std::ostream& os, const FsckReport& report) {
  JsonWriter w(os);
  w.begin_object();
  w.kv("clb_fsck_report", std::uint64_t{1});
  w.kv("slots_scanned", static_cast<std::uint64_t>(report.slots_scanned));
  w.kv("slots_valid", static_cast<std::uint64_t>(report.slots_valid));
  w.kv("clean", report.clean());
  w.kv("repaired", static_cast<std::uint64_t>(report.repaired));
  w.key("issues");
  w.begin_array();
  for (const FsckIssue& i : report.issues) {
    w.begin_object();
    w.kv("kind", to_string(i.kind));
    w.kv("path", i.path);
    w.kv("detail", i.detail);
    w.kv("repaired", i.repaired);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
}

}  // namespace congestlb::campaign
