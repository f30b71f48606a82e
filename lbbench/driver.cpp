// lbbench_driver: one benchmark workload in one process.
//
//   lbbench_driver --workload <theorem5|campaign_warm|scale_flood>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  --work-dir <dir> --out <file.json>
//
// Runs the workload through the library's public entry points on one
// thread, checks every op, and writes the raw samples (setup times, per-op
// wall times, exact counts, spans) as one JSON document to --out. The
// summary statistics are computed by lbbench/run.py, not here.
//
// --trace 0 times bare ops. --trace 1 alternates a traced op with an
// untraced one (so the tracing overhead is measured in the same process)
// and records spans around the calls into each layer: the spans are kept
// in memory and written out at the end. Spans come only from this file;
// nothing inside the library is instrumented.

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/manifest.hpp"
#include "comm/blackboard.hpp"
#include "comm/instances.hpp"
#include "congest/algorithms/universal_maxis.hpp"
#include "congest/message.hpp"
#include "congest/network.hpp"
#include "lowerbound/linear_family.hpp"
#include "lowerbound/params.hpp"
#include "maxis/branch_and_bound.hpp"
#include "obs/trace.hpp"
#include "sim/reduction.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"

namespace clb = congestlb;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

double ms_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e6;
}

/// Wall time of `fn()` for call sites hit ~1e5 times per op, where the
/// clock's own cost matters: part of each clock read lands inside the
/// interval, so one back-to-back pair of reads is taken first and its
/// length subtracted.
template <typename Fn>
std::int64_t corrected_ns(Fn&& fn) {
  const std::int64_t t0 = now_ns();
  const std::int64_t t1 = now_ns();
  fn();
  return now_ns() - t1 - (t1 - t0);
}

// ---------------------------------------------------------------------------
// Spans

/// One timed interval. `start_ns` < 0 marks an aggregate: the summed time
/// of `calls` short intervals (e.g. every NodeProgram::round of one run),
/// too many to keep one by one. `op` is the op the span belongs to; setup
/// spans use negative ids.
struct Span {
  std::string name;
  std::int64_t op = 0;
  int parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::uint64_t calls = 1;
};

class SpanLog {
 public:
  int open(std::string name, std::int64_t op, int parent = -1) {
    spans_.push_back({std::move(name), op, parent, now_ns(), 0, 1});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int idx) {
    spans_[idx].dur_ns = now_ns() - spans_[idx].start_ns;
  }
  /// Add a span whose bounds were taken before it was known to be traced.
  int add(std::string name, std::int64_t op, int parent, std::int64_t start,
          std::int64_t end) {
    spans_.push_back({std::move(name), op, parent, start, end - start, 1});
    return static_cast<int>(spans_.size() - 1);
  }
  int add_aggregate(std::string name, std::int64_t op, int parent,
                    std::int64_t dur, std::uint64_t calls) {
    spans_.push_back({std::move(name), op, parent, -1, dur, calls});
    return static_cast<int>(spans_.size() - 1);
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Results

struct Raw {
  std::vector<double> setup_s;
  std::vector<double> op_ms;         ///< untraced timed ops
  std::vector<double> traced_op_ms;  ///< traced ops (--trace 1)
  std::vector<double> alt_ms;  ///< campaign_warm: in-memory-cache cold runs
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few messages
  /// Exact counts that must repeat for the same seed (the fingerprint).
  std::map<std::string, std::uint64_t> fingerprint;
  /// Per-layer values that are not spans (counts, ratios, memory).
  std::map<std::string, double> layer_values;
  SpanLog spans;
  std::string residual_layer;        ///< op time no span covers
  std::string setup_residual_layer;  ///< set-up time no span covers
  bool seed_used = true;
};

/// Record one op's verdict. An empty message means the op passed.
void verdict(Raw& raw, const std::string& error) {
  ++raw.attempted;
  if (error.empty()) return;
  ++raw.failed;
  if (raw.failures.size() < 8) raw.failures.push_back(error);
}

/// Run `op` (returning an error message or "") and count it, turning an
/// exception into a failed op.
void checked(Raw& raw, const std::function<std::string()>& op) {
  std::string err;
  try {
    err = op();
  } catch (const std::exception& e) {
    err = std::string("exception: ") + e.what();
  }
  verdict(raw, err);
}

/// Pin an exact count into the fingerprint, or compare against the value
/// pinned by an earlier op. Returns an error message on a mismatch.
std::string pin(Raw& raw, const std::string& key, std::uint64_t value) {
  auto [it, inserted] = raw.fingerprint.emplace(key, value);
  if (inserted || it->second == value) return {};
  return key + " changed: " + std::to_string(it->second) + " -> " +
         std::to_string(value);
}

std::size_t peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::size_t>(ru.ru_maxrss) * 1024;
}

std::size_t current_rss_bytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return static_cast<std::size_t>(std::strtoull(line.c_str() + 6, nullptr,
                                                    10)) *
             1024;
    }
  }
  return 0;
}

/// Repeat `fn` until `seconds` of wall time have passed since the first
/// call (always at least `min_iters` calls), and call `setup(k)` for k =
/// 1 .. setups in between: before each call of `fn`, every set-up whose
/// time has come runs, the k-th once k / (setups + 1) of the window has
/// passed. Any still due when the window ends run after it.
///
/// Spread over the run like this, a workload's repeated set-ups meet the
/// same host as its ops. Taken back to back in one place, they sample only
/// a few milliseconds of a shared host whose speed changes over minutes.
void loop_for(double seconds, std::size_t min_iters, std::size_t setups,
              const std::function<void(std::size_t)>& setup,
              const std::function<void(std::size_t)>& fn) {
  const std::int64_t start = now_ns();
  const auto window = static_cast<std::int64_t>(seconds * 1e9);
  const auto slices = static_cast<std::int64_t>(setups + 1);
  std::size_t done = 0;
  auto due = [&] {
    return start + window * static_cast<std::int64_t>(done + 1) / slices;
  };
  for (std::size_t i = 0; i < min_iters || now_ns() < start + window; ++i) {
    while (done < setups && now_ns() >= due()) setup(++done);
    fn(i);
  }
  while (done < setups) setup(++done);
}

// ---------------------------------------------------------------------------
// theorem5: the Theorem-5 blackboard reduction at t = 3.

/// Time spent inside NodeProgram::round and the local solver of one run.
struct ProgramTimers {
  std::int64_t program_ns = 0;
  std::uint64_t round_calls = 0;
  std::int64_t solve_ns = 0;
  std::uint64_t solve_calls = 0;
};

/// Forwards to the wrapped program, timing round().
class TimedProgram final : public clb::congest::NodeProgram {
 public:
  TimedProgram(std::unique_ptr<clb::congest::NodeProgram> inner,
               ProgramTimers* timers)
      : inner_(std::move(inner)), timers_(timers) {}

  void round(const clb::congest::NodeInfo& info,
             const clb::congest::Inbox& inbox, clb::congest::Outbox& outbox,
             clb::Rng& rng) override {
    timers_->program_ns +=
        corrected_ns([&] { inner_->round(info, inbox, outbox, rng); });
    ++timers_->round_calls;
  }
  bool finished() const override { return inner_->finished(); }
  bool failed() const override { return inner_->failed(); }
  std::string diagnostic() const override { return inner_->diagnostic(); }
  std::int64_t output() const override { return inner_->output(); }

 private:
  std::unique_ptr<clb::congest::NodeProgram> inner_;
  ProgramTimers* timers_;
};

std::vector<clb::graph::NodeId> exact_solver(const clb::graph::Graph& g) {
  return clb::maxis::solve_exact(g).nodes;
}

void run_theorem5(const std::uint64_t seed, double seconds, bool trace,
                  Raw& raw) {
  constexpr std::size_t kPlayers = 3;
  // Set-up runs in bursts: burst 0 before the warm-up ops, the others
  // spread over the timed loop (see loop_for). Each build makes a new Setup
  // from the same seed and only then replaces `s`, so freeing the old one
  // is not timed.
  //
  // A burst starts with an untimed build. The first large allocation after
  // an op makes the allocator merge the blocks the op freed, which took
  // 5-8 ms on a shared 4-vCPU VM against ~0.07 ms for a whole build, and
  // the caches are cold; the untimed build takes both. The timed builds
  // still speed up over the first few of a burst, so a burst has a fixed
  // length, and the low quantile of set-up times does not depend on how
  // many ops run between bursts.
  constexpr std::size_t kSetupBursts = 31;
  constexpr std::size_t kBuildsPerBurst = 10;
  struct Setup {
    clb::lb::GadgetParams params;
    std::optional<clb::lb::LinearConstruction> c;
    std::vector<clb::comm::PromiseInstance> inst;  ///< YES, NO
    clb::congest::ProgramFactory factory;
    clb::congest::NetworkConfig cfg;
  };
  auto build = [&] {
    Setup next;
    next.params = clb::lb::GadgetParams::for_linear_separation(kPlayers, 1);
    next.c.emplace(next.params, kPlayers);
    clb::Rng rng(seed);
    next.inst.push_back(
        clb::comm::make_uniquely_intersecting(next.params.k, kPlayers, rng));
    next.inst.push_back(
        clb::comm::make_pairwise_disjoint(next.params.k, kPlayers, rng));
    next.factory = clb::congest::universal_maxis_factory(exact_solver);
    next.cfg.bits_per_edge = clb::congest::universal_required_bits(
        next.c->num_nodes(), static_cast<clb::graph::Weight>(next.params.ell));
    next.cfg.max_rounds = 500'000;
    next.cfg.num_threads = 1;
    return next;
  };
  Setup s;
  auto setup = [&](std::size_t) {
    build();
    for (std::size_t b = 0; b < kBuildsPerBurst; ++b) {
      const std::int64_t t0 = now_ns();
      Setup next = build();
      raw.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      s = std::move(next);
    }
  };
  setup(0);
  const char* kind_name[2] = {"yes", "no"};

  // One op: a full reduction with a fresh blackboard. `inspect` (warm-up
  // ops only) also pins the transcript's retained bytes.
  auto reduction_op = [&](std::size_t kind, bool inspect) -> std::string {
    std::string err;
    clb::sim::ReductionReport rep;
    std::uint64_t retained = 0;
    {
      clb::comm::Blackboard board(kPlayers);
      rep = clb::sim::run_linear_reduction(*s.c, s.inst[kind], s.factory,
                                           board, s.cfg);
      if (inspect) {
        for (const auto& e : board.transcript()) {
          retained += e.data.size() + e.tag.size();
        }
      }
    }
    if (!rep.correct) err += "not correct; ";
    if (!rep.accounting_ok) err += "accounting not ok; ";
    if (!rep.cut_accounting_exact) err += "cut accounting not exact; ";
    if (!rep.algorithm_finished) err += "algorithm not finished; ";
    const std::string k = std::string(kind_name[kind]) + ".";
    const std::pair<const char*, std::uint64_t> counts[] = {
        {"n", rep.n},
        {"cut_edges", rep.cut_edges},
        {"rounds", rep.rounds},
        {"messages", rep.net_stats.messages_sent},
        {"bits", rep.total_bits},
        {"board_posts", rep.blackboard_entries},
        {"board_bits", rep.blackboard_bits},
        {"theorem5_budget", rep.theorem5_budget},
        {"computed_weight", static_cast<std::uint64_t>(rep.computed_weight)},
    };
    for (const auto& [name, v] : counts) {
      const std::string e = pin(raw, k + name, v);
      if (!e.empty()) err += e + "; ";
    }
    if (inspect) {
      const std::string e = pin(raw, k + "board_bytes_retained", retained);
      if (!e.empty()) err += e + "; ";
    }
    return err;
  };

  for (std::size_t kind = 0; kind < 2; ++kind) {
    checked(raw, [&] { return reduction_op(kind, true); });
  }

  if (!trace) {
    loop_for(seconds, 2, kSetupBursts - 1, setup, [&](std::size_t i) {
      checked(raw, [&] {
        const std::int64_t t0 = now_ns();
        std::string err = reduction_op(i % 2, false);
        raw.op_ms.push_back(ms_between(t0, now_ns()));
        return err;
      });
    });
    return;
  }

  // Traced: per iteration one untraced op, one traced op (order
  // alternating), and the companion measurements the layer split needs:
  // instantiate alone, and a bare Network::run of the same graph through a
  // wrapping factory that times round() and the solver. comm.board is the
  // residual: the reduction minus instantiate minus the bare run.
  ProgramTimers timers;
  const clb::congest::ProgramFactory timed_inner =
      clb::congest::universal_maxis_factory(
          [&timers](const clb::graph::Graph& g) {
            const std::int64_t t0 = now_ns();
            auto out = exact_solver(g);
            timers.solve_ns += now_ns() - t0;
            ++timers.solve_calls;
            return out;
          });
  const clb::congest::ProgramFactory timed_factory =
      [&](clb::graph::NodeId v, const clb::congest::NodeInfo& info) {
        return std::make_unique<TimedProgram>(timed_inner(v, info), &timers);
      };
  std::uint64_t ns_messages = 0;
  std::int64_t ns_bare = 0;
  loop_for(seconds, 2, kSetupBursts - 1, setup, [&](std::size_t i) {
    const std::size_t kind = i % 2;
    const auto op = static_cast<std::int64_t>(i);
    auto untraced = [&] {
      checked(raw, [&] {
        const std::int64_t t0 = now_ns();
        std::string err = reduction_op(kind, false);
        raw.op_ms.push_back(ms_between(t0, now_ns()));
        return err;
      });
    };
    // Which of the pair runs first flips every two ops, so it does not
    // follow the YES/NO alternation.
    const bool untraced_first = (i / 2) % 2 == 0;
    if (untraced_first) untraced();
    checked(raw, [&] {
      const int sp = raw.spans.open("op", op);
      std::string err = reduction_op(kind, false);
      raw.spans.close(sp);
      raw.traced_op_ms.push_back(
          static_cast<double>(raw.spans.spans()[sp].dur_ns) / 1e6);

      const int si = raw.spans.open("lowerbound.instantiate", op);
      const clb::graph::Graph gx = s.c->instantiate(s.inst[kind]);
      raw.spans.close(si);

      timers = {};
      const int sr = raw.spans.open("congest.network_run", op);
      clb::congest::Network net(gx, timed_factory, s.cfg);
      const clb::congest::RunStats st = net.run();
      raw.spans.close(sr);
      const int sprog = raw.spans.add_aggregate(
          "congest.program", op, sr, timers.program_ns, timers.round_calls);
      raw.spans.add_aggregate("maxis.solve", op, sprog, timers.solve_ns,
                              timers.solve_calls);
      if (!st.all_finished) err += "bare run not finished; ";
      const std::string k = std::string(kind_name[kind]) + ".";
      for (const auto& e :
           {pin(raw, k + "messages", st.messages_sent),
            pin(raw, k + "solve_calls", timers.solve_calls)}) {
        if (!e.empty()) err += e + "; ";
      }
      ns_messages += st.messages_sent;
      ns_bare += raw.spans.spans()[sr].dur_ns;
      return err;
    });
    if (!untraced_first) untraced();
  });
  raw.residual_layer = "comm.board_ms";
  // Counts are reported per op: the mean of the YES and the NO instance.
  auto mean2 = [&](const char* name) {
    return static_cast<double>(raw.fingerprint.at(std::string("yes.") + name) +
                               raw.fingerprint.at(std::string("no.") + name)) /
           2.0;
  };
  for (const auto& [metric, count] :
       {std::pair{"congest.rounds", "rounds"},
        {"congest.messages", "messages"},
        {"congest.bits", "bits"},
        {"comm.board_posts", "board_posts"},
        {"comm.board_bits", "board_bits"},
        {"comm.theorem5_budget_bits", "theorem5_budget"},
        {"comm.board_bytes_retained", "board_bytes_retained"},
        {"maxis.solve_calls", "solve_calls"}}) {
    raw.layer_values[metric] = mean2(count);
  }
  raw.layer_values["comm.budget_use"] =
      mean2("board_bits") / mean2("theorem5_budget");
  raw.layer_values["congest.ns_per_message"] =
      static_cast<double>(ns_bare) / static_cast<double>(ns_messages);
}

// ---------------------------------------------------------------------------
// campaign_warm: the paper campaign, cold in set-up, warm per op.

std::uint64_t dir_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

/// Completion stamps from RunOptions::on_job. With one worker thread the
/// jobs run one after another, so consecutive stamps delimit them.
struct JobStamps {
  struct Stamp {
    std::int64_t ns;
    std::string layer;
  };
  std::mutex mu;
  std::vector<Stamp> stamps;

  static std::string layer_of(const clb::campaign::JobRecord& r) {
    if (r.cache_hit) return "campaign.replay";
    if (r.stage == "build") return "lowerbound.build";
    if (r.stage == "check") return "campaign.check";
    if (r.stage.rfind("solve", 0) == 0) return "maxis.solve";
    return "campaign.job";
  }
};

/// Turn one op's stamps into an "op" span [t0, t1) with one aggregate
/// child per layer: job i lasts from stamp i-1 (or t0) to stamp i.
void add_job_spans(SpanLog& log, JobStamps& stamps, std::int64_t op_id,
                   std::int64_t t0, std::int64_t t1) {
  const int sp = log.add("op", op_id, -1, t0, t1);
  std::map<std::string, std::pair<std::int64_t, std::uint64_t>> by_layer;
  std::int64_t prev = t0;
  for (const auto& st : stamps.stamps) {
    auto& [ns, jobs] = by_layer[st.layer];
    ns += st.ns - prev;
    ++jobs;
    prev = st.ns;
  }
  for (const auto& [layer, agg] : by_layer) {
    log.add_aggregate(layer, op_id, sp, agg.first, agg.second);
  }
  stamps.stamps.clear();
}

struct CampaignOut {
  clb::campaign::CampaignResult res;
  std::string manifest;  ///< canonical form
};

CampaignOut campaign_op(const clb::campaign::CampaignSpec& spec,
                        const std::string& cache_dir, JobStamps* stamps) {
  clb::campaign::RunOptions o;
  o.threads = 1;
  o.cache_dir = cache_dir;
  if (stamps != nullptr) {
    o.on_job = [stamps](const clb::campaign::JobRecord& r) {
      const std::int64_t t = now_ns();
      std::lock_guard<std::mutex> lock(stamps->mu);
      stamps->stamps.push_back({t, JobStamps::layer_of(r)});
    };
  }
  CampaignOut out;
  out.res = clb::campaign::run_campaign(spec, o);
  std::ostringstream os;
  clb::campaign::ManifestWriteOptions mw;
  mw.include_volatile = false;
  clb::campaign::write_manifest(os, out.res, mw);
  out.manifest = os.str();
  return out;
}

/// Check one campaign op and pin its counts under `prefix`.
std::string check_campaign(Raw& raw, const CampaignOut& out,
                           std::size_t jobs_expected,
                           const std::string& reference_manifest,
                           const std::string& prefix,
                           std::optional<std::uint64_t> cache_bytes) {
  std::string err;
  if (!out.res.complete) err += "campaign not complete; ";
  if (out.res.records.size() != jobs_expected) {
    err += "expected " + std::to_string(jobs_expected) + " job records, got " +
           std::to_string(out.res.records.size()) + "; ";
  }
  if (!out.res.all_hold) err += "not all checks hold; ";
  if (out.manifest != reference_manifest) {
    err += "canonical manifest differs from the reference; ";
  }
  std::vector<std::pair<std::string, std::uint64_t>> counts = {
      {"jobs", out.res.records.size()},
      {"cache_writes", out.res.cache.writes},
      {"cache_misses", out.res.cache.misses},
      {"cache_hits", out.res.cache.hits()},
      {"manifest_bytes", out.manifest.size()},
  };
  if (cache_bytes) counts.emplace_back("cache_bytes", *cache_bytes);
  for (const auto& [name, v] : counts) {
    const std::string e = pin(raw, prefix + name, v);
    if (!e.empty()) err += e + "; ";
  }
  return err;
}

void run_campaign_warm(const std::uint64_t seed, double seconds, bool trace,
                       const fs::path& work, Raw& raw) {
  fs::create_directories(work);
  std::size_t dir_seq = 0;
  auto fresh_dir = [&] {
    const fs::path d = work / ("cache-" + std::to_string(dir_seq++));
    fs::remove_all(d);
    fs::create_directories(d);
    return d;
  };

  // Set-up: the spec, its job count, and a cold run of the campaign into
  // an empty on-disk cache directory (made outside the timed region). It is
  // repeated, each time into a new directory, which the ops then replay
  // from; rep 0 runs before the warm-up ops, the others spread over the
  // timed loop (see loop_for). Traced, each cold run gets an "op" span with
  // one aggregate child per layer and is followed, outside the set-up
  // timing, by a twin run with the in-memory cache only
  // (campaign.disk_cache_ms is the difference).
  constexpr std::size_t kSetupReps = 31;
  clb::campaign::CampaignSpec spec;
  std::size_t jobs_expected = 0;
  std::string reference;  // canonical manifest of the first cold run
  fs::path warm_dir;
  JobStamps stamps;
  auto setup = [&](std::size_t rep) {
    const fs::path dir = fresh_dir();
    const std::int64_t t0 = now_ns();
    spec = clb::campaign::builtin_paper_campaign();
    spec.seed = seed;
    jobs_expected = clb::campaign::count_campaign_jobs(spec);
    const CampaignOut cold =
        campaign_op(spec, dir.string(), trace ? &stamps : nullptr);
    const std::int64_t t1 = now_ns();
    raw.setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    if (trace) {
      add_job_spans(raw.spans, stamps, -1 - static_cast<std::int64_t>(rep),
                    t0, t1);
    }
    if (reference.empty()) reference = cold.manifest;
    checked(raw, [&] {
      return check_campaign(raw, cold, jobs_expected, reference, "cold.",
                            dir_bytes(dir));
    });
    if (trace) {
      checked(raw, [&] {
        const std::int64_t m0 = now_ns();
        const CampaignOut mem = campaign_op(spec, "", nullptr);
        raw.alt_ms.push_back(ms_between(m0, now_ns()));
        return check_campaign(raw, mem, jobs_expected, reference,
                              "cold_memory.", std::nullopt);
      });
    }
    if (!warm_dir.empty()) fs::remove_all(warm_dir);
    warm_dir = dir;
  };
  setup(0);

  // One op: the same campaign against the filled cache, all jobs replayed.
  auto op = [&](JobStamps* st, std::vector<double>& samples,
                std::int64_t op_id) {
    checked(raw, [&] {
      const std::int64_t t0 = now_ns();
      const CampaignOut out = campaign_op(spec, warm_dir.string(), st);
      const std::int64_t t1 = now_ns();
      if (st != nullptr) add_job_spans(raw.spans, *st, op_id, t0, t1);
      samples.push_back(ms_between(t0, t1));
      std::string err = check_campaign(raw, out, jobs_expected, reference,
                                       "warm.", std::nullopt);
      if (out.res.cache.misses != 0) err += "warm run missed the cache; ";
      return err;
    });
  };
  std::vector<double> warmup;
  for (int i = 0; i < 3; ++i) op(nullptr, warmup, -1);
  if (!trace) {
    loop_for(seconds, 2, kSetupReps - 1, setup,
             [&](std::size_t) { op(nullptr, raw.op_ms, -1); });
  } else {
    loop_for(seconds, 2, kSetupReps - 1, setup, [&](std::size_t i) {
      const auto id = static_cast<std::int64_t>(i);
      if (i % 2 == 0) op(nullptr, raw.op_ms, -1);
      op(&stamps, raw.traced_op_ms, id);
      if (i % 2 == 1) op(nullptr, raw.op_ms, -1);
    });
    const auto& fp = raw.fingerprint;
    for (const char* name : {"cache_writes", "cache_misses", "cache_bytes"}) {
      raw.layer_values[std::string("campaign.") + name] =
          static_cast<double>(fp.at(std::string("cold.") + name));
    }
    raw.layer_values["campaign.cache_hits"] =
        static_cast<double>(fp.at("warm.cache_hits"));
    raw.layer_values["campaign.jobs"] =
        static_cast<double>(fp.at("warm.jobs"));
    raw.residual_layer = "campaign.other_ms";
    raw.setup_residual_layer = "campaign.cold_other_ms";
  }
  fs::remove_all(warm_dir);
}

// ---------------------------------------------------------------------------
// scale_flood: one broadcast round on a ~1e5-node implicit G_xbar.

/// Program time of a traced round. Timing all ~1e5 round() calls, each a
/// few hundred ns, would inflate the round by ~40%, so one node in kStride
/// is timed and the sum scaled by calls / timed. The sampled residue class
/// `phase` changes every traced round, so over the ops every node is
/// sampled equally often.
struct FloodTimer {
  static constexpr clb::graph::NodeId kStride = 16;
  bool on = false;
  clb::graph::NodeId phase = 0;
  std::int64_t ns = 0;
  std::uint64_t calls = 0;
  std::uint64_t timed = 0;

  void begin_round(bool traced) {
    on = traced;
    phase = (phase + 1) % kStride;
    ns = 0;
    calls = 0;
    timed = 0;
  }

  std::int64_t estimated_ns() const {
    return timed == 0 ? 0
                      : static_cast<std::int64_t>(
                            static_cast<double>(ns) *
                            static_cast<double>(calls) /
                            static_cast<double>(timed));
  }
};

/// Reads one inbox slot and broadcasts a 16-bit value derived from it, so
/// the engine's delivery and the hybrid inbox view do the work.
class ScaleFlood final : public clb::congest::NodeProgram {
 public:
  explicit ScaleFlood(FloodTimer* timer) : timer_(timer) {}

  void round(const clb::congest::NodeInfo& info,
             const clb::congest::Inbox& inbox, clb::congest::Outbox& outbox,
             clb::Rng&) override {
    if (!timer_->on) {
      step(info, inbox, outbox);
      return;
    }
    ++timer_->calls;
    if ((info.id + timer_->phase) % FloodTimer::kStride != 0) {
      step(info, inbox, outbox);
      return;
    }
    timer_->ns += corrected_ns([&] { step(info, inbox, outbox); });
    ++timer_->timed;
  }
  bool finished() const override { return false; }
  std::int64_t output() const override {
    return static_cast<std::int64_t>(acc_ & 0x7FFFFFFFFFFFFFFFULL);
  }

 private:
  void step(const clb::congest::NodeInfo& info,
            const clb::congest::Inbox& inbox, clb::congest::Outbox& outbox) {
    if (!inbox.empty()) {
      const auto probe = inbox[0];
      if (probe) acc_ += clb::congest::MessageReader(*probe).get(16);
    }
    if (!info.neighbors.empty()) {
      const std::uint64_t payload =
          (static_cast<std::uint64_t>(info.id) ^ acc_) & 0xFFFF;
      outbox.send_all(
          std::move(clb::congest::MessageWriter().put(payload, 16)).finish());
    }
  }

  FloodTimer* timer_;
  std::uint64_t acc_ = 0;
};

std::uint64_t output_checksum(const clb::congest::Network& net) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::int64_t v : net.outputs()) {
    h ^= static_cast<std::uint64_t>(v);
    h *= 0x100000001b3ULL;
  }
  return h;
}

void run_scale_flood(double seconds, bool trace, Raw& raw) {
  raw.seed_used = false;  // the gadget and the flood are seed-free
  // The first set-ups fault in fresh pages; the low quantile of many lands
  // on the steady ones. Rep 0 runs before the warm-up op, the others spread
  // over the timed loop (see loop_for).
  constexpr std::size_t kSetupReps = 31;
  constexpr std::size_t kCheckRounds = 2;
  FloodTimer timer;
  std::optional<clb::lb::LinearConstruction> c;
  std::optional<clb::congest::Network> net;
  const std::size_t rss_entry = current_rss_bytes();

  auto setup = [&](std::size_t rep) {
    net.reset();
    c.reset();
    const std::int64_t setup_op = -1 - static_cast<std::int64_t>(rep);
    const std::int64_t t0 = now_ns();
    const int sb = raw.spans.open("lowerbound.implicit_build", setup_op);
    clb::lb::BuildOptions opts;
    opts.implicit_threshold = 4096;
    opts.skip_labels = true;
    c.emplace(clb::lb::GadgetParams::from_l_alpha(3, 1), 4166, opts);
    raw.spans.close(sb);
    const int sn = raw.spans.open("congest.network_init", setup_op);
    clb::congest::NetworkConfig cfg;
    cfg.bits_per_edge = 16;
    cfg.broadcast_only = true;
    cfg.max_rounds = 100'000'000;
    cfg.num_threads = 1;
    net.emplace(
        c->fixed_graph(),
        [&timer](clb::graph::NodeId, const clb::congest::NodeInfo&) {
          return std::make_unique<ScaleFlood>(&timer);
        },
        cfg);
    raw.spans.close(sn);
    raw.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);

    // Every set-up must give the same per-round deltas and outputs.
    checked(raw, [&] {
      std::string err;
      const auto& g = c->fixed_graph();
      for (const auto& e :
           {pin(raw, "n", g.num_nodes()),
            pin(raw, "explicit_edges", g.num_explicit_edges()),
            pin(raw, "implicit_edges", g.num_implicit_edges()),
            pin(raw, "blocks", g.implicit_blocks().size())}) {
        if (!e.empty()) err += e + "; ";
      }
      for (std::size_t r = 0; r < kCheckRounds; ++r) {
        const auto before = net->stats();
        net->run_rounds(1);
        const auto after = net->stats();
        for (const auto& e :
             {pin(raw, "messages_per_round",
                  after.messages_sent - before.messages_sent),
              pin(raw, "bits_per_round", after.bits_sent - before.bits_sent)}) {
          if (!e.empty()) err += e + "; ";
        }
      }
      const std::string e = pin(raw, "checksum_after_2_rounds",
                                output_checksum(*net));
      if (!e.empty()) err += e + "; ";
      return err;
    });
    if (rep == 0) {
      raw.layer_values["congest.rss_growth_mb"] =
          (static_cast<double>(current_rss_bytes()) -
           static_cast<double>(rss_entry)) /
          1048576.0;
    }
  };
  setup(0);

  auto op = [&](bool traced, std::int64_t op_id) {
    checked(raw, [&] {
      const auto before = net->stats();
      timer.begin_round(traced);
      const std::int64_t t0 = now_ns();
      const int sp = traced ? raw.spans.open("op", op_id) : -1;
      net->run_rounds(1);
      const std::int64_t t1 = now_ns();
      if (traced) {
        raw.spans.close(sp);
        raw.spans.add_aggregate("congest.program", op_id, sp,
                                timer.estimated_ns(), timer.calls);
        raw.traced_op_ms.push_back(ms_between(t0, t1));
      } else {
        raw.op_ms.push_back(ms_between(t0, t1));
      }
      const auto after = net->stats();
      std::string err;
      if (after.rounds != before.rounds + 1) err += "round not executed; ";
      for (const auto& e :
           {pin(raw, "messages_per_round",
                after.messages_sent - before.messages_sent),
            pin(raw, "bits_per_round", after.bits_sent - before.bits_sent)}) {
        if (!e.empty()) err += e + "; ";
      }
      return err;
    });
  };
  op(false, -1);  // warm-up
  if (!trace) {
    loop_for(seconds, 2, kSetupReps - 1, setup,
             [&](std::size_t) { op(false, -1); });
  } else {
    loop_for(seconds, 2, kSetupReps - 1, setup, [&](std::size_t i) {
      const auto id = static_cast<std::int64_t>(i);
      if (i % 2 == 0) op(false, -1);
      op(true, id);
      if (i % 2 == 1) op(false, -1);
    });
    const auto& fp = raw.fingerprint;
    for (const char* name : {"explicit_edges", "implicit_edges", "blocks"}) {
      raw.layer_values[std::string("graph.") + name] =
          static_cast<double>(fp.at(name));
    }
    raw.layer_values["congest.messages_per_round"] =
        static_cast<double>(fp.at("messages_per_round"));
    raw.residual_layer = "congest.round_engine_self_ms";
  }
}

// ---------------------------------------------------------------------------
// Environment stamp

/// Effective cores: a fixed ALU loop timed on one thread, then on two
/// threads at once. 2 * t1 / t2 is ~2 with two free cores and ~1 with one.
double effective_cores() {
  auto spin = [](std::uint64_t seed) {
    std::uint64_t x = seed | 1;
    for (std::uint64_t i = 0; i < 40'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    return x;
  };
  std::atomic<std::uint64_t> sink{0};
  const std::int64_t a = now_ns();
  sink += spin(1);
  const std::int64_t b = now_ns();
  {
    std::thread other([&] { sink += spin(2); });
    sink += spin(3);
    other.join();
  }
  const std::int64_t c = now_ns();
  return sink.load() == 0 ? 0.0
                          : 2.0 * static_cast<double>(b - a) /
                                static_cast<double>(c - b);
}

// ---------------------------------------------------------------------------
// Output

void write_raw(std::ostream& os, const std::string& workload,
               std::uint64_t seed, bool trace, const Raw& raw) {
  clb::JsonWriter w(os);
  auto doubles = [&](const char* key, const std::vector<double>& v) {
    w.key(key).begin_array();
    for (const double x : v) w.value(x);
    w.end_array();
  };
  w.begin_object();
  w.kv("workload", workload);
  w.kv("seed", seed);
  w.kv("seed_used", raw.seed_used);
  w.kv("trace", trace);
  w.kv("attempted", raw.attempted);
  w.kv("failed", raw.failed);
  w.key("failures").begin_array();
  for (const auto& f : raw.failures) w.value(f);
  w.end_array();
  doubles("setup_s", raw.setup_s);
  doubles("op_ms", raw.op_ms);
  doubles("traced_op_ms", raw.traced_op_ms);
  doubles("alt_ms", raw.alt_ms);
  w.kv("peak_rss_mb",
       static_cast<double>(peak_rss_bytes()) / 1048576.0);
  w.key("fingerprint").begin_object();
  for (const auto& [k, v] : raw.fingerprint) w.kv(k, v);
  w.end_object();
  w.key("layer_values").begin_object();
  for (const auto& [k, v] : raw.layer_values) w.kv(k, v);
  w.end_object();
  w.kv("residual_layer", raw.residual_layer);
  w.kv("setup_residual_layer", raw.setup_residual_layer);
  w.key("spans").begin_array();
  for (const auto& s : raw.spans.spans()) {
    w.begin_object();
    w.kv("name", s.name);
    w.kv("op", s.op);
    w.kv("parent", s.parent);
    w.kv("start_ns", s.start_ns);
    w.kv("dur_ns", s.dur_ns);
    w.kv("calls", s.calls);
    w.end_object();
  }
  w.end_array();
  w.key("env").begin_object();
  w.kv("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.kv("effective_cores", effective_cores());
  w.kv("simd_level",
       clb::simd::level_name(clb::simd::active_level()));
  w.kv("build_type", LBBENCH_BUILD_TYPE);
  w.kv("trace_compiled_in", clb::obs::trace_compiled_in());
  w.kv("engine_threads", 1);
  w.end_object();
  w.end_object();
  os << "\n";
}

int usage() {
  std::cerr << "usage: lbbench_driver --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir> --out <file>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    if (k.rfind("--", 0) != 0) return usage();
    args[k.substr(2)] = argv[i + 1];
  }
  for (const char* k : {"workload", "seed", "seconds", "trace", "work-dir",
                        "out"}) {
    if (args.count(k) == 0) return usage();
  }
  const std::string workload = args["workload"];
  const std::uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  const double seconds = std::strtod(args["seconds"].c_str(), nullptr);
  const bool trace = args["trace"] == "1";
  const fs::path work = args["work-dir"];
  if (!(seconds > 0)) return usage();

  Raw raw;
  if (workload == "theorem5") {
    run_theorem5(seed, seconds, trace, raw);
  } else if (workload == "campaign_warm") {
    run_campaign_warm(seed, seconds, trace, work, raw);
  } else if (workload == "scale_flood") {
    run_scale_flood(seconds, trace, raw);
  } else {
    std::cerr << "lbbench_driver: unknown workload '" << workload << "'\n";
    return 2;
  }
  std::ofstream out(args["out"]);
  write_raw(out, workload, seed, trace, raw);
  out.close();
  if (!out) {
    std::cerr << "lbbench_driver: cannot write " << args["out"] << "\n";
    return 1;
  }
  return 0;
}
