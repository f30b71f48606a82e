// Campaign service (docs/SERVICE.md): shared-pool priority scheduling,
// the event hub feed, per-client quotas, and the Service admission and
// durability contracts — warm hits without dispatch, concurrent admission
// deduplicating to one cold execution, deterministic quota rejections,
// restart-resume, a multi-client soak, and the HTTP/SSE round trip.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/cache.hpp"
#include "campaign/campaign.hpp"
#include "campaign/manifest.hpp"
#include "campaign/scheduler.hpp"
#include "serve/client.hpp"
#include "serve/events.hpp"
#include "serve/http.hpp"
#include "serve/routes.hpp"
#include "serve/service.hpp"
#include "serve/session.hpp"
#include "support/atomic_file.hpp"
#include "support/expect.hpp"
#include "support/json.hpp"

namespace clb = congestlb;
namespace cmp = clb::campaign;
namespace srv = clb::serve;
namespace fs = std::filesystem;

namespace {

/// A unique scratch directory, removed on scope exit.
struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const std::string& tag)
      : path(fs::path(::testing::TempDir()) / ("clb_serve_test_" + tag)) {
    fs::remove_all(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string str() const { return path.string(); }
};

/// Smallest valid campaign: one property1 point. Distinct seeds give
/// distinct content hashes, i.e. distinct sweeps from the service's view.
cmp::CampaignSpec tiny_spec(std::uint64_t seed) {
  cmp::CampaignSpec spec;
  spec.name = "tiny";
  spec.seed = seed;
  cmp::SweepSpec sweep;
  sweep.name = "P1";
  sweep.check = cmp::CheckKind::kProperty1;
  sweep.points.push_back({2, 1, 2, std::nullopt});
  spec.sweeps.push_back(sweep);
  return spec;
}

/// The canonical manifest the determinism contract promises: what
/// `clb campaign run --canonical` of the same spec writes.
std::string reference_manifest(const cmp::CampaignSpec& spec) {
  cmp::RunOptions opts;
  const auto result = cmp::run_campaign(spec, opts);
  std::ostringstream os;
  cmp::ManifestWriteOptions wopts;
  wopts.include_volatile = false;
  cmp::write_manifest(os, result, wopts);
  return os.str();
}

}  // namespace

// -------------------------------------------------------- SharedScheduler --

TEST(SharedScheduler, RunsByPriorityThenFifo) {
  cmp::SharedScheduler pool(1);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::vector<int> order;
  // Park the single worker so every later submit lands in the queue and
  // ordering is decided by the priority queue alone.
  pool.submit(100, [&](std::size_t) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });
  auto tagged = [&](int tag) {
    return [&order, &mu, tag](std::size_t) {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(tag);
    };
  };
  ASSERT_TRUE(pool.submit(0, tagged(1)));
  ASSERT_TRUE(pool.submit(5, tagged(2)));
  ASSERT_TRUE(pool.submit(0, tagged(3)));
  ASSERT_TRUE(pool.submit(5, tagged(4)));
  ASSERT_TRUE(pool.submit(-3, tagged(5)));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pool.drain();
  // Priority 5 first (FIFO within), then 0, then -3.
  EXPECT_EQ(order, (std::vector<int>{2, 4, 1, 3, 5}));
  EXPECT_EQ(pool.executed(), 6u);
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(SharedScheduler, CloseRejectsAndCountsErrors) {
  cmp::SharedScheduler pool(2);
  ASSERT_TRUE(pool.submit(0, [](std::size_t) { throw std::runtime_error("x"); }));
  pool.drain();
  EXPECT_EQ(pool.job_errors(), 1u);
  EXPECT_EQ(pool.executed(), 1u);
  pool.close();
  EXPECT_FALSE(pool.submit(0, [](std::size_t) {}));
  pool.drain();
  EXPECT_EQ(pool.executed(), 1u);
}

// --------------------------------------------------------------- EventHub --

TEST(EventHub, PollTailsWithCursorAndFilters) {
  srv::EventHub hub(8);
  std::uint64_t next = 0;
  EXPECT_TRUE(hub.poll("", 0, &next).empty());
  EXPECT_EQ(next, 0u);
  for (int i = 0; i < 5; ++i) {
    srv::ServeEvent ev;
    ev.sweep = (i % 2 == 0) ? "aaaa" : "bbbb";
    ev.kind = "job";
    hub.publish(ev);
  }
  auto all = hub.poll("", 0, &next);
  ASSERT_EQ(all.size(), 5u);
  EXPECT_EQ(next, 5u);
  for (std::size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i].seq, i);
  // Sweep filter keeps global seq numbers but only matching events.
  auto only_a = hub.poll("aaaa", 0, &next);
  ASSERT_EQ(only_a.size(), 3u);
  EXPECT_EQ(only_a[1].seq, 2u);
  // Tailing: re-poll from the cursor is empty until a new publish.
  EXPECT_TRUE(hub.poll("", next, &next).empty());
  hub.publish({});
  EXPECT_EQ(hub.poll("", next, &next).size(), 1u);
  EXPECT_EQ(hub.published(), 6u);
}

TEST(EventHub, OverwriteShowsAsGapLikeTheTraceRing) {
  srv::EventHub hub(4);
  for (int i = 0; i < 7; ++i) hub.publish({});
  std::uint64_t next = 0;
  const auto events = hub.poll("", 0, &next);
  // Seqs 0..2 were overwritten: the consumer sees next - since (7) greater
  // than the returned size (4) — the same gap contract as
  // obs::Tracer::events_since.
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(next, 7u);
  EXPECT_EQ(events.front().seq, 3u);
}

TEST(EventHub, PollWaitWakesOnPublishAndTimesOutEmpty) {
  srv::EventHub hub(8);
  std::uint64_t next = 0;
  // Timeout path: nothing published, bounded wait, empty result.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(hub.poll_wait("", 0, &next, 30).empty());
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(25));
  // Wake path: a publisher thread lands an event mid-wait.
  std::thread pub([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    srv::ServeEvent ev;
    ev.sweep = "aaaa";
    hub.publish(ev);
  });
  const auto got = hub.poll_wait("aaaa", 0, &next, 5000);
  pub.join();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].sweep, "aaaa");
}

// ---------------------------------------------------------- SessionManager --

TEST(SessionManager, EnforcesQueuedQuotaPerClient) {
  srv::SessionManager sm({/*max_queued=*/2, /*max_inflight=*/1});
  EXPECT_TRUE(sm.try_enqueue("alice"));
  EXPECT_TRUE(sm.try_enqueue("alice"));
  EXPECT_FALSE(sm.try_enqueue("alice"));  // at max_queued
  EXPECT_TRUE(sm.try_enqueue("bob"));     // quotas are per client
  EXPECT_TRUE(sm.can_start("alice"));
  sm.on_start("alice");
  EXPECT_FALSE(sm.can_start("alice"));  // at max_inflight
  EXPECT_TRUE(sm.try_enqueue("alice"));  // start freed a queued slot
  sm.on_finish("alice");
  EXPECT_TRUE(sm.can_start("alice"));
  // force_enqueue (restart-resume) ignores the quota.
  sm.force_enqueue("bob");
  sm.force_enqueue("bob");
  sm.force_enqueue("bob");
  EXPECT_EQ(sm.queued("bob"), 4u);
  const auto stats = sm.stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].client, "alice");
  EXPECT_EQ(stats[1].client, "bob");
}

// ---------------------------------------------------------------- Service --

TEST(Service, ColdRunMatchesCanonicalManifestByteForByte) {
  ScratchDir scratch("cold");
  const auto spec = tiny_spec(1);
  srv::ServiceConfig config;
  config.state_dir = scratch.str();
  config.pool_threads = 2;
  config.orchestrators = 1;
  srv::Service service(config);

  const auto res = service.submit("alice", spec, 0);
  ASSERT_EQ(res.outcome, srv::SubmitOutcome::kAccepted);
  EXPECT_EQ(res.sweep.size(), 16u);
  ASSERT_TRUE(service.wait_idle(/*timeout_ms=*/60000));

  const auto st = service.status(res.sweep);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->state, srv::SweepState::kComplete);
  EXPECT_TRUE(st->all_hold);
  EXPECT_EQ(st->jobs_done, st->jobs_total);
  EXPECT_EQ(st->jobs_total, cmp::count_campaign_jobs(spec));

  const auto manifest = service.manifest_text(res.sweep);
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(*manifest, reference_manifest(spec));
}

TEST(Service, WarmHitServesFromDiskWithoutDispatch) {
  ScratchDir scratch("warm");
  const auto spec = tiny_spec(2);
  srv::ServiceConfig config;
  config.state_dir = scratch.str();
  config.orchestrators = 1;
  std::string key;
  {
    srv::Service service(config);
    const auto res = service.submit("alice", spec, 0);
    ASSERT_EQ(res.outcome, srv::SubmitOutcome::kAccepted);
    key = res.sweep;
    ASSERT_TRUE(service.wait_idle(60000));
    // Same server, same spec, again: warm hit, pool untouched.
    const auto executed = service.pool_executed();
    const auto warm = service.submit("bob", spec, 0);
    EXPECT_EQ(warm.outcome, srv::SubmitOutcome::kWarmHit);
    EXPECT_EQ(warm.sweep, key);
    EXPECT_EQ(service.pool_executed(), executed);
  }
  // A fresh server on the same state dir loads the completed sweep from
  // the ledger and answers warm with zero scheduler dispatch.
  srv::Service reborn(config);
  EXPECT_EQ(reborn.pool_executed(), 0u);
  const auto warm = reborn.submit("carol", spec, 0);
  EXPECT_EQ(warm.outcome, srv::SubmitOutcome::kWarmHit);
  EXPECT_EQ(reborn.pool_executed(), 0u);
  const auto manifest = reborn.manifest_text(key);
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(*manifest, reference_manifest(spec));
}

TEST(Service, DuplicateWhileQueuedAndInvalidSpecAndDrain) {
  ScratchDir scratch("dup");
  srv::ServiceConfig config;
  config.state_dir = scratch.str();
  config.orchestrators = 0;  // admission-only: queued sweeps stay queued
  srv::Service service(config);

  const auto spec = tiny_spec(3);
  const auto first = service.submit("alice", spec, 0);
  ASSERT_EQ(first.outcome, srv::SubmitOutcome::kAccepted);
  const auto dup = service.submit("bob", spec, 5);
  EXPECT_EQ(dup.outcome, srv::SubmitOutcome::kDuplicate);
  EXPECT_EQ(dup.sweep, first.sweep);

  // An unparsable document is rejected without a sweep key.
  const auto bad = service.submit_text("alice", "{\"not\": \"a spec\"}", 0);
  EXPECT_EQ(bad.outcome, srv::SubmitOutcome::kInvalid);
  EXPECT_TRUE(bad.sweep.empty());
  EXPECT_FALSE(bad.message.empty());
  // Builtin names resolve through submit_text.
  const auto builtin = service.submit_text("alice", "smoke", 0);
  EXPECT_EQ(builtin.outcome, srv::SubmitOutcome::kAccepted);

  service.begin_drain();
  const auto drained = service.submit("carol", tiny_spec(4), 0);
  EXPECT_EQ(drained.outcome, srv::SubmitOutcome::kDraining);
}

// Satellite: N racing clients submitting the same spec must produce
// exactly one cold execution; everyone else attaches (duplicate) or is
// served warm, and every fetched manifest is byte-identical.
TEST(Service, ConcurrentAdmissionColdExecutesExactlyOnce) {
  ScratchDir scratch("race");
  const auto spec = tiny_spec(5);
  srv::ServiceConfig config;
  config.state_dir = scratch.str();
  config.pool_threads = 4;
  config.orchestrators = 2;
  srv::Service service(config);

  constexpr int kClients = 8;
  std::vector<srv::SubmitResult> results(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      results[i] = service.submit("client" + std::to_string(i), spec, 0);
    });
  }
  for (auto& t : threads) t.join();

  int accepted = 0, attached = 0;
  for (const auto& r : results) {
    if (r.outcome == srv::SubmitOutcome::kAccepted) ++accepted;
    if (r.outcome == srv::SubmitOutcome::kDuplicate ||
        r.outcome == srv::SubmitOutcome::kWarmHit) {
      ++attached;
    }
    EXPECT_EQ(r.sweep, results[0].sweep);
  }
  EXPECT_EQ(accepted, 1);
  EXPECT_EQ(attached, kClients - 1);

  ASSERT_TRUE(service.wait_idle(60000));
  // One cold execution: the pool ran exactly one campaign's worth of jobs.
  EXPECT_EQ(service.pool_executed(), cmp::count_campaign_jobs(spec));
  const auto manifest = service.manifest_text(results[0].sweep);
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(*manifest, reference_manifest(spec));
}

// Satellite: quota rejections depend only on the client's own serial
// submit order — the same sequence replays identically on a fresh server.
TEST(Service, QuotaRejectionsAreDeterministicUnderReplay) {
  constexpr std::size_t kMaxQueued = 3;
  constexpr int kSubmits = 6;
  auto run_once = [&](const std::string& dir) {
    srv::ServiceConfig config;
    config.state_dir = dir;
    config.orchestrators = 0;  // admission-only: no timing in the answer
    config.quota.max_queued = kMaxQueued;
    srv::Service service(config);
    std::vector<srv::SubmitOutcome> outcomes;
    for (int i = 0; i < kSubmits; ++i) {
      outcomes.push_back(
          service.submit("alice", tiny_spec(100 + i), 0).outcome);
    }
    // Other tenants never consume alice's quota.
    EXPECT_EQ(service.submit("bob", tiny_spec(999), 0).outcome,
              srv::SubmitOutcome::kAccepted);
    return outcomes;
  };
  ScratchDir a("quota_a"), b("quota_b");
  const auto first = run_once(a.str());
  const auto replay = run_once(b.str());
  ASSERT_EQ(first.size(), replay.size());
  EXPECT_EQ(first, replay);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], i < kMaxQueued ? srv::SubmitOutcome::kAccepted
                                       : srv::SubmitOutcome::kRejectedQuota)
        << "submit " << i;
  }
}

// Accepted sweeps survive the server: an admission-only Service persists
// them, and a successor on the same state dir completes every one with
// the canonical manifest bytes.
TEST(Service, RestartResumeCompletesEveryAcceptedSweep) {
  ScratchDir scratch("resume");
  std::vector<cmp::CampaignSpec> specs = {tiny_spec(10), tiny_spec(11),
                                          tiny_spec(12)};
  std::vector<std::string> keys;
  {
    srv::ServiceConfig config;
    config.state_dir = scratch.str();
    config.orchestrators = 0;  // accept + persist, never start
    srv::Service service(config);
    for (const auto& spec : specs) {
      const auto res = service.submit("alice", spec, 0);
      ASSERT_EQ(res.outcome, srv::SubmitOutcome::kAccepted);
      keys.push_back(res.sweep);
    }
    // Destructor = graceful shutdown; queued sweeps stay in the ledger.
  }
  srv::ServiceConfig config;
  config.state_dir = scratch.str();
  config.orchestrators = 2;
  srv::Service service(config);
  ASSERT_TRUE(service.wait_idle(120000));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto st = service.status(keys[i]);
    ASSERT_TRUE(st.has_value()) << keys[i];
    EXPECT_EQ(st->state, srv::SweepState::kComplete);
    const auto manifest = service.manifest_text(keys[i]);
    ASSERT_TRUE(manifest.has_value());
    EXPECT_EQ(*manifest, reference_manifest(specs[i]));
  }
}

TEST(Service, RestartIgnoresLedgerWriteDebris) {
  // A kill inside a ledger write leaves the intent marker and a torn temp
  // file next to the intact previous ledger; the restart must load the
  // ledger, not the debris, and its first rewrite clears both.
  ScratchDir scratch("ledger_debris");
  const auto spec = tiny_spec(20);
  std::string key;
  {
    srv::ServiceConfig config;
    config.state_dir = scratch.str();
    config.orchestrators = 0;  // accept + persist, never start
    srv::Service service(config);
    const auto res = service.submit("alice", spec, 0);
    ASSERT_EQ(res.outcome, srv::SubmitOutcome::kAccepted);
    key = res.sweep;
  }
  const std::string ledger = scratch.str() + "/server.json";
  ASSERT_TRUE(clb::write_file_atomic(clb::intent_path(ledger), ledger + "\n"));
  ASSERT_TRUE(clb::write_file_atomic(clb::tmp_path(ledger),
                                     "{\"clb_server\": 1, \"swe"));

  srv::ServiceConfig config;
  config.state_dir = scratch.str();
  config.orchestrators = 1;
  srv::Service service(config);
  EXPECT_FALSE(fs::exists(clb::intent_path(ledger)));
  EXPECT_FALSE(fs::exists(clb::tmp_path(ledger)));
  ASSERT_TRUE(service.wait_idle(60000));
  const auto st = service.status(key);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->state, srv::SweepState::kComplete);
  const auto manifest = service.manifest_text(key);
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(*manifest, reference_manifest(spec));
}

TEST(Service, StartupRemovesSpecWriteDebrisOfUnledgeredSweeps) {
  // A kill inside persist_spec() — before the sweep reaches the ledger —
  // leaves the spec's intent marker and temp file in a sweep dir nothing
  // loads. Startup must remove both, and nothing else.
  ScratchDir scratch("spec_debris");
  const auto spec = tiny_spec(21);
  const std::string dir =
      scratch.str() + "/sweeps/" +
      cmp::ContentCache::hex_key(spec.content_hash());
  fs::create_directories(dir);
  const std::string spec_path = dir + "/spec.json";
  ASSERT_TRUE(clb::write_file_atomic(clb::intent_path(spec_path),
                                     spec_path + "\n"));
  ASSERT_TRUE(
      clb::write_file_atomic(clb::tmp_path(spec_path), "{\"name\": \"ti"));
  ASSERT_TRUE(clb::write_file_atomic(dir + "/notes.txt", "kept\n"));

  srv::ServiceConfig config;
  config.state_dir = scratch.str();
  config.orchestrators = 0;
  srv::Service service(config);
  EXPECT_FALSE(fs::exists(clb::intent_path(spec_path)));
  EXPECT_FALSE(fs::exists(clb::tmp_path(spec_path)));
  EXPECT_TRUE(fs::exists(dir + "/notes.txt"));
  EXPECT_TRUE(service.list().empty());
}

TEST(Service, CompleteStatusIsAlreadyInTheLedger) {
  // A sweep's state and the ledger write change in one critical section:
  // once status() reports a sweep complete, server.json says so too.
  // Several pollers keep mu_ busy, which is what would let a reader slip
  // in between an unguarded state change and the ledger write.
  ScratchDir scratch("status_ledger");
  srv::ServiceConfig config;
  config.state_dir = scratch.str();
  config.pool_threads = 2;
  config.orchestrators = 2;
  srv::Service service(config);
  const std::string ledger_path = scratch.str() + "/server.json";

  std::vector<std::string> keys;
  for (int i = 0; i < 24; ++i) {
    const auto res =
        service.submit("client" + std::to_string(i), tiny_spec(300 + i), 0);
    ASSERT_EQ(res.outcome, srv::SubmitOutcome::kAccepted);
    keys.push_back(res.sweep);
  }
  const auto ledger_state = [&ledger_path](const std::string& key) {
    const auto text = clb::read_file(ledger_path);
    if (!text) return std::string("unreadable");
    const clb::JsonValue doc = clb::parse_json(*text);
    for (const auto& e : doc.at("sweeps").as_array()) {
      if (e.at("sweep").as_string() == key) return e.at("state").as_string();
    }
    return std::string("absent");
  };

  std::atomic<int> ahead{0};
  std::vector<std::thread> pollers;
  for (int p = 0; p < 3; ++p) {
    pollers.emplace_back([&] {
      std::vector<bool> seen(keys.size(), false);
      std::size_t left = keys.size();
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(120);
      while (left > 0 && std::chrono::steady_clock::now() < deadline) {
        for (std::size_t i = 0; i < keys.size(); ++i) {
          if (seen[i]) continue;
          const auto st = service.status(keys[i]);
          if (!st || st->state != srv::SweepState::kComplete) continue;
          if (ledger_state(keys[i]) != "complete") ++ahead;
          seen[i] = true;
          --left;
        }
      }
    });
  }
  for (auto& th : pollers) th.join();
  ASSERT_TRUE(service.wait_idle(60000));
  EXPECT_EQ(ahead.load(), 0);
  for (const auto& key : keys) EXPECT_EQ(ledger_state(key), "complete");
}

// Acceptance soak: >= 8 concurrent clients with mixed cold, warm, and
// duplicate submissions. Every distinct spec executes at most once on the
// pool and every manifest equals the serial one-shot canonical bytes.
TEST(Service, SoakEightClientsMixedColdWarmDuplicate) {
  ScratchDir scratch("soak");
  constexpr int kClients = 8;
  constexpr int kDistinct = 4;
  std::vector<cmp::CampaignSpec> specs;
  specs.reserve(kDistinct);
  for (int i = 0; i < kDistinct; ++i) specs.push_back(tiny_spec(200 + i));

  srv::ServiceConfig config;
  config.state_dir = scratch.str();
  config.pool_threads = 4;
  config.orchestrators = 3;
  config.quota.max_queued = 16;  // the soak mixes outcomes, not quotas
  srv::Service service(config);

  std::atomic<int> executions_claimed{0};
  std::atomic<int> attached{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const std::string name = "client" + std::to_string(c);
      // Each client walks every spec, starting at a different offset, and
      // submits each twice — the second touch is a duplicate (still
      // running) or a warm hit (already complete).
      for (int round = 0; round < 2 * kDistinct; ++round) {
        const auto& spec = specs[(c + round) % kDistinct];
        const auto res = service.submit(name, spec, c % 3);
        ASSERT_NE(res.outcome, srv::SubmitOutcome::kInvalid);
        ASSERT_NE(res.outcome, srv::SubmitOutcome::kRejectedQuota);
        if (res.outcome == srv::SubmitOutcome::kAccepted) {
          executions_claimed.fetch_add(1);
        } else {
          attached.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  ASSERT_TRUE(service.wait_idle(120000));

  // Exactly one cold admission per distinct spec; everyone else attached.
  EXPECT_EQ(executions_claimed.load(), kDistinct);
  EXPECT_EQ(attached.load(), kClients * 2 * kDistinct - kDistinct);

  // The pool ran each distinct campaign exactly once — warm and duplicate
  // paths never dispatched.
  std::uint64_t expected_jobs = 0;
  for (const auto& spec : specs) expected_jobs += cmp::count_campaign_jobs(spec);
  EXPECT_EQ(service.pool_executed(), expected_jobs);

  // Byte-identity against the serial one-shot reference, per spec.
  for (const auto& spec : specs) {
    const auto key = cmp::ContentCache::hex_key(spec.content_hash());
    const auto manifest = service.manifest_text(key);
    ASSERT_TRUE(manifest.has_value()) << key;
    EXPECT_EQ(*manifest, reference_manifest(spec)) << key;
  }
  // And the feed saw every lifecycle: one accepted/started/completed per
  // distinct spec plus one event per landed job.
  std::uint64_t next = 0;
  const auto events = service.events().poll("", 0, &next);
  std::uint64_t completed = 0;
  for (const auto& ev : events) completed += ev.kind == "completed";
  EXPECT_EQ(completed, static_cast<std::uint64_t>(kDistinct));
}

// ------------------------------------------------------------- HTTP layer --

TEST(ServeHttp, RoundTripSubmitStatusManifestEventsDrain) {
  ScratchDir scratch("http");
  const auto spec = tiny_spec(42);
  srv::ServiceConfig config;
  config.state_dir = scratch.str();
  config.pool_threads = 2;
  config.orchestrators = 1;
  srv::Service service(config);

  srv::HttpServer http(0);  // ephemeral port
  std::thread server([&] { http.serve(srv::make_service_handler(service)); });
  srv::HttpClient client(http.port());

  auto ping = client.request("GET", "/v1/ping");
  ASSERT_EQ(ping.status, 200) << ping.error;

  // Submit the spec as an embedded JSON document.
  std::ostringstream spec_text;
  cmp::write_campaign_spec(spec_text, spec);
  const auto submit = client.request(
      "POST", "/v1/sweeps",
      "{\"spec\": " + spec_text.str() + ", \"client\": \"http\"}");
  ASSERT_EQ(submit.status, 202) << submit.body;
  const auto doc = clb::parse_json(submit.body);
  const std::string key = doc.at("sweep").as_string();
  ASSERT_EQ(key.size(), 16u);

  // Poll status until the sweep completes.
  std::string state;
  for (int i = 0; i < 600 && state != "complete"; ++i) {
    const auto st = client.request("GET", "/v1/sweeps/" + key);
    ASSERT_EQ(st.status, 200);
    state = clb::parse_json(st.body).at("state").as_string();
    if (state != "complete") {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  ASSERT_EQ(state, "complete");

  // Manifest fetch equals the canonical reference bytes.
  const auto manifest = client.request("GET", "/v1/sweeps/" + key + "/manifest");
  ASSERT_EQ(manifest.status, 200);
  EXPECT_EQ(manifest.body, reference_manifest(spec));
  EXPECT_EQ(client.request("GET", "/v1/sweeps/ffffffffffffffff/manifest").status,
            404);

  // The event stream replays from cursor 0 and ends on the terminal frame
  // (warm attach: the sweep already finished).
  std::vector<std::string> kinds;
  const int stream_status = client.stream(
      "/v1/sweeps/" + key + "/events?since=0", [&](std::string_view data) {
        kinds.push_back(clb::parse_json(std::string(data)).at("kind").as_string());
        return kinds.back() != "completed" && kinds.back() != "failed";
      });
  EXPECT_EQ(stream_status, 200);
  ASSERT_FALSE(kinds.empty());
  EXPECT_EQ(kinds.back(), "completed");
  EXPECT_EQ(kinds.front(), "accepted");

  // Duplicate submit of a finished sweep over HTTP: 200 warm_hit.
  const auto warm = client.request(
      "POST", "/v1/sweeps",
      "{\"spec\": " + spec_text.str() + ", \"client\": \"http2\"}");
  EXPECT_EQ(warm.status, 200);
  EXPECT_EQ(clb::parse_json(warm.body).at("outcome").as_string(), "warm_hit");

  // Bad spec: 400 with a diagnostic.
  const auto bad =
      client.request("POST", "/v1/sweeps", "{\"spec\": \"no-such-builtin\"}");
  EXPECT_EQ(bad.status, 400);

  // Drain: subsequent submissions are refused with 503.
  EXPECT_EQ(client.request("POST", "/v1/drain").status, 200);
  std::ostringstream other_text;
  cmp::write_campaign_spec(other_text, tiny_spec(43));
  const auto refused = client.request(
      "POST", "/v1/sweeps", "{\"spec\": " + other_text.str() + "}");
  EXPECT_EQ(refused.status, 503);

  const auto stats = client.request("GET", "/v1/stats");
  ASSERT_EQ(stats.status, 200);
  EXPECT_TRUE(clb::parse_json(stats.body).at("draining").as_bool());

  http.stop();
  server.join();
  service.shutdown();
}
