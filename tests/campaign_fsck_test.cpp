// Crash-recovery audit (fsck_campaign): classification of every
// enumerable crash artifact, repair semantics, and the central recovery
// property — a campaign whose manifest or cache slots are torn at *any*
// byte boundary converges back to the byte-identical canonical manifest
// after `fsck --repair` plus a resume.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "campaign/cache.hpp"
#include "campaign/campaign.hpp"
#include "campaign/manifest.hpp"
#include "campaign/supervise.hpp"
#include "support/expect.hpp"

namespace clb = congestlb;
namespace cmp = clb::campaign;
namespace fs = std::filesystem;

namespace {

struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const std::string& tag)
      : path(fs::path(::testing::TempDir()) / ("clb_fsck_test_" + tag)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
};

void spew(const fs::path& p, std::string_view bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out << bytes;
  ASSERT_TRUE(out.good()) << p;
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string canonical_manifest(const cmp::CampaignResult& result) {
  std::ostringstream os;
  cmp::ManifestWriteOptions opts;
  opts.include_volatile = false;
  cmp::write_manifest(os, result, opts);
  return os.str();
}

std::size_t count_kind(const cmp::FsckReport& report,
                       cmp::FsckIssue::Kind kind) {
  std::size_t n = 0;
  for (const auto& issue : report.issues) n += issue.kind == kind ? 1u : 0u;
  return n;
}

/// One claim point: 4 jobs (build, solve-yes, solve-no, check), so the
/// manifest is small enough to truncate at every single byte while still
/// covering the gadget/opt/verdict cache kinds.
cmp::CampaignSpec tiny_claim_spec() {
  cmp::CampaignSpec spec;
  spec.name = "tiny";
  spec.seed = 2020;
  cmp::SweepSpec sweep;
  sweep.name = "C12";
  sweep.check = cmp::CheckKind::kClaim12;
  sweep.points = {{2, 1, 2, std::size_t{3}}};
  sweep.trials = 1;
  spec.sweeps = {sweep};
  return spec;
}

}  // namespace

TEST(Fsck, MissingStateIsClean) {
  ScratchDir scratch("missing");
  const auto report =
      cmp::fsck_campaign((scratch.path / "no_cache").string(),
                         (scratch.path / "no_manifest.json").string());
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(report.issues.empty());
  EXPECT_EQ(report.slots_scanned, 0u);
}

TEST(Fsck, HealthyCampaignStateIsClean) {
  ScratchDir scratch("healthy");
  const std::string cache_dir = (scratch.path / "cache").string();
  const fs::path manifest = scratch.path / "campaign.json";

  cmp::RunOptions opts;
  opts.cache_dir = cache_dir;
  const auto result = cmp::run_campaign(tiny_claim_spec(), opts);
  ASSERT_TRUE(result.all_hold);
  {
    std::ofstream out(manifest, std::ios::binary);
    cmp::write_manifest(out, result);
  }

  const auto report = cmp::fsck_campaign(cache_dir, manifest.string());
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(report.issues.empty());
  EXPECT_GT(report.slots_scanned, 0u);
  EXPECT_EQ(report.slots_scanned, report.slots_valid);
}

TEST(Fsck, ClassifiesAndRepairsEveryCrashArtifact) {
  ScratchDir scratch("classify");
  const std::string cache_dir = (scratch.path / "cache").string();
  const fs::path manifest = scratch.path / "campaign.json";
  const fs::path kind_dir = fs::path(cache_dir) / "gadget";

  // One healthy slot, plus one of every crash artifact the write protocol
  // can strand: a dangling intent, an orphaned tmp, a torn slot — and a
  // foreign file outside the protocol entirely.
  {
    cmp::ContentCache cache(cache_dir);
    cache.store("gadget", 1, "healthy payload");
  }
  const auto hex = [](std::uint64_t k) { return cmp::ContentCache::hex_key(k); };
  spew(kind_dir / (hex(2) + ".clbc.intent"), "gadget/" + hex(2) + "\n");
  spew(kind_dir / (hex(3) + ".clbc.tmp." + hex(3)), "half a payload");
  spew(kind_dir / (hex(4) + ".clbc"), "clb-cache v2 gadget torn");
  spew(kind_dir / "README.txt", "not ours");
  spew(manifest, "{ not a manifest");
  spew(manifest.string() + ".intent", "campaign\n");
  spew(manifest.string() + ".tmp", "{ half a manifest");

  const auto found = cmp::fsck_campaign(cache_dir, manifest.string());
  EXPECT_FALSE(found.clean());
  EXPECT_EQ(found.slots_scanned, 2u);  // healthy + torn
  EXPECT_EQ(found.slots_valid, 1u);
  EXPECT_EQ(count_kind(found, cmp::FsckIssue::Kind::kDanglingIntent), 2u);
  EXPECT_EQ(count_kind(found, cmp::FsckIssue::Kind::kOrphanTmp), 2u);
  EXPECT_EQ(count_kind(found, cmp::FsckIssue::Kind::kTornSlot), 1u);
  EXPECT_EQ(count_kind(found, cmp::FsckIssue::Kind::kTornManifest), 1u);
  EXPECT_EQ(count_kind(found, cmp::FsckIssue::Kind::kForeignFile), 1u);
  EXPECT_EQ(found.repaired, 0u) << "no deletion without --repair";
  EXPECT_TRUE(fs::exists(manifest));

  cmp::FsckOptions repair;
  repair.repair = true;
  const auto fixed = cmp::fsck_campaign(cache_dir, manifest.string(), repair);
  EXPECT_EQ(fixed.repaired, 6u) << "everything but the foreign file";
  EXPECT_FALSE(fs::exists(manifest));
  EXPECT_TRUE(fs::exists(kind_dir / "README.txt"))
      << "foreign files are reported, never deleted";

  // Second pass: consistent by construction; the healthy slot survived.
  const auto again = cmp::fsck_campaign(cache_dir, manifest.string());
  EXPECT_TRUE(again.clean());
  EXPECT_EQ(again.slots_scanned, 1u);
  EXPECT_EQ(again.slots_valid, 1u);
  EXPECT_EQ(count_kind(again, cmp::FsckIssue::Kind::kForeignFile), 1u);
  cmp::ContentCache reader(cache_dir);
  EXPECT_EQ(reader.load("gadget", 1), "healthy payload");
}

TEST(Fsck, ReportWritesJson) {
  ScratchDir scratch("report");
  const std::string cache_dir = (scratch.path / "cache").string();
  fs::create_directories(fs::path(cache_dir) / "opt");
  spew(fs::path(cache_dir) / "opt" / "nope.clbc.intent", "opt/nope\n");
  const auto report = cmp::fsck_campaign(cache_dir);
  std::ostringstream os;
  cmp::write_fsck_report(os, report);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"clb_fsck_report\": 1"), std::string::npos);
  EXPECT_NE(json.find("dangling-intent"), std::string::npos);
}

TEST(Fsck, DebrisDirRemovesOnlyDebris) {
  ScratchDir scratch("debris_dir");
  spew(scratch.path / "spec.json", "{}\n");
  spew(scratch.path / "spec.json.intent", "");
  spew(scratch.path / "spec.json.tmp", "{");
  const auto audit = cmp::fsck_debris_dir(scratch.path.string());
  EXPECT_EQ(count_kind(audit, cmp::FsckIssue::Kind::kDanglingIntent), 1u);
  EXPECT_EQ(count_kind(audit, cmp::FsckIssue::Kind::kOrphanTmp), 1u);
  EXPECT_EQ(audit.issues.size(), 2u);
  EXPECT_TRUE(fs::exists(scratch.path / "spec.json.tmp"));

  cmp::FsckOptions repair;
  repair.repair = true;
  EXPECT_EQ(cmp::fsck_debris_dir(scratch.path.string(), repair).repaired, 2u);
  EXPECT_TRUE(cmp::fsck_debris_dir(scratch.path.string()).clean());
  EXPECT_EQ(slurp(scratch.path / "spec.json"), "{}\n");
  EXPECT_FALSE(fs::exists(scratch.path / "spec.json.intent"));
}

TEST(Fsck, SlotTruncatedAtEveryByteIsInvalid) {
  // The checksummed v2 header makes torn slots *enumerable*: no strict
  // prefix of a valid slot file passes verification, so fsck can classify
  // any kill-point state without guessing.
  ScratchDir scratch("truncate_slot");
  const std::string cache_dir = (scratch.path / "cache").string();
  const std::string hex = cmp::ContentCache::hex_key(42);
  const fs::path slot = fs::path(cache_dir) / "gadget" / (hex + ".clbc");
  {
    cmp::ContentCache cache(cache_dir);
    cache.store("gadget", 42, "linear 2 1 3\n0 1\n1 2\n");
  }
  const std::string full = slurp(slot);
  ASSERT_GT(full.size(), 0u);
  ASSERT_TRUE(cmp::ContentCache::valid_slot_file(slot.string(), "gadget", hex));
  for (std::size_t len = 0; len < full.size(); ++len) {
    spew(slot, full.substr(0, len));
    EXPECT_FALSE(
        cmp::ContentCache::valid_slot_file(slot.string(), "gadget", hex))
        << "a slot truncated to " << len << "/" << full.size()
        << " bytes passed verification";
  }
  // ... and the load path agrees: the torn slot is a miss, not garbage.
  spew(slot, full.substr(0, full.size() / 2));
  cmp::ContentCache reader(cache_dir);
  EXPECT_EQ(reader.load("gadget", 42), std::nullopt);
  EXPECT_EQ(reader.stats().invalid, 1u);
}

TEST(Fsck, CampaignRecoversFromSlotTornAtAnyBoundary) {
  ScratchDir scratch("slot_recovery");
  const std::string cache_dir = (scratch.path / "cache").string();
  const auto spec = tiny_claim_spec();

  cmp::RunOptions opts;
  opts.cache_dir = cache_dir;
  const auto cold = cmp::run_campaign(spec, opts);
  ASSERT_TRUE(cold.all_hold);
  const std::string reference = canonical_manifest(cold);

  // Every slot the campaign wrote, torn at a handful of byte boundaries
  // (start, header, body, last byte): fsck --repair removes it, and a
  // rerun rebuilds it and converges.
  std::vector<fs::path> slots;
  for (const auto& entry : fs::recursive_directory_iterator(cache_dir)) {
    if (entry.is_regular_file()) slots.push_back(entry.path());
  }
  ASSERT_GT(slots.size(), 2u) << "expected gadget/opt/verdict slots";
  cmp::FsckOptions repair;
  repair.repair = true;
  for (const fs::path& slot : slots) {
    const std::string full = slurp(slot);
    for (const std::size_t len :
         {std::size_t{0}, std::size_t{12}, full.size() / 2,
          full.size() - 1}) {
      spew(slot, full.substr(0, std::min(len, full.size() - 1)));
      const auto fixed = cmp::fsck_campaign(cache_dir, "", repair);
      EXPECT_GE(fixed.repaired, 1u) << slot;
      EXPECT_FALSE(fs::exists(slot));

      const auto rerun = cmp::run_campaign(spec, opts);
      EXPECT_EQ(canonical_manifest(rerun), reference) << slot << " @" << len;
      ASSERT_TRUE(fs::exists(slot)) << "rerun must rewrite the slot";
      EXPECT_TRUE(cmp::fsck_campaign(cache_dir).clean());
    }
  }
}

TEST(Fsck, ManifestTornAtEveryByteRecoversToReference) {
  // The satellite acceptance pin: truncate the manifest at *every* byte
  // boundary; after fsck --repair plus a resume-style rerun, the canonical
  // manifest is byte-identical to the reference, whatever byte the crash
  // landed on.
  ScratchDir scratch("manifest_recovery");
  const std::string cache_dir = (scratch.path / "cache").string();
  const fs::path manifest = scratch.path / "campaign.json";
  const auto spec = tiny_claim_spec();

  cmp::RunOptions opts;
  opts.cache_dir = cache_dir;
  const auto cold = cmp::run_campaign(spec, opts);
  ASSERT_TRUE(cold.all_hold);
  const std::string reference = canonical_manifest(cold);
  std::ostringstream full_os;
  cmp::write_manifest(full_os, cold);  // the full form clb writes to disk
  const std::string full = full_os.str();

  cmp::FsckOptions repair;
  repair.repair = true;
  for (std::size_t len = 0; len <= full.size(); ++len) {
    spew(manifest, full.substr(0, len));
    const auto fixed =
        cmp::fsck_campaign(cache_dir, manifest.string(), repair);
    // Whatever fsck decided (torn -> deleted, parseable -> kept), what is
    // left must parse; resume from it and converge.
    std::map<std::string, cmp::JobRecord> prior;
    bool have_prior = false;
    if (fs::exists(manifest)) {
      EXPECT_EQ(count_kind(fixed, cmp::FsckIssue::Kind::kTornManifest), 0u)
          << "a kept manifest must not have been classified torn (len="
          << len << ")";
      prior = cmp::read_manifest(slurp(manifest)).records;
      have_prior = true;
    }
    const auto resumed =
        cmp::run_campaign(spec, opts, have_prior ? &prior : nullptr);
    ASSERT_EQ(canonical_manifest(resumed), reference)
        << "truncation at byte " << len << "/" << full.size()
        << " did not converge";
  }
}
