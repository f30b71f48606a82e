// Content-addressed artifact cache for campaign runs (docs/CAMPAIGN.md).
//
// Every expensive campaign artifact — a built gadget graph, an exact-solver
// OPT value, a claim verdict — is stored under the FNV-1a digest of a
// canonical textual description of its inputs (support/hash.hpp). Equal
// inputs therefore address equal payloads across runs, processes, and
// worker counts; a key collision with different inputs is treated as
// impossible at campaign scale (2^-64 per pair) and the payload is trusted
// on a key match.
//
// Two tiers: an in-process map (hits are free) backed by an optional
// on-disk store under a cache directory (default `.clb-cache/`). Disk slots
// are one file per artifact, `<dir>/<kind>/<hex16>.clbc`, written by the
// repo's one atomic-file protocol (support/atomic_file.hpp: intent marker,
// temp file, rename) so a killed campaign never leaves a torn slot, and
// prefixed with a header line that is verified on load — a corrupt or
// foreign file demotes to a miss instead of poisoning the run. The header
// carries the payload's byte count and FNV-1a digest, so *any* torn slot
// (truncated payload, bit rot, a stray kill between write and rename that
// something later moved into place) is detected — without the digest, a
// truncated integer payload like "123" -> "12" would round-trip as a valid
// but wrong artifact.
//
// Crash-recovery audit (docs/ROBUSTNESS.md): a crash can leave only states
// `clb campaign fsck` can classify: a dangling intent (crash mid-write; the
// tmp and intent are garbage), an orphaned tmp (interrupted cleanup), or a
// torn slot (fails header/digest verification). All three demote to a miss
// at load time; fsck --repair deletes them so the directory returns to
// exactly the valid-slots state.
//
// The cache is shared by concurrent scheduler workers; all operations take
// one internal mutex. That is deliberate cheapness: campaign jobs are
// milliseconds-to-seconds of solver work, so the cache is nowhere near the
// hot path.

#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace congestlb::campaign {

struct CacheStats {
  std::uint64_t mem_hits = 0;
  std::uint64_t disk_hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t writes = 0;
  std::uint64_t invalid = 0;  ///< disk slots rejected (bad header/torn file)

  std::uint64_t hits() const { return mem_hits + disk_hits; }
};

class ContentCache {
 public:
  /// `dir` empty = in-memory only. Otherwise the directory (plus per-kind
  /// subdirectories) is created lazily on first store.
  explicit ContentCache(std::string dir = {});

  ContentCache(const ContentCache&) = delete;
  ContentCache& operator=(const ContentCache&) = delete;

  /// Look up the payload stored for (kind, key). `kind` must be a short
  /// path-safe slug ([a-z0-9_-]); keys are canonical-input digests.
  /// Memory tier first, then disk; a disk hit is promoted to memory.
  std::optional<std::string> load(std::string_view kind, std::uint64_t key);

  /// Store a payload under (kind, key) in both tiers. Overwrites silently
  /// (content addressing makes overwrites idempotent).
  void store(std::string_view kind, std::uint64_t key,
             std::string_view payload);

  CacheStats stats() const;
  const std::string& dir() const { return dir_; }
  bool disk_backed() const { return !dir_.empty(); }

  /// "<hex16>" — the slot name for a key, also used in manifests.
  static std::string hex_key(std::uint64_t key);

  /// Full verification of a disk slot file at `path` claiming to hold
  /// (kind, hex16): header magic, kind, key, payload size, and payload
  /// digest must all match. This is exactly the rule load() applies;
  /// exposed so `clb campaign fsck` classifies slots the same way the
  /// runtime does. Returns false for unreadable files.
  static bool valid_slot_file(const std::string& path, std::string_view kind,
                              std::string_view hex16);

  /// Filename suffix of a slot, shared with fsck.
  static constexpr std::string_view kSlotSuffix = ".clbc";

 private:
  std::string slot_path(std::string_view kind, std::uint64_t key) const;

  mutable std::mutex mu_;
  std::string dir_;
  std::unordered_map<std::string, std::string> mem_;
  CacheStats stats_;
};

}  // namespace congestlb::campaign
