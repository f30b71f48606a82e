#include "campaign/cache.hpp"

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "support/atomic_file.hpp"
#include "support/expect.hpp"
#include "support/hash.hpp"

namespace congestlb::campaign {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kHeaderMagic = "clb-cache v2";

std::string mem_key(std::string_view kind, std::uint64_t key) {
  return std::string(kind) + "/" + ContentCache::hex_key(key);
}

bool kind_is_path_safe(std::string_view kind) {
  if (kind.empty()) return false;
  for (const char c : kind) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::string header_line(std::string_view kind, std::string_view hex16,
                        std::string_view payload) {
  std::ostringstream h;
  h << kHeaderMagic << " " << kind << " " << hex16 << " " << payload.size()
    << " " << ContentCache::hex_key(fnv1a64(payload));
  return h.str();
}

// Reads `path` and verifies the full v2 contract against (kind, hex16).
// Returns the payload on success. Any mismatch — wrong magic (including v1
// slots), wrong kind/key, truncated or padded payload, digest mismatch,
// unreadable file — returns nullopt.
std::optional<std::string> read_slot(const std::string& path,
                                     std::string_view kind,
                                     std::string_view hex16) {
  auto text = read_file(path);
  if (!text) return std::nullopt;
  const std::size_t eol = std::min(text->find('\n'), text->size());
  std::string payload = text->substr(std::min(eol + 1, text->size()));
  text->resize(eol);
  if (*text != header_line(kind, hex16, payload)) return std::nullopt;
  return payload;
}

}  // namespace

ContentCache::ContentCache(std::string dir) : dir_(std::move(dir)) {}

std::string ContentCache::hex_key(std::uint64_t key) {
  static const char* hex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = hex[key & 0xF];
    key >>= 4;
  }
  return out;
}

std::string ContentCache::slot_path(std::string_view kind,
                                    std::uint64_t key) const {
  return dir_ + "/" + std::string(kind) + "/" + hex_key(key) +
         std::string(kSlotSuffix);
}

bool ContentCache::valid_slot_file(const std::string& path,
                                   std::string_view kind,
                                   std::string_view hex16) {
  return read_slot(path, kind, hex16).has_value();
}

std::optional<std::string> ContentCache::load(std::string_view kind,
                                              std::uint64_t key) {
  CLB_EXPECT(kind_is_path_safe(kind), "cache kind must be [a-z0-9_-]+");
  std::lock_guard<std::mutex> lock(mu_);
  const std::string mk = mem_key(kind, key);
  if (const auto it = mem_.find(mk); it != mem_.end()) {
    ++stats_.mem_hits;
    return it->second;
  }
  if (dir_.empty()) {
    ++stats_.misses;
    return std::nullopt;
  }
  const std::string path = slot_path(kind, key);
  std::error_code ec;
  const bool present = fs::exists(path, ec) && !ec;
  auto payload = read_slot(path, kind, hex_key(key));
  if (!payload) {
    if (present) ++stats_.invalid;  // torn/foreign slot demotes to a miss
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.disk_hits;
  mem_[mk] = *payload;  // promote so repeat lookups skip the filesystem
  return payload;
}

void ContentCache::store(std::string_view kind, std::uint64_t key,
                         std::string_view payload) {
  CLB_EXPECT(kind_is_path_safe(kind), "cache kind must be [a-z0-9_-]+");
  std::lock_guard<std::mutex> lock(mu_);
  mem_[mem_key(kind, key)] = std::string(payload);
  ++stats_.writes;
  if (dir_.empty()) return;

  std::error_code ec;
  fs::create_directories(dir_ + "/" + std::string(kind), ec);
  if (ec) return;  // disk tier is best-effort; the memory tier still holds it
  std::string bytes = header_line(kind, hex_key(key), payload);
  bytes += '\n';
  bytes += payload;
  write_file_atomic(slot_path(kind, key), bytes);
}

CacheStats ContentCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace congestlb::campaign
