#include "support/atomic_file.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

namespace congestlb {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kIntentSuffix = ".intent";
constexpr std::string_view kTmpSuffix = ".tmp";
// Cache slots once named their temp file `<slot>.tmp.<hex16>`; a directory
// written by that layout can still hold one.
constexpr std::string_view kLegacyTmpInfix = ".tmp.";

bool write_whole(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  return !out.fail();
}

}  // namespace

std::string intent_path(const std::string& path) {
  return path + std::string(kIntentSuffix);
}

std::string tmp_path(const std::string& path) {
  return path + std::string(kTmpSuffix);
}

bool write_file_atomic(const std::string& path, std::string_view bytes) {
  const std::string intent = intent_path(path);
  const std::string tmp = tmp_path(path);
  std::error_code ec;
  // The intent is created before the mutation starts and removed only after
  // the rename lands, so whatever tmp/target state a kill leaves in between
  // sits next to a marker that says "mid-write".
  if (write_whole(intent, path + "\n") && write_whole(tmp, bytes)) {
    fs::rename(tmp, path, ec);
    if (!ec) {
      fs::remove(intent, ec);
      return true;
    }
  }
  fs::remove(tmp, ec);
  fs::remove(intent, ec);
  return false;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  if (in.bad()) return std::nullopt;
  return std::move(text).str();
}

Debris classify_debris(std::string_view file_name) {
  if (file_name.ends_with(kIntentSuffix)) return Debris::kIntent;
  if (file_name.ends_with(kTmpSuffix) ||
      file_name.find(kLegacyTmpInfix) != std::string_view::npos) {
    return Debris::kTmp;
  }
  return Debris::kNone;
}

}  // namespace congestlb
