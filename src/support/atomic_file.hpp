// Whole-file reads and atomic whole-file writes: the one on-disk protocol
// of every persisted artifact — cache slots, manifests, the service ledger
// and sweep specs, the daemon's port file (docs/ROBUSTNESS.md).
//
// write_file_atomic() creates the intent marker `<path>.intent`, writes the
// bytes to `<path>.tmp`, renames that over `<path>`, and removes the intent.
// A process killed at any step leaves `<path>` absent, old or new — never
// torn — plus at most the two debris files, which classify_debris()
// recognises so `clb campaign fsck` can delete them. Nothing is fsynced:
// a rename survives a process kill, not a power loss.

#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace congestlb {

/// Write `bytes` to `path` by the intent -> tmp -> rename protocol. On any
/// failure the tmp and intent files are removed and false is returned; the
/// previous contents of `path`, if any, are untouched.
bool write_file_atomic(const std::string& path, std::string_view bytes);

/// The whole contents of `path`, or nullopt if it cannot be opened or read.
std::optional<std::string> read_file(const std::string& path);

/// The two debris names write_file_atomic() can leave next to `path`.
std::string intent_path(const std::string& path);
std::string tmp_path(const std::string& path);

enum class Debris {
  kNone,    ///< not protocol debris
  kIntent,  ///< write-ahead marker whose write never finished
  kTmp,     ///< temp file never renamed into place
};

/// Classify a bare file name. Matches both layouts the protocol has used:
/// `<name>.intent`, `<name>.tmp`, and the older cache-slot form
/// `<name>.tmp.<hex16>`.
Debris classify_debris(std::string_view file_name);

}  // namespace congestlb
