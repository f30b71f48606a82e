// The shared-blackboard number-in-hand communication model (Definition 1).
//
// t players exchange information by appending bit strings to a blackboard
// visible to everyone. The cost of a protocol is the total number of bits
// written. Blackboard is the single accounting point for both the reference
// disjointness protocols (comm/protocols.hpp) and the CONGEST simulation
// argument of Theorem 5 (sim/reduction.hpp).
//
// Two ways to write: post() charges the bits and keeps the content in the
// transcript, which the reference protocols read back; charge() only counts
// (bits, per-player bits, posts), which is all the proof of Theorem 5 uses.
// The reduction charges every cut-crossing message, so its runs leave the
// transcript empty; per-post detail is what the opt-in tracer is for.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace congestlb::obs {
class Counter;
class MetricsRegistry;
class Tracer;
}

namespace congestlb::comm {

/// One blackboard write. `bits` is the charged cost; `data` holds the
/// payload rounded up to whole bytes (readable by every player).
struct BoardEntry {
  std::size_t player = 0;
  std::vector<std::byte> data;
  std::size_t bits = 0;
  std::string tag;  ///< free-form annotation for transcript inspection
};

class Blackboard {
 public:
  explicit Blackboard(std::size_t num_players);

  std::size_t num_players() const { return bits_by_player_.size(); }

  /// Charge `bits` (> 0) to `player` without storing any content: totals,
  /// num_posts() and the attached tracer/metrics move exactly as for a
  /// post(); transcript() does not.
  void charge(std::size_t player, std::size_t bits);

  /// Charge, then append raw bytes to the transcript (bits <= 8 *
  /// data.size()).
  void post(std::size_t player, std::vector<std::byte> data, std::size_t bits,
            std::string tag = {});

  /// Append the low `bits` bits of `value` (bits in [1, 64]).
  void post_uint(std::size_t player, std::uint64_t value, std::size_t bits,
                 std::string tag = {});

  /// Append a 0/1 bit vector, one payload bit per element.
  void post_bits(std::size_t player, const std::vector<std::uint8_t>& bits01,
                 std::string tag = {});

  /// Decode an entry previously written by post_uint.
  static std::uint64_t read_uint(const BoardEntry& entry);

  /// Decode an entry previously written by post_bits.
  static std::vector<std::uint8_t> read_bits(const BoardEntry& entry);

  /// The post()ed entries only; charge()d bits leave no entry.
  const std::vector<BoardEntry>& transcript() const { return entries_; }
  std::size_t total_bits() const { return total_bits_; }
  std::size_t bits_by(std::size_t player) const;
  /// Writes so far, post() and charge() alike.
  std::size_t num_posts() const { return num_posts_; }

  /// Mirror every write into a trace (kBlackboardPost, a = player, round =
  /// post index, value = charged bits) and/or a metrics registry
  /// ("blackboard.posts" / "blackboard.bits" counters). Either pointer may
  /// be null; both are non-owning and must outlive the board.
  void attach_observability(obs::Tracer* tracer, obs::MetricsRegistry* metrics);

 private:
  std::vector<BoardEntry> entries_;
  std::vector<std::size_t> bits_by_player_;
  std::size_t total_bits_ = 0;
  std::size_t num_posts_ = 0;
  obs::Tracer* tracer_ = nullptr;
  obs::Counter* posts_metric_ = nullptr;
  obs::Counter* bits_metric_ = nullptr;
};

}  // namespace congestlb::comm
