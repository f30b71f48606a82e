#include "comm/blackboard.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/expect.hpp"

namespace congestlb::comm {

Blackboard::Blackboard(std::size_t num_players)
    : bits_by_player_(num_players, 0) {
  CLB_EXPECT(num_players >= 2, "a blackboard needs at least two players");
}

void Blackboard::charge(std::size_t player, std::size_t bits) {
  CLB_EXPECT(player < num_players(), "blackboard: player index out of range");
  CLB_EXPECT(bits > 0, "blackboard: empty writes are not charged, don't post them");
  bits_by_player_[player] += bits;
  total_bits_ += bits;
  if (tracer_) {
    tracer_->emit({bits, static_cast<std::uint32_t>(num_posts_),
                   static_cast<std::uint32_t>(player),
                   obs::TraceEvent::kNone, obs::EventKind::kBlackboardPost});
  }
  if (posts_metric_) {
    posts_metric_->add(1);
    bits_metric_->add(bits);
  }
  ++num_posts_;
}

void Blackboard::post(std::size_t player, std::vector<std::byte> data,
                      std::size_t bits, std::string tag) {
  CLB_EXPECT(bits <= 8 * data.size(), "blackboard: declared bits exceed payload");
  charge(player, bits);
  entries_.push_back(BoardEntry{player, std::move(data), bits, std::move(tag)});
}

void Blackboard::attach_observability(obs::Tracer* tracer,
                                      obs::MetricsRegistry* metrics) {
  tracer_ = (tracer != nullptr && tracer->enabled()) ? tracer : nullptr;
  if (metrics != nullptr) {
    posts_metric_ = &metrics->counter("blackboard.posts");
    bits_metric_ = &metrics->counter("blackboard.bits");
  } else {
    posts_metric_ = nullptr;
    bits_metric_ = nullptr;
  }
}

void Blackboard::post_uint(std::size_t player, std::uint64_t value,
                           std::size_t bits, std::string tag) {
  CLB_EXPECT(bits >= 1 && bits <= 64, "post_uint: bits must be in [1,64]");
  if (bits < 64) {
    CLB_EXPECT(value < (1ULL << bits), "post_uint: value does not fit in bits");
  }
  std::vector<std::byte> data((bits + 7) / 8);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>((value >> (8 * i)) & 0xff);
  }
  post(player, std::move(data), bits, std::move(tag));
}

void Blackboard::post_bits(std::size_t player,
                           const std::vector<std::uint8_t>& bits01,
                           std::string tag) {
  CLB_EXPECT(!bits01.empty(), "post_bits: empty bit vector");
  std::vector<std::byte> data((bits01.size() + 7) / 8);
  for (std::size_t i = 0; i < bits01.size(); ++i) {
    CLB_EXPECT(bits01[i] <= 1, "post_bits: entries must be 0 or 1");
    if (bits01[i]) {
      data[i / 8] |= static_cast<std::byte>(1u << (i % 8));
    }
  }
  post(player, std::move(data), bits01.size(), std::move(tag));
}

std::uint64_t Blackboard::read_uint(const BoardEntry& entry) {
  CLB_EXPECT(entry.bits <= 64, "read_uint: entry wider than 64 bits");
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < entry.data.size() && i < 8; ++i) {
    value |= static_cast<std::uint64_t>(entry.data[i]) << (8 * i);
  }
  if (entry.bits < 64) value &= (1ULL << entry.bits) - 1;
  return value;
}

std::vector<std::uint8_t> Blackboard::read_bits(const BoardEntry& entry) {
  std::vector<std::uint8_t> bits01(entry.bits);
  for (std::size_t i = 0; i < entry.bits; ++i) {
    bits01[i] = (static_cast<unsigned>(entry.data[i / 8]) >> (i % 8)) & 1u;
  }
  return bits01;
}

std::size_t Blackboard::bits_by(std::size_t player) const {
  CLB_EXPECT(player < num_players(), "blackboard: player index out of range");
  return bits_by_player_[player];
}

}  // namespace congestlb::comm
