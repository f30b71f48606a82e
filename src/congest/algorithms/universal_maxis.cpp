#include "congest/algorithms/universal_maxis.hpp"

#include <algorithm>
#include <vector>

#include "support/expect.hpp"
#include "support/flat_set.hpp"
#include "support/math.hpp"

namespace congestlb::congest {

namespace {

constexpr std::size_t kWeightBits = 32;
/// Widest id field whose token, 1 + 2 * id_bits + kWeightBits bits, still
/// fits the one 64-bit word the program encodes and decodes it as.
constexpr std::size_t kMaxIdBits = 15;

static_assert(1 + 2 * kMaxIdBits + kWeightBits <= 64);
// decode() loads 8 bytes from the start of every payload.
static_assert(PayloadBytes::kSlackBytes >= sizeof(std::uint64_t));

std::size_t id_bits_for(std::size_t n) {
  return static_cast<std::size_t>(
      std::max(1, ceil_log2(std::max<std::size_t>(2, n))));
}

/// The first 8 payload bytes as a little-endian word: bit i of the token is
/// bit i of the word, the LSB-first layout MessageWriter produces. Compilers
/// fold the loop into one 8-byte load on little-endian targets.
std::uint64_t load_word(const std::byte* p) {
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < sizeof word; ++i) {
    word |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return word;
}

class UniversalMaxIsProgram final : public NodeProgram {
 public:
  explicit UniversalMaxIsProgram(LocalMaxIsSolver solver)
      : solver_(std::move(solver)) {
    CLB_EXPECT(solver_ != nullptr, "universal-maxis: solver must be provided");
  }

  void round(const NodeInfo& info, const Inbox& inbox, Outbox& outbox,
             Rng& /*rng*/) override {
    if (!initialized_) initialize(info);

    for (const auto& msg : inbox) {
      if (msg) ingest(info, *msg);
    }
    try_finish(info);

    // Forward one not-yet-sent token per neighbor, as its stored encoding.
    for (std::size_t s = 0; s < info.neighbors.size(); ++s) {
      if (cursor_[s] < num_tokens()) outbox.send(s, wire(cursor_[s]++));
    }
  }

  bool finished() const override {
    if (!have_solution_) return false;
    for (std::size_t c : cursor_) {
      if (c < num_tokens()) return false;
    }
    return true;
  }

  std::int64_t output() const override { return in_set_ ? 1 : 0; }

 private:
  void initialize(const NodeInfo& info) {
    initialized_ = true;
    id_bits_ = id_bits_for(info.n);
    CLB_EXPECT(id_bits_ <= kMaxIdBits,
               "universal-maxis: n too large for 64-bit tokens");
    CLB_EXPECT(info.bits_per_edge >= 1 + 2 * id_bits_ + kWeightBits,
               "universal-maxis: per-edge bandwidth too small for tokens; "
               "use universal_required_bits()");
    CLB_EXPECT(info.weight >= 0 &&
                   static_cast<std::uint64_t>(info.weight) < (1ULL << kWeightBits),
               "universal-maxis: weight does not fit token field");
    stride_ = (1 + 2 * id_bits_ + kWeightBits + 7) / 8;
    cursor_.assign(info.neighbors.size(), 0);
    node_known_.assign(info.n, false);
    weight_.assign(info.n, 0);
    edge_known_ = FlatU64Set(std::uint64_t{info.n} * info.n);
    // Seed with own node token and incident edge tokens.
    add_node_token(info.id, info.neighbors.size(),
                   static_cast<std::uint64_t>(info.weight));
    for (NodeId nb : info.neighbors) {
      add_edge_token(info, std::min<std::uint64_t>(info.id, nb),
                     std::max<std::uint64_t>(info.id, nb));
    }
  }

  std::size_t num_tokens() const { return arena_.size() / stride_; }

  /// Token i as a message: its stored bytes, copied into a reused buffer.
  /// Bit 0 is the edge flag, which fixes the token's length.
  const Message& wire(std::size_t i) {
    const std::byte* p = arena_.data() + i * stride_;
    const bool is_edge = (static_cast<unsigned>(p[0]) & 1u) != 0;
    scratch_.bits = 1 + 2 * id_bits_ + (is_edge ? 0 : kWeightBits);
    scratch_.data.assign(p, (scratch_.bits + 7) / 8);
    return scratch_;
  }

  /// Encode a newly learned token once and append it to the arena: the
  /// fields packed LSB-first into one word (edge flag, a, b, then the
  /// weight of a node token; w is 0 for an edge), stored little-endian.
  /// Callers pass a, b < 2^id_bits_ and w < 2^kWeightBits.
  void learn(bool is_edge, std::uint64_t a, std::uint64_t b, std::uint64_t w) {
    const std::uint64_t word = (is_edge ? 1u : 0u) | a << 1 |
                               b << (1 + id_bits_) | w << (1 + 2 * id_bits_);
    const std::size_t at = arena_.size();
    arena_.resize(at + stride_);
    for (std::size_t i = 0; i < stride_; ++i) {
      arena_[at + i] = static_cast<std::byte>(word >> (8 * i));
    }
  }

  struct Token {
    bool is_edge;
    std::uint64_t a, b;  ///< node token: id, degree; edge token: u, v
    std::uint64_t w;     ///< node token's weight
  };

  /// Decode a token from one word load. A message shorter than its token
  /// is rejected; bits past the token are ignored.
  Token decode(const NodeInfo& info, const Message& msg) const {
    const std::uint64_t word = load_word(msg.data.data());
    const std::uint64_t id_mask = (std::uint64_t{1} << id_bits_) - 1;
    Token t;
    t.is_edge = (word & 1) != 0;
    CLB_EXPECT(msg.bits >= 1 + 2 * id_bits_ + (t.is_edge ? 0 : kWeightBits),
               "universal-maxis: truncated token");
    t.a = (word >> 1) & id_mask;
    t.b = (word >> (1 + id_bits_)) & id_mask;
    t.w = (word >> (1 + 2 * id_bits_)) &
          ((std::uint64_t{1} << kWeightBits) - 1);
    CLB_EXPECT(t.a < info.n && t.b < info.n, "universal-maxis: bad token ids");
    return t;
  }

  void add_node_token(std::uint64_t id, std::uint64_t deg, std::uint64_t w) {
    if (node_known_[id]) return;
    node_known_[id] = true;
    degree_sum_ += deg;
    weight_[id] = w;
    ++num_nodes_known_;
    learn(false, id, deg, w);
  }

  void add_edge_token(const NodeInfo& info, std::uint64_t u, std::uint64_t v) {
    if (edge_known_.insert(u * info.n + v)) learn(true, u, v, 0);
  }

  void ingest(const NodeInfo& info, const Message& msg) {
    const Token t = decode(info, msg);
    if (t.is_edge) {
      add_edge_token(info, t.a, t.b);
    } else {
      add_node_token(t.a, t.b, t.w);
    }
  }

  void try_finish(const NodeInfo& info) {
    if (have_solution_ || num_nodes_known_ < info.n ||
        edge_known_.size() * 2 != degree_sum_) {
      return;
    }
    // Reconstruct (decoding the edge tokens once) and solve.
    graph::Graph g(info.n);
    for (NodeId v = 0; v < info.n; ++v) {
      g.set_weight(v, static_cast<graph::Weight>(weight_[v]));
    }
    std::vector<std::pair<NodeId, NodeId>> edges;
    edges.reserve(edge_known_.size());
    for (std::size_t i = 0; i < num_tokens(); ++i) {
      const Token t = decode(info, wire(i));
      if (t.is_edge) {
        edges.emplace_back(static_cast<NodeId>(t.a), static_cast<NodeId>(t.b));
      }
    }
    g.add_edges(edges);
    const auto solution = solver_(g);
    CLB_EXPECT(g.is_independent_set(solution),
               "universal-maxis: solver returned a non-independent set");
    in_set_ = std::find(solution.begin(), solution.end(), info.id) !=
              solution.end();
    have_solution_ = true;
  }

  LocalMaxIsSolver solver_;
  bool initialized_ = false;
  std::size_t id_bits_ = 0;
  std::size_t stride_ = 1;         ///< arena bytes per token (node-token size)
  std::vector<std::byte> arena_;   ///< encoded tokens, stride_ bytes each
  Message scratch_;                ///< wire() output buffer
  std::vector<std::size_t> cursor_;
  std::vector<bool> node_known_;
  std::vector<std::uint64_t> weight_;
  std::uint64_t degree_sum_ = 0;   ///< over the learned node tokens
  FlatU64Set edge_known_;          ///< u*n+v keys of learned edge tokens
  std::size_t num_nodes_known_ = 0;
  bool have_solution_ = false;
  bool in_set_ = false;
};

}  // namespace

std::size_t universal_required_bits(std::size_t n, graph::Weight max_weight) {
  CLB_EXPECT(max_weight >= 0 &&
                 static_cast<std::uint64_t>(max_weight) < (1ULL << kWeightBits),
             "universal-maxis: max weight exceeds token field");
  const std::size_t id_bits = id_bits_for(n);
  CLB_EXPECT(id_bits <= kMaxIdBits,
             "universal-maxis: n too large for 64-bit tokens");
  return 1 + 2 * id_bits + kWeightBits;
}

ProgramFactory universal_maxis_factory(LocalMaxIsSolver solver) {
  return [solver = std::move(solver)](NodeId, const NodeInfo&) {
    return std::make_unique<UniversalMaxIsProgram>(solver);
  };
}

}  // namespace congestlb::congest
