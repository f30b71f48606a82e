// Distributed algorithms on the CONGEST simulator: greedy MIS, Luby MIS,
// weighted greedy, and the universal gather-and-solve program.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <utility>

#include "congest/algorithms/greedy_mis.hpp"
#include "congest/algorithms/luby_mis.hpp"
#include "congest/algorithms/universal_maxis.hpp"
#include "congest/algorithms/weighted_greedy.hpp"
#include "congest/network.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "maxis/branch_and_bound.hpp"
#include "maxis/greedy.hpp"
#include "support/expect.hpp"
#include "support/rng.hpp"

namespace congestlb::congest {
namespace {

graph::Graph random_graph(Rng& rng, std::size_t n, double p,
                          graph::Weight max_w = 1) {
  graph::Graph g(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    g.set_weight(v, max_w == 1 ? 1 : static_cast<graph::Weight>(1 + rng.below(max_w)));
  }
  for (graph::NodeId u = 0; u < n; ++u) {
    for (graph::NodeId v = u + 1; v < n; ++v) {
      if (rng.chance(p)) g.add_edge(u, v);
    }
  }
  return g;
}

/// An IS is maximal iff every non-member has a member neighbor.
void expect_maximal_is(const graph::Graph& g,
                       const std::vector<graph::NodeId>& is) {
  ASSERT_TRUE(g.is_independent_set(is));
  std::vector<bool> in(g.num_nodes(), false);
  for (auto v : is) in[v] = true;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (in[v]) continue;
    bool dominated = false;
    for (auto nb : g.neighbors(v)) {
      if (in[nb]) {
        dominated = true;
        break;
      }
    }
    EXPECT_TRUE(dominated) << "node " << v << " neither in the MIS nor "
                           << "adjacent to it";
  }
}

class MisAlgorithmSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MisAlgorithmSweep, GreedyProducesMaximalIs) {
  Rng rng(GetParam());
  auto g = random_graph(rng, 3 + rng.below(40), 0.25);
  Network net(g, greedy_mis_factory());
  const auto stats = net.run();
  EXPECT_TRUE(stats.all_finished);
  expect_maximal_is(g, net.selected_nodes());
}

TEST_P(MisAlgorithmSweep, LubyProducesMaximalIs) {
  Rng rng(GetParam() + 1000);
  auto g = random_graph(rng, 3 + rng.below(40), 0.25);
  NetworkConfig cfg;
  cfg.seed = GetParam();
  Network net(g, luby_mis_factory(), cfg);
  const auto stats = net.run();
  EXPECT_TRUE(stats.all_finished);
  expect_maximal_is(g, net.selected_nodes());
}

TEST_P(MisAlgorithmSweep, WeightedGreedyProducesMaximalIs) {
  Rng rng(GetParam() + 2000);
  auto g = random_graph(rng, 3 + rng.below(40), 0.25, /*max_w=*/10);
  Network net(g, weighted_greedy_factory());
  const auto stats = net.run();
  EXPECT_TRUE(stats.all_finished);
  expect_maximal_is(g, net.selected_nodes());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MisAlgorithmSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(GreedyMis, PathPicksAlternatingByIds) {
  // On a path 0-1-2-3-4, greedy-by-id gives {4, 2, 0}: 4 joins (max id),
  // then 2, then 0.
  graph::Graph g(5);
  for (graph::NodeId v = 0; v + 1 < 5; ++v) g.add_edge(v, v + 1);
  Network net(g, greedy_mis_factory());
  net.run();
  EXPECT_EQ(net.selected_nodes(), (std::vector<graph::NodeId>{0, 2, 4}));
}

TEST(GreedyMis, CliqueSelectsExactlyOne) {
  graph::Graph g(8);
  std::vector<graph::NodeId> all;
  for (graph::NodeId v = 0; v < 8; ++v) all.push_back(v);
  g.add_clique(all);
  Network net(g, greedy_mis_factory());
  net.run();
  EXPECT_EQ(net.selected_nodes().size(), 1u);
  EXPECT_EQ(net.selected_nodes()[0], 7u);  // max id wins
}

TEST(GreedyMis, IsolatedNodesAllJoin) {
  graph::Graph g(5);
  Network net(g, greedy_mis_factory());
  net.run();
  EXPECT_EQ(net.selected_nodes().size(), 5u);
}

TEST(LubyMis, TerminatesQuicklyOnLargeSparseGraph) {
  Rng rng(99);
  auto g = random_graph(rng, 300, 0.02);
  Network net(g, luby_mis_factory());
  const auto stats = net.run();
  EXPECT_TRUE(stats.all_finished);
  // O(log n) phases w.h.p.; allow a wide constant.
  EXPECT_LT(stats.rounds, 120u);
  expect_maximal_is(g, net.selected_nodes());
}

TEST(LubyMis, DeterministicGivenSeed) {
  Rng rng(5);
  auto g = random_graph(rng, 60, 0.15);
  NetworkConfig cfg;
  cfg.seed = 12345;
  Network a(g, luby_mis_factory(), cfg);
  Network b(g, luby_mis_factory(), cfg);
  a.run();
  b.run();
  EXPECT_EQ(a.selected_nodes(), b.selected_nodes());
}

TEST(WeightedGreedy, PrefersHeavyNodes) {
  // Star: center weight 100, leaves weight 1 -> center alone wins.
  graph::Graph g(6);
  g.set_weight(0, 100);
  for (graph::NodeId v = 1; v < 6; ++v) g.add_edge(0, v);
  Network net(g, weighted_greedy_factory());
  net.run();
  EXPECT_EQ(net.selected_nodes(), (std::vector<graph::NodeId>{0}));
}

TEST(WeightedGreedy, CanBeDeltaFactorFromOptimal) {
  // The anti-greedy trap: center weight 10, five leaves weight 9 each.
  // Weighted-greedy takes the center (weight 10); OPT takes the leaves
  // (weight 45) — a Delta-ish gap, the upper-bound side of the paper's
  // story that local algorithms only guarantee ~Delta approximations.
  graph::Graph g(6);
  g.set_weight(0, 10);
  for (graph::NodeId v = 1; v < 6; ++v) {
    g.set_weight(v, 9);
    g.add_edge(0, v);
  }
  Network net(g, weighted_greedy_factory());
  net.run();
  const auto sel = net.selected_nodes();
  EXPECT_EQ(g.weight_of(sel), 10);
  EXPECT_EQ(maxis::solve_exact(g).weight, 45);
}

TEST(WeightedGreedy, DeltaPlusOneGuarantee) {
  // The classical bound the paper's upper-bound discussion leans on: the
  // local-max-by-weight IS has weight >= OPT/(Delta+1) — every join
  // excludes at most Delta neighbors, none heavier than the joiner.
  Rng rng(60);
  for (int trial = 0; trial < 12; ++trial) {
    auto g = random_graph(rng, 6 + rng.below(18), 0.35, 9);
    Network net(g, weighted_greedy_factory());
    net.run();
    const auto got = g.weight_of(net.selected_nodes());
    const auto opt = maxis::solve_exact(g).weight;
    EXPECT_GE(got * static_cast<graph::Weight>(g.max_degree() + 1), opt)
        << "trial " << trial;
  }
}

// ------------------------------------------------------------- universal --

congest::LocalMaxIsSolver exact_solver() {
  return [](const graph::Graph& g) { return maxis::solve_exact(g).nodes; };
}

class UniversalSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UniversalSweep, MatchesCentralizedExact) {
  Rng rng(GetParam());
  auto g = random_graph(rng, 4 + rng.below(16), 0.3, /*max_w=*/8);
  // Ensure connectivity (gossip needs it): chain the components.
  for (graph::NodeId v = 0; v + 1 < g.num_nodes(); ++v) {
    if (!g.has_edge(v, v + 1)) g.add_edge(v, v + 1);
  }
  NetworkConfig cfg;
  cfg.bits_per_edge = universal_required_bits(g.num_nodes(), 8);
  Network net(g, universal_maxis_factory(exact_solver()), cfg);
  const auto stats = net.run();
  ASSERT_TRUE(stats.all_finished);
  const auto sel = net.selected_nodes();
  EXPECT_TRUE(g.is_independent_set(sel));
  EXPECT_EQ(g.weight_of(sel), maxis::solve_exact(g).weight);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UniversalSweep,
                         ::testing::Values(21, 22, 23, 24, 25, 26));

TEST(Universal, RoundsScaleWithGraphSize) {
  // The universal algorithm needs Theta(m + D) rounds (token pipeline) —
  // the O(n^2)-ish generic upper bound the paper contrasts Theorem 2 with.
  Rng rng(7);
  auto g = random_graph(rng, 40, 0.3);
  for (graph::NodeId v = 0; v + 1 < g.num_nodes(); ++v) {
    if (!g.has_edge(v, v + 1)) g.add_edge(v, v + 1);
  }
  NetworkConfig cfg;
  cfg.bits_per_edge = universal_required_bits(g.num_nodes(), 1);
  Network net(g, universal_maxis_factory(exact_solver()), cfg);
  const auto stats = net.run();
  ASSERT_TRUE(stats.all_finished);
  EXPECT_GE(stats.rounds, g.num_nodes() / 4);  // genuinely global work
  EXPECT_LE(stats.rounds, 4 * (g.num_edges() + g.num_nodes()));
}

TEST(Universal, SparseAndDenseGraphsAgreeAcrossThreadCounts) {
  // Beyond the gadgets: a 200-node cycle (m = n) and a dense gnp graph.
  // Every node reconstructs the graph from gossiped tokens and runs the
  // same deterministic solver, so the network's answer is the solver's
  // answer on the original graph iff the reconstruction was exact; and
  // outputs and RunStats must not depend on the thread count.
  Rng rng(31);
  graph::Graph sparse = graph::cycle_graph(200);
  for (graph::NodeId v = 0; v < sparse.num_nodes(); ++v) {
    sparse.set_weight(v, static_cast<graph::Weight>(1 + rng.below(8)));
  }
  const graph::Graph dense = graph::gnp_random_connected(rng, 48, 0.5, 8);
  for (const graph::Graph* g : {&std::as_const(sparse), &dense}) {
    const auto greedy = [](const graph::Graph& h) {
      return maxis::solve_greedy_max_weight(h).nodes;
    };
    auto expected = greedy(*g);
    std::sort(expected.begin(), expected.end());
    std::vector<std::int64_t> outputs1;
    RunStats stats1;
    for (std::size_t threads : {1, 2, 8}) {
      NetworkConfig cfg;
      cfg.bits_per_edge = universal_required_bits(g->num_nodes(), 8);
      cfg.num_threads = threads;
      Network net(*g, universal_maxis_factory(greedy), cfg);
      const RunStats stats = net.run();
      ASSERT_TRUE(stats.all_finished) << "threads " << threads;
      EXPECT_EQ(net.selected_nodes(), expected) << "threads " << threads;
      if (threads == 1) {
        outputs1 = net.outputs();
        stats1 = stats;
        // Every node learns every node and edge token: n + m per node,
        // sent once over each of the 2m directed edges.
        EXPECT_EQ(stats.messages_sent,
                  2 * g->num_edges() * (g->num_nodes() + g->num_edges()));
      } else {
        EXPECT_EQ(net.outputs(), outputs1) << "threads " << threads;
        EXPECT_EQ(stats, stats1) << "threads " << threads;
      }
    }
  }
}

TEST(Universal, RejectsTooSmallBandwidth) {
  graph::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  NetworkConfig cfg;
  cfg.bits_per_edge = 8;  // token needs 1 + 2*2 + 32 bits
  Network net(g, universal_maxis_factory(exact_solver()), cfg);
  EXPECT_THROW(net.run(), InvariantError);
}

TEST(Universal, RejectsNullSolver) {
  EXPECT_THROW(universal_maxis_factory(nullptr)(0, NodeInfo{}),
               InvariantError);
}

TEST(Universal, RequiredBitsFormula) {
  EXPECT_EQ(universal_required_bits(4, 1), 1u + 2 * 2 + 32);
  EXPECT_EQ(universal_required_bits(1024, 1), 1u + 2 * 10 + 32);
}

TEST(Universal, RequiredBitsRejectsTokensWiderThanOneWord) {
  // A token is coded as one 64-bit word: 15-bit ids (63-bit tokens) are
  // the widest that fit.
  EXPECT_EQ(universal_required_bits(std::size_t{1} << 15, 1), 1u + 2 * 15 + 32);
  EXPECT_THROW(universal_required_bits((std::size_t{1} << 15) + 1, 1),
               InvariantError);
  EXPECT_THROW(universal_required_bits(std::size_t{1} << 20, 1),
               InvariantError);
}

// ------------------------------------------------ universal token codec --

/// One token as the reference MessageReader decodes it.
struct ReadToken {
  bool is_edge = false;
  std::uint64_t a = 0, b = 0, w = 0;  ///< node: id, degree, weight; edge: u, v
  bool well_formed = false;  ///< bits == the token length of its kind
  bool reencodes = false;    ///< MessageWriter of the fields gives its bytes
};

/// Sits among universal-program nodes: decodes every received token with
/// MessageReader, and sends its own node and edge tokens built with
/// MessageWriter (one per round to every neighbor), so the universal nodes
/// around it can learn the whole graph and finish.
class TokenRecorder final : public NodeProgram {
 public:
  explicit TokenRecorder(std::vector<ReadToken>* log) : log_(log) {}

  void round(const NodeInfo& info, const Inbox& inbox, Outbox& outbox,
             Rng& /*rng*/) override {
    const auto id_bits = static_cast<std::size_t>(
        std::max(1, ceil_log2(std::max<std::size_t>(2, info.n))));
    for (const auto& slot : inbox) {
      if (slot) log_->push_back(read(*slot, id_bits));
    }
    const std::size_t deg = info.neighbors.size();
    tokens_ = 1 + deg;
    if (sent_ < tokens_) {
      MessageWriter wr;
      if (sent_ == 0) {
        wr.put(0, 1).put(info.id, id_bits).put(deg, id_bits);
        wr.put(static_cast<std::uint64_t>(info.weight), 32);
      } else {
        const NodeId nb = info.neighbors[sent_ - 1];
        wr.put(1, 1).put(std::min(info.id, nb), id_bits);
        wr.put(std::max(info.id, nb), id_bits);
      }
      outbox.send_all(std::move(wr).finish());
      ++sent_;
    }
  }

  bool finished() const override { return tokens_ != 0 && sent_ == tokens_; }

 private:
  static ReadToken read(const Message& msg, std::size_t id_bits) {
    ReadToken t;
    MessageReader r(msg);
    if (r.remaining() < 1 + 2 * id_bits) return t;
    t.is_edge = r.get(1) != 0;
    t.a = r.get(id_bits);
    t.b = r.get(id_bits);
    if (!t.is_edge) {
      if (r.remaining() < 32) return t;
      t.w = r.get(32);
    }
    t.well_formed = r.remaining() == 0;
    MessageWriter wr;
    wr.put(t.is_edge ? 1 : 0, 1).put(t.a, id_bits).put(t.b, id_bits);
    if (!t.is_edge) wr.put(t.w, 32);
    const Message ref = std::move(wr).finish();
    t.reencodes = ref.bits == msg.bits && ref.data == msg.data;
    return t;
  }

  std::vector<ReadToken>* log_;
  std::size_t tokens_ = 0;  ///< own node token + one per incident edge
  std::size_t sent_ = 0;
};

constexpr graph::Weight kMaxWeight = (graph::Weight{1} << 32) - 1;

/// A connected graph whose last node is a leaf — the recorder's seat, so
/// its one neighbor forwards it each token exactly once — with weights
/// spread over the whole 32-bit token field.
graph::Graph codec_graph(Rng& rng, std::size_t n, double p = 0.3) {
  graph::Graph g = graph::gnp_random_connected(rng, n - 1, p);
  const NodeId leaf = g.add_node();
  g.add_edge(leaf, static_cast<NodeId>(rng.below(n - 1)));
  for (NodeId v = 0; v < n; ++v) {
    g.set_weight(v, static_cast<graph::Weight>(1 + rng.below(kMaxWeight)));
  }
  return g;
}

/// Runs the universal program at every node but the last, which records.
struct CodecRun {
  CodecRun(const graph::Graph& g, NetworkConfig cfg)
      : net(g, factory(&log, g.num_nodes() - 1), cfg) {}

  static std::vector<graph::NodeId> solver(const graph::Graph& h) {
    return maxis::solve_greedy_max_weight(h).nodes;
  }

  static ProgramFactory factory(std::vector<ReadToken>* log, NodeId rec) {
    return [log, rec, universal = universal_maxis_factory(solver)](
               NodeId v, const NodeInfo& info) -> std::unique_ptr<NodeProgram> {
      if (v == rec) return std::make_unique<TokenRecorder>(log);
      return universal(v, info);
    };
  }

  static bool genuine(const graph::Graph& g, const ReadToken& t) {
    if (!t.well_formed || t.a >= g.num_nodes() || t.b >= g.num_nodes()) {
      return false;
    }
    if (t.is_edge) return t.a < t.b && g.has_edge(t.a, t.b);
    return t.b == g.degree(t.a) &&
           t.w == static_cast<std::uint64_t>(g.weight(t.a));
  }

  std::vector<ReadToken> log;
  Network net;
};

TEST(UniversalCodec, TokensReadBackWithMessageReaderMatchTheGraph) {
  // The one-word encoder must emit exactly MessageWriter's bytes, and the
  // one-word decoder must read MessageWriter's tokens (the recorder's own):
  // every universal node then rebuilds the graph exactly.
  for (std::size_t n : {5, 13, 40}) {
    Rng rng(50 + n);
    const graph::Graph g = codec_graph(rng, n);
    NetworkConfig cfg;
    cfg.bits_per_edge = universal_required_bits(n, kMaxWeight);
    CodecRun run(g, cfg);
    ASSERT_TRUE(run.net.run().all_finished) << "n " << n;
    ASSERT_EQ(run.log.size(), n + g.num_edges()) << "n " << n;
    std::set<NodeId> nodes;
    std::set<std::pair<NodeId, NodeId>> edges;
    for (const ReadToken& t : run.log) {
      EXPECT_TRUE(t.well_formed && t.reencodes) << "n " << n;
      EXPECT_TRUE(run.genuine(g, t))
          << "n " << n << (t.is_edge ? " edge " : " node ") << t.a << " "
          << t.b << " " << t.w;
      if (t.is_edge) {
        edges.emplace(static_cast<NodeId>(t.a), static_cast<NodeId>(t.b));
      } else {
        nodes.insert(static_cast<NodeId>(t.a));
      }
    }
    EXPECT_EQ(nodes.size(), n);
    EXPECT_EQ(edges.size(), g.num_edges());
    const auto expected = CodecRun::solver(g);
    for (NodeId v = 0; v + 1 < n; ++v) {
      const bool in = std::find(expected.begin(), expected.end(), v) !=
                      expected.end();
      EXPECT_EQ(run.net.program(v).output(), in ? 1 : 0)
          << "n " << n << " node " << v;
    }
  }
}

TEST(UniversalCodec, CorruptedRunsForgeNoMoreTokensThanWereCorrupted) {
  // In-budget corruption can make a universal node learn a forged token
  // and forward it, or reject a malformed one with InvariantError (the
  // program is not fault-tolerant, so most runs end that way). Either way
  // each token the recorder reads is a graph token or traces back to one
  // corruption event, and any token of exact length re-encodes to the
  // bytes that carried it. n = 16 fills the 4-bit id fields, so only a
  // flipped edge flag is rejected and runs last long enough to forward
  // corrupted and forged tokens.
  const std::size_t n = 16;
  std::size_t genuine = 0;
  std::uint64_t corrupted = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(70 + seed);
    const graph::Graph g = codec_graph(rng, n, 0.05);
    NetworkConfig cfg;
    cfg.bits_per_edge = universal_required_bits(n, kMaxWeight);
    cfg.seed = seed;
    cfg.max_rounds = 4000;
    cfg.faults.corrupt_rate = 0.02;
    CodecRun run(g, cfg);
    try {
      run.net.run();
    } catch (const InvariantError&) {
    }
    const RunStats& stats = run.net.stats();
    std::size_t forged = 0;
    for (const ReadToken& t : run.log) {
      if (t.well_formed) {
        EXPECT_TRUE(t.reencodes) << "seed " << seed;
      }
      ++(run.genuine(g, t) ? genuine : forged);
    }
    EXPECT_LE(forged, stats.messages_corrupted) << "seed " << seed;
    corrupted += stats.messages_corrupted;
  }
  EXPECT_GT(corrupted, 0u);
  EXPECT_GT(genuine, 0u);
}

}  // namespace
}  // namespace congestlb::congest
