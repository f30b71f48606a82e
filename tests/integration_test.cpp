// Cross-module integration: the full epsilon -> t -> gadget -> CONGEST ->
// blackboard -> answer pipeline, the code ablation (a weak code breaks
// Property 2), and consistency between formula-level and measured objects.

#include <gtest/gtest.h>

#include "codes/trivial_codes.hpp"
#include "comm/lower_bound.hpp"
#include "congest/algorithms/universal_maxis.hpp"
#include <sstream>

#include "graph/algorithms.hpp"
#include "graph/io.hpp"
#include "graph/matching.hpp"
#include "lowerbound/framework.hpp"
#include "maxis/branch_and_bound.hpp"
#include "sim/reduction.hpp"
#include "support/expect.hpp"
#include "support/rng.hpp"

namespace congestlb {
namespace {

// Pick eps, derive t per Lemma 2, build separated params, run the whole
// reduction with the universal algorithm on one branch, and get the right
// answer while respecting the Theorem-5 bit budget. Both instances are
// drawn from one Rng(1) in a fixed order (YES, then NO) whichever branch
// runs, so each test sees exactly its instance of that shared sequence.
void run_pipeline_from_epsilon(bool intersecting) {
  const double eps = 0.45;  // small t so the test stays fast
  const std::size_t t = lb::linear_players_for_epsilon(eps);
  ASSERT_EQ(t, 5u);
  // Default k = (ell+alpha)^alpha = 7 >= t, within code capacity.
  const auto p = lb::GadgetParams::for_linear_separation(t, 1);
  const lb::LinearConstruction c(p, t);
  ASSERT_TRUE(c.separated());

  Rng rng(1);
  const auto yes = comm::make_uniquely_intersecting(p.k, t, rng, 0.3);
  const auto no = comm::make_pairwise_disjoint(p.k, t, rng, 0.3);
  const auto& inst = intersecting ? yes : no;
  comm::Blackboard board(t);
  congest::NetworkConfig cfg;
  cfg.bits_per_edge = congest::universal_required_bits(
      c.num_nodes(), static_cast<graph::Weight>(p.ell));
  cfg.max_rounds = 500'000;
  const auto rep = sim::run_linear_reduction(
      c, inst,
      congest::universal_maxis_factory([](const graph::Graph& g) {
        return maxis::solve_exact(g).nodes;
      }),
      board, cfg);
  EXPECT_TRUE(rep.correct);
  EXPECT_TRUE(rep.accounting_ok);
  // The protocol the players ran costs what the board says; a genuine
  // protocol for promise disjointness must respect the CKS bound.
  EXPECT_GE(static_cast<double>(rep.blackboard_bits),
            comm::cks_lower_bound_bits(p.k, t));
}

TEST(Integration, FullPipelineFromEpsilonYes) {
  run_pipeline_from_epsilon(/*intersecting=*/true);
}

TEST(Integration, FullPipelineFromEpsilonNo) {
  run_pipeline_from_epsilon(/*intersecting=*/false);
}

TEST(Integration, HardInstancesHaveSmallDiameter) {
  // The paper: "our results hold even for constant diameter graphs."
  // Instantiated linear gadgets are connected with diameter <= 4 whenever
  // some input weight is on (the graph is dense across copies).
  const auto p = lb::GadgetParams::from_l_alpha(3, 1, 4);
  const lb::LinearConstruction c(p, 3);
  Rng rng(5);
  const auto inst = comm::make_uniquely_intersecting(4, 3, rng, 0.5);
  const auto g = c.instantiate(inst);
  ASSERT_TRUE(graph::is_connected(g));
  EXPECT_LE(graph::diameter(g), 4u);
}

TEST(Integration, CutIsThetaLogSquaredOfK) {
  // cut = C(t,2)(l+a)p(p-1) with l+a ~ log k and p ~ log k: the measured
  // cut should track t^2 log^3 k within small constants (one log from the
  // clique count, two from the anti-matching size). We check the growth
  // exponent in k is polylogarithmic: quadrupling k should grow the cut by
  // far less than 4x.
  const std::size_t t = 3;
  const auto small = lb::GadgetParams::from_k(256);
  const auto large = lb::GadgetParams::from_k(1024);
  const lb::LinearConstruction cs(small, t);
  const lb::LinearConstruction cl(large, t);
  const double growth = static_cast<double>(cl.cut_size()) /
                        static_cast<double>(cs.cut_size());
  EXPECT_LT(growth, 2.5);
  EXPECT_GE(growth, 1.0);
}

TEST(Integration, WeakCodeBreaksProperty2) {
  // Ablation: swap Reed-Solomon (distance ell+1) for a padding code
  // (distance 1). Property 2 demands a matching of size >= ell between
  // distinct codeword gadgets; with the weak code some pair of messages
  // yields a matching far below ell, voiding the NO-side argument.
  const std::size_t ell = 4, alpha = 1, k = 5;
  auto weak = std::make_shared<codes::PaddingCode>(alpha, ell + alpha, k);
  const auto weak_params = lb::GadgetParams::with_code(ell, alpha, k, weak);
  const lb::LinearConstruction c(weak_params, 2);

  std::size_t min_matching = ell + alpha + 1;
  for (std::size_t m1 = 0; m1 < k; ++m1) {
    for (std::size_t m2 = 0; m2 < k; ++m2) {
      if (m1 == m2) continue;
      const auto matching = graph::max_bipartite_matching(
          c.fixed_graph(), c.codeword_nodes(0, m1), c.codeword_nodes(1, m2));
      min_matching = std::min(min_matching, matching.size());
    }
  }
  EXPECT_LT(min_matching, ell) << "padding code should violate Property 2";

  // Reed-Solomon on the same shape does satisfy it.
  const auto strong_params = lb::GadgetParams::from_l_alpha(ell, alpha, k);
  const lb::LinearConstruction cs(strong_params, 2);
  std::size_t strong_min = ell + alpha + 1;
  for (std::size_t m1 = 0; m1 < k; ++m1) {
    for (std::size_t m2 = 0; m2 < k; ++m2) {
      if (m1 == m2) continue;
      const auto matching = graph::max_bipartite_matching(
          cs.fixed_graph(), cs.codeword_nodes(0, m1), cs.codeword_nodes(1, m2));
      strong_min = std::min(strong_min, matching.size());
    }
  }
  EXPECT_GE(strong_min, ell);
}

TEST(Integration, WeakCodeInflatesNoSideOptimum) {
  // The consequence of broken Property 2: pairwise-disjoint instances can
  // support heavier independent sets under the weak code than under
  // Reed-Solomon, eroding the YES/NO gap.
  const std::size_t ell = 4, alpha = 1, k = 5, t = 2;
  auto weak = std::make_shared<codes::PaddingCode>(alpha, ell + alpha, k);
  const auto weak_params = lb::GadgetParams::with_code(ell, alpha, k, weak);
  const auto strong_params = lb::GadgetParams::from_l_alpha(ell, alpha, k);
  const lb::LinearConstruction cw(weak_params, t);
  const lb::LinearConstruction cs(strong_params, t);

  Rng rng(23);
  graph::Weight worst_weak = 0, worst_strong = 0;
  for (int trial = 0; trial < 6; ++trial) {
    const auto inst = comm::make_pairwise_disjoint(k, t, rng, 0.6);
    worst_weak =
        std::max(worst_weak, maxis::solve_exact(cw.instantiate(inst)).weight);
    worst_strong =
        std::max(worst_strong, maxis::solve_exact(cs.instantiate(inst)).weight);
  }
  EXPECT_GT(worst_weak, worst_strong);
  // Strong code respects Claim 2's bound; weak code exceeds it.
  EXPECT_LE(worst_strong, cs.no_bound());
  EXPECT_GT(worst_weak, cw.no_bound());
}

TEST(Integration, FormulaBoundsMatchConstructedObjects) {
  // theorem1_bound builds (k, t, cut) from formulas; cross-check the cut
  // against an actually constructed gadget of the same parameters.
  const double eps = 0.45;
  const std::size_t n = 4096;
  const auto rb = lb::theorem1_bound(n, eps);
  const std::size_t t = lb::linear_players_for_epsilon(eps);
  const auto p = lb::GadgetParams::from_k(n / t);
  const lb::LinearConstruction c(p, t);
  EXPECT_EQ(rb.cut_edges, c.cut_size());
}

TEST(Integration, GadgetSerializationRoundTrip) {
  // Persist an instantiated hard instance through the edge-list format and
  // confirm the gap survives: a downstream user can export G_xbar, feed it
  // to any solver (e.g. `clb solve`), and reproduce the decision.
  const auto p = lb::GadgetParams::for_linear_separation(2, 1, 3);
  const lb::LinearConstruction c(p, 2);
  Rng rng(15);
  const auto inst = comm::make_uniquely_intersecting(p.k, 2, rng, 0.4);
  const auto g = c.instantiate(inst);
  std::stringstream ss;
  graph::write_edge_list(ss, g);
  const auto back = graph::read_edge_list(ss);
  ASSERT_TRUE(back == g);
  EXPECT_EQ(maxis::solve_exact(back).weight, maxis::solve_exact(g).weight);
  EXPECT_GE(maxis::solve_exact(back).weight, c.yes_weight());
}

TEST(Integration, RemarkOneRoundPenaltyIsLogarithmic) {
  // Unweighted expansion multiplies n by ~ell ~ log k, which costs exactly
  // one log factor in the Corollary-1 denominator.
  const auto p = lb::GadgetParams::from_k(512);
  const lb::LinearConstruction c(p, 2);
  const std::size_t n_weighted = c.num_nodes();
  // Weighted node weights are 1 or ell; expansion size is bounded by
  // n * ell.
  const std::size_t n_unweighted_max = n_weighted * p.ell;
  const auto rb_w = lb::reduction_round_bound(p.k, 2, c.cut_size(), n_weighted);
  const auto rb_u =
      lb::reduction_round_bound(p.k, 2, c.cut_size(), n_unweighted_max);
  EXPECT_LT(rb_u.rounds, rb_w.rounds);
  EXPECT_GT(rb_u.rounds, rb_w.rounds / 3.0);  // only a log-ish factor
}

}  // namespace
}  // namespace congestlb
