// The full Theorem-5 pipeline, narrated.
//
//   $ ./reduction_demo [t] [seed]
//
// t players receive a promise pairwise disjointness instance. Instead of
// running a communication protocol, they build G_xbar, split it V^1..V^t,
// and jointly simulate a CONGEST algorithm (the universal exact-MaxIS
// program) — writing every cut-crossing message on a shared blackboard.
// The final independent-set weight answers the disjointness question via
// the gap predicate, and the blackboard tallies the protocol's cost.

#include <cstdlib>
#include <iostream>

#include "comm/lower_bound.hpp"
#include "congest/algorithms/universal_maxis.hpp"
#include "maxis/branch_and_bound.hpp"
#include "sim/reduction.hpp"
#include "support/rng.hpp"

namespace clb = congestlb;

int main(int argc, char** argv) {
  const std::size_t t = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 7;

  std::cout << "Theorem 5 demo: deciding promise pairwise disjointness by "
               "simulating a CONGEST MaxIS algorithm\n\n";

  const auto params = clb::lb::GadgetParams::for_linear_separation(t, 1);
  const clb::lb::LinearConstruction c(params, t);
  std::cout << "[setup] " << t << " players, k = " << params.k
            << "-bit strings; G_xbar has " << c.num_nodes()
            << " nodes, cut = " << c.cut_size() << " edges\n";

  clb::Rng rng(seed);
  for (bool intersecting : {true, false}) {
    const auto inst =
        intersecting
            ? clb::comm::make_uniquely_intersecting(params.k, t, rng)
            : clb::comm::make_pairwise_disjoint(params.k, t, rng);
    std::cout << "\n[input] strings are "
              << (intersecting ? "uniquely intersecting" : "pairwise disjoint")
              << " (hidden from the players' joint view)\n";

    clb::comm::Blackboard board(t);
    clb::congest::NetworkConfig cfg;
    cfg.bits_per_edge = clb::congest::universal_required_bits(
        c.num_nodes(), static_cast<clb::graph::Weight>(params.ell));
    cfg.max_rounds = 500'000;

    const auto rep = clb::sim::run_linear_reduction(
        c, inst,
        clb::congest::universal_maxis_factory([](const clb::graph::Graph& g) {
          return clb::maxis::solve_exact(g).nodes;
        }),
        board, cfg);

    std::cout << "[simulate] CONGEST algorithm ran " << rep.rounds
              << " rounds at B = " << rep.bits_per_edge << " bits/edge\n";
    std::cout << "[blackboard] " << rep.blackboard_entries
              << " cut messages charged, " << rep.blackboard_bits
              << " bits total (Theorem-5 budget: " << rep.theorem5_budget
              << ", within budget: " << (rep.accounting_ok ? "yes" : "NO")
              << ")\n";
    std::cout << "[decide] computed IS weight " << rep.computed_weight
              << " vs YES threshold " << rep.yes_weight << " -> answer: "
              << (rep.decided_disjoint ? "pairwise disjoint"
                                       : "uniquely intersecting")
              << " (" << (rep.correct ? "correct" : "WRONG") << ")\n";
  }

  std::cout << "\n[moral] the blackboard transcript is a genuine protocol "
               "for promise pairwise disjointness, so its cost is at least\n"
            << "        CC(k, t) = Omega(k / t log t) = "
            << clb::comm::cks_lower_bound_bits(params.k, t)
            << " bits here. Since each round contributes at most 2|cut|*B "
               "bits, the CONGEST algorithm needed\n"
            << "        Omega(k / (t log t * |cut| * log n)) rounds — "
               "Theorem 1's engine.\n";
  return 0;
}
