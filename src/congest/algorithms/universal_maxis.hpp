// The universal CONGEST algorithm: gather the whole graph, solve locally.
//
// The paper leans on the folklore fact that *any* graph problem is solvable
// in O(n^2) CONGEST rounds (making the quadratic lower bound of Theorem 2
// nearly tight). This program realizes that upper bound for MaxIS: every
// node gossips "node tokens" (id, degree, weight) and "edge tokens" (u, v),
// one token per edge per round; once a node has all n node tokens and all
// sum(deg)/2 edge tokens it reconstructs the graph, runs a pluggable exact
// (or approximate) solver locally, and outputs its own membership bit.
// Because every node reconstructs the same graph and the solver is
// deterministic, outputs are globally consistent.
//
// It is also the honest end-to-end algorithm for the reduction pipeline
// (sim::ReductionDriver): it decides the gap predicate exactly, so the
// simulated players always answer promise disjointness correctly — at a cut
// cost the Theorem 5 accounting makes visible.

#pragma once

#include <functional>

#include "congest/network.hpp"
#include "graph/graph.hpp"

namespace congestlb::congest {

/// Deterministic local solver: graph -> independent set (node ids).
using LocalMaxIsSolver =
    std::function<std::vector<graph::NodeId>(const graph::Graph&)>;

/// Per-edge bandwidth the token encoding needs for an n-node network with
/// max node weight `max_weight` (1 type bit + 2 id fields + weight field).
/// A token is coded as one 64-bit word, so n is limited to 2^15 (15-bit
/// ids); larger n, like a weight of 2^32 or more, throws.
std::size_t universal_required_bits(std::size_t n, graph::Weight max_weight);

/// One UniversalMaxIsProgram per node; `solver` must be deterministic and is
/// shared by all nodes. The network's bits_per_edge must be at least
/// universal_required_bits(...) — the program throws otherwise.
ProgramFactory universal_maxis_factory(LocalMaxIsSolver solver);

}  // namespace congestlb::congest
