// Golden pin of the Theorem-5 reduction's accounting.
//
// For fixed seeds, every count the reduction reports — rounds, network
// messages and bits, blackboard bits and posts, per-player charges, the
// per-round cut series, the computed weight and the three verdict flags —
// is fixed here as a literal. The literals were recorded from the
// implementation that kept a full transcript of every cut message; the
// accounting-only observer and the encode-once universal program must
// reproduce them byte for byte.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "congest/algorithms/universal_maxis.hpp"
#include "maxis/branch_and_bound.hpp"
#include "sim/reduction.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

namespace congestlb::sim {
namespace {

congest::ProgramFactory exact_universal() {
  return congest::universal_maxis_factory(
      [](const graph::Graph& g) { return maxis::solve_exact(g).nodes; });
}

congest::NetworkConfig universal_cfg(std::size_t n, graph::Weight max_w) {
  congest::NetworkConfig cfg;
  cfg.bits_per_edge = congest::universal_required_bits(n, max_w);
  cfg.max_rounds = 500'000;
  return cfg;
}

/// Every pinned field of a report (plus the board's per-player charges) on
/// one line, so a mismatch prints the whole actual fingerprint.
std::string fingerprint(const ReductionReport& rep,
                        const comm::Blackboard& board) {
  std::uint64_t cut_hash = hash_mix64(rep.cut_bits_per_round.size());
  for (std::uint64_t bits : rep.cut_bits_per_round) {
    cut_hash = hash_combine(cut_hash, bits);
  }
  std::string by;
  for (std::size_t p = 0; p < board.num_players(); ++p) {
    if (p > 0) by += ',';
    by += std::to_string(board.bits_by(p));
  }
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "rounds=%zu msgs=%llu bits=%llu board_bits=%llu posts=%llu by=[%s] "
      "cut_rounds=%zu cut_hash=%016llx weight=%lld correct=%d acct=%d "
      "exact=%d",
      rep.rounds,
      static_cast<unsigned long long>(rep.net_stats.messages_sent),
      static_cast<unsigned long long>(rep.total_bits),
      static_cast<unsigned long long>(rep.blackboard_bits),
      static_cast<unsigned long long>(rep.blackboard_entries), by.c_str(),
      rep.cut_bits_per_round.size(),
      static_cast<unsigned long long>(cut_hash),
      static_cast<long long>(rep.computed_weight), rep.correct ? 1 : 0,
      rep.accounting_ok ? 1 : 0, rep.cut_accounting_exact ? 1 : 0);
  return buf;
}

/// The linear run `clb simulate <t> <seed> <yes|no>` performs.
std::string linear_run(std::size_t t, std::uint64_t seed, bool yes) {
  const auto p = lb::GadgetParams::for_linear_separation(t, 1);
  const lb::LinearConstruction c(p, t);
  Rng rng(seed);
  const auto inst = yes ? comm::make_uniquely_intersecting(p.k, t, rng)
                        : comm::make_pairwise_disjoint(p.k, t, rng);
  comm::Blackboard board(t);
  const auto rep = run_linear_reduction(
      c, inst, exact_universal(), board,
      universal_cfg(c.num_nodes(), static_cast<graph::Weight>(p.ell)));
  return fingerprint(rep, board);
}

std::string quadratic_run(std::uint64_t seed, bool yes) {
  const auto p = lb::GadgetParams::from_l_alpha(3, 1, 3);
  const lb::QuadraticConstruction c(p, 2);
  Rng rng(seed);
  const auto inst =
      yes ? comm::make_uniquely_intersecting(c.string_length(), 2, rng, 0.5)
          : comm::make_pairwise_disjoint(c.string_length(), 2, rng, 0.5);
  comm::Blackboard board(2);
  const auto rep = run_quadratic_reduction(
      c, inst, exact_universal(), board,
      universal_cfg(c.num_nodes(), static_cast<graph::Weight>(p.ell)));
  return fingerprint(rep, board);
}

TEST(ReductionGolden, LinearT2) {
  EXPECT_EQ(linear_run(2, 1, true),
            "rounds=349 msgs=208800 bits=3636000 board_bits=969600 posts=55680 "
            "by=[484800,484800] cut_rounds=348 cut_hash=fa8be900cd8d4a6e "
            "weight=14 correct=1 acct=1 exact=1");
  EXPECT_EQ(linear_run(2, 1, false),
            "rounds=349 msgs=208800 bits=3636000 board_bits=969600 posts=55680 "
            "by=[484800,484800] cut_rounds=348 cut_hash=fa8be900cd8d4a6e "
            "weight=10 correct=1 acct=1 exact=1");
}

TEST(ReductionGolden, LinearT3) {
  EXPECT_EQ(linear_run(3, 1, true),
            "rounds=871 msgs=1357200 bits=24850800 board_bits=9558000 "
            "posts=522000 by=[3186000,3186000,3186000] cut_rounds=870 "
            "cut_hash=d33b432aa0bc3f45 weight=27 correct=1 acct=1 exact=1");
  EXPECT_EQ(linear_run(3, 1, false),
            "rounds=871 msgs=1357200 bits=24850800 board_bits=9558000 "
            "posts=522000 by=[3186000,3186000,3186000] cut_rounds=870 "
            "cut_hash=d33b432aa0bc3f45 weight=18 correct=1 acct=1 exact=1");
}

TEST(ReductionGolden, LinearT4) {
  EXPECT_EQ(linear_run(4, 1, true),
            "rounds=3133 msgs=18416160 bits=349201440 board_bits=179589312 "
            "posts=9471168 by=[44897328,44897328,44897328,44897328] "
            "cut_rounds=3132 cut_hash=cd15d47363631105 weight=44 correct=1 "
            "acct=1 exact=1");
  EXPECT_EQ(linear_run(4, 1, false),
            "rounds=3133 msgs=18416160 bits=349201440 board_bits=179589312 "
            "posts=9471168 by=[44897328,44897328,44897328,44897328] "
            "cut_rounds=3132 cut_hash=cd15d47363631105 weight=32 correct=1 "
            "acct=1 exact=1");
}

TEST(ReductionGolden, QuadraticT2) {
  EXPECT_EQ(quadratic_run(17, true),
            "rounds=633 msgs=682560 bits=13417920 board_bits=3975680 "
            "posts=202240 by=[1987840,1987840] cut_rounds=632 "
            "cut_hash=ee904c3624184421 weight=28 correct=1 acct=1 exact=1");
  EXPECT_EQ(quadratic_run(23, false),
            "rounds=631 msgs=675546 bits=13295046 board_bits=3961280 "
            "posts=201280 by=[1980640,1980640] cut_rounds=630 "
            "cut_hash=43fab16ff2a3de74 weight=25 correct=1 acct=1 exact=1");
}

}  // namespace
}  // namespace congestlb::sim
