// Multi-party communication substrate: blackboard accounting, promise
// instance generation/classification (Definition 2), reference protocols,
// and the CKS lower-bound calculator (Theorem 3).

#include <gtest/gtest.h>

#include "comm/blackboard.hpp"
#include "comm/instances.hpp"
#include "comm/lower_bound.hpp"
#include "comm/protocols.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/expect.hpp"
#include "support/rng.hpp"

namespace congestlb::comm {
namespace {

// ------------------------------------------------------------ Blackboard --

TEST(Blackboard, TracksBitsPerPlayer) {
  Blackboard b(3);
  b.post_uint(0, 5, 8);
  b.post_uint(1, 1, 1);
  b.post_uint(0, 200, 10);
  EXPECT_EQ(b.total_bits(), 19u);
  EXPECT_EQ(b.bits_by(0), 18u);
  EXPECT_EQ(b.bits_by(1), 1u);
  EXPECT_EQ(b.bits_by(2), 0u);
  EXPECT_EQ(b.transcript().size(), 3u);
}

TEST(Blackboard, UintRoundTrip) {
  Blackboard b(2);
  for (std::uint64_t v : {0ULL, 1ULL, 255ULL, 256ULL, 123456789ULL}) {
    b.post_uint(0, v, 40);
    EXPECT_EQ(Blackboard::read_uint(b.transcript().back()), v);
  }
}

TEST(Blackboard, BitsRoundTrip) {
  Blackboard b(2);
  const std::vector<std::uint8_t> bits{1, 0, 0, 1, 1, 0, 1, 0, 1, 1, 1};
  b.post_bits(1, bits);
  EXPECT_EQ(Blackboard::read_bits(b.transcript().back()), bits);
  EXPECT_EQ(b.total_bits(), bits.size());
}

TEST(Blackboard, RejectsBadWrites) {
  Blackboard b(2);
  EXPECT_THROW(b.post_uint(2, 0, 4), InvariantError);       // player range
  EXPECT_THROW(b.post_uint(0, 16, 4), InvariantError);      // value too wide
  EXPECT_THROW(b.post_uint(0, 0, 0), InvariantError);       // zero width
  EXPECT_THROW(b.post_uint(0, 0, 65), InvariantError);      // too wide
  EXPECT_THROW(b.post(0, {}, 1), InvariantError);           // bits > payload
  EXPECT_THROW(b.post(0, {std::byte{1}}, 0), InvariantError);  // empty write
  EXPECT_THROW(b.post_bits(0, {1, 2}), InvariantError);     // non-binary
  EXPECT_THROW(b.post_bits(0, {}), InvariantError);         // empty
  EXPECT_THROW(b.bits_by(7), InvariantError);
}

TEST(Blackboard, ChargeCountsWithoutStoring) {
  Blackboard b(3);
  b.charge(2, 7);
  b.charge(0, 64);
  b.charge(2, 1);
  EXPECT_EQ(b.total_bits(), 72u);
  EXPECT_EQ(b.bits_by(0), 64u);
  EXPECT_EQ(b.bits_by(1), 0u);
  EXPECT_EQ(b.bits_by(2), 8u);
  EXPECT_EQ(b.num_posts(), 3u);
  EXPECT_TRUE(b.transcript().empty());
  b.post_uint(1, 3, 2);
  EXPECT_EQ(b.num_posts(), 4u);
  EXPECT_EQ(b.total_bits(), 74u);
  ASSERT_EQ(b.transcript().size(), 1u);
  EXPECT_EQ(Blackboard::read_uint(b.transcript()[0]), 3u);
}

TEST(Blackboard, MixedPostAndChargeKeepTracerPostIndicesConsecutive) {
  if (!obs::trace_compiled_in()) GTEST_SKIP() << "tracer compiled out";
  obs::Tracer tracer({.capacity = 64});
  Blackboard b(2);
  b.attach_observability(&tracer, nullptr);
  b.post_uint(0, 1, 3);
  b.charge(1, 9);
  b.charge(0, 4);
  b.post_bits(1, {1, 0, 1});
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 4u);
  const std::uint64_t bits[] = {3, 9, 4, 3};
  const std::uint32_t players[] = {0, 1, 0, 1};
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].kind, obs::EventKind::kBlackboardPost);
    EXPECT_EQ(events[i].round, i);
    EXPECT_EQ(events[i].a, players[i]);
    EXPECT_EQ(events[i].value, bits[i]);
  }
}

TEST(Blackboard, ChargeFeedsMetrics) {
  obs::MetricsRegistry metrics;
  Blackboard b(2);
  b.attach_observability(nullptr, &metrics);
  b.charge(0, 10);
  b.charge(1, 5);
  b.post_uint(1, 2, 2);
  EXPECT_EQ(metrics.counter("blackboard.posts").value(), 3u);
  EXPECT_EQ(metrics.counter("blackboard.bits").value(), 17u);
}

TEST(Blackboard, ChargeRejectsBadWrites) {
  Blackboard b(2);
  EXPECT_THROW(b.charge(0, 0), InvariantError);  // empty write
  EXPECT_THROW(b.charge(2, 1), InvariantError);  // player range
  EXPECT_EQ(b.total_bits(), 0u);
  EXPECT_EQ(b.num_posts(), 0u);
}

TEST(Blackboard, NeedsTwoPlayers) {
  EXPECT_THROW(Blackboard(1), InvariantError);
  EXPECT_NO_THROW(Blackboard(2));
}

// --------------------------------------------------------- classification --

TEST(Classify, ManualCases) {
  using S = std::vector<std::vector<std::uint8_t>>;
  EXPECT_EQ(classify(S{{1, 0}, {1, 0}}), InstanceClass::kUniquelyIntersecting);
  EXPECT_EQ(classify(S{{1, 0}, {0, 1}}), InstanceClass::kPairwiseDisjoint);
  EXPECT_EQ(classify(S{{0, 0}, {0, 0}}), InstanceClass::kPairwiseDisjoint);
  // Pairwise overlap without a common index, 3 players: violation.
  EXPECT_EQ(classify(S{{1, 1, 0}, {1, 0, 1}, {0, 1, 1}}),
            InstanceClass::kPromiseViolation);
  // Common index with extra overlap: still "uniquely intersecting" branch.
  EXPECT_EQ(classify(S{{1, 1, 0}, {1, 1, 0}, {1, 0, 0}}),
            InstanceClass::kUniquelyIntersecting);
}

TEST(Classify, RejectsMalformed) {
  using S = std::vector<std::vector<std::uint8_t>>;
  EXPECT_THROW(classify(S{{1, 0}}), InvariantError);          // one player
  EXPECT_THROW(classify(S{{1, 0}, {1}}), InvariantError);     // ragged
  EXPECT_THROW(classify(S{{1, 2}, {0, 0}}), InvariantError);  // non-binary
}

// -------------------------------------------------------------- generators --

class GeneratorSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, double>> {};

TEST_P(GeneratorSweep, ProducesWhatItClaims) {
  const auto [k, t, density] = GetParam();
  Rng rng(k * 1000 + t);
  for (int trial = 0; trial < 10; ++trial) {
    const auto yes = make_uniquely_intersecting(k, t, rng, density);
    EXPECT_EQ(yes.k, k);
    EXPECT_EQ(yes.t, t);
    EXPECT_FALSE(yes.answer_is_disjoint());
    EXPECT_NO_THROW(validate(yes));
    EXPECT_EQ(classify(yes.strings), InstanceClass::kUniquelyIntersecting);

    const auto loose = make_loose_intersecting(k, t, rng, density);
    EXPECT_NO_THROW(validate(loose));
    EXPECT_EQ(classify(loose.strings), InstanceClass::kUniquelyIntersecting);

    const auto no = make_pairwise_disjoint(k, t, rng, density);
    EXPECT_TRUE(no.answer_is_disjoint());
    EXPECT_NO_THROW(validate(no));
    EXPECT_EQ(classify(no.strings), InstanceClass::kPairwiseDisjoint);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, GeneratorSweep,
    ::testing::Values(std::tuple(2, 2, 0.5), std::tuple(8, 2, 0.3),
                      std::tuple(8, 3, 0.5), std::tuple(16, 4, 0.3),
                      std::tuple(64, 5, 0.2), std::tuple(64, 8, 0.9),
                      std::tuple(200, 3, 0.05)));

TEST(Generators, RejectDegenerateSizes) {
  Rng rng(1);
  EXPECT_THROW(make_uniquely_intersecting(4, 1, rng), InvariantError);
  EXPECT_THROW(make_pairwise_disjoint(2, 3, rng), InvariantError);
}

TEST(Generators, CanonicalIntersectingIsDisjointAwayFromWitness) {
  Rng rng(9);
  const auto inst = make_uniquely_intersecting(50, 4, rng, 0.8);
  for (std::size_t i = 0; i < inst.t; ++i) {
    for (std::size_t j = i + 1; j < inst.t; ++j) {
      for (std::size_t m = 0; m < inst.k; ++m) {
        if (m == *inst.witness) continue;
        EXPECT_FALSE(inst.strings[i][m] && inst.strings[j][m])
            << "players " << i << "," << j << " overlap at " << m;
      }
    }
  }
}

TEST(Validate, CatchesKindMismatch) {
  Rng rng(3);
  auto inst = make_pairwise_disjoint(8, 2, rng, 0.4);
  inst.kind = PromiseKind::kUniquelyIntersecting;
  inst.witness = 0;
  EXPECT_THROW(validate(inst), InvariantError);
}

TEST(Validate, CatchesPromiseViolation) {
  PromiseInstance inst;
  inst.k = 3;
  inst.t = 3;
  inst.kind = PromiseKind::kPairwiseDisjoint;
  inst.strings = {{1, 1, 0}, {1, 0, 1}, {0, 1, 1}};
  EXPECT_THROW(validate(inst), InvariantError);
}

// -------------------------------------------------------------- protocols --

class ProtocolCorrectness
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(ProtocolCorrectness, DecidesBothBranches) {
  const auto [k, t] = GetParam();
  Rng rng(k + 31 * t);
  for (const auto& proto : all_reference_protocols()) {
    for (int trial = 0; trial < 8; ++trial) {
      const auto yes = make_uniquely_intersecting(k, t, rng, 0.3);
      Blackboard by(t);
      EXPECT_FALSE(proto->run(yes, by)) << proto->name() << " on intersecting";

      const auto no = make_pairwise_disjoint(k, t, rng, 0.3);
      Blackboard bn(t);
      EXPECT_TRUE(proto->run(no, bn)) << proto->name() << " on disjoint";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ProtocolCorrectness,
                         ::testing::Values(std::tuple(4, 2), std::tuple(16, 2),
                                           std::tuple(16, 3), std::tuple(32, 4),
                                           std::tuple(100, 5)));

TEST(Protocols, FullRevelationCostIsTk) {
  Rng rng(2);
  const std::size_t k = 24, t = 3;
  const auto inst = make_pairwise_disjoint(k, t, rng, 0.5);
  Blackboard b(t);
  FullRevelationProtocol{}.run(inst, b);
  EXPECT_EQ(b.total_bits(), t * k);
}

TEST(Protocols, PromiseAwareCostIsKPlusOne) {
  Rng rng(2);
  const std::size_t k = 40, t = 4;
  const auto inst = make_uniquely_intersecting(k, t, rng, 0.5);
  Blackboard b(t);
  PromiseAwareProtocol{}.run(inst, b);
  EXPECT_EQ(b.total_bits(), k + 1);
  // Only players 0 and 1 speak, regardless of t.
  EXPECT_EQ(b.bits_by(2), 0u);
  EXPECT_EQ(b.bits_by(3), 0u);
}

TEST(Protocols, SupportExchangeCheapOnSparseInputs) {
  Rng rng(6);
  const std::size_t k = 256, t = 3;
  const auto inst = make_pairwise_disjoint(k, t, rng, 0.02);
  Blackboard b(t);
  SupportExchangeProtocol{}.run(inst, b);
  // Far below full revelation's t*k = 768 bits for 2% density.
  EXPECT_LT(b.total_bits(), 300u);
}

TEST(Protocols, SupportExchangeHandlesEmptySupport) {
  PromiseInstance inst;
  inst.k = 5;
  inst.t = 2;
  inst.kind = PromiseKind::kPairwiseDisjoint;
  inst.strings = {{0, 0, 0, 0, 0}, {1, 1, 0, 0, 0}};
  Blackboard b(2);
  EXPECT_TRUE(SupportExchangeProtocol{}.run(inst, b));
}

TEST(Protocols, AllZeroStringsAreDisjoint) {
  // Degenerate input: every protocol must answer "pairwise disjoint" when
  // nobody holds any element.
  PromiseInstance inst;
  inst.k = 6;
  inst.t = 3;
  inst.kind = PromiseKind::kPairwiseDisjoint;
  inst.strings.assign(3, std::vector<std::uint8_t>(6, 0));
  for (const auto& proto : all_reference_protocols()) {
    Blackboard b(3);
    EXPECT_TRUE(proto->run(inst, b)) << proto->name();
  }
}

TEST(Protocols, SingleWitnessOnlyInstance) {
  // The other extreme: each player's string is exactly the witness bit.
  PromiseInstance inst;
  inst.k = 5;
  inst.t = 4;
  inst.kind = PromiseKind::kUniquelyIntersecting;
  inst.witness = 2;
  inst.strings.assign(4, std::vector<std::uint8_t>(5, 0));
  for (auto& s : inst.strings) s[2] = 1;
  for (const auto& proto : all_reference_protocols()) {
    Blackboard b(4);
    EXPECT_FALSE(proto->run(inst, b)) << proto->name();
  }
}

TEST(Protocols, UpperBoundsRespectCksLowerBound) {
  // Every protocol must cost at least the CKS bound (sanity: the lower
  // bound is genuine, so no reference protocol may beat it).
  Rng rng(8);
  for (std::size_t t : {2, 3, 5}) {
    const std::size_t k = 64;
    const auto inst = make_uniquely_intersecting(k, t, rng, 0.4);
    for (const auto& proto : all_reference_protocols()) {
      Blackboard b(t);
      proto->run(inst, b);
      EXPECT_GE(static_cast<double>(b.total_bits()),
                cks_lower_bound_bits(k, t))
          << proto->name() << " t=" << t;
    }
  }
}

// ------------------------------------------------------------- CKS bound --

TEST(CksBound, Values) {
  EXPECT_DOUBLE_EQ(cks_lower_bound_bits(100, 2), 50.0);   // k / (2 * 1)
  EXPECT_DOUBLE_EQ(cks_lower_bound_bits(100, 4), 12.5);   // k / (4 * 2)
  EXPECT_GT(cks_lower_bound_bits(1000, 3), cks_lower_bound_bits(1000, 7));
  EXPECT_THROW(cks_lower_bound_bits(0, 2), InvariantError);
  EXPECT_THROW(cks_lower_bound_bits(5, 1), InvariantError);
}

TEST(CksBound, LinearInK) {
  const double b1 = cks_lower_bound_bits(1000, 4);
  const double b2 = cks_lower_bound_bits(2000, 4);
  EXPECT_DOUBLE_EQ(b2, 2 * b1);
}

}  // namespace
}  // namespace congestlb::comm
