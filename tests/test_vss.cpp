// Protocol tests: Π_VSS (Protocols 7.1/7.2, Theorem 7.3).
//
// The decisive upgrade over Π_WSS is *strong commitment*: even for a
// corrupt dealer in a synchronous network, every honest party that outputs
// holds a row of one common bivariate polynomial — including parties the
// dealer tried to cheat, who recover their row through the inner WSS layer.
#include <gtest/gtest.h>

#include "sharing/vss.h"
#include "sim_helpers.h"

namespace nampc {
namespace {

using testing::make_sim;
using testing::SimSpec;

struct VssHarness {
  std::unique_ptr<Simulation> sim;
  std::vector<Vss*> instances;
  std::vector<Polynomial> row0s;

  VssHarness(const SimSpec& spec, PartyId dealer_id, int num_secrets,
             PartySet z, std::shared_ptr<Adversary> adv = nullptr)
      : sim(make_sim(spec, std::move(adv))) {
    for (int i = 0; i < sim->n(); ++i) {
      instances.push_back(
          &sim->party(i).spawn<Vss>("vss", dealer_id, 0, num_secrets, z,
                                    nullptr));
    }
    Rng rng(spec.seed ^ 0x50ULL);
    for (int k = 0; k < num_secrets; ++k) {
      row0s.push_back(Polynomial::random_with_constant(
          Fp(500 + static_cast<std::uint64_t>(k)), sim->params().ts, rng));
    }
    instances[static_cast<std::size_t>(dealer_id)]->start(row0s);
  }

  void expect_shares_match_dealer(const PartySet& corrupt) const {
    for (int i = 0; i < sim->n(); ++i) {
      if (corrupt.contains(i)) continue;
      Vss* v = instances[static_cast<std::size_t>(i)];
      ASSERT_EQ(v->outcome(), WssOutcome::rows) << "party " << i;
      for (std::size_t k = 0; k < row0s.size(); ++k) {
        EXPECT_EQ(v->share(static_cast<int>(k)), row0s[k].eval(eval_point(i)))
            << "party " << i << " secret " << k;
      }
    }
  }

  /// Strong commitment: honest outputs are all-or-none, and those that
  /// exist interpolate to one degree-ts polynomial per secret.
  void expect_strong_commitment(const PartySet& corrupt) const {
    std::vector<int> holders;
    std::vector<int> empty_handed;
    for (int i = 0; i < sim->n(); ++i) {
      if (corrupt.contains(i)) continue;
      if (instances[static_cast<std::size_t>(i)]->outcome() ==
          WssOutcome::rows) {
        holders.push_back(i);
      } else {
        empty_handed.push_back(i);
      }
    }
    EXPECT_TRUE(holders.empty() || empty_handed.empty())
        << "strong commitment violated: " << holders.size() << " with shares, "
        << empty_handed.size() << " without";
    if (holders.empty()) return;
    const std::size_t secrets = row0s.size();
    for (std::size_t k = 0; k < secrets; ++k) {
      FpVec xs, ys;
      for (int i : holders) {
        xs.push_back(eval_point(i));
        ys.push_back(
            instances[static_cast<std::size_t>(i)]->share(static_cast<int>(k)));
      }
      const Polynomial f = Polynomial::interpolate(xs, ys);
      EXPECT_LE(f.degree(), sim->params().ts)
          << "honest shares of secret " << k
          << " do not lie on a degree-ts polynomial";
    }
  }
};

struct VssCase {
  ProtocolParams params;
  NetworkKind kind;
  bool ideal;
  std::uint64_t z_mask;  // the conditioning set Z (|Z| = ts - ta)
  std::uint64_t seed;
};

class VssModeTest : public ::testing::TestWithParam<VssCase> {};

TEST_P(VssModeTest, HonestDealerAllHonest) {
  const auto& c = GetParam();
  VssHarness h({.params = c.params, .kind = c.kind, .seed = c.seed,
                .ideal = c.ideal},
               0, 2, PartySet{c.z_mask});
  EXPECT_EQ(h.sim->run(), RunStatus::quiescent);
  h.expect_shares_match_dealer({});
  if (c.kind == NetworkKind::synchronous) {
    for (Vss* v : h.instances) {
      EXPECT_LE(v->output_time(), h.sim->timing().t_vss);
      EXPECT_TRUE(v->revealed_parties().subset_of(PartySet{c.z_mask}));
    }
  }
}

TEST_P(VssModeTest, SilentCorruptZParties) {
  const auto& c = GetParam();
  // Corrupt exactly the parties in Z (the "good subset" case the MPC layer
  // relies on) and have them stay silent.
  const PartySet z{c.z_mask};
  if (z.empty()) GTEST_SKIP() << "ts == ta: Z is empty";
  const int budget =
      c.kind == NetworkKind::synchronous ? c.params.ts : c.params.ta;
  if (z.size() > budget) GTEST_SKIP() << "Z exceeds corruption budget";
  auto adv = std::make_shared<ScriptedAdversary>(z);
  for (int id : z.to_vector()) adv->silence(id);
  VssHarness h({.params = c.params, .kind = c.kind, .seed = c.seed,
                .ideal = c.ideal},
               0, 1, z, adv);
  EXPECT_EQ(h.sim->run(), RunStatus::quiescent);
  h.expect_shares_match_dealer(z);
  for (int i = 0; i < c.params.n; ++i) {
    if (z.contains(i)) continue;
    EXPECT_TRUE(h.instances[static_cast<std::size_t>(i)]
                    ->revealed_parties()
                    .subset_of(z));
  }
}

TEST_P(VssModeTest, CheatedPartyRecoversItsRow) {
  const auto& c = GetParam();
  if (c.kind == NetworkKind::asynchronous && c.params.ta == 0) {
    GTEST_SKIP() << "no corruption budget in this network";
  }
  // A corrupt dealer sends a garbled row to the highest-indexed honest
  // party. Strong commitment: that party still ends up with the row defined
  // by the honest majority (or nobody outputs at all).
  const PartySet corrupt = PartySet::of({0});
  const int victim = c.params.n - 1;
  auto adv = std::make_shared<ScriptedAdversary>(corrupt);
  adv->add_rule(
      [victim](const Message& m, Time) {
        return m.from == 0 && m.to == victim && m.type == 1 &&
               m.instance() == "vss";
      },
      [](const Message& m, Time, Rng&) {
        SendDecision d;
        Message alt = m;
        for (Word& w : alt.payload.mut()) w = (Fp(w) + Fp(7)).value();
        d.replacement = std::move(alt);
        return d;
      });
  VssHarness h({.params = c.params, .kind = c.kind, .seed = c.seed,
                .ideal = c.ideal},
               0, 1, PartySet{c.z_mask}, adv);
  EXPECT_EQ(h.sim->run(), RunStatus::quiescent);
  h.expect_strong_commitment(corrupt);
  // If the run concluded, the victim's recovered share matches the honest
  // polynomial (which here is the dealer's original, ungarbled one).
  Vss* v = h.instances[static_cast<std::size_t>(victim)];
  if (v->outcome() == WssOutcome::rows) {
    EXPECT_EQ(v->share(0), h.row0s[0].eval(eval_point(victim)));
  }
}

TEST_P(VssModeTest, SilentDealerNobodyOutputs) {
  const auto& c = GetParam();
  if (c.kind == NetworkKind::asynchronous && c.params.ta == 0) {
    GTEST_SKIP() << "no corruption budget in this network";
  }
  const PartySet corrupt = PartySet::of({0});
  auto adv = std::make_shared<ScriptedAdversary>(corrupt);
  adv->silence(0);
  VssHarness h({.params = c.params, .kind = c.kind, .seed = c.seed,
                .ideal = c.ideal},
               0, 1, PartySet{c.z_mask}, adv);
  EXPECT_EQ(h.sim->run(), RunStatus::quiescent);
  for (int i = 1; i < c.params.n; ++i) {
    EXPECT_EQ(h.instances[static_cast<std::size_t>(i)]->outcome(),
              WssOutcome::none);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, VssModeTest,
    ::testing::Values(
        // (4,1,0): Z = {3}; full primitives.
        VssCase{{4, 1, 0}, NetworkKind::synchronous, false, 0b1000, 41},
        VssCase{{4, 1, 0}, NetworkKind::asynchronous, false, 0b1000, 42},
        // (5,1,1): ts == ta, Z = ∅; full primitives.
        VssCase{{5, 1, 1}, NetworkKind::synchronous, false, 0, 43},
        VssCase{{5, 1, 1}, NetworkKind::asynchronous, false, 0, 44},
        // (7,2,1): Z = {6}; ideal primitives keep the run tractable.
        VssCase{{7, 2, 1}, NetworkKind::synchronous, true, 0b1000000, 45},
        VssCase{{7, 2, 1}, NetworkKind::asynchronous, true, 0b1000000, 46}));

TEST(Vss, UpgradesTheWssBotCaseToRecovery) {
  // The exact attack that forces a ⊥ in Π_WSS (see WssBotOutcome in
  // test_wss.cpp): a corrupt dealer garbles the victim's row and suppresses
  // its sync-path decisions. In Π_VSS the victim reconstructs its true row
  // from the inner-WSS outputs of the clique members — the upgrade from
  // weak to strong commitment, demonstrated on the same adversary.
  const ProtocolParams p{10, 3, 1};
  const int victim = 9;
  auto adv = std::make_shared<ScriptedAdversary>(PartySet::of({0}));
  adv->add_rule(
      [victim](const Message& m, Time) {
        return m.from == 0 && m.to == victim && m.type == 1 &&
               m.instance() == "vss";
      },
      [](const Message& m, Time, Rng&) {
        SendDecision d;
        Message alt = m;
        for (Word& w : alt.payload.mut()) w = (Fp(w) + Fp(5)).value();
        d.replacement = std::move(alt);
        return d;
      });
  adv->silence_on(0, "vss/it0/d5");
  adv->silence_on(0, "vss/it0/d8");
  VssHarness h({.params = p, .kind = NetworkKind::synchronous, .seed = 3,
                .ideal = true},
               0, 1, PartySet::of({7, 8}), adv);
  EXPECT_EQ(h.sim->run(), RunStatus::quiescent);
  // Every honest party — including the cheated victim — ends with its true
  // share of the committed polynomial.
  h.expect_strong_commitment(PartySet::of({0}));
  Vss* v = h.instances[static_cast<std::size_t>(victim)];
  ASSERT_EQ(v->outcome(), WssOutcome::rows);
  EXPECT_EQ(v->share(0), h.row0s[0].eval(eval_point(victim)));
}

TEST(Vss, ZWithHonestPartyStillLiveInAsync) {
  // ta-correctness holds for any Z in the asynchronous network; reveals may
  // touch honest parties but stay inside Z.
  const ProtocolParams p{7, 2, 1};
  PartySet corrupt = PartySet::of({6});
  auto adv = std::make_shared<ScriptedAdversary>(corrupt);
  adv->silence(6);
  VssHarness h({.params = p, .kind = NetworkKind::asynchronous, .seed = 47,
                .ideal = true},
               0, 1, PartySet::of({2}), adv);
  EXPECT_EQ(h.sim->run(), RunStatus::quiescent);
  h.expect_shares_match_dealer(corrupt);
  for (int i = 0; i < 7; ++i) {
    if (corrupt.contains(i)) continue;
    EXPECT_TRUE(h.instances[static_cast<std::size_t>(i)]
                    ->revealed_parties()
                    .subset_of(PartySet::of({2})));
  }
}

}  // namespace
}  // namespace nampc
