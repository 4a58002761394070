// Hardening tests: decoder fuzzing (malformed payloads must throw
// DecodeError, never crash or mis-parse), API misuse checks, and Beaver
// property sweeps over random values.
#include <gtest/gtest.h>

#include <functional>

#include "circuit/circuit.h"
#include "graph/graph.h"
#include "poly/polynomial.h"
#include "sharing/encoding.h"
#include "sharing/wss.h"
#include "sim_helpers.h"
#include "triples/beaver.h"

namespace nampc {
namespace {

using testing::make_sim;

TEST(DecoderFuzz, GraphDecodeNeverCrashes) {
  Rng rng(9001);
  int ok = 0;
  int rejected = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    Words w;
    const std::uint64_t len = rng.next_below(12);
    for (std::uint64_t i = 0; i < len; ++i) {
      // Mix plausible small values and raw garbage.
      w.push_back(rng.next_bool() ? rng.next_below(32) : rng.next_u64());
    }
    Reader r(w);
    try {
      const Graph g = Graph::decode(r);
      EXPECT_LE(g.size(), 24);
      ++ok;
    } catch (const DecodeError&) {
      ++rejected;
    }
  }
  EXPECT_EQ(ok + rejected, 2000);
  EXPECT_GT(rejected, 0);  // garbage is mostly rejected
}

TEST(DecoderFuzz, PolynomialDecodeNeverCrashes) {
  Rng rng(9002);
  for (int trial = 0; trial < 2000; ++trial) {
    Words w;
    const std::uint64_t len = rng.next_below(8);
    for (std::uint64_t i = 0; i < len; ++i) w.push_back(rng.next_u64());
    Reader r(w);
    try {
      (void)Polynomial::decode(r);
    } catch (const DecodeError&) {
    }
  }
  SUCCEED();
}

TEST(DecoderFuzz, REntryDecodeNeverCrashes) {
  Rng rng(9003);
  for (int trial = 0; trial < 2000; ++trial) {
    Words w;
    const std::uint64_t len = rng.next_below(6);
    for (std::uint64_t i = 0; i < len; ++i) {
      w.push_back(rng.next_below(8));
    }
    Reader r(w);
    try {
      (void)REntry::decode(r, 2);
    } catch (const DecodeError&) {
    }
  }
  SUCCEED();
}

TEST(ApiMisuse, CircuitRejectsBadWires) {
  Circuit c;
  const int a = c.input(0);
  EXPECT_THROW((void)c.add(a, 99), InvariantError);
  EXPECT_THROW((void)c.mul(-1, a), InvariantError);
  EXPECT_THROW(c.mark_output(42), InvariantError);
  EXPECT_THROW(c.mark_output(a, -5), InvariantError);
}

TEST(ApiMisuse, MissingInputsDefaultToZeroInPlainEval) {
  Circuit c;
  const int a = c.input(0);
  const int b = c.input(5);  // party 5 provides nothing below
  c.mark_output(c.add(a, b));
  const FpVec out = c.eval_plain({{0, {Fp(7)}}});
  EXPECT_EQ(out[0], Fp(7));
}

TEST(ApiMisuse, SubsetEnumerationEdgeCases) {
  int count = 0;
  PartySet::for_each_subset(3, 3, [&](PartySet s) {
    EXPECT_EQ(s, PartySet::full(3));
    ++count;
  });
  EXPECT_EQ(count, 1);
  count = 0;
  PartySet::for_each_subset(3, 4, [&](PartySet) { ++count; });
  EXPECT_EQ(count, 0);  // k > n: no subsets
}

TEST(ApiMisuse, WssRejectsOversizedInput) {
  auto sim = make_sim({.params = testing::p7_2_1()});
  WssOptions opts;
  auto& w = sim->party(0).spawn<Wss>("w", 0, 0, opts, nullptr);
  Rng rng(1);
  // Degree too high for ts = 2.
  EXPECT_THROW(w.start({Polynomial::random_with_constant(Fp(1), 5, rng)}),
               InvariantError);
  // Wrong batch width.
  EXPECT_THROW(w.start({Polynomial::constant(Fp(1)),
                        Polynomial::constant(Fp(2))}),
               InvariantError);
}

/// A corrupt dealer P0 of an otherwise honest (7,2,1) Π_WSS run rewrites
/// its Acast INIT on instance `key` so that the announced Q_a is {10..15}.
/// Honest parties must treat the payload as ⊥ rather than index their
/// n-vertex graphs with those ids.
void expect_out_of_range_qa_is_malformed(
    NetworkKind kind, const std::string& key,
    const std::function<void(Words&)>& rewrite, WssOutcome expected) {
  SCOPED_TRACE(key);
  const ProtocolParams p = testing::p7_2_1();
  auto adv = std::make_shared<ScriptedAdversary>(PartySet::of({0}));
  adv->add_rule(
      [key](const Message& m, Time) {
        return m.from == 0 && m.type == 1 && m.instance() == key;
      },
      [rewrite](const Message& m, Time, Rng&) {
        SendDecision d;
        Message alt = m;
        rewrite(alt.payload.mut());
        d.replacement = std::move(alt);
        return d;
      });
  testing::MonitoredSim ms = testing::make_monitored_sim(
      {.params = p, .kind = kind, .seed = 7}, adv);
  std::vector<Wss*> inst;
  WssOptions opts;
  for (int i = 0; i < p.n; ++i) {
    inst.push_back(&ms->party(i).spawn<Wss>("wss", 0, 0, opts, nullptr));
  }
  Rng rng(7);
  inst[0]->start({Polynomial::random_with_constant(Fp(1), p.ts, rng)});
  ASSERT_EQ(ms->run(), RunStatus::quiescent);
  for (int i = 1; i < p.n; ++i) {
    EXPECT_EQ(inst[static_cast<std::size_t>(i)]->outcome(), expected)
        << "party " << i;
  }
  EXPECT_TRUE(ms.monitors->ok());
}

TEST(WssHardening, OutOfRangeQaIsMalformed) {
  // Step 5's (sync, G, Q_a), Q_a in the last word: Π_BA #1 decides 0 and
  // the asynchronous exit delivers rows.
  expect_out_of_range_qa_is_malformed(
      NetworkKind::synchronous, "wss/it0/d5/acast",
      [](Words& w) { w.back() = 0xFC00; }, WssOutcome::rows);
  // The (async, A, Q_a, U, rows of U) announcement: Q_a and U follow A's
  // n + 1 words, and an empty U lets Q_a reach the clique check. This
  // schedule misses every synchronous exit, so the announcement is the only
  // way out: rejecting it leaves no output, which Π_WSS permits for a
  // corrupt dealer.
  expect_out_of_range_qa_is_malformed(
      NetworkKind::asynchronous, "wss/asyncq",
      [](Words& w) {
        w[8] = 0xFC00;
        w[9] = 0;
      },
      WssOutcome::none);
}

class BeaverSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BeaverSweep, RandomValuesMultiplyCorrectly) {
  const std::uint64_t seed = GetParam();
  const ProtocolParams p{7, 2, 1};
  Rng vals(seed);
  const Fp x(vals.next_below(Fp::kPrime));
  const Fp y(vals.next_below(Fp::kPrime));
  const Fp a(vals.next_below(Fp::kPrime));
  const Fp b(vals.next_below(Fp::kPrime));
  auto share = [&](Fp v) {
    const Polynomial f = Polynomial::random_with_constant(v, p.ts, vals);
    FpVec s;
    for (int i = 0; i < p.n; ++i) s.push_back(f.eval(eval_point(i)));
    return s;
  };
  const FpVec xs = share(x), ys = share(y), as = share(a), bs = share(b),
              cs = share(a * b);
  auto sim = make_sim({.params = p,
                       .kind = seed % 2 == 0 ? NetworkKind::synchronous
                                             : NetworkKind::asynchronous,
                       .seed = seed});
  std::vector<Beaver*> inst;
  for (int i = 0; i < p.n; ++i) {
    inst.push_back(&sim->party(i).spawn<Beaver>("bv", 1, nullptr));
    TripleShares t;
    t.a = {as[static_cast<std::size_t>(i)]};
    t.b = {bs[static_cast<std::size_t>(i)]};
    t.c = {cs[static_cast<std::size_t>(i)]};
    inst.back()->start({xs[static_cast<std::size_t>(i)]},
                       {ys[static_cast<std::size_t>(i)]}, t);
  }
  ASSERT_EQ(sim->run(), RunStatus::quiescent);
  FpVec px, py;
  for (int i = 0; i < p.n; ++i) {
    px.push_back(eval_point(i));
    py.push_back(inst[static_cast<std::size_t>(i)]->z_shares()[0]);
  }
  const Polynomial f = Polynomial::interpolate(px, py);
  EXPECT_LE(f.degree(), p.ts);
  EXPECT_EQ(f.eval(Fp(0)), x * y);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BeaverSweep,
                         ::testing::Values(11, 12, 13, 14, 15, 16, 17, 18));

}  // namespace
}  // namespace nampc
