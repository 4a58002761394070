// Robustness / fault-injection tests: corrupt parties spraying random
// garbage payloads, wrong-length vectors, replayed and type-confused
// messages into every protocol of the stack. The honest protocol must
// neither crash nor lose its guarantees — malformed traffic is Byzantine
// behaviour like any other. Every run carries the full invariant-monitor
// catalogue (sim_helpers.h make_monitored_sim): the theorems must hold not
// just at the asserted outputs but at every intermediate primitive.
#include <gtest/gtest.h>

#include "mpc/mpc.h"
#include "sharing/vss.h"
#include "sim_helpers.h"

namespace nampc {
namespace {

using testing::make_monitored_sim;
using testing::make_sim;
using testing::SimSpec;

/// Rewrites every payload from `p` into random junk of random length, and
/// randomises the message type half of the time.
std::shared_ptr<ScriptedAdversary> garbage_adversary(PartySet corrupt) {
  auto adv = std::make_shared<ScriptedAdversary>(corrupt);
  adv->add_rule(
      [corrupt](const Message& m, Time) { return corrupt.contains(m.from); },
      [](const Message& m, Time, Rng& rng) {
        SendDecision d;
        Message alt = m;
        const std::uint64_t len = rng.next_below(6);
        Words& junk = alt.payload.mut();
        junk.clear();
        for (std::uint64_t i = 0; i < len; ++i) junk.push_back(rng.next_u64());
        if (rng.next_bool()) alt.type = static_cast<int>(rng.next_below(9));
        d.replacement = std::move(alt);
        return d;
      });
  return adv;
}

struct FuzzCase {
  NetworkKind kind;
  std::uint64_t seed;
};

class GarbageTest : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(GarbageTest, WssSurvivesGarbageParties) {
  const auto& c = GetParam();
  const ProtocolParams p{7, 2, 1};
  const int budget = c.kind == NetworkKind::synchronous ? p.ts : p.ta;
  PartySet corrupt;
  for (int i = 0; i < budget; ++i) corrupt.insert(p.n - 1 - i);
  auto sim = make_monitored_sim({.params = p, .kind = c.kind, .seed = c.seed},
                                garbage_adversary(corrupt));
  std::vector<Wss*> inst;
  WssOptions opts;
  for (int i = 0; i < p.n; ++i) {
    inst.push_back(&sim->party(i).spawn<Wss>("wss", 0, 0, opts, nullptr));
  }
  Rng rng(c.seed);
  const Polynomial q = Polynomial::random_with_constant(Fp(99), p.ts, rng);
  inst[0]->start({q});
  EXPECT_EQ(sim->run(), RunStatus::quiescent);
  EXPECT_TRUE(sim.monitors->ok()) << sim.monitors->violations().front().detail;
  for (int i = 0; i < p.n; ++i) {
    if (corrupt.contains(i)) continue;
    Wss* w = inst[static_cast<std::size_t>(i)];
    ASSERT_EQ(w->outcome(), WssOutcome::rows) << "party " << i;
    EXPECT_EQ(w->share(0), q.eval(eval_point(i)));
  }
}

TEST_P(GarbageTest, VssSurvivesGarbageParties) {
  const auto& c = GetParam();
  const ProtocolParams p{4, 1, 0};
  if (c.kind == NetworkKind::asynchronous) {
    GTEST_SKIP() << "ta = 0: no corruption budget in async";
  }
  const PartySet corrupt = PartySet::of({3});
  auto sim = make_monitored_sim({.params = p, .kind = c.kind, .seed = c.seed},
                                garbage_adversary(corrupt));
  std::vector<Vss*> inst;
  for (int i = 0; i < p.n; ++i) {
    inst.push_back(
        &sim->party(i).spawn<Vss>("vss", 0, 0, 1, PartySet::of({3}), nullptr));
  }
  Rng rng(c.seed ^ 5);
  const Polynomial q = Polynomial::random_with_constant(Fp(123), p.ts, rng);
  inst[0]->start({q});
  EXPECT_EQ(sim->run(), RunStatus::quiescent);
  EXPECT_TRUE(sim.monitors->ok()) << sim.monitors->violations().front().detail;
  for (int i = 0; i < 3; ++i) {
    Vss* v = inst[static_cast<std::size_t>(i)];
    ASSERT_EQ(v->outcome(), WssOutcome::rows) << "party " << i;
    EXPECT_EQ(v->share(0), q.eval(eval_point(i)));
  }
}

TEST_P(GarbageTest, MpcSurvivesGarbageParties) {
  const auto& c = GetParam();
  const ProtocolParams p{5, 1, 1};
  const PartySet corrupt = PartySet::of({4});
  Circuit circuit;
  const int a = circuit.input(0);
  const int b = circuit.input(1);
  circuit.mark_output(circuit.mul(a, b));
  auto sim = make_monitored_sim({.params = p, .kind = c.kind, .seed = c.seed},
                                garbage_adversary(corrupt));
  std::vector<Mpc*> inst;
  for (int i = 0; i < p.n; ++i) {
    inst.push_back(&sim->party(i).spawn<Mpc>(
        "mpc", circuit, FpVec{Fp(static_cast<std::uint64_t>(i + 2))},
        nullptr));
  }
  EXPECT_EQ(sim->run(), RunStatus::quiescent);
  EXPECT_TRUE(sim.monitors->ok()) << sim.monitors->violations().front().detail;
  // 2 * 3 = 6 regardless of what the garbage party sprays.
  for (int i = 0; i < 4; ++i) {
    Mpc* m = inst[static_cast<std::size_t>(i)];
    ASSERT_TRUE(m->has_output()) << "party " << i;
    EXPECT_EQ(m->output()[0], Fp(6));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, GarbageTest,
    ::testing::Values(FuzzCase{NetworkKind::synchronous, 301},
                      FuzzCase{NetworkKind::synchronous, 302},
                      FuzzCase{NetworkKind::asynchronous, 303},
                      FuzzCase{NetworkKind::asynchronous, 304}));

TEST(Robustness, ReplayedMessagesAreIdempotent) {
  // A corrupt party duplicates every message it sends (replay): dedup
  // logic in the receivers must keep the protocols correct.
  const ProtocolParams p{7, 2, 1};
  const PartySet corrupt = PartySet::of({6});
  auto adv = std::make_shared<ScriptedAdversary>(corrupt);
  adv->add_rule(
      [](const Message& m, Time) { return m.from == 6; },
      [](const Message& m, Time, Rng&) {
        SendDecision d;
        Message copy = m;  // schedule an extra copy with default delay
        d.replacement = std::move(copy);
        return d;
      });
  auto sim = make_monitored_sim({.params = p, .kind = NetworkKind::synchronous,
                                 .seed = 305},
                                adv);
  std::vector<Wss*> inst;
  WssOptions opts;
  for (int i = 0; i < p.n; ++i) {
    inst.push_back(&sim->party(i).spawn<Wss>("wss", 0, 0, opts, nullptr));
  }
  Rng rng(306);
  const Polynomial q = Polynomial::random_with_constant(Fp(55), p.ts, rng);
  inst[0]->start({q});
  EXPECT_EQ(sim->run(), RunStatus::quiescent);
  EXPECT_TRUE(sim.monitors->ok()) << sim.monitors->violations().front().detail;
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(inst[static_cast<std::size_t>(i)]->outcome(), WssOutcome::rows);
    EXPECT_EQ(inst[static_cast<std::size_t>(i)]->share(0),
              q.eval(eval_point(i)));
  }
}

}  // namespace
}  // namespace nampc
