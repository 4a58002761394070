// Property sweeps: the sharing-stack invariants under randomized seeds and
// mixed adversaries (each seed yields different message schedules and
// different adversarial interleavings).
//
// The per-seed simulations are independent, so each property fans its seed
// grid out through the sweep engine (--jobs / NAMPC_JOBS honoured via
// sweep_default_jobs). Jobs run the simulations and return plain result
// structs; every gtest assertion runs on the main thread afterwards, in
// seed order — the failure output is identical to the old serial loops.
#include <gtest/gtest.h>

#include "sharing/vss.h"
#include "sim_helpers.h"
#include "util/sweep.h"

namespace nampc {
namespace {

using testing::make_sim;
using testing::SimSpec;

const std::vector<std::uint64_t> kSeeds = {1001, 1002, 1003,
                                           1004, 1005, 1006};

/// Mixed adversary: one corrupt party garbles, another stays silent
/// (budget permitting).
std::shared_ptr<ScriptedAdversary> mixed_adversary(const ProtocolParams& p,
                                                   NetworkKind kind) {
  const int budget = kind == NetworkKind::synchronous ? p.ts : p.ta;
  PartySet corrupt;
  for (int i = 0; i < budget; ++i) corrupt.insert(p.n - 1 - i);
  auto adv = std::make_shared<ScriptedAdversary>(corrupt);
  bool garble = true;
  for (int id : corrupt.to_vector()) {
    if (garble) {
      adv->garble_on(id, "");
    } else {
      adv->silence(id);
    }
    garble = !garble;
  }
  return adv;
}

struct WssPartyRec {
  int id = 0;
  bool rows = false;
  Fp share;
  Fp expected;
  int revealed = 0;
  bool revealed_in_corrupt = false;
  std::string revealed_str;
  Time output_time = 0;
};

struct WssRun {
  NetworkKind kind = NetworkKind::synchronous;
  bool quiescent = false;
  Time t_wss = 0;
  std::vector<WssPartyRec> honest;
};

WssRun run_wss_mixed(std::uint64_t seed, NetworkKind kind) {
  const ProtocolParams p{7, 2, 1};
  auto adv = mixed_adversary(p, kind);
  const PartySet corrupt = adv->corrupt_set();
  auto sim = make_sim({.params = p, .kind = kind, .seed = seed}, adv);
  std::vector<Wss*> inst;
  WssOptions opts;
  for (int i = 0; i < p.n; ++i) {
    inst.push_back(&sim->party(i).spawn<Wss>("wss", 0, 0, opts, nullptr));
  }
  Rng rng(seed * 31 + 1);
  const Polynomial q = Polynomial::random_with_constant(Fp(7), p.ts, rng);
  inst[0]->start({q});
  WssRun out;
  out.kind = kind;
  out.quiescent = sim->run() == RunStatus::quiescent;
  out.t_wss = sim->timing().t_wss;
  if (!out.quiescent) return out;
  for (int i = 0; i < p.n; ++i) {
    if (corrupt.contains(i)) continue;
    Wss* w = inst[static_cast<std::size_t>(i)];
    WssPartyRec rec;
    rec.id = i;
    rec.rows = w->outcome() == WssOutcome::rows;
    if (rec.rows) rec.share = w->share(0);
    rec.expected = q.eval(eval_point(i));
    rec.revealed = w->revealed_parties().size();
    rec.revealed_in_corrupt = w->revealed_parties().subset_of(corrupt);
    rec.revealed_str = w->revealed_parties().str();
    rec.output_time = w->output_time();
    out.honest.push_back(rec);
  }
  return out;
}

TEST(SeedSweep, WssInvariantsHoldUnderMixedAdversary) {
  const ProtocolParams p{7, 2, 1};
  Sweep<WssRun> sweep;
  for (std::uint64_t seed : kSeeds) {
    for (NetworkKind kind :
         {NetworkKind::synchronous, NetworkKind::asynchronous}) {
      sweep.add([seed, kind] { return run_wss_mixed(seed, kind); });
    }
  }
  const std::vector<WssRun> runs = sweep.run();
  std::size_t idx = 0;
  for (std::uint64_t seed : kSeeds) {
    for (NetworkKind kind :
         {NetworkKind::synchronous, NetworkKind::asynchronous}) {
      const WssRun& r = runs[idx++];
      ASSERT_TRUE(r.quiescent) << "seed " << seed;
      // Invariant 1 (correctness): honest dealer => every honest party ends
      // with its true share.
      // Invariant 2 (privacy audit): at most ts-ta rows revealed.
      for (const WssPartyRec& rec : r.honest) {
        ASSERT_TRUE(rec.rows) << "seed " << seed << " party " << rec.id;
        EXPECT_EQ(rec.share, rec.expected);
        EXPECT_LE(rec.revealed, p.ts - p.ta);
        if (kind == NetworkKind::synchronous) {
          // Sync honest dealer: only corrupt rows may go public.
          EXPECT_TRUE(rec.revealed_in_corrupt) << rec.revealed_str;
          EXPECT_LE(rec.output_time, r.t_wss);
        }
      }
    }
  }
}

struct VssCommitRun {
  bool quiescent = false;
  int holders = 0;
  int empty = 0;
  int degree = -1;  ///< interpolated degree when holders > ts+1, else -1
};

VssCommitRun run_vss_corrupt_dealer(std::uint64_t seed) {
  const ProtocolParams p{4, 1, 0};
  // The corrupt dealer garbles a pseudo-random subset of its row messages.
  auto adv = std::make_shared<ScriptedAdversary>(PartySet::of({0}));
  adv->add_rule(
      [seed](const Message& m, Time) {
        if (m.from != 0 || m.type != 1 || m.instance() != "vss") return false;
        return ((seed >> (m.to % 8)) & 1u) != 0;  // seed-dependent victims
      },
      [](const Message& m, Time, Rng&) {
        SendDecision d;
        Message alt = m;
        for (Word& w : alt.payload.mut()) w = (Fp(w) + Fp(11)).value();
        d.replacement = std::move(alt);
        return d;
      });
  auto sim = make_sim(
      {.params = p, .kind = NetworkKind::synchronous, .seed = seed}, adv);
  std::vector<Vss*> inst;
  for (int i = 0; i < p.n; ++i) {
    inst.push_back(
        &sim->party(i).spawn<Vss>("vss", 0, 0, 1, PartySet::of({3}), nullptr));
  }
  Rng rng(seed * 7 + 3);
  inst[0]->start({Polynomial::random_with_constant(Fp(1), p.ts, rng)});
  VssCommitRun out;
  out.quiescent = sim->run() == RunStatus::quiescent;
  if (!out.quiescent) return out;
  std::vector<int> holders;
  for (int i = 1; i < p.n; ++i) {
    if (inst[static_cast<std::size_t>(i)]->outcome() == WssOutcome::rows) {
      holders.push_back(i);
    } else {
      ++out.empty;
    }
  }
  out.holders = static_cast<int>(holders.size());
  if (out.holders > p.ts + 1) {
    FpVec xs, ys;
    for (int i : holders) {
      xs.push_back(eval_point(i));
      ys.push_back(inst[static_cast<std::size_t>(i)]->share(0));
    }
    out.degree = Polynomial::interpolate(xs, ys).degree();
  }
  return out;
}

TEST(SeedSweep, VssCommitmentHoldsUnderCorruptDealer) {
  const ProtocolParams p{4, 1, 0};
  const std::vector<VssCommitRun> runs = sweep_run(
      sweep_default_jobs(), kSeeds.size(),
      [](std::size_t i) { return run_vss_corrupt_dealer(kSeeds[i]); });
  for (std::size_t i = 0; i < kSeeds.size(); ++i) {
    const std::uint64_t seed = kSeeds[i];
    const VssCommitRun& r = runs[i];
    ASSERT_TRUE(r.quiescent) << "seed " << seed;
    // Strong commitment: all-or-none among honest; holders' shares lie on
    // one degree-ts polynomial.
    EXPECT_TRUE(r.holders == 0 || r.empty == 0)
        << "seed " << seed << ": " << r.holders << " holders, " << r.empty
        << " empty-handed";
    if (r.degree >= 0) {
      EXPECT_LE(r.degree, p.ts);
    }
  }
}

struct SchedulerRun {
  bool quiescent = false;
  std::vector<WssPartyRec> parties;
};

SchedulerRun run_async_scheduler(std::uint64_t seed) {
  // Pure scheduling adversary (no corruptions) with pathological delays:
  // honest runs must still converge with full outputs.
  const ProtocolParams p{5, 1, 1};
  auto adv = std::make_shared<ScriptedAdversary>();
  adv->add_rule(
      [](const Message& m, Time) { return (m.from + m.to) % 3 == 0; },
      [](const Message&, Time, Rng& rng) {
        SendDecision d;
        d.delay = static_cast<Time>(rng.next_in(500, 2000));
        return d;
      });
  auto sim = make_sim(
      {.params = p, .kind = NetworkKind::asynchronous, .seed = seed}, adv);
  std::vector<Vss*> inst;
  for (int i = 0; i < p.n; ++i) {
    inst.push_back(
        &sim->party(i).spawn<Vss>("vss", 0, 0, 1, PartySet{}, nullptr));
  }
  Rng rng(seed + 17);
  const Polynomial q = Polynomial::random_with_constant(Fp(3), p.ts, rng);
  inst[0]->start({q});
  SchedulerRun out;
  out.quiescent = sim->run() == RunStatus::quiescent;
  if (!out.quiescent) return out;
  for (int i = 0; i < p.n; ++i) {
    WssPartyRec rec;
    rec.id = i;
    rec.rows = inst[static_cast<std::size_t>(i)]->outcome() == WssOutcome::rows;
    if (rec.rows) rec.share = inst[static_cast<std::size_t>(i)]->share(0);
    rec.expected = q.eval(eval_point(i));
    out.parties.push_back(rec);
  }
  return out;
}

TEST(SeedSweep, AsyncSchedulerCannotBreakAgreement) {
  const std::vector<SchedulerRun> runs = sweep_run(
      sweep_default_jobs(), kSeeds.size(),
      [](std::size_t i) { return run_async_scheduler(kSeeds[i]); });
  for (std::size_t i = 0; i < kSeeds.size(); ++i) {
    const std::uint64_t seed = kSeeds[i];
    const SchedulerRun& r = runs[i];
    ASSERT_TRUE(r.quiescent) << "seed " << seed;
    for (const WssPartyRec& rec : r.parties) {
      ASSERT_TRUE(rec.rows) << "seed " << seed << " party " << rec.id;
      EXPECT_EQ(rec.share, rec.expected);
    }
  }
}

}  // namespace
}  // namespace nampc
