// Ablation tables for the design choices called out in DESIGN.md:
//  A1 — batching (substitution #5): sharing L secrets through ONE WSS
//       instance vs L separate instances. The consistency-graph machinery
//       amortises; message growth per extra secret is marginal.
//  A2 — primitive mode (substitution #3): Full SBA/ABA emulation vs the
//       Ideal gadgets, same protocol on top — output-equivalent (see
//       test_crosscheck), wildly different message bills.
//  A3 — Δ-scaling: all T_* formulas are linear in Δ; virtual completion
//       times must scale accordingly while message counts stay fixed.
//  A4 — ABA coin source: ideal common coin vs Ben-Or local coins over 40
//       seeds per mode.
//
// Every cell is an independent simulation; the WSS cells (A1–A3) and the
// 80 per-seed ABA runs (A4) fan out through the sweep engine
// (--jobs / NAMPC_JOBS), with aggregation and rendering on the main thread.
#include <iostream>

#include "bench_util.h"
#include "broadcast/ba.h"
#include "sharing/wss.h"
#include "util/sweep.h"

using namespace nampc;

namespace {

/// Aggregate invariant-monitor verdict across every grid cell.
bench::MonitorTally g_monitors;

struct Stats {
  std::uint64_t messages = 0;
  std::uint64_t words = 0;
  Time latest = 0;
  bool ok = true;
};

Stats run_wss(ProtocolParams p, int num_secrets, int instances, bool ideal,
              Time delta) {
  Simulation::Config cfg;
  cfg.params = p;
  cfg.kind = NetworkKind::synchronous;
  cfg.seed = 9;
  cfg.delta = delta;
  cfg.ideal_primitives = ideal;
  Simulation sim(cfg, std::make_shared<Adversary>());
  bench::MonitoredRun mon_guard(sim, g_monitors);
  Rng rng(9);
  std::vector<std::vector<Wss*>> all(static_cast<std::size_t>(instances));
  for (int inst = 0; inst < instances; ++inst) {
    WssOptions opts;
    opts.num_secrets = num_secrets;
    std::string key = "w";
    key += std::to_string(inst);
    for (int i = 0; i < p.n; ++i) {
      all[static_cast<std::size_t>(inst)].push_back(
          &sim.party(i).spawn<Wss>(key, 0, 0, opts, nullptr));
    }
    std::vector<Polynomial> qs;
    for (int k = 0; k < num_secrets; ++k) {
      qs.push_back(Polynomial::random_with_constant(Fp(1), p.ts, rng));
    }
    all[static_cast<std::size_t>(inst)][0]->start(qs);
  }
  Stats s;
  s.ok = sim.run() == RunStatus::quiescent;
  for (const auto& group : all) {
    for (Wss* w : group) {
      if (w->outcome() != WssOutcome::rows) s.ok = false;
      s.latest = std::max(s.latest, w->output_time());
    }
  }
  s.messages = sim.metrics().messages_sent;
  s.words = sim.metrics().words_sent;
  return s;
}

/// One A4 seed: an async Π_BA run with mixed inputs under the chosen coin
/// source. Aggregated per mode on the main thread.
struct CoinRun {
  bool quiescent = false;
  bool all_agree = false;
  std::uint64_t rounds = 0;  ///< per-party average for this run
};

CoinRun run_coin(bool local, std::uint64_t seed) {
  Simulation::Config cfg;
  cfg.params = {7, 2, 1};
  cfg.kind = NetworkKind::asynchronous;
  cfg.seed = seed;
  cfg.local_coins = local;
  Simulation sim(cfg, std::make_shared<Adversary>());
  bench::MonitoredRun mon_guard(sim, g_monitors);
  std::vector<Ba*> inst;
  for (int i = 0; i < 7; ++i) {
    inst.push_back(&sim.party(i).spawn<Ba>("ba", 0, nullptr));
  }
  for (int i = 0; i < 7; ++i) {
    inst[static_cast<std::size_t>(i)]->start(i % 2 == 0);
  }
  CoinRun r;
  if (sim.run() != RunStatus::quiescent) return r;
  r.quiescent = true;
  bool all = true;
  std::optional<bool> v;
  for (Ba* b : inst) {
    if (!b->has_output()) {
      all = false;
      continue;
    }
    if (!v.has_value()) v = b->output();
    if (*v != b->output()) all = false;
  }
  r.all_agree = all;
  r.rounds = sim.metrics().aba_rounds / 7;  // per-party average
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const int jobs = sweep_cli_jobs(argc, argv);
  bench::BenchReport report("ablation");
  const ProtocolParams p{7, 2, 1};
  const std::vector<int> ls = {1, 2, 4, 8, 16};
  const std::vector<ProtocolParams> a2_params = {
      ProtocolParams{4, 1, 0}, ProtocolParams{7, 2, 1},
      ProtocolParams{10, 3, 1}};
  const std::vector<Time> deltas = {5, 10, 20, 40};

  // A1 (batched + separate per L), A2 (full + ideal per params) and A3
  // (per Δ) are all run_wss cells — one sweep covers them.
  Sweep<Stats> wss_sweep(jobs);
  for (int l : ls) {
    wss_sweep.add([p, l] { return run_wss(p, l, 1, false, 10); });
    wss_sweep.add([p, l] { return run_wss(p, 1, l, false, 10); });
  }
  for (ProtocolParams q : a2_params) {
    wss_sweep.add([q] { return run_wss(q, 1, 1, false, 10); });
    wss_sweep.add([q] { return run_wss(q, 1, 1, true, 10); });
  }
  for (Time d : deltas) {
    wss_sweep.add([p, d] { return run_wss(p, 1, 1, false, d); });
  }
  const std::vector<Stats> wss = wss_sweep.run();
  std::size_t idx = 0;

  const std::string t1 =
      "A1 — batching: L secrets in one Π_WSS vs L instances "
      "(n=7, ts=2, ta=1, full primitives, sync)";
  bench::banner(t1);
  bench::Table a1({"L", "batched msgs", "batched words", "separate msgs",
                   "separate words", "msg amplification"});
  for (int l : ls) {
    const Stats batched = wss[idx++];
    const Stats separate = wss[idx++];
    a1.row(l, batched.messages, batched.words, separate.messages,
           separate.words,
           static_cast<double>(separate.messages) /
               static_cast<double>(batched.messages));
  }
  a1.print();
  report.add(t1, a1);
  std::cout << "(batched payload grows with L; the broadcast/agreement "
               "machinery — the dominant message cost — is paid once)\n";

  const std::string t2 =
      "A2 — primitive mode: Full SBA/ABA vs Ideal gadgets (one Π_WSS, sync)";
  bench::banner(t2);
  bench::Table a2({"n", "ts", "ta", "full msgs", "ideal msgs", "ratio",
                   "full latest t", "ideal latest t"});
  for (ProtocolParams q : a2_params) {
    const Stats full = wss[idx++];
    const Stats ideal = wss[idx++];
    a2.row(q.n, q.ts, q.ta, full.messages, ideal.messages,
           static_cast<double>(full.messages) /
               static_cast<double>(ideal.messages),
           full.latest, ideal.latest);
  }
  a2.print();
  report.add(t2, a2);

  const std::string t3 =
      "A3 — Δ-scaling: completion time linear in Δ, messages invariant "
      "(one Π_WSS, n=7)";
  bench::banner(t3);
  bench::Table a3({"delta", "latest t", "t / delta", "messages"});
  for (Time d : deltas) {
    const Stats s = wss[idx++];
    a3.row(d, s.latest, static_cast<double>(s.latest) / static_cast<double>(d),
           s.messages);
  }
  a3.print();
  report.add(t3, a3);
  std::cout << "(t/delta constant and messages constant => the protocol's "
               "round structure is delay-independent, as the formulas "
               "require)\n";

  const std::string t4 =
      "A4 — ABA coin source (substitution #2): ideal common coin vs Ben-Or "
      "local coins (async, mixed inputs, 40 seeds)";
  bench::banner(t4);
  bench::Table a4({"coin", "runs", "all terminated", "agreement", "avg rounds",
                   "max rounds"});
  const int runs = 40;
  Sweep<CoinRun> coin_sweep(jobs);
  for (bool local : {false, true}) {
    for (int s = 0; s < runs; ++s) {
      coin_sweep.add([local, s] {
        return run_coin(local, 4000 + static_cast<std::uint64_t>(s));
      });
    }
  }
  const std::vector<CoinRun> coin_runs = coin_sweep.run();
  std::size_t cidx = 0;
  for (bool local : {false, true}) {
    int terminated = 0;
    int agreed = 0;
    std::uint64_t total_rounds = 0;
    std::uint64_t max_rounds = 0;
    for (int s = 0; s < runs; ++s) {
      const CoinRun r = coin_runs[cidx++];
      if (!r.quiescent) continue;
      if (r.all_agree) {
        ++terminated;
        ++agreed;
      }
      total_rounds += r.rounds;
      max_rounds = std::max(max_rounds, r.rounds);
    }
    a4.row(local ? "local (Ben-Or)" : "ideal common", runs,
           terminated == runs ? "yes" : std::to_string(terminated),
           agreed == runs ? "yes" : std::to_string(agreed),
           static_cast<double>(total_rounds) / runs, max_rounds);
  }
  a4.print();
  report.add(t4, a4);
  std::cout << "(local coins: almost-surely terminating — more rounds, same "
               "agreement; the ideal coin models the coin-tossing "
               "subprotocols of [24, 6])\n";
  report.set_monitors(g_monitors);
  report.save();
  return 0;
}
