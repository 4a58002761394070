// Experiment E5 — Π_VSS matrix (Theorem 7.3): strong commitment, timing vs
// T_VSS, reveal audit (⊆ Z), across networks and adversaries.
// The 18 grid cells (parameter point x network x adversary) fan out
// through the sweep engine (--jobs / NAMPC_JOBS); rendering happens on the
// main thread in submission order.
#include <iostream>

#include "adversary/scripted.h"
#include "bench_util.h"
#include "sharing/vss.h"
#include "util/sweep.h"

using namespace nampc;

namespace {

/// Aggregate invariant-monitor verdict across every grid cell.
bench::MonitorTally g_monitors;

struct Result {
  int holders = 0;
  int empty = 0;
  Time latest = -1;
  bool shares_degree_ts = true;
  bool reveals_in_z = true;
  std::uint64_t messages = 0;
};

Result run(ProtocolParams p, NetworkKind kind, const std::string& attack,
           bool ideal, PartySet z, std::uint64_t seed) {
  Simulation::Config cfg;
  cfg.params = p;
  cfg.kind = kind;
  cfg.seed = seed;
  cfg.ideal_primitives = ideal;

  const int budget = kind == NetworkKind::synchronous ? p.ts : p.ta;
  PartySet corrupt;
  auto adv = std::make_shared<ScriptedAdversary>();
  if (attack == "silent-z" && !z.empty() && z.size() <= budget) {
    corrupt = z;
    adv = std::make_shared<ScriptedAdversary>(corrupt);
    for (int id : corrupt.to_vector()) adv->silence(id);
  } else if (attack == "cheating-dealer" && budget > 0) {
    corrupt = PartySet::of({0});
    adv = std::make_shared<ScriptedAdversary>(corrupt);
    adv->add_rule(
        [victim = p.n - 1](const Message& m, Time) {
          return m.from == 0 && m.to == victim && m.type == 1 &&
                 m.instance() == "vss";
        },
        [](const Message& m, Time, Rng&) {
          SendDecision d;
          Message alt = m;
          for (Word& w : alt.payload.mut()) w = (Fp(w) + Fp(9)).value();
          d.replacement = std::move(alt);
          return d;
        });
  }

  Simulation sim(cfg, adv);
  bench::MonitoredRun mon_guard(sim, g_monitors);
  std::vector<Vss*> inst;
  for (int i = 0; i < p.n; ++i) {
    inst.push_back(&sim.party(i).spawn<Vss>("vss", 0, 0, 1, z, nullptr));
  }
  Rng rng(seed);
  inst[0]->start({Polynomial::random_with_constant(Fp(555), p.ts, rng)});
  (void)sim.run();

  Result r;
  FpVec xs, ys;
  for (int i = 0; i < p.n; ++i) {
    if (corrupt.contains(i)) continue;
    Vss* v = inst[static_cast<std::size_t>(i)];
    if (v->outcome() == WssOutcome::rows) {
      ++r.holders;
      xs.push_back(eval_point(i));
      ys.push_back(v->share(0));
      r.latest = std::max(r.latest, v->output_time());
    } else {
      ++r.empty;
    }
    if (!v->revealed_parties().subset_of(z)) r.reveals_in_z = false;
  }
  if (static_cast<int>(xs.size()) > p.ts + 1) {
    const Polynomial f = Polynomial::interpolate(xs, ys);
    r.shares_degree_ts = f.degree() <= p.ts;
  }
  r.messages = sim.metrics().messages_sent;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const int jobs = sweep_cli_jobs(argc, argv);
  std::cout << "E5: Pi_VSS matrix (Theorem 7.3). T_VSS = "
               "(ts+1)(5T_BC+T'_WSS+2T_BA); strong commitment: honest "
               "outputs are all-or-none and lie on one degree-ts "
               "polynomial; reveals stay inside Z.\n";
  bench::BenchReport report("vss");
  struct Cfg {
    ProtocolParams p;
    bool ideal;
    PartySet z;
  };
  const std::vector<Cfg> cfgs = {Cfg{{4, 1, 0}, false, PartySet::of({3})},
                                 Cfg{{5, 1, 1}, false, PartySet{}},
                                 Cfg{{7, 2, 1}, true, PartySet::of({6})}};
  const std::vector<NetworkKind> kinds = {NetworkKind::synchronous,
                                          NetworkKind::asynchronous};
  const std::vector<const char*> attacks = {"none", "silent-z",
                                            "cheating-dealer"};

  Sweep<Result> sweep(jobs);
  for (const Cfg& c : cfgs) {
    for (NetworkKind kind : kinds) {
      for (const char* attack : attacks) {
        sweep.add([c, kind, attack] {
          return run(c.p, kind, attack, c.ideal, c.z, 88);
        });
      }
    }
  }
  const std::vector<Result> results = sweep.run();

  std::size_t idx = 0;
  for (const Cfg& c : cfgs) {
    const Timing tm = Timing::derive(c.p, 10);
    const std::string title =
        "n=" + std::to_string(c.p.n) + " ts=" + std::to_string(c.p.ts) +
        " ta=" + std::to_string(c.p.ta) + " Z=" + c.z.str() +
        "  T_VSS=" + std::to_string(tm.t_vss) +
        (c.ideal ? "  [ideal BA/SBA]" : "  [full primitives]");
    bench::banner(title);
    bench::Table t({"network", "adversary", "holders", "no output",
                    "latest t", "<=T_VSS", "deg<=ts", "reveals in Z",
                    "messages"});
    for (NetworkKind kind : kinds) {
      for (const char* attack : attacks) {
        const Result r = results[idx++];
        const bool sync = kind == NetworkKind::synchronous;
        t.row(sync ? "sync" : "async", attack, r.holders, r.empty, r.latest,
              sync && r.latest >= 0
                  ? (r.latest <= tm.t_vss ? "yes" : "NO")
                  : "n/a",
              r.shares_degree_ts ? "yes" : "NO",
              r.reveals_in_z ? "yes" : "NO", r.messages);
      }
    }
    t.print();
    report.add(title, t);
  }
  std::cout << "(cheating-dealer rows: all-or-none outputs are both valid "
               "per strong commitment)\n";
  report.set_monitors(g_monitors);
  report.save();
  return 0;
}
