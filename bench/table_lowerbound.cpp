// Experiment E3 — the lower-bound attack of Theorem 5.1 (§5), executable.
//
// At the boundary n = 2ts + 2ta (here 4 = 2+2) the partition adversary —
// asynchronous network, one corrupt relay, all P1↔P2 traffic delayed
// "indefinitely" — forces the two output parties of
// f(x1,x2,⊥,⊥) = (x1∧x2, x1∧x2, ⊥, ⊥) into disagreement, for EVERY
// tie-breaking rule a terminating protocol could adopt. The table prints
// one witness per rule; the four per-rule searches are independent and run
// through the sweep engine (--jobs / NAMPC_JOBS).
#include <iostream>

#include "bench_util.h"
#include "core/bounds.h"
#include "lowerbound/lowerbound.h"
#include "util/sweep.h"

using namespace nampc;

namespace {
const char* rule_name(TieBreak r) {
  switch (r) {
    case TieBreak::trust_p3: return "trust P3";
    case TieBreak::trust_p4: return "trust P4";
    case TieBreak::assume_zero: return "assume 0";
    case TieBreak::assume_one: return "assume 1";
  }
  return "?";
}
}  // namespace

int main(int argc, char** argv) {
  const int jobs = sweep_cli_jobs(argc, argv);
  std::cout << "E3: Theorem 5.1 partition attack at n = 2ts + 2ta = 4 "
               "(ts = ta = 1).\n";
  std::cout << "feasible(4,1,1) = " << (feasible(4, 1, 1) ? "yes" : "no")
            << "  (the boundary case; feasible(5,1,1) = "
            << (feasible(5, 1, 1) ? "yes" : "no") << ")\n";

  // One witness search per tie-break rule, in declaration order (the same
  // order find_violations() uses serially).
  Sweep<AttackOutcome> sweep(jobs);
  for (TieBreak rule : {TieBreak::trust_p3, TieBreak::trust_p4,
                        TieBreak::assume_zero, TieBreak::assume_one}) {
    sweep.add([rule] { return find_violation(rule); });
  }
  const std::vector<AttackOutcome> witnesses = sweep.run();

  bench::BenchReport report("lowerbound");
  const std::string t1 = "One violation witness per candidate tie-break rule";
  bench::banner(t1);
  bench::Table t({"tie-break rule", "x1", "x2", "corrupt relay",
                  "fabricated x1", "P1 output", "P2 output", "verdict"});
  bool all_broken = true;
  for (const AttackOutcome& w : witnesses) {
    const bool broken = !w.correct();
    all_broken = all_broken && broken;
    std::string relay = "P";
    relay += std::to_string(w.corrupt_relay + 1);
    t.row(rule_name(w.rule), w.x1 ? 1 : 0, w.x2 ? 1 : 0, relay,
          w.lie_to_p2 ? 1 : 0, w.p1_output ? 1 : 0, w.p2_output ? 1 : 0,
          broken ? (w.agree() ? "wrong output" : "DISAGREEMENT")
                 : "survived (?)");
  }
  t.print();
  report.add(t1, t);
  report.note("all_rules_broken", all_broken ? "yes" : "no");
  report.save();
  std::cout << (all_broken
                    ? "\nevery rule broken: no protocol exists at n = 2ts+2ta, "
                      "matching Theorem 5.1.\n"
                    : "\nsome rule survived — investigate!\n");

  // The paper's canonical instance, spelled out.
  bench::banner("Canonical instance of the proof: π(0,1), corrupt P4 replays "
                "T'24 from π(1,1)");
  const auto o = run_partition_attack(false, true, TieBreak::trust_p4, 3, true,
                                      2025);
  std::cout << "P1 (sees honest transcripts) outputs " << o.p1_output
            << " = x1 ∧ x2;  P2 (fed the foreign T'24) outputs "
            << o.p2_output << ".\nagreement: "
            << (o.agree() ? "yes" : "NO — exactly the contradiction") << "\n";
  return all_broken ? 0 : 1;
}
