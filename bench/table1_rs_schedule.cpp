// Experiment E1 — reproduces **Table 1** of the paper: the simultaneous
// Reed-Solomon error correction and detection schedule used by Π_WSS
// (Protocol 6.2) when a party outside the clique reconstructs its row.
//
// For each row (number of points received m = ts + ta + 1 + x) the bench
// prints the paper's (correct, detect) parameters and then *validates* them
// empirically: decoding must succeed for every error count <= correct,
// must report detection for correct < errors <= correct + detect, and the
// sync/async outcome column must match the paper.
//
// The empirical validations are independent per (ts, ta, x) cell, so they
// fan out through the sweep engine (--jobs / NAMPC_JOBS); the tables are
// rendered on the main thread afterwards, in schedule order.
#include <iostream>

#include "bench_util.h"
#include "rs/reed_solomon.h"
#include "util/rng.h"
#include "util/sweep.h"

using namespace nampc;

namespace {

/// Empirically checks one schedule row over many random codewords.
/// Returns "ok" or a description of the first mismatch.
std::string validate_row(int ts, int ta, int x) {
  Rng rng(1000 + static_cast<std::uint64_t>(x));
  const int m = ts + ta + 1 + x;
  const int correct = x <= ta ? x : ta;
  const int detect = x <= ta ? ta - x : x - ta;
  for (int trial = 0; trial < 20; ++trial) {
    for (int errors = 0; errors <= correct + detect; ++errors) {
      const Polynomial f = Polynomial::random_with_constant(
          Fp(rng.next_below(Fp::kPrime)), ts, rng);
      std::vector<RsPoint> pts;
      for (int i = 1; i <= m; ++i) {
        const Fp xx(static_cast<std::uint64_t>(i));
        Fp y = f.eval(xx);
        if (i <= errors) y += Fp(static_cast<std::uint64_t>(i));
        pts.push_back({xx, y});
      }
      const auto res = rs_decode_scheduled(pts, ts, ta);
      if (errors <= correct) {
        if (res.result.status != RsStatus::ok || res.result.poly != f) {
          return "MISCORRECTION at errors=" + std::to_string(errors);
        }
      } else {
        if (res.result.status != RsStatus::detected) {
          return "MISSED DETECTION at errors=" + std::to_string(errors);
        }
      }
    }
  }
  return "ok";
}

void print_schedule(bench::BenchReport& report, int ts, int ta,
                    const std::vector<std::string>& empirical) {
  const std::string title =
      "Table 1 — simultaneous error correction and detection (ts=" +
      std::to_string(ts) + ", ta=" + std::to_string(ta) + ")";
  bench::banner(title);
  bench::Table t({"points received", "correct", "detect", "outcome (sync)",
                  "outcome (async)", "empirical"});
  for (int x = 0; x <= ts; ++x) {
    const int m = ts + ta + 1 + x;
    const int correct = x <= ta ? x : ta;
    const int detect = x <= ta ? ta - x : x - ta;
    // Paper's outcome columns: in sync, rows with x <= ta always succeed;
    // rows with x > ta either succeed or *detect* (and the party falls back
    // to the dealer-row check). In async, rows with x < ta may need to wait
    // for more points; x >= ta always succeeds (at most ta errors exist).
    std::string sync_outcome = x <= ta ? "Success" : "Success/Detect";
    std::string async_outcome = x < ta ? "Success/Wait"
                                       : (x == ta ? "Success" : "-");
    std::string label = "ts+ta+1";
    if (x > 0) {
      label += '+';
      label += std::to_string(x);
    }
    label += " (=" + std::to_string(m) + ")";
    t.row(label, correct, detect, sync_outcome, async_outcome,
          empirical[static_cast<std::size_t>(x)]);
  }
  t.print();
  report.add(title, t);
}

}  // namespace

int main(int argc, char** argv) {
  const int jobs = sweep_cli_jobs(argc, argv);
  std::cout << "E1: Table 1 of [Patil-Patra PODC'25] — decode schedule of "
               "Corollaries 3.3/3.4,\nvalidated against the Berlekamp-Welch "
               "implementation (20 random codewords per cell).\n";
  const std::vector<std::pair<int, int>> schedules = {
      {2, 1},   // the n=7 optimal point
      {3, 2},   // the n=11 sweep point
      {4, 2},   // 2ta = ts boundary
  };

  // One validation job per (ts, ta, x) cell; results come back in
  // submission order, i.e. grouped by schedule with x ascending.
  Sweep<std::string> sweep(jobs);
  for (const auto& [ts, ta] : schedules) {
    for (int x = 0; x <= ts; ++x) {
      sweep.add([ts = ts, ta = ta, x] { return validate_row(ts, ta, x); });
    }
  }
  const std::vector<std::string> cells = sweep.run();

  bench::BenchReport report("rs_schedule");
  std::size_t next = 0;
  for (const auto& [ts, ta] : schedules) {
    std::vector<std::string> empirical(
        cells.begin() + static_cast<std::ptrdiff_t>(next),
        cells.begin() + static_cast<std::ptrdiff_t>(next + ts + 1));
    next += static_cast<std::size_t>(ts) + 1;
    print_schedule(report, ts, ta, empirical);
  }
  report.save();
  return 0;
}
