// Experiment E10 — large-n scaling engine (BENCH_scaling): latency,
// message-volume and allocation-behaviour curves as n grows, for the full
// protocol stack and for the two scaling kernels (batched RS encode,
// incremental Star). Together the sections cover n in {10,16,32,64,128}:
// the end-to-end WSS curve tops out at n=64 and VSS at n=24 (message
// complexity makes larger full-stack VSS runs infeasible in a bench budget;
// see EXPERIMENTS.md), while Acast/BC and both kernels reach n=128.
//
// Wall-clock cells are intentionally present (unlike the protocol tables,
// this file IS the perf trajectory); the bench-smoke shape gate ignores
// cell values.
//
// --smoke: runs only the n=64 synchronous WSS cell and exits nonzero unless
// every honest party got rows and the invariant monitors stayed clean — the
// CI scaling-smoke gate (wall-clock budget enforced by the job's timeout).
#include <chrono>
#include <cstring>
#include <iostream>

#include "bench_util.h"
#include "broadcast/bc.h"
#include "graph/star_incremental.h"
#include "net/simulation.h"
#include "rs/rs_encode.h"
#include "sharing/vss.h"
#include "util/sweep.h"

using namespace nampc;

namespace {

/// Aggregate invariant-monitor verdict across every grid cell.
bench::MonitorTally g_monitors;

/// Widest feasible (ts, ta) ladder with ta ~ ts/2: ts = (n-1)/3 keeps
/// n > 2ts + max(2ta, ts) = 3ts tight (n=64 -> (21,10), n=128 -> (42,21)).
ProtocolParams params_for(int n) {
  const int ts = (n - 1) / 3;
  return ProtocolParams{n, ts, ts / 2};
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

std::string fixed2(double v) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(2) << v;
  return os.str();
}

struct E2eResult {
  int with_rows = 0;
  int no_output = 0;
  Time latest = -1;
  std::uint64_t messages = 0;
  std::uint64_t words = 0;
  std::uint64_t events = 0;
  std::uint64_t peak_queue = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t violations = 0;
  double wall_ms = 0;
  RunStatus status = RunStatus::quiescent;
  std::string flight_path;  ///< flight-record JSON, when the valve wrote one
};

/// Valve trips name their flight record in the bench's own stderr summary
/// (EXPERIMENTS.md §S1a follow-up): a CI log line points straight at the
/// artifact instead of leaving readers to guess what NAMPC_FLIGHT_DIR held.
void report_valve_trip(const std::string& label, const E2eResult& r) {
  if (r.status != RunStatus::event_limit) return;
  std::cerr << "table_scaling: event-limit valve tripped in " << label
            << " after " << r.events << " events; flight record "
            << (r.flight_path.empty()
                    ? std::string(
                          "not written (set NAMPC_FLIGHT_DIR to keep one)")
                    : "at " + r.flight_path)
            << "\n";
}

std::string cell_label(const char* prim, int n, NetworkKind kind) {
  return std::string(prim) + "_n" + std::to_string(n) +
         (kind == NetworkKind::synchronous ? "_sync" : "_async");
}

template <typename Inst, typename Spawn, typename Start>
E2eResult run_sharing(ProtocolParams p, NetworkKind kind,
                      const std::string& label, Spawn spawn, Start start) {
  Simulation::Config cfg;
  cfg.params = p;
  cfg.kind = kind;
  cfg.seed = 1009;

  Simulation sim(cfg, std::make_shared<Adversary>());
  bench::MonitoredRun mon_guard(sim, g_monitors, label);
  std::vector<Inst*> inst;
  for (int i = 0; i < p.n; ++i) inst.push_back(spawn(sim, i));
  const auto t0 = std::chrono::steady_clock::now();
  start(*inst[0]);
  const RunStatus status = sim.run();

  E2eResult r;
  r.status = status;
  r.flight_path = sim.last_flight_path();
  r.wall_ms = ms_since(t0);
  for (Inst* w : inst) {
    if (w->outcome() == WssOutcome::rows) {
      ++r.with_rows;
      r.latest = std::max(r.latest, w->output_time());
    } else {
      ++r.no_output;
    }
  }
  const Metrics& m = sim.metrics();
  r.messages = m.messages_sent;
  r.words = m.words_sent;
  r.events = m.events_processed;
  r.peak_queue = m.peak_queue_depth;
  r.pool_hits = m.payload_pool_hits;
  r.violations = mon_guard.engine().violations().size();
  return r;
}

E2eResult run_wss(int n, NetworkKind kind) {
  const ProtocolParams p = params_for(n);
  return run_sharing<Wss>(
      p, kind, cell_label("wss", n, kind),
      [](Simulation& sim, int i) {
        (void)i;
        return &sim.party(i).spawn<Wss>("wss", 0, 0, WssOptions{}, nullptr);
      },
      [&p](Wss& dealer) {
        Rng rng(2027);
        dealer.start(
            {Polynomial::random_with_constant(Fp(12345), p.ts, rng)});
      });
}

E2eResult run_vss(int n, NetworkKind kind) {
  const ProtocolParams p = params_for(n);
  // Z = the last ts - ta parties (any fixed choice works for an honest run).
  PartySet z;
  for (int i = 0; i < p.ts - p.ta; ++i) z.insert(p.n - 1 - i);
  return run_sharing<Vss>(
      p, kind, cell_label("vss", n, kind),
      [&z](Simulation& sim, int i) {
        (void)i;
        return &sim.party(i).spawn<Vss>("vss", 0, 0, 1, z, nullptr);
      },
      [&p](Vss& dealer) {
        Rng rng(2027);
        dealer.start({Polynomial::random_with_constant(Fp(555), p.ts, rng)});
      });
}

E2eResult run_bc(int n, NetworkKind kind) {
  const ProtocolParams p = params_for(n);
  Simulation::Config cfg;
  cfg.params = p;
  cfg.kind = kind;
  cfg.seed = 1013;
  Simulation sim(cfg, std::make_shared<Adversary>());
  bench::MonitoredRun mon_guard(sim, g_monitors, cell_label("bc", n, kind));
  std::vector<Bc*> inst;
  for (int i = 0; i < p.n; ++i) {
    inst.push_back(&sim.party(i).spawn<Bc>("bc", 0, 0, nullptr));
  }
  const auto t0 = std::chrono::steady_clock::now();
  inst[0]->start({7});
  const RunStatus status = sim.run();
  E2eResult r;
  r.status = status;
  r.flight_path = sim.last_flight_path();
  r.wall_ms = ms_since(t0);
  for (Bc* b : inst) {
    const auto& out = b->current_output();
    if (out.has_value() && *out == Words{7}) {
      ++r.with_rows;
      r.latest = std::max(r.latest, b->value_time());
    } else {
      ++r.no_output;
    }
  }
  const Metrics& m = sim.metrics();
  r.messages = m.messages_sent;
  r.words = m.words_sent;
  r.events = m.events_processed;
  r.peak_queue = m.peak_queue_depth;
  r.pool_hits = m.payload_pool_hits;
  r.violations = mon_guard.engine().violations().size();
  return r;
}

void add_e2e_row(bench::Table& t, int n, NetworkKind kind,
                 const E2eResult& r) {
  const ProtocolParams p = params_for(n);
  t.row(n, p.ts, p.ta, kind == NetworkKind::synchronous ? "sync" : "async",
        r.with_rows, r.no_output, r.latest, r.messages, r.words, r.events,
        r.peak_queue, r.pool_hits, fixed2(r.wall_ms));
}

const std::vector<std::string> kE2eHeaders = {
    "n",      "ts",         "ta",        "network",   "output",
    "none",   "latest t",   "messages",  "words",     "events",
    "peak q", "pool hits",  "wall ms"};

// ------------------------------------------------------------- kernels ---

struct KernelRow {
  double scratch_us = 0;
  double batched_us = 0;
  bool match = true;
};

/// Batched RS encode vs the per-polynomial path, family of n codewords.
KernelRow rs_kernel(int n) {
  const ProtocolParams p = params_for(n);
  Rng rng(4099);
  std::vector<Polynomial> polys;
  polys.reserve(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    polys.push_back(
        Polynomial::random_with_constant(Fp(rng.next_below(Fp::kPrime)),
                                         p.ts, rng));
  }
  KernelRow r;
  const int reps = n >= 64 ? 20 : 100;
  // Per-row path: Horner per point, no shared table.
  std::vector<FpVec> per_row(polys.size());
  {
    const auto t0 = std::chrono::steady_clock::now();
    for (int rep = 0; rep < reps; ++rep) {
      for (std::size_t k = 0; k < polys.size(); ++k) {
        FpVec& out = per_row[k];
        out.resize(static_cast<std::size_t>(n));
        for (int j = 0; j < n; ++j) {
          out[static_cast<std::size_t>(j)] = polys[k].eval(eval_point(j));
        }
      }
    }
    r.scratch_us = ms_since(t0) * 1000.0 / reps;
  }
  FpGrid grid;
  {
    const auto t0 = std::chrono::steady_clock::now();
    for (int rep = 0; rep < reps; ++rep) {
      rs_encode_batch(polys, n, p.ts, grid);
    }
    r.batched_us = ms_since(t0) * 1000.0 / reps;
  }
  for (std::size_t k = 0; k < polys.size(); ++k) {
    for (int j = 0; j < n; ++j) {
      if (grid.at(k, static_cast<std::size_t>(j)) !=
          per_row[k][static_cast<std::size_t>(j)]) {
        r.match = false;
      }
    }
  }
  return r;
}

/// Incremental Star maintenance vs a from-scratch find_star per arrival,
/// over a random OK-edge arrival sequence (the dealer's AOK pattern).
KernelRow star_kernel(int n) {
  const ProtocolParams p = params_for(n);
  Rng rng(8191);
  std::vector<std::pair<int, int>> arrivals;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) arrivals.emplace_back(i, j);
  }
  // Fisher-Yates with the deterministic Rng; cap the sequence at 4n
  // arrivals — the dealer announces long before the graph completes.
  for (std::size_t i = arrivals.size(); i-- > 1;) {
    std::swap(arrivals[i], arrivals[rng.next_below(i + 1)]);
  }
  arrivals.resize(std::min<std::size_t>(arrivals.size(),
                                        static_cast<std::size_t>(4 * n)));

  KernelRow r;
  {
    Graph g(n);
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& [u, v] : arrivals) {
      g.add_edge(u, v);
      (void)find_star(g, p.ta);
    }
    r.scratch_us = ms_since(t0) * 1000.0;
  }
  StarFinder sf(n, p.ta);
  {
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& [u, v] : arrivals) {
      sf.add_edge(u, v);
      (void)sf.find();
    }
    r.batched_us = ms_since(t0) * 1000.0;
  }
  // The repaired matching must stay maximum: same size as from-scratch.
  Graph g(n);
  for (const auto& [u, v] : arrivals) g.add_edge(u, v);
  const auto scratch = find_star(g, p.ta);
  const auto inc = sf.find();
  r.match = scratch.has_value() == inc.has_value();
  return r;
}

// --------------------------------------------------------------- smoke ---

int run_smoke() {
  std::cout << "scaling smoke: n=64 synchronous Pi_WSS, monitors attached\n";
  const E2eResult r = run_wss(64, NetworkKind::synchronous);
  report_valve_trip(cell_label("wss", 64, NetworkKind::synchronous), r);
  std::cout << "  output=" << r.with_rows << "/64 latest=" << r.latest
            << " messages=" << r.messages << " events=" << r.events
            << " pool_hits=" << r.pool_hits << " wall="
            << fixed2(r.wall_ms) << "ms violations=" << r.violations << "\n";
  if (r.with_rows != 64 || r.violations != 0) {
    std::cout << "scaling smoke: FAIL\n";
    return 1;
  }
  std::cout << "scaling smoke: PASS\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return run_smoke();
  }
  const int jobs = sweep_cli_jobs(argc, argv);
  std::cout << "E10: scaling engine curves. End-to-end latency, message "
               "volume and allocation behaviour vs n, plus kernel curves "
               "for the batched RS encode and the incremental Star.\n";
  bench::BenchReport report("scaling");

  const std::vector<NetworkKind> kinds = {NetworkKind::synchronous,
                                          NetworkKind::asynchronous};
  const std::vector<int> wss_ns = {10, 16, 32, 64};
  const std::vector<int> vss_ns = {10, 16, 24};
  const std::vector<int> bc_ns = {10, 16, 32, 64, 128};
  // The n=64 asynchronous WSS cell exceeds the simulator's 200M-event
  // safety valve (~25 min wall for a truncated run); the async envelope is
  // charted by WSS n<=32, VSS n=24 and BC n=128 instead.
  const auto wss_kinds = [&](int n) {
    return n > 32 ? std::vector<NetworkKind>{NetworkKind::synchronous}
                  : kinds;
  };
  report.note("wss async ceiling",
              "n=32 (the n=64 async cell trips the 200M-event safety valve)");

  Sweep<E2eResult> sweep(jobs);
  std::vector<std::string> labels;
  for (int n : wss_ns) {
    for (NetworkKind k : wss_kinds(n)) {
      sweep.add([n, k] { return run_wss(n, k); });
      labels.push_back(cell_label("wss", n, k));
    }
  }
  for (int n : vss_ns) {
    for (NetworkKind k : kinds) {
      sweep.add([n, k] { return run_vss(n, k); });
      labels.push_back(cell_label("vss", n, k));
    }
  }
  for (int n : bc_ns) {
    for (NetworkKind k : kinds) {
      sweep.add([n, k] { return run_bc(n, k); });
      labels.push_back(cell_label("bc", n, k));
    }
  }
  const std::vector<E2eResult> results = sweep.run();
  for (std::size_t i = 0; i < results.size(); ++i) {
    report_valve_trip(labels[i], results[i]);
  }

  std::size_t idx = 0;
  {
    bench::banner("Pi_WSS end-to-end scaling");
    bench::Table t(kE2eHeaders);
    for (int n : wss_ns) {
      for (NetworkKind k : wss_kinds(n)) add_e2e_row(t, n, k, results[idx++]);
    }
    t.print();
    report.add("Pi_WSS end-to-end scaling", t);
  }
  const struct {
    const char* title;
    const std::vector<int>* ns;
  } e2e_sections[] = {{"Pi_VSS end-to-end scaling", &vss_ns},
                      {"Pi_BC end-to-end scaling", &bc_ns}};
  for (const auto& sec : e2e_sections) {
    bench::banner(sec.title);
    bench::Table t(kE2eHeaders);
    for (int n : *sec.ns) {
      for (NetworkKind k : kinds) add_e2e_row(t, n, k, results[idx++]);
    }
    t.print();
    report.add(sec.title, t);
  }

  const std::vector<int> kernel_ns = {10, 16, 32, 64, 128};
  {
    bench::banner("Batched RS encode kernel (n codewords, degree ts)");
    bench::Table t({"n", "ts", "per-row us", "batched us", "speedup",
                    "bit-identical"});
    for (int n : kernel_ns) {
      const KernelRow r = rs_kernel(n);
      t.row(n, params_for(n).ts, fixed2(r.scratch_us), fixed2(r.batched_us),
            fixed2(r.batched_us > 0 ? r.scratch_us / r.batched_us : 0),
            r.match ? "yes" : "NO");
    }
    t.print();
    report.add("Batched RS encode kernel (n codewords, degree ts)", t);
  }
  {
    bench::banner("Incremental Star kernel (4n OK-edge arrivals)");
    bench::Table t({"n", "ta", "scratch us", "incremental us", "speedup",
                    "verdicts agree"});
    for (int n : kernel_ns) {
      const KernelRow r = star_kernel(n);
      t.row(n, params_for(n).ta, fixed2(r.scratch_us), fixed2(r.batched_us),
            fixed2(r.batched_us > 0 ? r.scratch_us / r.batched_us : 0),
            r.match ? "yes" : "NO");
    }
    t.print();
    report.add("Incremental Star kernel (4n OK-edge arrivals)", t);
  }

  report.set_monitors(g_monitors);
  report.save();
  return 0;
}
