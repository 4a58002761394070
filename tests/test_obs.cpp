// Observability layer tests: tracer spans vs Metrics, Chrome-trace and
// run-report JSON validity, same-seed determinism, structured-log sinks,
// ring-buffer forensics and the quiescence privacy audit.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "mpc/mpc.h"
#include "obs/analysis.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "obs/report.h"
#include "obs/tracer.h"
#include "sharing/wss.h"
#include "sim_helpers.h"
#include "util/json_read.h"

namespace nampc {
namespace {

using testing::make_sim;
using testing::SimSpec;

// ------------------------------------------------------------------------
// Restores the global Log configuration after a test body mutated it.

struct LogStateGuard {
  LogLevel level = Log::level();
  Log::ModuleLevels modules = Log::module_levels();
  ~LogStateGuard() {
    Log::level() = level;
    Log::module_levels() = modules;
    Log::set_sink(Log::text_sink(std::cerr));
    Log::set_ring(0);
  }
};

// Full MPC run with a tracer attached; shared by several tests.
struct TracedRun {
  Circuit circuit;
  obs::Tracer tracer;  // must outlive the Simulation
  std::unique_ptr<Simulation> sim;
  RunStatus status = RunStatus::quiescent;
  std::string trace_json;
  std::string report_json;

  explicit TracedRun(std::uint64_t seed) {
    const int n = 4;
    std::vector<int> in;
    for (int i = 0; i < n; ++i) in.push_back(circuit.input(i));
    int acc = in[0];
    for (int i = 1; i < n; ++i) acc = circuit.add(acc, in[static_cast<std::size_t>(i)]);
    circuit.mark_output(circuit.mul(acc, in[0]));

    sim = make_sim({.params = {4, 1, 0}, .seed = seed});
    sim->set_tracer(&tracer);
    for (int i = 0; i < n; ++i) {
      sim->party(i).spawn<Mpc>("mpc", circuit,
                               FpVec{Fp(static_cast<std::uint64_t>(i + 1))},
                               nullptr);
    }
    status = sim->run();

    std::ostringstream t;
    tracer.write_chrome_trace(t);
    trace_json = t.str();
    std::ostringstream r;
    obs::write_run_report(r, *sim, status, &tracer);
    report_json = r.str();
  }
};

// ------------------------------------------------------------------------

TEST(Obs, TraceSpanKindsMatchMetricsCounters) {
  TracedRun run(/*seed=*/21);
  ASSERT_EQ(run.status, RunStatus::quiescent);
  // A span counts under every tag it carried, exactly like the registry's
  // per-kind tag counts (a Vss copy counts under "wss" and "vss").
  const auto spans = obs::latency_by_kind(run.tracer);
  for (const char* kind : {"bc", "wss", "vss", "mpc"}) {
    ASSERT_EQ(spans.count(kind), 1u) << kind;
  }
  const obs::MetricsRegistry& reg = run.sim->metrics_registry();
  for (std::size_t k = 1; k < reg.kind_names().size(); ++k) {
    const std::string& kind = reg.kind_names()[k];
    ASSERT_EQ(spans.count(kind), 1u) << kind;
    EXPECT_EQ(spans.at(kind).count, reg.kind_tags()[k]) << kind;
  }
  EXPECT_EQ(spans.at("mpc").count, 4u);
}

TEST(Obs, ChromeTraceParsesAndCoversAllParties) {
  TracedRun run(/*seed=*/22);
  JsonValue trace;
  std::string error;
  ASSERT_TRUE(json_parse(run.trace_json, trace, error)) << error;
  ASSERT_NE(trace.find("traceEvents"), nullptr);
  const auto& events = trace.at("traceEvents").items;
  ASSERT_FALSE(events.empty());
  std::map<std::string, int> by_ph;
  std::map<int, int> spans_by_party;
  for (const JsonValue& e : events) {
    by_ph[e.at("ph").text]++;
    if (e.at("ph").text == "X") {
      spans_by_party[static_cast<int>(e.at("pid").i64())]++;
      EXPECT_GE(e.at("dur").num(), 0.0);
    }
  }
  EXPECT_GT(by_ph["X"], 0);   // duration spans
  EXPECT_GT(by_ph["M"], 0);   // process-name metadata
  EXPECT_GT(by_ph["s"], 0);   // flow starts (message sends)
  EXPECT_EQ(by_ph["s"], by_ph["f"]);
  for (int p = 0; p < 4; ++p) {
    EXPECT_GT(spans_by_party[p], 0) << "party " << p << " has no spans";
  }
}

TEST(Obs, RunReportParsesAndMirrorsMetrics) {
  TracedRun run(/*seed=*/23);
  JsonValue report;
  std::string error;
  ASSERT_TRUE(json_parse(run.report_json, report, error)) << error;
  EXPECT_EQ(report.at("schema").text, "nampc-run-report/4");
  EXPECT_EQ(report.at("status").text, "quiescent");
  EXPECT_EQ(report.at("config").at("n").i64(), 4);
  EXPECT_EQ(report.at("config").at("seed").i64(), 23);

  const Metrics& m = run.sim->metrics();
  const auto& metrics = report.at("metrics");
  EXPECT_EQ(metrics.at("messages_sent").u64(), m.messages_sent);
  EXPECT_EQ(metrics.at("events_processed").u64(), m.events_processed);

  // Acceptance check: per-primitive span counts equal the registry's tag
  // counts, which the report carries once, under measured_cost.
  const auto& prim = report.at("primitives");
  const auto& cost = report.at("measured_cost");
  for (const char* kind : {"bc", "wss", "vss"}) {
    ASSERT_NE(prim.find(kind), nullptr) << kind;
    ASSERT_NE(cost.find(kind), nullptr) << kind;
    EXPECT_EQ(prim.at(kind).at("count").i64(),
              cost.at(kind).at("tagged_copies").i64())
        << kind;
    EXPECT_EQ(metrics.find(std::string(kind) + "_instances"), nullptr) << kind;
  }
  // Completed primitives report latency percentiles in virtual time.
  EXPECT_GE(prim.at("bc").at("latency").at("p50").num(), 0.0);
}

TEST(Obs, SameSeedRunsAreBitIdentical) {
  TracedRun a(/*seed=*/31);
  TracedRun b(/*seed=*/31);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.report_json, b.report_json);
  EXPECT_EQ(a.sim->metrics().messages_sent, b.sim->metrics().messages_sent);
  EXPECT_EQ(a.sim->metrics().events_processed,
            b.sim->metrics().events_processed);
  // A different seed must still parse but may differ.
  TracedRun c(/*seed=*/32);
  JsonValue v;
  std::string error;
  EXPECT_TRUE(json_parse(c.trace_json, v, error)) << error;
}

TEST(Obs, SubtreeAggregationIsMonotone) {
  TracedRun run(/*seed=*/24);
  const auto agg = run.tracer.aggregate_subtrees();
  const auto& spans = run.tracer.spans();
  ASSERT_EQ(agg.size(), spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    // Subtree totals include the span's own counts...
    EXPECT_GE(agg[i].messages, spans[i].messages_sent);
    EXPECT_GE(agg[i].words, spans[i].words_sent);
    // ...and roll up into the parent.
    if (spans[i].parent >= 0) {
      EXPECT_GE(agg[static_cast<std::size_t>(spans[i].parent)].messages,
                agg[i].messages);
    }
  }
}

TEST(Obs, RingBufferDumpFiresOnEventLimit) {
  LogStateGuard guard;
  Log::set_ring(64, LogLevel::trace);

  Simulation::Config cfg;
  cfg.params = {4, 1, 0};
  cfg.seed = 5;
  cfg.max_events = 200;  // trip mid-protocol
  auto sim = std::make_unique<Simulation>(cfg, std::make_shared<Adversary>());
  WssOptions opts;
  std::vector<Wss*> inst;
  for (int i = 0; i < 4; ++i) {
    inst.push_back(&sim->party(i).spawn<Wss>("w", 0, 0, opts, nullptr));
  }
  Rng rng(5);
  inst[0]->start({Polynomial::random_with_constant(Fp(7), 1, rng)});

  std::ostringstream captured;
  std::streambuf* old = std::cerr.rdbuf(captured.rdbuf());
  const RunStatus status = sim->run();
  std::cerr.rdbuf(old);

  EXPECT_EQ(status, RunStatus::event_limit);
  EXPECT_NE(captured.str().find("event limit"), std::string::npos)
      << captured.str();
  EXPECT_NE(captured.str().find("log events"), std::string::npos)
      << "expected a ring dump, got: " << captured.str();
}

TEST(Obs, AssertionFailureDumpsRing) {
  LogStateGuard guard;
  Log::set_ring(8, LogLevel::trace);
  NAMPC_LOG(trace) << "breadcrumb before the failure";

  std::ostringstream captured;
  std::streambuf* old = std::cerr.rdbuf(captured.rdbuf());
  EXPECT_THROW(NAMPC_ASSERT(1 == 2, "forced failure"), InvariantError);
  std::cerr.rdbuf(old);
  EXPECT_NE(captured.str().find("breadcrumb before the failure"),
            std::string::npos)
      << captured.str();
}

TEST(Obs, PrivacyAuditFailsLoudlyAtQuiescence) {
  auto sim = make_sim({.params = {4, 1, 0}});
  sim->metrics().note_honest_reveal("w", 0, 1);
  sim->metrics().note_honest_reveal("w", 0, 2);  // ts = 1: bound violated
  EXPECT_THROW((void)sim->run(), InvariantError);

  // An in-bound count passes, also when the same dealer reveals one row in
  // each of two instances.
  auto ok = make_sim({.params = {4, 1, 0}});
  ok->metrics().note_honest_reveal("w1", 0, 1);
  ok->metrics().note_honest_reveal("w2", 0, 2);
  EXPECT_EQ(ok->run(), RunStatus::quiescent);
}

TEST(Obs, PrivacyAuditHoldsOnRealRuns) {
  // The audit runs inside Simulation::run() for every test in the suite;
  // this test additionally checks the recorded per-dealer maxima directly.
  TracedRun run(/*seed=*/25);
  ASSERT_EQ(run.status, RunStatus::quiescent);
  std::map<int, std::uint64_t> worst_by_dealer;
  for (const auto& [key, reveal] : run.sim->metrics().honest_reveals) {
    std::uint64_t& worst = worst_by_dealer[reveal.dealer];
    worst = std::max(worst, reveal.count);
  }
  for (const auto& [dealer, worst] : worst_by_dealer) {
    EXPECT_LE(worst, 1u) << "dealer " << dealer;  // ts = 1 in TracedRun
  }
}

TEST(Obs, JsonLinesSinkEmitsParseableRecords) {
  LogStateGuard guard;
  std::ostringstream out;
  Log::use_json_sink(out);
  Log::level() = LogLevel::trace;

  auto sim = make_sim({.params = {4, 1, 0}, .seed = 9});
  WssOptions opts;
  std::vector<Wss*> inst;
  for (int i = 0; i < 4; ++i) {
    inst.push_back(&sim->party(i).spawn<Wss>("w", 0, 0, opts, nullptr));
  }
  Rng rng(9);
  inst[0]->start({Polynomial::random_with_constant(Fp(3), 1, rng)});
  EXPECT_EQ(sim->run(), RunStatus::quiescent);

  std::istringstream lines(out.str());
  std::string line;
  int records = 0;
  int with_context = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    JsonValue v;
    std::string error;
    ASSERT_TRUE(json_parse(line, v, error)) << error << ": " << line;
    EXPECT_NE(v.find("level"), nullptr);
    EXPECT_NE(v.find("msg"), nullptr);
    ++records;
    if (v.find("t") && v.find("party") && v.find("module")) ++with_context;
  }
  EXPECT_GT(records, 0);
  EXPECT_GT(with_context, 0) << "NAMPC_PLOG context fields missing";
}

TEST(Obs, ModuleLevelFiltersOverrideGlobalLevel) {
  LogStateGuard guard;
  Log::level() = LogLevel::error;
  Log::set_module_level("wss", LogLevel::trace);
  EXPECT_TRUE(Log::enabled_for("wss", LogLevel::trace));
  EXPECT_FALSE(Log::enabled_for("bc", LogLevel::trace));
  EXPECT_TRUE(Log::enabled_for("bc", LogLevel::error));

  Log::set_module_level("wss", LogLevel::off);
  EXPECT_FALSE(Log::enabled_for("wss", LogLevel::error));
}

/// Logs one NAMPC_PLOG line (the macro needs a ProtocolInstance `this`).
class Chatty : public ProtocolInstance {
 public:
  Chatty(Party& party, std::string key)
      : ProtocolInstance(party, std::move(key)) {
    span_kind("chat");
  }
  void on_message(const Message& /*msg*/) override {}
  void trace_line(const std::function<std::string()>& operand) {
    NAMPC_PLOG(trace) << "chat " << operand();
  }
};

// Both macros check the level (module overrides and the ring included)
// before they build a line: a disabled line evaluates none of its
// operands, and an enabled or ring-captured line records the same text
// and context as a line built unconditionally.
TEST(Obs, DisabledLogLineEvaluatesNoOperand) {
  LogStateGuard guard;
  std::vector<LogEvent> seen;
  Log::set_sink([&seen](const LogEvent& e) { seen.push_back(e); });
  Log::level() = LogLevel::error;
  int evaluated = 0;
  const std::function<std::string()> operand = [&evaluated] {
    ++evaluated;
    return std::string("x");
  };
  auto sim = make_sim({.params = {4, 1, 0}});
  Chatty& chat = sim->party(2).spawn<Chatty>("talk");

  NAMPC_LOG(debug) << operand();
  chat.trace_line(operand);
  EXPECT_EQ(evaluated, 0);

  // A module override enables the instance's lines, not plain ones.
  Log::set_module_level("chat", LogLevel::trace);
  NAMPC_LOG(trace) << operand();
  EXPECT_EQ(evaluated, 0);
  chat.trace_line(operand);
  EXPECT_EQ(evaluated, 1);
  Log::level() = LogLevel::info;
  NAMPC_LOG(info) << "n=" << 4 << ' ' << operand();
  EXPECT_EQ(evaluated, 2);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].level, LogLevel::trace);
  EXPECT_EQ(seen[0].text, "chat x");
  EXPECT_EQ(seen[0].vt, 0);
  EXPECT_EQ(seen[0].party, 2);
  EXPECT_EQ(seen[0].module, "chat");
  EXPECT_EQ(seen[0].key, "talk");
  EXPECT_EQ(seen[1].text, "n=4 x");
  EXPECT_EQ(seen[1].party, -1);
  EXPECT_TRUE(seen[1].module.empty());

  // The ring alone wants trace lines: they are built and captured, and
  // the console still gets nothing.
  Log::module_levels().clear();
  Log::level() = LogLevel::error;
  Log::set_ring(4, LogLevel::trace);
  chat.trace_line(operand);
  NAMPC_LOG(trace) << operand();
  EXPECT_EQ(evaluated, 4);
  EXPECT_EQ(seen.size(), 2u);
  std::ostringstream dump;
  EXPECT_EQ(Log::dump_ring(dump), 2u);
  EXPECT_EQ(dump.str(),
            "--- last 2 log events ---\n[t=0 P2 chat talk] chat x\nx\n"
            "--- end of log ring ---\n");
}

TEST(Obs, TracerDisabledIsInert) {
  // No tracer attached: the hook sites are null-checked, the run behaves
  // identically in metrics to a traced run with the same seed.
  TracedRun traced(/*seed=*/41);

  Circuit c = traced.circuit;
  auto sim = make_sim({.params = {4, 1, 0}, .seed = 41});
  for (int i = 0; i < 4; ++i) {
    sim->party(i).spawn<Mpc>("mpc", c,
                             FpVec{Fp(static_cast<std::uint64_t>(i + 1))},
                             nullptr);
  }
  EXPECT_EQ(sim->run(), RunStatus::quiescent);
  EXPECT_EQ(sim->metrics().messages_sent, traced.sim->metrics().messages_sent);
  EXPECT_EQ(sim->metrics().events_processed,
            traced.sim->metrics().events_processed);
}

// ------------------------------------------------------------------------
// Trace analysis (obs/analysis.h): JSON round-trip, critical-path causality,
// budget checking and trace diffing over a real traced run.

TEST(ObsAnalysis, TraceRoundTripsThroughJson) {
  TracedRun run(/*seed=*/41);
  const obs::TraceData data =
      obs::collect_trace(run.tracer, *run.sim, run.status);
  std::ostringstream os;
  obs::write_trace(os, data);

  obs::TraceData back;
  std::string error;
  ASSERT_TRUE(obs::load_trace(os.str(), back, error)) << error;
  EXPECT_EQ(back.info.params.n, data.info.params.n);
  EXPECT_EQ(back.info.seed, data.info.seed);
  EXPECT_EQ(back.info.status, "quiescent");
  ASSERT_EQ(back.spans.size(), data.spans.size());
  ASSERT_EQ(back.flows.size(), data.flows.size());
  for (std::size_t i = 0; i < data.spans.size(); ++i) {
    EXPECT_EQ(back.spans[i].key, data.spans[i].key);
    EXPECT_EQ(back.spans[i].done, data.spans[i].done);
    EXPECT_EQ(back.spans[i].nominal, data.spans[i].nominal);
    EXPECT_EQ(back.spans[i].kinds, data.spans[i].kinds);
  }
  // A garbage document and a wrong schema both fail cleanly.
  obs::TraceData junk;
  EXPECT_FALSE(obs::load_trace("{not json", junk, error));
  EXPECT_FALSE(obs::load_trace("{\"schema\":\"nampc-trace/999\"}", junk, error));
}

TEST(ObsAnalysis, CriticalPathIsCausalAndEndsAtSpanDone) {
  TracedRun run(/*seed=*/42);
  const obs::TraceData data =
      obs::collect_trace(run.tracer, *run.sim, run.status);
  const int idx = obs::find_done_span(data, "mpc");
  ASSERT_GE(idx, 0);
  const obs::TraceSpan& span = data.spans[static_cast<std::size_t>(idx)];
  const obs::CriticalPath cp = obs::critical_path(data, idx);
  ASSERT_FALSE(cp.hops.empty());
  // The chain ends where the span delivered, at the span's own party.
  EXPECT_EQ(cp.end, span.done);
  EXPECT_EQ(cp.hops.back().to, span.party);
  // Hops are causally ordered: each send happens at or after the previous
  // delivery (at the same party), and every hop takes positive time.
  for (std::size_t i = 0; i < cp.hops.size(); ++i) {
    EXPECT_GE(cp.hops[i].arrival, cp.hops[i].send);
    if (i > 0) {
      EXPECT_EQ(cp.hops[i].from, cp.hops[i - 1].to);
      EXPECT_GE(cp.hops[i].send, cp.hops[i - 1].arrival);
    }
  }
  EXPECT_EQ(cp.start, cp.hops.front().send);
  EXPECT_EQ(cp.local_time + cp.network_time, cp.end - cp.start);
}

TEST(ObsAnalysis, BudgetsHoldOnHonestSyncRun) {
  TracedRun run(/*seed=*/43);
  const obs::TraceData data =
      obs::collect_trace(run.tracer, *run.sim, run.status);
  const std::vector<obs::BudgetRow> rows = obs::check_budgets(data);
  ASSERT_FALSE(rows.empty());
  for (const obs::BudgetRow& row : rows) {
    EXPECT_TRUE(row.gated);  // synchronous trace: bounds are binding
    EXPECT_TRUE(row.within) << row.kind << ": observed " << row.observed_max
                            << " > bound " << row.bound;
    EXPECT_GT(row.done, 0u);
  }
}

TEST(ObsAnalysis, DiffOfIdenticalTracesIsEmpty) {
  TracedRun a(/*seed=*/44);
  TracedRun b(/*seed=*/44);
  const obs::TraceData da = obs::collect_trace(a.tracer, *a.sim, a.status);
  const obs::TraceData db = obs::collect_trace(b.tracer, *b.sim, b.status);
  EXPECT_TRUE(obs::diff_traces(da, db).empty());
  // A different seed shifts message timings, which the diff surfaces.
  TracedRun c(/*seed=*/45);
  const obs::TraceData dc = obs::collect_trace(c.tracer, *c.sim, c.status);
  const auto drift = obs::diff_traces(da, dc);
  for (const obs::KindDiff& d : drift) {
    EXPECT_EQ(d.count_a, d.count_b) << d.kind;  // same protocol structure
  }
}

TEST(ObsAnalysis, RunReportCarriesMonitorVerdict) {
  obs::MonitorEngine monitors;
  obs::install_standard_monitors(monitors);
  auto sim = make_sim({.params = {4, 1, 0}, .seed = 46});
  sim->set_monitors(&monitors);
  std::vector<Wss*> inst;
  WssOptions opts;
  for (int i = 0; i < 4; ++i) {
    inst.push_back(&sim->party(i).spawn<Wss>("w", 0, 0, opts, nullptr));
  }
  Rng rng(46);
  inst[0]->start({Polynomial::random_with_constant(Fp(3), 1, rng)});
  const RunStatus status = sim->run();
  ASSERT_EQ(status, RunStatus::quiescent);

  std::ostringstream os;
  obs::write_run_report(os, *sim, status, nullptr);
  JsonValue report;
  std::string error;
  ASSERT_TRUE(json_parse(os.str(), report, error)) << error;
  ASSERT_NE(report.find("monitors"), nullptr);
  const JsonValue& mon = report.at("monitors");
  EXPECT_TRUE(mon.at("ok").boolean());
  EXPECT_GT(mon.at("events").i64(), 0);
  EXPECT_EQ(mon.at("attached").i64(), 7);
  EXPECT_TRUE(mon.at("violations").items.empty());
}

}  // namespace
}  // namespace nampc
