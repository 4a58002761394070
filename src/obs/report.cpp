#include "obs/report.h"

#include <algorithm>
#include <map>
#include <vector>

#include "obs/analysis.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "util/json.h"

namespace nampc::obs {

namespace {

Time nearest_rank(const std::vector<Time>& sorted, double q) {
  if (sorted.empty()) return -1;
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(sorted.size()));
  return sorted[std::min(rank, sorted.size() - 1)];
}

}  // namespace

std::map<std::string, LatencyStats> latency_by_kind(
    const std::vector<TraceSpan>& spans) {
  std::map<std::string, std::vector<Time>> latencies;
  std::map<std::string, LatencyStats> stats;
  for (const TraceSpan& s : spans) {
    // A span counts under every tag it carried so the per-kind counts
    // equal the registry's tagged_copies (a Vss span is also a Wss span).
    std::vector<std::string> kinds = s.kinds;
    if (kinds.empty()) kinds.push_back("other");
    for (const std::string& kind : kinds) {
      LatencyStats& st = stats[kind];
      st.count++;
      st.messages += s.messages_sent;
      st.words += s.words_sent;
      if (s.done >= 0) {
        st.done++;
        latencies[kind].push_back(s.done - span_start(s));
      }
    }
  }
  for (auto& [kind, lats] : latencies) {
    std::sort(lats.begin(), lats.end());
    LatencyStats& st = stats[kind];
    st.p50 = nearest_rank(lats, 0.50);
    st.p90 = nearest_rank(lats, 0.90);
    st.p99 = nearest_rank(lats, 0.99);
    st.max = lats.back();
  }
  return stats;
}

void write_run_report(std::ostream& os, const Simulation& sim,
                      RunStatus status, const Tracer* tracer) {
  const Simulation::Config& cfg = sim.config();
  const Metrics& m = sim.metrics();
  const Timing& tm = sim.timing();

  JsonWriter w(os);
  w.begin_object();
  w.kv("schema", "nampc-run-report/4");

  w.key("config").begin_object();
  w.kv("n", cfg.params.n).kv("ts", cfg.params.ts).kv("ta", cfg.params.ta);
  w.kv("network",
       cfg.kind == NetworkKind::synchronous ? "sync" : "async");
  w.kv("delta", static_cast<std::int64_t>(cfg.delta));
  w.kv("async_spread", static_cast<std::int64_t>(cfg.async_spread));
  w.kv("seed", static_cast<std::uint64_t>(cfg.seed));
  w.kv("max_events", static_cast<std::uint64_t>(cfg.max_events));
  w.kv("ideal_primitives", cfg.ideal_primitives);
  w.kv("local_coins", cfg.local_coins);
  w.end_object();

  w.kv("status", to_string(status));
  w.kv("virtual_end_time", static_cast<std::int64_t>(sim.now()));

  w.key("metrics").begin_object();
  w.kv("messages_sent", m.messages_sent).kv("words_sent", m.words_sent);
  w.kv("events_processed", m.events_processed);
  w.kv("aba_rounds", m.aba_rounds);
  w.kv("wss_restarts", m.wss_restarts);
  w.kv("beaver_mults", m.beaver_mults);
  w.kv("rs_decodes", m.rs_decodes);
  // Per dealer, the most honest rows revealed in any one of its instances.
  std::map<int, std::uint64_t> worst_by_dealer;
  for (const auto& [key, reveal] : m.honest_reveals) {
    std::uint64_t& worst = worst_by_dealer[reveal.dealer];
    worst = std::max(worst, reveal.count);
  }
  w.key("honest_polys_revealed").begin_object();
  for (const auto& [dealer, count] : worst_by_dealer) {
    std::string name = "P";
    name += std::to_string(dealer);
    w.kv(name, count);
  }
  w.end_object();
  w.end_object();

  // Measured per-primitive cost attribution (schema v3): what each kind
  // actually cost in this run — dispatched events, messages and words from
  // the metrics registry's kind dimension — next to the paper's complexity
  // term for that primitive, so reports connect measured volume back to the
  // claimed bounds (docs/PAPER_MAP.md, "Measured-cost fields").
  {
    const MetricsRegistry& reg = sim.metrics_registry();
    const std::vector<std::string>& kinds = reg.kind_names();
    w.key("measured_cost").begin_object();
    for (std::size_t k = 0; k < reg.kind_rows().size(); ++k) {
      const InstanceCost& c = reg.kind_rows()[k];
      if (kinds[k].empty() && c.events == 0 && c.messages == 0 &&
          reg.kind_tags()[k] == 0) {
        continue;
      }
      w.key(kinds[k].empty() ? "(untagged)" : kinds[k]).begin_object();
      w.kv("tagged_copies", reg.kind_tags()[k]);
      w.kv("events", c.events);
      w.kv("timers", c.timers);
      w.kv("messages", c.messages);
      w.kv("words", c.words);
      w.kv("pool_hits", c.pool_hits);
      w.kv("pool_misses", c.pool_misses);
      if (const PaperCostTerm* term = paper_cost_term(kinds[k])) {
        w.kv("paper_term", term->term);
        w.kv("paper_source", term->source);
      }
      w.end_object();
    }
    w.end_object();
  }

  // The paper's derived protocol-time formulas for these (params, delta):
  // observed latencies below should sit at or under the matching bound in
  // a synchronous run.
  w.key("timing_formulas").begin_object();
  w.kv("delta", static_cast<std::int64_t>(tm.delta));
  w.kv("t_sba", static_cast<std::int64_t>(tm.t_sba));
  w.kv("t_bc", static_cast<std::int64_t>(tm.t_bc));
  w.kv("t_aba", static_cast<std::int64_t>(tm.t_aba));
  w.kv("t_ba", static_cast<std::int64_t>(tm.t_ba));
  w.kv("wss_iter", static_cast<std::int64_t>(tm.wss_iter));
  w.kv("t_wss", static_cast<std::int64_t>(tm.t_wss));
  w.kv("t_wss_z", static_cast<std::int64_t>(tm.t_wss_z));
  w.kv("vss_iter", static_cast<std::int64_t>(tm.vss_iter));
  w.kv("t_vss", static_cast<std::int64_t>(tm.t_vss));
  w.kv("t_vts", static_cast<std::int64_t>(tm.t_vts));
  w.kv("t_acs", static_cast<std::int64_t>(tm.t_acs));
  w.end_object();

  // Monitor verdicts (schema v2): attached monitors, events observed, and
  // every recorded Violation — so a saved report is a self-contained
  // pass/fail record of the paper's invariants for this run.
  if (const MonitorEngine* mon = sim.monitors()) {
    w.key("monitors").begin_object();
    w.kv("attached", static_cast<std::uint64_t>(mon->monitors().size()));
    w.kv("events", mon->events_seen());
    w.kv("ok", mon->ok());
    w.key("checks").begin_object();
    for (const auto& [name, checks] : mon->checks_by_monitor()) {
      w.kv(name, checks);
    }
    w.end_object();
    w.key("violations").begin_array();
    for (const Violation& v : mon->violations()) {
      w.begin_object();
      w.kv("monitor", v.monitor).kv("kind", v.kind).kv("key", v.key);
      w.kv("parties", v.parties.str());
      w.kv("time", static_cast<std::int64_t>(v.time));
      w.kv("detail", v.detail);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }

  if (tracer != nullptr) {
    w.key("primitives").begin_object();
    for (const auto& [kind, st] : latency_by_kind(*tracer)) {
      w.key(kind).begin_object();
      w.kv("count", st.count).kv("done", st.done);
      w.key("latency").begin_object();
      w.kv("p50", static_cast<std::int64_t>(st.p50));
      w.kv("p90", static_cast<std::int64_t>(st.p90));
      w.kv("p99", static_cast<std::int64_t>(st.p99));
      w.kv("max", static_cast<std::int64_t>(st.max));
      w.end_object();
      w.kv("messages", st.messages).kv("words", st.words);
      w.end_object();
    }
    w.end_object();
    w.kv("trace_spans", static_cast<std::uint64_t>(tracer->spans().size()));
    w.kv("trace_flows", static_cast<std::uint64_t>(tracer->flows().size()));

    // Critical path of the latest-delivering span (schema v2): the message
    // chain that determined the run's last protocol output.
    const TraceData data = collect_trace(*tracer, sim, status);
    const int last = find_done_span(data, "");
    if (last >= 0) {
      const CriticalPath cp = critical_path(data, last);
      const TraceSpan& s = data.spans[static_cast<std::size_t>(last)];
      w.key("critical_path").begin_object();
      w.kv("key", s.key).kv("kind", s.kind).kv("party", s.party);
      w.kv("start", static_cast<std::int64_t>(cp.start));
      w.kv("end", static_cast<std::int64_t>(cp.end));
      w.kv("hops", static_cast<std::uint64_t>(cp.hops.size()));
      w.kv("total_words", cp.total_words);
      w.kv("network_time", static_cast<std::int64_t>(cp.network_time));
      w.kv("local_time", static_cast<std::int64_t>(cp.local_time));
      w.end_object();
    }
  }

  w.end_object();
  os << '\n';
}

}  // namespace nampc::obs
