// Machine-readable run reports.
//
// A run report is one JSON object summarising a finished simulation:
// configuration (params, network, seed, knobs), the RunStatus, every
// Metrics counter, the paper's derived timing formulas (T_BC, T_BA, T_WSS,
// T'_WSS, T_VSS, T_VTS, T_ACS) and — when a Tracer was attached — observed
// per-primitive virtual-time latency percentiles, so measured latencies
// can be checked against the formulas and tracked as a BENCH_*.json
// trajectory across PRs. Schema: "nampc-run-report/4" (documented in
// DESIGN.md §Observability); v2 added p99 + per-kind message/word volumes
// to "primitives" and the "monitors" / "critical_path" sections; v3 added
// "measured_cost" — the metrics registry's per-primitive event/message/
// word attribution (obs/metrics.h), each kind cross-referenced against
// the paper's complexity term (docs/PAPER_MAP.md "Measured-cost fields");
// v4 dropped the "metrics" copies of the per-kind instance counts
// (measured_cost.<kind>.tagged_copies holds them) and two always-empty
// keys.
#pragma once

#include <ostream>

#include "net/simulation.h"
#include "obs/tracer.h"

namespace nampc::obs {

class MonitorEngine;

/// Virtual-time latency statistics for one primitive kind, computed over
/// spans that delivered output (done >= 0); latency = done - span_start
/// (the nominal start when recorded, else construction time).
/// messages/words are each span's own sends (not subtree aggregates, which
/// would multiply-count nested kinds).
struct LatencyStats {
  std::uint64_t count = 0;  ///< spans of this kind (done or not)
  std::uint64_t done = 0;   ///< spans that delivered output
  Time p50 = -1;
  Time p90 = -1;
  Time p99 = -1;
  Time max = -1;
  std::uint64_t messages = 0;  ///< total messages sent by these spans
  std::uint64_t words = 0;     ///< total words sent by these spans
};

/// Nearest-rank percentile latency per kind over any span collection.
[[nodiscard]] std::map<std::string, LatencyStats> latency_by_kind(
    const std::vector<TraceSpan>& spans);
[[nodiscard]] inline std::map<std::string, LatencyStats> latency_by_kind(
    const Tracer& tracer) {
  return latency_by_kind(tracer.spans());
}

/// Writes the full run-report JSON. `tracer` may be null (the "primitives"
/// and "critical_path" sections are then omitted); the "monitors" section
/// appears when a MonitorEngine is attached to the simulation.
void write_run_report(std::ostream& os, const Simulation& sim,
                      RunStatus status, const Tracer* tracer);

}  // namespace nampc::obs
