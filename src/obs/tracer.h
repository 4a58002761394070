// Structured tracing for the DES protocol stack.
//
// A Tracer attached to a Simulation (Simulation::set_tracer) records one
// span per ProtocolInstance — keyed by the instance's hierarchical string
// key ("mpc/z3/d2/vts/vss/it1/inner4/rbc5") and party id — with spawn and
// terminate virtual times, the virtual time the protocol delivered its
// output (span_done), named phase transitions, and the messages/words the
// instance itself sent. Subtree aggregates roll counts up the key
// hierarchy, so "what did this VSS cost, including every broadcast under
// it?" is one lookup. Message deliveries are recorded as flows (send and
// arrival virtual times) and exported as Chrome trace_event flow events.
//
// The tracer is pull-free and allocation-light: the simulator calls the
// hooks behind a `if (tracer_)` null check, so a run without a tracer pays
// one predictable branch per hook site and nothing else. The Tracer must
// outlive the Simulation it observes (spans close from instance
// destructors).
//
// Export: write_chrome_trace emits Chrome trace_event JSON (Perfetto and
// chrome://tracing both open it): spans as complete ("X") duration events
// with pid = party id, phases as instant events, message deliveries as
// flow ("s"/"f") pairs, all in virtual time (displayed as microseconds).
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "net/time.h"

namespace nampc::obs {

/// One protocol instance's lifetime at one party.
struct TraceSpan {
  int party = -1;
  std::string key;   ///< hierarchical instance key, unique per party
  std::string kind;  ///< primitive kind ("bc", "wss", ...); "" if untagged
  /// Every tag applied via set_kind, in order. A derived protocol re-tags
  /// its base's span (Vss over Wss leaves {"wss", "vss"}), so per-kind
  /// span counts equal the metrics registry's kind_tags.
  std::vector<std::string> kinds;
  Time begin = 0;    ///< spawn (registration) virtual time
  /// The protocol's nominal start time (span_nominal), when it has one:
  /// composed primitives are constructed up front but scheduled to run at a
  /// designated offset, so latency is measured from max(begin, nominal).
  Time nominal = -1;
  Time end = -1;     ///< terminate virtual time; -1 while open
  Time done = -1;    ///< virtual time the protocol delivered output; -1 if never
  std::uint64_t messages_sent = 0;  ///< sends by this instance itself
  std::uint64_t words_sent = 0;
  std::vector<std::pair<std::string, Time>> phases;
  int parent = -1;  ///< index into spans() of the enclosing instance
};

/// The time a span's protocol actually started running: its nominal start
/// when one was recorded and the instance was constructed earlier.
[[nodiscard]] inline Time span_start(const TraceSpan& s) {
  return s.nominal > s.begin ? s.nominal : s.begin;
}

/// One message delivery in virtual time.
struct TraceFlow {
  int from = -1;
  int to = -1;
  std::uint64_t words = 0;
  Time send = 0;
  Time arrival = 0;
  std::string key;  ///< instance key the message was addressed to
};

class Tracer {
 public:
  /// Cap on recorded flows, which bounds the tracer's memory on big MPC
  /// runs; further deliveries only bump dropped_flows().
  static constexpr std::size_t kMaxFlows = 1'000'000;

  // --- hooks, called by the simulator ---
  void open_span(int party, const std::string& key, Time now);
  void close_span(int party, const std::string& key, Time now);
  void set_kind(int party, const std::string& key, const std::string& kind);
  void set_nominal(int party, const std::string& key, Time t);
  void phase(int party, const std::string& key, const std::string& name,
             Time now);
  void mark_done(int party, const std::string& key, Time now);
  void on_send(int party, const std::string& key, std::uint64_t words);
  void on_flow(int from, int to, std::uint64_t words, Time send, Time arrival,
               const std::string& key);

  // --- queries ---
  [[nodiscard]] const std::vector<TraceSpan>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<TraceFlow>& flows() const { return flows_; }
  [[nodiscard]] std::uint64_t dropped_flows() const { return dropped_flows_; }

  /// Messages/words sent by each span's whole subtree (aligned with
  /// spans()). Children attribute to parents transitively.
  struct Aggregate {
    std::uint64_t messages = 0;
    std::uint64_t words = 0;
  };
  [[nodiscard]] std::vector<Aggregate> aggregate_subtrees() const;

  /// Chrome trace_event JSON (object form, {"traceEvents": [...]}).
  void write_chrome_trace(std::ostream& os) const;

 private:
  [[nodiscard]] int find_open(int party, const std::string& key) const;

  std::vector<TraceSpan> spans_;
  std::vector<TraceFlow> flows_;
  std::uint64_t dropped_flows_ = 0;
  std::map<std::pair<int, std::string>, int> open_;  // (party, key) → index
};

}  // namespace nampc::obs
