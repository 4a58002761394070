// Online invariant monitors: the paper's guarantees, checked on every run.
//
// A MonitorEngine attached to a Simulation (Simulation::set_monitors, next
// to the tracer) receives one ProtocolEvent per protocol input submitted and
// per output delivered, plus an at-quiescence callback when the event queue
// drains. Pluggable InvariantMonitors fold those events into per-instance
// state and record a Violation the moment an execution contradicts a theorem
// — BC/ACast validity+consistency (Lemma 4.4 / Theorem 4.6), BA/ABA
// agreement+termination (Theorem 4.8), the unique committed value of WSS/VSS
// weak/strong commitment (Theorems 6.3 / 7.3), ACS common-subset agreement
// (Theorem 4.10), and the `honest_polys_revealed <= ts` privacy bound that
// Simulation's quiescence assert enforces (here escalated to a reported
// record with the offending instance key and party set).
//
// Monitors judge only honest parties' events: a corrupt party runs honest
// code in this model, but its view is adversary-controlled, so the theorems
// promise it nothing. Events from corrupt parties are counted and ignored.
//
// Like the tracer, the engine is not owned by the Simulation and must
// outlive it; with none attached each hook site is one null-pointer check.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/adversary.h"
#include "net/time.h"
#include "util/codec.h"
#include "util/small_set.h"

namespace nampc {
class Simulation;
}

namespace nampc::obs {

/// One protocol-level input or output at one party, as reported by
/// ProtocolInstance::notify_input / notify_output. `value` is a
/// kind-specific canonical encoding (see the emitting protocol). `kind` and
/// `key` are views, valid only during on_event: a monitor that keeps an
/// instance's state copies its key once, when it first sees the instance.
struct ProtocolEvent {
  bool input = false;     ///< true = input submitted, false = output delivered
  std::string_view kind;  ///< span_kind tag ("acast", "bc", "ba", ...)
  std::string_view key;   ///< hierarchical instance key, equal across parties
  int party = -1;
  bool honest = true;
  Time time = 0;
  Words value;
};

/// One observed contradiction of a protocol guarantee.
struct Violation {
  std::string monitor;  ///< name() of the monitor that flagged it
  std::string kind;
  std::string key;      ///< offending instance key
  PartySet parties;     ///< parties whose events exhibit the contradiction
  Time time = 0;        ///< virtual time the violation became observable
  std::string detail;   ///< human-readable explanation
};

class MonitorEngine;

/// Base class for one invariant checker. Subclasses keep one state record
/// per instance, keyed by ProtocolEvent::key, and call report() when a
/// guarantee breaks.
class InvariantMonitor {
 public:
  virtual ~InvariantMonitor() = default;

  [[nodiscard]] virtual const char* name() const = 0;
  virtual void on_event(const ProtocolEvent& ev) = 0;
  /// Called once when the run reaches quiescence (end-of-run invariants:
  /// termination, privacy). Not called on event-limit / horizon exits,
  /// where liveness obligations are genuinely still open.
  virtual void at_quiescence(const Simulation& sim) { (void)sim; }

  /// Number of individual invariant comparisons this monitor performed —
  /// lets tests assert a monitor actually exercised its checks rather than
  /// silently matching nothing.
  [[nodiscard]] std::uint64_t checks() const { return checks_; }

 protected:
  friend class MonitorEngine;
  void report(Violation v);
  /// report() on the instance of `ev`, at its time.
  void report(const ProtocolEvent& ev, PartySet parties, std::string detail);
  void bump_checks() { ++checks_; }

  /// Run context captured by MonitorEngine::bind; valid during a run.
  [[nodiscard]] MonitorEngine& engine() const;

 private:
  MonitorEngine* engine_ = nullptr;
  std::uint64_t checks_ = 0;
};

/// Owns the monitors, fans events out to them, and collects violations.
class MonitorEngine {
 public:
  MonitorEngine() = default;
  MonitorEngine(const MonitorEngine&) = delete;
  MonitorEngine& operator=(const MonitorEngine&) = delete;

  InvariantMonitor& add(std::unique_ptr<InvariantMonitor> monitor);

  // --- hooks, called by the simulator ---
  /// Captures run context (params, network kind, corrupt set). Called by
  /// Simulation::set_monitors; tests driving the engine with synthetic
  /// events call it directly — or set_context without a Simulation.
  void bind(const Simulation& sim);
  void set_context(const ProtocolParams& params, NetworkKind network,
                   PartySet corrupt);
  void on_event(const ProtocolEvent& ev);
  void at_quiescence(const Simulation& sim);

  void record(Violation v);

  // --- queries ---
  [[nodiscard]] bool ok() const { return violations_.empty(); }
  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }
  [[nodiscard]] std::uint64_t events_seen() const { return events_seen_; }
  [[nodiscard]] const std::vector<std::unique_ptr<InvariantMonitor>>&
  monitors() const {
    return monitors_;
  }
  /// Total checks() across monitors, by monitor name.
  [[nodiscard]] std::map<std::string, std::uint64_t> checks_by_monitor() const;

  // --- run context for monitors ---
  [[nodiscard]] const ProtocolParams& params() const { return params_; }
  [[nodiscard]] NetworkKind network() const { return network_; }
  [[nodiscard]] PartySet corrupt() const { return corrupt_; }
  [[nodiscard]] int honest_count() const {
    return params_.n - corrupt_.size();
  }

 private:
  std::vector<std::unique_ptr<InvariantMonitor>> monitors_;
  std::vector<Violation> violations_;
  std::uint64_t events_seen_ = 0;
  ProtocolParams params_;
  NetworkKind network_ = NetworkKind::synchronous;
  PartySet corrupt_;
};

/// Installs the full catalogue: acast, bc, agreement (ba/aba/sba), sharing
/// (wss/vss), acs, mpc, privacy.
void install_standard_monitors(MonitorEngine& engine);

}  // namespace nampc::obs
