// Real-concurrency transport backend: one OS thread per party.
//
// Each party gets its own Simulation (so the existing single-threaded
// protocol stack, routing, metrics and shared payload bodies run
// unchanged) with a ThreadedTransport attached at the Transport seam
// (net/transport.h).
// Cross-party messages travel over per-receiver mutex+condvar mailboxes as
// WireMessages — carrying the instance key text, because interned ids are
// runtime-local — and local virtual time advances with the wall clock:
// tick = elapsed-microseconds / tick_us against an epoch shared by all
// runtimes, so ticks are comparable across parties. Timers fire when the
// wall clock passes their virtual due time; a runtime that falls behind
// (heavy crypto, TSan) simply runs late, which the network-agnostic
// protocols tolerate by construction — an asynchronous network promises
// nothing about delivery timing anyway.
//
// What deliberately stays on the DES side: the adversary (a real network
// has no SendDecision hook — threaded runs are honest-only), the tracer,
// and the flight recorder. Monitors DO run online: all runtimes share one
// MonitorEngine serialized by a mutex (Simulation::set_monitor_lock), so
// cross-party invariants (agreement, unique committed value) are checked
// live against real interleavings. For everything else there is the
// record/replay bridge: pass record_schedule=true, export the captured
// "nampc-schedule/1" JSON (net/schedule.h), and re-run it on the DES under
// the full observability stack via adversary/replay.h.
//
// Determinism envelope: protocol *outputs* of honest runs are schedule-
// independent (that is what the theorems say), so repeated threaded runs
// with the same inputs must produce identical outputs and zero monitor
// violations even though interleavings differ — tests/test_transport.cpp
// pins exactly that.
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "net/schedule.h"
#include "net/simulation.h"
#include "net/transport.h"
#include "obs/monitor.h"
#include "util/thread_safety.h"

namespace nampc {

/// Shared wall-tick clock: all runtimes convert the same steady_clock epoch
/// to virtual ticks, so send/arrival stamps are comparable across parties.
class ThreadedClock {
 public:
  ThreadedClock(std::int64_t tick_us)
      : tick_us_(tick_us), epoch_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] Time tick() const {
    const auto elapsed = std::chrono::steady_clock::now() - epoch_;
    const auto us =
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed);
    return static_cast<Time>(us.count() / tick_us_);
  }
  [[nodiscard]] std::int64_t tick_us() const { return tick_us_; }

 private:
  std::int64_t tick_us_;
  std::chrono::steady_clock::time_point epoch_;
};

/// Per-receiver mailboxes plus the run-wide done/stop flags. push() may be
/// called from any runtime thread; pop()/try_pop() only from the receiver's.
class ThreadedFabric {
 public:
  explicit ThreadedFabric(int n);

  void push(WireMessage m);
  [[nodiscard]] bool try_pop(PartyId self, WireMessage& out);
  /// Blocking pop with timeout; returns false on timeout or stop.
  [[nodiscard]] bool pop(PartyId self, WireMessage& out,
                         std::chrono::microseconds wait);

  /// A runtime reached its goal (idempotence is the caller's job).
  void mark_done();
  [[nodiscard]] bool all_done() const { return done_.load() >= n_; }

  /// Wall-clock watchdog: wakes every runtime and makes them exit.
  void request_stop();
  [[nodiscard]] bool stop_requested() const { return stop_.load(); }

  /// Driver-side completion wait: blocks until every runtime reported its
  /// goal, a stop was requested, or `deadline` passed. Event-driven — the
  /// last mark_done() / request_stop() signals done_cv_, so teardown needs
  /// no polling loop. Returns all_done().
  [[nodiscard]] bool wait_done(std::chrono::steady_clock::time_point deadline)
      NAMPC_EXCLUDES(done_mu_);

 private:
  struct Mailbox {
    Mutex mu;
    CondVar cv;
    std::deque<WireMessage> q NAMPC_GUARDED_BY(mu);
  };
  std::vector<std::unique_ptr<Mailbox>> boxes_;
  NAMPC_LOCK_FREE("run-wide completion counter, polled by every pump loop")
  std::atomic<int> done_{0};
  NAMPC_LOCK_FREE("watchdog flag, polled by every pump loop")
  std::atomic<bool> stop_{false};
  /// Pairs with done_cv_ for wait_done(): the flags themselves are atomic,
  /// the mutex only orders predicate evaluation against the notify.
  Mutex done_mu_;
  CondVar done_cv_;
  int n_;
};

/// Transport attached to one runtime's Simulation: every cross-party post
/// becomes a WireMessage on the receiver's mailbox (self-deliveries never
/// reach the seam). Stamps the sender's per-channel sequence number and the
/// shared-clock send tick for the record/replay bridge.
class ThreadedTransport final : public Transport {
 public:
  ThreadedTransport(ThreadedFabric& fabric, const ThreadedClock& clock)
      : fabric_(fabric), clock_(clock) {}

  void post(Simulation& sim, Message msg) override;
  [[nodiscard]] const char* name() const override { return "threaded"; }

 private:
  ThreadedFabric& fabric_;
  const ThreadedClock& clock_;
  // Sender-side per-(receiver, instance) sequence counters. Deliberately
  // unlocked: post() only ever runs on the owning party's runtime thread
  // (the Transport seam is driven by that party's Simulation). Debug
  // builds pin the invariant — see the owning-thread assertion in post().
  std::map<std::pair<PartyId, std::uint32_t>, std::uint64_t> seq_;
#ifndef NDEBUG
  std::thread::id owner_thread_;  ///< set by the first post(), then asserted
#endif
};

struct ThreadedConfig {
  ProtocolParams params;
  std::uint64_t seed = 1;
  /// Declared network model. A real network gives no Δ guarantee, so
  /// threaded runs are asynchronous unless a test deliberately says
  /// otherwise; this is also the model the replayed DES run uses (honest
  /// synchronous sends would be Δ-clamped, breaking delay fidelity).
  NetworkKind kind = NetworkKind::asynchronous;
  Time delta = 10;
  /// Wall microseconds per virtual tick. Smaller = faster runs but less
  /// headroom before a loaded runtime falls behind its timers.
  std::int64_t tick_us = 100;
  /// Watchdog: the driver stops the run after this much wall time.
  double timeout_s = 120.0;
  bool record_schedule = false;
  std::uint64_t max_events = 200'000'000;
};

struct ThreadedResult {
  /// Every party reported its goal before the watchdog fired.
  bool completed = false;
  double wall_ms = 0.0;
  std::uint64_t wire_messages = 0;  ///< cross-party messages delivered
  std::uint64_t events = 0;         ///< local DES events, summed over parties
  std::uint64_t monitor_events = 0;
  std::vector<obs::Violation> violations;
  /// Captured delivery schedule (record_schedule=true), canonically sorted.
  RecordedSchedule schedule;
  /// Party i's runtime simulation, kept alive so callers can read protocol
  /// outputs through the instance pointers their spawn callback captured.
  /// Transport, monitors and monitor lock are detached before handoff
  /// (those lived on run_threaded's stack); the sims are inert but fully
  /// readable.
  std::vector<std::unique_ptr<Simulation>> sims;
};

/// Creates party `id`'s protocol instances inside its runtime's Simulation
/// (called on the runtime's thread, before any traffic is served) and
/// returns the party's completion predicate, polled between events.
using ThreadedSpawn =
    std::function<std::function<bool()>(Simulation& sim, PartyId id)>;

/// Runs one honest-parties protocol execution over real threads: n party
/// runtimes, shared online monitors, optional schedule capture. Returns
/// after every party reports its goal (completed=true) or the watchdog
/// fires (completed=false; monitor termination checks are skipped then,
/// mirroring the DES convention for non-quiescent exits).
ThreadedResult run_threaded(const ThreadedConfig& config,
                            const ThreadedSpawn& spawn);

}  // namespace nampc
