// The adversary / scheduler interface (§3.1).
//
// The adversary is a single centralized entity that (a) statically corrupts
// a set of parties, (b) controls what corrupt parties send (modelled as
// rewriting or dropping their outgoing messages at the network boundary —
// any Byzantine strategy is some function of the corrupt parties' joint
// view, and the strategies exercised by the test-suite are expressed this
// way), and (c) schedules message delivery: in a synchronous network it may
// pick any delay in [1, Δ] (FIFO per channel); in an asynchronous network it
// picks arbitrary finite delays and orderings.
//
// ---------------------------------------------------------------------------
// Model-enforcement contract (canonical statement)
// ---------------------------------------------------------------------------
// This is the single authoritative description of what Simulation::post_message
// allows an Adversary to do; simulation.h, adversary/scripted.h and
// adversary/strategy.h refer here instead of restating it. Since the
// transport split (net/transport.h) the contract is applied by DesTransport
// — the deterministic backend behind the Transport seam. It is a DES
// contract by nature: a real network (net/threaded.h) exposes no delivery
// oracle, so the threaded backend runs honest-only and real schedules come
// back under this contract via adversary/replay.h (a recorded schedule
// replayed as sample_delay answers).
//
//  1. Honest integrity. If the *sender* is honest, the adversary cannot drop
//     or rewrite the message: `SendDecision::deliver` is forced to true and
//     `SendDecision::replacement` is discarded. Rules matching honest traffic
//     therefore only ever exercise scheduling power.
//  2. Corrupt freedom. If the sender is corrupt, the adversary may drop the
//     message, replace its type/payload, or delay it arbitrarily — including
//     forever (silence). A replacement keeps the original `instance_id` and
//     `instance_name`: it changes what the message says, not which protocol
//     instance receives it. A rewritten payload goes through
//     Payload::mut(), which clones the body shared with the rest of the
//     fan-out, so the rewrite reaches only this recipient. A corrupt party
//     runs honest code in this model; all Byzantine behaviour is expressed
//     at this network boundary.
//  3. Authenticated channels. Even for a corrupt sender, `from`/`to` of a
//     replacement must equal the original endpoints: channels are
//     authenticated point-to-point links (§3.1), so the adversary can neither
//     spoof another sender nor redirect a message.
//  4. Delay clamping. Delays below 1 are raised to 1 (delivery takes at least
//     one tick). In a *synchronous* network an honest sender's delay is
//     clamped to Δ (`Simulation::Config::delta`); corrupt senders may exceed
//     it (they may equivalently have dropped the message). In an
//     *asynchronous* network any finite delay is legal for anyone.
//  5. kFarFuture semantics. `kFarFuture` (net/time.h) is the idiom for an
//     "indefinite but eventual" delivery: the event is scheduled ~2^58 ticks
//     out, past `Simulation::Config::horizon` in any bounded experiment, so
//     Simulation::run returns RunStatus::horizon instead of waiting. Because
//     monitors run their end-of-run (termination/privacy) checks only on
//     RunStatus::quiescent, a horizon exit leaves liveness obligations open
//     rather than falsely reporting them violated. Asynchronous runs only:
//     in a synchronous network rule 4 clamps honest delays to Δ first.
//  6. FIFO per channel (synchronous only). Delivery order per (from, to)
//     channel matches send order; an adversarial delay can push a whole
//     channel back but cannot reorder messages within it.
//
// Delay resolution order for each message: `SendDecision::delay` if set,
// else `sample_delay` (the scheduler hook below) if it returns a value,
// else the simulation's built-in model distribution — with rule 4 applied on
// top in every case.
// ---------------------------------------------------------------------------
#pragma once

#include <optional>

#include "net/message.h"
#include "net/time.h"
#include "util/rng.h"
#include "util/small_set.h"

namespace nampc {

/// Which network model the run executes under (§3.1): synchronous (known
/// delivery bound Δ) or asynchronous (arbitrary finite delays).
enum class NetworkKind { synchronous, asynchronous };

/// What the adversary decides about one message in flight. Subject to the
/// model-enforcement contract above (honest senders: rules 1 and 4).
struct SendDecision {
  bool deliver = true;                ///< false => drop (corrupt sender only)
  std::optional<Time> delay;          ///< absolute delay; model-clamped
  std::optional<Message> replacement; ///< rewritten body (corrupt sender only)
};

/// Base adversary: corrupts nobody, schedules honestly (random delays
/// within the model). Attack strategies subclass this — see
/// adversary/scripted.h (lambda rules) and adversary/strategy.h (the
/// serializable fuzzing strategies).
class Adversary {
 public:
  virtual ~Adversary() = default;

  /// The statically corrupted set. The Simulation checks it against the
  /// corruption budget of the configured network (ts sync / ta async) at
  /// construction.
  [[nodiscard]] virtual PartySet corrupt_set() const { return {}; }
  [[nodiscard]] bool is_corrupt(PartyId id) const {
    return corrupt_set().contains(id);
  }

  /// Consulted for every send. Default: deliver unmodified with a delay
  /// chosen by sample_delay / the simulation's model distribution.
  virtual SendDecision on_send(const Message& msg, Time now, NetworkKind kind,
                               Rng& rng) {
    (void)msg;
    (void)now;
    (void)kind;
    (void)rng;
    return {};
  }

  /// Scheduler-sampling hook: when on_send left `SendDecision::delay` unset,
  /// the simulation asks the adversary for a delay before falling back to
  /// its built-in distribution. Returning std::nullopt (the default) keeps
  /// the model default. This is where randomized delivery schedulers live
  /// (per-edge distributions, heavy tails — see adversary/strategy.h);
  /// model clamping (contract rule 4) still applies to whatever is returned.
  /// `rng` is the simulation's stream; strategies that need shrink-stable
  /// schedules keep their own per-edge streams instead of drawing from it.
  virtual std::optional<Time> sample_delay(const Message& msg, Time now,
                                           NetworkKind kind, Rng& rng) {
    (void)msg;
    (void)now;
    (void)kind;
    (void)rng;
    return std::nullopt;
  }
};

}  // namespace nampc
