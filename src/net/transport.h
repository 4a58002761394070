// Transport seam: where a posted message leaves the sending party.
//
// Simulation::post_message does the sender-side accounting (metrics, trace
// span) and then hands the message to the attached Transport. The DES
// scheduler is one implementation (DesTransport below): adversary
// interposition plus virtual-time delivery on the owning simulation's event
// queue — exactly the delivery path post_message used to inline. Real
// backends (net/threaded.h) carry remote traffic across threads or sockets
// instead; the adversary, monitors and flight-recorder accounting stay on
// the DES side, which is what makes a recorded real-network schedule
// replayable under the full observability stack (net/schedule.h).
#pragma once

#include <string>
#include <vector>

#include "net/message.h"
#include "net/time.h"

namespace nampc {

class Simulation;

/// A message as it crosses a runtime boundary. Interned instance ids are
/// Simulation-local (interning order depends on arrival order, which
/// diverges across independently-running party runtimes), so the wire form
/// carries the hierarchical key text; the receiving runtime re-interns it
/// and rebuilds a routable Message. The payload travels as plain words, so
/// a shared body (net/message.h) never crosses runtimes. `seq` numbers the
/// sender's messages per (to, instance) channel and `send_tick` stamps the
/// sender's virtual clock at post time — together they key the
/// record/replay schedule bridge.
struct WireMessage {
  PartyId from = -1;
  PartyId to = -1;
  int type = 0;
  std::string instance_key;
  Words payload;
  std::uint64_t seq = 0;
  Time send_tick = 0;
};

/// Delivery backend attached to a Simulation. post() is called on the
/// posting simulation's thread, after sender-side accounting, for every
/// message whose endpoints differ (self-deliveries bypass the network in
/// any backend and stay inside Simulation::post_message). Implementations
/// may consult the simulation for now()/rng()/adversary() and call
/// Simulation::schedule_delivery for anything that arrives locally.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual void post(Simulation& sim, Message msg) = 0;

  /// Backend label for reports and schedule headers ("des", "threaded").
  [[nodiscard]] virtual const char* name() const = 0;
};

/// The reference backend: the DES delivery path factored out of
/// Simulation::post_message. Applies the adversary's SendDecision under the
/// model-enforcement contract of net/adversary.h (honest integrity,
/// Δ-clamping, per-channel FIFO in the synchronous model), resolves the
/// delay as explicit decision → Adversary::sample_delay → built-in model
/// distribution, and schedules the delivery event in virtual time.
class DesTransport final : public Transport {
 public:
  explicit DesTransport(int n);

  void post(Simulation& sim, Message msg) override;
  [[nodiscard]] const char* name() const override { return "des"; }

 private:
  [[nodiscard]] Time default_delay(Simulation& sim);

  // FIFO state for the synchronous model, indexed from * n + to.
  std::vector<Time> last_arrival_;
  int n_;
};

}  // namespace nampc
