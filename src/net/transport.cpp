#include "net/transport.h"

#include <algorithm>

#include "net/simulation.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "util/assert.h"

namespace nampc {

DesTransport::DesTransport(int n) : n_(n) {
  last_arrival_.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
                       0);
}

Time DesTransport::default_delay(Simulation& sim) {
  const Simulation::Config& config = sim.config();
  if (config.kind == NetworkKind::synchronous) {
    return sim.rng().next_in(1, config.delta);
  }
  return sim.rng().next_in(1, config.async_spread * config.delta);
}

void DesTransport::post(Simulation& sim, Message msg) {
  const Simulation::Config& config = sim.config();
  const Time now = sim.now();
  const bool corrupt_sender = sim.adversary().is_corrupt(msg.from);
  SendDecision decision =
      sim.adversary().on_send(msg, now, config.kind, sim.rng());

  // Model enforcement: only corrupt senders can be dropped or rewritten.
  if (!corrupt_sender) {
    decision.deliver = true;
    decision.replacement.reset();
  }
  if (!decision.deliver) return;

  const PartyId orig_from = msg.from;
  const PartyId orig_to = msg.to;
  const std::uint32_t orig_instance = msg.instance_id;
  const std::string* orig_name = msg.instance_name;
  Message final_msg = decision.replacement.has_value()
                          ? std::move(*decision.replacement)
                          : std::move(msg);
  // Channels are authenticated (§3.1): even a corrupt sender cannot spoof
  // another party or redirect the channel.
  NAMPC_REQUIRE(final_msg.from == orig_from && final_msg.to == orig_to,
                "adversary cannot change message endpoints");
  // A rewrite changes what is said, not which instance hears it: a forged
  // id would route (and grow every party's tables) to an arbitrary slot.
  NAMPC_REQUIRE(final_msg.instance_id == orig_instance &&
                    final_msg.instance_name == orig_name,
                "adversary cannot re-address a message to another instance");

  // Delay resolution order (adversary.h contract): explicit decision,
  // then the adversary's scheduler-sampling hook, then the model default.
  Time delay;
  if (decision.delay.has_value()) {
    delay = *decision.delay;
  } else if (const std::optional<Time> sampled = sim.adversary().sample_delay(
                 final_msg, now, config.kind, sim.rng());
             sampled.has_value()) {
    delay = *sampled;
  } else {
    delay = default_delay(sim);
  }
  if (delay < 1) delay = 1;
  if (config.kind == NetworkKind::synchronous && !corrupt_sender) {
    delay = std::min<Time>(delay, config.delta);
  }

  Time arrival = now + delay;
  if (config.kind == NetworkKind::synchronous) {
    // FIFO per channel (§3.1: "delivered in the same order they are sent").
    Time& last = last_arrival_[static_cast<std::size_t>(final_msg.from) *
                                   static_cast<std::size_t>(n_) +
                               static_cast<std::size_t>(final_msg.to)];
    arrival = std::max(arrival, last);
    last = arrival;
  }

  if (auto* tracer = sim.tracer()) {
    tracer->on_flow(final_msg.from, final_msg.to, final_msg.payload.size(),
                    now, arrival, final_msg.instance());
  }
  sim.schedule_delivery(arrival, std::move(final_msg));
}

}  // namespace nampc
