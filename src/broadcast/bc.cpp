#include "broadcast/bc.h"

namespace nampc {

namespace {
// Monitor payload: phase tag (0 regular / 1 fallback), then the optional
// output value — see BcMonitor in obs/monitor.cpp.
Words bc_event(std::uint64_t phase, const std::optional<Words>& value) {
  Writer w;
  w.u64(phase).boolean(value.has_value()).vec(value.value_or(Words{}));
  return std::move(w).take();
}
}  // namespace

Bc::Bc(Party& party, std::string key, PartyId sender, Time nominal_start,
       OutputFn on_output)
    : ProtocolInstance(party, std::move(key)),
      sender_(sender),
      nominal_start_(nominal_start),
      on_output_(std::move(on_output)) {
  span_kind("bc");
  span_nominal(nominal_start_);
  acast_ = &make_child<Acast>("acast", sender_,
                              [this](const Words&) { on_acast_output(); });
  sba_ = &make_child<Sba>("sba", nullptr);
  at(nominal_start_ + 3 * timing().delta, [this] { at_sba_start(); },
     /*klass=*/1);
}

void Bc::start(Words message) {
  NAMPC_REQUIRE(my_id() == sender_, "only the sender starts a Bc");
  notify_input(message);
  acast_->start(std::move(message));
}

void Bc::on_message(const Message& msg) {
  (void)msg;  // all traffic flows through the Acast/SBA children
}

void Bc::at_sba_start() {
  phase("sba_start");
  SbaValue input;
  if (acast_->has_output()) input = acast_->output();
  sba_->start(std::move(input));
  // klass 2 (after the SBA's klass-1 completion, before klass-3 protocol
  // steps): at the shared T_BC tick the SBA output is in place and protocol
  // steps see the regular output.
  at(nominal_start_ + timing().t_bc, [this] { at_regular_output(); },
     /*klass=*/2);
}

void Bc::at_regular_output() {
  // The SBA concludes exactly at t_sba after its start; with the
  // message-before-timer ordering its output is available now.
  NAMPC_ASSERT(sba_->has_output(), "sba must have concluded by T_BC");
  phase("regular_output");
  span_done();
  regular_done_ = true;
  const SbaValue& agreed = sba_->output();
  if (acast_->has_output() && agreed.has_value() &&
      acast_->output() == *agreed) {
    regular_output_ = *agreed;
    current_ = regular_output_;
    value_time_ = now();
  }
  notify_output(bc_event(0, regular_output_));
  if (on_output_) on_output_(regular_output_, BcPhase::regular);
  if (!regular_output_.has_value() && acast_->has_output()) {
    // Acast finished before the regular deadline but disagreed with SBA ⊥ —
    // fallback upgrade applies immediately (Protocol 4.5 fallback mode).
    on_acast_output();
  }
}

void Bc::on_acast_output() {
  if (!regular_done_ || regular_output_.has_value() || current_.has_value()) {
    return;  // fallback only upgrades a ⊥ regular output
  }
  current_ = acast_->output();
  value_time_ = now();
  phase("fallback");
  notify_output(bc_event(1, current_));
  if (on_output_) on_output_(current_, BcPhase::fallback);
}

}  // namespace nampc
