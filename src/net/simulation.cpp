#include "net/simulation.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "obs/tracer.h"

namespace nampc {

Simulation::Simulation(Config config, std::shared_ptr<Adversary> adversary)
    : config_(config),
      timing_(Timing::derive(config.params, config.delta)),
      adversary_(std::move(adversary)),
      registry_(std::make_unique<obs::MetricsRegistry>()),
      rng_(config.seed) {
  if (!config_.allow_infeasible) config_.params.validate();
  // Queued records hold a party id in 8 bits and a receiver window of 64.
  NAMPC_REQUIRE(config_.params.n <= PartySet::kMaxParties,
                "simulation supports at most 128 parties");
  registry_->bind(&metrics_, config_.params.n);
  NAMPC_REQUIRE(adversary_ != nullptr, "simulation needs an adversary");
  const PartySet corrupt = adversary_->corrupt_set();
  NAMPC_REQUIRE(corrupt.subset_of(PartySet::full(config_.params.n)),
                "corrupt set contains unknown parties");
  const int budget = config_.kind == NetworkKind::synchronous
                         ? config_.params.ts
                         : config_.params.ta;
  NAMPC_REQUIRE(corrupt.size() <= budget,
                "adversary exceeds the corruption budget for this network");
  parties_.reserve(static_cast<std::size_t>(config_.params.n));
  for (int i = 0; i < config_.params.n; ++i) {
    parties_.push_back(std::make_unique<Party>(*this, i));
  }
  des_transport_ = std::make_unique<DesTransport>(config_.params.n);
  transport_ = des_transport_.get();
}

Simulation::~Simulation() {
  // Drop pending events (which may capture instance pointers) before the
  // parties that own those instances, and the parties before the interner:
  // ~ProtocolInstance closes its trace span under its key().
  calendar_.clear();
  parties_.clear();
}

void Simulation::set_monitors(obs::MonitorEngine* monitors) {
  monitors_ = monitors;
  if (monitors_ != nullptr) monitors_->bind(*this);
}

void Simulation::notify_monitors(obs::ProtocolEvent ev) {
  if (monitors_ == nullptr) return;
  if (monitor_mu_ != nullptr) {
    const MutexLock lock(*monitor_mu_);
    monitors_->on_event(std::move(ev));
    return;
  }
  monitors_->on_event(std::move(ev));
}

void Simulation::set_transport(Transport* transport) {
  transport_ = transport != nullptr ? transport : des_transport_.get();
}

Party& Simulation::party(PartyId id) {
  NAMPC_REQUIRE(id >= 0 && id < static_cast<int>(parties_.size()),
                "party id out of range");
  return *parties_[static_cast<std::size_t>(id)];
}

Simulation::Slot& Simulation::slot_for(Time t, int klass) {
  NAMPC_REQUIRE(t >= now_, "cannot schedule in the past");
  registry_->on_queue_depth(++pending_);
  return calendar_[{t, klass}];
}

void Simulation::schedule(Time t, std::function<void()> fn, int klass,
                          std::uint32_t owner, PartyId owner_party) {
  Slot& slot = slot_for(t, klass);
  slot.events.push_back(Queued{static_cast<std::int8_t>(owner_party), 0, 0,
                               owner, {}, /*receivers=*/0});
  slot.timers.push_back(std::move(fn));
}

void Simulation::schedule_delivery(Time t, Message msg) {
  NAMPC_REQUIRE(msg.to >= 0 && msg.to < n(), "delivery receiver out of range");
  NAMPC_REQUIRE(msg.type == static_cast<std::int16_t>(msg.type),
                "message type out of the queued record's 16-bit range");
  const auto base = static_cast<std::uint8_t>(msg.to & ~63);
  const std::uint64_t bit = std::uint64_t{1} << (msg.to & 63);
  Slot& slot = slot_for(t, /*klass=*/0);
  if (!slot.events.empty()) {
    // The merge rule on Queued: only the slot's last record, and only when
    // the newcomer is above every receiver still pending in it.
    Queued& last = slot.events.back();
    if (last.receivers != 0 && last.receivers < bit && last.base == base &&
        last.from == msg.from && last.type == msg.type &&
        last.instance_id == msg.instance_id &&
        last.payload.same_body(msg.payload)) {
      last.receivers |= bit;
      return;
    }
  }
  slot.events.push_back(Queued{static_cast<std::int8_t>(msg.from), base,
                               static_cast<std::int16_t>(msg.type),
                               msg.instance_id, std::move(msg.payload), bit});
}

std::uint32_t Simulation::intern_instance(const std::string& key) {
  const auto it = instance_ids_.find(key);
  if (it != instance_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(instance_names_.size());
  instance_ids_.emplace(instance_names_.emplace_back(key), id);
  return id;
}

void Simulation::post_message(Message msg) {
  NAMPC_REQUIRE(msg.from >= 0 && msg.from < n() && msg.to >= 0 && msg.to < n(),
                "message endpoints out of range");
  registry_->on_send(msg.instance_id, msg.from, msg.payload.size());
  if (tracer_) {
    tracer_->on_send(msg.from, msg.instance(), msg.payload.size());
  }

  // Self-delivery bypasses the network (a party talking to itself) in
  // every backend; only cross-party traffic reaches the transport seam.
  if (msg.from == msg.to) {
    if (tracer_) {
      tracer_->on_flow(msg.from, msg.to, msg.payload.size(), now_, now_,
                       msg.instance());
    }
    schedule_delivery(now_, std::move(msg));
    return;
  }

  transport_->post(*this, std::move(msg));
}

void Simulation::dispatch_top() {
  const auto top = calendar_.begin();
  const auto [time, klass] = top->first;
  Slot& slot = top->second;
  Queued& front = slot.events.front();
  const bool timer = front.receivers == 0;
  std::function<void()> fn;
  Message msg;
  msg.from = front.from;
  msg.instance_id = front.instance_id;
  if (timer) {
    fn = std::move(slot.timers[slot.next_timer++]);
    slot.events.pop_front();
  } else {
    // The lowest pending receiver; the record leaves with its last one.
    msg.to = front.base + std::countr_zero(front.receivers);
    msg.type = front.type;
    msg.instance_name = &instance_name(front.instance_id);
    front.receivers &= front.receivers - 1;
    if (front.receivers != 0) {
      msg.payload = front.payload;
    } else {
      msg.payload = std::move(front.payload);
      slot.events.pop_front();
    }
  }
  if (slot.events.empty()) calendar_.erase(top);
  --pending_;
  registry_->advance_time(time);
  now_ = time;
  if (timer) {
    registry_->on_dispatch(msg.instance_id, msg.from, /*delivery=*/false,
                           klass, now_, 0);
    fn();
    return;
  }
  registry_->on_dispatch(msg.instance_id, msg.to, /*delivery=*/true, msg.type,
                         now_, msg.payload.size());
  party(msg.to).deliver(msg);
}

std::optional<Time> Simulation::next_event_time() const {
  if (calendar_.empty()) return std::nullopt;
  return calendar_.begin()->first.first;
}

bool Simulation::run_one() {
  if (calendar_.empty()) {
    last_status_ = RunStatus::quiescent;
    return false;
  }
  if (metrics_.events_processed >= config_.max_events) {
    on_event_limit();
    last_status_ = RunStatus::event_limit;
    return false;
  }
  dispatch_top();
  return true;
}

RunStatus Simulation::run() {
  while (!calendar_.empty()) {
    if (metrics_.events_processed >= config_.max_events) {
      on_event_limit();
      last_status_ = RunStatus::event_limit;
      return RunStatus::event_limit;
    }
    if (calendar_.begin()->first.first >= config_.horizon) {
      registry_->finish(now_);
      last_status_ = RunStatus::horizon;
      return RunStatus::horizon;
    }
    dispatch_top();
  }
  registry_->finish(now_);
  // Monitors first: a quiescence violation should be recorded (and
  // reported to whoever reads the engine) even when the privacy-audit
  // assert below is about to abort the run.
  if (monitors_ != nullptr) monitors_->at_quiescence(*this);
  if (config_.privacy_audit && !config_.allow_infeasible) audit_privacy();
  last_status_ = RunStatus::quiescent;
  return RunStatus::quiescent;
}

obs::QueueStats Simulation::queue_stats() const {
  obs::QueueStats stats;
  stats.depth = pending_;
  for (const auto& [key, slot] : calendar_) {
    for (const Queued& ev : slot.events) {
      const auto receivers =
          static_cast<std::uint64_t>(std::popcount(ev.receivers));
      stats.by_klass[key.second] += ev.receivers == 0 ? 1 : receivers;
      if (receivers != 0) {
        stats.deliveries_by_instance[ev.instance_id] += receivers;
      }
    }
  }
  if (!calendar_.empty()) stats.horizon = calendar_.rbegin()->first.first;
  return stats;
}

void Simulation::on_event_limit() {
  // A tripped event limit is almost always a livelock; the flight record
  // (top instances, queue composition, last-dispatches ring) plus the log
  // ring hold the actionable record of the final spins. Composed into one
  // buffer and written in one call so concurrent sweep jobs tripping the
  // limit cannot interleave their dumps.
  registry_->finish(now_);
  registry_->record_valve_trip(
      now_, config_.max_events, queue_stats(),
      [this](std::uint32_t id) -> const std::string& {
        return instance_name(id);
      });
  std::ostringstream dump;
  dump << "nampc: event limit (" << config_.max_events << ") tripped at t="
       << now_ << "\n";
  obs::render_flight_summary(dump, *registry_->flight());
  Log::dump_ring(dump);
  std::cerr << dump.str();
  // Env-gated flight-record dump: CI legs set NAMPC_FLIGHT_DIR so any
  // valve trip anywhere (cli, bench, fuzz) leaves an artifact behind.
  // last_flight_path_ keeps the written name so drivers (table_scaling)
  // can point at the artifact from their own summaries.
  last_flight_path_.clear();
  if (const char* dir = std::getenv("NAMPC_FLIGHT_DIR");
      dir != nullptr && dir[0] != '\0') {
    std::ostringstream name;
    name << dir << "/flight_n" << config_.params.n << "_"
         << (config_.kind == NetworkKind::synchronous ? "sync" : "async")
         << "_seed" << config_.seed << "_e" << metrics_.events_processed
         << "_i" << instance_count() << ".json";
    std::ofstream out(name.str());
    if (out) {
      obs::write_flight_record(out, *this);
      last_flight_path_ = name.str();
    }
  }
}

void Simulation::audit_privacy() const {
  // The proofs bound the adversary's view by at most ts honest univariate
  // polynomials per sharing instance (§6/§7 privacy arguments). Failing
  // loudly here turns a silent privacy regression into a red test.
  for (const auto& [key, reveal] : metrics_.honest_reveals) {
    NAMPC_ASSERT(!reveal.exceeds(config_.params.ts),
                 "privacy audit: dealer P" + std::to_string(reveal.dealer) +
                     " had " + std::to_string(reveal.count) +
                     " honest polynomials revealed in sharing instance " +
                     key + " (bound ts=" +
                     std::to_string(config_.params.ts) + ")");
  }
}

Party::Party(Simulation& sim, PartyId id)
    : sim_(sim), id_(id), rng_(sim.config().seed ^ (0x1000ull + static_cast<std::uint64_t>(id))) {}

Party::~Party() = default;

bool Party::corrupt() const { return sim_.adversary().is_corrupt(id_); }

void Party::ensure_slot(std::uint32_t instance_id) {
  if (instance_id >= router_.size()) router_.resize(instance_id + 1, nullptr);
}

void Party::register_instance(ProtocolInstance& inst) {
  const std::uint32_t id = inst.instance_id();
  ensure_slot(id);
  NAMPC_REQUIRE(router_[id] == nullptr,
                "duplicate protocol instance key: " + inst.key());
  router_[id] = &inst;
  if (const auto it = pending_.find(id); it != pending_.end()) {
    // Flush buffered messages as fresh events so handlers never run inside
    // the constructor call stack of the instance they target.
    std::vector<Message> buffered = std::move(it->second);
    pending_.erase(it);
    for (Message& m : buffered) {
      sim_.schedule_delivery(sim_.now(), std::move(m));
    }
  }
}

void Party::unregister_instance(std::uint32_t instance_id) {
  if (instance_id < router_.size()) router_[instance_id] = nullptr;
}

void Party::deliver(const Message& msg) {
  ensure_slot(msg.instance_id);
  ProtocolInstance* inst = router_[msg.instance_id];
  if (inst == nullptr) {
    pending_[msg.instance_id].push_back(msg);
    return;
  }
  try {
    inst->on_message(msg);
  } catch (const DecodeError&) {
    // Malformed payload from a corrupt sender: ignore, as an implementation
    // of "treat as misbehaviour".
  }
}

ProtocolInstance::ProtocolInstance(Party& party, std::string key)
    : party_(party), instance_id_(party.sim().intern_instance(key)) {
  // The span opens here (not at registration) so that span_kind/phase calls
  // from subclass constructors already find it; the base constructor runs
  // first, so parent spans exist before their children's.
  if (auto* tracer = party_.sim().tracer()) {
    tracer->open_span(party_.id(), this->key(), party_.sim().now());
  }
}

ProtocolInstance::~ProtocolInstance() {
  if (auto* tracer = party_.sim().tracer()) {
    tracer->close_span(party_.id(), key(), party_.sim().now());
  }
  party_.unregister_instance(instance_id_);
}

void ProtocolInstance::send(PartyId to, int type, Payload payload) {
  Message msg;
  msg.from = my_id();
  msg.to = to;
  msg.type = type;
  msg.instance_id = instance_id_;
  msg.instance_name = &sim().instance_name(instance_id_);
  msg.payload = std::move(payload);
  sim().post_message(std::move(msg));
}

void ProtocolInstance::send_all(int type, Words payload) {
  // Wrapping non-empty words is the fan-out's one allocation (a miss).
  sim().metrics_registry().on_fan_out(
      instance_id_, static_cast<std::uint64_t>(n()), !payload.empty());
  const Payload body(std::move(payload));
  for (int to = 0; to < n(); ++to) send(to, type, body);
}

void ProtocolInstance::send_all(int type, const Payload& payload) {
  sim().metrics_registry().on_fan_out(
      instance_id_, static_cast<std::uint64_t>(n()), /*allocates=*/false);
  for (int to = 0; to < n(); ++to) send(to, type, payload);
}

void ProtocolInstance::span_kind(const char* kind) {
  kind_ = kind;
  sim().metrics_registry().tag_instance(instance_id_, kind_);
  if (auto* tracer = sim().tracer()) tracer->set_kind(my_id(), key(), kind_);
}

void ProtocolInstance::span_nominal(Time t) {
  if (auto* tracer = sim().tracer()) tracer->set_nominal(my_id(), key(), t);
}

void ProtocolInstance::phase(const std::string& name) {
  if (auto* tracer = sim().tracer()) {
    tracer->phase(my_id(), key(), name, now());
  }
}

void ProtocolInstance::span_done() {
  if (auto* tracer = sim().tracer()) tracer->mark_done(my_id(), key(), now());
}

void ProtocolInstance::notify_input(Words value) {
  if (sim().monitors() != nullptr) {
    sim().notify_monitors({/*input=*/true, kind_, key(), my_id(),
                           !party_.corrupt(), now(), std::move(value)});
  }
}

void ProtocolInstance::notify_output(Words value) {
  if (sim().monitors() != nullptr) {
    sim().notify_monitors({/*input=*/false, kind_, key(), my_id(),
                           !party_.corrupt(), now(), std::move(value)});
  }
}

void ProtocolInstance::at(Time t, std::function<void()> fn, int klass) {
  sim().schedule(std::max(t, now()), std::move(fn), klass, instance_id_,
                 my_id());
}

void ProtocolInstance::after(Time delay, std::function<void()> fn, int klass) {
  NAMPC_REQUIRE(delay >= 0, "negative timer delay");
  sim().schedule(now() + delay, std::move(fn), klass, instance_id_, my_id());
}

}  // namespace nampc
