#include "net/threaded.h"

#include <algorithm>
#include <utility>

#include "util/assert.h"

namespace nampc {

ThreadedFabric::ThreadedFabric(int n) : n_(n) {
  boxes_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) boxes_.push_back(std::make_unique<Mailbox>());
}

void ThreadedFabric::push(WireMessage m) {
  NAMPC_REQUIRE(m.to >= 0 && m.to < n_, "wire message receiver out of range");
  Mailbox& box = *boxes_[static_cast<std::size_t>(m.to)];
  {
    const MutexLock lock(box.mu);
    box.q.push_back(std::move(m));
  }
  box.cv.notify_one();
}

bool ThreadedFabric::try_pop(PartyId self, WireMessage& out) {
  Mailbox& box = *boxes_[static_cast<std::size_t>(self)];
  const MutexLock lock(box.mu);
  if (box.q.empty()) return false;
  out = std::move(box.q.front());
  box.q.pop_front();
  return true;
}

bool ThreadedFabric::pop(PartyId self, WireMessage& out,
                         std::chrono::microseconds wait) {
  Mailbox& box = *boxes_[static_cast<std::size_t>(self)];
  const MutexLock lock(box.mu);
  box.cv.wait_for(box.mu, wait, [&]() NAMPC_NO_THREAD_SAFETY_ANALYSIS {
    return !box.q.empty() || stop_.load();
  });
  if (box.q.empty()) return false;
  out = std::move(box.q.front());
  box.q.pop_front();
  return true;
}

void ThreadedFabric::mark_done() {
  done_.fetch_add(1);
  // The last completion wakes every idle runtime so nobody waits out a
  // full poll interval before noticing the run is over, and signals the
  // driver's completion wait.
  if (all_done()) {
    for (auto& box : boxes_) box->cv.notify_all();
    // Empty critical section: orders the counter update against a driver
    // that already evaluated the wait_done predicate and is about to
    // sleep — without it the notify could fall into that gap and be lost.
    { const MutexLock lock(done_mu_); }
    done_cv_.notify_all();
  }
}

void ThreadedFabric::request_stop() {
  stop_.store(true);
  for (auto& box : boxes_) box->cv.notify_all();
  { const MutexLock lock(done_mu_); }  // see mark_done for why
  done_cv_.notify_all();
}

bool ThreadedFabric::wait_done(std::chrono::steady_clock::time_point deadline) {
  MutexLock lock(done_mu_);
  (void)done_cv_.wait_until(done_mu_, deadline,
                            [this]() NAMPC_NO_THREAD_SAFETY_ANALYSIS {
                              return all_done() || stop_.load();
                            });
  return all_done();
}

void ThreadedTransport::post(Simulation& sim, Message msg) {
  NAMPC_REQUIRE(msg.instance_name != nullptr,
                "threaded transport needs instance-keyed messages");
#ifndef NDEBUG
  // seq_ is an unlocked map; that is safe only because every post() runs
  // on the owning party's runtime thread. Pin the invariant in debug
  // builds: the first caller claims the transport, later callers must be
  // the same thread.
  const std::thread::id self = std::this_thread::get_id();
  if (owner_thread_ == std::thread::id{}) owner_thread_ = self;
  NAMPC_ASSERT(owner_thread_ == self,
               "ThreadedTransport::post called from a foreign thread; seq_ "
               "is only safe on the owning party's runtime thread");
#endif
  WireMessage w;
  w.from = msg.from;
  w.to = msg.to;
  w.type = msg.type;
  w.instance_key = *msg.instance_name;
  // Copied out at the boundary: a body is shared only within the runtime
  // that allocated it, so no reference count is touched across threads.
  w.payload = msg.payload.words();
  w.seq = seq_[{msg.to, msg.instance_id}]++;
  w.send_tick = clock_.tick();
  (void)sim;
  fabric_.push(std::move(w));
}

namespace {

/// One party's thread: a private Simulation stepped against the shared
/// wall-tick clock, interleaved with mailbox drains. Constructed on the
/// driver thread (monitor binding is not thread-safe); serve() runs on the
/// party's own thread.
class PartyRuntime {
 public:
  PartyRuntime(const ThreadedConfig& config, PartyId id,
               ThreadedFabric& fabric, const ThreadedClock& clock,
               obs::MonitorEngine* monitors, Mutex* monitor_mu,
               bool record)
      : id_(id),
        fabric_(fabric),
        clock_(clock),
        transport_(fabric, clock),
        record_(record) {
    Simulation::Config sc;
    sc.params = config.params;
    sc.kind = config.kind;
    sc.delta = config.delta;
    sc.seed = config.seed;
    sc.max_events = config.max_events;
    sim_ = std::make_unique<Simulation>(sc, std::make_shared<Adversary>());
    sim_->set_transport(&transport_);
    if (monitors != nullptr) {
      sim_->set_monitor_lock(monitor_mu);
      sim_->set_monitors(monitors);
    }
  }

  void serve(const ThreadedSpawn& spawn) {
    goal_ = spawn(*sim_, id_);
    NAMPC_REQUIRE(goal_ != nullptr, "threaded spawn must return a goal");
    pump();
  }

  [[nodiscard]] bool completed() const { return done_reported_; }
  [[nodiscard]] Simulation& sim() { return *sim_; }
  [[nodiscard]] std::uint64_t wire_messages() const { return injected_; }
  [[nodiscard]] std::vector<ScheduleRecord>& records() { return records_; }

  /// Hands the simulation (and the protocol instances it owns) to the
  /// caller, detaching everything that points back into the run's stack
  /// frame (transport, fabric-shared monitors, monitor lock).
  [[nodiscard]] std::unique_ptr<Simulation> release_sim() {
    sim_->set_transport(nullptr);
    sim_->set_monitors(nullptr);
    sim_->set_monitor_lock(nullptr);
    return std::move(sim_);
  }

 private:
  void pump() {
    // Inner event bursts are bounded so a busy runtime still drains its
    // mailbox and polls the run-wide flags at a steady rhythm.
    constexpr int kBurst = 256;
    while (!fabric_.stop_requested()) {
      WireMessage w;
      bool progressed = false;
      while (fabric_.try_pop(id_, w)) {
        inject(std::move(w));
        progressed = true;
      }
      const Time tick = clock_.tick();
      for (int i = 0; i < kBurst; ++i) {
        const std::optional<Time> next = sim_->next_event_time();
        if (!next.has_value() || *next > tick) break;
        if (!sim_->run_one()) break;
        progressed = true;
      }
      if (sim_->last_status() == RunStatus::event_limit) {
        // Local livelock: abort the whole run; the valve already dumped
        // its flight diagnostics.
        fabric_.request_stop();
        return;
      }
      if (!done_reported_ && goal_()) {
        done_reported_ = true;
        fabric_.mark_done();
      }
      // A finished party keeps serving its mailbox until everyone is done:
      // peers may still need its messages to reach their own goals.
      if (fabric_.all_done()) return;
      if (progressed) continue;
      std::chrono::microseconds wait(1000);
      if (const std::optional<Time> next = sim_->next_event_time();
          next.has_value()) {
        const std::int64_t due_us = (*next - tick) * clock_.tick_us();
        wait = std::min(
            wait, std::chrono::microseconds(std::max<std::int64_t>(due_us, 50)));
      }
      if (fabric_.pop(id_, w, wait)) inject(std::move(w));
    }
  }

  void inject(WireMessage w) {
    const std::uint32_t instance = sim_->intern_instance(w.instance_key);
    Message m;
    m.from = w.from;
    m.to = id_;
    m.type = w.type;
    m.instance_id = instance;
    m.instance_name = &sim_->instance_name(instance);
    m.payload = std::move(w.payload);  // a fresh body, local to this runtime
    // Arrival on the local virtual clock; the shared epoch keeps it
    // comparable with the sender's send_tick. now() never exceeds the wall
    // tick (events only run once due), so the max() is just belt.
    const Time arrival = std::max(sim_->now(), clock_.tick());
    if (record_) {
      records_.push_back(ScheduleRecord{w.from, w.to, std::move(w.instance_key),
                                        w.seq, w.send_tick, arrival});
    }
    sim_->schedule_delivery(arrival, std::move(m));
    ++injected_;
  }

  PartyId id_;
  ThreadedFabric& fabric_;
  const ThreadedClock& clock_;
  ThreadedTransport transport_;
  bool record_;
  std::unique_ptr<Simulation> sim_;
  std::function<bool()> goal_;
  bool done_reported_ = false;
  std::uint64_t injected_ = 0;
  std::vector<ScheduleRecord> records_;
};

}  // namespace

ThreadedResult run_threaded(const ThreadedConfig& config,
                            const ThreadedSpawn& spawn) {
  const int n = config.params.n;
  NAMPC_REQUIRE(n >= 2, "threaded backend needs at least two parties");
  NAMPC_REQUIRE(config.tick_us >= 1, "tick_us must be positive");
  ThreadedFabric fabric(n);
  const ThreadedClock clock(config.tick_us);
  obs::MonitorEngine monitors;
  obs::install_standard_monitors(monitors);
  Mutex monitor_mu;

  // Runtimes (and their monitor bindings) are built sequentially here;
  // only serve() runs concurrently.
  std::vector<std::unique_ptr<PartyRuntime>> runtimes;
  runtimes.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    runtimes.push_back(std::make_unique<PartyRuntime>(
        config, i, fabric, clock, &monitors, &monitor_mu,
        config.record_schedule));
  }

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    PartyRuntime* rt = runtimes[static_cast<std::size_t>(i)].get();
    threads.emplace_back([rt, &spawn] { rt->serve(spawn); });
  }

  // Event-driven teardown: the last mark_done() (or a runtime's
  // request_stop) signals the fabric's completion condvar, so the driver
  // parks here instead of polling.
  const auto deadline =
      start + std::chrono::microseconds(
                  static_cast<std::int64_t>(config.timeout_s * 1e6));
  if (!fabric.wait_done(deadline)) fabric.request_stop();
  for (std::thread& t : threads) t.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;

  ThreadedResult result;
  result.completed = true;
  for (auto& rt : runtimes) result.completed = result.completed && rt->completed();
  result.wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          elapsed)
          .count();
  for (auto& rt : runtimes) {
    result.wire_messages += rt->wire_messages();
    result.events += rt->sim().metrics().events_processed;
  }
  // End-of-run invariants only when the run actually finished — mirroring
  // the DES, which skips at_quiescence on event-limit/horizon exits where
  // liveness obligations are genuinely still open.
  if (result.completed) {
    monitors.at_quiescence(runtimes.front()->sim());
  }
  result.violations = monitors.violations();
  result.monitor_events = monitors.events_seen();

  if (config.record_schedule) {
    result.schedule.params = config.params;
    result.schedule.kind = config.kind;
    result.schedule.seed = config.seed;
    result.schedule.tick_us = config.tick_us;
    result.schedule.backend = "threaded";
    for (auto& rt : runtimes) {
      for (ScheduleRecord& r : rt->records()) {
        result.schedule.records.push_back(std::move(r));
      }
    }
    result.schedule.sort();
  }
  result.sims.reserve(runtimes.size());
  for (auto& rt : runtimes) result.sims.push_back(rt->release_sim());
  return result;
}

}  // namespace nampc
