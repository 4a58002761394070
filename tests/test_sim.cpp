// Unit tests: discrete-event simulator, routing, buffering, adversary
// model enforcement, event ordering, timer-closure lifetimes.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <queue>
#include <string>
#include <tuple>
#include <vector>

#include "obs/metrics.h"
#include "obs/tracer.h"
#include "sim_helpers.h"

namespace nampc {
namespace {

using testing::make_sim;
using testing::SimSpec;

/// Minimal instance: records arrivals, can ping peers.
class Probe : public ProtocolInstance {
 public:
  Probe(Party& party, std::string key) : ProtocolInstance(party, std::move(key)) {}

  void on_message(const Message& msg) override {
    arrivals.push_back({msg.from, msg.type, now()});
  }

  void ping(PartyId to, int type) { send(to, type, Words{}); }
  void ping_all(int type) { send_all(type, Words{}); }
  void timer_at(Time t, std::function<void()> fn) { at(t, std::move(fn)); }

  struct Arrival {
    PartyId from;
    int type;
    Time when;
  };
  std::vector<Arrival> arrivals;
};

TEST(Sim, SynchronousDeliveryWithinDelta) {
  auto sim = make_sim({.params = testing::p4_1_0()});
  std::vector<Probe*> probes;
  for (int i = 0; i < 4; ++i) probes.push_back(&sim->party(i).spawn<Probe>("probe"));
  probes[0]->ping_all(1);
  EXPECT_EQ(sim->run(), RunStatus::quiescent);
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(probes[static_cast<std::size_t>(i)]->arrivals.size(), 1u);
    EXPECT_LE(probes[static_cast<std::size_t>(i)]->arrivals[0].when,
              sim->timing().delta);
  }
}

TEST(Sim, SynchronousFifoPerChannel) {
  auto sim = make_sim({.params = testing::p4_1_0(), .seed = 123});
  auto& p0 = sim->party(0).spawn<Probe>("probe");
  auto& p1 = sim->party(1).spawn<Probe>("probe");
  (void)p0;
  for (int k = 0; k < 50; ++k) {
    sim->party(0).spawn<Probe>("probe" + std::to_string(k)).ping(1, k);
    sim->party(1).spawn<Probe>("probe" + std::to_string(k));
  }
  EXPECT_EQ(sim->run(), RunStatus::quiescent);
  (void)p1;  // arrivals land on per-k probes; FIFO asserted below via times
  // Re-run with messages through a single instance to check ordering.
  auto sim2 = make_sim({.params = testing::p4_1_0(), .seed = 124});
  auto& a = sim2->party(0).spawn<Probe>("x");
  auto& b = sim2->party(1).spawn<Probe>("x");
  for (int k = 0; k < 50; ++k) a.ping(1, k);
  EXPECT_EQ(sim2->run(), RunStatus::quiescent);
  ASSERT_EQ(b.arrivals.size(), 50u);
  for (int k = 0; k < 50; ++k) {
    EXPECT_EQ(b.arrivals[static_cast<std::size_t>(k)].type, k);  // FIFO order
  }
}

TEST(Sim, MessagesBeforeTimersAtSameTick) {
  auto sim = make_sim({.params = testing::p4_1_0()});
  auto& a = sim->party(0).spawn<Probe>("x");
  auto& b = sim->party(1).spawn<Probe>("x");
  bool timer_saw_message = false;
  // Adversary-free sync: delay <= delta. Set a timer at exactly delta.
  b.timer_at(sim->timing().delta,
             [&] { timer_saw_message = !b.arrivals.empty(); });
  a.ping(1, 7);
  EXPECT_EQ(sim->run(), RunStatus::quiescent);
  EXPECT_TRUE(timer_saw_message);
}

TEST(Sim, BuffersMessagesForUnregisteredInstances) {
  auto sim = make_sim({.params = testing::p4_1_0()});
  auto& a = sim->party(0).spawn<Probe>("late");
  a.ping(1, 42);
  // Party 1 creates the instance only at time 100, long after arrival.
  Probe* late = nullptr;
  sim->schedule(100, [&] { late = &sim->party(1).spawn<Probe>("late"); });
  EXPECT_EQ(sim->run(), RunStatus::quiescent);
  ASSERT_NE(late, nullptr);
  ASSERT_EQ(late->arrivals.size(), 1u);
  EXPECT_EQ(late->arrivals[0].type, 42);
  EXPECT_GE(late->arrivals[0].when, 100);
}

/// A tagged instance with one child, for the key-identity checks.
class Parent : public ProtocolInstance {
 public:
  Parent(Party& party, std::string key)
      : ProtocolInstance(party, std::move(key)),
        child(make_child<Probe>("sub")) {
    span_kind("parent");
  }

  void on_message(const Message&) override {}

  Probe& child;
};

// An instance holds no key text of its own: every party's copy of a
// logical instance reads the interner's one string, and a child's key is
// parent/sub. A Simulation destroyed with its instances alive still closes
// each trace span under its key.
TEST(Sim, InstanceKeyIsTheInternedText) {
  obs::Tracer tracer;  // must outlive the Simulation
  {
    auto sim = make_sim({.params = testing::p4_1_0()});
    sim->set_tracer(&tracer);
    std::vector<Parent*> roots;
    for (int i = 0; i < 4; ++i) {
      roots.push_back(&sim->party(i).spawn<Parent>("root"));
    }
    for (const Parent* root : roots) {
      const Probe& child = root->child;
      EXPECT_EQ(&root->key(), &sim->instance_name(root->instance_id()));
      EXPECT_EQ(&child.key(), &sim->instance_name(child.instance_id()));
      EXPECT_EQ(root->key(), "root");
      EXPECT_EQ(child.key(), "root/sub");
      EXPECT_EQ(child.instance_id(), roots[0]->child.instance_id());
    }
    EXPECT_EQ(sim->instance_count(), 2u);
  }
  ASSERT_EQ(tracer.spans().size(), 8u);
  for (const obs::TraceSpan& span : tracer.spans()) {
    EXPECT_TRUE(span.key == "root" || span.key == "root/sub") << span.key;
    EXPECT_EQ(span.end, 0) << "P" << span.party << " " << span.key;
  }
}

TEST(Sim, HonestMessagesCannotBeDroppedByAdversary) {
  auto adv = std::make_shared<ScriptedAdversary>(PartySet::of({1}));
  adv->silence(0);  // rule targets an HONEST party: must be ignored
  adv->silence(1);  // rule targets the corrupt party: applies
  auto sim = make_sim({.params = testing::p4_1_0()}, adv);
  auto& a = sim->party(0).spawn<Probe>("x");
  auto& b = sim->party(1).spawn<Probe>("x");
  auto& c = sim->party(2).spawn<Probe>("x");
  a.ping(2, 1);  // honest -> delivered despite rule
  b.ping(2, 2);  // corrupt + silenced -> dropped
  EXPECT_EQ(sim->run(), RunStatus::quiescent);
  ASSERT_EQ(c.arrivals.size(), 1u);
  EXPECT_EQ(c.arrivals[0].type, 1);
}

TEST(Sim, SyncClampsHonestDelaysToDelta) {
  auto adv = std::make_shared<ScriptedAdversary>();
  adv->fixed_delay(10'000);  // way beyond delta; must be clamped for honest
  auto sim = make_sim({.params = testing::p4_1_0()}, adv);
  auto& a = sim->party(0).spawn<Probe>("x");
  auto& b = sim->party(1).spawn<Probe>("x");
  a.ping(1, 1);
  EXPECT_EQ(sim->run(), RunStatus::quiescent);
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_LE(b.arrivals[0].when, sim->timing().delta);
}

TEST(Sim, AsyncAllowsArbitraryFiniteDelays) {
  auto adv = std::make_shared<ScriptedAdversary>();
  adv->fixed_delay(10'000);
  auto sim = make_sim(
      {.params = testing::p5_1_1(), .kind = NetworkKind::asynchronous}, adv);
  auto& a = sim->party(0).spawn<Probe>("x");
  auto& b = sim->party(1).spawn<Probe>("x");
  a.ping(1, 1);
  EXPECT_EQ(sim->run(), RunStatus::quiescent);
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(b.arrivals[0].when, 10'000);
}

TEST(Sim, CorruptionBudgetEnforced) {
  Simulation::Config cfg;
  cfg.params = testing::p4_1_0();  // ta = 0
  cfg.kind = NetworkKind::asynchronous;
  auto adv = std::make_shared<ScriptedAdversary>(PartySet::of({0}));
  EXPECT_THROW(Simulation(cfg, adv), InvariantError);  // 1 > ta = 0
}

TEST(Sim, InfeasibleParamsRejectedUnlessAllowed) {
  Simulation::Config cfg;
  cfg.params = {6, 2, 1};  // n = 2ts + 2ta: infeasible by Theorem 1.1
  EXPECT_THROW(Simulation(cfg, std::make_shared<Adversary>()), InvariantError);
  cfg.allow_infeasible = true;
  EXPECT_NO_THROW(Simulation(cfg, std::make_shared<Adversary>()));
}

TEST(Sim, DeterministicGivenSeed) {
  for (int rep = 0; rep < 2; ++rep) {
    auto sim = make_sim({.params = testing::p7_2_1(), .seed = 555});
    auto& a = sim->party(0).spawn<Probe>("x");
    auto& b = sim->party(3).spawn<Probe>("x");
    a.ping_all(9);
    EXPECT_EQ(sim->run(), RunStatus::quiescent);
    static Time first_time = -1;
    ASSERT_EQ(b.arrivals.size(), 1u);
    if (rep == 0) {
      first_time = b.arrivals[0].when;
    } else {
      EXPECT_EQ(b.arrivals[0].when, first_time);
    }
  }
}

TEST(Sim, AdversaryCannotSpoofEndpoints) {
  // Channels are authenticated (§3.1): a rewrite that changes the sender or
  // receiver must be rejected by the model-enforcement layer.
  auto adv = std::make_shared<ScriptedAdversary>(PartySet::of({1}));
  adv->add_rule(
      [](const Message& m, Time) { return m.from == 1; },
      [](const Message& m, Time, Rng&) {
        SendDecision d;
        Message alt = m;
        alt.from = 0;  // try to impersonate party 0
        d.replacement = std::move(alt);
        return d;
      });
  auto sim = make_sim({.params = testing::p4_1_0()}, adv);
  auto& a = sim->party(1).spawn<Probe>("x");
  sim->party(2).spawn<Probe>("x");
  EXPECT_THROW(a.ping(2, 1), InvariantError);
}

TEST(Sim, AdversaryCannotReaddressInstance) {
  // A rewrite may change type and payload only: re-addressing a corrupt
  // party's message to another instance id or key is rejected.
  for (const bool rename : {false, true}) {
    SCOPED_TRACE(rename);
    auto adv = std::make_shared<ScriptedAdversary>(PartySet::of({1}));
    const std::string other = "other";
    adv->add_rule(
        [](const Message& m, Time) { return m.from == 1; },
        [rename, &other](const Message& m, Time, Rng&) {
          SendDecision d;
          Message alt = m;
          if (rename) {
            alt.instance_name = &other;
          } else {
            alt.instance_id = 5'000'000;
          }
          d.replacement = std::move(alt);
          return d;
        });
    auto sim = make_sim({.params = testing::p4_1_0()}, adv);
    auto& a = sim->party(1).spawn<Probe>("x");
    sim->party(2).spawn<Probe>("x");
    EXPECT_THROW(a.ping(2, 1), InvariantError);
  }
}

/// Records the body of every delivery and can fan words out or forward the
/// last body it received.
class BodyProbe : public ProtocolInstance {
 public:
  BodyProbe(Party& party, std::string key)
      : ProtocolInstance(party, std::move(key)) {}

  void on_message(const Message& msg) override {
    bodies.push_back(msg.payload.data());
    last = msg.payload;
  }

  void fan_out(Words words) { send_all(1, std::move(words)); }
  void forward() { send_all(2, last); }

  std::vector<const Word*> bodies;
  Payload last;
};

TEST(Sim, SendAllSharesOneBody) {
  auto sim = make_sim({.params = testing::p4_1_0()});
  const auto n = static_cast<std::uint64_t>(sim->n());
  std::vector<BodyProbe*> probes;
  for (int i = 0; i < sim->n(); ++i) {
    probes.push_back(&sim->party(i).spawn<BodyProbe>("body"));
  }
  const Metrics& m = sim->metrics();

  // Fresh words: one body allocated (a miss), n - 1 messages share it.
  probes[0]->fan_out({1, 2, 3});
  EXPECT_EQ(m.payload_pool_misses, 1u);
  EXPECT_EQ(m.payload_pool_hits, n - 1);
  EXPECT_EQ(sim->run(), RunStatus::quiescent);
  const Word* body = probes[0]->bodies.at(0);
  for (const BodyProbe* p : probes) {
    ASSERT_EQ(p->bodies.size(), 1u);
    EXPECT_EQ(p->bodies[0], body);
    EXPECT_EQ(p->last.words(), (Words{1, 2, 3}));
  }

  // Forwarding a received body allocates nothing: n hits, no miss.
  probes[2]->forward();
  EXPECT_EQ(m.payload_pool_misses, 1u);
  EXPECT_EQ(m.payload_pool_hits, 2 * n - 1);
  EXPECT_EQ(sim->run(), RunStatus::quiescent);
  for (const BodyProbe* p : probes) {
    ASSERT_EQ(p->bodies.size(), 2u);
    EXPECT_EQ(p->bodies[1], body);
  }
}

TEST(Sim, CorruptRewriteReachesOnlyItsRecipient) {
  // The corrupt party 3 fans one body out; the adversary rewrites only its
  // copy to party 1, in place through mut(). The clone must not leak into
  // the shared body the other recipients (and 3's self-delivery) read.
  auto adv = std::make_shared<ScriptedAdversary>(PartySet::of({3}));
  adv->add_rule(
      [](const Message& m, Time) { return m.from == 3 && m.to == 1; },
      [](const Message& m, Time, Rng&) {
        SendDecision d;
        Message alt = m;
        alt.payload.mut()[0] = 99;
        d.replacement = std::move(alt);
        return d;
      });
  auto sim = make_sim({.params = testing::p4_1_0()}, adv);
  std::vector<BodyProbe*> probes;
  for (int i = 0; i < sim->n(); ++i) {
    probes.push_back(&sim->party(i).spawn<BodyProbe>("body"));
  }
  probes[3]->fan_out({1, 2, 3});
  EXPECT_EQ(sim->run(), RunStatus::quiescent);
  for (const BodyProbe* p : probes) ASSERT_EQ(p->bodies.size(), 1u);
  EXPECT_EQ(probes[1]->last.words(), (Words{99, 2, 3}));
  for (const int i : {0, 2, 3}) {
    EXPECT_EQ(probes[static_cast<std::size_t>(i)]->last.words(),
              (Words{1, 2, 3}));
    EXPECT_EQ(probes[static_cast<std::size_t>(i)]->bodies[0],
              probes[3]->bodies[0]);
  }
  EXPECT_NE(probes[1]->bodies[0], probes[3]->bodies[0]);
}

TEST(Sim, CorruptSenderMayExceedDeltaInSync) {
  // The synchronous bound applies to honest senders only; a corrupt party
  // may deliver arbitrarily late (it could equally not send at all).
  auto adv = std::make_shared<ScriptedAdversary>(PartySet::of({1}));
  adv->add_rule([](const Message& m, Time) { return m.from == 1; },
                [](const Message&, Time, Rng&) {
                  SendDecision d;
                  d.delay = 9999;
                  return d;
                });
  auto sim = make_sim({.params = testing::p4_1_0()}, adv);
  auto& a = sim->party(1).spawn<Probe>("x");
  auto& b = sim->party(2).spawn<Probe>("x");
  a.ping(2, 1);
  EXPECT_EQ(sim->run(), RunStatus::quiescent);
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(b.arrivals[0].when, 9999);
}

/// Hands every delivery to a shared callback; tagged so a flight record
/// counts its pending deliveries under one kind.
class Recorder : public ProtocolInstance {
 public:
  Recorder(Party& party, std::string key,
           std::function<void(const Message&)> on_msg)
      : ProtocolInstance(party, std::move(key)), on_msg_(std::move(on_msg)) {
    span_kind("recorder");
  }

  void on_message(const Message& msg) override { on_msg_(msg); }

 private:
  std::function<void(const Message&)> on_msg_;
};

// The dispatch-order contract against its reference model: a binary heap
// over (time, klass, scheduling sequence). A seeded mix of timers (klass
// 0-3, many on equal ticks) and deliveries is stepped with
// next_event_time/run_one; some callbacks schedule again at now() with a
// lower, equal and higher klass than their own.
TEST(Sim, EventOrderMatchesReferenceHeap) {
  struct Ref {
    Time time;
    int klass;
    std::uint64_t seq;
    int id;
    bool operator>(const Ref& o) const {
      return std::tie(time, klass, seq) > std::tie(o.time, o.klass, o.seq);
    }
  };
  std::priority_queue<Ref, std::vector<Ref>, std::greater<>> reference;
  std::uint64_t ref_seq = 0;
  std::vector<std::pair<Time, int>> dispatched;
  std::vector<std::pair<Time, int>> expected;
  std::vector<int> klass_of;  // by event id; deliveries are klass 0

  auto sim = make_sim({.params = testing::p4_1_0()});
  Rng rng(2024);
  constexpr int kBudget = 4000;
  std::function<void(Time, int, bool)> add;
  const auto on_dispatch = [&](int id) {
    dispatched.emplace_back(sim->now(), id);
    ASSERT_FALSE(reference.empty());
    expected.emplace_back(reference.top().time, reference.top().id);
    reference.pop();
    if (id % 5 != 0 || static_cast<int>(klass_of.size()) >= kBudget) return;
    const int own = klass_of[static_cast<std::size_t>(id)];
    for (const int k : {own - 1, own, own + 1}) {
      if (k >= 0 && k <= 3) add(sim->now(), k, k == 0 && rng.next_bool());
    }
    add(sim->now() + static_cast<Time>(rng.next_below(15)),
        static_cast<int>(rng.next_below(4)), rng.next_bool());
  };
  std::vector<Recorder*> recorders;
  for (int i = 0; i < 4; ++i) {
    recorders.push_back(&sim->party(i).spawn<Recorder>(
        "rec", [&on_dispatch](const Message& msg) { on_dispatch(msg.type); }));
  }
  add = [&](Time t, int klass, bool delivery) {
    const int id = static_cast<int>(klass_of.size());
    klass_of.push_back(delivery ? 0 : klass);
    reference.push({t, delivery ? 0 : klass, ref_seq++, id});
    if (!delivery) {
      sim->schedule(t, [&on_dispatch, id] { on_dispatch(id); }, klass);
      return;
    }
    const std::size_t party = rng.next_below(4);
    const Recorder& to = *recorders[party];
    Message msg;
    msg.from = 0;
    msg.to = static_cast<PartyId>(party);
    msg.type = id;
    msg.instance_id = to.instance_id();
    msg.instance_name = &to.key();
    sim->schedule_delivery(t, std::move(msg));
  };
  for (int i = 0; i < 600; ++i) {
    add(static_cast<Time>(rng.next_below(40)),
        static_cast<int>(rng.next_below(4)), rng.next_below(4) == 0);
  }

  while (const std::optional<Time> t = sim->next_event_time()) {
    ASSERT_FALSE(reference.empty());
    EXPECT_EQ(*t, reference.top().time);
    ASSERT_TRUE(sim->run_one());
  }
  EXPECT_TRUE(reference.empty());
  EXPECT_FALSE(sim->run_one());
  EXPECT_EQ(sim->last_status(), RunStatus::quiescent);
  EXPECT_GT(klass_of.size(), 1000u);
  ASSERT_EQ(dispatched.size(), expected.size());
  for (std::size_t i = 0; i < dispatched.size(); ++i) {
    ASSERT_EQ(dispatched[i], expected[i]) << "first divergence at step " << i;
  }

  // Horizon: events at or after it stay pending and run() stops there.
  Simulation::Config cfg;
  cfg.params = testing::p4_1_0();
  cfg.horizon = 50;
  Simulation capped(cfg, std::make_shared<Adversary>());
  std::vector<Time> ran;
  for (const Time t : {60, 10, 50, 49}) {
    capped.schedule(t, [&] { ran.push_back(capped.now()); });
  }
  EXPECT_EQ(capped.run(), RunStatus::horizon);
  EXPECT_EQ(ran, (std::vector<Time>{10, 49}));
  EXPECT_EQ(capped.next_event_time(), std::optional<Time>(50));
  // Stepping does not consult the horizon: the rest dispatch in order.
  while (capped.run_one()) {
  }
  EXPECT_EQ(ran, (std::vector<Time>{10, 49, 50, 60}));
}

/// One dispatched event as the reference model predicts it. A timer has
/// from = to = -1 and its id in `type`; a delivery names its body by
/// address, so a copy that arrives with another (equal-worded) body
/// differs.
struct Dispatch {
  Time time;
  PartyId from;
  PartyId to;
  int type;
  const Word* body;
  bool operator==(const Dispatch&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Dispatch& d) {
  return os << "{t=" << d.time << " from=" << d.from << " to=" << d.to
            << " type=" << d.type << " body=" << d.body << "}";
}

/// Fan-out traffic at n = 128 next to a reference heap over (time, klass,
/// scheduling sequence) with one entry per delivery. The shapes are the
/// ones the receiver-mask records must keep apart or merge in order:
/// fan-outs across the 64-receiver window, equal-key sends interleaved
/// with other keys and klass-0 timers, repeated and descending receivers,
/// and copies with distinct bodies of equal words (a garbling rewrite's).
/// With `react` set, some handlers send into the slot being drained.
class FanOutTraffic {
 public:
  FanOutTraffic(std::uint64_t max_events, bool react)
      : react_(react), rng_(2026) {
    Simulation::Config cfg;
    cfg.params = {128, 1, 0};
    cfg.max_events = max_events;
    sim_ = std::make_unique<Simulation>(cfg, std::make_shared<Adversary>());
    for (int i = 0; i < sim_->n(); ++i) {
      sinks_.push_back(&sim_->party(i).spawn<Recorder>(
          "sink", [this](const Message& msg) { on_delivery(msg); }));
    }
    for (int batch = 0; batch < 160; ++batch) {
      add_batch(static_cast<Time>(rng_.next_below(30)));
    }
  }

  // Its instances and timers call back into it.
  FanOutTraffic(const FanOutTraffic&) = delete;
  FanOutTraffic& operator=(const FanOutTraffic&) = delete;

  Simulation& sim() { return *sim_; }
  std::vector<Dispatch> dispatched;
  std::vector<Dispatch> expected;
  std::size_t reference_peak = 0;

  /// Pops the rest of the reference heap: pending events per klass, and
  /// the deliveries among them.
  std::pair<std::map<int, std::uint64_t>, std::uint64_t> drain_reference() {
    std::map<int, std::uint64_t> by_klass;
    std::uint64_t deliveries = 0;
    for (; !reference_.empty(); reference_.pop()) {
      by_klass[reference_.top().klass]++;
      if (reference_.top().ev.to >= 0) ++deliveries;
    }
    return {by_klass, deliveries};
  }

 private:
  struct Ref {
    int klass;
    std::uint64_t seq;
    Dispatch ev;
    bool operator>(const Ref& o) const {
      return std::tie(ev.time, klass, seq) >
             std::tie(o.ev.time, o.klass, o.seq);
    }
  };

  static constexpr std::size_t kBudget = 40000;

  void deliver(Time t, PartyId from, PartyId to, int type,
               const Payload& body) {
    push({0, seq_++, {t, from, to, type, body.data()}});
    Message msg;
    msg.from = from;
    msg.to = to;
    msg.type = type;
    msg.instance_id = sinks_[0]->instance_id();
    msg.instance_name = &sinks_[0]->key();
    msg.payload = body;
    sim_->schedule_delivery(t, std::move(msg));
  }

  void timer(Time t, int klass) {
    const int id = next_timer_++;
    push({klass, seq_++, {t, -1, -1, id, nullptr}});
    sim_->schedule(
        t, [this, id] { record({sim_->now(), -1, -1, id, nullptr}); }, klass);
  }

  void push(const Ref& ref) {
    reference_.push(ref);
    reference_peak = std::max(reference_peak, reference_.size());
  }

  void record(const Dispatch& got) {
    dispatched.push_back(got);
    ASSERT_FALSE(reference_.empty());
    expected.push_back(reference_.top().ev);
    reference_.pop();
  }

  [[nodiscard]] PartyId any_party() {
    return static_cast<PartyId>(rng_.next_below(128));
  }
  [[nodiscard]] int any_type() { return 1 + static_cast<int>(rng_.next_below(3)); }
  [[nodiscard]] const Payload& any_body() {
    return bodies_[rng_.next_below(bodies_.size())];
  }

  void add_batch(Time t) {
    const PartyId from = any_party();
    const int type = any_type();
    const Payload& body = any_body();
    switch (rng_.next_below(5)) {
      case 0:  // a whole fan-out, receivers on both sides of 64
        for (PartyId to = 0; to < 128; ++to) deliver(t, from, to, type, body);
        break;
      case 1:  // ascending subset, with repeats and descending steps
        for (PartyId to = 0; to < 128; ++to) {
          if (rng_.next_below(3) != 0) continue;
          deliver(t, from, to, type, body);
          if (rng_.next_below(8) == 0) deliver(t, from, to, type, body);
          if (rng_.next_below(8) == 0 && to > 0) {
            deliver(t, from, to - 1, type, body);
          }
        }
        break;
      case 2:  // garbled copies: equal words, two bodies
        for (PartyId to = 0; to < 128; ++to) {
          deliver(t, from, to, type, bodies_[rng_.next_below(2)]);
        }
        break;
      case 3: {  // one key interleaved with another and with klass-0 timers
        const PartyId other = any_party();
        for (PartyId to = 0; to < 128; ++to) {
          deliver(t, from, to, type, body);
          const auto roll = rng_.next_below(10);
          if (roll == 0) deliver(t, other, to, type, body);
          if (roll == 1) deliver(t, from, to, type + 1, body);
          if (roll == 2) timer(t, 0);
        }
        break;
      }
      default:
        timer(t, static_cast<int>(rng_.next_below(4)));
        break;
    }
  }

  void on_delivery(const Message& msg) {
    record({sim_->now(), msg.from, msg.to, msg.type, msg.payload.data()});
    if (!react_ || msg.to % 9 != 0 || seq_ >= kBudget) return;
    // Copies of this very message into the slot being drained: above,
    // equal to and below its receiver, so some join its record and some
    // must not.
    for (const PartyId to :
         {msg.to + 1, msg.to + 40, msg.to, msg.to - 3, msg.to + 70}) {
      if (to >= 0 && to < 128) {
        deliver(sim_->now(), msg.from, to, msg.type, msg.payload);
      }
    }
    if (rng_.next_below(4) == 0) timer(sim_->now(), 0);
    if (rng_.next_below(3) == 0) {
      add_batch(sim_->now() + static_cast<Time>(rng_.next_below(5)));
    }
  }

  bool react_;
  Rng rng_;
  std::unique_ptr<Simulation> sim_;
  std::vector<Recorder*> sinks_;
  // The first two are equal words in distinct bodies.
  const std::vector<Words> values_{{7, 7}, {7, 7}, {1, 2, 3}, {}};
  const std::vector<Payload> bodies_ =
      std::vector<Payload>(values_.begin(), values_.end());
  std::priority_queue<Ref, std::vector<Ref>, std::greater<>> reference_;
  std::uint64_t seq_ = 0;
  int next_timer_ = 0;
};

// Copies of one fan-out that land in one slot share a queued record. The
// records must dispatch exactly what one record per delivery would, in the
// same order, and the queue must count each pending receiver once.
TEST(Sim, FanOutRecordsMatchReferenceHeap) {
  FanOutTraffic traffic(/*max_events=*/200'000'000, /*react=*/true);
  EXPECT_EQ(traffic.sim().run(), RunStatus::quiescent);
  EXPECT_GT(traffic.dispatched.size(), 20000u);
  ASSERT_EQ(traffic.dispatched.size(), traffic.expected.size());
  for (std::size_t i = 0; i < traffic.dispatched.size(); ++i) {
    ASSERT_EQ(traffic.dispatched[i], traffic.expected[i])
        << "first divergence at step " << i;
  }
  EXPECT_EQ(traffic.drain_reference().first.size(), 0u);
  EXPECT_EQ(traffic.sim().metrics().peak_queue_depth, traffic.reference_peak);
}

TEST(Sim, FanOutRecordsCountEachPendingReceiver) {
  constexpr std::uint64_t kTrip = 5000;
  FanOutTraffic traffic(kTrip, /*react=*/false);
  EXPECT_EQ(traffic.sim().run(), RunStatus::event_limit);
  ASSERT_EQ(traffic.dispatched.size(), kTrip);
  EXPECT_EQ(traffic.dispatched, traffic.expected);
  const obs::MetricsRegistry& reg = traffic.sim().metrics_registry();
  ASSERT_TRUE(reg.flight().has_value());
  const obs::FlightRecord& rec = *reg.flight();
  const auto [by_klass, deliveries] = traffic.drain_reference();
  std::uint64_t depth = 0;
  for (const auto& [klass, count] : by_klass) depth += count;
  EXPECT_EQ(rec.queue_depth, depth);
  EXPECT_EQ(rec.queue_by_klass, by_klass);
  EXPECT_EQ(rec.queue_by_kind,
            (std::vector<std::pair<std::string, std::uint64_t>>{
                {"recorder", deliveries}}));
}

/// Counts what happens to one timer closure: runs, copies, and the
/// destruction of a live (not moved-from) object. Its padding outgrows
/// std::function's local buffer, so the closure lives on the heap.
struct ClosureTally {
  int runs = 0;
  int copies = 0;
  int destroyed = 0;
};

class HeavyClosure {
 public:
  explicit HeavyClosure(ClosureTally& tally) : tally_(&tally) {}
  HeavyClosure(const HeavyClosure& other)
      : tally_(other.tally_), pad_(other.pad_) {
    ++tally_->copies;
  }
  HeavyClosure(HeavyClosure&& other) noexcept
      : tally_(other.tally_), pad_(other.pad_) {
    other.live_ = false;
  }
  HeavyClosure& operator=(const HeavyClosure&) = delete;
  HeavyClosure& operator=(HeavyClosure&&) = delete;
  ~HeavyClosure() {
    if (live_) ++tally_->destroyed;
  }

  void operator()() const { ++tally_->runs; }

 private:
  ClosureTally* tally_;
  bool live_ = true;
  std::array<std::uint64_t, 8> pad_{};
};
static_assert(sizeof(HeavyClosure) > sizeof(std::function<void()>));

/// Clears `alive` when its party destroys it.
class Lifetime : public ProtocolInstance {
 public:
  Lifetime(Party& party, std::string key, bool& alive)
      : ProtocolInstance(party, std::move(key)), alive_(&alive) {
    alive = true;
  }
  ~Lifetime() override { *alive_ = false; }

  void on_message(const Message&) override {}

 private:
  bool* alive_;
};

// Timer callables wait in a FIFO beside their calendar slot's records. A
// handler may schedule into its own (time, klass) slot, a lower and a
// higher klass of its tick, and a later tick; every closure runs once and
// is destroyed once; closures still pending at ~Simulation die with their
// slots, before the parties whose instances they may point into.
TEST(Sim, TimerClosuresRunOnceAndDieWithTheirSlot) {
  auto sim = make_sim({.params = testing::p4_1_0()});
  std::vector<std::string> order;
  const auto mark = [&order](std::string label) {
    return [&order, label = std::move(label)] { order.push_back(label); };
  };
  sim->schedule(5, [&] {
    order.emplace_back("a");
    sim->schedule(5, mark("a1"));
    sim->schedule(5, mark("a2"), /*klass=*/2);
    sim->schedule(5, mark("a0"), /*klass=*/0);
    sim->schedule(6, mark("a3"));
    sim->schedule(5, mark("a4"));
  });
  sim->schedule(5, mark("b"));
  sim->schedule(5, mark("c"), /*klass=*/2);
  EXPECT_EQ(sim->run(), RunStatus::quiescent);
  // The reference order is (time, klass, scheduling order).
  EXPECT_EQ(order, (std::vector<std::string>{"a", "a0", "b", "a1", "a4", "c",
                                             "a2", "a3"}));

  ClosureTally tally;
  sim->schedule(10, HeavyClosure(tally));
  EXPECT_EQ(tally.destroyed, 0);
  ASSERT_TRUE(sim->run_one());
  EXPECT_EQ(tally.runs, 1);
  EXPECT_EQ(tally.copies, 0);
  EXPECT_EQ(tally.destroyed, 1);
  EXPECT_FALSE(sim->run_one());
  EXPECT_EQ(tally.runs, 1);
  EXPECT_EQ(tally.destroyed, 1);

  const auto token = std::make_shared<int>(0);
  bool instance_alive = false;
  bool alive_at_release = false;
  {
    auto doomed = make_sim({.params = testing::p4_1_0()});
    doomed->party(0).spawn<Lifetime>("life", instance_alive);
    const std::shared_ptr<int> witness(new int(0), [&](const int* p) {
      alive_at_release = instance_alive;
      delete p;
    });
    doomed->schedule(20, [token] {}, /*klass=*/0);
    doomed->schedule(20, [token, witness] {}, /*klass=*/0);
    doomed->schedule(30, [token] {}, /*klass=*/3);
    EXPECT_EQ(token.use_count(), 4);
    ASSERT_TRUE(doomed->run_one());  // the first closure of slot (20, 0)
    EXPECT_EQ(token.use_count(), 3);
    EXPECT_TRUE(instance_alive);
  }
  EXPECT_FALSE(instance_alive);
  EXPECT_TRUE(alive_at_release);
  EXPECT_EQ(token.use_count(), 1);

  // A delivery is never queued with the timer mark as its receiver.
  EXPECT_THROW(sim->schedule_delivery(sim->now(), Message{}), InvariantError);
}

TEST(PartySetUtil, SubsetIteration) {
  int count = 0;
  PartySet::for_each_subset(5, 2, [&](PartySet s) {
    EXPECT_EQ(s.size(), 2);
    ++count;
  });
  EXPECT_EQ(count, 10);
  // k = 0 yields exactly the empty set.
  count = 0;
  PartySet::for_each_subset(5, 0, [&](PartySet s) {
    EXPECT_TRUE(s.empty());
    ++count;
  });
  EXPECT_EQ(count, 1);
}

}  // namespace
}  // namespace nampc
