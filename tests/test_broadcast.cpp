// Protocol tests: Acast (Lemma 4.4), Π_SBA, Π_BC (Lemma 4.6), Π_BA
// (Lemma 4.8), in both networks, with honest and corrupt senders, Full and
// Ideal modes.
#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <map>
#include <set>
#include <utility>

#include "broadcast/ba.h"
#include "broadcast/bc.h"
#include "broadcast/sba.h"
#include "sim_helpers.h"

namespace nampc {
namespace {

using testing::make_sim;
using testing::SimSpec;

Words words_of(std::initializer_list<Word> ws) { return Words(ws); }

// ---------------------------------------------------------------- Acast --

struct AcastHarness {
  std::unique_ptr<Simulation> sim;
  std::vector<Acast*> instances;

  explicit AcastHarness(const SimSpec& spec,
                        std::shared_ptr<Adversary> adv = nullptr)
      : sim(make_sim(spec, std::move(adv))) {
    for (int i = 0; i < sim->n(); ++i) {
      instances.push_back(&sim->party(i).spawn<Acast>("acast", 0, nullptr));
    }
  }
};

class AcastNetworkTest : public ::testing::TestWithParam<NetworkKind> {};

TEST_P(AcastNetworkTest, HonestSenderAllOutputs) {
  AcastHarness h({.params = testing::p7_2_1(), .kind = GetParam()});
  const Words m = words_of({1, 2, 3});
  h.instances[0]->start(m);
  EXPECT_EQ(h.sim->run(), RunStatus::quiescent);
  for (Acast* a : h.instances) {
    ASSERT_TRUE(a->has_output());
    EXPECT_EQ(a->output(), m);
    if (GetParam() == NetworkKind::synchronous) {
      EXPECT_LE(a->output_time(), 3 * h.sim->timing().delta);
    }
  }
}

TEST_P(AcastNetworkTest, SilentSenderNobodyOutputs) {
  auto adv = std::make_shared<ScriptedAdversary>(PartySet::of({0}));
  adv->silence(0);
  AcastHarness h({.params = testing::p7_2_1(), .kind = GetParam()}, adv);
  h.instances[0]->start(words_of({9}));
  EXPECT_EQ(h.sim->run(), RunStatus::quiescent);
  for (Acast* a : h.instances) EXPECT_FALSE(a->has_output());
}

TEST_P(AcastNetworkTest, EquivocatingSenderStaysConsistent) {
  // Sender sends different init values to different parties; consistency
  // requires all honest outputs (if any) to be identical.
  auto adv = std::make_shared<ScriptedAdversary>(PartySet::of({0}));
  adv->add_rule(
      [](const Message& m, Time) {
        return m.from == 0 && m.type == 1;  // Acast kInit
      },
      [](const Message& m, Time, Rng&) {
        SendDecision d;
        Message alt = m;
        alt.payload = Words{static_cast<Word>(100 + m.to % 2)};
        d.replacement = std::move(alt);
        return d;
      });
  AcastHarness h({.params = testing::p7_2_1(), .kind = GetParam()}, adv);
  h.instances[0]->start(words_of({77}));
  EXPECT_EQ(h.sim->run(), RunStatus::quiescent);
  std::optional<Words> seen;
  for (int i = 1; i < 7; ++i) {
    if (h.instances[static_cast<std::size_t>(i)]->has_output()) {
      const Words& out = h.instances[static_cast<std::size_t>(i)]->output();
      if (seen.has_value()) {
        EXPECT_EQ(out, *seen);
      } else {
        seen = out;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Networks, AcastNetworkTest,
                         ::testing::Values(NetworkKind::synchronous,
                                           NetworkKind::asynchronous));

/// Records the (type, payload) of every message delivered to its key.
class RecvProbe : public ProtocolInstance {
 public:
  RecvProbe(Party& party, std::string key)
      : ProtocolInstance(party, std::move(key)) {}

  void on_message(const Message& msg) override {
    seen.emplace_back(msg.type, msg.payload.words());
  }

  std::vector<std::pair<int, Words>> seen;
};

constexpr int kAcastInit = 1;  // Acast's wire types
constexpr int kAcastEcho = 2;
constexpr int kAcastReady = 3;

struct CraftedAcast {
  Time at;
  PartyId from;
  int type;
  Payload payload;
};

/// One party of Bracha's Acast with whole-value maps (one PartySet per
/// distinct value, keyed by the words): the reference for Acast's votes.
/// Deliveries run in the DES's order — per tick, first-scheduled first,
/// with each copy to self queued behind what the tick already holds.
/// `sent` records each send_all in order.
struct MapAcast {
  struct Pending {
    PartyId from;
    int type;
    Words payload;
  };

  MapAcast(const ProtocolParams& params, PartyId self, PartyId from)
      : n(params.n), ts(params.ts), me(self), sender(from) {}

  int n;
  int ts;
  PartyId me;
  PartyId sender;
  bool echoed = false;
  bool readied = false;
  std::optional<Words> output;
  Time output_time = -1;
  std::map<Words, PartySet> echoes;
  std::map<Words, PartySet> readies;
  std::vector<std::pair<int, Words>> sent;
  std::map<Time, std::deque<Pending>> queue;
  Time now = 0;

  void send_all(int type, const Words& m) {
    sent.emplace_back(type, m);
    queue[now].push_back({me, type, m});
  }

  void ready(const Words& m) {
    if (readied) return;
    readied = true;
    send_all(kAcastReady, m);
  }

  void on_message(PartyId from, int type, const Words& m) {
    if (type == kAcastInit) {
      if (from != sender || echoed) return;
      echoed = true;
      send_all(kAcastEcho, m);
    } else if (type == kAcastEcho) {
      PartySet& who = echoes[m];
      who.insert(from);
      if (who.size() >= n - ts) ready(m);
    } else if (type == kAcastReady) {
      PartySet& who = readies[m];
      who.insert(from);
      if (who.size() >= ts + 1) ready(m);
      if (who.size() >= n - ts && !output.has_value()) {
        output = m;
        output_time = now;
      }
    }
  }

  void run() {
    while (!queue.empty()) {
      const auto slot = queue.begin();
      now = slot->first;
      const Pending d = std::move(slot->second.front());
      slot->second.pop_front();
      on_message(d.from, d.type, d.payload);
      if (slot->second.empty()) queue.erase(slot);
    }
  }
};

/// Seeded INIT/ECHO/READY traffic to party 0 from parties 1..n-1: votes
/// that lean to one value (so the quorums are met on most seeds), repeats
/// from one sender, a party that echoes and readies two values, INITs from
/// non-senders, empty bodies and unknown types. Each delivery either shares
/// its value's one body or carries equal words in a body of its own.
std::vector<CraftedAcast> craft_acast_traffic(Rng& rng, int n, PartyId sender) {
  const std::vector<Words> values = {{}, {5}, {5, 6}, {6, 5}, {5, 6, 7}};
  const std::vector<Payload> shared(values.begin(), values.end());
  const auto pick = [&] { return rng.next_below(values.size()); };
  const auto body = [&](std::size_t v) {
    return rng.next_bool() ? shared[v] : Payload(values[v]);
  };
  const auto tick = [&] { return static_cast<Time>(rng.next_below(30)); };
  const auto party = [&] {
    return static_cast<PartyId>(1 + rng.next_below(static_cast<Word>(n - 1)));
  };
  const std::size_t favourite = pick();
  const bool lean = rng.next_below(4) != 0;
  const auto vote = [&] {
    return lean && rng.next_below(5) != 0 ? favourite : pick();
  };
  std::vector<CraftedAcast> log;
  for (PartyId from = 1; from < n; ++from) {
    if (from == sender || rng.next_below(4) == 0) {
      const Word inits = 1 + rng.next_below(2);
      for (Word c = 0; c < inits; ++c) {
        log.push_back({tick(), from, kAcastInit, body(vote())});
      }
    }
    for (const int type : {kAcastEcho, kAcastReady}) {
      const Word copies = rng.next_below(4);
      for (Word c = 0; c < copies; ++c) {
        log.push_back({tick(), from, type, body(vote())});
      }
    }
  }
  const PartyId two_faced = party();
  for (const int type : {kAcastEcho, kAcastReady}) {
    log.push_back({tick(), two_faced, type, body(favourite)});
    log.push_back({tick(), two_faced, type, body((favourite + 1) % 5)});
  }
  for (const int type : {0, 4, 9}) {
    log.push_back({tick(), party(), type, body(pick())});
  }
  for (std::size_t i = log.size(); i > 1; --i) {
    std::swap(log[i - 1], log[rng.next_below(i)]);
  }
  return log;
}

// Acast's body-keyed votes against the map-based reference, message for
// message: party 0 runs Acast, everything it hears from parties 1..n-1 is
// crafted, and party 1 holds a probe that records what party 0 sends. At
// the infeasible point (4, 2, 2), n − ts < ts + 1, so party 0 can output
// before it sends READY and an ECHO quorum after its output must still
// make it send one.
TEST(Acast, VotesMatchReferenceMapOnCraftedTraffic) {
  for (const ProtocolParams params :
       {testing::p7_2_1(), ProtocolParams{4, 2, 2}}) {
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
      SCOPED_TRACE(::testing::Message()
                   << "n=" << params.n << " seed=" << seed);
      auto sim = make_sim({.params = params,
                           .seed = seed,
                           .allow_infeasible = !params.feasible()});
      Rng rng(seed);
      const auto sender = static_cast<PartyId>(
          rng.next_below(3) == 0
              ? 0
              : 1 + rng.next_below(static_cast<Word>(params.n - 1)));
      const std::vector<CraftedAcast> log =
          craft_acast_traffic(rng, params.n, sender);

      Acast& acast = sim->party(0).spawn<Acast>("acast", sender, nullptr);
      RecvProbe& probe = sim->party(1).spawn<RecvProbe>("acast");
      MapAcast ref(params, 0, sender);
      if (sender == 0) {
        acast.start({5, 6});
        ref.send_all(kAcastInit, {5, 6});
      }
      for (const CraftedAcast& d : log) {
        Message msg;
        msg.from = d.from;
        msg.to = 0;
        msg.type = d.type;
        msg.instance_id = acast.instance_id();
        msg.instance_name = &acast.key();
        msg.payload = d.payload;
        sim->schedule_delivery(d.at, std::move(msg));
        ref.queue[d.at].push_back({d.from, d.type, d.payload.words()});
      }
      EXPECT_EQ(sim->run(), RunStatus::quiescent);
      ref.run();

      ASSERT_EQ(acast.has_output(), ref.output.has_value());
      if (ref.output.has_value()) {
        EXPECT_EQ(acast.output(), *ref.output);
        EXPECT_EQ(acast.output_time(), ref.output_time);
      }
      EXPECT_EQ(probe.seen, ref.sent);
    }
  }
}

// ----------------------------------------------------------------- SBA --

constexpr int kSbaExchange = 1;  // Sba's wire types
constexpr int kSbaKing = 2;

Words sba_encode(const SbaValue& v) {
  Writer w;
  w.boolean(v.has_value());
  w.vec(v.has_value() ? *v : Words{});
  return std::move(w).take();
}

Words sba_payload(Word phase, const Words& value) {
  Writer w;
  w.u64(phase);
  w.vec(value);
  return std::move(w).take();
}

/// One party of phase-king SBA with whole-value maps: the first EXCHANGE
/// per (phase, sender) and the first KING per phase are stored, and every
/// tally rescans them. The reference for Sba's incremental per-phase
/// tallies; `sent` records each send_all in order.
struct MapSba {
  MapSba(const ProtocolParams& params, PartyId self, SbaValue input)
      : n(params.n), ts(params.ts), me(self), value(std::move(input)) {}

  int n;
  int ts;
  PartyId me;
  SbaValue value;
  std::map<std::pair<int, PartyId>, SbaValue> exchange_msgs;
  std::map<int, SbaValue> king_msgs;
  SbaValue majority;
  int majority_count = 0;
  std::vector<std::pair<int, Words>> sent;

  void on_message(PartyId from, int type, const Words& payload) {
    try {
      Reader r(payload);
      const int phase = static_cast<int>(r.u64());
      if (phase < 0 || phase > ts) return;
      const Words inner = r.vec();
      Reader ir(inner);
      const bool present = ir.boolean();
      Words body = ir.vec();
      const SbaValue v =
          present ? SbaValue(std::move(body)) : SbaValue(std::nullopt);
      if (type == kSbaExchange) {
        exchange_msgs.emplace(std::make_pair(phase, from), v);
      } else if (type == kSbaKing) {
        if (from != phase % n) return;
        king_msgs.emplace(phase, v);
      }
    } catch (const DecodeError&) {
      // Malformed: dropped, like Party::deliver does.
    }
  }

  // The copy to self arrives in the sending tick, before the next timer.
  void send_all(int type, const Words& payload) {
    sent.emplace_back(type, payload);
    on_message(me, type, payload);
  }

  void run_exchange(int phase) {
    send_all(kSbaExchange, sba_payload(static_cast<Word>(phase),
                                       sba_encode(value)));
  }

  void tally_exchange(int phase) {
    std::vector<std::pair<SbaValue, int>> tally;
    for (const auto& [key, v] : exchange_msgs) {
      if (key.first != phase) continue;
      bool found = false;
      for (auto& [tv, count] : tally) {
        if (tv == v) {
          ++count;
          found = true;
          break;
        }
      }
      if (!found) tally.emplace_back(v, 1);
    }
    majority = std::nullopt;
    majority_count = 0;
    for (const auto& [tv, count] : tally) {
      if (count > majority_count ||
          (count == majority_count && sba_value_less(tv, majority))) {
        majority = tv;
        majority_count = count;
      }
    }
    if (me == phase % n) {
      send_all(kSbaKing, sba_payload(static_cast<Word>(phase),
                                     sba_encode(majority)));
    }
  }

  void conclude_phase(int phase) {
    if (majority_count >= n - ts) {
      value = majority;
    } else {
      const auto it = king_msgs.find(phase);
      value = it != king_msgs.end() ? it->second : std::nullopt;
    }
  }
};

struct CraftedDelivery {
  Time at;
  PartyId from;
  int type;
  Words payload;
};

/// Runs `ref` over `log` (in scheduling order) on Sba's phase schedule: at
/// each tick the deliveries first (klass 0), then the timers in the order
/// Sba::start schedules them. Returns the output at T_SBA.
SbaValue replay_map_sba(MapSba& ref, const std::vector<CraftedDelivery>& log,
                        Time delta) {
  std::map<Time, std::vector<std::function<void()>>> timers;
  for (int p = 0; p <= ref.ts; ++p) {
    const Time start = 2 * p * delta;
    timers[start].push_back([&ref, p] { ref.run_exchange(p); });
    timers[start + delta].push_back([&ref, p] { ref.tally_exchange(p); });
    timers[start + 2 * delta].push_back([&ref, p] { ref.conclude_phase(p); });
  }
  std::set<Time> ticks;
  for (const auto& [t, fns] : timers) ticks.insert(t);
  for (const CraftedDelivery& d : log) ticks.insert(d.at);
  for (const Time t : ticks) {
    if (t > 2 * (ref.ts + 1) * delta) break;  // output already fixed
    for (const CraftedDelivery& d : log) {
      if (d.at == t) ref.on_message(d.from, d.type, d.payload);
    }
    if (const auto it = timers.find(t); it != timers.end()) {
      for (const auto& fn : it->second) fn();
    }
  }
  return ref.value;
}

/// Seeded EXCHANGE/KING traffic to party 0 from parties 1..n-1 for phases
/// 0..ts, on ticks before and after each phase's tally: well-formed values
/// in several encodings, repeats from one sender, KING messages from kings
/// and non-kings, malformed payloads and out-of-range phases.
std::vector<CraftedDelivery> craft_sba_traffic(Rng& rng, int n, int ts,
                                               Time delta) {
  const std::vector<SbaValue> pool = {std::nullopt, Words{},     Words{5},
                                      Words{5, 6},  Words{6, 5}, Words{5, 6, 7}};
  const auto pick = [&] { return pool[rng.next_below(pool.size())]; };
  const auto sender = [&] {
    return static_cast<PartyId>(1 + rng.next_below(static_cast<Word>(n - 1)));
  };
  // One of the encodings that decode to v.
  const auto encode = [&](Word phase, const SbaValue& v) {
    Words inner;
    const Word shape = rng.next_below(4);
    inner.push_back(v.has_value() ? (shape == 1 ? 2 : 1) : 0);
    const Words body = v.has_value() ? *v : shape == 2 ? Words{9, 9} : Words{};
    inner.push_back(body.size());
    inner.insert(inner.end(), body.begin(), body.end());
    if (shape == 3) inner.push_back(rng.next_u64());  // trailing word
    Words payload = sba_payload(phase, inner);
    if (rng.next_below(5) == 0) payload.push_back(77);  // trailing word
    return payload;
  };
  const Time end = 2 * (ts + 1) * delta;
  std::vector<CraftedDelivery> log;
  for (int phase = 0; phase <= ts; ++phase) {
    const Time tally_at = 2 * phase * delta + delta;
    const auto word = static_cast<Word>(phase);
    // Half the phases lean to one value so that the n-ts quorum is met.
    const bool lean = rng.next_bool();
    const SbaValue favourite = pick();
    for (PartyId from = 1; from < n; ++from) {
      const Word copies = rng.next_below(4);
      for (Word c = 0; c < copies; ++c) {
        const SbaValue v = lean && rng.next_below(5) != 0 ? favourite : pick();
        const Time at =
            rng.next_below(4) == 0
                ? tally_at + 1 +
                      static_cast<Time>(
                          rng.next_below(static_cast<Word>(2 * delta)))
                : static_cast<Time>(
                      rng.next_below(static_cast<Word>(tally_at + 1)));
        log.push_back({at, from, kSbaExchange, encode(word, v)});
      }
    }
    for (int c = 0; c < 3; ++c) {
      const PartyId king = phase % n;
      const PartyId from = c < 2 && king != 0 ? king : sender();
      const auto at = static_cast<Time>(
          rng.next_below(static_cast<Word>(tally_at + 2 * delta)));
      log.push_back({at, from, kSbaKing, encode(word, pick())});
    }
  }
  for (int i = 0; i < 16; ++i) {
    const Word phase = rng.next_below(static_cast<Word>(ts + 1));
    Words payload;
    switch (rng.next_below(8)) {
      case 0: break;                                    // empty
      case 1: payload = {phase}; break;                 // no value
      case 2: payload = {phase, 9, 1, 0}; break;        // value overruns
      case 3: payload = sba_payload(phase, {1}); break;  // flag only
      case 4: payload = sba_payload(phase, {1, 5, 7}); break;  // body overruns
      case 5:
        payload = encode(static_cast<Word>(ts + 1) + rng.next_below(3), pick());
        break;
      case 6: payload = encode(0xffffffffull, pick()); break;  // phase -1
      default: payload = encode((1ull << 32) | phase, pick()); break;
    }
    const int type = rng.next_bool() ? kSbaExchange : kSbaKing;
    const auto at = static_cast<Time>(rng.next_below(static_cast<Word>(end)));
    log.push_back({at, sender(), type, std::move(payload)});
  }
  for (std::size_t i = log.size(); i > 1; --i) {
    std::swap(log[i - 1], log[rng.next_below(i)]);
  }
  return log;
}

// Sba's per-phase tallies against the map-based reference, message for
// message: party 0 runs Sba, everything it hears from parties 1..6 is
// crafted, and party 1 holds a probe that records what party 0 sends.
TEST(Sba, TallyMatchesReferenceOnCraftedTraffic) {
  const ProtocolParams params = testing::p7_2_1();
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE(seed);
    auto sim = make_sim({.params = params, .seed = seed});
    const Time delta = sim->timing().delta;
    Rng rng(seed);
    const std::vector<CraftedDelivery> log =
        craft_sba_traffic(rng, params.n, params.ts, delta);
    const SbaValue input = rng.next_bool() ? SbaValue(Words{5, 6}) : std::nullopt;

    Sba& sba = sim->party(0).spawn<Sba>("sba", nullptr);
    RecvProbe& probe = sim->party(1).spawn<RecvProbe>("sba");
    sba.start(input);
    for (const CraftedDelivery& d : log) {
      Message msg;
      msg.from = d.from;
      msg.to = 0;
      msg.type = d.type;
      msg.instance_id = sba.instance_id();
      msg.instance_name = &sba.key();
      msg.payload = d.payload;
      sim->schedule_delivery(d.at, std::move(msg));
    }
    EXPECT_EQ(sim->run(), RunStatus::quiescent);

    MapSba ref(params, 0, input);
    const SbaValue expected = replay_map_sba(ref, log, delta);
    ASSERT_TRUE(sba.has_output());
    EXPECT_EQ(sba.output(), expected);
    EXPECT_EQ(probe.seen, ref.sent);
  }
}

struct SbaHarness {
  std::unique_ptr<Simulation> sim;
  std::vector<Sba*> instances;

  SbaHarness(const SimSpec& spec, std::shared_ptr<Adversary> adv)
      : sim(make_sim(spec, std::move(adv))) {
    for (int i = 0; i < sim->n(); ++i) {
      instances.push_back(&sim->party(i).spawn<Sba>("sba", nullptr));
    }
  }
};

// Corrupt party 2 (also phase 2's king) sends every recipient a different
// value in each of its EXCHANGE and KING messages.
TEST(Sba, ValidityAndConsistencyUnderEquivocation) {
  const auto equivocating = [] {
    auto adv = std::make_shared<ScriptedAdversary>(PartySet::of({2}));
    adv->add_rule(
        [](const Message& m, Time) {
          return m.from == 2 && (m.type == kSbaExchange || m.type == kSbaKing);
        },
        [](const Message& m, Time, Rng&) {
          Reader r(m.payload);
          const Word phase = r.u64();
          const SbaValue v = m.to % 3 == 0
                                 ? SbaValue(std::nullopt)
                                 : SbaValue(Words{static_cast<Word>(m.to)});
          SendDecision d;
          Message alt = m;
          alt.payload = sba_payload(phase, sba_encode(v));
          d.replacement = std::move(alt);
          return d;
        });
    return adv;
  };
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE(seed);
    // Validity: a unanimous honest input is the output.
    SbaHarness unanimous({.params = testing::p7_2_1(), .seed = seed},
                         equivocating());
    for (int i = 0; i < 7; ++i) {
      unanimous.instances[static_cast<std::size_t>(i)]->start(
          i == 2 ? SbaValue(Words{9}) : SbaValue(Words{4, 2}));
    }
    EXPECT_EQ(unanimous.sim->run(), RunStatus::quiescent);
    for (int i = 0; i < 7; ++i) {
      if (i == 2) continue;
      const Sba& sba = *unanimous.instances[static_cast<std::size_t>(i)];
      ASSERT_TRUE(sba.has_output());
      EXPECT_EQ(sba.output(), SbaValue(Words{4, 2}));
    }

    // Consistency: mixed honest inputs, one honest output.
    SbaHarness mixed({.params = testing::p7_2_1(), .seed = seed},
                     equivocating());
    Rng rng(seed);
    const std::vector<SbaValue> inputs = {std::nullopt, Words{1}, Words{2}};
    for (Sba* sba : mixed.instances) {
      sba->start(inputs[rng.next_below(inputs.size())]);
    }
    EXPECT_EQ(mixed.sim->run(), RunStatus::quiescent);
    ASSERT_TRUE(mixed.instances[0]->has_output());
    const SbaValue agreed = mixed.instances[0]->output();
    for (int i = 1; i < 7; ++i) {
      if (i == 2) continue;
      const Sba& sba = *mixed.instances[static_cast<std::size_t>(i)];
      ASSERT_TRUE(sba.has_output());
      EXPECT_EQ(sba.output(), agreed);
    }
  }
}

// ------------------------------------------------------------------ BC --

struct BcHarness {
  std::unique_ptr<Simulation> sim;
  std::vector<Bc*> instances;

  explicit BcHarness(const SimSpec& spec, PartyId sender,
                     std::shared_ptr<Adversary> adv = nullptr)
      : sim(make_sim(spec, std::move(adv))) {
    for (int i = 0; i < sim->n(); ++i) {
      instances.push_back(
          &sim->party(i).spawn<Bc>("bc", sender, /*nominal_start=*/0, nullptr));
    }
  }
};

struct BcCase {
  NetworkKind kind;
  bool ideal;
};

class BcModeTest : public ::testing::TestWithParam<BcCase> {};

TEST_P(BcModeTest, HonestSenderDeliversByTbc) {
  const auto& c = GetParam();
  BcHarness h({.params = testing::p7_2_1(), .kind = c.kind, .ideal = c.ideal},
              0);
  const Words m = words_of({5, 6});
  h.instances[0]->start(m);
  EXPECT_EQ(h.sim->run(), RunStatus::quiescent);
  for (Bc* bc : h.instances) {
    ASSERT_TRUE(bc->regular_done());
    if (c.kind == NetworkKind::synchronous) {
      // Lemma 4.6 sync validity: regular-mode output m.
      ASSERT_TRUE(bc->regular_output().has_value());
      EXPECT_EQ(*bc->regular_output(), m);
    } else {
      // Async weak validity: m or ⊥ regular; fallback upgrades ⊥ to m.
      ASSERT_TRUE(bc->current_output().has_value());
      EXPECT_EQ(*bc->current_output(), m);
    }
  }
}

TEST_P(BcModeTest, SilentSenderGivesBotEverywhere) {
  const auto& c = GetParam();
  auto adv = std::make_shared<ScriptedAdversary>(
      PartySet::of({1}));
  adv->silence(1);
  BcHarness h({.params = testing::p7_2_1(), .kind = c.kind, .ideal = c.ideal},
              1, adv);
  h.instances[1]->start(words_of({3}));
  EXPECT_EQ(h.sim->run(), RunStatus::quiescent);
  for (Bc* bc : h.instances) {
    EXPECT_TRUE(bc->regular_done());
    EXPECT_FALSE(bc->regular_output().has_value());
    EXPECT_FALSE(bc->current_output().has_value());
  }
}

TEST_P(BcModeTest, SyncConsistencyUnderEquivocation) {
  const auto& c = GetParam();
  if (c.kind != NetworkKind::synchronous) GTEST_SKIP();
  auto adv = std::make_shared<ScriptedAdversary>(PartySet::of({2}));
  adv->add_rule(
      [](const Message& m, Time) {
        return m.from == 2 && m.type == 1 &&
               m.instance().find("acast") != std::string::npos;
      },
      [](const Message& m, Time, Rng&) {
        SendDecision d;
        Message alt = m;
        alt.payload = Words{static_cast<Word>(m.to % 2)};
        d.replacement = std::move(alt);
        return d;
      });
  BcHarness h({.params = testing::p7_2_1(), .kind = c.kind, .ideal = c.ideal},
              2, adv);
  h.instances[2]->start(words_of({1}));
  EXPECT_EQ(h.sim->run(), RunStatus::quiescent);
  // Lemma 4.6 sync consistency: all honest regular outputs identical.
  const auto& ref = h.instances[0]->regular_output();
  for (int i = 0; i < 7; ++i) {
    if (i == 2) continue;
    EXPECT_EQ(h.instances[static_cast<std::size_t>(i)]->regular_output(), ref);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, BcModeTest,
    ::testing::Values(BcCase{NetworkKind::synchronous, false},
                      BcCase{NetworkKind::synchronous, true},
                      BcCase{NetworkKind::asynchronous, false},
                      BcCase{NetworkKind::asynchronous, true}));

// ------------------------------------------------------------------ BA --

struct BaHarness {
  std::unique_ptr<Simulation> sim;
  std::vector<Ba*> instances;

  explicit BaHarness(const SimSpec& spec,
                     std::shared_ptr<Adversary> adv = nullptr)
      : sim(make_sim(spec, std::move(adv))) {
    for (int i = 0; i < sim->n(); ++i) {
      instances.push_back(
          &sim->party(i).spawn<Ba>("ba", /*nominal_start=*/0, nullptr));
    }
  }

  void start_with(const std::vector<bool>& inputs) {
    for (int i = 0; i < sim->n(); ++i) {
      instances[static_cast<std::size_t>(i)]->start(
          inputs[static_cast<std::size_t>(i)]);
    }
  }
};

struct BaCase {
  NetworkKind kind;
  bool ideal;
  bool local_coins;
};

class BaModeTest : public ::testing::TestWithParam<BaCase> {};

TEST_P(BaModeTest, ValidityUnanimousInput) {
  const auto& c = GetParam();
  for (bool bit : {false, true}) {
    BaHarness h({.params = testing::p7_2_1(),
                 .kind = c.kind,
                 .seed = 17,
                 .ideal = c.ideal,
                 .local_coins = c.local_coins});
    h.start_with(std::vector<bool>(7, bit));
    EXPECT_EQ(h.sim->run(), RunStatus::quiescent);
    for (Ba* ba : h.instances) {
      ASSERT_TRUE(ba->has_output());
      EXPECT_EQ(ba->output(), bit);
    }
  }
}

TEST_P(BaModeTest, ConsistencyMixedInput) {
  const auto& c = GetParam();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    BaHarness h({.params = testing::p7_2_1(),
                 .kind = c.kind,
                 .seed = seed,
                 .ideal = c.ideal,
                 .local_coins = c.local_coins});
    h.start_with({true, false, true, false, true, false, true});
    EXPECT_EQ(h.sim->run(), RunStatus::quiescent);
    ASSERT_TRUE(h.instances[0]->has_output());
    const bool v = h.instances[0]->output();
    for (Ba* ba : h.instances) {
      ASSERT_TRUE(ba->has_output());
      EXPECT_EQ(ba->output(), v);
    }
  }
}

TEST_P(BaModeTest, ConsistencyWithCrashedParties) {
  const auto& c = GetParam();
  // One corrupt silent party (within budget for both networks at (7,2,1)).
  auto adv = std::make_shared<ScriptedAdversary>(PartySet::of({6}));
  adv->silence(6);
  BaHarness h({.params = testing::p7_2_1(),
               .kind = c.kind,
               .seed = 5,
               .ideal = c.ideal,
               .local_coins = c.local_coins},
              adv);
  h.start_with({true, true, false, false, true, false, true});
  EXPECT_EQ(h.sim->run(), RunStatus::quiescent);
  std::optional<bool> v;
  for (int i = 0; i < 6; ++i) {
    Ba* ba = h.instances[static_cast<std::size_t>(i)];
    ASSERT_TRUE(ba->has_output());
    if (!v.has_value()) v = ba->output();
    EXPECT_EQ(ba->output(), *v);
  }
}

TEST_P(BaModeTest, SyncLivenessByTba) {
  const auto& c = GetParam();
  if (c.kind != NetworkKind::synchronous) GTEST_SKIP();
  BaHarness h({.params = testing::p7_2_1(),
               .kind = c.kind,
               .ideal = c.ideal,
               .local_coins = c.local_coins});
  h.start_with(std::vector<bool>(7, true));
  bool all_done_at_tba = true;
  h.sim->schedule(h.sim->timing().t_ba, [&] {
    for (Ba* ba : h.instances) {
      if (!ba->has_output()) all_done_at_tba = false;
    }
  });
  EXPECT_EQ(h.sim->run(), RunStatus::quiescent);
  EXPECT_TRUE(all_done_at_tba);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, BaModeTest,
    ::testing::Values(BaCase{NetworkKind::synchronous, false, false},
                      BaCase{NetworkKind::synchronous, true, false},
                      BaCase{NetworkKind::asynchronous, false, false},
                      BaCase{NetworkKind::asynchronous, true, false},
                      BaCase{NetworkKind::synchronous, false, true},
                      BaCase{NetworkKind::asynchronous, false, true}));

}  // namespace
}  // namespace nampc
