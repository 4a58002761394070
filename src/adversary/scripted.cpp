#include "adversary/scripted.h"

#include "field/fp.h"

namespace nampc {

ScriptedAdversary& ScriptedAdversary::silence(PartyId p, Time from_time) {
  return add_rule(
      [p, from_time](const Message& m, Time now) {
        return m.from == p && now >= from_time;
      },
      [](const Message&, Time, Rng&) {
        SendDecision d;
        d.deliver = false;
        return d;
      });
}

ScriptedAdversary& ScriptedAdversary::silence_on(PartyId p,
                                                 std::string key_fragment,
                                                 Time from_time) {
  return add_rule(
      [p, frag = std::move(key_fragment), from_time](const Message& m,
                                                     Time now) {
        return m.from == p && now >= from_time &&
               m.instance().find(frag) != std::string::npos;
      },
      [](const Message&, Time, Rng&) {
        SendDecision d;
        d.deliver = false;
        return d;
      });
}

ScriptedAdversary& ScriptedAdversary::garble_on(PartyId p,
                                                std::string key_fragment,
                                                Time from_time) {
  return add_rule(
      [p, frag = std::move(key_fragment), from_time](const Message& m,
                                                     Time now) {
        return m.from == p && now >= from_time &&
               m.instance().find(frag) != std::string::npos &&
               !m.payload.empty();
      },
      [](const Message& m, Time, Rng&) {
        SendDecision d;
        Message garbled = m;
        for (Word& w : garbled.payload.mut()) {
          w = (Fp(w) + Fp(1)).value();
        }
        d.replacement = std::move(garbled);
        return d;
      });
}

ScriptedAdversary& ScriptedAdversary::delay_between(PartySet a, PartySet b,
                                                    Time delay) {
  return add_rule(
      [a, b](const Message& m, Time) {
        return (a.contains(m.from) && b.contains(m.to)) ||
               (b.contains(m.from) && a.contains(m.to));
      },
      [delay](const Message&, Time, Rng&) {
        SendDecision d;
        d.delay = delay;
        return d;
      });
}

ScriptedAdversary& ScriptedAdversary::fixed_delay(Time delay) {
  return add_rule([](const Message&, Time) { return true; },
                  [delay](const Message&, Time, Rng&) {
                    SendDecision d;
                    d.delay = delay;
                    return d;
                  });
}

SendDecision ScriptedAdversary::on_send(const Message& msg, Time now,
                                        NetworkKind kind, Rng& rng) {
  (void)kind;
  for (const Rule& rule : rules_) {
    if (rule.pred(msg, now)) return rule.act(msg, now, rng);
  }
  return {};
}

}  // namespace nampc
