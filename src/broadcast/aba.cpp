#include "broadcast/aba.h"

#include <vector>

namespace nampc {

namespace {

/// Ideal-agreement functionality used in ideal_primitives mode: decides the
/// majority bit of the honest inputs registered when the (n - ts)-quorum
/// forms (unanimous honest prefixes win, satisfying validity), and delivers
/// to each party after it has joined.
struct IdealAbaGadget {
  struct Waiter {
    PartyId id;
    Time input_time;
    std::function<void(bool)> deliver;
    bool delivered = false;
  };
  std::map<PartyId, bool> inputs;
  std::vector<Waiter> waiters;
  std::optional<bool> decision;
  Time quorum_time = 0;
};

}  // namespace

Aba::Aba(Party& party, std::string key, OutputFn on_output)
    : ProtocolInstance(party, std::move(key)), on_output_(std::move(on_output)) {
  span_kind("aba");
}

bool Aba::coin(int round) {
  if (sim().config().local_coins) return rng().next_bool();
  return sim().common_coin(key(), static_cast<std::uint64_t>(round));
}

void Aba::start(bool input) {
  NAMPC_REQUIRE(!started_, "aba started twice");
  started_ = true;
  value_ = input;
  notify_input(Words{input ? 1ull : 0ull});

  if (sim().config().ideal_primitives) {
    // NOLINT-NAMPC(model-shared-state): ideal-primitive substitution — the
    // gadget IS the ideal ABA functionality (DESIGN.md), not protocol state.
    auto& gadget = sim().shared_state<IdealAbaGadget>(
        "aba:" + key(), [] { return new IdealAbaGadget(); });
    gadget.inputs.emplace(my_id(), input);
    gadget.waiters.push_back(
        {my_id(), now(), [this](bool v) {
           if (!decided_.has_value()) {
             decided_ = v;
             span_done();
             notify_output(Words{v ? 1ull : 0ull});
             if (on_output_) on_output_(v);
           }
         }});
    const PartySet corrupt = sim().adversary().corrupt_set();
    if (!gadget.decision.has_value() &&
        static_cast<int>(gadget.inputs.size()) >=
            n() - params().ts) {  // LINT:threshold(aba.input_quorum)
      int ones = 0;
      int zeros = 0;
      for (const auto& [id, v] : gadget.inputs) {
        if (corrupt.contains(id)) continue;
        (v ? ones : zeros)++;
      }
      gadget.decision = ones >= zeros;  // ties -> 1, matching Π_BA's rule
      gadget.quorum_time = now();
    }
    if (gadget.decision.has_value()) {
      // Deliver to every joined party that has not been served yet.
      for (auto& waiter : gadget.waiters) {
        if (waiter.delivered) continue;
        waiter.delivered = true;
        Time when = std::max(waiter.input_time, gadget.quorum_time) +
                    timing().t_aba;
        if (sim().kind() == NetworkKind::asynchronous) {
          when += sim().rng().next_in(
              1, sim().config().async_spread * timing().delta);
        }
        auto deliver = waiter.deliver;
        const bool v = *gadget.decision;
        // klass 0: an ideal output is observationally a message arrival —
        // "by time T" checks at the same tick must see it.
        // NOLINT-NAMPC(model-sim-schedule): ideal-functionality delivery is
        // the simulator's own act, not a protocol message.
        sim().schedule(
            std::max(when, now()), [deliver, v] { deliver(v); }, /*klass=*/0);
      }
    }
    return;
  }

  round_ = 1;
  begin_round();
}

void Aba::begin_round() {
  metrics().aba_rounds++;
  phase_ = 1;
  Writer w;
  w.u64(static_cast<std::uint64_t>(round_));
  w.u64(static_cast<std::uint64_t>(value_ ? 1 : 0));
  send_all(kPhase1, std::move(w).take());
  try_advance();
}

void Aba::decide(bool v) {
  if (!decided_.has_value()) {
    decided_ = v;
    span_done();
    notify_output(Words{v ? 1ull : 0ull});
    if (on_output_) on_output_(v);
  }
  value_ = *decided_;
  if (!sent_decide_) {
    // Bracha's termination amplification: announce the decision and keep
    // participating in rounds until 2ts+1 announcements permit halting.
    sent_decide_ = true;
    Writer w;
    w.u64(static_cast<std::uint64_t>(*decided_ ? 1 : 0));
    send_all(kDecide, std::move(w).take());
    check_decide_votes();
  }
}

void Aba::check_decide_votes() {
  // LINT:threshold(aba.decide_support)
  const int t_plus_1 = params().ts + 1;
  // LINT:threshold(aba.decide_quorum)
  const int two_t_plus_1 = 2 * params().ts + 1;
  for (const int v : {0, 1}) {
    const int votes = decide_votes_[v].size();
    // ts+1 distinct DECIDE(v): at least one honest party decided v, so v is
    // the unique decidable value.
    if (votes >= t_plus_1) decide(v == 1);
    // 2ts+1: enough honest parties have announced that every remaining
    // honest party is guaranteed to cross ts+1 as well — safe to go silent.
    if (votes >= two_t_plus_1 && decided_.has_value() &&
        *decided_ == (v == 1)) {
      halted_ = true;
    }
  }
}

void Aba::check_late_decide(int round) {
  // Phase-3 confirmations are decisive no matter when they arrive: 2ts+1
  // matching confirms in any round pin the decision (every honest party saw
  // at least ts+1 of them in its own quorum view of that round and adopted
  // the value, so no other value can ever gather 2ts+1).
  const auto it = msgs_.find({kPhase3, round});
  if (it == msgs_.end()) return;
  int ones = 0;
  int zeros = 0;
  for (const auto& [id, v] : it->second) {
    if (v == 1) ++ones;
    else if (v == 0) ++zeros;
  }
  // LINT:threshold(aba.decide_quorum)
  const int two_t_plus_1 = 2 * params().ts + 1;
  if (ones >= two_t_plus_1) decide(true);
  else if (zeros >= two_t_plus_1) decide(false);
}

void Aba::on_message(const Message& msg) {
  if (msg.type == kDecide) {
    Reader r(msg.payload);
    const int v = static_cast<int>(r.u64());
    if (v < 0 || v > 1) return;
    decide_votes_[v].insert(msg.from);
    check_decide_votes();
    return;
  }
  if (msg.type != kPhase1 && msg.type != kPhase2 && msg.type != kPhase3) return;
  Reader r(msg.payload);
  const int round = static_cast<int>(r.u64());
  const int v = static_cast<int>(r.u64());
  if (round < 1 || round > 100000) return;
  if (v < 0 || v > 2) return;
  if ((msg.type != kPhase3) && v == kNoCandidate) return;
  msgs_[{msg.type, round}].emplace(msg.from, v);
  if (msg.type == kPhase3) check_late_decide(round);
  try_advance();
}

void Aba::try_advance() {
  if (halted_ || !started_) return;
  // LINT:threshold(aba.round_quorum)
  const int quorum = n() - params().ts;

  bool progressed = true;
  while (progressed && !halted_) {
    progressed = false;
    const auto& cur = msgs_[{phase_, round_}];
    if (static_cast<int>(cur.size()) < quorum) return;

    int ones = 0;
    int zeros = 0;
    int no_cand = 0;
    for (const auto& [id, v] : cur) {
      if (v == 1) ++ones;
      else if (v == 0) ++zeros;
      else ++no_cand;
    }

    if (phase_ == 1) {
      const int prop = ones >= zeros ? 1 : 0;  // majority of received values
      phase_ = 2;
      Writer w;
      w.u64(static_cast<std::uint64_t>(round_));
      w.u64(static_cast<std::uint64_t>(prop));
      send_all(kPhase2, std::move(w).take());
      progressed = true;
    } else if (phase_ == 2) {
      // Candidate threshold quorum - ts (= n - 2ts): unique within a view
      // for n > 3ts, and a unanimous honest round always clears it — a
      // single corrupt vote inside the quorum must not block candidate
      // formation (that is the coin-walk agreement bug; see aba.h).
      // LINT:threshold(aba.candidate_quorum)
      const int cand_quorum = quorum - params().ts;
      int cand = kNoCandidate;
      if (ones >= cand_quorum) cand = 1;
      else if (zeros >= cand_quorum) cand = 0;
      phase_ = 3;
      Writer w;
      w.u64(static_cast<std::uint64_t>(round_));
      w.u64(static_cast<std::uint64_t>(cand));
      send_all(kPhase3, std::move(w).take());
      progressed = true;
    } else {  // phase 3
      // LINT:threshold(aba.decide_quorum)
      const int two_t_plus_1 = 2 * params().ts + 1;
      // LINT:threshold(aba.decide_support)
      const int t_plus_1 = params().ts + 1;
      if (ones >= two_t_plus_1 || zeros >= two_t_plus_1) {
        decide(ones >= two_t_plus_1);
      } else if (decided_.has_value()) {
        // A decided party keeps its value: rounds continue only to carry
        // the other parties over the line, never to revisit the decision.
      } else if (ones >= t_plus_1) {
        value_ = true;
      } else if (zeros >= t_plus_1) {
        value_ = false;
      } else {
        value_ = coin(round_);
      }
      ++round_;
      begin_round();
      return;  // begin_round re-enters try_advance
    }
  }
}

}  // namespace nampc
