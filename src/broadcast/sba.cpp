#include "broadcast/sba.h"

#include <algorithm>
#include <map>
#include <span>

namespace nampc {

bool sba_value_less(const SbaValue& a, const SbaValue& b) {
  if (a.has_value() != b.has_value()) return !a.has_value();
  if (!a.has_value()) return false;
  return *a < *b;
}

namespace {

/// Shared state of the ideal-agreement functionality (ideal_primitives mode).
struct IdealSbaGadget {
  std::map<PartyId, SbaValue> inputs;

  /// Deterministic agreement rule over the honest inputs: most frequent
  /// value, ties broken towards the smaller value. Realises validity
  /// (unanimous honest input wins) and consistency by construction.
  [[nodiscard]] SbaValue decide(const PartySet& corrupt) const {
    std::vector<std::pair<SbaValue, int>> tally;
    for (const auto& [id, v] : inputs) {
      if (corrupt.contains(id)) continue;
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
    SbaValue best;  // ⊥ when no honest input registered
    int best_count = 0;
    for (const auto& [tv, count] : tally) {
      if (count > best_count ||
          (count == best_count && sba_value_less(tv, best))) {
        best = tv;
        best_count = count;
      }
    }
    return best;
  }
};

/// Element `phase` of a per-phase vector, grown on first use.
template <typename T>
T& phase_slot(std::vector<T>& slots, int phase) {
  const auto i = static_cast<std::size_t>(phase);
  if (i >= slots.size()) slots.resize(i + 1);
  return slots[i];
}

}  // namespace

Sba::Sba(Party& party, std::string key, OutputFn on_output)
    : ProtocolInstance(party, std::move(key)), on_output_(std::move(on_output)) {
  span_kind("sba");
}

Words Sba::encode_value(const SbaValue& v) {
  Writer w;
  w.boolean(v.has_value());
  w.vec(v.has_value() ? *v : Words{});
  return std::move(w).take();
}

void Sba::start(SbaValue input) {
  NAMPC_REQUIRE(!started_, "sba started twice");
  started_ = true;
  start_time_ = now();
  value_ = std::move(input);
  notify_input(encode_value(value_));

  if (sim().config().ideal_primitives) {
    // NOLINT-NAMPC(model-shared-state): ideal-primitive substitution — the
    // gadget IS the ideal SBA functionality (DESIGN.md), not protocol state.
    auto& gadget = sim().shared_state<IdealSbaGadget>(
        "sba:" + key(), [] { return new IdealSbaGadget(); });
    gadget.inputs.emplace(my_id(), value_);
    at(
        start_time_ + timing().t_sba,
        [this, &gadget] {
          if (sim().kind() == NetworkKind::synchronous) {
            output_ = gadget.decide(sim().adversary().corrupt_set());
          } else {
            output_ = value_;  // async: Π_BC relies on Acast, not on Π_SBA
          }
          finish();
        },
        /*klass=*/1);
    return;
  }

  // LINT:threshold(sba.phase_count)
  for (int phase = 0; phase <= params().ts; ++phase) {
    const Time phase_start = start_time_ + 2 * phase * timing().delta;
    at(phase_start, [this, phase] { run_exchange(phase); }, /*klass=*/1);
    at(
        phase_start + timing().delta,
        [this, phase] { tally_exchange(phase); }, /*klass=*/1);
    at(
        phase_start + 2 * timing().delta,
        [this, phase] { conclude_phase(phase); }, /*klass=*/1);
  }
  at(
      start_time_ + timing().t_sba,
      [this] {
        output_ = value_;
        finish();
      },
      /*klass=*/1);
}

void Sba::run_exchange(int phase) {
  Writer w;
  w.u64(static_cast<std::uint64_t>(phase));
  const Words val = encode_value(value_);
  w.vec(val);
  send_all(kExchange, std::move(w).take());
}

void Sba::on_message(const Message& msg) {
  // A malformed payload is dropped here, before any state changes, without
  // a DecodeError: a garbling party sends one every round (DESIGN.md §10).
  Reader r(msg.payload);
  const std::optional<Word> phase_word = r.try_u64();
  if (!phase_word.has_value()) return;
  const int phase = static_cast<int>(*phase_word);
  // LINT:threshold(sba.phase_count)
  if (phase < 0 || phase > params().ts) return;
  // The value (encode_value's layout) is read in place and copied only when
  // it is kept.
  const std::optional<std::span<const Word>> value_words = r.try_view();
  if (!value_words.has_value()) return;
  Reader value(*value_words);
  const std::optional<Word> flag = value.try_u64();
  const std::optional<std::span<const Word>> body = value.try_view();
  if (!flag.has_value() || !body.has_value()) return;
  const bool present = *flag != 0;
  const auto same = [&](const SbaValue& v) {
    return v.has_value() == present &&
           (!present || std::ranges::equal(*v, *body));
  };
  const auto copy = [&]() -> SbaValue {
    if (!present) return std::nullopt;
    return Words(body->begin(), body->end());
  };
  if (msg.type == kExchange) {
    if (phase < tallied_) return;  // its tally has run
    Tally& tally = phase_slot(exchange_, phase);
    if (tally.senders.contains(msg.from)) return;
    tally.senders.insert(msg.from);
    const auto it = std::ranges::find_if(tally.counts, same,
                                         &std::pair<SbaValue, int>::first);
    if (it != tally.counts.end()) {
      ++it->second;
    } else {
      tally.counts.emplace_back(copy(), 1);
    }
  } else if (msg.type == kKing) {
    if (phase < concluded_) return;  // the phase has concluded
    if (msg.from != phase % n()) return;  // only the phase king may speak
    std::optional<SbaValue>& king = phase_slot(king_, phase);
    if (!king.has_value()) king = copy();
  }
}

void Sba::tally_exchange(int phase) {
  // Most frequent value among this phase's exchange messages.
  phase_majority_ = std::nullopt;
  phase_majority_count_ = 0;
  Tally::Counts& counts = phase_slot(exchange_, phase).counts;
  for (const auto& [tv, count] : counts) {
    if (count > phase_majority_count_ ||
        (count == phase_majority_count_ && sba_value_less(tv, phase_majority_))) {
      phase_majority_ = tv;
      phase_majority_count_ = count;
    }
  }
  counts = Tally::Counts();  // read once; frees the storage
  tallied_ = phase + 1;
  // King round: the phase king announces its majority.
  if (my_id() == phase % n()) {
    Writer w;
    w.u64(static_cast<std::uint64_t>(phase));
    w.vec(encode_value(phase_majority_));
    send_all(kKing, std::move(w).take());
  }
}

void Sba::conclude_phase(int phase) {
  std::optional<SbaValue>& king = phase_slot(king_, phase);
  // LINT:threshold(sba.majority_quorum)
  if (phase_majority_count_ >= n() - params().ts) {
    value_ = phase_majority_;
  } else {
    value_ = king.value_or(std::nullopt);
  }
  king.reset();
  concluded_ = phase + 1;
}

void Sba::finish() {
  if (done_) return;
  done_ = true;
  exchange_ = std::vector<Tally>();
  king_ = std::vector<std::optional<SbaValue>>();
  span_done();
  notify_output(encode_value(output_));
  if (on_output_) on_output_(output_);
}

}  // namespace nampc
