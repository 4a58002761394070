#include "adversary/strategy.h"

#include "field/fp.h"
#include "graph/graph.h"
#include "poly/polynomial.h"
#include "sharing/encoding.h"

namespace nampc {

bool StrategyAction::matches(const Message& m, Time now) const {
  if (now < from_time) return false;
  if (!set_a.empty() || !set_b.empty()) {
    const bool between = (set_a.contains(m.from) && set_b.contains(m.to)) ||
                         (set_b.contains(m.from) && set_a.contains(m.to));
    if (!between) return false;
  } else {
    if (party >= 0 && m.from != party) return false;
    if (target >= 0 && m.to != target) return false;
  }
  if (!key.empty()) {
    if (exact_key ? m.instance() != key
                  : m.instance().find(key) == std::string::npos) {
      return false;
    }
  }
  if (type >= 0 && m.type != type) return false;
  return true;
}

ScriptedStrategy::ScriptedStrategy(StrategySpec spec, int n)
    : spec_(std::move(spec)), n_(n) {}

SendDecision ScriptedStrategy::apply(const StrategyAction& action,
                                     const Message& msg) const {
  SendDecision d;
  switch (action.kind) {
    case StrategyAction::Kind::silence:
    case StrategyAction::Kind::crash:
      d.deliver = false;
      break;
    case StrategyAction::Kind::garble: {
      if (msg.payload.empty()) break;
      Message repl = msg;
      for (Word& w : repl.payload.mut()) w = (Fp(w) + Fp(1)).value();
      d.replacement = std::move(repl);
      break;
    }
    case StrategyAction::Kind::equivocate: {
      Message repl = msg;
      repl.payload = {action.value + static_cast<std::uint64_t>(msg.to)};
      d.replacement = std::move(repl);
      break;
    }
    case StrategyAction::Kind::bitflip: {
      if (msg.payload.empty()) break;
      Message repl = msg;
      std::size_t idx = static_cast<std::size_t>(action.value);
      if (idx >= repl.payload.size()) idx = repl.payload.size() - 1;
      repl.payload.mut()[idx] ^= 1u;
      d.replacement = std::move(repl);
      break;
    }
    case StrategyAction::Kind::delay:
      d.delay = action.delay;
      break;
    case StrategyAction::Kind::wss_row_perturb: {
      // δ(x) = scale * Π_{j ∈ corrupt} (x - α_j): vanishes at every corrupt
      // evaluation point, so pairwise checks against the corrupt set pass.
      try {
        Reader r(msg.payload);
        std::vector<Polynomial> rows = decode_polys(r, 64, 63);
        if (rows.empty()) break;
        Polynomial delta = Polynomial::constant(Fp(1 + action.value % 1000));
        for (const int j : spec_.corrupt.to_vector()) {
          delta = delta * Polynomial(FpVec{Fp(0) - eval_point(j), Fp(1)});
        }
        rows[0] = rows[0] + delta;
        Writer w;
        encode_polys(w, rows);
        Message repl = msg;
        repl.payload = std::move(w).take();
        d.replacement = std::move(repl);
      } catch (const DecodeError&) {
        // Filter matched a non-row payload: leave the message alone.
      }
      break;
    }
    case StrategyAction::Kind::wss_qa_split: {
      // AOK graph as every honest party will have observed it — complete
      // minus the honest-honest edges the perturbed rows broke — with the
      // per-destination qualified set {to} ∪ corrupt and U = ∅.
      Graph g(n_);
      for (int i = 0; i < n_; ++i) {
        for (int j = i + 1; j < n_; ++j) {
          if (spec_.corrupt.contains(i) || spec_.corrupt.contains(j)) {
            g.add_edge(i, j);
          }
        }
      }
      PartySet qa = spec_.corrupt;
      qa.insert(msg.to);
      Writer w;
      g.encode(w);
      w.u64(qa.mask());
      w.u64(0);
      Message repl = msg;
      repl.payload = std::move(w).take();
      d.replacement = std::move(repl);
      break;
    }
  }
  return d;
}

SendDecision ScriptedStrategy::on_send(const Message& msg, Time now,
                                       NetworkKind kind, Rng& rng) {
  (void)kind;
  (void)rng;
  for (const StrategyAction& action : spec_.actions) {
    if (action.matches(msg, now)) return apply(action, msg);
  }
  return {};
}

std::optional<Time> ScriptedStrategy::sample_delay(const Message& msg, Time now,
                                                   NetworkKind kind, Rng& rng) {
  (void)now;
  (void)kind;
  (void)rng;
  const SchedulerSpec& s = spec_.sched;
  if (s.mode == SchedulerSpec::Mode::model) return std::nullopt;
  const std::pair<PartyId, PartyId> edge{msg.from, msg.to};
  auto it = edge_rngs_.find(edge);
  if (it == edge_rngs_.end()) {
    const std::uint64_t edge_index =
        static_cast<std::uint64_t>(msg.from) * 64u +
        static_cast<std::uint64_t>(msg.to);
    it = edge_rngs_.emplace(edge, Rng(Rng::split(s.seed, edge_index))).first;
  }
  Rng& er = it->second;
  const Time lo = s.min_delay < 1 ? 1 : s.min_delay;
  const Time hi = s.max_delay < lo ? lo : s.max_delay;
  // Draw the uniform delay first so the edge's stream advances identically
  // whether or not the heavy tail fires.
  const Time base = er.next_in(lo, hi);
  if (s.heavy_num > 0 && s.heavy_den > 0 &&
      er.next_below(s.heavy_den) < s.heavy_num) {
    return s.heavy_delay;
  }
  return base;
}

}  // namespace nampc
