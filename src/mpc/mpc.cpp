#include "mpc/mpc.h"

#include <algorithm>

namespace nampc {

namespace {
// Monitor payload: (known, value) per circuit output — private outputs are
// known only to their owner, so MpcMonitor compares just the overlap.
Words mpc_output_event(const std::vector<bool>& known, const FpVec& values) {
  Writer w;
  w.u64(values.size());
  for (std::size_t k = 0; k < values.size(); ++k) {
    w.boolean(k < known.size() && known[k]).u64(values[k].value());
  }
  return std::move(w).take();
}
}  // namespace

Mpc::Mpc(Party& party, std::string key, const Circuit& circuit,
         FpVec my_inputs, OutputFn on_output)
    : ProtocolInstance(party, std::move(key)),
      circuit_(circuit),
      my_inputs_(std::move(my_inputs)),
      on_output_(std::move(on_output)) {
  const int nn = n();
  const int ts = params().ts;
  const int ta = params().ta;
  span_kind("mpc");

  // Candidate subsets Z of size ts - ta, in a canonical order shared by all
  // parties.
  PartySet::for_each_subset(nn, ts - ta, [this](PartySet z) {
    subsets_.push_back(z);
  });
  const int k = static_cast<int>(subsets_.size());
  NAMPC_REQUIRE(k >= 1 && k <= 64,
                "C(n, ts-ta) subsets must fit the slot-ACS (<= 64)");

  // Enough triples per dealer for the worst-case Com.
  int m_min = nn - ts;
  if (m_min % 2 == 0) --m_min;
  const int per_batch = (m_min - 1) / 2 + 1 - ts;
  NAMPC_REQUIRE(per_batch >= 1, "extraction yields nothing at these params");
  const int c_mult = circuit_.num_multiplications();
  triples_per_dealer_ = std::max(1, (c_mult + per_batch - 1) / per_batch);

  // Sharing phase: one VTS + one input-VSS per (subset, dealer).
  vts_.resize(static_cast<std::size_t>(k));
  inp_.resize(static_cast<std::size_t>(k));
  acs1_.resize(static_cast<std::size_t>(k));
  acs1_done_.resize(static_cast<std::size_t>(k));
  for (int z = 0; z < k; ++z) {
    vts_[static_cast<std::size_t>(z)].resize(static_cast<std::size_t>(nn));
    inp_[static_cast<std::size_t>(z)].resize(static_cast<std::size_t>(nn));
    for (int d = 0; d < nn; ++d) {
      std::string pfx = "z";
      pfx += std::to_string(z);
      pfx += '/';
      vts_[static_cast<std::size_t>(z)][static_cast<std::size_t>(d)] =
          &make_child<Vts>(pfx + "vts" + std::to_string(d), d, 0,
                           triples_per_dealer_, subsets_[static_cast<std::size_t>(z)],
                           [this, z, d] { on_dealer_done(z, d); });
      const int width = std::max(1, circuit_.num_inputs_of(d));
      inp_[static_cast<std::size_t>(z)][static_cast<std::size_t>(d)] =
          &make_child<Vss>(pfx + "inp" + std::to_string(d), d, 0, width,
                           subsets_[static_cast<std::size_t>(z)],
                           [this, z, d] { on_dealer_done(z, d); });
    }
    acs1_[static_cast<std::size_t>(z)] = &make_child<Acs>(
        "acs1_" + std::to_string(z), timing().t_vts,
        [this, z](PartySet com) { on_acs1(z, com); });
  }
  acs2_ = &make_child<AcsCore>("acs2", timing().t_vts + timing().t_acs, k,
                               /*quorum=*/1,
                               [this](PartySet s) { on_acs2(s); });

  // Start this party's own dealings.
  const int my_width = std::max(1, circuit_.num_inputs_of(my_id()));
  std::vector<Polynomial> input_rows;
  input_rows.reserve(static_cast<std::size_t>(my_width));
  for (int i = 0; i < my_width; ++i) {
    const Fp v = i < static_cast<int>(my_inputs_.size())
                     ? my_inputs_[static_cast<std::size_t>(i)]
                     : Fp(0);
    input_rows.push_back(Polynomial::random_with_constant(v, ts, rng()));
  }
  for (int z = 0; z < k; ++z) {
    vts_[static_cast<std::size_t>(z)][static_cast<std::size_t>(my_id())]
        ->start();
    inp_[static_cast<std::size_t>(z)][static_cast<std::size_t>(my_id())]
        ->start(input_rows);
  }

  // Multiplication gates grouped by multiplicative level.
  mults_at_level_.resize(
      static_cast<std::size_t>(circuit_.multiplicative_depth()) + 1);
  for (int w = 0; w < circuit_.num_wires(); ++w) {
    if (circuit_.gates()[static_cast<std::size_t>(w)].op == GateOp::mul) {
      mults_at_level_[static_cast<std::size_t>(circuit_.level(w))].push_back(w);
    }
  }
}

void Mpc::on_message(const Message& msg) { (void)msg; }

bool Mpc::dealings_done(int z, int d) const {
  const auto zz = static_cast<std::size_t>(z);
  const auto dd = static_cast<std::size_t>(d);
  return vts_[zz][dd]->outcome() == VtsOutcome::triples &&
         inp_[zz][dd]->outcome() == WssOutcome::rows;
}

void Mpc::on_dealer_done(int z, int d) {
  if (dealings_done(z, d)) {
    acs1_[static_cast<std::size_t>(z)]->mark(d);
    try_enter_online();
  }
}

void Mpc::on_acs1(int z, PartySet com) {
  acs1_done_[static_cast<std::size_t>(z)] = com;
  acs2_->mark(z);
  try_enter_online();
}

void Mpc::on_acs2(PartySet chosen) {
  NAMPC_ASSERT(!chosen.empty(), "slot-ACS concluded empty");
  chosen_z_ = chosen.first();
  phase("subset_agreed");
  try_enter_online();
}

void Mpc::try_enter_online() {
  if (online_entered_ || !chosen_z_.has_value()) return;
  const int z = *chosen_z_;
  const auto& done = acs1_done_[static_cast<std::size_t>(z)];
  if (!done.has_value()) return;  // our own ACS for z concludes eventually
  // All Com dealers' instances must have concluded locally.
  for (int d : done->to_vector()) {
    if (!dealings_done(z, d)) return;
  }
  online_entered_ = true;
  phase("online");
  com_ = *done;
  com_order_ = done->to_vector();
  if (com_order_.size() % 2 == 0) com_order_.pop_back();  // m must be odd

  // Extract random triples from the Com dealers' verified ones.
  std::vector<TripleShares> consumed;
  consumed.reserve(com_order_.size());
  for (int d : com_order_) {
    consumed.push_back(
        vts_[static_cast<std::size_t>(z)][static_cast<std::size_t>(d)]
            ->triples());
  }
  ext_ = &make_child<TripleExt>("ext", static_cast<int>(com_order_.size()),
                                triples_per_dealer_,
                                [this](const TripleShares& t) {
                                  on_extracted(t);
                                });
  ext_->start(std::move(consumed));
}

void Mpc::on_extracted(const TripleShares& triples) {
  if (!pool_.a.empty() || output_.has_value()) return;
  phase("extracted");
  pool_ = triples;
  NAMPC_ASSERT(static_cast<int>(pool_.size()) >=
                   circuit_.num_multiplications(),
               "triple pool smaller than the circuit needs");

  // Initialise wires: inputs from Com dealers' VSS shares (default 0 for
  // dealers outside Com), constants as constant sharings.
  const int z = *chosen_z_;
  wire_shares_.assign(static_cast<std::size_t>(circuit_.num_wires()), Fp(0));
  wire_ready_.assign(static_cast<std::size_t>(circuit_.num_wires()), false);
  for (int w = 0; w < circuit_.num_wires(); ++w) {
    const Gate& g = circuit_.gates()[static_cast<std::size_t>(w)];
    if (g.op == GateOp::input) {
      Fp share(0);
      if (com_->contains(g.owner)) {
        share = inp_[static_cast<std::size_t>(z)]
                    [static_cast<std::size_t>(g.owner)]
                        ->share(g.input_index);
      }
      wire_shares_[static_cast<std::size_t>(w)] = share;
      wire_ready_[static_cast<std::size_t>(w)] = true;
    } else if (g.op == GateOp::constant) {
      wire_shares_[static_cast<std::size_t>(w)] = g.c;
      wire_ready_[static_cast<std::size_t>(w)] = true;
    }
  }
  evaluate_from(0);
}

void Mpc::evaluate_from(int level) {
  // Linear closure: every non-mul gate whose operands are ready (gates are
  // in topological order, so one pass suffices).
  for (int w = 0; w < circuit_.num_wires(); ++w) {
    if (wire_ready_[static_cast<std::size_t>(w)]) continue;
    const Gate& g = circuit_.gates()[static_cast<std::size_t>(w)];
    if (g.op == GateOp::mul) continue;
    const bool a_ok = g.a < 0 || wire_ready_[static_cast<std::size_t>(g.a)];
    const bool b_ok = g.b < 0 || wire_ready_[static_cast<std::size_t>(g.b)];
    if (!a_ok || !b_ok) continue;
    Fp va = g.a >= 0 ? wire_shares_[static_cast<std::size_t>(g.a)] : Fp(0);
    Fp vb = g.b >= 0 ? wire_shares_[static_cast<std::size_t>(g.b)] : Fp(0);
    Fp out;
    switch (g.op) {
      case GateOp::add: out = va + vb; break;
      case GateOp::sub: out = va - vb; break;
      case GateOp::cmul: out = g.c * va; break;
      case GateOp::cadd: out = g.c + va; break;
      default: continue;
    }
    wire_shares_[static_cast<std::size_t>(w)] = out;
    wire_ready_[static_cast<std::size_t>(w)] = true;
  }
  // Next non-empty multiplication level.
  int next = level + 1;
  while (next < static_cast<int>(mults_at_level_.size()) &&
         mults_at_level_[static_cast<std::size_t>(next)].empty()) {
    ++next;
  }
  if (next >= static_cast<int>(mults_at_level_.size())) {
    finish_outputs();
    return;
  }
  const auto& gates = mults_at_level_[static_cast<std::size_t>(next)];
  FpVec xs, ys;
  TripleShares batch;
  for (int w : gates) {
    const Gate& g = circuit_.gates()[static_cast<std::size_t>(w)];
    NAMPC_ASSERT(wire_ready_[static_cast<std::size_t>(g.a)] &&
                     wire_ready_[static_cast<std::size_t>(g.b)],
                 "mul operands not ready at its level");
    xs.push_back(wire_shares_[static_cast<std::size_t>(g.a)]);
    ys.push_back(wire_shares_[static_cast<std::size_t>(g.b)]);
    batch.a.push_back(pool_.a[pool_used_]);
    batch.b.push_back(pool_.b[pool_used_]);
    batch.c.push_back(pool_.c[pool_used_]);
    ++pool_used_;
  }
  auto& beaver = make_child<Beaver>(
      "mul" + std::to_string(next), static_cast<int>(gates.size()),
      [this, next](const FpVec& zv) { on_level_products(next, zv); });
  beaver.start(std::move(xs), std::move(ys), std::move(batch));
}

void Mpc::on_level_products(int level, const FpVec& zv) {
  const auto& gates = mults_at_level_[static_cast<std::size_t>(level)];
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const int w = gates[i];
    if (wire_ready_[static_cast<std::size_t>(w)]) return;  // duplicate
    wire_shares_[static_cast<std::size_t>(w)] = zv[i];
    wire_ready_[static_cast<std::size_t>(w)] = true;
  }
  evaluate_from(level);
}

void Mpc::finish_outputs() {
  if (outputs_started_ || output_.has_value()) return;
  outputs_started_ = true;
  phase("outputs");
  const auto& outs = circuit_.outputs();
  output_values_.assign(outs.size(), Fp(0));
  output_known_.assign(outs.size(), false);
  if (outs.empty()) {
    deliver_output();
    return;
  }
  // Split output wires: public ones open via PubRec; private ones go to
  // their owner via Π_privRec (Protocol 9.1's designated-party variant).
  std::vector<int> public_idx;
  std::map<int, std::vector<int>> private_idx;  // owner -> output indices
  for (std::size_t k = 0; k < outs.size(); ++k) {
    const int owner = circuit_.output_owner(static_cast<int>(k));
    if (owner < 0) {
      public_idx.push_back(static_cast<int>(k));
    } else {
      private_idx[owner].push_back(static_cast<int>(k));
    }
  }
  auto shares_for = [this, &outs](const std::vector<int>& idx) {
    FpVec shares;
    shares.reserve(idx.size());
    for (int k : idx) {
      const int w = outs[static_cast<std::size_t>(k)];
      NAMPC_ASSERT(wire_ready_[static_cast<std::size_t>(w)],
                   "output wire not evaluated");
      shares.push_back(wire_shares_[static_cast<std::size_t>(w)]);
    }
    return shares;
  };
  // A party must wait for: the public batch (if any) plus its own private
  // batch (if it owns one).
  pending_output_parts_ = (public_idx.empty() ? 0 : 1) +
                          (private_idx.count(my_id()) != 0 ? 1 : 0);
  if (pending_output_parts_ == 0) {
    // Nothing addressed to us beyond contributing shares below.
    deliver_output();
  }
  if (!public_idx.empty()) {
    auto& pub = make_child<PubRec>(
        "outrec", static_cast<int>(public_idx.size()),
        [this, public_idx](const FpVec& v) { on_output_part(public_idx, v); });
    pub.start(shares_for(public_idx));
    if (pub.has_output()) on_output_part(public_idx, pub.values());
  }
  for (const auto& [owner, idx] : private_idx) {
    auto& priv = make_child<PrivRec>(
        "privout" + std::to_string(owner), owner,
        static_cast<int>(idx.size()),
        [this, idx](const FpVec& v) { on_output_part(idx, v); });
    priv.start(shares_for(idx));
  }
}

void Mpc::on_output_part(const std::vector<int>& indices,
                         const FpVec& values) {
  if (output_.has_value()) return;
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const auto k = static_cast<std::size_t>(indices[i]);
    if (output_known_[k]) return;  // duplicate delivery
    output_values_[k] = values[i];
    output_known_[k] = true;
  }
  if (--pending_output_parts_ > 0) return;
  deliver_output();
}

void Mpc::deliver_output() {
  output_ = output_values_;
  output_time_ = now();
  span_done();
  notify_output(mpc_output_event(output_known_, output_values_));
  if (on_output_) on_output_(*output_);
}

}  // namespace nampc
