#include "triples/vts.h"

#include "poly/interp_cache.h"
#include "triples/recon.h"

namespace nampc {

Vts::Vts(Party& party, std::string key, PartyId dealer, Time nominal_start,
         int num_triples, PartySet z, OutputFn on_output)
    : ProtocolInstance(party, std::move(key)),
      dealer_(dealer),
      nominal_start_(nominal_start),
      num_triples_(num_triples),
      z_(z),
      on_output_(std::move(on_output)) {
  NAMPC_REQUIRE(num_triples >= 1, "need at least one triple");
  NAMPC_REQUIRE(ts() >= 1, "vts requires ts >= 1");
  span_kind("vts");
  span_nominal(nominal_start_);
  const int num_secrets = 3 * num_triples_ * (2 * ts() + 1);
  vss_ = &make_child<Vss>("vss", dealer_, nominal_start_, num_secrets, z_,
                          [this] { on_vss_output(); });
  beaver_ = &make_child<Beaver>("beaver", num_triples_ * ts(),
                                [this](const FpVec& zv) { on_beaver(zv); });

  const Time t1 = nominal_start_ + timing().t_vss + 2 * timing().delta;
  ok_bcs_.reserve(static_cast<std::size_t>(n()));
  for (int i = 0; i < n(); ++i) {
    ok_bcs_.push_back(&make_child<Bc>(
        "ok" + std::to_string(i), i, t1,
        [this, i](const std::optional<Words>& m, BcPhase) {
          if (!m.has_value()) return;
          try {
            Reader r(*m);
            const bool ok = r.boolean();
            if (ok) {
              ok_seen_.insert(i);
              if (i_am_dealer()) dealer_collect_ok();
            } else {
              nok_seen_.insert(i);
              request_open(i);
            }
            try_finish();
          } catch (const DecodeError&) {
          }
        }));
  }
  dealer_sets_ = &make_child<Bc>(
      "sets", dealer_, t1 + timing().t_bc,
      [this](const std::optional<Words>& m, BcPhase) {
        if (!m.has_value() || dealer_ok_.has_value()) return;
        try {
          Reader r(*m);
          const PartySet ok = decode_party_set(r, n());
          const PartySet nok = decode_party_set(r, n());
          // Validity: disjoint, enough OKs, enough coverage, NOK small
          // enough to preserve privacy (<= ts - ta public reconstructions).
          if (!ok.intersect(nok).empty()) return;
          if (ok.size() < n() - ts()) return;
          if (ok.union_with(nok).size() < n() - ta()) return;
          if (nok.size() > ts() - ta()) return;
          dealer_ok_ = ok;
          dealer_nok_ = nok;
          for (int i : nok.to_vector()) request_open(i);
          try_finish();
        } catch (const DecodeError&) {
        }
      });
  if (i_am_dealer()) {
    at(t1 + timing().t_bc, [this] { dealer_collect_ok(); });
  }
  at(nominal_start_ + timing().t_vts, [this] { try_finish(); });
}

void Vts::start(bool sabotage) {
  NAMPC_REQUIRE(i_am_dealer(), "only the dealer starts a Vts");
  const int per_l = 2 * ts() + 1;
  std::vector<Polynomial> row0s;
  row0s.reserve(static_cast<std::size_t>(3 * num_triples_ * per_l));
  std::vector<std::vector<std::array<Fp, 3>>> plain(
      static_cast<std::size_t>(num_triples_));
  for (int l = 0; l < num_triples_; ++l) {
    auto& triples_l = plain[static_cast<std::size_t>(l)];
    triples_l.resize(static_cast<std::size_t>(per_l));
    for (int i = 0; i < per_l; ++i) {
      const Fp a(rng().next_below(Fp::kPrime));
      const Fp b(rng().next_below(Fp::kPrime));
      Fp prod = a * b;
      if (sabotage) prod += Fp(1);  // c != a*b: must be caught and discarded
      triples_l[static_cast<std::size_t>(i)] = {a, b, prod};
    }
  }
  for (int l = 0; l < num_triples_; ++l) {
    for (int i = 0; i < per_l; ++i) {
      for (int c = 0; c < 3; ++c) {
        row0s.push_back(Polynomial::random_with_constant(
            plain[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)]
                 [static_cast<std::size_t>(c)],
            ts(), rng()));
      }
    }
  }
  // The dealer knows its output triples: X_l, Y_l from the first ts+1 input
  // triples, Z_l through the multiplied positions.
  const Fp beta(static_cast<std::uint64_t>(n()) + 1);
  dealer_plain_.resize(static_cast<std::size_t>(num_triples_));
  for (int l = 0; l < num_triples_; ++l) {
    FpVec xs_xy, ax, by;
    for (int i = 0; i < ts() + 1; ++i) {
      xs_xy.push_back(Fp(static_cast<std::uint64_t>(i) + 1));
      ax.push_back(plain[static_cast<std::size_t>(l)]
                        [static_cast<std::size_t>(i)][0]);
      by.push_back(plain[static_cast<std::size_t>(l)]
                        [static_cast<std::size_t>(i)][1]);
    }
    const Polynomial x_poly = interpolate_cached(xs_xy, ax);
    const Polynomial y_poly = interpolate_cached(xs_xy, by);
    FpVec xs_z, cz;
    for (int i = 0; i < 2 * ts() + 1; ++i) {
      const Fp pt(static_cast<std::uint64_t>(i) + 1);
      xs_z.push_back(pt);
      cz.push_back(i < ts() + 1 ? plain[static_cast<std::size_t>(l)]
                                       [static_cast<std::size_t>(i)][2]
                                : x_poly.eval(pt) * y_poly.eval(pt));
    }
    const Polynomial z_poly = interpolate_cached(xs_z, cz);
    dealer_plain_[static_cast<std::size_t>(l)] = {
        x_poly.eval(beta), y_poly.eval(beta), z_poly.eval(beta)};
  }
  vss_->start(std::move(row0s));
}

void Vts::on_message(const Message& msg) { (void)msg; }

FpVec Vts::xyz_at(Fp at) const {
  FpVec xyz;
  xyz.reserve(static_cast<std::size_t>(3 * num_triples_));
  for (int l = 0; l < num_triples_; ++l) {
    FpVec xa, yb, zc;
    for (int i = 0; i < ts() + 1; ++i) {
      xa.push_back(shares_[idx(l, i, 0)]);
      yb.push_back(shares_[idx(l, i, 1)]);
    }
    for (int i = 0; i < 2 * ts() + 1; ++i) {
      zc.push_back(zx_[static_cast<std::size_t>(l * (2 * ts() + 1) + i)]);
    }
    xyz.push_back(extrapolate(xa, at));
    xyz.push_back(extrapolate(yb, at));
    xyz.push_back(extrapolate(zc, at));
  }
  return xyz;
}

bool Vts::all_multiply(const FpVec& xyz) const {
  for (int l = 0; l < num_triples_; ++l) {
    const Fp x = xyz[static_cast<std::size_t>(3 * l)];
    const Fp y = xyz[static_cast<std::size_t>(3 * l + 1)];
    const Fp z = xyz[static_cast<std::size_t>(3 * l + 2)];
    if (x * y != z) return false;
  }
  return true;
}

void Vts::on_vss_output() {
  if (vss_->outcome() != WssOutcome::rows) return;
  vss_done_ = true;
  const int num_secrets = 3 * num_triples_ * (2 * ts() + 1);
  shares_.resize(static_cast<std::size_t>(num_secrets));
  for (int k = 0; k < num_secrets; ++k) {
    shares_[static_cast<std::size_t>(k)] = vss_->share(k);
  }
  phase_transform();
}

void Vts::phase_transform() {
  if (transformed_) return;
  transformed_ = true;
  // [x_{l,i}], [y_{l,i}] for i = ts+2..2ts+1 are linear in the first ts+1;
  // multiply them with Beaver consuming input triple (l, i).
  FpVec bx, by;
  TripleShares bt;
  for (int l = 0; l < num_triples_; ++l) {
    FpVec xa, yb;
    for (int i = 0; i < ts() + 1; ++i) {
      xa.push_back(shares_[idx(l, i, 0)]);
      yb.push_back(shares_[idx(l, i, 1)]);
    }
    for (int i = ts() + 1; i < 2 * ts() + 1; ++i) {
      const Fp at(static_cast<std::uint64_t>(i) + 1);
      bx.push_back(extrapolate(xa, at));
      by.push_back(extrapolate(yb, at));
      bt.a.push_back(shares_[idx(l, i, 0)]);
      bt.b.push_back(shares_[idx(l, i, 1)]);
      bt.c.push_back(shares_[idx(l, i, 2)]);
    }
  }
  beaver_->start(std::move(bx), std::move(by), std::move(bt));
}

void Vts::on_beaver(const FpVec& zv) {
  if (!zx_.empty()) return;
  // Z_l points at 1..2ts+1: c-shares for the first ts+1, Beaver outputs for
  // the rest.
  zx_.resize(static_cast<std::size_t>(num_triples_ * (2 * ts() + 1)));
  for (int l = 0; l < num_triples_; ++l) {
    for (int i = 0; i < ts() + 1; ++i) {
      zx_[static_cast<std::size_t>(l * (2 * ts() + 1) + i)] =
          shares_[idx(l, i, 2)];
    }
    for (int i = ts() + 1; i < 2 * ts() + 1; ++i) {
      zx_[static_cast<std::size_t>(l * (2 * ts() + 1) + i)] =
          zv[static_cast<std::size_t>(l * ts() + (i - ts() - 1))];
    }
  }
  phase_verify();
}

void Vts::phase_verify() {
  // Late joiners: contribute to any opening requested before our transform
  // finished.
  for (int i : open_requested_.to_vector()) contribute_to_open(i);
  // Private reconstruction of (X_l(p), Y_l(p), Z_l(p)) towards each party.
  for (int p = 0; p < n(); ++p) {
    auto& pr = make_child<PrivRec>(
        "points" + std::to_string(p), p, 3 * num_triples_,
        [this, p](const FpVec& xyz) {
          if (p == my_id()) on_my_points(xyz);
        });
    pr.start(xyz_at(eval_point(p)));
  }
}

void Vts::on_my_points(const FpVec& xyz) {
  if (verified_sent_) return;
  verified_sent_ = true;
  my_check_ok_ = all_multiply(xyz);
  Writer w;
  w.boolean(my_check_ok_);
  ok_bcs_[static_cast<std::size_t>(my_id())]->start(std::move(w).take());
}

void Vts::dealer_collect_ok() {
  if (!i_am_dealer() || dealer_ok_.has_value() || !vss_done_ ||
      sets_sent_) {
    return;
  }
  const Time t2 =
      nominal_start_ + timing().t_vss + 2 * timing().delta + timing().t_bc;
  if (now() < t2) return;  // privacy: wait the designated time first
  if (ok_seen_.size() < n() - ts()) return;
  PartySet nok;
  for (int i = 0; i < n() && ok_seen_.size() + nok.size() < n() - ta(); ++i) {
    if (!ok_seen_.contains(i)) nok.insert(i);
  }
  sets_sent_ = true;
  Writer w;
  w.u64(ok_seen_.mask());
  w.u64(nok.mask());
  dealer_sets_->start(std::move(w).take());
  // The callback on our own broadcast output records dealer_ok_.
}

void Vts::request_open(int i) {
  if (open_requested_.contains(i)) return;
  open_requested_.insert(i);
  opens_.emplace(i, &make_child<PubRec>(
                        "open" + std::to_string(i), 3 * num_triples_,
                        [this, i](const FpVec& xyz) { on_opened(i, xyz); }));
  contribute_to_open(i);
}

void Vts::contribute_to_open(int i) {
  if (zx_.empty() || opens_contributed_.contains(i)) return;
  opens_contributed_.insert(i);
  opens_.at(i)->start(xyz_at(eval_point(i)));
}

void Vts::on_opened(int i, const FpVec& xyz) {
  if (!all_multiply(xyz)) {
    discard();
    return;
  }
  opened_.emplace(i, xyz);
  try_finish();
}

void Vts::try_finish() {
  if (outcome_ != VtsOutcome::none) return;
  if (!vss_done_ || zx_.empty()) return;
  if (!dealer_ok_.has_value() || !dealer_nok_.has_value()) return;
  // Every claimed OK must actually have broadcast OK.
  if (!dealer_ok_->subset_of(ok_seen_)) return;
  // Every dealer-chosen NOK and every NOK broadcast received so far must be
  // publicly opened and verified.
  for (int i : dealer_nok_->to_vector()) {
    if (opened_.count(i) == 0) return;
  }
  for (int i : nok_seen_.to_vector()) {
    if (opened_.count(i) == 0) return;
  }
  if (dealer_ok_->union_with(*dealer_nok_).size() < n() - ta()) return;

  const Fp beta(static_cast<std::uint64_t>(n()) + 1);
  const FpVec xyz = xyz_at(beta);
  output_ = {};
  for (int l = 0; l < num_triples_; ++l) {
    output_.a.push_back(xyz[static_cast<std::size_t>(3 * l)]);
    output_.b.push_back(xyz[static_cast<std::size_t>(3 * l + 1)]);
    output_.c.push_back(xyz[static_cast<std::size_t>(3 * l + 2)]);
  }
  outcome_ = VtsOutcome::triples;
  output_time_ = now();
  phase("triples");
  span_done();
  if (on_output_) on_output_();
}

void Vts::discard() {
  if (outcome_ != VtsOutcome::none) return;
  outcome_ = VtsOutcome::discarded;
  output_time_ = now();
  phase("discarded");
  span_done();
  if (on_output_) on_output_();
}

}  // namespace nampc
