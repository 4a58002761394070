#include "triples/beaver.h"

#include "field/fp_batch.h"
#include "poly/interp_cache.h"

namespace nampc {

Fp extrapolate(const FpVec& pts, Fp at) {
  FpVec xs;
  xs.reserve(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    xs.push_back(Fp(static_cast<std::uint64_t>(i) + 1));
  }
  const FpVec& coeffs = lagrange_coefficients_cached(xs, at);
  return fp_dot(coeffs.data(), pts.data(), pts.size());
}

Beaver::Beaver(Party& party, std::string key, int width, OutputFn on_output)
    : ProtocolInstance(party, std::move(key)),
      width_(width),
      on_output_(std::move(on_output)) {
  NAMPC_REQUIRE(width >= 1, "width must be positive");
  metrics().beaver_mults += static_cast<std::uint64_t>(width);
  span_kind("beaver");
  open_ = &make_child<PubRec>("open", 2 * width,
                              [this](const FpVec& de) { on_opened(de); });
}

void Beaver::start(FpVec x, FpVec y, TripleShares triples) {
  NAMPC_REQUIRE(!started_, "beaver started twice");
  NAMPC_REQUIRE(static_cast<int>(x.size()) == width_ &&
                    static_cast<int>(y.size()) == width_ &&
                    static_cast<int>(triples.size()) == width_,
                "beaver input width mismatch");
  started_ = true;
  x_ = std::move(x);
  y_ = std::move(y);
  triples_ = std::move(triples);
  // [d] = [x] - [a], [e] = [y] - [b]; open both batches at once.
  FpVec de;
  de.reserve(static_cast<std::size_t>(2 * width_));
  for (int l = 0; l < width_; ++l) {
    de.push_back(x_[static_cast<std::size_t>(l)] -
                 triples_.a[static_cast<std::size_t>(l)]);
  }
  for (int l = 0; l < width_; ++l) {
    de.push_back(y_[static_cast<std::size_t>(l)] -
                 triples_.b[static_cast<std::size_t>(l)]);
  }
  open_->start(de);
  // The opening may already have completed from the other parties' shares
  // alone (2ts+1 of them suffice) before this party contributed.
  if (open_->has_output()) on_opened(open_->values());
}

void Beaver::on_message(const Message& msg) { (void)msg; }

void Beaver::on_opened(const FpVec& de) {
  if (done_ || !started_) return;
  done_ = true;
  z_.resize(static_cast<std::size_t>(width_));
  for (int l = 0; l < width_; ++l) {
    const Fp d = de[static_cast<std::size_t>(l)];
    const Fp e = de[static_cast<std::size_t>(width_ + l)];
    z_[static_cast<std::size_t>(l)] =
        d * e + d * triples_.b[static_cast<std::size_t>(l)] +
        e * triples_.a[static_cast<std::size_t>(l)] +
        triples_.c[static_cast<std::size_t>(l)];
  }
  span_done();
  if (on_output_) on_output_(z_);
}

}  // namespace nampc
