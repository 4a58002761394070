#include "triples/triple_ext.h"

namespace nampc {

TripleExt::TripleExt(Party& party, std::string key, int num_dealers,
                     int width, OutputFn on_output)
    : ProtocolInstance(party, std::move(key)),
      m_(num_dealers),
      h_((num_dealers - 1) / 2),
      width_(width),
      on_output_(std::move(on_output)) {
  NAMPC_REQUIRE(num_dealers % 2 == 1, "dealer count must be odd (m = 2h+1)");
  NAMPC_REQUIRE(h_ + 1 - params().ts >= 1,
                "too few dealers to extract anything (need (m+1)/2 > ts)");
  NAMPC_REQUIRE(width >= 1, "width must be positive");
  span_kind("triple_ext");
  beaver_ = &make_child<Beaver>("beaver", h_ * width_,
                                [this](const FpVec& z) { on_beaver(z); });
}

void TripleExt::start(std::vector<TripleShares> dealer_triples) {
  NAMPC_REQUIRE(static_cast<int>(dealer_triples.size()) == m_,
                "dealer triple count mismatch");
  for (const TripleShares& t : dealer_triples) {
    NAMPC_REQUIRE(static_cast<int>(t.size()) == width_,
                  "dealer triple width mismatch");
  }
  inputs_ = std::move(dealer_triples);
  // For i = h+2..m: [x_i] = [X(i)], [y_i] = [Y(i)] by extrapolation from the
  // first h+1 dealers' (a, b); multiplied via Beaver consuming triple i.
  FpVec bx, by;
  TripleShares bt;
  for (int l = 0; l < width_; ++l) {
    FpVec xa, yb;
    for (int i = 0; i <= h_; ++i) {
      xa.push_back(inputs_[static_cast<std::size_t>(i)]
                       .a[static_cast<std::size_t>(l)]);
      yb.push_back(inputs_[static_cast<std::size_t>(i)]
                       .b[static_cast<std::size_t>(l)]);
    }
    for (int i = h_ + 1; i < m_; ++i) {
      const Fp at(static_cast<std::uint64_t>(i) + 1);
      bx.push_back(extrapolate(xa, at));
      by.push_back(extrapolate(yb, at));
      bt.a.push_back(inputs_[static_cast<std::size_t>(i)]
                         .a[static_cast<std::size_t>(l)]);
      bt.b.push_back(inputs_[static_cast<std::size_t>(i)]
                         .b[static_cast<std::size_t>(l)]);
      bt.c.push_back(inputs_[static_cast<std::size_t>(i)]
                         .c[static_cast<std::size_t>(l)]);
    }
  }
  beaver_->start(std::move(bx), std::move(by), std::move(bt));
  if (beaver_->has_output()) on_beaver(beaver_->z_shares());
}

void TripleExt::on_message(const Message& msg) { (void)msg; }

void TripleExt::on_beaver(const FpVec& z) {
  if (done_ || inputs_.empty()) return;
  done_ = true;
  const int out_per_batch = extracted_per_batch();
  for (int l = 0; l < width_; ++l) {
    FpVec xa, yb, zc;
    for (int i = 0; i <= h_; ++i) {
      xa.push_back(inputs_[static_cast<std::size_t>(i)]
                       .a[static_cast<std::size_t>(l)]);
      yb.push_back(inputs_[static_cast<std::size_t>(i)]
                       .b[static_cast<std::size_t>(l)]);
    }
    for (int i = 0; i < m_; ++i) {
      zc.push_back(i <= h_ ? inputs_[static_cast<std::size_t>(i)]
                                 .c[static_cast<std::size_t>(l)]
                           : z[static_cast<std::size_t>(
                                 l * h_ + (i - h_ - 1))]);
    }
    for (int j = 0; j < out_per_batch; ++j) {
      const Fp beta(static_cast<std::uint64_t>(m_ + 1 + j));
      output_.a.push_back(extrapolate(xa, beta));
      output_.b.push_back(extrapolate(yb, beta));
      output_.c.push_back(extrapolate(zc, beta));
    }
  }
  span_done();
  if (on_output_) on_output_(output_);
}

}  // namespace nampc
