// Beaver multiplication — Π_Beaver (Protocol 9.3), batched.
//
// Given degree-ts sharings of inputs (x_l, y_l) and random multiplication
// triples (a_l, b_l, c_l), parties open d_l = x_l - a_l and e_l = y_l - b_l
// (one PubRec of 2L values) and locally compute
//   [z_l] = d_l e_l + d_l [b_l] + e_l [a_l] + [c_l],
// a degree-ts sharing of x_l y_l whenever c_l = a_l b_l (Theorem 9.4).
#pragma once

#include <functional>

#include "triples/recon.h"

namespace nampc {

/// One party's shares of a batch of multiplication triples.
struct TripleShares {
  FpVec a;
  FpVec b;
  FpVec c;

  [[nodiscard]] std::size_t size() const { return a.size(); }
};

/// This party's share of [P(at)] for the polynomial P through the points
/// (1..count, pts): the linear map by which Π_VTS and Π_tripleExt turn
/// shared triples into shared points of X, Y and Z.
[[nodiscard]] Fp extrapolate(const FpVec& pts, Fp at);

class Beaver : public ProtocolInstance {
 public:
  /// Delivers this party's shares of [z_l] = [x_l * y_l].
  using OutputFn = std::function<void(const FpVec&)>;

  Beaver(Party& party, std::string key, int width, OutputFn on_output);

  /// Contributes shares of the inputs and the triples (all length `width`).
  void start(FpVec x, FpVec y, TripleShares triples);

  [[nodiscard]] bool has_output() const { return done_; }
  [[nodiscard]] const FpVec& z_shares() const {
    NAMPC_REQUIRE(done_, "beaver incomplete");
    return z_;
  }

  void on_message(const Message& msg) override;

 private:
  void on_opened(const FpVec& de);

  int width_;
  OutputFn on_output_;
  PubRec* open_ = nullptr;
  FpVec x_, y_;
  TripleShares triples_;
  bool started_ = false;
  bool done_ = false;
  FpVec z_;
};

}  // namespace nampc
