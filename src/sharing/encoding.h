// Payload encodings shared by the sharing protocols (WSS / VSS).
#pragma once

#include <optional>
#include <vector>

#include "graph/graph.h"
#include "poly/polynomial.h"
#include "util/codec.h"
#include "util/small_set.h"

namespace nampc {

/// Reads a party set (one word, n <= 64). A set naming an id >= n is
/// malformed: honest parties index n-vertex graphs with its members.
inline PartySet decode_party_set(Reader& r, int n) {
  const PartySet s{r.u64()};
  if (!s.subset_of(PartySet::full(n))) throw DecodeError("party id >= n");
  return s;
}

/// Encodes a vector of polynomials (one per batched secret).
inline void encode_polys(Writer& w, const std::vector<Polynomial>& polys) {
  w.u64(polys.size());
  for (const Polynomial& p : polys) p.encode(w);
}

inline std::vector<Polynomial> decode_polys(Reader& r, std::size_t max_count,
                                            int max_degree) {
  const std::uint64_t count = r.u64();
  if (count > max_count) throw DecodeError("too many polynomials");
  std::vector<Polynomial> polys;
  polys.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    Polynomial p = Polynomial::decode(r);
    if (p.degree() > max_degree) throw DecodeError("polynomial degree too big");
    polys.push_back(std::move(p));
  }
  return polys;
}

inline void encode_values(Writer& w, const FpVec& vals) {
  w.u64(vals.size());
  for (Fp v : vals) w.u64(v.value());
}

inline FpVec decode_values(Reader& r, std::size_t max_count) {
  const std::uint64_t count = r.u64();
  if (count > max_count) throw DecodeError("too many values");
  FpVec vals;
  vals.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) vals.emplace_back(r.u64());
  return vals;
}

/// One entry of the pairwise-consistency report vector R_i (Protocol 6.1
/// step 3): OK, NR, or a claimed common-point value vector.
struct REntry {
  enum class Tag { ok, nr, vals } tag = Tag::nr;
  FpVec vals;  // one value per batched secret, only for Tag::vals

  void encode(Writer& w) const {
    w.u64(static_cast<std::uint64_t>(tag));
    encode_values(w, vals);
  }
  static REntry decode(Reader& r, std::size_t num_secrets) {
    REntry e;
    const std::uint64_t t = r.u64();
    if (t > 2) throw DecodeError("bad R entry tag");
    e.tag = static_cast<Tag>(t);
    e.vals = decode_values(r, num_secrets);
    if (e.tag == Tag::vals && e.vals.size() != num_secrets) {
      throw DecodeError("bad R entry arity");
    }
    return e;
  }
};

using RVector = std::vector<REntry>;

}  // namespace nampc
