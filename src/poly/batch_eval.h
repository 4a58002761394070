// Batched multi-point evaluation over the party points (§3.2 geometry).
//
// Every sharing protocol evaluates degree <= ts polynomials at the same n
// points α_j = eval_point(j) = j+1, over and over: dealer row generation,
// pairwise point exchange, report verification, codeword encoding. The
// Vandermonde power table V[j][k] = α_{j+1}^k depends only on (n, width),
// so BatchEval caches one FpGrid per geometry (thread-local, like
// InterpCache) and turns each evaluation sweep into a row of batched
// fp_dot calls against the cached table.
//
// Results are bit-identical to per-point Polynomial::eval: F_p arithmetic
// is exact, so regrouping the reduction order cannot change any residue
// (same argument as fp_batch.h).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "field/fp_soa.h"
#include "poly/polynomial.h"

namespace nampc {

class BatchEval {
 public:
  /// The calling thread's shared cache (sweep workers each get their own).
  [[nodiscard]] static BatchEval& local();

  /// Power table for the first n party points: rows() == n, cols() ==
  /// width, at(j, k) = eval_point(j)^k. The reference stays valid until
  /// clear(); geometries are few (one per (n, degree bound) pair in play),
  /// so entries are never evicted mid-run.
  [[nodiscard]] const FpGrid& vandermonde(int n, std::size_t width);

  /// out[j] = poly(eval_point(j)) for j < n, via the cached power table.
  void eval_at_parties(const Polynomial& poly, int n, FpVec& out);

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  void clear();

 private:
  std::map<std::pair<int, std::size_t>, FpGrid> tables_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace nampc
