#include "poly/batch_eval.h"

#include "field/fp_batch.h"
#include "util/assert.h"

namespace nampc {

BatchEval& BatchEval::local() {
  static thread_local BatchEval cache;
  return cache;
}

void BatchEval::clear() {
  tables_.clear();
  hits_ = 0;
  misses_ = 0;
}

const FpGrid& BatchEval::vandermonde(int n, std::size_t width) {
  NAMPC_REQUIRE(n >= 0 && width > 0, "bad vandermonde geometry");
  const auto key = std::make_pair(n, width);
  const auto it = tables_.find(key);
  if (it != tables_.end()) {
    ++hits_;
    return it->second;
  }
  ++misses_;
  FpGrid grid(static_cast<std::size_t>(n), width);
  for (int j = 0; j < n; ++j) {
    fp_powers(eval_point(j), grid.row(static_cast<std::size_t>(j)), width);
  }
  return tables_.emplace(key, std::move(grid)).first->second;
}

void BatchEval::eval_at_parties(const Polynomial& poly, int n, FpVec& out) {
  out.resize(static_cast<std::size_t>(n));
  const FpVec& coeffs = poly.coeffs();
  if (coeffs.empty()) {
    for (Fp& v : out) v = Fp(0);
    return;
  }
  const FpGrid& v = vandermonde(n, coeffs.size());
  for (int j = 0; j < n; ++j) {
    out[static_cast<std::size_t>(j)] =
        fp_dot(coeffs.data(), v.row(static_cast<std::size_t>(j)),
               coeffs.size());
  }
}

}  // namespace nampc
