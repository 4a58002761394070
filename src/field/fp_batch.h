// Batched F_p kernels: dot products and multi-point evaluation with
// unsigned-__int128 accumulation and deferred Mersenne reduction.
//
// Fp::operator* reduces after every product. For the inner loops of the
// decoder and the interpolation kernels that is one shift/add/compare chain
// per term; a dot product can instead accumulate raw 122-bit products in a
// 128-bit register and fold only once per chunk. With p = 2^61 - 1 each
// product is < p^2 < 2^122, so 64 products fit in an unsigned __int128
// (64 * p^2 < 2^128); we fold every 63 terms to keep a safety margin.
//
// All routines are pure and allocation-free; results are bit-identical to
// the term-by-term Fp arithmetic they replace (exact field arithmetic has
// no rounding, and reduction order cannot change the residue).
#pragma once

#include <cstddef>

#include "field/fp.h"

namespace nampc {

namespace detail {

__extension__ using u128 = unsigned __int128;

/// Number of raw products accumulated between folds. 63 * p^2 < 2^128 with
/// room for one partially-folded carry-in.
inline constexpr std::size_t kFpDotChunk = 63;

/// Reduces a full 128-bit accumulator to an element of F_p using
/// 2^61 ≡ 1 (mod p) limb-wise: x = hi*2^122 + mid*2^61 + lo ≡ hi + mid + lo.
inline Fp fp_reduce128(u128 acc) {
  const std::uint64_t lo = static_cast<std::uint64_t>(acc) & Fp::kPrime;
  const std::uint64_t mid =
      static_cast<std::uint64_t>(acc >> 61) & Fp::kPrime;
  const std::uint64_t hi = static_cast<std::uint64_t>(acc >> 122);
  return Fp(lo) + Fp(mid) + Fp(hi);
}

}  // namespace detail

/// sum_i a[i] * b[i] with deferred reduction. Bit-identical to the naive
/// Fp accumulation.
inline Fp fp_dot(const Fp* a, const Fp* b, std::size_t n) {
  detail::u128 acc = 0;
  Fp total(0);
  std::size_t in_chunk = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += static_cast<detail::u128>(a[i].value()) * b[i].value();
    if (++in_chunk == detail::kFpDotChunk) {
      total += detail::fp_reduce128(acc);
      acc = 0;
      in_chunk = 0;
    }
  }
  if (in_chunk != 0) total += detail::fp_reduce128(acc);
  return total;
}

/// Dot product of two equal-length vectors (size checked).
inline Fp fp_dot(const FpVec& a, const FpVec& b) {
  NAMPC_REQUIRE(a.size() == b.size(), "fp_dot: size mismatch");
  return fp_dot(a.data(), b.data(), a.size());
}

/// Fills out[0..count-1] with 1, x, x^2, ..., x^{count-1}.
inline void fp_powers(Fp x, Fp* out, std::size_t count) {
  Fp xp(1);
  for (std::size_t j = 0; j < count; ++j) {
    out[j] = xp;
    xp *= x;
  }
}

/// Evaluates the polynomial with ascending coefficients `coeffs` (length
/// `n`) at the point whose power row is `powers` (length >= n): one batched
/// dot product instead of a reduce-per-step Horner chain.
inline Fp fp_eval_with_powers(const Fp* coeffs, const Fp* powers,
                              std::size_t n) {
  return fp_dot(coeffs, powers, n);
}

/// acc[i] -= c * x[i] for i in [0, n). The single product per element keeps
/// this a plain fused loop (deferred reduction needs >= 2 products/lane);
/// it exists so row updates in the eliminators batch through one call.
inline void fp_sub_scaled(Fp* acc, Fp c, const Fp* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] -= c * x[i];
}

}  // namespace nampc
