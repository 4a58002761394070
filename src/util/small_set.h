// PartySet: a set of party indices backed by a two-word (128-bit) mask.
//
// Protocol state is dominated by small sets of parties (U, V, W, Z, cliques,
// stars, Com). A bitmask keeps them value-typed, hashable, orderable and
// cheap to copy into broadcast payloads. The library supports n <= 128 (the
// scaling engine's ceiling); sets confined to ids < 64 behave exactly as the
// old single-word representation did — mask() still exposes that word, and
// the wire encodings built on it are unchanged for n <= 64.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/assert.h"

namespace nampc {

/// Value-type set of party indices in [0, 128).
class PartySet {
 public:
  /// Highest supported party count (two 64-bit words).
  static constexpr int kMaxParties = 128;

  constexpr PartySet() = default;
  /// Low-word constructor: ids in [0, 64). Kept implicit-width for the wire
  /// decoders (`PartySet{r.u64()}`) of the n <= 64 protocols.
  constexpr explicit PartySet(std::uint64_t mask) : lo_(mask) {}
  constexpr PartySet(std::uint64_t lo, std::uint64_t hi) : lo_(lo), hi_(hi) {}

  /// The set {0, 1, ..., n-1}.
  static constexpr PartySet full(int n) {
    if (n >= kMaxParties) return PartySet(~0ull, ~0ull);
    if (n >= 64) return PartySet(~0ull, n == 64 ? 0 : (1ull << (n - 64)) - 1);
    return PartySet((1ull << n) - 1);
  }

  static PartySet of(std::initializer_list<int> ids) {
    PartySet s;
    for (int id : ids) s.insert(id);
    return s;
  }

  void insert(int id) {
    NAMPC_REQUIRE(id >= 0 && id < kMaxParties, "party id out of range");
    if (id < 64) lo_ |= (1ull << id);
    else hi_ |= (1ull << (id - 64));
  }
  void erase(int id) {
    NAMPC_REQUIRE(id >= 0 && id < kMaxParties, "party id out of range");
    if (id < 64) lo_ &= ~(1ull << id);
    else hi_ &= ~(1ull << (id - 64));
  }
  [[nodiscard]] bool contains(int id) const {
    if (id < 0 || id >= kMaxParties) return false;
    return id < 64 ? ((lo_ >> id) & 1u) != 0 : ((hi_ >> (id - 64)) & 1u) != 0;
  }

  [[nodiscard]] int size() const {
    return __builtin_popcountll(lo_) + __builtin_popcountll(hi_);
  }
  [[nodiscard]] bool empty() const { return lo_ == 0 && hi_ == 0; }

  /// The legacy single-word view used by the n <= 64 wire encodings. Loudly
  /// rejects sets that have grown past it instead of silently truncating.
  [[nodiscard]] std::uint64_t mask() const {
    NAMPC_REQUIRE(hi_ == 0, "PartySet::mask() on a set with ids >= 64");
    return lo_;
  }
  /// Raw words, for the n > 64 algorithms (graph kernels, codecs).
  [[nodiscard]] constexpr std::uint64_t lo() const { return lo_; }
  [[nodiscard]] constexpr std::uint64_t hi() const { return hi_; }

  [[nodiscard]] PartySet union_with(PartySet o) const {
    return PartySet(lo_ | o.lo_, hi_ | o.hi_);
  }
  [[nodiscard]] PartySet intersect(PartySet o) const {
    return PartySet(lo_ & o.lo_, hi_ & o.hi_);
  }
  [[nodiscard]] PartySet minus(PartySet o) const {
    return PartySet(lo_ & ~o.lo_, hi_ & ~o.hi_);
  }
  [[nodiscard]] bool subset_of(PartySet o) const {
    return (lo_ & ~o.lo_) == 0 && (hi_ & ~o.hi_) == 0;
  }

  friend bool operator==(PartySet a, PartySet b) {
    return a.lo_ == b.lo_ && a.hi_ == b.hi_;
  }
  friend bool operator!=(PartySet a, PartySet b) { return !(a == b); }
  /// Orders by numeric value of the 128-bit mask; coincides with the old
  /// single-word order whenever both sets stay below id 64.
  friend bool operator<(PartySet a, PartySet b) {
    if (a.hi_ != b.hi_) return a.hi_ < b.hi_;
    return a.lo_ < b.lo_;
  }

  /// Members in increasing order.
  [[nodiscard]] std::vector<int> to_vector() const;

  /// First member >= 0, or -1 if empty.
  [[nodiscard]] int first() const {
    if (lo_ != 0) return __builtin_ctzll(lo_);
    if (hi_ != 0) return 64 + __builtin_ctzll(hi_);
    return -1;
  }

  /// Calls fn(id) for every member in increasing order — the allocation-free
  /// alternative to to_vector() on hot paths.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::uint64_t m = lo_; m != 0; m &= m - 1) fn(__builtin_ctzll(m));
    for (std::uint64_t m = hi_; m != 0; m &= m - 1) {
      fn(64 + __builtin_ctzll(m));
    }
  }

  /// Human-readable "{0,3,5}".
  [[nodiscard]] std::string str() const;

  /// Iterates over all subsets of {0..n-1} with exactly k elements, calling
  /// fn(PartySet) for each, in increasing mask order. Exponential by nature;
  /// restricted to the single-word range.
  template <typename Fn>
  static void for_each_subset(int n, int k, Fn&& fn) {
    NAMPC_REQUIRE(n >= 0 && n < 64 && k >= 0, "bad subset parameters");
    if (k > n) return;
    if (k == 0) {
      fn(PartySet{});
      return;
    }
    // Gosper's hack: iterate k-bit submasks of n bits in increasing order.
    std::uint64_t v = (1ull << k) - 1;
    const std::uint64_t limit = 1ull << n;
    while (v < limit) {
      fn(PartySet(v));
      const std::uint64_t t = v | (v - 1);
      v = (t + 1) | (((~t & (t + 1)) - 1) >> (__builtin_ctzll(v) + 1));
    }
  }

 private:
  std::uint64_t lo_ = 0;
  std::uint64_t hi_ = 0;
};

}  // namespace nampc
