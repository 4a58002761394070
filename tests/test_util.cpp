// Unit tests: codec, JSON reading, PartySet, Rng, timing formulas, metrics
// plumbing.
#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <span>
#include <sstream>

#include "net/time.h"
#include "util/codec.h"
#include "util/json.h"
#include "util/json_read.h"
#include "util/rng.h"
#include "util/small_set.h"

namespace nampc {
namespace {

TEST(Codec, RoundTripScalars) {
  Writer w;
  w.u64(42).i64(-7).boolean(true).boolean(false);
  Words words = std::move(w).take();
  Reader r(words);
  EXPECT_EQ(r.u64(), 42u);
  EXPECT_EQ(r.i64(), -7);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_TRUE(r.done());
}

TEST(Codec, RoundTripVectors) {
  Writer w;
  w.vec({1, 2, 3});
  w.vec({});
  Words words = std::move(w).take();
  Reader r(words);
  EXPECT_EQ(r.vec(), (Words{1, 2, 3}));
  EXPECT_EQ(r.vec(), Words{});
  EXPECT_TRUE(r.done());
}

TEST(Codec, TruncationThrows) {
  Words words{1};
  Reader r(words);
  (void)r.u64();
  EXPECT_THROW((void)r.u64(), DecodeError);
}

TEST(Codec, BadLengthPrefixThrows) {
  Words words{100, 1, 2};  // claims 100 elements, has 2
  Reader r(words);
  EXPECT_THROW((void)r.vec(), DecodeError);
}

TEST(Codec, ViewAliasesPayload) {
  Writer w;
  w.u64(7).vec({1, 2, 3}).vec({});
  const Words words = std::move(w).take();
  Reader r(words);
  EXPECT_EQ(r.u64(), 7u);
  const std::span<const Word> v = r.view();
  EXPECT_EQ(v.data(), words.data() + 2);  // no copy
  EXPECT_EQ(v.size(), 3u);
  EXPECT_TRUE(r.view().empty());
  EXPECT_TRUE(r.done());
  // view() rejects exactly the inputs vec() rejects.
  for (const Words& bad :
       {Words{}, Words{1}, Words{3, 1, 2}, Words{100, 1, 2}, Words{~0ull}}) {
    Reader as_view(bad);
    Reader as_vec(bad);
    EXPECT_THROW((void)as_view.view(), DecodeError);
    EXPECT_THROW((void)as_vec.vec(), DecodeError);
  }
}

TEST(Codec, SeqRoundTrip) {
  Writer w;
  std::vector<int> items{5, 6, 7};
  w.seq(items, [](Writer& ww, int v) { ww.i64(v); });
  Words words = std::move(w).take();
  Reader r(words);
  const auto out =
      r.seq<int>([](Reader& rr) { return static_cast<int>(rr.i64()); });
  EXPECT_EQ(out, items);
}

// The reader parses outside input (schedules, fuzz seeds, metrics dumps,
// lint thresholds): a bare token must be a JSON literal, so a malformed
// number is an error rather than a read of its numeric prefix.
TEST(JsonRead, RejectsNonJsonLiterals) {
  std::string error;
  for (const char* bad : {"[nan]", "[inf]", "[tru]", "[1x]",
                          "{\"delay\": 12abc}", "[01]", "[1.]", "[.5]",
                          "[1e]", "[+1]", "[-]", "[\v1]"}) {
    JsonValue v;
    EXPECT_FALSE(json_parse(bad, v, error)) << bad;
  }
  JsonValue literals;
  EXPECT_TRUE(json_parse("[true, false, null, -0, 0.5E+3]", literals, error))
      << error;

  // Whatever JsonWriter emits reads back to the value written.
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_array();
  w.value(std::numeric_limits<std::uint64_t>::max());
  w.value(std::int64_t{-42});
  w.value(1e6);  // printed as 1e+06
  w.value(-1.5e-7);
  w.value(0.25);
  w.end_array();
  JsonValue v;
  ASSERT_TRUE(json_parse(os.str(), v, error)) << os.str() << ": " << error;
  ASSERT_EQ(v.items.size(), 5u);
  EXPECT_EQ(v.items[0].u64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(v.items[1].i64(), -42);
  EXPECT_EQ(v.items[2].text, "1e+06");
  EXPECT_EQ(v.items[2].num(), 1e6);
  EXPECT_EQ(v.items[3].num(), -1.5e-7);
  EXPECT_EQ(v.items[4].num(), 0.25);
}

TEST(PartySet, BasicOperations) {
  PartySet s;
  EXPECT_TRUE(s.empty());
  s.insert(3);
  s.insert(5);
  EXPECT_EQ(s.size(), 2);
  EXPECT_TRUE(s.contains(3));
  EXPECT_FALSE(s.contains(4));
  EXPECT_FALSE(s.contains(-1));
  EXPECT_FALSE(s.contains(64));
  s.erase(3);
  EXPECT_FALSE(s.contains(3));
  EXPECT_EQ(s.first(), 5);
  EXPECT_EQ(PartySet{}.first(), -1);
}

TEST(PartySet, SetAlgebra) {
  const PartySet a = PartySet::of({0, 1, 2});
  const PartySet b = PartySet::of({2, 3});
  EXPECT_EQ(a.union_with(b), PartySet::of({0, 1, 2, 3}));
  EXPECT_EQ(a.intersect(b), PartySet::of({2}));
  EXPECT_EQ(a.minus(b), PartySet::of({0, 1}));
  EXPECT_TRUE(PartySet::of({1}).subset_of(a));
  EXPECT_FALSE(a.subset_of(b));
  EXPECT_EQ(PartySet::full(3), PartySet::of({0, 1, 2}));
}

TEST(PartySet, StrAndVector) {
  EXPECT_EQ(PartySet::of({0, 3, 5}).str(), "{0,3,5}");
  EXPECT_EQ(PartySet{}.str(), "{}");
  EXPECT_EQ(PartySet::of({2, 1}).to_vector(), (std::vector<int>{1, 2}));
}

TEST(PartySet, SubsetEnumerationIsCompleteAndOrdered) {
  std::vector<std::uint64_t> masks;
  PartySet::for_each_subset(6, 3, [&](PartySet s) {
    EXPECT_EQ(s.size(), 3);
    masks.push_back(s.mask());
  });
  EXPECT_EQ(masks.size(), 20u);  // C(6,3)
  for (std::size_t i = 1; i < masks.size(); ++i) {
    EXPECT_LT(masks[i - 1], masks[i]);  // canonical increasing order
  }
  std::set<std::uint64_t> unique(masks.begin(), masks.end());
  EXPECT_EQ(unique.size(), masks.size());
}

TEST(Rng, DeterministicAndDistinctStreams) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  Rng c(43);
  bool differs = false;
  Rng a2(42);
  for (int i = 0; i < 32; ++i) {
    if (a2.next_u64() != c.next_u64()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, DeriveIsStableAndLabelled) {
  const Rng parent(7);
  Rng c1 = parent.derive("alpha");
  Rng c2 = parent.derive("alpha");
  Rng c3 = parent.derive("beta");
  EXPECT_EQ(c1.next_u64(), c2.next_u64());
  Rng c1b = parent.derive("alpha");
  bool differs = false;
  for (int i = 0; i < 16; ++i) {
    if (c1b.next_u64() != c3.next_u64()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, OracleCoinIsAFunction) {
  EXPECT_EQ(Rng::oracle_coin(1, "x", 3), Rng::oracle_coin(1, "x", 3));
  int flips = 0;
  for (std::uint64_t r = 0; r < 64; ++r) {
    if (Rng::oracle_coin(1, "x", r) != Rng::oracle_coin(1, "x", r + 1)) {
      ++flips;
    }
  }
  EXPECT_GT(flips, 10);  // not constant
}

TEST(Rng, BoundsRespected) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
    const auto v = r.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Timing, FormulasMatchDesignDoc) {
  const ProtocolParams p{7, 2, 1};
  const Timing t = Timing::derive(p, 10);
  EXPECT_EQ(t.t_sba, 2 * 3 * 10);
  EXPECT_EQ(t.t_bc, 30 + t.t_sba);
  EXPECT_EQ(t.t_ba, t.t_bc + t.t_aba);
  EXPECT_EQ(t.wss_iter, 5 * t.t_bc + 2 * t.t_ba);
  EXPECT_EQ(t.t_wss, (p.ts - p.ta + 1) * t.wss_iter + 3 * 10);
  EXPECT_EQ(t.t_wss_z, (p.ts + 1) * t.wss_iter + 3 * 10);
  EXPECT_EQ(t.vss_iter, 5 * t.t_bc + t.t_wss_z + 2 * t.t_ba);
  EXPECT_EQ(t.t_vss, (p.ts + 1) * t.vss_iter);
  EXPECT_EQ(t.t_vts, t.t_vss + 3 * t.t_bc + 2 * 10);
  EXPECT_EQ(t.t_acs, 2 * t.t_ba);
}

TEST(Timing, ParamsValidation) {
  EXPECT_NO_THROW((ProtocolParams{7, 2, 1}.validate()));
  EXPECT_THROW((ProtocolParams{6, 2, 1}.validate()), InvariantError);
  EXPECT_THROW((ProtocolParams{7, 1, 2}.validate()), InvariantError);  // ta>ts
  EXPECT_NO_THROW((ProtocolParams{30, 2, 1}.validate()));
  EXPECT_THROW((ProtocolParams{130, 2, 1}.validate()), InvariantError); // n>128
  EXPECT_TRUE((ProtocolParams{7, 2, 1}.feasible()));
  EXPECT_FALSE((ProtocolParams{6, 2, 1}.feasible()));
}

}  // namespace
}  // namespace nampc
