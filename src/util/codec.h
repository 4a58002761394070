// Word-oriented serialization for simulated protocol messages.
//
// All protocol payloads are sequences of 64-bit words (field elements fit in
// one word; small integers, set bitmaps and tags likewise). Writer/Reader
// give a checked, append/consume interface; Reader throws on truncation so a
// malformed (adversarially injected) payload surfaces as a decode failure
// the protocol code can treat as misbehaviour rather than UB.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/assert.h"

namespace nampc {

using Word = std::uint64_t;
using Words = std::vector<Word>;

/// Appends structured data to a word vector.
class Writer {
 public:
  Writer() = default;

  Writer& u64(std::uint64_t v) {
    out_.push_back(v);
    return *this;
  }
  Writer& i64(std::int64_t v) { return u64(static_cast<std::uint64_t>(v)); }
  Writer& boolean(bool b) { return u64(b ? 1 : 0); }

  /// Length-prefixed word vector.
  Writer& vec(const Words& v) {
    u64(v.size());
    out_.insert(out_.end(), v.begin(), v.end());
    return *this;
  }

  /// Length-prefixed vector of arbitrary encodable items.
  template <typename T, typename Fn>
  Writer& seq(const std::vector<T>& items, Fn&& encode_one) {
    u64(items.size());
    for (const T& item : items) encode_one(*this, item);
    return *this;
  }

  [[nodiscard]] Words take() && { return std::move(out_); }
  [[nodiscard]] const Words& words() const { return out_; }

 private:
  Words out_;
};

/// Thrown when a payload is malformed (too short / bad length prefix).
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

/// Consumes structured data from a word span.
class Reader {
 public:
  explicit Reader(std::span<const Word> words) : words_(words) {}

  [[nodiscard]] std::uint64_t u64() {
    if (pos_ >= words_.size()) throw DecodeError("payload truncated");
    return words_[pos_++];
  }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] bool boolean() { return u64() != 0; }

  /// Length-prefixed word vector, returned as a view into the payload
  /// rather than a copy: valid only while the payload lives. Throws on the
  /// same inputs as vec().
  [[nodiscard]] std::span<const Word> view() {
    const std::uint64_t len = u64();
    if (len > words_.size() - pos_) throw DecodeError("bad vector length");
    const std::span<const Word> v = words_.subspan(pos_, len);
    pos_ += len;
    return v;
  }

  [[nodiscard]] Words vec() {
    const std::span<const Word> v = view();
    return Words(v.begin(), v.end());
  }

  template <typename T, typename Fn>
  [[nodiscard]] std::vector<T> seq(Fn&& decode_one) {
    const std::uint64_t len = u64();
    if (len > words_.size() - pos_) throw DecodeError("bad sequence length");
    std::vector<T> items;
    items.reserve(len);
    for (std::uint64_t i = 0; i < len; ++i) items.push_back(decode_one(*this));
    return items;
  }

  [[nodiscard]] bool done() const { return pos_ == words_.size(); }
  [[nodiscard]] std::size_t remaining() const { return words_.size() - pos_; }

 private:
  std::span<const Word> words_;
  std::size_t pos_ = 0;
};

}  // namespace nampc
