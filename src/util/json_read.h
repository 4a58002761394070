// Minimal JSON reading for observability tooling (trace analysis, bench
// shape checks, tests that parse run reports) and the files the tools take
// as input (schedules, fuzz seeds, lint thresholds). Counterpart of
// util/json.h: handles exactly the subset JsonWriter emits — objects,
// arrays, strings, numbers, booleans, null — keeps object members in input
// order, and keeps \uXXXX escapes verbatim (no codepoint decoding), so
// round-tripping equal inputs yields equal values. A bare token must be
// true, false, null or a JSON number; anything else (nan, inf, 12abc) is a
// parse error. Header-only; throws nothing (parse reports errors by return
// value), but JsonValue::at asserts on missing members.
#pragma once

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/assert.h"

namespace nampc {

struct JsonValue {
  enum class Kind { object, array, string, literal } kind = Kind::literal;
  std::string text;  ///< string contents, or the literal token (42, true...)
  std::vector<std::pair<std::string, JsonValue>> members;  ///< object, ordered
  std::vector<JsonValue> items;                            ///< array

  [[nodiscard]] const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  /// Member access that must succeed (malformed input should have been
  /// rejected by the caller's schema check before using at()).
  [[nodiscard]] const JsonValue& at(const std::string& key) const {
    const JsonValue* v = find(key);
    NAMPC_REQUIRE(v != nullptr, "json: missing member '" + key + "'");
    return *v;
  }

  [[nodiscard]] bool is_object() const { return kind == Kind::object; }
  [[nodiscard]] bool is_array() const { return kind == Kind::array; }
  [[nodiscard]] bool is_string() const { return kind == Kind::string; }

  /// Numeric value of a literal token (0 for non-numeric literals).
  [[nodiscard]] std::int64_t i64() const {
    return std::strtoll(text.c_str(), nullptr, 10);
  }
  [[nodiscard]] std::uint64_t u64() const {
    return std::strtoull(text.c_str(), nullptr, 10);
  }
  [[nodiscard]] double num() const {
    return std::strtod(text.c_str(), nullptr);
  }
  [[nodiscard]] bool boolean() const { return text == "true"; }
};

/// Recursive-descent parser over the JsonWriter subset.
class JsonParser {
 public:
  explicit JsonParser(std::string text) : text_(std::move(text)) {}

  bool parse(JsonValue& out, std::string& error) {
    pos_ = 0;
    if (!value(out)) {
      error = error_ + " at offset " + std::to_string(pos_);
      return false;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      error = "trailing data at offset " + std::to_string(pos_);
      return false;
    }
    return true;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  /// true / false / null, or a number matching
  /// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  static bool is_literal(std::string_view t) {
    if (t == "true" || t == "false" || t == "null") return true;
    std::size_t i = 0;
    const auto digits = [&t, &i] {
      const std::size_t start = i;
      while (i < t.size() && t[i] >= '0' && t[i] <= '9') ++i;
      return i > start;
    };
    if (i < t.size() && t[i] == '-') ++i;
    if (i < t.size() && t[i] == '0') {
      ++i;
    } else if (!digits()) {
      return false;
    }
    if (i < t.size() && t[i] == '.') {
      ++i;
      if (!digits()) return false;
    }
    if (i < t.size() && (t[i] == 'e' || t[i] == 'E')) {
      ++i;
      if (i < t.size() && (t[i] == '+' || t[i] == '-')) ++i;
      if (!digits()) return false;
    }
    return i == t.size();
  }

  bool fail(const std::string& why) {
    error_ = why;
    return false;
  }

  bool value(JsonValue& out) {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return object(out);
    if (c == '[') return array(out);
    if (c == '"') {
      out.kind = JsonValue::Kind::string;
      return string(out.text);
    }
    // Number / true / false / null: consume the bare token.
    out.kind = JsonValue::Kind::literal;
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.')) {
      ++pos_;
    }
    if (pos_ == start) return fail("unexpected character");
    out.text = text_.substr(start, pos_ - start);
    if (!is_literal(out.text)) {
      pos_ = start;
      return fail("invalid literal '" + out.text + "'");
    }
    return true;
  }

  bool object(JsonValue& out) {
    out.kind = JsonValue::Kind::object;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!string(key)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return fail("expected ':'");
      }
      ++pos_;
      JsonValue v;
      if (!value(v)) return false;
      out.members.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool array(JsonValue& out) {
    out.kind = JsonValue::Kind::array;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue v;
      if (!value(v)) return false;
      out.items.push_back(std::move(v));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool string(std::string& out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return fail("expected string");
    }
    ++pos_;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return fail("bad escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u':
            // Structural comparison does not need codepoint decoding: keep
            // the escape verbatim so equal inputs stay equal.
            out += "\\u";
            for (int i = 0; i < 4 && pos_ < text_.size(); ++i) {
              out += text_[pos_++];
            }
            break;
          default: return fail("bad escape");
        }
      } else {
        out += c;
      }
    }
    return fail("unterminated string");
  }

  std::string text_;
  std::size_t pos_ = 0;
  std::string error_;
};

inline bool json_parse(std::string text, JsonValue& out, std::string& error) {
  return JsonParser(std::move(text)).parse(out, error);
}

}  // namespace nampc
