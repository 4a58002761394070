// Point-to-point messages between simulated parties.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>

#include "util/codec.h"

namespace nampc {

using PartyId = int;

/// Sentinel instance id for cost attribution: work that belongs to no
/// protocol instance (driver-scheduled timers, ideal-gadget plumbing) lands
/// in the metrics registry's "unattributed" cell under this id.
inline constexpr std::uint32_t kNoInstance = 0xffffffffu;

/// An immutable, reference-counted message body. Copies share one body, so
/// a send_all hands the same words to all n recipients and a protocol can
/// forward a body it received without copying it (Acast's ECHO/READY). An
/// empty Payload holds no body at all.
///
/// A Payload is one pointer to an intrusive body with a plain, non-atomic
/// count: a body is copied and released only on the thread that made it.
/// Bodies never cross threads — ThreadedTransport::post copies the words
/// out and the receiving runtime wraps a fresh body (net/threaded.cpp).
///
/// Reads go through the const view below; it is enough for std::span's
/// range constructor, so `Reader r(msg.payload)` reads in place. The one
/// writer is mut(), which clones a shared body first: only the adversary's
/// rewrites of corrupt traffic call it (handlers get a const Message&), and
/// a rewrite for one recipient never reaches another or the sender's copy.
class Payload {
 public:
  Payload() = default;
  // Implicit on purpose, both ways: Words arguments move into the body
  // (no word copy), and a Payload reads as `const Words&`.
  Payload(Words words)
      : body_(words.empty() ? nullptr : new Body{1, std::move(words)}) {}
  Payload(std::initializer_list<Word> words) : Payload(Words(words)) {}

  Payload(const Payload& other) noexcept : body_(other.body_) {
    if (body_ != nullptr) ++body_->refs;
  }
  Payload(Payload&& other) noexcept
      : body_(std::exchange(other.body_, nullptr)) {}
  // Copy-and-swap: self-assignment and assignment over a shared body both
  // release the old body exactly once.
  Payload& operator=(const Payload& other) noexcept {
    Payload(other).swap(*this);
    return *this;
  }
  Payload& operator=(Payload&& other) noexcept {
    Payload(std::move(other)).swap(*this);
    return *this;
  }
  ~Payload() {
    if (body_ != nullptr && --body_->refs == 0) delete body_;
  }

  [[nodiscard]] const Words& words() const {
    static const Words kEmpty;
    return body_ != nullptr ? body_->words : kEmpty;
  }
  operator const Words&() const { return words(); }

  [[nodiscard]] const Word* data() const {
    return body_ != nullptr ? body_->words.data() : nullptr;
  }
  [[nodiscard]] std::size_t size() const {
    return body_ != nullptr ? body_->words.size() : 0;
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
  /// Body identity, not word equality: true when both hold the same body
  /// (or both are empty). Equal words in distinct bodies compare false.
  [[nodiscard]] bool same_body(const Payload& other) const {
    return body_ == other.body_;
  }
  [[nodiscard]] const Word* begin() const { return data(); }
  [[nodiscard]] const Word* end() const {
    return body_ != nullptr ? body_->words.data() + body_->words.size()
                            : nullptr;
  }

  /// Copy-on-write access: clones the body when another Payload shares it
  /// (or allocates one when empty), so the words returned are this
  /// Payload's alone.
  [[nodiscard]] Words& mut() {
    if (body_ == nullptr) {
      body_ = new Body{1, {}};
    } else if (body_->refs > 1) {
      Body* clone = new Body{1, body_->words};
      --body_->refs;
      body_ = clone;
    }
    return body_->words;
  }

 private:
  struct Body {
    std::size_t refs;
    Words words;
  };

  void swap(Payload& other) noexcept { std::swap(body_, other.body_); }

  Body* body_ = nullptr;
};
static_assert(sizeof(Payload) == sizeof(void*));

/// A message addressed to a protocol instance on the receiving party.
///
/// Routing keys are hierarchical strings ("vss0/it2/inner3/acast"), but the
/// hot delivery path never touches them: every key is interned once per
/// Simulation (ProtocolInstance construction) into a dense `instance_id`,
/// and parties route by indexing a vector with that id. `instance_name`
/// points at the interned string (owned by the Simulation, stable for the
/// run) so adversary filters and tracers can still match on the text via
/// instance() without a lookup.
///
/// `type` is a protocol-defined tag; `payload` is the word-encoded body,
/// shared with every other message of the same fan-out.
///
/// Channels are authenticated point-to-point links: what the adversary may
/// do to a message in flight (drop/rewrite only for corrupt `from`, delay
/// subject to Δ-clamping, kFarFuture semantics) is stated once in the
/// model-enforcement contract of net/adversary.h.
struct Message {
  PartyId from = -1;
  PartyId to = -1;
  int type = 0;
  std::uint32_t instance_id = 0;
  const std::string* instance_name = nullptr;
  Payload payload;

  /// The routing key text (interned; valid for the simulation's lifetime).
  [[nodiscard]] const std::string& instance() const { return *instance_name; }
};

}  // namespace nampc
