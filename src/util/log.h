// Structured leveled logging for the simulator and protocol stack.
//
// Protocol code logs through NAMPC_LOG(level) (context-free) or, inside a
// ProtocolInstance, NAMPC_PLOG(level) (virtual time, party id and instance
// key attached centrally — call sites never hand-roll prefixes). Every
// emitted event is a LogEvent routed to a pluggable sink; the default sink
// renders "[t=<vt> P<party> <module>] text" to stderr, and use_json_sink()
// switches to JSON-lines for machine consumption.
//
// Cost model: a disabled level is one integer compare (plus one map lookup
// when per-module overrides are installed): both macros check the level
// before they build a line, so a disabled line constructs nothing and
// evaluates none of its `<<` operands. A bounded ring buffer can
// additionally capture recent events at its own level; the simulator dumps
// it when the event limit trips and NAMPC_ASSERT failures dump it before
// throwing, so livelocks leave an actionable tail instead of silence.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>

#include "util/json.h"
#include "util/thread_safety.h"

namespace nampc {

enum class LogLevel : int { off = 0, error = 1, info = 2, debug = 3, trace = 4 };

inline const char* log_level_name(LogLevel lvl) {
  switch (lvl) {
    case LogLevel::off: return "off";
    case LogLevel::error: return "error";
    case LogLevel::info: return "info";
    case LogLevel::debug: return "debug";
    case LogLevel::trace: return "trace";
  }
  return "?";
}

/// One structured log record. Context fields are -1/empty when the event was
/// produced outside a protocol instance (plain NAMPC_LOG).
struct LogEvent {
  LogLevel level = LogLevel::info;
  std::int64_t vt = -1;  ///< virtual time, -1 = no simulation context
  int party = -1;        ///< party id, -1 = no party context
  std::string module;    ///< protocol kind ("wss", "bc", ...), may be empty
  std::string key;       ///< protocol instance key, may be empty
  std::string text;
};

/// Global log configuration. Default: errors only, text sink on stderr.
class Log {
 public:
  using Sink = std::function<void(const LogEvent&)>;
  using ModuleLevels = std::map<std::string, LogLevel, std::less<>>;

  static LogLevel& level() {
    static LogLevel lvl = LogLevel::error;
    return lvl;
  }

  /// Per-module overrides ("wss" → trace). An entry wins over the global
  /// level for events carrying that module tag.
  static ModuleLevels& module_levels() {
    static ModuleLevels levels;
    return levels;
  }

  static void set_module_level(const std::string& module, LogLevel lvl) {
    module_levels()[module] = lvl;
  }

  static bool enabled(LogLevel lvl) {
    return static_cast<int>(lvl) <= static_cast<int>(level());
  }

  /// Effective check for a module-tagged event: module override if present,
  /// else the global level.
  static bool enabled_for(std::string_view module, LogLevel lvl) {
    const auto& mods = module_levels();
    if (!mods.empty() && !module.empty()) {
      const auto it = mods.find(module);
      if (it != mods.end()) {
        return static_cast<int>(lvl) <= static_cast<int>(it->second);
      }
    }
    return enabled(lvl);
  }

  static Sink& sink() {
    static Sink s = text_sink(std::cerr);
    return s;
  }
  static void set_sink(Sink s) { sink() = std::move(s); }

  /// Human-readable sink: "[t=120 P3 wss mpc/.../rbc5] text".
  static Sink text_sink(std::ostream& os) {
    return [&os](const LogEvent& e) {
      if (e.vt >= 0 || e.party >= 0 || !e.module.empty()) {
        os << '[';
        bool space = false;
        if (e.vt >= 0) { os << "t=" << e.vt; space = true; }
        if (e.party >= 0) { os << (space ? " " : "") << 'P' << e.party; space = true; }
        if (!e.module.empty()) { os << (space ? " " : "") << e.module; space = true; }
        if (!e.key.empty()) os << (space ? " " : "") << e.key;
        os << "] ";
      }
      os << e.text << '\n';
    };
  }

  /// JSON-lines sink: one {"level":...,"t":...,"party":...,...} per event.
  static Sink json_sink(std::ostream& os) {
    return [&os](const LogEvent& e) {
      os << "{\"level\":\"" << log_level_name(e.level) << '"';
      if (e.vt >= 0) os << ",\"t\":" << e.vt;
      if (e.party >= 0) os << ",\"party\":" << e.party;
      if (!e.module.empty()) {
        os << ",\"module\":\"";
        json_escape(os, e.module);
        os << '"';
      }
      if (!e.key.empty()) {
        os << ",\"key\":\"";
        json_escape(os, e.key);
        os << '"';
      }
      os << ",\"msg\":\"";
      json_escape(os, e.text);
      os << "\"}\n";
    };
  }
  static void use_json_sink(std::ostream& os) { set_sink(json_sink(os)); }

  // --- ring buffer of recent events (livelock / assertion forensics) ---

  /// Enables capture of the last `capacity` events at `capture_level` or
  /// finer. Capture is independent of the console level: the ring can hold
  /// trace events while the sink prints only errors. capacity 0 disables.
  static void set_ring(std::size_t capacity,
                       LogLevel capture_level = LogLevel::trace) {
    ring_capacity() = capacity;
    ring_level() = capacity == 0 ? LogLevel::off : capture_level;
    ring().clear();
  }

  static std::size_t& ring_capacity() {
    static std::size_t cap = 0;
    return cap;
  }
  static LogLevel& ring_level() {
    static LogLevel lvl = LogLevel::off;
    return lvl;
  }
  static bool ring_enabled(LogLevel lvl) {
    return static_cast<int>(lvl) <= static_cast<int>(ring_level());
  }
  static std::deque<LogEvent>& ring() {
    static std::deque<LogEvent> r;
    return r;
  }
  static void clear_ring() { ring().clear(); }

  /// Serialises emit()/dump_ring() across sweep worker threads. Level and
  /// sink *configuration* is not locked: configure logging before starting
  /// a parallel sweep (see util/sweep.h for the full contract).
  static Mutex& io_mutex() {
    static Mutex mu;
    return mu;
  }

  /// Writes the captured tail (oldest first) through the text format.
  /// Returns the number of events dumped.
  static std::size_t dump_ring(std::ostream& os) {
    const MutexLock lock(io_mutex());
    const auto& r = ring();
    if (r.empty()) {
      if (ring_capacity() == 0) {
        os << "(log ring buffer disabled — enable with Log::set_ring)\n";
      } else {
        os << "(log ring buffer empty)\n";
      }
      return 0;
    }
    os << "--- last " << r.size() << " log events ---\n";
    const Sink text = text_sink(os);
    for (const LogEvent& e : r) text(e);
    os << "--- end of log ring ---\n";
    return r.size();
  }

  /// Routes one event to the ring and/or the sink. `to_console` was decided
  /// by the caller (which already knows the module). Thread-safe: events
  /// from concurrent sweep jobs interleave whole, never mid-line.
  static void emit(LogEvent&& e, bool to_console) {
    const MutexLock lock(io_mutex());
    if (ring_enabled(e.level) && ring_capacity() > 0) {
      auto& r = ring();
      if (r.size() >= ring_capacity()) r.pop_front();
      r.push_back(e);
    }
    if (to_console) sink()(e);
  }
};

namespace detail {
/// Whether a line at `lvl` tagged `module` ("" for none) goes anywhere:
/// to the console (module override, else the global level) or the ring.
inline bool log_wanted(std::string_view module, LogLevel lvl) {
  return Log::enabled_for(module, lvl) || Log::ring_enabled(lvl);
}

/// Collects one log line and routes it as a LogEvent on destruction. The
/// macros below build one only when log_wanted holds.
class LogLine {
 public:
  explicit LogLine(LogLevel lvl) : console_(Log::enabled(lvl)) {
    event_.level = lvl;
  }
  /// Context-carrying form used by NAMPC_PLOG via ProtocolInstance.
  LogLine(LogLevel lvl, std::int64_t vt, int party, std::string_view module,
          std::string_view key)
      : console_(Log::enabled_for(module, lvl)) {
    event_.level = lvl;
    event_.vt = vt;
    event_.party = party;
    event_.module = module;
    event_.key = key;
  }
  ~LogLine() {
    event_.text = os_.str();
    Log::emit(std::move(event_), console_);
  }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  bool console_;
  LogEvent event_;
  std::ostringstream os_;
};

/// Turns a finished `LogLine << ...` chain into a void expression, so the
/// macros can skip the whole chain in a conditional. `&` binds looser
/// than `<<` and tighter than `?:`.
struct LogVoidify {
  void operator&(const LogLine& /*line*/) const {}
};
}  // namespace detail

}  // namespace nampc

#define NAMPC_LOG(lvl)                                                  \
  !::nampc::detail::log_wanted({}, ::nampc::LogLevel::lvl)              \
      ? (void)0                                                         \
      : ::nampc::detail::LogVoidify() &                                 \
            ::nampc::detail::LogLine(::nampc::LogLevel::lvl)
/// Context-rich logging inside a ProtocolInstance subclass: prefixes virtual
/// time, party id, module kind and instance key centrally.
#define NAMPC_PLOG(lvl)                                                 \
  !this->log_wanted(::nampc::LogLevel::lvl)                             \
      ? (void)0                                                         \
      : ::nampc::detail::LogVoidify() &                                 \
            this->log_line(::nampc::LogLevel::lvl)
