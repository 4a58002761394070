// LD_PRELOAD module that counts C++ exceptions: it wraps __cxa_throw,
// which every `throw` expression calls, and prints the count to stderr when
// the process exits. CI's bench-smoke job runs the garbled MPC drive under
// it and caps the count, so a hot handler that goes back to throwing on
// malformed input fails a deterministic gate, not a wall-clock one.
//
//   LD_PRELOAD=build/tools/libnampc_throw_count.so build/examples/nampc_cli
//       mpc --n 5 --ts 1 --ta 0 --adversary garble        (one command line)
//
// Its stderr then ends with "nampc_throw_count: <count>".
#include <dlfcn.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "util/thread_safety.h"

namespace {

NAMPC_LOCK_FREE("bumped by whichever thread throws, read once at exit")
std::atomic<unsigned long long> g_throws{0};

struct Reporter {
  ~Reporter() {
    std::fprintf(stderr, "nampc_throw_count: %llu\n", g_throws.load());
  }
};
const Reporter g_reporter;

using CxaThrow = void (*)(void*, void*, void (*)(void*));

}  // namespace

// The exception's std::type_info* is passed as void*, the parameter type of
// the declaration GCC makes for every throw expression.
extern "C" [[noreturn]] void __cxa_throw(  // NOLINT(bugprone-reserved-identifier)
    void* object, void* type, void (*destructor)(void*)) {
  static const auto real =
      reinterpret_cast<CxaThrow>(dlsym(RTLD_NEXT, "__cxa_throw"));
  g_throws.fetch_add(1, std::memory_order_relaxed);
  real(object, type, destructor);
  std::abort();  // the real __cxa_throw does not return
}
