// Hot-path closure guard. std::function stores a callable without touching
// the heap only when it is trivially copyable and no larger than its inline
// buffer — two pointers in libstdc++. Closures created once per transfer or
// per gradient flush (event callbacks, flow and channel completions) are
// wrapped in inline_closure() so a capture that outgrows the buffer fails to
// compile instead of silently allocating on every call.
#pragma once

#include <type_traits>

namespace prophet {

template <typename F>
constexpr F inline_closure(F f) {
  static_assert(sizeof(F) <= 2 * sizeof(void*),
                "hot-path closure captures more than std::function stores inline");
  static_assert(std::is_trivially_copyable_v<F>,
                "hot-path closure must be trivially copyable to be stored inline");
  return f;
}

}  // namespace prophet
