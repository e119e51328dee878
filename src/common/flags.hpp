// Minimal command-line flag parser for the example/tool binaries:
// `--name value` and `--name=value` forms and typed accessors with defaults.
// No global state. A numeric accessor aborts, naming the flag, when the
// value does not parse whole: `--workers 3x` or `--workers` with no value
// never reads as some number. The boolean accessor likewise accepts only
// true/1/yes and false/0/no (a bare `--name` reads as true), so `--asp=on`
// aborts instead of reading as false.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace prophet {

class Flags {
 public:
  // Parses argv; returns std::nullopt (and fills `error`) on malformed
  // input (unknown flags are collected, not rejected — callers validate).
  static std::optional<Flags> parse(int argc, const char* const* argv,
                                    std::string* error = nullptr);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  [[nodiscard]] double get(const std::string& name, double fallback) const;
  [[nodiscard]] std::int64_t get(const std::string& name,
                                 std::int64_t fallback) const;
  // An integer that must not be negative (a count of workers, iterations,
  // ...): also aborts on a negative value, before it can wrap to a huge
  // unsigned one.
  [[nodiscard]] std::size_t get_count(const std::string& name,
                                      std::size_t fallback) const;
  [[nodiscard]] bool get(const std::string& name, bool fallback) const;

  // Non-flag positional arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }
  // Every flag name seen (for unknown-flag validation).
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace prophet
