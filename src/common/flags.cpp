#include "common/flags.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "common/check.hpp"

namespace prophet {

std::optional<Flags> Flags::parse(int argc, const char* const* argv,
                                  std::string* error) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      flags.positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    if (body.empty()) {
      if (error != nullptr) *error = "bare '--' is not a flag";
      return std::nullopt;
    }
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags.values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--name value` unless the next token is another flag (then boolean).
    if (i + 1 < argc && std::string{argv[i + 1]}.rfind("--", 0) != 0) {
      flags.values_[body] = argv[++i];
    } else {
      flags.values_[body] = "true";
    }
  }
  return flags;
}

bool Flags::has(const std::string& name) const { return values_.contains(name); }

std::string Flags::get(const std::string& name, const std::string& fallback) const {
  const auto it = values_.find(name);
  return it != values_.end() ? it->second : fallback;
}

double Flags::get(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  const bool whole = !text.empty() && end == text.c_str() + text.size() &&
                     errno != ERANGE && std::isfinite(value);
  PROPHET_CHECK_MSG(whole, ("--" + name + " '" + text + "' is not a number").c_str());
  return value;
}

std::int64_t Flags::get(const std::string& name, std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  const bool whole =
      !text.empty() && end == text.c_str() + text.size() && errno != ERANGE;
  PROPHET_CHECK_MSG(whole, ("--" + name + " '" + text + "' is not an integer").c_str());
  return value;
}

std::size_t Flags::get_count(const std::string& name, std::size_t fallback) const {
  const std::int64_t value = get(name, static_cast<std::int64_t>(fallback));
  PROPHET_CHECK_MSG(value >= 0, ("--" + name + " must not be negative").c_str());
  return static_cast<std::size_t>(value);
}

bool Flags::get(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  const bool yes = text == "true" || text == "1" || text == "yes";
  const bool no = text == "false" || text == "0" || text == "no";
  PROPHET_CHECK_MSG(yes || no, ("--" + name + " '" + text +
                                "' is not a boolean (true/1/yes or false/0/no)")
                                   .c_str());
  return yes;
}

std::vector<std::string> Flags::names() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [name, value] : values_) out.push_back(name);
  return out;
}

}  // namespace prophet
