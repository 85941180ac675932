#include "src/util/flags.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <system_error>
#include <type_traits>

namespace minuet {
namespace {

// The whole of `text` as a T within `bound`.
template <typename T>
bool ParseNumber(const std::string& text, FlagBound bound, T* out) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    return false;
  }
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) {
      return false;
    }
  }
  const double signed_value = static_cast<double>(value);
  if ((bound == FlagBound::kZero && signed_value < 0) ||
      (bound == FlagBound::kPositive && signed_value <= 0) ||
      (bound == FlagBound::kFraction && (signed_value < 0 || signed_value > 1))) {
    return false;
  }
  *out = value;
  return true;
}

// Sets the flag's field from `value`; false when the value is not one the
// flag takes.
bool Set(const FlagSpec& flag, const std::string& value) {
  if (auto* const* s = std::get_if<std::string*>(&flag.target)) {
    **s = value;
    return true;
  }
  if (auto* const* i = std::get_if<int*>(&flag.target)) {
    return ParseNumber(value, flag.bound, *i);
  }
  if (auto* const* i = std::get_if<int64_t*>(&flag.target)) {
    return ParseNumber(value, flag.bound, *i);
  }
  if (auto* const* u = std::get_if<uint64_t*>(&flag.target)) {
    return ParseNumber(value, flag.bound, *u);
  }
  if (auto* const* d = std::get_if<double*>(&flag.target)) {
    return ParseNumber(value, flag.bound, *d);
  }
  if (const auto* bit = std::get_if<FlagBit>(&flag.target)) {
    if (value != "0" && value != "1") {
      return false;
    }
    *bit->on = value == "1";
    return true;
  }
  return std::get<FlagChoice>(flag.target)(value);
}

// What a rejected value should have been, for the error message.
std::string Expected(const FlagSpec& flag) {
  const std::string bound = flag.bound == FlagBound::kPositive   ? " > 0"
                            : flag.bound == FlagBound::kZero     ? " >= 0"
                            : flag.bound == FlagBound::kFraction ? " in [0, 1]"
                                                                 : "";
  if (std::holds_alternative<double*>(flag.target)) {
    return "a number" + bound;
  }
  if (std::holds_alternative<FlagBit>(flag.target)) {
    return "0 or 1";
  }
  if (std::holds_alternative<FlagChoice>(flag.target)) {
    return "one of " + flag.value;
  }
  if (std::holds_alternative<uint64_t*>(flag.target) && bound.empty()) {
    return "an integer >= 0";
  }
  return "an integer" + bound;
}

}  // namespace

ParsedFlags ParseFlags(const FlagCommand& command, const std::vector<std::string>& args) {
  ParsedFlags parsed;
  if (std::find(args.begin(), args.end(), "--help") != args.end()) {
    parsed.help = true;
    return parsed;
  }
  std::vector<bool> given(command.flags.size(), false);
  for (size_t i = 0; i < args.size() && parsed.error.empty(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      parsed.positionals.push_back(arg);
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const auto flag = std::find_if(command.flags.begin(), command.flags.end(),
                                   [&](const FlagSpec& f) { return name == "--" + f.name; });
    if (flag == command.flags.end()) {
      parsed.error = "unknown flag " + name;
      continue;
    }
    given[static_cast<size_t>(flag - command.flags.begin())] = true;
    if (const auto* on = std::get_if<FlagSwitch>(&flag->target)) {
      if (eq != std::string::npos) {
        parsed.error = name + " takes no value";
      } else {
        *on->on = true;
      }
      continue;
    }
    std::string value;
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < args.size()) {
      value = args[++i];
    }
    if (value.empty() || value.rfind("--", 0) == 0) {
      parsed.error = name + " needs a value";
    } else if (!Set(*flag, value)) {
      parsed.error = name + " takes " + Expected(*flag) + ", not " + value;
    }
  }
  for (size_t f = 0; f < command.flags.size() && parsed.error.empty(); ++f) {
    if (command.flags[f].required && !given[f]) {
      parsed.error = "--" + command.flags[f].name + " is required";
    }
  }
  const size_t count = parsed.positionals.size();
  if (parsed.error.empty() && count > command.max_positionals) {
    parsed.error = "unexpected argument " + parsed.positionals[command.max_positionals];
  } else if (parsed.error.empty() && count < command.min_positionals) {
    parsed.error = "expects " + std::to_string(command.min_positionals) + " argument(s), got " +
                   std::to_string(count);
  }
  return parsed;
}

std::string FlagUsage(const FlagCommand& command) {
  std::string usage = "usage: " + command.synopsis + "\n";
  for (const FlagSpec& flag : command.flags) {
    std::string spelled = "--" + flag.name;
    if (!std::holds_alternative<FlagSwitch>(flag.target)) {
      spelled += "=" + flag.value;
    }
    // Help starts in one column; a longer spelling puts it on the next line.
    constexpr size_t kColumn = 24;
    const std::string indent = "\n" + std::string(kColumn + 2, ' ');
    spelled += spelled.size() < kColumn ? std::string(kColumn - spelled.size(), ' ') : indent;
    std::string help = flag.help;
    for (size_t at = help.find('\n'); at != std::string::npos; at = help.find('\n', at + 1)) {
      help.replace(at, 1, indent);
    }
    usage += "  " + spelled + help + "\n";
  }
  return usage;
}

int FlagExit(const FlagCommand& command, const ParsedFlags& parsed) {
  if (parsed.help) {
    std::fputs(FlagUsage(command).c_str(), stdout);
    return 0;
  }
  const std::string program = command.synopsis.substr(0, command.synopsis.find(' '));
  std::fprintf(stderr, "%s: %s\n", program.c_str(), parsed.error.c_str());
  std::fputs(FlagUsage(command).c_str(), stderr);
  return 2;
}

}  // namespace minuet
