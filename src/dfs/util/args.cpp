#include "dfs/util/args.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>
#include <type_traits>

namespace dfs::util {

Args::Args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    Flag flag;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flag.name = arg.substr(2, eq - 2);
      flag.value = arg.substr(eq + 1);
      flag.has_value = true;
    } else {
      flag.name = arg.substr(2);
      // Consume the next token as the value unless it looks like a flag.
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        flag.value = argv[++i];
        flag.has_value = true;
      }
    }
    flags_.push_back(std::move(flag));
  }
}

std::optional<std::string> Args::get(const std::string& name) const {
  queried_.push_back(name);
  for (const Flag& f : flags_) {
    if (f.name == name && f.has_value) return f.value;
  }
  return std::nullopt;
}

std::string Args::get_or(const std::string& name,
                         const std::string& def) const {
  return get(name).value_or(def);
}

int Args::get_int(const std::string& name, int def) const {
  const auto v = get(name);
  return v ? parse_number<int>("--" + name, *v) : def;
}

double Args::get_double(const std::string& name, double def) const {
  const auto v = get(name);
  return v ? parse_number<double>("--" + name, *v) : def;
}

bool Args::has(const std::string& name) const {
  queried_.push_back(name);
  return std::any_of(flags_.begin(), flags_.end(),
                     [&](const Flag& f) { return f.name == name; });
}

std::vector<std::string> Args::unrecognized() const {
  std::vector<std::string> out;
  for (const Flag& f : flags_) {
    if (std::find(queried_.begin(), queried_.end(), f.name) ==
        queried_.end()) {
      out.push_back(f.name);
    }
  }
  return out;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  if (s.empty()) return out;
  std::size_t start = 0;
  while (true) {
    const auto pos = s.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

template <typename T>
T parse_number(const std::string& flag, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc::result_out_of_range) {
    throw std::invalid_argument(flag + ": '" + text + "' is out of range");
  }
  bool ok = ec == std::errc{} && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    throw std::invalid_argument(
        flag + ": expected " +
        (std::is_integral_v<T> ? "an integer" : "a finite number") +
        ", got '" + text + "'");
  }
  return value;
}

template int parse_number<int>(const std::string&, const std::string&);
template std::uint64_t parse_number<std::uint64_t>(const std::string&,
                                                   const std::string&);
template double parse_number<double>(const std::string&, const std::string&);

std::vector<double> parse_double_list(const std::string& flag,
                                      const std::string& text) {
  std::vector<double> out;
  for (const std::string& item : split(text, ',')) {
    out.push_back(parse_number<double>(flag, item));
  }
  if (out.empty()) throw std::invalid_argument(flag + ": empty list");
  return out;
}

}  // namespace dfs::util
