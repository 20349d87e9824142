#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace dfs::util {

/// Minimal command-line parser for the tools: GNU-style "--flag value" and
/// "--flag=value" options plus positional arguments. Unknown flags are
/// collected so tools can reject them with a useful message.
class Args {
 public:
  Args(int argc, const char* const* argv);

  /// Value of --name, if present.
  std::optional<std::string> get(const std::string& name) const;
  std::string get_or(const std::string& name, const std::string& def) const;
  /// Numeric value of --name via parse_number (so "--seeds 2x" throws
  /// std::invalid_argument instead of running 2 seeds).
  int get_int(const std::string& name, int def) const;
  double get_double(const std::string& name, double def) const;
  /// True if --name appeared (with or without a value).
  bool has(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Flags that were consumed by none of the accessors above; call after all
  /// get()s to report typos. Accessors record the names they were asked for.
  std::vector<std::string> unrecognized() const;

 private:
  struct Flag {
    std::string name;
    std::string value;
    bool has_value = false;
  };
  std::vector<Flag> flags_;
  std::vector<std::string> positional_;
  mutable std::vector<std::string> queried_;
};

/// Splits "a,b,c" into pieces (empty input -> empty vector).
std::vector<std::string> split(const std::string& s, char sep);

/// Parses the whole of `text` as one number: a decimal integer for int and
/// std::uint64_t, a finite decimal number for double. Throws
/// std::invalid_argument naming `flag` on empty input, trailing junk, or a
/// value out of T's range — numeric flags reject rather than coerce.
template <typename T>
T parse_number(const std::string& flag, const std::string& text);

/// Parses "x,y,..." with parse_number<double>; an empty list throws too.
std::vector<double> parse_double_list(const std::string& flag,
                                      const std::string& text);

}  // namespace dfs::util
