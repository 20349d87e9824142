#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace dfs::util {

/// Minimal command-line tokenizer: GNU-style "--flag value" and
/// "--flag=value" options plus positional arguments. Unknown flags are
/// collected so a caller can reject them with a useful message. Programs
/// declare their flags in a FlagTable, which tokenizes through Args; Args
/// alone serves callers that only look flags up by name.
class Args {
 public:
  Args(int argc, const char* const* argv);

  /// Value of --name, if present.
  std::optional<std::string> get(const std::string& name) const;

  /// Flags that were consumed by no get(); call after all get()s to report
  /// typos. get() records the names it was asked for.
  std::vector<std::string> unrecognized() const;

 private:
  friend class FlagTable;
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

/// The values a flag accepts: a numeric range (checked on every item of a
/// list) or, for a string flag, a fixed set of words. Only values given on
/// the command line are checked; a row's default is trusted.
struct Bound {
  std::string text;                   ///< ">= 1", "in [0, 1)", "fair | fifo"
  std::function<bool(double)> holds;  ///< numeric bounds only
  std::vector<std::string> words;     ///< word bounds only
};
Bound at_least(double lo);                 ///< >= lo
Bound above(double lo);                    ///< > lo
Bound in_range(double lo, double hi);      ///< [lo, hi]
Bound in_half_open(double lo, double hi);  ///< [lo, hi)
Bound one_of(std::vector<std::string> words);

/// Declare-once flag table. Each row binds "--name" to the variable it sets,
/// with a one-line help string and an optional Bound; the row's default is
/// the variable's value when the row is declared, so the program and its
/// --help can never disagree about it.
class FlagTable {
 public:
  /// Parses a list or spec value; `flag` is "--name", for messages. Throws
  /// std::invalid_argument to reject the value.
  using Parser =
      std::function<void(const std::string& flag, const std::string& value)>;
  /// bool rows are switches that take no value; vector rows take a comma
  /// list of numbers.
  using Target =
      std::variant<bool*, int*, std::uint64_t*, double*, std::string*,
                   std::optional<std::string>*, std::vector<double>*>;

  /// `program` prefixes error messages; the help text opens with
  /// "program - summary".
  FlagTable(std::string program, std::string summary);

  void add(const std::string& name, Target target, std::string help,
           Bound bound = {});
  /// A row whose value `parse` interprets. `default_text` goes through
  /// `parse` right away, so the default is written once, in the row.
  void add(const std::string& name, const std::string& default_text,
           Parser parse, std::string help);
  /// A --help switch; parse_or_exit answers it.
  void add_help();

  /// Parses argv[1..] into the bound variables. Positional arguments are
  /// stored in `positional`, or rejected when it is null. Throws
  /// std::invalid_argument on an unknown or repeated flag, a missing,
  /// unexpected, malformed or out-of-bound value, or a stray argument.
  void parse(int argc, const char* const* argv,
             std::vector<std::string>* positional = nullptr);
  /// parse() for a program's main: a rejected command line prints
  /// "program: error" to stderr and exits with `status`; --help prints the
  /// help to stdout and exits 0.
  void parse_or_exit(int argc, const char* const* argv, int status,
                     std::vector<std::string>* positional = nullptr);

  /// True if the flag bound to `target` was on the command line.
  bool given(const void* target) const;

  /// "program - summary", then one line per row: flag, help (with the
  /// bound) and [default].
  void print_help(std::ostream& out) const;

 private:
  struct Row {
    std::string flag;  ///< "--name"
    std::string help;
    std::string value;  ///< placeholder: " N", " X", ...; "" for a switch
    std::string default_text;
    Parser set;
    const void* target = nullptr;
    bool given = false;
  };

  std::string program_;
  std::string summary_;
  std::vector<Row> rows_;
};

}  // namespace dfs::util
