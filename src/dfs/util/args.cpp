#include "dfs/util/args.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>
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
    const auto eq = arg.find('=');
    const bool inline_value = eq != std::string::npos;
    Flag flag{arg.substr(2, inline_value ? eq - 2 : eq),
              inline_value ? arg.substr(eq + 1) : "", inline_value};
    // Consume the next token as the value unless it looks like a flag.
    if (!inline_value && i + 1 < argc &&
        std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flag.value = argv[++i];
      flag.has_value = true;
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

namespace {

template <typename T>
std::string to_text(T x) {
  std::ostringstream os;
  os << x;
  return os.str();
}

/// Target of the --help row, which no variable backs.
constexpr char kHelp = 0;

template <typename T>
T check(const std::string& flag, T x, const Bound& b) {
  if (b.holds && !b.holds(static_cast<double>(x))) {
    throw std::invalid_argument(flag + " must be " + b.text);
  }
  return x;
}

}  // namespace

Bound at_least(double lo) {
  return {">= " + to_text(lo), [lo](double x) { return x >= lo; }, {}};
}
Bound above(double lo) {
  return {"> " + to_text(lo), [lo](double x) { return x > lo; }, {}};
}
Bound in_range(double lo, double hi) {
  return {"in [" + to_text(lo) + ", " + to_text(hi) + "]",
          [=](double x) { return x >= lo && x <= hi; }, {}};
}
Bound in_half_open(double lo, double hi) {
  return {"in [" + to_text(lo) + ", " + to_text(hi) + ")",
          [=](double x) { return x >= lo && x < hi; }, {}};
}
Bound one_of(std::vector<std::string> words) {
  std::string text;
  for (const std::string& w : words) text += (text.empty() ? "" : " | ") + w;
  return {text, nullptr, std::move(words)};
}

FlagTable::FlagTable(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {}

void FlagTable::add(const std::string& name, Target target, std::string help,
                    Bound b) {
  if (!b.text.empty()) help += " (" + b.text + ")";
  Row row{"--" + name, std::move(help), " STR", "", {}};
  std::visit(
      [&row, &b](auto* p) {
        using T = std::decay_t<decltype(*p)>;
        using Text = const std::string&;
        row.target = p;
        if constexpr (std::is_same_v<T, bool>) {
          row.value = "";
          row.set = [p](Text, Text) { *p = true; };
        } else if constexpr (std::is_arithmetic_v<T>) {
          row.value = std::is_integral_v<T> ? " N" : " X";
          row.default_text = to_text(*p);
          row.set = [p, b](Text flag, Text v) {
            *p = check(flag, parse_number<T>(flag, v), b);
          };
        } else if constexpr (std::is_same_v<T, std::vector<double>>) {
          row.value = " X,..";
          for (double x : *p) row.default_text += "," + to_text(x);
          row.default_text.erase(0, 1);
          row.set = [p, b](Text flag, Text v) {
            *p = parse_double_list(flag, v);
            for (double x : *p) check(flag, x, b);
          };
        } else {
          if constexpr (std::is_same_v<T, std::string>) row.default_text = *p;
          row.set = [p, b](Text flag, Text v) {
            const auto& w = b.words;
            if (!w.empty() && std::count(w.begin(), w.end(), v) == 0) {
              throw std::invalid_argument("unknown " + flag + " " + v);
            }
            *p = v;
          };
        }
      },
      target);
  rows_.push_back(std::move(row));
}

void FlagTable::add(const std::string& name, const std::string& default_text,
                    Parser parse, std::string help) {
  parse("--" + name, default_text);
  rows_.push_back(
      {"--" + name, std::move(help), " SPEC", default_text, std::move(parse)});
}

void FlagTable::add_help() {
  rows_.push_back({"--help", "print this help", "", "",
                   [](const std::string&, const std::string&) {}, &kHelp});
}

void FlagTable::parse(int argc, const char* const* argv,
                      std::vector<std::string>* positional) {
  const Args args(argc, argv);
  if (!args.positional_.empty()) {
    if (positional == nullptr) {
      throw std::invalid_argument("unexpected argument '" +
                                  args.positional_.front() + "'");
    }
    *positional = args.positional_;
  }
  for (const Args::Flag& a : args.flags_) {
    const std::string flag = "--" + a.name;
    const auto row = std::find_if(rows_.begin(), rows_.end(),
                                  [&](const Row& r) { return r.flag == flag; });
    if (row == rows_.end()) throw std::invalid_argument("unknown flag " + flag);
    if (row->given) throw std::invalid_argument(flag + " given twice");
    if (a.has_value == row->value.empty()) {
      throw std::invalid_argument(flag + (a.has_value ? " takes no value"
                                                      : " needs a value"));
    }
    row->given = true;
    row->set(flag, a.value);
  }
}

void FlagTable::parse_or_exit(int argc, const char* const* argv, int status,
                              std::vector<std::string>* positional) {
  try {
    parse(argc, argv, positional);
  } catch (const std::invalid_argument& e) {
    std::cerr << program_ << ": " << e.what() << '\n';
    std::exit(status);
  }
  if (given(&kHelp)) {
    print_help(std::cout);
    std::exit(0);
  }
}

bool FlagTable::given(const void* target) const {
  return std::any_of(rows_.begin(), rows_.end(), [&](const Row& r) {
    return r.given && r.target == target;
  });
}

void FlagTable::print_help(std::ostream& out) const {
  out << program_ << " - " << summary_ << '\n';
  for (const Row& r : rows_) {
    out << std::left << std::setw(28) << "  " + r.flag + r.value << ' '
        << r.help;
    if (!r.default_text.empty()) out << " [" << r.default_text << ']';
    out << '\n';
  }
}

}  // namespace dfs::util
