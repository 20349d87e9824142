#pragma once

#include <optional>
#include <string>

#include "dfs/util/args.h"

namespace dfs::runner {

/// Strictly parse a `--jobs` value with util::parse_number: value >= 1.
/// Returns nullopt for 0, negative, empty, overflowing, or non-numeric
/// input — the same reject-don't-coerce rule as every other numeric flag.
std::optional<int> parse_jobs(const std::string& text);

/// Resolve `--jobs` from parsed Args.
///   absent          -> default_jobs() (every hardware thread)
///   valid value     -> that value
///   anything else   -> nullopt; the caller should reject the invocation
///                      with "--jobs must be a positive integer".
std::optional<int> jobs_from_args(const util::Args& args);

/// Shared usage-error text for a bad --jobs value.
inline const char* jobs_error() { return "--jobs must be a positive integer"; }

}  // namespace dfs::runner
