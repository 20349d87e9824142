#include "dfs/runner/jobs_flag.h"

#include <stdexcept>

#include "dfs/runner/thread_pool.h"

namespace dfs::runner {

std::optional<int> parse_jobs(const std::string& text) {
  try {
    const int value = util::parse_number<int>("--jobs", text);
    if (value >= 1) return value;
  } catch (const std::invalid_argument&) {
  }
  return std::nullopt;
}

std::optional<int> jobs_from_args(const util::Args& args) {
  const auto raw = args.get("jobs");
  if (!raw) {
    // "--jobs" with no value is a user error, not a request for the default.
    if (args.has("jobs")) return std::nullopt;
    return default_jobs();
  }
  return parse_jobs(*raw);
}

}  // namespace dfs::runner
