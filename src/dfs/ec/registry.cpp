#include "dfs/ec/registry.h"

#include <stdexcept>
#include <vector>

#include "dfs/ec/cauchy.h"
#include "dfs/ec/hitchhiker.h"
#include "dfs/ec/lrc.h"
#include "dfs/ec/reed_solomon.h"
#include "dfs/ec/wide_rs.h"
#include "dfs/util/args.h"

namespace dfs::ec {

std::shared_ptr<ErasureCode> make_code_from_spec(const std::string& spec) {
  const auto colon = spec.find(':');
  const std::string family = spec.substr(0, colon);
  const std::vector<std::string> raw =
      colon == std::string::npos
          ? std::vector<std::string>{}
          : util::split(spec.substr(colon + 1), ',');
  std::vector<int> params;
  params.reserve(raw.size());
  for (const std::string& p : raw) {
    try {
      params.push_back(util::parse_number<int>("", p));
    } catch (const std::invalid_argument&) {
      return nullptr;  // not a whole decimal int: malformed spec
    }
  }
  const auto num = [&](std::size_t i) { return params[i]; };
  if (family == "rs" && params.size() == 2) {
    return make_reed_solomon(num(0), num(1));
  }
  if (family == "rs16" && params.size() == 2) {
    return make_wide_reed_solomon(num(0), num(1));
  }
  if (family == "crs" && params.size() == 2) {
    return make_cauchy_reed_solomon(num(0), num(1));
  }
  if (family == "lrc" && params.size() == 3) {
    return make_lrc(num(0), num(1), num(2));
  }
  if (family == "hh" && params.size() == 2) {
    return make_hitchhiker_xor(num(0), num(1));
  }
  if (family == "xor" && params.size() == 1) {
    return make_single_parity(num(0));
  }
  if (family == "rep" && params.size() == 1) {
    return make_replication(num(0));
  }
  return nullptr;
}

const char* code_spec_help() {
  return "rs:n,k | rs16:n,k | crs:n,k | lrc:k,l,r | hh:n,k | xor:k | rep:r";
}

util::FlagTable::Parser code_flag(std::shared_ptr<ErasureCode>& code) {
  return [&code](const std::string& flag, const std::string& spec) {
    try {
      code = make_code_from_spec(spec);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("bad " + flag + " parameters: " + e.what());
    }
    if (!code) {
      throw std::invalid_argument("bad " + flag + " spec (" +
                                  code_spec_help() + ")");
    }
  };
}

}  // namespace dfs::ec
