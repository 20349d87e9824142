#include "dfs/mapreduce/speed_model.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "dfs/util/args.h"
#include "dfs/util/rng.h"

namespace dfs::mapreduce {

namespace {

double parse_positive(const std::string& piece, const char* what) {
  const double v = util::parse_number<double>("--speed-profile", piece);
  if (v <= 0.0) {
    throw std::invalid_argument(std::string(what) + " must be > 0, got " +
                                piece);
  }
  return v;
}

}  // namespace

SpeedModel SpeedModel::parse(const std::string& spec) {
  SpeedModel model;
  if (spec.empty() || spec == "uniform") return model;
  if (spec.rfind("bimodal:", 0) == 0) {
    const auto pieces = util::split(spec.substr(8), ',');
    if (pieces.size() < 2 || pieces.size() > 3) {
      throw std::invalid_argument(
          "bimodal speed profile needs FRAC,SLOWDOWN[,SEED]: " + spec);
    }
    model.profile = Profile::kBimodal;
    model.slow_fraction =
        util::parse_number<double>("--speed-profile", pieces[0]);
    if (model.slow_fraction < 0.0 || model.slow_fraction > 1.0) {
      throw std::invalid_argument("slow-node fraction must be in [0, 1]: " +
                                  pieces[0]);
    }
    model.slowdown = parse_positive(pieces[1], "speed slowdown factor");
    if (pieces.size() == 3) {
      model.seed = util::parse_number<std::uint64_t>("--speed-profile",
                                                     pieces[2]);
    }
    return model;
  }
  if (spec.rfind("vector:", 0) == 0) {
    model.profile = Profile::kExplicit;
    for (const std::string& piece : util::split(spec.substr(7), ',')) {
      model.factors.push_back(parse_positive(piece, "speed factor"));
    }
    if (model.factors.empty()) {
      throw std::invalid_argument("explicit speed profile lists no factors");
    }
    return model;
  }
  throw std::invalid_argument("unknown speed profile: " + spec);
}

std::vector<double> SpeedModel::materialize(int num_nodes) const {
  std::vector<double> scale;
  switch (profile) {
    case Profile::kUniform:
      return scale;  // empty == all 1.0, the inert representation
    case Profile::kBimodal: {
      scale.assign(static_cast<std::size_t>(num_nodes), 1.0);
      const long total = num_nodes;
      const long count =
          std::lround(slow_fraction * static_cast<double>(total));
      for (long n = 0; n < total; ++n) {
        // Same integer ramp as StragglerConfig::is_straggler: slow nodes
        // spread evenly across the cluster (and thus across racks).
        if ((n + 1) * count / total > n * count / total) {
          scale[static_cast<std::size_t>(n)] = slowdown;
        }
      }
      if (seed != 0) {
        // Deal the ramp's factors to random nodes instead. A private Rng
        // keeps this off the simulation streams: two runs differing only in
        // the speed seed see identical workload/arrival draws.
        util::Rng rng(seed);
        rng.shuffle(scale);
      }
      return scale;
    }
    case Profile::kExplicit: {
      scale.reserve(static_cast<std::size_t>(num_nodes));
      for (int n = 0; n < num_nodes; ++n) {
        scale.push_back(factors[static_cast<std::size_t>(n) % factors.size()]);
      }
      return scale;
    }
  }
  return scale;
}

std::string SpeedModel::describe() const {
  std::ostringstream os;
  switch (profile) {
    case Profile::kUniform:
      return "uniform";
    case Profile::kBimodal:
      os << "bimodal:" << slow_fraction << ',' << slowdown;
      if (seed != 0) os << ',' << seed;
      return os.str();
    case Profile::kExplicit: {
      os << "vector:";
      for (std::size_t i = 0; i < factors.size(); ++i) {
        if (i > 0) os << ',';
        os << factors[i];
      }
      return os.str();
    }
  }
  return "uniform";
}

}  // namespace dfs::mapreduce
