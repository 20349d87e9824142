#include "dfs/core/admission.h"

#include <algorithm>
#include <stdexcept>

#include "dfs/util/args.h"

namespace dfs::core {

WeightedFairAdmission::WeightedFairAdmission(std::vector<double> weights)
    : weights_(std::move(weights)) {
  for (const double w : weights_) {
    if (!(w > 0.0)) {
      throw std::invalid_argument("admission weights must be > 0, got " +
                                  std::to_string(w));
    }
  }
}

double WeightedFairAdmission::weight(int tenant) const {
  const auto t = static_cast<std::size_t>(tenant);
  return t < weights_.size() ? weights_[t] : 1.0;
}

void WeightedFairAdmission::order(const SchedulerContext& ctx,
                                  std::vector<JobId>& jobs) const {
  usage_.clear();
  for (const JobId j : jobs) {
    const auto t = static_cast<std::size_t>(ctx.tenant_of(j));
    if (t >= usage_.size()) usage_.resize(t + 1, 0.0);
    usage_[t] += static_cast<double>(ctx.running_maps(j));
  }
  for (std::size_t t = 0; t < usage_.size(); ++t) {
    usage_[t] /= weight(static_cast<int>(t));
  }
  std::stable_sort(jobs.begin(), jobs.end(), [&](JobId a, JobId b) {
    return usage_[static_cast<std::size_t>(ctx.tenant_of(a))] <
           usage_[static_cast<std::size_t>(ctx.tenant_of(b))];
  });
}

std::unique_ptr<AdmissionPolicy> make_admission_policy(
    const std::string& spec) {
  if (spec.empty() || spec == "fifo") return std::make_unique<FifoAdmission>();
  if (spec == "fair") return std::make_unique<WeightedFairAdmission>();
  const std::string prefix = "fair:";
  if (spec.rfind(prefix, 0) == 0) {
    // Weights parse as strictly as any numeric flag; WeightedFairAdmission
    // rejects the non-positive ones.
    return std::make_unique<WeightedFairAdmission>(
        util::parse_double_list("--admission", spec.substr(prefix.size())));
  }
  throw std::invalid_argument("unknown admission policy: " + spec +
                              " (expected fifo | fair | fair:w0,w1,...)");
}

}  // namespace dfs::core
