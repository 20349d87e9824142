#include "dfs/util/streaming_quantile.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "dfs/util/stats.h"

namespace dfs::util {

StreamingQuantile::StreamingQuantile(std::vector<double> percentiles,
                                     std::size_t exact_limit)
    : exact_limit_(std::max<std::size_t>(exact_limit, 5)) {
  states_.reserve(percentiles.size());
  for (const double p : percentiles) {
    assert(p >= 0.0 && p <= 100.0);
    Markers m;
    m.prob = p / 100.0;
    states_.push_back(m);
  }
}

void StreamingQuantile::Markers::init(const double* first5_sorted) {
  for (int i = 0; i < 5; ++i) {
    q[i] = first5_sorted[i];
    n[i] = static_cast<double>(i + 1);
  }
  np[0] = 1.0;
  np[1] = 1.0 + 2.0 * prob;
  np[2] = 1.0 + 4.0 * prob;
  np[3] = 3.0 + 2.0 * prob;
  np[4] = 5.0;
  dn[0] = 0.0;
  dn[1] = prob / 2.0;
  dn[2] = prob;
  dn[3] = (1.0 + prob) / 2.0;
  dn[4] = 1.0;
}

void StreamingQuantile::Markers::add(double x) {
  // Locate the cell and clamp the extreme markers.
  int k;
  if (x < q[0]) {
    q[0] = x;
    k = 0;
  } else if (x < q[1]) {
    k = 0;
  } else if (x < q[2]) {
    k = 1;
  } else if (x < q[3]) {
    k = 2;
  } else if (x <= q[4]) {
    k = 3;
  } else {
    q[4] = x;
    k = 3;
  }
  for (int i = k + 1; i < 5; ++i) n[i] += 1.0;
  for (int i = 0; i < 5; ++i) np[i] += dn[i];

  // Nudge the interior markers toward their desired positions, parabolic
  // (P-squared) when the neighbour gap allows, linear otherwise.
  for (int i = 1; i <= 3; ++i) {
    const double d = np[i] - n[i];
    if ((d >= 1.0 && n[i + 1] - n[i] > 1.0) ||
        (d <= -1.0 && n[i - 1] - n[i] < -1.0)) {
      const double s = d >= 1.0 ? 1.0 : -1.0;
      const double parabolic =
          q[i] + s / (n[i + 1] - n[i - 1]) *
                     ((n[i] - n[i - 1] + s) * (q[i + 1] - q[i]) /
                          (n[i + 1] - n[i]) +
                      (n[i + 1] - n[i] - s) * (q[i] - q[i - 1]) /
                          (n[i] - n[i - 1]));
      if (q[i - 1] < parabolic && parabolic < q[i + 1]) {
        q[i] = parabolic;
      } else {
        // Linear fallback keeps the marker heights monotone.
        const int j = i + static_cast<int>(s);
        q[i] += s * (q[j] - q[i]) / (n[j] - n[i]);
      }
      n[i] += s;
    }
  }
}

void StreamingQuantile::add(double x) {
  ++count_;
  sum_ += x;
  if (count_ <= exact_limit_) {
    exact_.push_back(x);
  } else if (!exact_.empty()) {
    // Crossed into the estimator regime: release the buffer. A fresh vector,
    // not `= {}`, which clears but keeps the capacity.
    exact_ = std::vector<double>();
  }
  if (count_ < 5) return;
  if (count_ == 5) {
    double first5[5];
    std::copy_n(exact_.begin(), 5, first5);
    std::sort(first5, first5 + 5);
    for (Markers& m : states_) m.init(first5);
    return;
  }
  for (Markers& m : states_) m.add(x);
}

double StreamingQuantile::mean() const {
  return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
}

double StreamingQuantile::quantile(double p) const {
  assert(count_ > 0);
  if (count_ <= exact_limit_) return percentile(exact_, p);
  for (const Markers& m : states_) {
    if (m.prob == p / 100.0) return m.estimate();
  }
  assert(false && "untracked percentile queried in estimator regime");
  return 0.0;
}

}  // namespace dfs::util
