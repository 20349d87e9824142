#pragma once

#include <cstddef>
#include <vector>

namespace dfs::util {

/// Bounded-memory percentile accumulator for steady-state metrics.
///
/// Small samples (the paper-scale regime — hundreds to a few thousand jobs)
/// are kept exactly and queried through util::percentile, so summaries stay
/// byte-identical with the materialize-and-sort code this replaces. Past
/// `exact_limit` observations the exact buffer is released and queries fall
/// back to P-squared marker estimates (Jain & Chlamtac, CACM 1985) that were
/// fed every observation from the start: memory is then a handful of doubles
/// per tracked percentile no matter how many million samples arrive —
/// that's what lets the 10k-slave tier summarize ~1M task records without
/// holding them.
///
/// The tracked percentiles are fixed at construction; in the estimator
/// regime only those may be queried. The mean accumulates in arrival order,
/// matching util::summarize on the same sequence.
class StreamingQuantile {
 public:
  static constexpr std::size_t kDefaultExactLimit = 65536;

  /// `percentiles` in [0, 100], e.g. {50.0, 95.0, 99.0}.
  explicit StreamingQuantile(std::vector<double> percentiles,
                             std::size_t exact_limit = kDefaultExactLimit);

  void add(double x);

  std::size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Doubles the exact buffer holds room for (0 in the estimator regime).
  std::size_t exact_capacity() const { return exact_.capacity(); }

  /// Sum of observations / count, accumulated in arrival order (identical
  /// to util::summarize(xs).mean for the same sequence). 0 when empty.
  double mean() const;

  /// Percentile estimate; exact (linear-interpolated order statistic, the
  /// util::percentile definition) while at most `exact_limit` observations
  /// have arrived, P-squared beyond. `p` must then be one of the tracked
  /// percentiles. Asserts on an empty accumulator.
  double quantile(double p) const;

 private:
  /// One P-squared state: five markers straddling quantile `prob`.
  struct Markers {
    double prob = 0.5;   ///< quantile in [0, 1]
    double q[5] = {};    ///< marker heights
    double n[5] = {};    ///< actual marker positions (1-based)
    double np[5] = {};   ///< desired marker positions
    double dn[5] = {};   ///< desired-position increments

    void init(const double* first5_sorted);
    void add(double x);
    double estimate() const { return q[2]; }
  };

  std::size_t exact_limit_;
  std::size_t count_ = 0;
  double sum_ = 0.0;
  std::vector<double> exact_;    ///< kept while count_ <= exact_limit_
  std::vector<Markers> states_;  ///< one per tracked percentile
};

}  // namespace dfs::util
