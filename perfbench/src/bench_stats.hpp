#pragma once

// The benchmark's own arithmetic: the percentile rule, the cost-ratio
// geometric mean, failure accounting, and number formatting.  Kept
// header-only and free of library types so selftest.cpp can pin each
// rule on hand-checked inputs.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// One latency percentile by the nearest-rank rule: the value at sorted
/// position ceil(q·n) (1-based).  `beyond` counts the samples strictly
/// after that rank; a percentile is reported only when beyond >= 10.
struct Percentile {
  double value = 0.0;
  std::size_t count = 0;   ///< samples the percentile was taken over
  std::size_t beyond = 0;  ///< samples ranked after it
  bool supported() const { return beyond >= kMinBeyond; }
  static constexpr std::size_t kMinBeyond = 10;
};

/// Samples needed before the q-percentile leaves kMinBeyond samples
/// beyond it.
inline std::size_t samples_needed(double q) {
  for (std::size_t n = 1;; ++n) {
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    if (n - rank >= Percentile::kMinBeyond) return n;
  }
}

/// `sorted` must be ascending and non-empty; q in (0, 1).
inline Percentile percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) throw std::invalid_argument("percentile of no samples");
  if (!(q > 0.0 && q < 1.0)) throw std::invalid_argument("percentile q");
  const std::size_t n = sorted.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return {sorted[rank - 1], n, n - rank};
}

/// Geometric mean of returned / baseline makespans.  Every value must
/// be finite and positive.
inline double cost_ratio_geomean(const std::vector<double>& returned,
                                 const std::vector<double>& baseline) {
  if (returned.empty() || returned.size() != baseline.size()) {
    throw std::invalid_argument("cost ratio: mismatched or empty inputs");
  }
  double log_sum = 0.0;
  for (std::size_t i = 0; i < returned.size(); ++i) {
    if (!(returned[i] > 0.0) || !(baseline[i] > 0.0) ||
        !std::isfinite(returned[i]) || !std::isfinite(baseline[i])) {
      throw std::invalid_argument("cost ratio: non-positive makespan");
    }
    log_sum += std::log(returned[i] / baseline[i]);
  }
  return std::exp(log_sum / static_cast<double>(returned.size()));
}

/// Outcome accounting of one phase.  A logical request ends in exactly
/// one of ok / refused / errored; an ok answer that fails its check
/// moves to `wrong`.  A retry after kUnknownInstance is part of the
/// same logical request, so it is counted but never a failure.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;       ///< answered kOk (before checks)
  std::uint64_t refused = 0;  ///< kShed / kRejectedDeadline
  std::uint64_t errored = 0;  ///< any other status, or a transport error
  std::uint64_t wrong = 0;    ///< answered kOk but failed an answer check
  std::uint64_t retries = 0;  ///< kUnknownInstance re-sends

  std::uint64_t failed() const { return refused + errored + wrong; }
  std::uint64_t verified_ok() const { return ok - wrong; }
  double failed_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed()) /
                                static_cast<double>(attempted);
  }
  Tally& operator+=(const Tally& o) {
    attempted += o.attempted;
    ok += o.ok;
    refused += o.refused;
    errored += o.errored;
    wrong += o.wrong;
    retries += o.retries;
    return *this;
  }
};

/// Human-readable number with at least three significant digits and no
/// exponent for values a table shows (56351 prints as "56351").
inline std::string fmt_num(double x) {
  char buf[64];
  if (std::isfinite(x) && std::fabs(x) >= 1000.0) {
    std::snprintf(buf, sizeof(buf), "%.0f", x);
  } else {
    std::snprintf(buf, sizeof(buf), "%.4g", x);
  }
  return buf;
}

/// Exact decimal form of a double for the JSON result (round-trips).
inline std::string fmt_exact(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

}  // namespace perfbench
