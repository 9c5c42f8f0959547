#pragma once

#include <ostream>

namespace perfbench {

/// Checks the benchmark's own logic: the percentile rule and its sample
/// count, the cost-ratio geometric mean, failure accounting (retries
/// included), and request-stream determinism per seed.  Writes one line
/// per failed check to `log`; returns true when all pass.
bool run_self_tests(std::ostream& log);

}  // namespace perfbench
