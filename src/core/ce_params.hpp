#pragma once

// The knobs every batch-sampling solver shares, factored into one base.
//
// `MatchParams`, `GeneralMatchParams`, and `GaParams` each grew private
// copies of the same fields (elite fraction, smoothing, batch size,
// parallelism, quality target, sampler and evaluation backends), which
// meant the service layer had to thread three structs to configure one
// policy.  Embedding this base keeps every existing field name and
// default identical — call sites read `params.rho` exactly as before —
// while `ServiceConfig`/`SolverRegistry` thread a single
// `CeCommonParams` for all built-in solver adapters.
//
// Not every solver consumes every knob; each derived struct documents
// which fields it ignores (e.g. the GA keeps `population` as its batch
// size and ignores `rho`/`zeta`/`sample_size`/`sampler`).

#include <cstddef>
#include <stdexcept>
#include <string>

#include "core/genperm.hpp"
#include "sim/batch_eval.hpp"

namespace match::core {

struct CeCommonParams {
  /// Focus parameter ρ — fraction of each batch kept as the elite set.
  /// The paper recommends 0.01 ≤ ρ ≤ 0.1.
  double rho = 0.05;

  /// Smoothing factor ζ of eq. (13); the paper uses 0.3.  ζ = 1 disables
  /// smoothing (coarse update).
  double zeta = 0.3;

  /// Samples per iteration N; 0 selects each solver's auto rule
  /// (MaTCH: the paper's 2·n²; general mapper: 2·tasks·resources;
  /// DAG CE: max(64, 2·tasks)).
  std::size_t sample_size = 0;

  /// Evaluate/sample batches on the thread pool.
  bool parallel = true;

  /// Quality target: stop as soon as best-so-far ≤ this value (0 — the
  /// default — disables the check); the service layer uses it for "good
  /// enough, answer now" requests.
  double target_cost = 0.0;

  /// GenPerm draw backend.  `kAlias` (default) builds per-row alias
  /// tables once per iteration and rejection-samples each pick in O(1)
  /// expected — distributionally identical to the exact scan but
  /// ~O(n log n) instead of O(n²) per sample.  `kScan` is the legacy
  /// exact scan, bit-identical to pre-alias library versions for a
  /// fixed seed (see docs/ALGORITHMS.md).
  SamplerBackend sampler = SamplerBackend::kAlias;

  /// Batch-evaluation backend for the per-iteration cost pass.  `kAuto`
  /// (default) picks the best SIMD kernel the CPU supports; `kScalar`
  /// pins the reference kernel.  The resolved choice is reported via the
  /// `solver.backend.<name>` metric.  On integer-valued workloads (the
  /// paper's) every backend is bit-identical; on fractional ones SIMD
  /// sums reassociate — see sim/batch_eval.hpp.
  sim::EvalBackend eval_backend = sim::EvalBackend::kAuto;

  /// Range-checks the common fields.  `who` prefixes the error messages
  /// so each derived struct keeps its historical diagnostics
  /// (e.g. "MatchParams: rho must be in (0, 1)").
  void validate_common(const char* who) const {
    const std::string prefix = std::string(who) + ": ";
    if (!(rho > 0.0 && rho < 1.0)) {
      throw std::invalid_argument(prefix + "rho must be in (0, 1)");
    }
    if (!(zeta > 0.0 && zeta <= 1.0)) {
      throw std::invalid_argument(prefix + "zeta must be in (0, 1]");
    }
    if (target_cost < 0.0) {
      throw std::invalid_argument(prefix + "target_cost < 0");
    }
  }
};

/// The stop rules of the two stochastic-matrix mappers (`MatchParams`,
/// `GeneralMatchParams`), declared once.  Defaults are the paper's.
struct CeStopParams {
  /// The paper's `c`: iterations the per-row maxima must stay unchanged
  /// (eq. 12).
  std::size_t stability_window = 5;

  /// The paper's generic-CE stop (Fig. 2 step 4): iterations the elite
  /// threshold γ̂ must stay unchanged.  Needed because eq. (12) alone
  /// cannot fire on instances with several optimal mappings, where P
  /// legitimately converges to a mixture over optima and the row maxima
  /// keep fluctuating (see DESIGN.md §3).
  std::size_t gamma_stall_window = 10;

  /// Tolerance for "unchanged" in both stability checks (the paper
  /// compares floats for equality; see DESIGN.md).
  double stability_eps = 1e-6;

  /// ε for the degeneracy early-out: stop once every row max ≥ 1 − ε.
  double degeneracy_eps = 1e-3;

  /// Hard iteration cap.
  std::size_t max_iterations = 1000;

  /// Throws `std::invalid_argument` (prefixed with `who`) when a field is
  /// out of range.
  void validate_stop(const char* who) const {
    const std::string prefix = std::string(who) + ": ";
    if (stability_window == 0 || gamma_stall_window == 0) {
      throw std::invalid_argument(prefix + "stop windows must be >= 1");
    }
    if (stability_eps < 0.0 || degeneracy_eps <= 0.0) {
      throw std::invalid_argument(prefix + "bad epsilon");
    }
    if (max_iterations == 0) {
      throw std::invalid_argument(prefix + "max_iterations must be >= 1");
    }
  }
};

}  // namespace match::core
