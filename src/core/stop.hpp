#pragma once

// The library-wide cooperative-cancellation hook.
//
// Historically every solver declared its own copy of this typedef
// (`core::MatchOptimizer::StopFn`, `baselines::GaOptimizer::StopFn`,
// `service::StopFn`); they were all the same `std::function<bool()>`
// with the same contract, so they now alias the single `match::StopFn`
// defined here.
//
// Contract: the hook is polled at iteration granularity (once per CE
// iteration / GA generation / island epoch / local-search restart).
// Returning true stops the run at the next iteration boundary, and the
// solver reports its best-so-far solution — always a valid complete
// sample, never a partial one.  When the hook fires before the first
// batch completes, solvers evaluate a single fallback draw so the
// contract holds (see docs/OBSERVABILITY.md on the `fallback_draw`
// event).

#include <functional>

namespace match {

using StopFn = std::function<bool()>;

}  // namespace match
