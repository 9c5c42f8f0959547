// Extension bench: the generic CE framework of the paper's §3 applied to
// max-cut, Rubinstein's original CE showcase.  Demonstrates that the
// library's CE core is problem-agnostic, and sanity-checks quality
// against (a) the exact optimum on small graphs and (b) random sampling
// on larger ones.

#include <cstdio>
#include <cstring>
#include <iostream>
#include <vector>

#include "core/ce_driver.hpp"
#include "core/maxcut.hpp"
#include "graph/generators.hpp"
#include "io/table.hpp"

int main(int argc, char** argv) {
  using match::io::Table;

  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--full") == 0) {
      // default
    } else {
      std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
      return 2;
    }
  }

  std::cout << "== Extension: cross-entropy max-cut (generic CE driver) ==\n\n";

  // Part 1: exact-optimum recovery on small graphs.
  Table exact({"graph", "nodes", "edges", "CE cut", "optimal cut", "found"});
  bool all_exact = true;
  {
    match::rng::Rng graph_rng(31);
    const std::size_t trials = quick ? 2 : 5;
    for (std::size_t t = 0; t < trials; ++t) {
      const auto g =
          match::graph::make_gnp(14, 0.4, {1, 1}, {1, 9}, graph_rng);
      const double optimum = match::core::MaxCutProblem::brute_force_max_cut(g);

      // Best of three independent CE restarts — the standard way to run a
      // randomized heuristic when exact recovery is the goal.
      double ce_cut = 0.0;
      for (std::uint64_t restart = 0; restart < 3; ++restart) {
        match::core::MaxCutProblem problem(g);
        match::core::CeDriverParams params;
        params.sample_size = 400;
        match::rng::Rng rng(100 + 17 * t + restart);
        const auto r = match::core::run_ce(problem, params, match::SolverContext(rng));
        ce_cut = std::max(ce_cut, -r.best_cost);
      }
      const bool found = std::abs(ce_cut - optimum) < 1e-9;
      all_exact &= found;
      exact.add_row({"gnp-14-" + std::to_string(t), "14",
                     std::to_string(g.num_edges()), Table::num(ce_cut, 6),
                     Table::num(optimum, 6), found ? "yes" : "NO"});
    }
  }
  exact.print(std::cout);

  // Part 2: larger graphs, CE vs uniform random sampling at equal budget.
  std::cout << "\n-- larger graphs: CE vs random sampling (equal sample "
               "budget) --\n";
  Table large({"graph", "nodes", "CE cut", "random-best cut", "CE/random"});
  bool ce_wins = true;
  {
    match::rng::Rng graph_rng(32);
    const std::size_t sizes[] = {40, 80};
    for (const std::size_t n : sizes) {
      const auto g = match::graph::make_gnp(n, 0.2, {1, 1}, {1, 9}, graph_rng);

      match::core::MaxCutProblem problem(g);
      match::core::CeDriverParams params;
      params.sample_size = quick ? 200 : 500;
      params.max_iterations = quick ? 60 : 200;
      match::rng::Rng rng(7);
      const auto r = match::core::run_ce(problem, params, match::SolverContext(rng));
      const double ce_cut = -r.best_cost;
      const std::size_t ce_budget = r.iterations * params.sample_size;

      match::core::MaxCutProblem sampler(g);
      match::rng::Rng rrng(7);
      std::vector<match::graph::NodeId> sides(n);
      double random_best = 0.0;
      for (std::size_t k = 0; k < ce_budget; ++k) {
        sampler.draw(sides, rrng);
        random_best = std::max(random_best, sampler.cut_weight(sides));
      }
      ce_wins &= ce_cut >= random_best;
      large.add_row({"gnp-" + std::to_string(n), std::to_string(n),
                     Table::num(ce_cut, 6), Table::num(random_best, 6),
                     Table::num(ce_cut / random_best, 4)});
    }
  }
  large.print(std::cout);

  std::cout << "\nshape-check: CE recovers every small-graph optimum: "
            << (all_exact ? "yes" : "NO") << "\n";
  std::cout << "shape-check: CE beats equal-budget random sampling: "
            << (ce_wins ? "yes" : "NO") << "\n";
  return (all_exact && ce_wins) ? 0 : 1;
}
