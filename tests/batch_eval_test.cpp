// SoA batch evaluation: backend dispatch, the SampleBlock layout, and
// the scalar-vs-SIMD agreement contract.  The scalar backend must be
// bit-compatible with CostEvaluator::makespan; vector backends must be
// bit-identical on integer-valued workloads (every partial sum is exact)
// and within 1e-9 relative tolerance on fractional ones (reassociation).

#include "sim/batch_eval.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "graph/generators.hpp"
#include "rng/rng.hpp"
#include "sim/evaluator.hpp"
#include "sim/mapping.hpp"
#include "sim/platform.hpp"
#include "workload/paper_suite.hpp"

namespace match::sim {
namespace {

/// Integer-valued paper instance: every weight and shortest-path
/// distance is a (small) integer, so all backends must agree bitwise.
CostEvaluator paper_eval(std::size_t n, std::uint64_t seed,
                         workload::Instance& inst_out, Platform& plat_out) {
  rng::Rng rng(seed);
  workload::PaperParams params;
  params.n = n;
  inst_out = workload::make_paper_instance(params, rng);
  plat_out = inst_out.make_platform();
  return CostEvaluator(inst_out.tig, plat_out);
}

/// Fills a block with random permutations and returns the AoS copy.
std::vector<graph::NodeId> fill_random(SampleBlock& block, std::size_t n,
                                       std::size_t count, rng::Rng& rng) {
  block.reset(n, count);
  std::vector<graph::NodeId> rows(count * n);
  for (std::size_t i = 0; i < count; ++i) {
    const Mapping m = Mapping::random_permutation(n, rng);
    std::copy(m.assignment().begin(), m.assignment().end(),
              rows.begin() + static_cast<std::ptrdiff_t>(i * n));
    block.store_sample(i, std::span<const graph::NodeId>(rows.data() + i * n,
                                                         n));
  }
  return rows;
}

std::vector<EvalBackend> available_vector_backends() {
  std::vector<EvalBackend> v;
  for (EvalBackend b :
       {EvalBackend::kAvx2, EvalBackend::kAvx512, EvalBackend::kNeon}) {
    if (eval_backend_available(b)) v.push_back(b);
  }
  return v;
}

TEST(EvalBackend, NamesRoundTrip) {
  for (EvalBackend b : {EvalBackend::kAuto, EvalBackend::kScalar,
                        EvalBackend::kAvx2, EvalBackend::kAvx512,
                        EvalBackend::kNeon}) {
    EXPECT_EQ(parse_eval_backend(to_string(b)), b);
  }
  EXPECT_THROW(parse_eval_backend("sse9"), std::invalid_argument);
}

TEST(EvalBackend, ResolutionNeverReturnsAutoAndDegradesToScalar) {
  const EvalBackend best = resolve_eval_backend(EvalBackend::kAuto);
  EXPECT_NE(best, EvalBackend::kAuto);
  EXPECT_TRUE(eval_backend_available(best));
  // Every explicit request resolves to itself when available, kScalar
  // otherwise — never a third backend.
  for (EvalBackend b : {EvalBackend::kScalar, EvalBackend::kAvx2,
                        EvalBackend::kAvx512, EvalBackend::kNeon}) {
    const EvalBackend r = resolve_eval_backend(b);
    EXPECT_EQ(r, eval_backend_available(b) ? b : EvalBackend::kScalar);
  }
}

TEST(SampleBlock, StoreLoadRoundTripAndPadding) {
  rng::Rng rng(3);
  SampleBlock block(7, 11);  // deliberately not multiples of kLaneGroup
  EXPECT_EQ(block.num_tasks(), 7u);
  EXPECT_EQ(block.size(), 11u);
  EXPECT_EQ(block.lane_stride() % kLaneGroup, 0u);
  EXPECT_GE(block.lane_stride(), 11u);

  std::vector<graph::NodeId> in(7), out(7);
  for (std::size_t i = 0; i < 11; ++i) {
    for (auto& r : in) r = static_cast<graph::NodeId>(rng.below(7));
    block.store_sample(i, in);
    block.load_sample(i, out);
    EXPECT_EQ(in, out);
  }
  // Padding lanes stay resource 0, so whole-group SIMD gathers are safe.
  for (std::size_t t = 0; t < 7; ++t) {
    for (std::size_t l = 11; l < block.lane_stride(); ++l) {
      EXPECT_EQ(block.task_row(t)[l], 0u);
    }
  }
  EXPECT_THROW(block.reset(0, 4), std::invalid_argument);
  EXPECT_THROW(block.reset(4, 0), std::invalid_argument);
}

TEST(BatchEvaluator, ScalarBackendBitCompatibleWithPerSampleKernel) {
  workload::Instance inst;
  Platform plat;
  const CostEvaluator eval = paper_eval(12, 11, inst, plat);
  rng::Rng rng(4);
  SampleBlock block;
  const auto rows = fill_random(block, 12, 100, rng);

  BatchEvaluator scalar(eval, EvalBackend::kScalar);
  EXPECT_EQ(scalar.backend(), EvalBackend::kScalar);
  std::vector<double> out(100);
  scalar.evaluate(block, out);
  std::vector<double> scratch;
  for (std::size_t i = 0; i < 100; ++i) {
    const std::span<const graph::NodeId> row(rows.data() + i * 12, 12);
    EXPECT_EQ(out[i], eval.makespan(row, scratch)) << "sample " << i;
  }
}

TEST(BatchEvaluator, ForcedScalarIgnoresSimdAvailability) {
  workload::Instance inst;
  Platform plat;
  const CostEvaluator eval = paper_eval(8, 2, inst, plat);
  const BatchEvaluator forced(eval, EvalBackend::kScalar);
  EXPECT_EQ(forced.backend(), EvalBackend::kScalar);
  EXPECT_STREQ(forced.backend_name(), "scalar");

  // kAuto resolves to the process-wide best backend.
  const BatchEvaluator autod(eval);
  EXPECT_EQ(autod.backend(), resolve_eval_backend(EvalBackend::kAuto));
}

TEST(BatchEvaluator, VectorBackendsBitIdenticalOnIntegerWorkload) {
  workload::Instance inst;
  Platform plat;
  const CostEvaluator eval = paper_eval(24, 17, inst, plat);
  rng::Rng rng(5);
  SampleBlock block;
  fill_random(block, 24, 257, rng);  // odd count exercises the tail group

  BatchEvaluator scalar(eval, EvalBackend::kScalar);
  std::vector<double> ref(257), out(257);
  scalar.evaluate(block, ref);

  for (const EvalBackend b : available_vector_backends()) {
    const BatchEvaluator vec(eval, b);
    ASSERT_EQ(vec.backend(), b);
    std::fill(out.begin(), out.end(), -1.0);
    vec.evaluate(block, out);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], ref[i]) << to_string(b) << " sample " << i;
    }
  }
}

TEST(BatchEvaluator, VectorBackendsWithinToleranceOnFractionalWorkload) {
  // Geometric platforms carry fractional (distance-derived) link costs;
  // SIMD run accumulation reassociates, so agreement is to 1e-9 relative
  // tolerance — the same contract as the edge-streaming kernel vs the
  // per-task reference (see evaluator_test.cpp).
  rng::Rng rng(7);
  constexpr std::size_t kN = 32;
  const graph::Tig tig(
      graph::make_clustered(kN, 3, 0.7, 0.2, {1, 10}, {50, 100}, rng));
  const Platform plat(
      graph::ResourceGraph(graph::make_geometric(kN, 0.5, {1, 5}, 15.0, rng)),
      CommCostPolicy::kShortestPath);
  const CostEvaluator eval(tig, plat);

  SampleBlock block;
  fill_random(block, kN, 64, rng);
  BatchEvaluator scalar(eval, EvalBackend::kScalar);
  std::vector<double> ref(64), out(64);
  scalar.evaluate(block, ref);

  for (const EvalBackend b : available_vector_backends()) {
    const BatchEvaluator vec(eval, b);
    vec.evaluate(block, out);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_NEAR(out[i], ref[i], 1e-9 * std::max(1.0, ref[i]))
          << to_string(b) << " sample " << i;
    }
  }
}

TEST(BatchEvaluator, RectangularInstanceAllBackends) {
  // 20 tasks onto 6 resources (many-to-one), the general-mapper shape.
  rng::Rng rng(9);
  const graph::Tig tig(
      graph::make_clustered(20, 4, 0.6, 0.3, {1, 10}, {50, 100}, rng));
  const Platform plat(graph::ResourceGraph(
      graph::make_complete(6, {1, 5}, {1, 9}, rng)));
  const CostEvaluator eval(tig, plat);

  SampleBlock block(20, 50);
  std::vector<graph::NodeId> row(20);
  for (std::size_t i = 0; i < 50; ++i) {
    for (auto& r : row) r = static_cast<graph::NodeId>(rng.below(6));
    block.store_sample(i, row);
  }
  BatchEvaluator scalar(eval, EvalBackend::kScalar);
  std::vector<double> ref(50), out(50);
  scalar.evaluate(block, ref);
  for (const EvalBackend b : available_vector_backends()) {
    BatchEvaluator vec(eval, b);
    vec.evaluate(block, out);
    for (std::size_t i = 0; i < 50; ++i) {
      EXPECT_EQ(out[i], ref[i]) << to_string(b) << " sample " << i;
    }
  }
}

TEST(BatchEvaluator, RejectsMismatchedShapes) {
  workload::Instance inst;
  Platform plat;
  const CostEvaluator eval = paper_eval(8, 2, inst, plat);
  const BatchEvaluator be(eval, EvalBackend::kScalar);

  SampleBlock wrong_tasks(9, 4);
  std::vector<double> out(4);
  EXPECT_THROW(be.evaluate(wrong_tasks, out), std::invalid_argument);

  SampleBlock block(8, 4);
  std::vector<double> small_out(3);
  EXPECT_THROW(be.evaluate(block, small_out), std::invalid_argument);
}

TEST(BatchEvaluator, ChunkingDoesNotChangeResults) {
  // Determinism contract: forced tiny chunks (every boundary lands mid
  // lane-group) must reproduce the single-chunk result bit-for-bit on
  // every backend, scalar included.
  workload::Instance inst;
  Platform plat;
  const CostEvaluator eval = paper_eval(16, 31, inst, plat);
  rng::Rng rng(8);
  SampleBlock block;
  fill_random(block, 16, 103, rng);

  std::vector<double> serial(103), chunked(103);
  std::vector<EvalBackend> backends = {EvalBackend::kScalar};
  for (const EvalBackend b : available_vector_backends()) backends.push_back(b);
  for (const EvalBackend b : backends) {
    const BatchEvaluator be(eval, b);
    parallel::ForOptions one_chunk;
    one_chunk.serial_cutoff = 1 << 20;
    be.evaluate(block, serial, one_chunk);
    parallel::ForOptions tiny;
    tiny.serial_cutoff = 0;
    tiny.grain = 3;  // boundaries inside lane groups
    be.evaluate(block, chunked, tiny);
    for (std::size_t i = 0; i < 103; ++i) {
      EXPECT_EQ(serial[i], chunked[i]) << to_string(b) << " sample " << i;
    }
  }
}

}  // namespace
}  // namespace match::sim
