#pragma once

// SoA batch evaluation of the paper's cost model (eqs. (1)-(2)) behind
// pluggable backends.
//
// `SampleBlock` holds N sample assignments as one contiguous
// N x num_tasks matrix in *transposed task-major* layout: lane i of task
// t lives at `task_row(t)[i]`.  One TIG edge's comm term is therefore
// evaluated across consecutive samples with unit-stride loads — the
// layout SIMD (and, later, GPU) kernels want.  `BatchEvaluator` owns the
// backend dispatch: `kScalar` is the reference kernel, bit-compatible
// with `CostEvaluator::makespan`; `kAvx2`/`kNeon` are vectorized kernels
// selected by a runtime feature probe (with `kAuto` picking the best
// available).  All backends produce bit-identical results on
// integer-valued workloads (every partial sum is exact); on fractional
// workloads the SIMD kernels reassociate, so agreement is to 1e-9
// relative tolerance (the same contract as the edge-streaming kernel vs
// the per-task reference — see tests/batch_eval_test.cpp).
//
// Determinism: results never depend on thread count or chunk boundaries.
// SIMD kernels process *globally aligned* lane groups of `kLaneGroup`
// samples; a chunk whose boundary falls inside a group evaluates the
// whole group and writes only its own lanes, so every lane's value is a
// function of the block alone.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/scratch.hpp"
#include "sim/evaluator.hpp"

namespace match::sim {

/// Which batch-evaluation kernel to run.
enum class EvalBackend {
  kAuto,     ///< best compiled-in backend the CPU supports
  kScalar,   ///< reference; bit-compatible with CostEvaluator::makespan
  kAvx2,     ///< x86-64 AVX2+FMA, 8 samples per step (two 4-wide vectors)
  kAvx512,   ///< x86-64 AVX-512F, 8 samples per step (one 8-wide vector)
  kNeon,     ///< AArch64 NEON, 8 samples per step (2-wide vectors)
};

/// Stable names ("auto", "scalar", "avx2", "avx512", "neon") for logs,
/// metrics and bench reports.
const char* to_string(EvalBackend backend);

/// Parses the names printed by `to_string`; throws
/// `std::invalid_argument` on unknown names (CLI / config surface).
EvalBackend parse_eval_backend(const std::string& name);

/// True when `backend` was compiled in *and* the running CPU supports it.
/// `kScalar` and `kAuto` are always available.
bool eval_backend_available(EvalBackend backend);

/// Resolves `kAuto` to the best available backend and any unavailable
/// explicit request to `kScalar` (portable configs degrade, never throw).
/// Never returns `kAuto`.
EvalBackend resolve_eval_backend(EvalBackend requested);

/// SIMD kernels consume samples in aligned groups of this many lanes;
/// `SampleBlock` pads its lane stride so whole groups are always
/// addressable.  Chunked loops may split anywhere — kernels re-align
/// internally — so this constant never leaks into calling code.
inline constexpr std::size_t kLaneGroup = 8;

/// N sample assignments in transposed task-major (structure-of-arrays)
/// layout.  The lane stride is padded to a multiple of `kLaneGroup` and
/// skewed off large power-of-two byte strides, so task rows do not all
/// collide on the same cache set when N is the usual 2n².  Padding lanes
/// are zero-filled (resource 0) at allocation, which keeps whole-group
/// SIMD loads in bounds and gather indices valid.
class SampleBlock {
 public:
  SampleBlock() = default;
  SampleBlock(std::size_t num_tasks, std::size_t count) {
    reset(num_tasks, count);
  }

  /// Sizes the block for `count` samples of `num_tasks` entries each.
  /// A reset to the same geometry keeps the existing storage (no
  /// allocation — the hot loops reset once and reuse every iteration).
  void reset(std::size_t num_tasks, std::size_t count);

  std::size_t num_tasks() const noexcept { return num_tasks_; }
  std::size_t size() const noexcept { return count_; }
  /// Distance in elements between lane i of task t and lane i of t + 1.
  std::size_t lane_stride() const noexcept { return stride_; }

  /// All lanes of task t; lane i of sample i is `task_row(t)[i]`.
  graph::NodeId* task_row(std::size_t t) noexcept {
    return data_.data() + t * stride_;
  }
  const graph::NodeId* task_row(std::size_t t) const noexcept {
    return data_.data() + t * stride_;
  }

  /// Scatters one contiguous assignment row into lane i.
  void store_sample(std::size_t i, std::span<const graph::NodeId> row);

  /// Gathers lane i back into a contiguous assignment row.
  void load_sample(std::size_t i, std::span<graph::NodeId> row) const;

 private:
  std::size_t num_tasks_ = 0;
  std::size_t count_ = 0;
  std::size_t stride_ = 0;
  std::vector<graph::NodeId> data_;
};

namespace detail {

/// Per-worker kernel scratch, pooled by BatchEvaluator.  Buffers are
/// sized on first use and fully overwritten per sample/group, so the
/// steady state is allocation-free and chunk→worker assignment cannot
/// perturb results.
struct EvalScratch {
  std::vector<graph::NodeId> row;  ///< one sample gathered contiguous
  std::vector<double> load;        ///< scalar kernel per-resource loads
  std::vector<double> lane_load;   ///< SIMD loads, nr x kLaneGroup
  std::vector<double> xbuf;        ///< per-edge comm terms, E x kLaneGroup
};

/// Precomputed edge-stream tables the vector kernels run on: the
/// evaluator's undirected edges re-sorted by `b`, each a-sorted edge's
/// slot in the b-sorted stream (`xpos`, the inverse permutation), and
/// the run boundaries of both sort orders (`a_off`/`b_off`, CSR-style:
/// run r spans [off[r], off[r+1]) and shares one endpoint).  Pass A
/// walks the a-sorted stream run by run, gathers each edge's comm term
/// once and spills it through `xpos` directly into its b-sorted slot of
/// `EvalScratch::xbuf`; pass B walks the b-sorted runs and re-reads the
/// terms *sequentially* — charging the b endpoints without a second
/// gather.  The permutation rides on the store side because stores
/// retire without stalling dependents, while permuted replay loads
/// would expose the full miss latency once xbuf outgrows L2.  Counted
/// run loops keep the hot inner loops free of the per-edge run-end
/// compare.
struct VectorEdgeTables {
  std::span<const UndirectedEdge> by_b;
  std::span<const std::uint32_t> xpos;
  std::span<const std::uint32_t> a_off;
  std::span<const std::uint32_t> b_off;
};

}  // namespace detail

/// The one batch-evaluation entry point: every TIG batch call site in
/// the library (the CE fused loop, the GA population, island epochs)
/// funnels through here.  Construction resolves the backend once —
/// against the feature probe and the evaluator's comm-matrix symmetry
/// (the vector kernels stream undirected edges, so an asymmetric matrix
/// pins the scalar path) — and `backend()` reports the resolved choice
/// for metrics/trace (`solver.backend.<name>`).
class BatchEvaluator {
 public:
  explicit BatchEvaluator(const CostEvaluator& eval,
                          EvalBackend backend = EvalBackend::kAuto);

  BatchEvaluator(const BatchEvaluator&) = delete;
  BatchEvaluator& operator=(const BatchEvaluator&) = delete;

  /// The resolved backend (never `kAuto`).
  EvalBackend backend() const noexcept { return backend_; }
  const char* backend_name() const noexcept { return to_string(backend_); }

  /// out[i] = makespan of sample i, for i in [0, block.size()).  Runs on
  /// the thread pool per `opts`; allocation-free once the per-worker
  /// scratch pool has warmed up.  Throws `std::invalid_argument` on a
  /// task-count mismatch or an undersized `out`.
  void evaluate(const SampleBlock& block, std::span<double> out,
                const parallel::ForOptions& opts = {}) const;

  const CostEvaluator& evaluator() const noexcept { return *eval_; }

 private:
  const CostEvaluator* eval_;
  EvalBackend backend_;
  /// Backing storage for `tables_` (built only for vector backends): the
  /// edge stream re-sorted by `b` and the stream-position permutation.
  /// The vector kernels charge the two endpoints of an edge in two
  /// separate run-accumulated passes — see detail::VectorEdgeTables —
  /// so nothing scatter-adds per edge.  Symmetry (c_{s,b} == c_{b,s}) is
  /// what lets one gathered comm term serve both endpoint charges; this
  /// is why an asymmetric comm matrix pins the scalar backend.
  std::vector<UndirectedEdge> edges_by_b_;
  std::vector<std::uint32_t> xpos_;
  std::vector<std::uint32_t> a_off_;
  std::vector<std::uint32_t> b_off_;
  detail::VectorEdgeTables tables_;
  mutable parallel::ScratchPool<detail::EvalScratch> scratch_;
};

namespace detail {

// Arch-specific kernels, each in its own translation unit so the AVX2
// one can be compiled with -mavx2 -mfma while the rest of the library
// stays at the baseline ISA.  Contract: evaluate the aligned lane groups
// covering [lo, hi) and write out[i] for i in [lo, hi) only, using the
// two-pass edge tables in `tables` and the pooled scratch.

bool avx2_kernel_compiled() noexcept;
bool avx2_cpu_supported() noexcept;
void batch_eval_avx2_range(const CostEvaluator& eval,
                           const VectorEdgeTables& tables,
                           const SampleBlock& block, std::size_t lo,
                           std::size_t hi, EvalScratch& scratch, double* out);

bool avx512_kernel_compiled() noexcept;
bool avx512_cpu_supported() noexcept;
void batch_eval_avx512_range(const CostEvaluator& eval,
                             const VectorEdgeTables& tables,
                             const SampleBlock& block, std::size_t lo,
                             std::size_t hi, EvalScratch& scratch,
                             double* out);

bool neon_kernel_compiled() noexcept;
void batch_eval_neon_range(const CostEvaluator& eval,
                           const VectorEdgeTables& tables,
                           const SampleBlock& block, std::size_t lo,
                           std::size_t hi, EvalScratch& scratch, double* out);

}  // namespace detail

}  // namespace match::sim
