#include "sim/batch_eval.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <stdexcept>

namespace match::sim {

const char* to_string(EvalBackend backend) {
  switch (backend) {
    case EvalBackend::kAuto:
      return "auto";
    case EvalBackend::kScalar:
      return "scalar";
    case EvalBackend::kAvx2:
      return "avx2";
    case EvalBackend::kAvx512:
      return "avx512";
    case EvalBackend::kNeon:
      return "neon";
  }
  return "unknown";
}

EvalBackend parse_eval_backend(const std::string& name) {
  if (name == "auto") return EvalBackend::kAuto;
  if (name == "scalar") return EvalBackend::kScalar;
  if (name == "avx2") return EvalBackend::kAvx2;
  if (name == "avx512") return EvalBackend::kAvx512;
  if (name == "neon") return EvalBackend::kNeon;
  throw std::invalid_argument("parse_eval_backend: unknown backend '" + name +
                              "' (auto|scalar|avx2|avx512|neon)");
}

bool eval_backend_available(EvalBackend backend) {
  switch (backend) {
    case EvalBackend::kAuto:
    case EvalBackend::kScalar:
      return true;
    case EvalBackend::kAvx2:
      return detail::avx2_kernel_compiled() && detail::avx2_cpu_supported();
    case EvalBackend::kAvx512:
      return detail::avx512_kernel_compiled() &&
             detail::avx512_cpu_supported();
    case EvalBackend::kNeon:
      return detail::neon_kernel_compiled();
  }
  return false;
}

EvalBackend resolve_eval_backend(EvalBackend requested) {
  if (requested == EvalBackend::kAuto) {
    if (eval_backend_available(EvalBackend::kAvx512)) {
      return EvalBackend::kAvx512;
    }
    if (eval_backend_available(EvalBackend::kAvx2)) return EvalBackend::kAvx2;
    if (eval_backend_available(EvalBackend::kNeon)) return EvalBackend::kNeon;
    return EvalBackend::kScalar;
  }
  // An explicitly requested but unavailable backend degrades to the
  // reference kernel, so one config runs everywhere (CI machines without
  // AVX2 included); `backend()` reports the effective choice.
  return eval_backend_available(requested) ? requested : EvalBackend::kScalar;
}

void SampleBlock::reset(std::size_t num_tasks, std::size_t count) {
  if (num_tasks == 0 || count == 0) {
    throw std::invalid_argument("SampleBlock: empty geometry");
  }
  if (num_tasks == num_tasks_ && count == count_) return;
  num_tasks_ = num_tasks;
  count_ = count;
  // Pad to whole lane groups so SIMD kernels can always load a full
  // group, then skew page-multiple strides: at the usual N = 2n² the
  // natural stride is a large power of two and every task row would map
  // to the same cache set, turning both the strided stores and the
  // kernel's cross-row reads into conflict-miss storms.
  stride_ = (count + kLaneGroup - 1) / kLaneGroup * kLaneGroup;
  if (stride_ * sizeof(graph::NodeId) % 4096 == 0) stride_ += 2 * kLaneGroup;
  // Zero-fill: padding lanes hold resource 0 forever (store_sample never
  // touches them), so whole-group gathers stay within the comm matrix.
  data_.assign(num_tasks_ * stride_, 0);
}

void SampleBlock::store_sample(std::size_t i,
                               std::span<const graph::NodeId> row) {
  assert(i < count_ && row.size() == num_tasks_);
  graph::NodeId* base = data_.data() + i;
  for (std::size_t t = 0; t < num_tasks_; ++t) base[t * stride_] = row[t];
}

void SampleBlock::load_sample(std::size_t i,
                              std::span<graph::NodeId> row) const {
  assert(i < count_ && row.size() == num_tasks_);
  const graph::NodeId* base = data_.data() + i;
  for (std::size_t t = 0; t < num_tasks_; ++t) row[t] = base[t * stride_];
}

namespace {

/// Reference path: gather each lane into a contiguous row and run the
/// exact per-sample kernel — bit-compatible with CostEvaluator::makespan
/// by construction.  Consecutive lanes share cache lines in every task
/// row, so the strided gather amortizes across the chunk.
void scalar_range(const CostEvaluator& eval, const SampleBlock& block,
                  std::size_t lo, std::size_t hi, detail::EvalScratch& scratch,
                  double* out) {
  const std::size_t n = block.num_tasks();
  scratch.row.resize(n);
  for (std::size_t i = lo; i < hi; ++i) {
    block.load_sample(i, scratch.row);
    out[i] = eval.makespan(std::span<const graph::NodeId>(scratch.row),
                           scratch.load);
  }
}

}  // namespace

BatchEvaluator::BatchEvaluator(const CostEvaluator& eval, EvalBackend backend)
    : eval_(&eval),
      backend_(resolve_eval_backend(backend)),
      scratch_([] { return std::make_unique<detail::EvalScratch>(); }) {
  // The vector kernels stream the undirected edge list, which charges
  // both endpoints from one comm load and therefore needs a symmetric
  // comm matrix (true for every generator-built platform).  An
  // asymmetric matrix pins the reference kernel.
  if (backend_ != EvalBackend::kScalar && !eval.comm_symmetric()) {
    backend_ = EvalBackend::kScalar;
  }
  if (backend_ != EvalBackend::kScalar) {
    const auto edges = eval.undirected_edges();
    std::vector<std::uint32_t> order(edges.size());
    for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t x, std::uint32_t y) {
                return edges[x].b != edges[y].b ? edges[x].b < edges[y].b
                                                : edges[x].a < edges[y].a;
              });
    edges_by_b_.reserve(edges.size());
    for (const std::uint32_t i : order) edges_by_b_.push_back(edges[i]);
    // Inverse permutation: a-stream position -> b-stream position.  Pass
    // A stores each spilled term directly at its b-sorted slot (stores
    // retire without stalling dependents), so pass B's re-reads are
    // purely sequential — the buffer outgrows L2 on big instances and
    // random replay loads would eat the miss latency instead.
    xpos_.resize(order.size());
    for (std::uint32_t i = 0; i < order.size(); ++i) xpos_[order[i]] = i;
    const auto run_offsets = [](std::span<const UndirectedEdge> es,
                                bool key_a) {
      std::vector<std::uint32_t> off;
      for (std::uint32_t i = 0; i < es.size(); ++i) {
        if (i == 0 || (key_a ? es[i].a != es[i - 1].a
                             : es[i].b != es[i - 1].b)) {
          off.push_back(i);
        }
      }
      off.push_back(static_cast<std::uint32_t>(es.size()));
      return off;
    };
    a_off_ = run_offsets(edges, true);
    b_off_ = run_offsets(edges_by_b_, false);
    tables_ = {edges_by_b_, xpos_, a_off_, b_off_};
  }
}

void BatchEvaluator::evaluate(const SampleBlock& block, std::span<double> out,
                              const parallel::ForOptions& opts) const {
  if (block.num_tasks() != eval_->num_tasks()) {
    throw std::invalid_argument("BatchEvaluator::evaluate: task count");
  }
  if (out.size() < block.size()) {
    throw std::invalid_argument("BatchEvaluator::evaluate: out too small");
  }
  const EvalBackend backend = backend_;
  parallel::parallel_for_chunked(
      0, block.size(),
      [&](std::size_t lo, std::size_t hi, std::size_t /*chunk*/) {
        auto lease = scratch_.acquire();
        switch (backend) {
          case EvalBackend::kAvx2:
            detail::batch_eval_avx2_range(*eval_, tables_, block, lo, hi,
                                          *lease, out.data());
            break;
          case EvalBackend::kAvx512:
            detail::batch_eval_avx512_range(*eval_, tables_, block, lo, hi,
                                            *lease, out.data());
            break;
          case EvalBackend::kNeon:
            detail::batch_eval_neon_range(*eval_, tables_, block, lo, hi,
                                          *lease, out.data());
            break;
          default:
            scalar_range(*eval_, block, lo, hi, *lease, out.data());
            break;
        }
      },
      opts);
}

}  // namespace match::sim
