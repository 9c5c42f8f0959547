// Zero-allocation guarantees of the CE hot path.  This file installs a
// counting global operator new/delete, so it must stay its own test
// binary (one binary per test file; see tests/CMakeLists.txt): the
// override would otherwise leak into unrelated suites.
//
// The contract under test: after a warm-up draw, GenPermSampler (both
// backends), RowAliasTables::build, the scratch overload of
// CostEvaluator::makespan, and the SoA SampleBlock → BatchEvaluator
// pipeline perform no heap allocation, and a serially reused ScratchPool
// creates exactly one state.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <limits>
#include <new>
#include <vector>

#include "core/genperm.hpp"
#include "core/stochastic_matrix.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/scratch.hpp"
#include "sim/batch_eval.hpp"
#include "sim/evaluator.hpp"
#include "sim/schedule_eval.hpp"
#include "workload/dag_suite.hpp"
#include "workload/paper_suite.hpp"

namespace {

std::atomic<long> g_allocations{0};

// Every replaceable allocation function is replaced, so each form is
// counted and every pointer is freed by the allocator that made it (the
// library's nothrow form backs e.g. std::stable_sort's buffer).
void* counted_alloc(std::size_t size, std::size_t align) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (align <= alignof(std::max_align_t)) return std::malloc(size);
  return std::aligned_alloc(align, (size + align - 1) / align * align);
}

void* counted_or_throw(std::size_t size, std::size_t align) {
  if (void* p = counted_alloc(size, align)) return p;
  throw std::bad_alloc();
}

constexpr std::size_t kPlain = alignof(std::max_align_t);

}  // namespace

void* operator new(std::size_t size) { return counted_or_throw(size, kPlain); }
void* operator new[](std::size_t size) { return counted_or_throw(size, kPlain); }
void* operator new(std::size_t size, std::align_val_t al) {
  return counted_or_throw(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return counted_or_throw(size, static_cast<std::size_t>(al));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, kPlain);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, kPlain);
}
void* operator new(std::size_t size, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(size, static_cast<std::size_t>(al));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace match::core {
namespace {

StochasticMatrix skewed(std::size_t n) {
  std::vector<double> v(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      v[i * n + j] = static_cast<double>((i + j) % n + 1);
      sum += v[i * n + j];
    }
    for (std::size_t j = 0; j < n; ++j) v[i * n + j] /= sum;
  }
  return StochasticMatrix::from_values(n, n, std::move(v));
}

TEST(SamplerAlloc, WarmDrawAndMakespanAreAllocationFree) {
  constexpr std::size_t kN = 32;
  rng::Rng setup(123);
  workload::PaperParams wp;
  wp.n = kN;
  const auto inst = workload::make_paper_instance(wp, setup);
  const auto platform = inst.make_platform();
  const sim::CostEvaluator eval(inst.tig, platform);

  const auto p = skewed(kN);
  RowAliasTables tables;
  tables.build(p);

  GenPermSampler sampler(kN);
  std::vector<graph::NodeId> out(kN);
  std::vector<double> load;
  rng::Rng rng(5);

  // Warm-up: first calls size every scratch buffer to capacity.
  sampler.sample(p, rng, out);
  sampler.sample(p, tables, rng, out);
  (void)eval.makespan(std::span<const graph::NodeId>(out), load);

  const long before = g_allocations.load(std::memory_order_relaxed);
  double sink = 0.0;
  for (int trial = 0; trial < 200; ++trial) {
    sampler.sample(p, rng, out);
    sink += eval.makespan(std::span<const graph::NodeId>(out), load);
    sampler.sample(p, tables, rng, out);
    sink += eval.makespan(std::span<const graph::NodeId>(out), load);
  }
  tables.build(p);  // steady-state rebuild reuses its storage
  const long after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(after, before) << "hot loop allocated " << (after - before)
                           << " times";
  EXPECT_GT(sink, 0.0);  // defeat dead-code elimination
}

TEST(SamplerAlloc, SoaBatchEvaluateIsAllocationFreeWhenWarm) {
  constexpr std::size_t kN = 24;
  constexpr std::size_t kBatch = 64;
  rng::Rng setup(321);
  workload::PaperParams wp;
  wp.n = kN;
  const auto inst = workload::make_paper_instance(wp, setup);
  const auto platform = inst.make_platform();
  const sim::CostEvaluator eval(inst.tig, platform);

  // The steady-state CE iteration: draw into a reused SampleBlock,
  // evaluate the whole block through one BatchEvaluator.  Serial so the
  // single warmed scratch state serves every chunk.
  parallel::ForOptions serial;
  serial.serial_cutoff = std::numeric_limits<std::size_t>::max();

  const auto p = skewed(kN);
  GenPermSampler sampler(kN);
  std::vector<graph::NodeId> row(kN);
  std::vector<double> costs(kBatch);
  rng::Rng rng(7);

  sim::SampleBlock block(kN, kBatch);
  sim::BatchEvaluator batch_eval(eval);  // kAuto: exercises the host's
                                         // widest compiled-in backend

  // Warm-up: first evaluate leases (creates) the scratch state and sizes
  // its row/load/spill buffers to capacity.
  for (std::size_t i = 0; i < kBatch; ++i) {
    sampler.sample(p, rng, row);
    block.store_sample(i, row);
  }
  batch_eval.evaluate(block, costs, serial);

  const long before = g_allocations.load(std::memory_order_relaxed);
  double sink = 0.0;
  for (int iter = 0; iter < 20; ++iter) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      sampler.sample(p, rng, row);
      block.store_sample(i, row);
    }
    batch_eval.evaluate(block, costs, serial);
    sink += costs[0];
  }
  const long after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(after, before) << "warm SoA batch evaluation allocated "
                           << (after - before) << " times";
  EXPECT_GT(sink, 0.0);
}

TEST(SamplerAlloc, ScheduleFeasibleAllocatesOneFlatBufferPerCall) {
  // The exclusivity check sorts one flat (resource, start, finish) record
  // array instead of building per-resource vector<vector<pair>> — so a
  // call costs at most two heap allocations (the record buffer; libstdc++
  // may take one more inside sort's temporary buffer heuristics), not
  // O(resources) of them.
  rng::Rng setup(77);
  workload::DagSuiteParams wp;
  wp.tasks = 40;
  const auto inst = workload::make_dag_instance(
      workload::DagFamily::kLayered, wp, setup);
  const auto platform = inst.make_platform();
  const sim::ScheduleEvaluator eval(inst.dag, platform);

  std::vector<graph::NodeId> priority(40);
  for (std::size_t k = 0; k < 40; ++k) {
    priority[k] = static_cast<graph::NodeId>(k);
  }
  sim::ScheduleEvaluator::Scratch scratch;
  sim::Schedule schedule;
  (void)eval.schedule_priorities(priority, scratch, &schedule);

  ASSERT_TRUE(sim::schedule_feasible(inst.dag, platform, schedule));  // warm

  constexpr int kCalls = 50;
  const long before = g_allocations.load(std::memory_order_relaxed);
  for (int call = 0; call < kCalls; ++call) {
    ASSERT_TRUE(sim::schedule_feasible(inst.dag, platform, schedule));
  }
  const long after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_LE(after - before, 2L * kCalls)
      << "schedule_feasible averaged "
      << static_cast<double>(after - before) / kCalls << " allocations/call";
}

TEST(SamplerAlloc, ScratchPoolReusesOneStateSerially) {
  parallel::ScratchPool<std::vector<double>> pool(
      [] { return std::make_unique<std::vector<double>>(64, 0.0); });
  for (int round = 0; round < 100; ++round) {
    auto lease = pool.acquire();
    (*lease)[0] += 1.0;
  }
  EXPECT_EQ(pool.created(), 1u);
  pool.for_each([](std::vector<double>& v) { EXPECT_EQ(v[0], 100.0); });
}

TEST(SamplerAlloc, ScratchPoolReleaseIsAllocationFree) {
  parallel::ScratchPool<std::vector<double>> pool(
      [] { return std::make_unique<std::vector<double>>(8, 0.0); });
  { auto warm = pool.acquire(); }  // first acquire creates + reserves

  const long before = g_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < 100; ++round) {
    auto lease = pool.acquire();
  }
  const long after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
  EXPECT_EQ(pool.created(), 1u);
}

}  // namespace
}  // namespace match::core
