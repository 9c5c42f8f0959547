#pragma once

#include <algorithm>
#include <cstddef>

#include "parallel/thread_pool.hpp"

namespace match::parallel {

/// Controls how a `parallel_for` range is split across workers.
struct ForOptions {
  /// Minimum iterations per chunk; at or below `serial_cutoff` total
  /// iterations the loop runs inline on the calling thread and touches
  /// no pool at all.
  std::size_t grain = 64;
  std::size_t serial_cutoff = 256;
  /// Pool to run on; nullptr selects the process-global pool.
  ThreadPool* pool = nullptr;
};

/// Runs `body(begin, end)` over disjoint sub-ranges of [first, last) in
/// parallel and blocks until all sub-ranges complete.
///
/// `body` receives half-open index ranges so callers can amortize per-chunk
/// setup (scratch buffers, RNG streams).  The chunking is deterministic:
/// chunk `k` covers `[first + k*chunk, ...)`, so a caller that indexes
/// per-chunk resources by `chunk_index` gets reproducible assignment.
template <typename Body>
void parallel_for_chunked(std::size_t first, std::size_t last, Body&& body,
                          const ForOptions& opts = {}) {
  if (first >= last) return;
  const std::size_t n = last - first;
  // Test the cutoff before resolving the pool: a loop forced serial must
  // not construct the process-global pool as a side effect.
  ThreadPool* pool = nullptr;
  if (n > opts.serial_cutoff) {
    pool = opts.pool ? opts.pool : &ThreadPool::global();
  }
  if (pool == nullptr || pool->thread_count() <= 1) {
    body(first, last, /*chunk_index=*/std::size_t{0});
    return;
  }

  const std::size_t target_chunks = pool->thread_count() * 4;
  std::size_t chunk = std::max<std::size_t>(opts.grain, (n + target_chunks - 1) / target_chunks);
  const std::size_t chunk_count = (n + chunk - 1) / chunk;

  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::size_t remaining = chunk_count;  // guarded by done_mutex

  for (std::size_t k = 0; k < chunk_count; ++k) {
    const std::size_t lo = first + k * chunk;
    const std::size_t hi = std::min(last, lo + chunk);
    pool->submit([&, lo, hi, k] {
      body(lo, hi, k);
      // Count down under the lock: the waiter cannot return (and destroy
      // this frame's mutex and condition variable) before the last chunk
      // has released it, so no worker touches them afterwards.
      std::lock_guard<std::mutex> lock(done_mutex);
      if (--remaining == 0) done_cv.notify_all();
    });
  }

  std::unique_lock<std::mutex> lock(done_mutex);
  done_cv.wait(lock, [&] { return remaining == 0; });
}

/// Element-wise parallel loop: runs `body(i)` for each i in [first, last).
template <typename Body>
void parallel_for(std::size_t first, std::size_t last, Body&& body,
                  const ForOptions& opts = {}) {
  parallel_for_chunked(
      first, last,
      [&body](std::size_t lo, std::size_t hi, std::size_t /*chunk*/) {
        for (std::size_t i = lo; i < hi; ++i) body(i);
      },
      opts);
}

/// Parallel map: out[i] = f(i) for i in [0, n).  `out` must have size >= n.
template <typename T, typename F>
void parallel_transform(std::size_t n, T* out, F&& f, const ForOptions& opts = {}) {
  parallel_for(
      0, n, [&](std::size_t i) { out[i] = f(i); }, opts);
}

}  // namespace match::parallel
