#include "sim/schedule_eval.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

#include "graph/algorithms.hpp"

namespace match::sim {

namespace {

using graph::NodeId;

/// Comparison tolerance for schedule times: absolute for small values,
/// relative once times grow (weights are typically integers, so exact
/// equality usually holds; the slack only absorbs reassociation).
double time_tol(double scale) { return 1e-9 * (1.0 + std::abs(scale)); }

}  // namespace

ScheduleEvaluator::ScheduleEvaluator(const graph::Dag& dag,
                                     const Platform& platform)
    : dag_(&dag),
      platform_(&platform),
      topo_order_(graph::topological_order(dag)),
      pool_([] { return std::make_unique<BatchScratch>(); }) {
  if (platform.num_resources() == 0) {
    throw std::invalid_argument("ScheduleEvaluator: empty platform");
  }
  const std::size_t n = dag.num_nodes();
  const std::size_t nr = platform.num_resources();

  // exec_[t·nr + r] = W_t · w_r, built once: the recurrences trade a
  // multiply for a load, and upward_ranks reads row means off the same
  // table.
  exec_.resize(n * nr);
  for (std::size_t t = 0; t < n; ++t) {
    const double w = dag.node_weight(static_cast<NodeId>(t));
    for (std::size_t r = 0; r < nr; ++r) {
      exec_[t * nr + r] = w * platform.processing_cost(static_cast<NodeId>(r));
    }
  }
}

double ScheduleEvaluator::makespan(std::span<const NodeId> assignment,
                                   Scratch& scratch) const {
  const std::size_t n = num_tasks();
  const std::size_t nr = num_resources();
  if (assignment.size() != n) {
    throw std::invalid_argument("ScheduleEvaluator::makespan: size mismatch");
  }
  scratch.finish.resize(n);
  scratch.avail.assign(nr, 0.0);
  const double* exec = exec_.data();

  double makespan = 0.0;
  for (const NodeId t : topo_order_) {
    const NodeId r = assignment[t];
    if (r >= nr) {
      throw std::invalid_argument(
          "ScheduleEvaluator::makespan: resource id out of range");
    }
    const double* crow = platform_->comm_row(r);
    double ready = 0.0;
    for (const auto& p : dag_->predecessors(t)) {
      const NodeId pr = assignment[p.id];
      const double arrive =
          scratch.finish[p.id] + (pr == r ? 0.0 : p.weight * crow[pr]);
      ready = std::max(ready, arrive);
    }
    const double start = std::max(scratch.avail[r], ready);
    scratch.finish[t] = start + exec[t * nr + r];
    scratch.avail[r] = scratch.finish[t];
    makespan = std::max(makespan, scratch.finish[t]);
  }
  return makespan;
}

double ScheduleEvaluator::makespan(std::span<const NodeId> assignment) const {
  Scratch scratch;
  return makespan(assignment, scratch);
}

double ScheduleEvaluator::schedule_priorities(std::span<const NodeId> priority,
                                              Scratch& scratch,
                                              Schedule* out) const {
  const std::size_t n = num_tasks();
  const std::size_t nr = num_resources();
  if (priority.size() != n) {
    throw std::invalid_argument(
        "ScheduleEvaluator::schedule_priorities: size mismatch");
  }
  constexpr std::uint32_t kUnset = std::numeric_limits<std::uint32_t>::max();
  scratch.slot.assign(n, kUnset);
  for (std::size_t k = 0; k < n; ++k) {
    const NodeId t = priority[k];
    if (t >= n || scratch.slot[t] != kUnset) {
      throw std::invalid_argument(
          "ScheduleEvaluator::schedule_priorities: not a permutation");
    }
    scratch.slot[t] = static_cast<std::uint32_t>(k);
  }

  scratch.finish.resize(n);
  scratch.start.resize(n);
  scratch.assign.resize(n);
  scratch.indegree.resize(n);
  scratch.heap.clear();

  // Busy-interval arena: a resource holds at most n intervals plus the
  // sentinel, so every segment has room and inserts never reallocate.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t stride = 2 * (n + 1);
  scratch.busy.resize(nr * stride);
  scratch.busy_len.assign(nr, 0);
  for (std::size_t r = 0; r < nr; ++r) {
    scratch.busy[r * stride] = kInf;
    scratch.busy[r * stride + 1] = kInf;
  }

  // Min-heap over ready tasks, keyed by priority slot.
  const auto later = [&](NodeId a, NodeId b) {
    return scratch.slot[a] > scratch.slot[b];
  };
  for (std::size_t t = 0; t < n; ++t) {
    scratch.indegree[t] =
        static_cast<std::uint32_t>(dag_->in_degree(static_cast<NodeId>(t)));
    if (scratch.indegree[t] == 0) {
      scratch.heap.push_back(static_cast<NodeId>(t));
    }
  }
  std::make_heap(scratch.heap.begin(), scratch.heap.end(), later);

  const double* exec = exec_.data();
  double makespan = 0.0;
  std::size_t scheduled = 0;
  while (!scratch.heap.empty()) {
    std::pop_heap(scratch.heap.begin(), scratch.heap.end(), later);
    const NodeId t = scratch.heap.back();
    scratch.heap.pop_back();
    ++scheduled;

    // Insertion-based EFT over every resource.
    double best_eft = std::numeric_limits<double>::infinity();
    double best_start = 0.0;
    NodeId best_r = 0;
    for (std::size_t r = 0; r < nr; ++r) {
      const double exec_tr = exec[t * nr + r];
      const double* crow = platform_->comm_row(static_cast<NodeId>(r));
      double ready = 0.0;
      for (const auto& p : dag_->predecessors(t)) {
        const NodeId pr = scratch.assign[p.id];
        const double arrive =
            scratch.finish[p.id] +
            (pr == static_cast<NodeId>(r) ? 0.0 : p.weight * crow[pr]);
        ready = std::max(ready, arrive);
      }
      // Earliest gap in r's busy arena that fits `exec_tr` no earlier
      // than `ready`.  The sentinel's +inf start satisfies the break
      // condition for any finite slot, so the scan carries no length
      // compare, and the slide over each interval is a branchless maxsd.
      const double* iv = scratch.busy.data() + r * stride;
      double slot_start = ready;
      for (std::size_t i = 0;; ++i) {
        if (iv[2 * i] - slot_start >= exec_tr) break;
        slot_start = std::max(slot_start, iv[2 * i + 1]);
      }
      const double eft = slot_start + exec_tr;
      if (eft < best_eft) {
        best_eft = eft;
        best_start = slot_start;
        best_r = static_cast<NodeId>(r);
      }
    }

    scratch.assign[t] = best_r;
    scratch.start[t] = best_start;
    scratch.finish[t] = best_eft;
    makespan = std::max(makespan, best_eft);

    // Insert the busy interval at its sorted position: strided binary
    // search, then one memmove that carries the sentinel along.
    double* iv = scratch.busy.data() + best_r * stride;
    const std::uint32_t len = scratch.busy_len[best_r];
    std::uint32_t pos = 0;
    std::uint32_t hi = len;
    while (pos < hi) {
      const std::uint32_t mid = (pos + hi) / 2;
      if (iv[2 * mid] <= best_start) {
        pos = mid + 1;
      } else {
        hi = mid;
      }
    }
    std::memmove(iv + 2 * (pos + 1), iv + 2 * pos,
                 sizeof(double) * 2 * (len - pos + 1));
    iv[2 * pos] = best_start;
    iv[2 * pos + 1] = best_eft;
    scratch.busy_len[best_r] = len + 1;

    for (const auto& s : dag_->successors(t)) {
      if (--scratch.indegree[s.id] == 0) {
        scratch.heap.push_back(s.id);
        std::push_heap(scratch.heap.begin(), scratch.heap.end(), later);
      }
    }
  }
  // Dag construction rejects cycles, so the ready set never starves.
  (void)scheduled;

  if (out != nullptr) {
    out->assignment.assign(scratch.assign.begin(), scratch.assign.end());
    out->start.assign(scratch.start.begin(), scratch.start.end());
    out->finish.assign(scratch.finish.begin(), scratch.finish.end());
    out->makespan = makespan;
  }
  return makespan;
}

std::vector<double> ScheduleEvaluator::upward_ranks() const {
  const std::size_t n = num_tasks();
  const std::size_t nr = num_resources();
  // Mean comm cost over distinct ordered resource pairs (0 on a single
  // resource, where no transfer ever happens).
  double mean_c = 0.0;
  if (nr > 1) {
    for (std::size_t r = 0; r < nr; ++r) {
      const double* crow = platform_->comm_row(static_cast<NodeId>(r));
      for (std::size_t q = 0; q < nr; ++q) {
        if (q != r) mean_c += crow[q];
      }
    }
    mean_c /= static_cast<double>(nr * (nr - 1));
  }

  const double* exec = exec_.data();
  std::vector<double> rank(n, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    const NodeId t = topo_order_[i];
    // Mean exec over the task's exec-cost table row.
    double mean_w = 0.0;
    for (std::size_t r = 0; r < nr; ++r) mean_w += exec[t * nr + r];
    mean_w /= static_cast<double>(nr);
    double tail = 0.0;
    for (const auto& s : dag_->successors(t)) {
      tail = std::max(tail, s.weight * mean_c + rank[s.id]);
    }
    rank[t] = mean_w + tail;
  }
  return rank;
}

void ScheduleEvaluator::priority_makespans_batch(
    const SampleBlock& block, std::span<double> out,
    const parallel::ForOptions& opts) const {
  if (block.num_tasks() != num_tasks()) {
    throw std::invalid_argument(
        "ScheduleEvaluator::priority_makespans_batch: task-count mismatch");
  }
  if (out.size() < block.size()) {
    throw std::invalid_argument(
        "ScheduleEvaluator::priority_makespans_batch: output too small");
  }
  parallel::parallel_for_chunked(
      0, block.size(),
      [&](std::size_t lo, std::size_t hi, std::size_t) {
        auto lease = pool_.acquire();
        lease->row.resize(num_tasks());
        for (std::size_t i = lo; i < hi; ++i) {
          block.load_sample(i, lease->row);
          out[i] = schedule_priorities(lease->row, lease->sched);
        }
      },
      opts);
}

bool schedule_feasible(const graph::Dag& dag, const Platform& platform,
                       const Schedule& schedule, std::string* why) {
  const auto fail = [&](std::string message) {
    if (why != nullptr) *why = std::move(message);
    return false;
  };
  const std::size_t n = dag.num_nodes();
  const std::size_t nr = platform.num_resources();
  if (schedule.assignment.size() != n || schedule.start.size() != n ||
      schedule.finish.size() != n) {
    return fail("schedule arrays do not match the DAG size");
  }
  double max_finish = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    const NodeId r = schedule.assignment[t];
    if (r >= nr) {
      return fail("task " + std::to_string(t) + " assigned out of range");
    }
    const double exec = dag.node_weight(static_cast<NodeId>(t)) *
                        platform.processing_cost(r);
    if (std::abs(schedule.finish[t] - (schedule.start[t] + exec)) >
        time_tol(schedule.finish[t])) {
      return fail("task " + std::to_string(t) +
                  " finish != start + execution time");
    }
    if (schedule.start[t] < -time_tol(0.0)) {
      return fail("task " + std::to_string(t) + " starts before time 0");
    }
    max_finish = std::max(max_finish, schedule.finish[t]);
  }
  if (std::abs(schedule.makespan - max_finish) > time_tol(max_finish)) {
    return fail("makespan does not equal the latest finish time");
  }
  // Precedence + data-arrival constraints.
  for (std::size_t t = 0; t < n; ++t) {
    const NodeId r = schedule.assignment[t];
    const double* crow = platform.comm_row(r);
    for (const auto& p : dag.predecessors(static_cast<NodeId>(t))) {
      const NodeId pr = schedule.assignment[p.id];
      const double arrive =
          schedule.finish[p.id] + (pr == r ? 0.0 : p.weight * crow[pr]);
      if (schedule.start[t] + time_tol(arrive) < arrive) {
        return fail("task " + std::to_string(t) + " starts before data from " +
                    std::to_string(p.id) + " arrives");
      }
    }
  }
  // Resource exclusivity: one flat (resource, start, finish) record per
  // task, a single sort (resource-major, start-minor), and an adjacent-
  // overlap scan — one allocation per call instead of a vector per
  // resource (this runs on every solver result the service returns).
  struct BusyRecord {
    NodeId resource;
    double start;
    double finish;
  };
  std::vector<BusyRecord> busy;
  busy.reserve(n);
  for (std::size_t t = 0; t < n; ++t) {
    busy.push_back(
        {schedule.assignment[t], schedule.start[t], schedule.finish[t]});
  }
  std::sort(busy.begin(), busy.end(),
            [](const BusyRecord& a, const BusyRecord& b) {
              return a.resource != b.resource ? a.resource < b.resource
                                              : a.start < b.start;
            });
  for (std::size_t i = 1; i < busy.size(); ++i) {
    if (busy[i].resource == busy[i - 1].resource &&
        busy[i].start + time_tol(busy[i].start) < busy[i - 1].finish) {
      return fail("overlapping tasks on resource " +
                  std::to_string(busy[i].resource));
    }
  }
  if (why != nullptr) why->clear();
  return true;
}

}  // namespace match::sim
