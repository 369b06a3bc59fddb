#include "build/root_scheduler.hpp"

#include <algorithm>
#include <atomic>

#include "util/check.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace parapll::build {

namespace {

// Worker w gets begin+w, begin+w+p, ... Per-worker cursors are atomics
// only so LowerBound() may read them from a checkpointing thread; each
// cursor is written by its own worker alone.
class StaticRangeScheduler final : public RootScheduler {
 public:
  StaticRangeScheduler(graph::VertexId begin, graph::VertexId end,
                       std::size_t workers)
      : begin_(begin), end_(end), next_(workers) {
    for (auto& cursor : next_) {
      // relaxed: single-threaded construction; workers start later.
      cursor.store(0, std::memory_order_relaxed);
    }
  }

  graph::VertexId Claim(std::size_t worker) override {
    const graph::VertexId root = Peek(worker);
    if (root != graph::kInvalidVertex) {
      // relaxed: each cursor is written by its own worker alone; other
      // threads (LowerBound) only need an eventually-current value.
      next_[worker].fetch_add(1, std::memory_order_relaxed);
    }
    return root;
  }

  [[nodiscard]] graph::VertexId Peek(std::size_t worker) const override {
    const graph::VertexId stride =
        static_cast<graph::VertexId>(next_.size());
    // relaxed: a checkpointing thread may read a slightly stale cursor,
    // which only makes the frontier bound more conservative.
    const graph::VertexId root =
        begin_ + static_cast<graph::VertexId>(worker) +
        next_[worker].load(std::memory_order_relaxed) * stride;
    return root < end_ ? root : graph::kInvalidVertex;
  }

  void Advance(std::size_t worker) override {
    // relaxed: single-threaded driver; see Claim for the cross-thread
    // visibility argument.
    next_[worker].fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] graph::VertexId LowerBound() const override {
    graph::VertexId lower = end_;
    for (std::size_t w = 0; w < next_.size(); ++w) {
      const graph::VertexId root = Peek(w);
      if (root != graph::kInvalidVertex && root < lower) {
        lower = root;
      }
    }
    return lower;
  }

 private:
  graph::VertexId begin_;
  graph::VertexId end_;
  std::vector<std::atomic<graph::VertexId>> next_;
};

// Shared ordered queue: any free worker takes the next rank. Because the
// ranks are already in computing-sequence order, a fetch_add over
// [begin, end) is the paper's locked dequeue without the lock convoy.
class DynamicRangeScheduler final : public RootScheduler {
 public:
  DynamicRangeScheduler(graph::VertexId begin, graph::VertexId end)
      : end_(end), cursor_(begin) {}

  graph::VertexId Claim(std::size_t /*worker*/) override {
    // relaxed: the fetch_add's atomicity alone guarantees unique claims;
    // label visibility is carried by the store's row locks, not here.
    const graph::VertexId root =
        cursor_.fetch_add(1, std::memory_order_relaxed);
    return root < end_ ? root : graph::kInvalidVertex;
  }

  [[nodiscard]] graph::VertexId Peek(std::size_t /*worker*/) const override {
    // relaxed: probing only; a stale value is re-checked at Advance.
    const graph::VertexId root = cursor_.load(std::memory_order_relaxed);
    return root < end_ ? root : graph::kInvalidVertex;
  }

  void Advance(std::size_t /*worker*/) override {
    // relaxed: single-threaded driver; atomicity suffices (see Claim).
    cursor_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] graph::VertexId LowerBound() const override {
    // relaxed: a stale cursor only under-reports the frontier, which is
    // safe (the checkpoint persists a smaller finished prefix).
    const graph::VertexId root = cursor_.load(std::memory_order_relaxed);
    return root < end_ ? root : end_;
  }

 private:
  graph::VertexId end_;
  std::atomic<graph::VertexId> cursor_;
};

// Positional scheduling over an explicit root list — one cluster node's
// epoch share. Earlier revisions used plain counters on the assumption
// that each fabric rank drives its scheduler single-threaded, but that
// silently violated the base-class contract ("Claim ... safe to call
// concurrently from distinct workers") the moment an epoch share was
// handed to the real-thread driver. The cursors are now guarded by a
// mutex; claiming a root is rare relative to running its Dijkstra, so
// the lock is uncontended in practice.
class EpochScheduler final : public RootScheduler {
 public:
  EpochScheduler(parallel::AssignmentPolicy policy,
                 std::vector<graph::VertexId> roots, std::size_t workers)
      : policy_(policy), roots_(std::move(roots)) {
    if (policy_ == parallel::AssignmentPolicy::kStatic) {
      next_static_.assign(workers, 0);
    }
  }

  graph::VertexId Claim(std::size_t worker) override {
    util::MutexLock lock(mutex_);
    const graph::VertexId root = PeekLocked(worker);
    if (root != graph::kInvalidVertex) {
      AdvanceLocked(worker);
    }
    return root;
  }

  [[nodiscard]] graph::VertexId Peek(std::size_t worker) const override {
    util::MutexLock lock(mutex_);
    return PeekLocked(worker);
  }

  void Advance(std::size_t worker) override {
    util::MutexLock lock(mutex_);
    AdvanceLocked(worker);
  }

  [[nodiscard]] graph::VertexId LowerBound() const override {
    util::MutexLock lock(mutex_);
    if (policy_ == parallel::AssignmentPolicy::kStatic) {
      std::size_t lower = roots_.size();
      for (std::size_t w = 0; w < next_static_.size(); ++w) {
        lower = std::min(lower, PeekIndexLocked(w));
      }
      return static_cast<graph::VertexId>(lower);
    }
    return static_cast<graph::VertexId>(
        std::min(shared_cursor_, roots_.size()));
  }

 private:
  [[nodiscard]] graph::VertexId PeekLocked(std::size_t worker) const
      REQUIRES(mutex_) {
    const std::size_t index = PeekIndexLocked(worker);
    return index < roots_.size() ? roots_[index] : graph::kInvalidVertex;
  }

  void AdvanceLocked(std::size_t worker) REQUIRES(mutex_) {
    if (policy_ == parallel::AssignmentPolicy::kStatic) {
      ++next_static_[worker];
    } else {
      ++shared_cursor_;
    }
  }

  [[nodiscard]] std::size_t PeekIndexLocked(std::size_t worker) const
      REQUIRES(mutex_) {
    if (policy_ == parallel::AssignmentPolicy::kStatic) {
      return worker + next_static_[worker] * next_static_.size();
    }
    return shared_cursor_;
  }

  parallel::AssignmentPolicy policy_;     // ctor-only, then read-only
  std::vector<graph::VertexId> roots_;    // ctor-only, then read-only
  mutable util::Mutex mutex_;
  std::vector<std::size_t> next_static_ GUARDED_BY(mutex_);
  std::size_t shared_cursor_ GUARDED_BY(mutex_) = 0;
};

}  // namespace

std::unique_ptr<RootScheduler> MakeRangeScheduler(
    parallel::AssignmentPolicy policy, graph::VertexId begin,
    graph::VertexId end, std::size_t workers) {
  PARAPLL_CHECK(workers >= 1);
  PARAPLL_CHECK(begin <= end);
  if (policy == parallel::AssignmentPolicy::kStatic) {
    return std::make_unique<StaticRangeScheduler>(begin, end, workers);
  }
  return std::make_unique<DynamicRangeScheduler>(begin, end);
}

std::unique_ptr<RootScheduler> MakeEpochScheduler(
    parallel::AssignmentPolicy policy, std::vector<graph::VertexId> roots,
    std::size_t workers) {
  PARAPLL_CHECK(workers >= 1);
  return std::make_unique<EpochScheduler>(policy, std::move(roots), workers);
}

}  // namespace parapll::build
