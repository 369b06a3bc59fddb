// The one root loop every build mode runs.
//
// PLL indexing, in every mode the paper describes, is the same loop: pull
// the next root from a scheduler, run Pruned Dijkstra against a label
// store, account the stats. The two drivers here cover the two execution
// substrates:
//
//   * DrainRoots         — real threads (kParallel) or the calling thread
//                          (kSerial == the p = 1 case, run inline with no
//                          thread spawn, so the serial build stays
//                          byte-identical to the historical one);
//   * DrainVirtualRoots  — the deterministic virtual-time event loop
//                          shared by kSimulated and each kCluster node's
//                          intra-epoch simulation.
//
// Both are templated on the label store so MutableLabels,
// ConcurrentLabelStore, SimLabelView and the cluster's logging view all
// reuse the same instrumented kernel: per-root stats accumulation,
// completion-order tracing, progress gauges, and (threaded modes only)
// checkpoint frontier tracking.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "build/checkpoint.hpp"
#include "build/pipeline.hpp"
#include "build/root_scheduler.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "pll/pruned_dijkstra.hpp"
#include "util/check.hpp"
#include "util/mutex.hpp"
#include "util/timer.hpp"
#include "vtime/cost_model.hpp"

namespace parapll::build {

struct RootLoopOptions {
  std::size_t workers = 1;
  bool record_trace = false;
  // Upper bound on roots this loop will process; sizes the trace buffer
  // and the progress gauges.
  graph::VertexId roots_total = 0;
  // Stop claiming after this many roots have been claimed (0 = all).
  graph::VertexId halt_after_roots = 0;
};

struct RootLoopOutcome {
  pll::PruneStats totals;
  // (root rank, stats) in global completion order; empty unless traced.
  std::vector<std::pair<graph::VertexId, pll::PruneStats>> trace;
  std::vector<ThreadReport> reports;  // one per worker
  double wall_seconds = 0.0;
  graph::VertexId roots_finished = 0;
};

// Runs the root loop over `scheduler` with options.workers real threads
// (inline on the calling thread when workers == 1). `labels` must satisfy
// PrunedDijkstra's Labels concept and, when workers > 1, be safe for
// concurrent Append/ForEach. When `checkpointer` is non-null, claimed
// roots are tracked so every finished root advances the checkpoint
// frontier F = min(unclaimed, in-flight): all ranks < F are final; and
// workers stop claiming once the checkpointer asks for a halt.
template <typename Labels>
RootLoopOutcome DrainRoots(const graph::Graph& rank_graph, Labels& labels,
                           RootScheduler& scheduler,
                           const RootLoopOptions& options,
                           Checkpointer* checkpointer) {
  PARAPLL_CHECK(options.workers >= 1);
  const std::size_t p = options.workers;
  RootLoopOutcome outcome;
  outcome.reports.resize(p);
  std::vector<pll::PruneStats> totals(p);

  // Completion-order trace: workers claim slots with an atomic cursor.
  std::atomic<std::size_t> trace_cursor{0};
  if (options.record_trace) {
    outcome.trace.resize(options.roots_total);
  }

  // Live build progress: roots-done / labels-added / ETA gauges updated
  // once per finished root (a Pruned Dijkstra run dwarfs a gauge store).
  const bool metrics = obs::MetricsEnabled();
  std::atomic<graph::VertexId> roots_done{0};
  std::atomic<std::size_t> labels_added{0};
  obs::Gauge* done_gauge = nullptr;
  obs::Gauge* eta_gauge = nullptr;
  obs::Gauge* labels_gauge = nullptr;
  if (metrics) {
    auto& registry = obs::Registry::Global();
    registry.GetGauge("indexer.progress.roots_total")
        .Set(static_cast<double>(options.roots_total));
    done_gauge = &registry.GetGauge("indexer.progress.roots_done");
    done_gauge->Set(0.0);
    eta_gauge = &registry.GetGauge("indexer.progress.eta_seconds");
    eta_gauge->Set(0.0);
    labels_gauge = &registry.GetGauge("indexer.progress.labels_added");
    labels_gauge->Set(0.0);
  }

  // Checkpoint frontier bookkeeping, maintained only when asked for:
  // claimed-but-unfinished roots under a mutex (touched once per root,
  // which a Dijkstra run dwarfs). GUARDED_BY is a member attribute, so for
  // this local the discipline is by construction: every `inflight` touch
  // below sits inside a MutexLock(inflight_mutex) block.
  util::Mutex inflight_mutex;
  std::set<graph::VertexId> inflight;

  // Claim budget for the halt hook. Signed so that once it goes negative
  // *every* worker's fetch_sub observes <= 0 and stops claiming (an
  // unsigned budget would wrap and only halt the one worker that saw
  // exactly zero).
  std::atomic<std::int64_t> claim_budget{
      options.halt_after_roots == 0
          ? std::numeric_limits<std::int64_t>::max()
          : static_cast<std::int64_t>(options.halt_after_roots)};

  util::WallTimer wall;
  auto run_worker = [&](std::size_t t) {
    PARAPLL_SPAN("indexer.worker", "thread", t);
    // The wall clock that idle_seconds is derived from must start *after*
    // the O(n) scratch construction: booking setup as idle time inflates
    // the per-thread idle share on large graphs.
    util::WallTimer setup_wall;
    pll::PruneScratch scratch(rank_graph.NumVertices());
    outcome.reports[t].setup_seconds = setup_wall.Seconds();
    util::WallTimer thread_wall;
    util::AccumulatingTimer busy;
    for (;;) {
      // relaxed: the budget is an independent countdown; atomicity alone
      // ensures at most halt_after_roots claims succeed.
      if (options.halt_after_roots != 0 &&
          claim_budget.fetch_sub(1, std::memory_order_relaxed) <= 0) {
        break;
      }
      if (checkpointer != nullptr && checkpointer->HaltRequested()) {
        break;
      }
      graph::VertexId root;
      if (checkpointer != nullptr) {
        // Claim and registration must be atomic together: a root that is
        // claimed but not yet in `inflight` would be invisible to the
        // frontier and could be snapshotted as "finished".
        util::MutexLock lock(inflight_mutex);
        root = scheduler.Claim(t);
        if (root != graph::kInvalidVertex) {
          inflight.insert(root);
        }
      } else {
        root = scheduler.Claim(t);
      }
      if (root == graph::kInvalidVertex) {
        break;
      }
      const pll::PruneStats stats = [&] {
        // Tag the Dijkstra run with a build_root/<rank> request context:
        // profiler samples landing inside it attribute CPU to this root,
        // surfacing the hot (high-degree, early-rank) roots by name.
        obs::ScopedRequestContext root_context(
            obs::MakeContextId(obs::ContextKind::kBuildRoot, root));
        util::ScopedAccumulate in_dijkstra(busy);
        return pll::PrunedDijkstra(rank_graph, root, labels, scratch);
      }();
      totals[t] += stats;
      ++outcome.reports[t].roots_processed;
      if (metrics) {
        // relaxed (both): independent progress tallies feeding gauges; no
        // other data is published through them.
        const auto done =
            roots_done.fetch_add(1, std::memory_order_relaxed) + 1;
        const auto added = labels_added.fetch_add(stats.labels_added,
                                                  std::memory_order_relaxed) +
                           stats.labels_added;
        done_gauge->Set(static_cast<double>(done));
        labels_gauge->Set(static_cast<double>(added));
        // ETA assumes remaining roots cost what finished ones did on
        // average; races between workers just make the last writer win,
        // which is fine for a progress gauge.
        const double elapsed = wall.Seconds();
        eta_gauge->Set(elapsed *
                       static_cast<double>(options.roots_total - done) /
                       static_cast<double>(done));
      }
      if (options.record_trace) {
        // relaxed: the fetch_add's atomicity makes slots unique; the join
        // below is the synchronization point before trace is read.
        const std::size_t slot =
            trace_cursor.fetch_add(1, std::memory_order_relaxed);
        outcome.trace[slot] = {root, stats};
      }
      if (checkpointer != nullptr) {
        graph::VertexId frontier;
        {
          util::MutexLock lock(inflight_mutex);
          inflight.erase(root);
          frontier = scheduler.LowerBound();
          if (!inflight.empty()) {
            frontier = std::min(frontier, *inflight.begin());
          }
        }
        checkpointer->OnRootFinished(frontier, stats, wall.Seconds());
      }
    }
    outcome.reports[t].busy_seconds = busy.Seconds();
    outcome.reports[t].idle_seconds =
        std::max(0.0, thread_wall.Seconds() - busy.Seconds());
  };

  if (p == 1) {
    run_worker(0);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(p);
    for (std::size_t t = 0; t < p; ++t) {
      workers.emplace_back(run_worker, t);
    }
    for (auto& worker : workers) {
      worker.join();
    }
  }
  outcome.wall_seconds = wall.Seconds();

  for (const pll::PruneStats& stats : totals) {
    outcome.totals += stats;
  }
  for (const ThreadReport& report : outcome.reports) {
    outcome.roots_finished +=
        static_cast<graph::VertexId>(report.roots_processed);
  }
  if (options.record_trace) {
    // A halted loop fills fewer slots than roots_total. relaxed: workers
    // have been joined, so the cursor is quiescent.
    outcome.trace.resize(trace_cursor.load(std::memory_order_relaxed));
  }
  return outcome;
}

// The deterministic virtual-time event loop: repeatedly execute the next
// task of the worker with the minimum clock (first minimum wins — the
// tie-break every simulated schedule's bit-reproducibility rests on).
// `make_view(worker, now)` builds the Labels adapter for one task;
// `on_finish(worker, root, stats, units)` runs after the task's clock
// advance. `clocks` carries worker clocks in and out, so cluster epochs
// can chain the loop across syncs.
template <typename MakeView, typename OnFinish>
void DrainVirtualRoots(const graph::Graph& rank_graph,
                       RootScheduler& scheduler, std::vector<double>& clocks,
                       pll::PruneScratch& scratch,
                       const vtime::CostModel& cost, MakeView&& make_view,
                       OnFinish&& on_finish) {
  const std::size_t p = clocks.size();
  for (;;) {
    std::size_t chosen = p;
    for (std::size_t w = 0; w < p; ++w) {
      if (scheduler.Peek(w) == graph::kInvalidVertex) {
        continue;
      }
      if (chosen == p || clocks[w] < clocks[chosen]) {
        chosen = w;
      }
    }
    if (chosen == p) {
      break;  // all queues drained
    }
    const graph::VertexId root = scheduler.Peek(chosen);
    scheduler.Advance(chosen);
    auto view = make_view(chosen, clocks[chosen]);
    const pll::PruneStats stats =
        pll::PrunedDijkstra(rank_graph, root, view, scratch);
    const double units = cost.Units(stats);
    clocks[chosen] += units;
    on_finish(chosen, root, stats, units);
  }
}

}  // namespace parapll::build
