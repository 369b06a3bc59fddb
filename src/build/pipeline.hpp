// The unified build pipeline: BuildPlan in, IndexArtifact out.
//
// Run() is the one way to build an index. It resolves the plan once
// (ordering + rank graph, or checkpoint recovery on resume), routes every
// mode through the shared root-loop kernel in root_loop.hpp, and stamps
// the result with a provenance manifest. BuildPlan is an aggregate, so a
// call reads like
//
//   build::Run(g, {.mode = build::BuildMode::kParallel, .threads = 8})
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "build/artifact.hpp"
#include "build/build_plan.hpp"
#include "vtime/cost_model.hpp"

namespace parapll::build {

// One worker's load-balance picture over a threaded build.
struct ThreadReport {
  std::size_t roots_processed = 0;
  double busy_seconds = 0.0;  // time spent inside Pruned Dijkstra
  // Time constructing the O(|V|) per-thread scratch arrays before the
  // first root. Booked separately: it is neither useful indexing work nor
  // queue wait, so folding it into idle_seconds would skew the Fig. 8
  // utilization numbers on large graphs.
  double setup_seconds = 0.0;
  // Root-loop lifetime minus busy time: queue wait plus scheduling
  // overhead. Static vs dynamic load imbalance shows up here directly.
  double idle_seconds = 0.0;

  [[nodiscard]] double WallSeconds() const {
    return busy_seconds + idle_seconds;
  }
  // Busy fraction of this worker's lifetime, in [0, 1].
  [[nodiscard]] double Utilization() const {
    const double wall = WallSeconds();
    return wall > 0.0 ? busy_seconds / wall : 0.0;
  }
};

struct BuildOutcome {
  // The built index with its manifest populated. For a halted build
  // (plan.halt_after_roots) this is a checkpoint-shaped artifact: labels
  // restricted to the finalized frontier, roots_completed < num_vertices.
  IndexArtifact artifact;

  // This run's work (a resumed run's seed totals are *not* included here;
  // the manifest carries the combined view).
  pll::PruneStats totals;
  graph::VertexId roots_finished = 0;
  double wall_seconds = 0.0;  // the root loop's, without the ordering
  bool complete = true;  // false when the build halted at a frontier

  // Wall seconds of the stages around the root loop: computing (or, on
  // resume, recovering) the order, relabelling the graph into rank space,
  // and turning the built labels into the index. Published with
  // wall_seconds as build.{order,rank_space,finalize}_s.
  double order_seconds = 0.0;
  double rank_space_seconds = 0.0;
  double finalize_seconds = 0.0;

  // Per-root (rank, stats) in completion order; empty unless traced. One
  // worker (kSerial) completes roots in rank order; kSimulated records
  // its virtual start order.
  std::vector<std::pair<graph::VertexId, pll::PruneStats>> trace;

  // kSerial / kParallel: per-worker load-balance reports.
  std::vector<ThreadReport> reports;

  // kSimulated / kCluster: virtual-time accounting.
  double makespan_units = 0.0;
  double total_units = 0.0;
  std::vector<double> worker_units;

  // kCluster only.
  double comm_units = 0.0;
  double compute_units = 0.0;
  std::vector<double> node_compute_units;
  std::uint64_t bytes_exchanged = 0;
  std::size_t sync_rounds = 0;
  std::size_t entries_exchanged = 0;

  // Mean per-worker Utilization(); 1.0 means perfectly balanced workers.
  [[nodiscard]] double AvgUtilization() const {
    if (reports.empty()) {
      return 0.0;
    }
    double total = 0.0;
    for (const ThreadReport& report : reports) {
      total += report.Utilization();
    }
    return total / static_cast<double>(reports.size());
  }
};

// Builds an index per `plan`. Throws std::runtime_error on an invalid
// plan or a failed resume (missing/corrupt/mismatched checkpoint).
BuildOutcome Run(const graph::Graph& g, const BuildPlan& plan);

// Measures seconds per virtual unit by a serial build of `g` under
// `ordering` (the one the caller's simulated schedules use): its root
// loop's wall time over the units `model` charges for the same work.
// Multiplying a simulated makespan by this factor expresses the schedule
// in calibrated seconds. `serial_seconds`, when non-null, receives that
// wall time. Returns 0 for a build that costs no units.
double CalibrateSecondsPerUnit(const graph::Graph& g,
                               pll::OrderingPolicy ordering,
                               const vtime::CostModel& model,
                               double* serial_seconds = nullptr);

}  // namespace parapll::build
