// The unified build pipeline's front door: one BuildPlan describes any of
// the four indexing modes, and Resolve() turns it into the BuildContext
// every mode shares.
//
// Before this layer each indexer recomputed the vertex ordering and the
// rank-space graph for itself and hand-rolled its own root loop. Now the
// ordering/rank work happens exactly once (or is recovered from a
// checkpoint on --resume), and the per-mode differences reduce to a label
// store type plus a RootScheduler policy (see root_scheduler.hpp and
// root_loop.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster_indexer.hpp"
#include "graph/graph.hpp"
#include "parapll/options.hpp"
#include "pll/label_store.hpp"
#include "pll/manifest.hpp"
#include "pll/ordering.hpp"
#include "pll/pruned_dijkstra.hpp"
#include "vtime/cost_model.hpp"

namespace parapll::build {

enum class BuildMode {
  kSerial,     // one thread, MutableLabels (paper §4.1)
  kParallel,   // p real threads over a ConcurrentLabelStore (§4.3–4.4)
  kSimulated,  // virtual-time replay of a p-worker schedule (src/vtime/)
  kCluster,    // message-fabric inter-node build (§4.5, Algorithm 3)
};

std::string ToString(BuildMode mode);

// An aggregate: designated initializers name only the knobs a build
// changes, e.g. {.mode = BuildMode::kParallel, .threads = 8}. Every member
// has a default member initializer, so omitted ones keep their defaults.
struct BuildPlan {
  BuildMode mode = BuildMode::kSerial;
  // Worker threads (kParallel), simulated workers (kSimulated), or
  // workers per node (kCluster). kSerial ignores it (always 1).
  std::size_t threads = 1;
  std::size_t nodes = 1;       // q (kCluster)
  std::size_t sync_count = 1;  // c (kCluster)
  parallel::AssignmentPolicy policy = parallel::AssignmentPolicy::kDynamic;
  // ψ × degree by default; the paper benches pin kDegree (paper §4.2).
  pll::OrderingPolicy ordering = pll::OrderingPolicy::kPathDegree;
  parallel::LockMode lock_mode = parallel::LockMode::kStriped;
  cluster::OwnershipPolicy ownership = cluster::OwnershipPolicy::kRoundRobin;
  vtime::CostModel cost{};
  cluster::CommModel comm{};
  std::uint64_t seed = 0;
  bool record_trace = false;  // per-root PruneStats in completion order

  // --- checkpoint / resume (kSerial and kParallel only) ------------------
  // Snapshot the finalized label prefix to checkpoint_dir every
  // checkpoint_every finished roots (0 disables periodic snapshots; a
  // non-empty dir alone still enables signal-triggered ones).
  graph::VertexId checkpoint_every = 0;
  std::string checkpoint_dir{};
  // Continue a build from the checkpoint in this directory. The plan's
  // ordering/seed are ignored in favor of the checkpointed order (and the
  // manifest records the checkpoint's), so the resumed run works in the
  // identical rank space.
  std::string resume_dir{};
  // Test/ops hook: stop claiming new roots after this many have finished
  // (0 = run to completion). The build ends cleanly with
  // roots_completed < n — exactly what an interrupted run looks like.
  graph::VertexId halt_after_roots = 0;
};

// Everything the root loop needs, computed once per build.
struct BuildContext {
  graph::Graph rank_graph;
  std::vector<graph::VertexId> order;  // rank -> original vertex id
  std::uint64_t graph_fingerprint = 0;
  std::uint64_t num_edges = 0;
  // Where `order` came from, for the manifest: the plan's policy and seed
  // on a fresh build, the checkpoint manifest's on resume.
  std::string ordering;
  std::uint64_t seed = 0;
  // Wall seconds of computing (or recovering) the order and of relabelling
  // the graph into rank space.
  double order_seconds = 0.0;
  double rank_space_seconds = 0.0;

  // Resume state (empty / zero for a fresh build): every root with rank
  // < start_rank is already fully indexed in seed_rows.
  graph::VertexId start_rank = 0;
  std::vector<std::vector<pll::LabelEntry>> seed_rows;
  pll::PruneStats seed_totals;
  double seed_wall_seconds = 0.0;

  [[nodiscard]] bool Resumed() const { return start_rank > 0; }
};

// Computes (or, on resume, recovers) the ordering and rank-space graph and
// validates the plan. A kParallel plan samples the order on plan.threads
// threads, every other mode on one; the order is the same either way.
// Throws std::runtime_error on an invalid plan, a missing/corrupt
// checkpoint, or a checkpoint that does not match `g`.
BuildContext Resolve(const graph::Graph& g, const BuildPlan& plan);

// The provenance stub every artifact of this build starts from: graph
// identity, where the order came from, plus the plan's knobs.
// roots_completed / totals / wall_seconds are filled in by the
// checkpointer and the pipeline as the build runs.
pll::BuildManifest MakeManifest(const BuildPlan& plan,
                                const BuildContext& context);

}  // namespace parapll::build
