#include "build/build_plan.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "build/artifact.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace parapll::build {

std::string ToString(BuildMode mode) {
  switch (mode) {
    case BuildMode::kSerial:
      return "serial";
    case BuildMode::kParallel:
      return "parallel";
    case BuildMode::kSimulated:
      return "simulated";
    case BuildMode::kCluster:
      return "cluster";
  }
  return "?";
}

namespace {

void ValidatePlan(const BuildPlan& plan) {
  if (plan.threads < 1) {
    throw std::runtime_error("build plan needs at least one worker");
  }
  if (plan.mode == BuildMode::kCluster &&
      (plan.nodes < 1 || plan.sync_count < 1)) {
    throw std::runtime_error(
        "cluster build plan needs at least one node and one sync");
  }
  const bool wants_checkpointing = plan.checkpoint_every > 0 ||
                                   !plan.checkpoint_dir.empty() ||
                                   !plan.resume_dir.empty() ||
                                   plan.halt_after_roots > 0;
  const bool threaded = plan.mode == BuildMode::kSerial ||
                        plan.mode == BuildMode::kParallel;
  if (wants_checkpointing && !threaded) {
    // Virtual-time and cluster schedules derive determinism from replaying
    // the whole task sequence; a mid-schedule snapshot has no meaningful
    // frontier there.
    throw std::runtime_error("checkpoint/resume requires serial or "
                             "parallel mode");
  }
  if (plan.checkpoint_every > 0 && plan.checkpoint_dir.empty()) {
    throw std::runtime_error(
        "--checkpoint-every needs a checkpoint directory");
  }
}

}  // namespace

BuildContext Resolve(const graph::Graph& g, const BuildPlan& plan) {
  ValidatePlan(plan);
  BuildContext context;
  context.graph_fingerprint = graph::Fingerprint(g);
  context.num_edges = g.NumEdges();
  const util::WallTimer order_timer;
  if (!plan.resume_dir.empty()) {
    // The checkpoint dictates the rank space: its order was computed by
    // the interrupted run, and the finalized label prefix only makes sense
    // under exactly that permutation. The plan's ordering/seed are
    // ignored, and the manifest keeps the checkpoint's. LoadFor has
    // already verified the fingerprint, so the checkpoint really is a
    // prefix of a build of `g`.
    IndexArtifact artifact =
        IndexArtifact::LoadFor(plan.resume_dir + "/checkpoint.bin", g);
    const pll::BuildManifest& manifest = artifact.Manifest();
    context.start_rank =
        static_cast<graph::VertexId>(manifest.roots_completed);
    context.seed_rows = artifact.index.Store().ToRows();
    // A checkpoint holds only the finalized prefix: hubs < roots_completed
    // (<= n, checked by Load). The pruning probe indexes its per-root hub
    // array with every hub it reads, so reject anything else here.
    for (const auto& row : context.seed_rows) {
      for (const pll::LabelEntry& e : row) {
        if (e.hub >= context.start_rank) {
          throw std::runtime_error(
              "checkpoint holds hub " + std::to_string(e.hub) +
              " at or beyond its roots_completed cursor " +
              std::to_string(context.start_rank));
        }
      }
    }
    context.seed_totals = manifest.totals;
    context.seed_wall_seconds = manifest.wall_seconds;
    context.ordering = manifest.ordering;
    context.seed = manifest.seed;
    context.order = artifact.index.Order();
  } else {
    const std::size_t threads =
        plan.mode == BuildMode::kParallel ? plan.threads : 1;
    context.ordering = pll::ToString(plan.ordering);
    context.seed = plan.seed;
    context.order = pll::ComputeOrder(g, plan.ordering, plan.seed, threads);
  }
  context.order_seconds = order_timer.Seconds();
  const util::WallTimer rank_space_timer;
  context.rank_graph = pll::ToRankSpace(g, context.order);
  context.rank_space_seconds = rank_space_timer.Seconds();
  return context;
}

pll::BuildManifest MakeManifest(const BuildPlan& plan,
                                const BuildContext& context) {
  pll::BuildManifest manifest;
  manifest.graph_fingerprint = context.graph_fingerprint;
  manifest.num_vertices = context.order.size();
  manifest.num_edges = context.num_edges;
  manifest.mode = ToString(plan.mode);
  manifest.ordering = context.ordering;
  manifest.policy = parallel::ToString(plan.policy);
  manifest.threads = static_cast<std::uint32_t>(
      plan.mode == BuildMode::kSerial ? 1 : plan.threads);
  manifest.nodes = static_cast<std::uint32_t>(
      plan.mode == BuildMode::kCluster ? plan.nodes : 1);
  manifest.sync_count = static_cast<std::uint32_t>(
      plan.mode == BuildMode::kCluster ? plan.sync_count : 1);
  manifest.seed = context.seed;
  // Build-progress fields start from the resume seed (zero on a fresh
  // build); the pipeline and the checkpointer advance them.
  manifest.roots_completed = context.start_rank;
  manifest.totals = context.seed_totals;
  manifest.wall_seconds = context.seed_wall_seconds;
  return manifest;
}

}  // namespace parapll::build
