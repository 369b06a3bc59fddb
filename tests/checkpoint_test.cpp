// Checkpoint/resume: an interrupted build must leave a resumable artifact
// whose continuation answers every query exactly like an uninterrupted
// build. Entry-count equality is NOT the contract — re-run roots may add
// redundant labels (paper Propositions 1–2) — query equality is.
#include "build/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "build/artifact.hpp"
#include "build/build_plan.hpp"
#include "build/pipeline.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "pll/index.hpp"
#include "pll/label_store.hpp"
#include "pll/verify.hpp"

namespace parapll::build {
namespace {

graph::Graph TestGraph() {
  return graph::BarabasiAlbert(150, 3, {graph::WeightModel::kUniform, 40},
                               17);
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "parapll_" + name;
  std::filesystem::create_directories(dir);
  std::remove((dir + "/checkpoint.bin").c_str());
  return dir;
}

pll::BuildManifest StubManifest(const graph::Graph& g,
                                graph::VertexId roots_completed) {
  pll::BuildManifest manifest;
  manifest.graph_fingerprint = graph::Fingerprint(g);
  manifest.num_vertices = g.NumVertices();
  manifest.num_edges = g.NumEdges();
  manifest.mode = "serial";
  manifest.ordering = "degree";
  manifest.policy = "dynamic";
  manifest.roots_completed = roots_completed;
  return manifest;
}

class CheckpointModes : public ::testing::TestWithParam<BuildMode> {};

TEST_P(CheckpointModes, InterruptedBuildResumesToQueryEqualIndex) {
  const graph::Graph g = TestGraph();
  const std::string dir =
      FreshDir(std::string("resume_") + ToString(GetParam()));

  BuildPlan halted;
  halted.mode = GetParam();
  halted.threads = GetParam() == BuildMode::kParallel ? 4 : 1;
  halted.halt_after_roots = 30;
  halted.checkpoint_dir = dir;
  halted.checkpoint_every = 10;
  const BuildOutcome partial = build::Run(g, halted);
  EXPECT_FALSE(partial.complete);
  EXPECT_TRUE(partial.artifact.IsCheckpoint());
  const std::uint64_t frontier = partial.artifact.Manifest().roots_completed;
  EXPECT_GE(frontier, 30u);  // >= : in-flight overshoot may finish extras
  EXPECT_LT(frontier, g.NumVertices());

  // The on-disk checkpoint is the same shape as the returned artifact.
  const IndexArtifact on_disk = IndexArtifact::LoadFor(dir + "/checkpoint.bin", g);
  EXPECT_TRUE(on_disk.IsCheckpoint());
  EXPECT_GE(on_disk.Manifest().roots_completed, 30u);

  BuildPlan resumed_plan;
  resumed_plan.mode = GetParam();
  resumed_plan.threads = halted.threads;
  resumed_plan.resume_dir = dir;
  const BuildOutcome resumed = build::Run(g, resumed_plan);
  EXPECT_TRUE(resumed.complete);
  const pll::BuildManifest& manifest = resumed.artifact.Manifest();
  EXPECT_TRUE(manifest.IsComplete());
  // Work accounting spans both runs: the resumed manifest's totals must
  // strictly exceed this run's share by the seeded checkpoint's.
  EXPECT_GT(manifest.totals.labels_added, resumed.totals.labels_added);

  const pll::Index& index = resumed.artifact.index;
  EXPECT_TRUE(pll::VerifySampled(g, index, 400, 23).Ok());

  // Query equality against an uninterrupted build on the full pair grid
  // sample (not entry-count equality; see file comment).
  BuildPlan straight;
  straight.mode = GetParam();
  straight.threads = halted.threads;
  const pll::Index uninterrupted = build::Run(g, straight).artifact.index;
  for (graph::VertexId s = 0; s < g.NumVertices(); s += 4) {
    for (graph::VertexId t = 1; t < g.NumVertices(); t += 6) {
      ASSERT_EQ(index.Query(s, t), uninterrupted.Query(s, t))
          << "(" << s << ", " << t << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SerialAndParallel, CheckpointModes,
                         ::testing::Values(BuildMode::kSerial,
                                           BuildMode::kParallel),
                         [](const auto& info) { return ToString(info.param); });

TEST(Checkpoint, PeriodicSnapshotsAdvanceTheFrontier) {
  const graph::Graph g = TestGraph();
  const std::string dir = FreshDir("periodic");
  BuildPlan plan;
  plan.mode = BuildMode::kSerial;
  plan.halt_after_roots = 45;
  plan.checkpoint_dir = dir;
  plan.checkpoint_every = 10;
  const BuildOutcome outcome = build::Run(g, plan);
  EXPECT_FALSE(outcome.complete);
  // 45 finished roots at every=10 → at least 4 periodic writes + the
  // final flush, all landing atomically on the same file.
  const IndexArtifact checkpoint =
      IndexArtifact::LoadFor(dir + "/checkpoint.bin", g);
  EXPECT_EQ(checkpoint.Manifest().roots_completed, 45u);
}

TEST(Checkpoint, CheckpointerTracksFrontierAndSnapshotCount) {
  const graph::Graph g = graph::Path(6, {graph::WeightModel::kUnit, 1}, 1);
  const std::string dir = FreshDir("direct");
  std::vector<std::vector<pll::LabelEntry>> rows(6);
  rows[0] = {{0, 0}};
  rows[1] = {{0, 1}, {1, 0}};

  Checkpointer checkpointer(
      {dir, 2}, StubManifest(g, 0), {0, 1, 2, 3, 4, 5},
      [&rows](graph::VertexId limit) {
        std::vector<std::vector<pll::LabelEntry>> out(rows.size());
        for (std::size_t v = 0; v < rows.size(); ++v) {
          for (const pll::LabelEntry& entry : rows[v]) {
            if (entry.hub < limit) {
              out[v].push_back(entry);
            }
          }
        }
        return out;
      });
  EXPECT_EQ(checkpointer.FilePath(), dir + "/checkpoint.bin");
  EXPECT_EQ(checkpointer.SnapshotsWritten(), 0u);

  pll::PruneStats stats;
  stats.labels_added = 1;
  checkpointer.OnRootFinished(1, stats, 0.5);
  EXPECT_EQ(checkpointer.SnapshotsWritten(), 0u);  // every=2: not yet
  checkpointer.OnRootFinished(2, stats, 1.0);
  EXPECT_EQ(checkpointer.SnapshotsWritten(), 1u);
  EXPECT_EQ(checkpointer.LastFrontier(), 2u);
  // A worker that computed its frontier before the last report may
  // deliver it after: the cursor must not move back.
  checkpointer.OnRootFinished(1, stats, 1.0);
  EXPECT_EQ(checkpointer.LastFrontier(), 2u);

  // The signal path writes whatever frontier is current.
  SnapshotActiveBuilds();
  EXPECT_EQ(checkpointer.SnapshotsWritten(), 2u);

  const IndexArtifact artifact = IndexArtifact::Load(checkpointer.FilePath());
  EXPECT_EQ(artifact.Manifest().roots_completed, 2u);
  EXPECT_EQ(artifact.Manifest().totals.labels_added, 3u);
  EXPECT_DOUBLE_EQ(artifact.Manifest().wall_seconds, 1.0);
  // Only hubs < frontier survive into the snapshot.
  EXPECT_EQ(artifact.index.Store().TotalEntries(), 3u);
}

TEST(Checkpoint, ArtifactSaveLoadRoundTripsManifest) {
  const graph::Graph g = TestGraph();
  BuildPlan plan;
  plan.seed = 99;
  const BuildOutcome outcome = build::Run(g, plan);
  const std::string path = ::testing::TempDir() + "parapll_roundtrip.bin";
  outcome.artifact.Save(path);
  const IndexArtifact loaded = IndexArtifact::Load(path);
  EXPECT_EQ(loaded.Manifest(), outcome.artifact.Manifest());
  EXPECT_TRUE(pll::VerifySampled(g, loaded.index, 200, 31).Ok());
  std::remove(path.c_str());
}

TEST(Checkpoint, ResumeRejectsMismatchedGraph) {
  const graph::Graph g = TestGraph();
  const std::string dir = FreshDir("mismatch");
  BuildPlan plan;
  plan.halt_after_roots = 20;
  plan.checkpoint_dir = dir;
  EXPECT_FALSE(build::Run(g, plan).complete);

  // Same vertex count, different edges: the fingerprint must catch it.
  const graph::Graph other = graph::BarabasiAlbert(
      150, 3, {graph::WeightModel::kUniform, 40}, 18);
  BuildPlan resume;
  resume.resume_dir = dir;
  EXPECT_THROW(build::Run(other, resume), std::runtime_error);

  BuildPlan missing;
  missing.resume_dir = FreshDir("never_written");
  EXPECT_THROW(build::Run(g, missing), std::runtime_error);
}

// A valid checkpoint holds only hubs below its roots_completed cursor,
// and the pruning probe indexes a per-root array with every hub it reads.
// A checkpoint row holding a hub >= n, or one in [cursor, n), must fail
// the resume before any root runs.
TEST(Checkpoint, ResumeRejectsHubsAtOrBeyondTheCursor) {
  const graph::Graph g = TestGraph();
  const graph::VertexId n = g.NumVertices();
  const std::string dir = FreshDir("hub_range");
  BuildPlan plan;
  plan.halt_after_roots = 20;
  plan.checkpoint_dir = dir;
  ASSERT_FALSE(build::Run(g, plan).complete);
  const std::string path = dir + "/checkpoint.bin";
  const IndexArtifact valid = IndexArtifact::Load(path);
  const auto cursor =
      static_cast<graph::VertexId>(valid.Manifest().roots_completed);
  ASSERT_GT(cursor, 0u);
  ASSERT_LT(cursor + 1, n);

  obs::Registry& registry = obs::Registry::Global();
  for (const graph::VertexId hub : {n + 3, cursor + 1}) {
    std::vector<std::vector<pll::LabelEntry>> rows =
        valid.index.Store().ToRows();
    rows[0].push_back({hub, 1});  // the row's largest hub: still sorted
    pll::Index tampered(pll::LabelStore::FromRows(std::move(rows)),
                        valid.index.Order());
    tampered.SetManifest(valid.Manifest());
    IndexArtifact{std::move(tampered)}.Save(path);

    BuildPlan resume;
    resume.resume_dir = dir;
    registry.Reset();
    obs::SetMetricsEnabled(true);
    EXPECT_THROW(build::Run(g, resume), std::runtime_error) << "hub " << hub;
    obs::SetMetricsEnabled(false);
    EXPECT_EQ(registry.GetCounter("pll.roots_expanded").Value(), 0u)
        << "hub " << hub;
  }
}

TEST(Checkpoint, ResumingACompleteBuildIsANoOpBuild) {
  const graph::Graph g = TestGraph();
  const std::string dir = FreshDir("complete");
  BuildPlan plan;
  const BuildOutcome full = build::Run(g, plan);
  full.artifact.Save(dir + "/checkpoint.bin");

  BuildPlan resume;
  resume.resume_dir = dir;
  const BuildOutcome resumed = build::Run(g, resume);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.roots_finished, 0u);  // nothing left to schedule
  EXPECT_EQ(resumed.artifact.Manifest().totals.labels_added,
            full.artifact.Manifest().totals.labels_added);
  EXPECT_TRUE(pll::VerifySampled(g, resumed.artifact.index, 200, 41).Ok());
}

}  // namespace
}  // namespace parapll::build
