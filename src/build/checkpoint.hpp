// Mid-build snapshots: make a multi-hour index build interruptible.
//
// The safety argument leans on the same relaxed-visibility induction that
// makes parallel ParaPLL correct (paper Propositions 1–2). Define the
// frontier F as a rank such that every root with rank < F has fully
// finished. Pruned Dijkstra from root r only ever consults hubs with rank
// < r, so the label entries with hub < F form a complete, final prefix of
// the index — entries from in-flight or finished roots >= F can be
// discarded and re-derived. A checkpoint therefore persists exactly that
// prefix (labels.SnapshotRows(F)) plus the order and a manifest whose
// roots_completed == F. A resumed build seeds its store from the prefix
// and schedules roots [F, n); roots that had partially or fully run after
// F are simply re-run, producing redundant-but-never-wrong labels that
// FromRows dedups. Query answers equal an uninterrupted build's.
//
// Snapshots are written atomically (IndexArtifact::Save) so dying mid-
// write leaves the previous checkpoint usable, one writer at a time and
// outside the lock workers report to, so a write stalls only the worker
// that makes it. The process-wide registry at the bottom lets a
// SIGINT/SIGTERM flush hook (obs::ScopedSignalFlush) leave a snapshot of
// whatever build is active before the process exits.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "graph/types.hpp"
#include "pll/label_store.hpp"
#include "pll/manifest.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace parapll::build {

struct CheckpointOptions {
  std::string dir;  // snapshots land in dir + "/checkpoint.bin"
  // Snapshot every `every` finished roots. 0 = never periodically; the
  // checkpointer then only writes in Finish() or on the signal path.
  graph::VertexId every = 0;
};

class Checkpointer {
 public:
  // Returns every label row restricted to hubs < limit — the finalized
  // prefix. Must be safe to call while workers are still appending
  // (MutableLabels::SnapshotRows / ConcurrentLabelStore::SnapshotRows).
  using SnapshotRowsFn =
      std::function<std::vector<std::vector<pll::LabelEntry>>(
          graph::VertexId limit)>;

  // `manifest` is the build's provenance stub (cursor/totals/wall filled
  // per snapshot); `order` is the build's rank -> vertex permutation.
  // Registers itself for SnapshotActiveBuilds() until destruction.
  Checkpointer(CheckpointOptions options, pll::BuildManifest manifest,
               std::vector<graph::VertexId> order, SnapshotRowsFn rows);
  ~Checkpointer();

  Checkpointer(const Checkpointer&) = delete;
  Checkpointer& operator=(const Checkpointer&) = delete;

  // Driver callback after each finished root: folds the root's stats into
  // the running totals, remembers the new frontier, and snapshots when
  // `every` more roots have finished since the last write. The write runs
  // on the calling thread after the lock is released; while another
  // write is in flight the due snapshot waits for a later root.
  // Thread-safe.
  void OnRootFinished(graph::VertexId frontier, const pll::PruneStats& stats,
                      double wall_seconds);

  // Root-loop driver hooks. From BeginDrain on, workers append to the
  // rows, so SnapshotActiveBuilds must not read them: it sets
  // HaltRequested, which the loop polls before every claim, and waits for
  // the checkpointer's destruction. The driver calls Finish after the
  // workers join; it writes the final snapshot of the latest recorded
  // frontier when the drain stopped early or a halt was requested.
  void BeginDrain();
  [[nodiscard]] bool HaltRequested() const;
  void Finish(bool complete);

  [[nodiscard]] std::string FilePath() const;
  [[nodiscard]] std::size_t SnapshotsWritten() const;
  [[nodiscard]] graph::VertexId LastFrontier() const;

 private:
  // Where a root loop stands, for the signal path.
  enum class Drain { kNone, kRunning, kFinished };

  // Claims the writer slot and returns the manifest of the current
  // frontier; Write() releases the slot.
  pll::BuildManifest BeginWriteLocked() REQUIRES(mutex_);
  void Write(pll::BuildManifest manifest) EXCLUDES(mutex_);
  // The signal path's snapshot (see BeginDrain).
  void SnapshotOrHalt();
  friend void SnapshotActiveBuilds();

  // Ctor-only, then read-only.
  CheckpointOptions options_;
  pll::BuildManifest manifest_;
  std::vector<graph::VertexId> order_;
  SnapshotRowsFn rows_;

  mutable util::Mutex mutex_;
  graph::VertexId frontier_ GUARDED_BY(mutex_) = 0;
  // This run's roots only.
  pll::PruneStats totals_ GUARDED_BY(mutex_);
  // Carried over from a resumed run; ctor-only, then read-only.
  pll::PruneStats seed_totals_;
  double wall_seconds_ GUARDED_BY(mutex_) = 0.0;
  double seed_wall_seconds_ = 0.0;  // ctor-only, then read-only
  graph::VertexId finished_since_snapshot_ GUARDED_BY(mutex_) = 0;
  std::size_t snapshots_ GUARDED_BY(mutex_) = 0;
  bool writing_ GUARDED_BY(mutex_) = false;
  Drain drain_ GUARDED_BY(mutex_) = Drain::kNone;
  // Signals the end of a write and each drain_ change.
  util::CondVar changed_;
  // Set by the signal path, polled by the root loop before each claim.
  std::atomic<bool> halt_{false};
};

// The signal path. A build whose root loop runs is halted and its
// driver's final snapshot awaited; one whose loop has not started is
// snapshotted directly; one whose loop has finished keeps what its driver
// wrote. A halted build::Run returns incomplete, as under --halt-after.
// Wired into the CLI's signal-flush hook, which then ends the process
// without writing --out, so ^C on a long build leaves a resumable
// checkpoint behind and no partial index.
void SnapshotActiveBuilds();

}  // namespace parapll::build
