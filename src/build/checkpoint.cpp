#include "build/checkpoint.hpp"

#include <algorithm>
#include <ctime>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "build/artifact.hpp"
#include "obs/metrics.hpp"
#include "pll/index.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace parapll::build {

namespace {

// Live checkpointers, for the signal-flush path. A build registers at
// most one; the vector form keeps nested builds (tests) correct.
util::Mutex g_active_mutex;
std::vector<Checkpointer*> g_active GUARDED_BY(g_active_mutex);

}  // namespace

Checkpointer::Checkpointer(CheckpointOptions options,
                           pll::BuildManifest manifest,
                           std::vector<graph::VertexId> order,
                           SnapshotRowsFn rows)
    : options_(std::move(options)),
      manifest_(std::move(manifest)),
      order_(std::move(order)),
      rows_(std::move(rows)),
      frontier_(static_cast<graph::VertexId>(manifest_.roots_completed)),
      seed_totals_(manifest_.totals),
      seed_wall_seconds_(manifest_.wall_seconds) {
  // Fail at construction, not mid-build, if the directory can't exist.
  std::error_code ec;
  std::filesystem::create_directories(options_.dir, ec);
  if (ec) {
    throw std::runtime_error("error: cannot create checkpoint directory " +
                             options_.dir + ": " + ec.message());
  }
  util::MutexLock lock(g_active_mutex);
  g_active.push_back(this);
}

Checkpointer::~Checkpointer() {
  {
    // Releases a signal path that waits for the driver (it holds
    // g_active_mutex until it returns), however the build ended.
    util::MutexLock lock(mutex_);
    drain_ = Drain::kFinished;
    changed_.NotifyAll();
  }
  util::MutexLock lock(g_active_mutex);
  std::erase(g_active, this);
}

std::string Checkpointer::FilePath() const {
  return options_.dir + "/checkpoint.bin";
}

std::size_t Checkpointer::SnapshotsWritten() const {
  util::MutexLock lock(mutex_);
  return snapshots_;
}

graph::VertexId Checkpointer::LastFrontier() const {
  util::MutexLock lock(mutex_);
  return frontier_;
}

void Checkpointer::OnRootFinished(graph::VertexId frontier,
                                  const pll::PruneStats& stats,
                                  double wall_seconds) {
  pll::BuildManifest due;
  {
    util::MutexLock lock(mutex_);
    // Workers compute their frontier under the scheduler's lock but
    // report it after releasing that lock, so an older, smaller frontier
    // can arrive after a newer one. Frontiers only grow; never move back.
    frontier_ = std::max(frontier_, frontier);
    totals_ += stats;
    wall_seconds_ = wall_seconds;
    ++finished_since_snapshot_;
    if (options_.every == 0 || finished_since_snapshot_ < options_.every ||
        writing_) {
      return;
    }
    due = BeginWriteLocked();
  }
  Write(std::move(due));
}

void Checkpointer::BeginDrain() {
  util::MutexLock lock(mutex_);
  while (writing_) {
    changed_.Wait(mutex_);  // a signal-path write still reads the rows
  }
  drain_ = Drain::kRunning;
}

bool Checkpointer::HaltRequested() const { return halt_.load(); }

void Checkpointer::Finish(bool complete) {
  if (complete && !HaltRequested()) {
    return;
  }
  pll::BuildManifest due;
  {
    util::MutexLock lock(mutex_);
    while (writing_) {
      changed_.Wait(mutex_);
    }
    due = BeginWriteLocked();  // final flush at the halt frontier
  }
  Write(std::move(due));
}

void Checkpointer::SnapshotOrHalt() {
  pll::BuildManifest due;
  {
    util::MutexLock lock(mutex_);
    while (drain_ == Drain::kNone && writing_) {
      changed_.Wait(mutex_);
    }
    if (drain_ == Drain::kRunning) {
      halt_.store(true);
      while (drain_ == Drain::kRunning) {
        changed_.Wait(mutex_);
      }
    }
    if (drain_ == Drain::kFinished) {
      return;  // the driver wrote its final snapshot; rows may be gone
    }
    // No root loop appends to the rows, and BeginDrain waits for this
    // write to end.
    due = BeginWriteLocked();
  }
  Write(std::move(due));
}

pll::BuildManifest Checkpointer::BeginWriteLocked() {
  writing_ = true;
  finished_since_snapshot_ = 0;
  pll::BuildManifest manifest = manifest_;
  manifest.roots_completed = frontier_;
  manifest.totals = seed_totals_;
  manifest.totals += totals_;  // work *expended*, rerun roots included
  manifest.wall_seconds = seed_wall_seconds_ + wall_seconds_;
  manifest.created_unix =
      static_cast<std::uint64_t>(std::time(nullptr));
  return manifest;
}

void Checkpointer::Write(pll::BuildManifest manifest) {
  const util::WallTimer write_timer;
  const auto frontier =
      static_cast<graph::VertexId>(manifest.roots_completed);
  // Releases the writer slot however the write ends.
  auto end_write = [this](std::size_t written) {
    util::MutexLock lock(mutex_);
    writing_ = false;
    snapshots_ += written;
    changed_.NotifyAll();
  };
  try {
    // Entries with hubs below the frontier are final, so reading them
    // while workers append entries of later hubs is safe.
    pll::Index index(pll::LabelStore::FromRows(rows_(frontier)), order_);
    index.SetManifest(std::move(manifest));
    IndexArtifact{std::move(index)}.Save(FilePath());
  } catch (...) {
    end_write(0);
    throw;
  }
  end_write(1);
  if (obs::MetricsEnabled()) {
    auto& registry = obs::Registry::Global();
    registry.GetCounter("build.checkpoint.snapshots").Add(1);
    registry.GetGauge("build.checkpoint.last_roots")
        .Set(static_cast<double>(frontier));
    registry.GetHistogram("build.checkpoint.write_ns")
        .Record(static_cast<std::uint64_t>(write_timer.Seconds() * 1e9));
  }
}

void SnapshotActiveBuilds() {
  // Held throughout: a Checkpointer unregisters in its destructor, so
  // none can be destroyed while this call uses it.
  util::MutexLock lock(g_active_mutex);
  for (Checkpointer* checkpointer : g_active) {
    checkpointer->SnapshotOrHalt();
  }
}

}  // namespace parapll::build
