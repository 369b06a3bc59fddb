// Ablation for the shared-label-store concurrency control (paper Alg. 2
// uses one global semaphore): global mutex vs striped mutexes vs per-row
// spinlocks, under the real-thread intra-node indexer.
//
// On a single-core host the wall-clock spread is muted (no true
// contention); the bench still validates that all modes agree on the
// index and reports the measured times and operation counts.
#include "common.hpp"
#include "util/table.hpp"

namespace parapll::bench {
namespace {

int Run(int argc, char** argv) {
  util::ArgParser args(argv[0],
                       "Ablation: label-store lock granularity");
  args.Flag("scale", "0.05", "fraction of paper dataset sizes")
      .Flag("datasets", "Epinions", "colon-separated subset")
      .Flag("threads", "2,4,8", "thread counts to sweep")
      .Flag("seed", "1", "generator seed");
  AddObsFlags(args);
  if (!args.Parse(argc, argv)) {
    return 1;
  }
  ObsSession obs_session(args);

  std::printf("=== Ablation: lock granularity (paper Alg. 2 semaphore) ===\n");

  const auto datasets =
      LoadDatasets(args.GetDouble("scale"), args.GetString("datasets"),
                   static_cast<std::uint64_t>(args.GetInt("seed")));
  const auto thread_counts = util::ParseIntList(args.GetString("threads"));

  util::Table table({"Dataset", "threads", "lock", "IT(s)", "LN",
                     "labels", "probes"});
  for (const auto& d : datasets) {
    for (const int threads : thread_counts) {
      std::size_t reference_entries = 0;
      for (const auto mode :
           {parallel::LockMode::kGlobal, parallel::LockMode::kStriped,
            parallel::LockMode::kPerRow}) {
        const auto result =
            build::Run(d.graph, {.mode = build::BuildMode::kParallel,
                                 .threads = static_cast<std::size_t>(threads),
                                 .policy = parallel::AssignmentPolicy::kDynamic,
                                 .ordering = kPaperOrdering,
                                 .lock_mode = mode});
        const pll::Index& index = result.artifact.index;
        if (reference_entries == 0) {
          reference_entries = index.TotalEntries();
        }
        table.Row()
            .Cell(d.spec.name)
            .Cell(threads)
            .Cell(ToString(mode))
            .Cell(result.wall_seconds, 3)
            .Cell(index.AvgLabelSize(), 1)
            .Cell(static_cast<std::uint64_t>(index.TotalEntries()))
            .Cell(static_cast<std::uint64_t>(result.totals.probe_entries));
      }
    }
  }
  table.Print();
  return 0;
}

}  // namespace
}  // namespace parapll::bench

int main(int argc, char** argv) { return parapll::bench::Run(argc, argv); }
