// Reproduces paper Table 5: inter-node ParaPLL on 1-6 cluster nodes with
// static and dynamic intra-node policies — indexing time IT, speedup SP
// over one node, and average label size LN.
//
// The cluster runs on the in-process message fabric (ranks = threads) with
// per-node virtual-time simulation of the intra-node workers; see
// DESIGN.md. Deviation from the paper: the paper synchronizes once (c=1)
// on graphs 20-50x larger, where pruning-efficiency loss stays near 2-3x;
// at this reproduction scale c=1 redundancy would swamp the 6-way
// parallelism (measurable with bench_fig7_sync_frequency), so this table
// defaults to --sync=64. EXPERIMENTS.md discusses the regime difference.
#include "common.hpp"
#include "util/table.hpp"

namespace parapll::bench {
namespace {

int Run(int argc, char** argv) {
  util::ArgParser args(argv[0],
                       "Reproduces paper Table 5: cluster ParaPLL, 1-6 nodes");
  args.Flag("scale", "0.05", "fraction of paper dataset sizes")
      .Flag("datasets", "", "colon-separated subset (empty = all)")
      .Flag("sync", "64", "synchronization count c (paper: 1; see header)")
      .Flag("workers", "6", "intra-node workers per cluster node")
      .Flag("seed", "1", "generator seed");
  AddObsFlags(args);
  if (!args.Parse(argc, argv)) {
    return 1;
  }
  ObsSession obs_session(args);
  const auto sync = static_cast<std::size_t>(args.GetInt("sync"));
  const auto workers = static_cast<std::size_t>(args.GetInt("workers"));

  std::printf("=== Paper Table 5: ParaPLL on a compute cluster ===\n");
  std::printf("c=%zu syncs, %zu intra-node workers per node\n", sync,
              workers);

  const auto datasets =
      LoadDatasets(args.GetDouble("scale"), args.GetString("datasets"),
                   static_cast<std::uint64_t>(args.GetInt("seed")));

  util::Table table({"Dataset", "static IT1(s)", "sSP2", "sSP3", "sSP4",
                     "sSP5", "sSP6", "dyn IT1(s)", "dSP2", "dSP3", "dSP4",
                     "dSP5", "dSP6", "LN1", "LN2", "LN3", "LN4", "LN5",
                     "LN6"});

  for (const auto& d : datasets) {
    PrintDatasetHeader(d);
    // Calibrate virtual units to seconds with one real serial run.
    const double seconds_per_unit =
        build::CalibrateSecondsPerUnit(d.graph, kPaperOrdering,
                                       vtime::CostModel{});

    table.Row().Cell(d.spec.name);
    std::vector<double> dynamic_ln;
    for (const auto policy : {parallel::AssignmentPolicy::kStatic,
                              parallel::AssignmentPolicy::kDynamic}) {
      double base_makespan = 0.0;
      for (const int q : PaperNodeCounts()) {
        const auto result =
            build::Run(d.graph, {.mode = build::BuildMode::kCluster,
                                 .threads = workers,
                                 .nodes = static_cast<std::size_t>(q),
                                 .sync_count = sync,
                                 .policy = policy,
                                 .ordering = kPaperOrdering});
        const double ln = result.artifact.index.AvgLabelSize();
        if (q == 1) {
          base_makespan = result.makespan_units;
          table.Cell(result.makespan_units * seconds_per_unit, 3);
        } else {
          table.Cell(base_makespan / result.makespan_units, 2);
        }
        if (policy == parallel::AssignmentPolicy::kDynamic) {
          dynamic_ln.push_back(ln);
        }
        std::printf("  policy=%-7s nodes=%d IT=%8.3fs SP=%5.2f LN=%.1f "
                    "(comm %.0f%% of makespan)\n",
                    ToString(policy).c_str(), q,
                    result.makespan_units * seconds_per_unit,
                    base_makespan / result.makespan_units, ln,
                    100.0 * result.comm_units / result.makespan_units);
      }
    }
    for (const double ln : dynamic_ln) {
      table.Cell(ln, 0);
    }
  }

  std::printf("\n--- Table 5 summary (paper layout; LN from dynamic) ---\n");
  table.Print();
  return 0;
}

}  // namespace
}  // namespace parapll::bench

int main(int argc, char** argv) { return parapll::bench::Run(argc, argv); }
