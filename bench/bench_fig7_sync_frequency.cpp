// Reproduces paper Figure 7: how the synchronization count c influences
// cluster ParaPLL — (a)(b) indexing time and label size vs c, (c)(d) the
// communication / computation breakdown.
//
// Paper claims reproduced: label size shrinks monotonically as c grows
// (more syncs -> fewer redundant labels); communication time grows with c;
// total time is minimized at a small number of synchronizations.
// Regime note (EXPERIMENTS.md): at the paper's scale the optimum sits at
// c = 1; at this reproduction scale the pruning-efficiency loss of very
// small c is larger, which shifts the optimum to moderate c — the sweep
// makes the tradeoff (paper Fig. 4) directly visible either way.
#include "common.hpp"
#include "util/table.hpp"
#include "vtime/cost_model.hpp"

namespace parapll::bench {
namespace {

int Run(int argc, char** argv) {
  util::ArgParser args(argv[0],
                       "Reproduces paper Fig. 7: synchronization frequency");
  args.Flag("scale", "0.05", "fraction of paper dataset sizes")
      .Flag("datasets", "Gnutella:Epinions", "colon-separated subset")
      .Flag("nodes", "6", "cluster nodes (paper: 6)")
      .Flag("workers", "6", "intra-node workers per node")
      .Flag("seed", "1", "generator seed");
  AddObsFlags(args);
  if (!args.Parse(argc, argv)) {
    return 1;
  }
  ObsSession obs_session(args);
  const auto nodes = static_cast<std::size_t>(args.GetInt("nodes"));
  const auto workers = static_cast<std::size_t>(args.GetInt("workers"));

  std::printf("=== Paper Figure 7: synchronization-frequency sweep "
              "(%zu nodes) ===\n",
              nodes);

  const auto datasets =
      LoadDatasets(args.GetDouble("scale"), args.GetString("datasets"),
                   static_cast<std::uint64_t>(args.GetInt("seed")));

  for (const auto& d : datasets) {
    PrintDatasetHeader(d);
    const double seconds_per_unit =
        build::CalibrateSecondsPerUnit(d.graph, kPaperOrdering,
                                       vtime::CostModel{});

    util::Table table({"c (syncs)", "IT(s)", "LN", "comm(s)", "compute(s)",
                       "comm %", "entries exchanged", "fabric bytes"});
    for (const std::size_t c : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u}) {
      const auto result =
          build::Run(d.graph, {.mode = build::BuildMode::kCluster,
                               .threads = workers,
                               .nodes = nodes,
                               .sync_count = c,
                               .ordering = kPaperOrdering});
      table.Row()
          .Cell(static_cast<std::uint64_t>(c))
          .Cell(result.makespan_units * seconds_per_unit, 3)
          .Cell(result.artifact.index.AvgLabelSize(), 1)
          .Cell(result.comm_units * seconds_per_unit, 3)
          .Cell(result.compute_units * seconds_per_unit, 3)
          .Cell(100.0 * result.comm_units / result.makespan_units, 1)
          .Cell(static_cast<std::uint64_t>(result.entries_exchanged))
          .Cell(result.bytes_exchanged);
    }
    table.Print();
  }
  return 0;
}

}  // namespace
}  // namespace parapll::bench

int main(int argc, char** argv) { return parapll::bench::Run(argc, argv); }
