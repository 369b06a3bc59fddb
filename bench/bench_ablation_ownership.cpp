// Ablation for the inter-node task assignment (paper §4.5: "the task
// assignment among different nodes is static" over the degree-ordered
// queue, i.e. round-robin): round-robin vs contiguous blocks vs random.
//
// Round-robin gives every node a proportional slice of the high-rank
// (high-pruning-power) vertices; block assignment starves all but the
// first node of top hubs, inflating labels and skewing per-node load.
#include "common.hpp"
#include "util/table.hpp"
#include "vtime/cost_model.hpp"

namespace parapll::bench {
namespace {

int Run(int argc, char** argv) {
  util::ArgParser args(argv[0],
                       "Ablation: inter-node ownership policies");
  args.Flag("scale", "0.05", "fraction of paper dataset sizes")
      .Flag("datasets", "Gnutella:Epinions", "colon-separated subset")
      .Flag("nodes", "4", "cluster nodes")
      .Flag("sync", "16", "synchronization count")
      .Flag("seed", "1", "generator seed");
  AddObsFlags(args);
  if (!args.Parse(argc, argv)) {
    return 1;
  }
  ObsSession obs_session(args);
  const auto nodes = static_cast<std::size_t>(args.GetInt("nodes"));
  const auto sync = static_cast<std::size_t>(args.GetInt("sync"));

  std::printf("=== Ablation: inter-node task assignment (paper SS4.5) ===\n");

  const auto datasets =
      LoadDatasets(args.GetDouble("scale"), args.GetString("datasets"),
                   static_cast<std::uint64_t>(args.GetInt("seed")));

  util::Table table({"Dataset", "ownership", "IT(s)", "LN", "makespan units",
                     "max/min node compute"});
  for (const auto& d : datasets) {
    const double seconds_per_unit =
        build::CalibrateSecondsPerUnit(d.graph, kPaperOrdering,
                                       vtime::CostModel{});
    for (const auto ownership :
         {cluster::OwnershipPolicy::kRoundRobin,
          cluster::OwnershipPolicy::kBlock,
          cluster::OwnershipPolicy::kRandom}) {
      const auto result =
          build::Run(d.graph, {.mode = build::BuildMode::kCluster,
                               .nodes = nodes,
                               .sync_count = sync,
                               .ordering = kPaperOrdering,
                               .ownership = ownership});
      const double max_compute =
          *std::max_element(result.node_compute_units.begin(),
                            result.node_compute_units.end());
      const double min_compute =
          *std::min_element(result.node_compute_units.begin(),
                            result.node_compute_units.end());
      table.Row()
          .Cell(d.spec.name)
          .Cell(cluster::ToString(ownership))
          .Cell(result.makespan_units * seconds_per_unit, 3)
          .Cell(result.artifact.index.AvgLabelSize(), 1)
          .Cell(result.makespan_units, 0)
          .Cell(min_compute > 0 ? max_compute / min_compute : 0.0, 2);
    }
  }
  table.Print();
  return 0;
}

}  // namespace
}  // namespace parapll::bench

int main(int argc, char** argv) { return parapll::bench::Run(argc, argv); }
