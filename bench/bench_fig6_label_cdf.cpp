// Reproduces paper Figure 6: cumulative distribution of the number of
// label entries added by the x-th Pruned Dijkstra invocation — serial PLL
// vs ParaPLL with the static and dynamic policies.
//
// The paper's observation: ~90% of all distances are in the index after
// about a hundred invocations, and the parallel traces track the serial
// one (no apparent pruning-efficiency gap).
#include "common.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace parapll::bench {
namespace {

// Labels added per root, in the order the build traced its roots.
util::CumulativeSeries TraceToSeries(const build::BuildOutcome& outcome) {
  util::CumulativeSeries series;
  for (const auto& [root, stats] : outcome.trace) {
    series.Append(stats.labels_added);
  }
  return series;
}

int Run(int argc, char** argv) {
  util::ArgParser args(
      argv[0], "Reproduces paper Fig. 6: CDF of labels added per root");
  args.Flag("scale", "0.05", "fraction of paper dataset sizes")
      .Flag("datasets", "Gnutella:Epinions", "colon-separated subset")
      .Flag("workers", "8", "simulated ParaPLL workers")
      .Flag("points", "12", "CDF sample points (geometric in x)")
      .Flag("seed", "1", "generator seed");
  AddObsFlags(args);
  if (!args.Parse(argc, argv)) {
    return 1;
  }
  ObsSession obs_session(args);
  const auto workers = static_cast<std::size_t>(args.GetInt("workers"));
  const auto points = static_cast<std::size_t>(args.GetInt("points"));

  std::printf("=== Paper Figure 6: CDF of labels added by x-th Pruned "
              "Dijkstra ===\n");

  const auto datasets =
      LoadDatasets(args.GetDouble("scale"), args.GetString("datasets"),
                   static_cast<std::uint64_t>(args.GetInt("seed")));

  for (const auto& d : datasets) {
    PrintDatasetHeader(d);

    const auto serial_series =
        TraceToSeries(build::Run(
            d.graph, {.ordering = kPaperOrdering, .record_trace = true}));
    build::BuildPlan simulated{.mode = build::BuildMode::kSimulated,
                               .threads = workers,
                               .policy = parallel::AssignmentPolicy::kStatic,
                               .ordering = kPaperOrdering,
                               .record_trace = true};
    const auto static_series =
        TraceToSeries(build::Run(d.graph, simulated));
    simulated.policy = parallel::AssignmentPolicy::kDynamic;
    const auto dynamic_series =
        TraceToSeries(build::Run(d.graph, simulated));

    util::Table table({"x-th invocation", "PLL CDF", "static CDF",
                       "dynamic CDF"});
    for (const auto& [step, fraction] : serial_series.SampleGeometric(points)) {
      table.Row()
          .Cell(static_cast<std::uint64_t>(step))
          .Cell(fraction, 3)
          .Cell(static_series.FractionAt(step), 3)
          .Cell(dynamic_series.FractionAt(step), 3);
    }
    table.Print();
    const std::size_t hundred = std::min<std::size_t>(100, d.graph.NumVertices());
    std::printf("fraction after %zu invocations: serial %.2f, static %.2f, "
                "dynamic %.2f (paper: ~0.90)\n",
                hundred, serial_series.FractionAt(hundred),
                static_series.FractionAt(hundred),
                dynamic_series.FractionAt(hundred));
  }
  return 0;
}

}  // namespace
}  // namespace parapll::bench

int main(int argc, char** argv) { return parapll::bench::Run(argc, argv); }
