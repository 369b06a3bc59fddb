// Shared driver for paper Tables 3 (static policy) and 4 (dynamic policy):
// ParaPLL vs serial PLL across thread counts — indexing time IT, speedup
// SP, average label size LN.
//
// The serial column is measured wall time. The thread sweep runs under the
// deterministic virtual-time scheduler (src/vtime/) so that a p-worker
// schedule — and hence SP and LN — is reproducible on this one-core
// machine; IT(s) for one thread is real wall time and the calibration of
// virtual units to seconds comes from that same run
// (build::CalibrateSecondsPerUnit). Every build uses the paper's degree
// order (kPaperOrdering).
#pragma once

#include "common.hpp"
#include "util/table.hpp"

namespace parapll::bench {

inline int RunTable34(parallel::AssignmentPolicy policy, const char* table_id,
                      int argc, char** argv) {
  util::ArgParser args(argv[0],
                       std::string("Reproduces paper ") + table_id +
                           ": ParaPLL (" + ToString(policy) +
                           " assignment) vs serial PLL");
  args.Flag("scale", "0.05", "fraction of paper dataset sizes")
      .Flag("datasets", "", "colon-separated subset (empty = all)")
      .Flag("seed", "1", "generator seed");
  AddObsFlags(args);
  if (!args.Parse(argc, argv)) {
    return 1;
  }
  ObsSession obs_session(args);

  std::printf("=== Paper %s: ParaPLL with %s assignment policy ===\n",
              table_id, ToString(policy).c_str());
  std::printf("IT = indexing time, SP = speedup vs 1 thread, "
              "LN = avg label size\n");

  const auto datasets =
      LoadDatasets(args.GetDouble("scale"), args.GetString("datasets"),
                   static_cast<std::uint64_t>(args.GetInt("seed")));
  const auto threads = PaperThreadCounts();

  util::Table table({"Dataset", "PLL IT(s)", "1T IT(s)", "SP2", "SP4", "SP6",
                     "SP8", "SP10", "SP12", "LN1", "LN2", "LN4", "LN6",
                     "LN8", "LN10", "LN12"});

  for (const auto& d : datasets) {
    PrintDatasetHeader(d);

    // Serial PLL baseline (real wall time) — the "PLL" column.
    double serial_seconds = 0.0;
    const double seconds_per_unit = build::CalibrateSecondsPerUnit(
        d.graph, kPaperOrdering, vtime::CostModel{}, &serial_seconds);

    std::vector<double> makespans;
    std::vector<double> label_sizes;
    for (const int p : threads) {
      const auto result =
          build::Run(d.graph, {.mode = build::BuildMode::kSimulated,
                               .threads = static_cast<std::size_t>(p),
                               .policy = policy,
                               .ordering = kPaperOrdering});
      const double ln = result.artifact.index.AvgLabelSize();
      makespans.push_back(result.makespan_units);
      label_sizes.push_back(ln);
      std::printf("  threads=%-2d IT=%8.3fs  SP=%5.2f  LN=%.1f\n", p,
                  result.makespan_units * seconds_per_unit,
                  makespans.front() / result.makespan_units, ln);
    }

    table.Row()
        .Cell(d.spec.name)
        .Cell(serial_seconds, 3)
        .Cell(makespans[0] * seconds_per_unit, 3);
    for (std::size_t i = 1; i < makespans.size(); ++i) {
      table.Cell(makespans[0] / makespans[i], 2);
    }
    for (const double ln : label_sizes) {
      table.Cell(ln, 0);
    }
  }

  std::printf("\n--- %s summary (paper layout) ---\n", table_id);
  table.Print();
  return 0;
}

}  // namespace parapll::bench
