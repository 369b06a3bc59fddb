// Umbrella header: everything a downstream user of ParaPLL needs.
//
//   #include "core/parapll.hpp"
//
//   auto g = parapll::graph::BarabasiAlbert(...);
//   auto outcome = parapll::build::Run(
//       g, {.mode = parapll::build::BuildMode::kParallel, .threads = 8});
//   auto d = outcome.artifact.index.Query(s, t);
#pragma once

#include "baseline/bidirectional_dijkstra.hpp"
#include "baseline/dijkstra.hpp"
#include "baseline/floyd_warshall.hpp"
#include "baseline/landmark_estimator.hpp"
#include "baseline/oracle.hpp"
#include "build/pipeline.hpp"
#include "cluster/cluster_indexer.hpp"
#include "cluster/comm.hpp"
#include "graph/components.hpp"
#include "graph/datasets.hpp"
#include "graph/degree.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "obs/expose.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "pll/index.hpp"
#include "pll/knn_engine.hpp"
#include "pll/verify.hpp"
#include "query/query_engine.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"
