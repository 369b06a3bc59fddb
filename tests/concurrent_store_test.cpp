#include "parapll/concurrent_label_store.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace parapll::parallel {
namespace {

class ConcurrentStoreModes : public ::testing::TestWithParam<LockMode> {};

TEST_P(ConcurrentStoreModes, SingleThreadAppendAndRead) {
  ConcurrentLabelStore store(4, GetParam());
  store.Append(0, 1, 10);
  store.Append(0, 2, 20);
  store.Append(3, 0, 5);

  std::vector<std::pair<graph::VertexId, graph::Distance>> seen;
  store.ForEach(0, [&seen](graph::VertexId hub, graph::Distance dist) {
    seen.emplace_back(hub, dist);
    return false;
  });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], std::make_pair(graph::VertexId{1}, graph::Distance{10}));
  EXPECT_EQ(seen[1], std::make_pair(graph::VertexId{2}, graph::Distance{20}));
  EXPECT_EQ(store.TotalEntries(), 3u);
}

TEST_P(ConcurrentStoreModes, ForEachStopsWhenTheCallbackSaysSo) {
  ConcurrentLabelStore store(2, GetParam());
  for (graph::VertexId hub = 0; hub < 5; ++hub) {
    store.Append(1, hub, 10 + hub);
  }
  std::vector<graph::VertexId> seen;
  store.ForEach(1, [&seen](graph::VertexId hub, graph::Distance) {
    seen.push_back(hub);
    return hub == 1;
  });
  EXPECT_EQ(seen, (std::vector<graph::VertexId>{0, 1}));
  // The early exit released the row lock: the row is writable again.
  store.Append(1, 5, 15);
  EXPECT_EQ(store.TotalEntries(), 6u);
}

TEST_P(ConcurrentStoreModes, ConcurrentAppendsAllLand) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 500;
  ConcurrentLabelStore store(16, GetParam());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        store.Append(static_cast<graph::VertexId>(i % 16),
                     static_cast<graph::VertexId>(t),
                     static_cast<graph::Distance>(i));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(store.TotalEntries(), kThreads * kPerThread);
}

TEST_P(ConcurrentStoreModes, ConcurrentReadersDuringWrites) {
  constexpr std::size_t kWriters = 4;
  ConcurrentLabelStore store(8, GetParam());
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> reads{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kWriters; ++t) {
    threads.emplace_back([&store, t] {
      for (std::size_t i = 0; i < 2000; ++i) {
        store.Append(static_cast<graph::VertexId>(i % 8),
                     static_cast<graph::VertexId>(t), i);
      }
    });
  }
  threads.emplace_back([&store, &stop, &reads] {
    // do-while: at least one full read pass even if the writers finish
    // (and `stop` is raised) before this thread is first scheduled.
    do {
      for (graph::VertexId v = 0; v < 8; ++v) {
        graph::Distance previous = 0;
        store.ForEach(v, [&](graph::VertexId, graph::Distance dist) {
          // Entries from one writer arrive in increasing dist order, but
          // interleaving is fine; just touch the data.
          previous += dist;
          return false;
        });
        ++reads;
      }
      // relaxed: independent stop flag; a stale read just runs one more
      // harmless pass.
    } while (!stop.load(std::memory_order_relaxed));
  });
  for (std::size_t t = 0; t < kWriters; ++t) {
    threads[t].join();
  }
  stop = true;
  threads.back().join();
  EXPECT_EQ(store.TotalEntries(), kWriters * 2000);
  EXPECT_GT(reads.load(), 0u);
}

TEST_P(ConcurrentStoreModes, FinalizedStoreIsSortedAndDeduped) {
  ConcurrentLabelStore store(2, GetParam());
  store.Append(0, 5, 50);
  store.Append(0, 1, 10);
  store.Append(0, 5, 40);  // duplicate hub, smaller dist wins
  store.Append(0, 3, 30);
  const pll::LabelStore finalized = store.TakeFinalized();
  const auto row = finalized.Row(0);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0].hub, 1u);
  EXPECT_EQ(row[1].hub, 3u);
  EXPECT_EQ(row[2].hub, 5u);
  EXPECT_EQ(row[2].dist, 40u);
}

INSTANTIATE_TEST_SUITE_P(AllLockModes, ConcurrentStoreModes,
                         ::testing::Values(LockMode::kGlobal,
                                           LockMode::kStriped,
                                           LockMode::kPerRow));

TEST(ConcurrentStore, ToStringCoversAllModes) {
  EXPECT_EQ(ToString(LockMode::kGlobal), "global");
  EXPECT_EQ(ToString(LockMode::kStriped), "striped");
  EXPECT_EQ(ToString(LockMode::kPerRow), "per-row");
  EXPECT_EQ(ToString(AssignmentPolicy::kStatic), "static");
  EXPECT_EQ(ToString(AssignmentPolicy::kDynamic), "dynamic");
}

}  // namespace
}  // namespace parapll::parallel
