// Replays adversarial inputs through the release-build decoders on every
// `ctest` run, compiler-independent:
//
//   * the generated seed corpora (tests/corrupt_cases.cpp — the same
//     bytes export_corpus writes to fuzz/corpus/),
//   * every committed file under fuzz/corpus/<target>/, through that
//     target's harness,
//   * every minimized reproducer under fuzz/crashes/, through *all*
//     harnesses (a crash input is cheap to cross-check everywhere).
//
// The harnesses are the actual fuzz/fuzz_<target>.cpp sources, compiled
// here with PARAPLL_FUZZ_ENTRY renamed per target (tests/CMakeLists.txt),
// so what this test exercises is exactly what libFuzzer drives in CI. A
// harness signals an invariant violation by aborting, which fails the
// test binary loudly; a clean replay is simply "no crash".
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "corrupt_cases.hpp"

extern "C" {
int FuzzEntry_index_v2(const std::uint8_t* data, std::size_t size);
int FuzzEntry_manifest(const std::uint8_t* data, std::size_t size);
int FuzzEntry_cluster_wire(const std::uint8_t* data, std::size_t size);
int FuzzEntry_serve_frame(const std::uint8_t* data, std::size_t size);
int FuzzEntry_graph_text(const std::uint8_t* data, std::size_t size);
}

namespace parapll {
namespace {

namespace fs = std::filesystem;

using FuzzEntry = int (*)(const std::uint8_t*, std::size_t);

// Keyed by corpus directory name — must cover PARAPLL_FUZZ_TARGETS.
const std::map<std::string, FuzzEntry>& Entries() {
  static const std::map<std::string, FuzzEntry> entries = {
      {"index_v2", &FuzzEntry_index_v2},
      {"manifest", &FuzzEntry_manifest},
      {"cluster_wire", &FuzzEntry_cluster_wire},
      {"serve_frame", &FuzzEntry_serve_frame},
      {"graph_text", &FuzzEntry_graph_text},
  };
  return entries;
}

void Replay(FuzzEntry entry, const std::string& bytes) {
  entry(reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size());
}

std::string ReadFileBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// PARAPLL_FUZZ_DIR is the source-tree fuzz/ directory (compile define).
const fs::path kFuzzDir = PARAPLL_FUZZ_DIR;

TEST(FuzzRegression, GeneratedSeedsReplayClean) {
  for (const corpus::SeedTarget& target : corpus::AllSeedTargets()) {
    SCOPED_TRACE(target.target);
    ASSERT_EQ(Entries().count(target.target), 1u)
        << "seed list without a harness entry";
    EXPECT_FALSE(target.cases.empty());
    for (const corpus::SeedCase& seed : target.cases) {
      SCOPED_TRACE(seed.name);
      Replay(Entries().at(target.target), seed.bytes);
    }
  }
}

TEST(FuzzRegression, CommittedCorpusReplaysClean) {
  const fs::path root = kFuzzDir / "corpus";
  ASSERT_TRUE(fs::is_directory(root))
      << root << " missing — run fuzz/export_corpus and commit the result";
  std::size_t files = 0;
  for (const fs::directory_entry& dir : fs::directory_iterator(root)) {
    const std::string target = dir.path().filename().string();
    SCOPED_TRACE(target);
    ASSERT_TRUE(dir.is_directory());
    ASSERT_EQ(Entries().count(target), 1u)
        << "corpus directory without a harness entry";
    for (const fs::directory_entry& file :
         fs::recursive_directory_iterator(dir.path())) {
      if (!file.is_regular_file()) {
        continue;
      }
      SCOPED_TRACE(file.path().filename().string());
      Replay(Entries().at(target), ReadFileBytes(file.path()));
      ++files;
    }
  }
  // Every target ships seeds, so an empty walk means a stale checkout.
  EXPECT_GE(files, Entries().size());
}

TEST(FuzzRegression, CrashReproducersReplayCleanEverywhere) {
  const fs::path root = kFuzzDir / "crashes";
  ASSERT_TRUE(fs::is_directory(root));
  for (const fs::directory_entry& file :
       fs::recursive_directory_iterator(root)) {
    if (!file.is_regular_file() ||
        file.path().filename() == "README.md") {
      continue;
    }
    SCOPED_TRACE(file.path().filename().string());
    const std::string bytes = ReadFileBytes(file.path());
    for (const auto& [target, entry] : Entries()) {
      SCOPED_TRACE(target);
      Replay(entry, bytes);
    }
  }
}

}  // namespace
}  // namespace parapll
