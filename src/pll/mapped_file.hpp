// MappedFile — RAII read-only mapping of a whole file, the owner of a
// LabelSource after an mmap load (ServableIndex::Load).
//
// The mmap loader maps a format-v2 index file (pll/format_v2.hpp),
// validates the mapping (O(n): it touches only the header, order and
// offset regions plus one entry per row end), and serves QuerySentinel
// merges straight out of it: no per-entry deserialization, cold-start
// cost independent of index size. The kernel pages label rows in on
// first touch and may reclaim them under memory pressure — RSS follows
// the working set, not the index size.
//
// Platform: requires POSIX mmap. On other platforms Open() throws and
// callers use the heap loader.
#pragma once

#include <cstddef>
#include <string>

#if defined(__unix__) || (defined(__APPLE__) && defined(__MACH__))
#define PARAPLL_HAVE_MMAP 1
#endif

namespace parapll::pll {

// Move-only; unmaps on destruction.
class MappedFile {
 public:
  // Throws std::runtime_error on open/stat/map failure, on an empty
  // file, and unconditionally where mmap is unavailable.
  static MappedFile Open(const std::string& path);

  MappedFile() = default;
  ~MappedFile();
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  [[nodiscard]] const char* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  const char* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace parapll::pll
