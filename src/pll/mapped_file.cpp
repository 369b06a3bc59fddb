#include "pll/mapped_file.hpp"

#include <stdexcept>
#include <utility>

#ifdef PARAPLL_HAVE_MMAP
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace parapll::pll {

#ifdef PARAPLL_HAVE_MMAP

MappedFile MappedFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw std::runtime_error("cannot open " + path);
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    ::close(fd);
    throw std::runtime_error("cannot stat " + path + " (or file is empty)");
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  void* data = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  // The mapping keeps its own reference to the file; the descriptor is
  // not needed past this point either way.
  ::close(fd);
  if (data == MAP_FAILED) {
    throw std::runtime_error("cannot mmap " + path);
  }
  MappedFile file;
  file.data_ = static_cast<const char*>(data);
  file.size_ = size;
  return file;
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) {
    ::munmap(const_cast<char*>(data_), size_);
  }
}

#else  // !PARAPLL_HAVE_MMAP

MappedFile MappedFile::Open(const std::string& path) {
  throw std::runtime_error("mmap is not available on this platform (" + path +
                           " requires the heap loader)");
}

MappedFile::~MappedFile() = default;

#endif  // PARAPLL_HAVE_MMAP

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    MappedFile tmp(std::move(other));
    std::swap(data_, tmp.data_);
    std::swap(size_, tmp.size_);
  }
  return *this;
}

}  // namespace parapll::pll
