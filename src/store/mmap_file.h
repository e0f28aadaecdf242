#ifndef RFIDCLEAN_STORE_MMAP_FILE_H_
#define RFIDCLEAN_STORE_MMAP_FILE_H_

#include <cstddef>
#include <string>
#include <utility>

#include "common/result.h"

/// \file
/// Read-only memory-mapped file, the zero-copy substrate of a loaded CtGraph
/// and CtStoreReader. POSIX mmap with a private read-only mapping; an empty
/// file maps to a null span (mmap of length 0 is unspecified). Move-only
/// RAII: the mapping lives exactly as long as the object, so a graph
/// aliasing it holds it through a shared_ptr (CtStoreReader::LoadView).

namespace rfidclean::store {

class MmapFile {
 public:
  /// Maps `path` read-only in whole. Fails with NotFound when the file
  /// does not exist and InvalidArgument on any other open/map error.
  static Result<MmapFile> Open(const std::string& path);

  MmapFile() = default;
  ~MmapFile() { Reset(); }

  MmapFile(MmapFile&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  MmapFile& operator=(MmapFile&& other) noexcept {
    if (this != &other) {
      Reset();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  const unsigned char* data() const { return data_; }
  std::size_t size() const { return size_; }

 private:
  void Reset();

  const unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace rfidclean::store

#endif  // RFIDCLEAN_STORE_MMAP_FILE_H_
