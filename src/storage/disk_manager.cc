#include "storage/disk_manager.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <mutex>

#include "obs/metrics.h"

namespace iolap {

namespace {

std::string ErrnoMessage(const std::string& op, const std::string& path) {
  return op + " failed for " + path + ": " + std::strerror(errno);
}

// Keep gather writes comfortably under IOV_MAX (1024 on Linux).
constexpr int64_t kMaxIov = 256;

// Chunk size (pages) for checkpoint export/import copies: 1 MiB transfers.
constexpr int64_t kCheckpointChunkPages = 256;

}  // namespace

DiskManager::DiskManager(std::string directory)
    : directory_(std::move(directory)) {
  ::mkdir(directory_.c_str(), 0755);
}

DiskManager::~DiskManager() {
  for (auto& [id, state] : files_) {
    if (state->fd >= 0) ::close(state->fd);
    ::unlink(state->path.c_str());
  }
}

Result<FileId> DiskManager::CreateFile(const std::string& hint) {
  std::unique_lock lock(mu_);
  FileId id = next_file_id_++;
  std::string path =
      directory_ + "/f" + std::to_string(id) + "_" + hint + ".dat";
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError(ErrnoMessage("open", path));
  }
  auto state = std::make_unique<FileState>();
  state->fd = fd;
  state->path = std::move(path);
  files_[id] = std::move(state);
  return id;
}

Result<DiskManager::FileState*> DiskManager::GetFile(FileId file) const {
  std::shared_lock lock(mu_);
  auto it = files_.find(file);
  if (it == files_.end()) {
    return Status::NotFound("unknown file id " + std::to_string(file));
  }
  return it->second.get();
}

Status DiskManager::Inject(char op, FileId file, PageId first, int64_t n) {
  if (!fault_injector_) return Status::Ok();
  // One injector call per page keeps countdown-style injectors hitting the
  // same fault points whether the pages move in one transfer or many.
  std::lock_guard<std::mutex> lock(injector_mu_);
  for (int64_t i = 0; i < n; ++i) {
    IOLAP_RETURN_IF_ERROR(fault_injector_(op, file, first + i));
  }
  return Status::Ok();
}

Status DiskManager::GrowTo(FileState* state, PageId end_page) {
  // Appends to one file come from a single thread (see the class comment),
  // so this read-compare-store does not race with another append.
  if (end_page > state->size_pages.load()) {
    state->size_pages.store(end_page);
  }
  return Status::Ok();
}

Status DiskManager::ReadPage(FileId file, PageId page, void* buffer) {
  return ReadPages(file, page, 1, buffer);
}

Status DiskManager::ReadPages(FileId file, PageId first, int64_t n,
                              void* buffer) {
  IOLAP_RETURN_IF_ERROR(Inject('r', file, first, n));
  IOLAP_ASSIGN_OR_RETURN(FileState * state, GetFile(file));
  if (n <= 0) {
    return Status::InvalidArgument("ReadPages of a non-positive page count");
  }
  if (first < 0 || first + n > state->size_pages.load()) {
    return Status::OutOfRange(
        "read of pages [" + std::to_string(first) + "," +
        std::to_string(first + n) + ") beyond file of " +
        std::to_string(state->size_pages.load()) + " pages");
  }
  ssize_t want = static_cast<ssize_t>(n) * static_cast<ssize_t>(kPageSize);
  ssize_t got = ::pread(state->fd, buffer, static_cast<size_t>(want),
                        static_cast<off_t>(first) * kPageSize);
  if (got != want) {
    return Status::IoError(ErrnoMessage("pread", state->path));
  }
  page_reads_.fetch_add(n, std::memory_order_relaxed);
  return Status::Ok();
}

Status DiskManager::WritePage(FileId file, PageId page, const void* buffer) {
  return WritePages(file, page, 1, buffer);
}

Status DiskManager::WritePages(FileId file, PageId first, int64_t n,
                               const void* buffer) {
  IOLAP_RETURN_IF_ERROR(Inject('w', file, first, n));
  IOLAP_ASSIGN_OR_RETURN(FileState * state, GetFile(file));
  if (n <= 0) {
    return Status::InvalidArgument("WritePages of a non-positive page count");
  }
  int64_t size = state->size_pages.load();
  if (first < 0 || first > size) {
    return Status::OutOfRange("write of page " + std::to_string(first) +
                              " would leave a hole in file of " +
                              std::to_string(size) + " pages");
  }
  ssize_t want = static_cast<ssize_t>(n) * static_cast<ssize_t>(kPageSize);
  ssize_t put = ::pwrite(state->fd, buffer, static_cast<size_t>(want),
                         static_cast<off_t>(first) * kPageSize);
  if (put != want) {
    return Status::IoError(ErrnoMessage("pwrite", state->path));
  }
  IOLAP_RETURN_IF_ERROR(GrowTo(state, first + n));
  page_writes_.fetch_add(n, std::memory_order_relaxed);
  return Status::Ok();
}

Status DiskManager::WritePagesGather(FileId file, PageId first,
                                     const std::byte* const* pages,
                                     int64_t n) {
  IOLAP_RETURN_IF_ERROR(Inject('w', file, first, n));
  IOLAP_ASSIGN_OR_RETURN(FileState * state, GetFile(file));
  if (n <= 0) {
    return Status::InvalidArgument("gather write of a non-positive count");
  }
  int64_t size = state->size_pages.load();
  if (first < 0 || first > size) {
    return Status::OutOfRange("gather write at page " + std::to_string(first) +
                              " would leave a hole in file of " +
                              std::to_string(size) + " pages");
  }
  int64_t done = 0;
  while (done < n) {
    int64_t batch = std::min(n - done, kMaxIov);
    struct iovec iov[kMaxIov];
    for (int64_t i = 0; i < batch; ++i) {
      iov[i].iov_base = const_cast<std::byte*>(pages[done + i]);
      iov[i].iov_len = kPageSize;
    }
    ssize_t want = static_cast<ssize_t>(batch) * static_cast<ssize_t>(kPageSize);
    ssize_t put = ::pwritev(state->fd, iov, static_cast<int>(batch),
                            static_cast<off_t>(first + done) * kPageSize);
    if (put != want) {
      return Status::IoError(ErrnoMessage("pwritev", state->path));
    }
    done += batch;
  }
  IOLAP_RETURN_IF_ERROR(GrowTo(state, first + n));
  page_writes_.fetch_add(n, std::memory_order_relaxed);
  return Status::Ok();
}

Result<int64_t> DiskManager::SizeInPages(FileId file) const {
  IOLAP_ASSIGN_OR_RETURN(FileState * state, GetFile(file));
  return state->size_pages.load();
}

Status DiskManager::Truncate(FileId file, int64_t pages) {
  std::unique_lock lock(mu_);
  auto it = files_.find(file);
  if (it == files_.end()) {
    return Status::NotFound("unknown file id " + std::to_string(file));
  }
  FileState& state = *it->second;
  if (pages < 0 || pages > state.size_pages.load()) {
    return Status::OutOfRange("truncate to " + std::to_string(pages) +
                              " pages invalid for file of " +
                              std::to_string(state.size_pages.load()) +
                              " pages");
  }
  if (::ftruncate(state.fd, static_cast<off_t>(pages) * kPageSize) != 0) {
    return Status::IoError(ErrnoMessage("ftruncate", state.path));
  }
  state.size_pages.store(pages);
  return Status::Ok();
}

Status DiskManager::DeleteFile(FileId file) {
  std::unique_lock lock(mu_);
  auto it = files_.find(file);
  if (it == files_.end()) {
    return Status::NotFound("unknown file id " + std::to_string(file));
  }
  ::close(it->second->fd);
  ::unlink(it->second->path.c_str());
  files_.erase(it);
  return Status::Ok();
}

Status DiskManager::ExportPages(FileId file, int64_t pages,
                                const std::string& dest_path) {
  IOLAP_ASSIGN_OR_RETURN(FileState * state, GetFile(file));
  if (pages < 0 || pages > state->size_pages.load()) {
    return Status::OutOfRange("export of " + std::to_string(pages) +
                              " pages from file of " +
                              std::to_string(state->size_pages.load()) +
                              " pages");
  }
  int dest = ::open(dest_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (dest < 0) {
    return Status::IoError(ErrnoMessage("open", dest_path));
  }
  std::vector<char> buffer(static_cast<size_t>(kCheckpointChunkPages) *
                           kPageSize);
  Status st = Status::Ok();
  for (int64_t done = 0; done < pages && st.ok();) {
    int64_t batch = std::min(pages - done, kCheckpointChunkPages);
    st = Inject('c', file, done, batch);
    if (!st.ok()) break;
    ssize_t want = static_cast<ssize_t>(batch) * kPageSize;
    ssize_t got = ::pread(state->fd, buffer.data(),
                          static_cast<size_t>(want),
                          static_cast<off_t>(done) * kPageSize);
    if (got != want) {
      st = Status::IoError(ErrnoMessage("pread", state->path));
      break;
    }
    ssize_t put = ::pwrite(dest, buffer.data(), static_cast<size_t>(want),
                           static_cast<off_t>(done) * kPageSize);
    if (put != want) {
      st = Status::IoError(ErrnoMessage("pwrite", dest_path));
      break;
    }
    done += batch;
  }
  if (st.ok() && ::fsync(dest) != 0) {
    st = Status::IoError(ErrnoMessage("fsync", dest_path));
  }
  ::close(dest);
  if (!st.ok()) ::unlink(dest_path.c_str());
  return st;
}

Status DiskManager::ImportPages(FileId file, const std::string& src_path,
                                int64_t pages) {
  IOLAP_ASSIGN_OR_RETURN(FileState * state, GetFile(file));
  if (pages < 0) {
    return Status::InvalidArgument("import of a negative page count");
  }
  if (state->size_pages.load() != 0) {
    return Status::FailedPrecondition("import into a non-empty file " +
                                      state->path);
  }
  int src = ::open(src_path.c_str(), O_RDONLY);
  if (src < 0) {
    return Status::IoError(ErrnoMessage("open", src_path));
  }
  std::vector<char> buffer(static_cast<size_t>(kCheckpointChunkPages) *
                           kPageSize);
  Status st = Status::Ok();
  for (int64_t done = 0; done < pages && st.ok();) {
    int64_t batch = std::min(pages - done, kCheckpointChunkPages);
    st = Inject('c', file, done, batch);
    if (!st.ok()) break;
    ssize_t want = static_cast<ssize_t>(batch) * kPageSize;
    ssize_t got = ::pread(src, buffer.data(), static_cast<size_t>(want),
                          static_cast<off_t>(done) * kPageSize);
    if (got != want) {
      st = Status::IoError(ErrnoMessage("pread", src_path));
      break;
    }
    ssize_t put = ::pwrite(state->fd, buffer.data(),
                           static_cast<size_t>(want),
                           static_cast<off_t>(done) * kPageSize);
    if (put != want) {
      st = Status::IoError(ErrnoMessage("pwrite", state->path));
      break;
    }
    done += batch;
  }
  ::close(src);
  if (st.ok()) st = GrowTo(state, pages);
  return st;
}

}  // namespace iolap
