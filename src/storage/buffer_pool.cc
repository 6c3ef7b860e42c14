#include "storage/buffer_pool.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>

#include "obs/metrics.h"

namespace iolap {

PageGuard::PageGuard(BufferPool* pool, int32_t frame)
    : pool_(pool), frame_(frame) {}

PageGuard::~PageGuard() { Release(); }

PageGuard::PageGuard(PageGuard&& other) noexcept
    : pool_(other.pool_), frame_(other.frame_) {
  other.pool_ = nullptr;
  other.frame_ = -1;
}

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    other.pool_ = nullptr;
    other.frame_ = -1;
  }
  return *this;
}

std::byte* PageGuard::data() { return pool_->FrameData(frame_); }
const std::byte* PageGuard::data() const { return pool_->FrameData(frame_); }

void PageGuard::MarkDirty() { pool_->SetDirty(frame_); }

void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
    frame_ = -1;
  }
}

BufferPool::BufferPool(DiskManager* disk, size_t capacity_pages)
    : disk_(disk), capacity_(capacity_pages) {
  occupancy_gauge_ = GlobalGauge("pool.occupancy");
  hits_counter_ = GlobalCounter("pool.hits");
  misses_counter_ = GlobalCounter("pool.misses");
  evictions_counter_ = GlobalCounter("pool.evictions");
  frames_.resize(capacity_);
  free_frames_.reserve(capacity_);
  for (size_t i = 0; i < capacity_; ++i) {
    frames_[i].data = std::make_unique<std::byte[]>(kPageSize);
    free_frames_.push_back(static_cast<int32_t>(capacity_ - 1 - i));
  }
}

BufferPool::~BufferPool() {
  // Write back any dirty frames still cached so destruction never silently
  // loses data (see the class-comment destruction contract). Best-effort:
  // a destructor cannot propagate Status, so failures are logged (and
  // assert in debug builds — a lost write here is a caller bug).
  std::lock_guard<std::mutex> lock(mu_);
  for (Frame& frame : frames_) {
    if (frame.file == kInvalidFileId || !frame.dirty) continue;
    Status flushed = FlushFrame(frame);
    if (!flushed.ok()) {
      std::fprintf(stderr,
                   "iolap: ~BufferPool failed to write back dirty page %lld "
                   "of file %d: %s\n",
                   static_cast<long long>(frame.page),
                   static_cast<int>(frame.file), flushed.ToString().c_str());
      assert(false && "~BufferPool lost a dirty page");
    }
  }
}

size_t BufferPool::pinned_pages() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const Frame& f : frames_) {
    if (f.pin_count > 0) ++n;
  }
  return n;
}

Result<int32_t> BufferPool::FindVictim() {
  if (!free_frames_.empty()) {
    int32_t idx = free_frames_.back();
    free_frames_.pop_back();
    return idx;
  }
  if (lru_.empty()) {
    return Status::ResourceExhausted(
        "buffer pool of " + std::to_string(capacity_) +
        " pages has every frame pinned");
  }
  int32_t idx = lru_.front();
  lru_.pop_front();
  Frame& frame = frames_[idx];
  frame.in_lru = false;
  IOLAP_RETURN_IF_ERROR(FlushFrame(frame));
  page_table_.erase(Key{frame.file, frame.page});
  ++stats_.evictions;
  if (evictions_counter_ != nullptr) evictions_counter_->Add(1);
  frame.file = kInvalidFileId;
  frame.page = -1;
  return idx;
}

Status BufferPool::FlushFrame(Frame& frame) {
  if (frame.dirty) {
    IOLAP_RETURN_IF_ERROR(
        disk_->WritePage(frame.file, frame.page, frame.data.get()));
    frame.dirty = false;
    ++stats_.dirty_writebacks;
  }
  return Status::Ok();
}

Status BufferPool::FlushDirtyFrames(FileId file) {
  std::vector<int32_t> frame_indices;
  for (size_t i = 0; i < frames_.size(); ++i) {
    if (frames_[i].file != kInvalidFileId && frames_[i].dirty &&
        (file == kInvalidFileId || frames_[i].file == file)) {
      frame_indices.push_back(static_cast<int32_t>(i));
    }
  }
  std::sort(frame_indices.begin(), frame_indices.end(),
            [this](int32_t a, int32_t b) {
              const Frame& fa = frames_[a];
              const Frame& fb = frames_[b];
              if (fa.file != fb.file) return fa.file < fb.file;
              return fa.page < fb.page;
            });
  std::vector<const std::byte*> pages;
  size_t i = 0;
  while (i < frame_indices.size()) {
    size_t j = i + 1;
    while (j < frame_indices.size() &&
           frames_[frame_indices[j]].file == frames_[frame_indices[i]].file &&
           frames_[frame_indices[j]].page ==
               frames_[frame_indices[j - 1]].page + 1) {
      ++j;
    }
    pages.clear();
    for (size_t k = i; k < j; ++k) {
      pages.push_back(frames_[frame_indices[k]].data.get());
    }
    const Frame& head = frames_[frame_indices[i]];
    IOLAP_RETURN_IF_ERROR(disk_->WritePagesGather(
        head.file, head.page, pages.data(), static_cast<int64_t>(j - i)));
    for (size_t k = i; k < j; ++k) {
      frames_[frame_indices[k]].dirty = false;
    }
    stats_.dirty_writebacks += static_cast<int64_t>(j - i);
    ++stats_.writeback_batches;
    i = j;
  }
  return Status::Ok();
}

Result<PageGuard> BufferPool::Pin(FileId file, PageId page) {
  std::lock_guard<std::mutex> lock(mu_);
  const Key key{file, page};
  auto it = page_table_.find(key);
  if (it != page_table_.end()) {
    Frame& frame = frames_[it->second];
    ++stats_.hits;
    if (hits_counter_ != nullptr) hits_counter_->Add(1);
    if (frame.in_lru) {
      lru_.erase(frame.lru_pos);
      frame.in_lru = false;
    }
    ++frame.pin_count;
    return PageGuard(this, it->second);
  }
  ++stats_.misses;
  if (misses_counter_ != nullptr) misses_counter_->Add(1);
  IOLAP_ASSIGN_OR_RETURN(int32_t idx, FindVictim());
  Frame& frame = frames_[idx];
  Status read = disk_->ReadPage(file, page, frame.data.get());
  if (!read.ok()) {
    free_frames_.push_back(idx);
    TouchOccupancyGauge();
    return read;
  }
  frame.file = file;
  frame.page = page;
  frame.pin_count = 1;
  frame.dirty = false;
  page_table_[key] = idx;
  TouchOccupancyGauge();
  return PageGuard(this, idx);
}

Result<PageGuard> BufferPool::PinNew(FileId file, PageId page) {
  std::lock_guard<std::mutex> lock(mu_);
  IOLAP_ASSIGN_OR_RETURN(int64_t size, disk_->SizeInPages(file));
  if (page != size) {
    return Status::InvalidArgument(
        "PinNew page " + std::to_string(page) + " != file size " +
        std::to_string(size));
  }
  if (page_table_.count(Key{file, page}) != 0) {
    return Status::Internal("PinNew page already cached");
  }
  IOLAP_ASSIGN_OR_RETURN(int32_t idx, FindVictim());
  Frame& frame = frames_[idx];
  std::memset(frame.data.get(), 0, kPageSize);
  // Materialize the page on disk immediately so the file grows densely and
  // later reads of it are well-defined even before the first flush.
  Status write = disk_->WritePage(file, page, frame.data.get());
  if (!write.ok()) {
    free_frames_.push_back(idx);
    TouchOccupancyGauge();
    return write;
  }
  frame.file = file;
  frame.page = page;
  frame.pin_count = 1;
  frame.dirty = false;
  page_table_[Key{file, page}] = idx;
  TouchOccupancyGauge();
  return PageGuard(this, idx);
}

void BufferPool::Unpin(int32_t frame_index) {
  std::lock_guard<std::mutex> lock(mu_);
  Frame& frame = frames_[frame_index];
  if (--frame.pin_count == 0) {
    lru_.push_back(frame_index);
    frame.lru_pos = std::prev(lru_.end());
    frame.in_lru = true;
  }
}

Status BufferPool::FlushFile(FileId file) {
  std::lock_guard<std::mutex> lock(mu_);
  return FlushDirtyFrames(file);
}

Status BufferPool::EvictFile(FileId file) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < frames_.size(); ++i) {
    Frame& frame = frames_[i];
    if (frame.file != file) continue;
    if (frame.pin_count > 0) {
      return Status::FailedPrecondition(
          "EvictFile: page " + std::to_string(frame.page) + " of file " +
          std::to_string(file) + " is pinned");
    }
    IOLAP_RETURN_IF_ERROR(FlushFrame(frame));
    ReleaseFrame(i);
  }
  TouchOccupancyGauge();
  return Status::Ok();
}

void BufferPool::ReleaseFrame(size_t frame_index) {
  Frame& frame = frames_[frame_index];
  page_table_.erase(Key{frame.file, frame.page});
  if (frame.in_lru) {
    lru_.erase(frame.lru_pos);
    frame.in_lru = false;
  }
  frame.file = kInvalidFileId;
  frame.page = -1;
  free_frames_.push_back(static_cast<int32_t>(frame_index));
}

Status BufferPool::FlushAll() {
  std::lock_guard<std::mutex> lock(mu_);
  return FlushDirtyFrames(kInvalidFileId);
}

}  // namespace iolap
