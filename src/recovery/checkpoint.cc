#include "recovery/checkpoint.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <dirent.h>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace iolap {

namespace {

std::string ErrnoMessage(const std::string& op, const std::string& path) {
  return op + " failed for " + path + ": " + std::strerror(errno);
}

uint64_t Fnv1a64(const char* bytes, size_t n) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(bytes[i]);
    h *= 1099511628211ull;
  }
  return h;
}

void Bump(const char* name, int64_t n = 1) {
  if (Counter* c = GlobalCounter(name)) c->Add(n);
}

template <typename T>
void AppendPod(std::string* out, const T* items, size_t count) {
  if (count == 0) return;
  out->append(reinterpret_cast<const char*>(items), count * sizeof(T));
}

/// Inverse of AppendPod: fills `out` with `count` items read from `*p` and
/// advances `*p` past them. An empty section copies nothing: an empty
/// vector's data() may be null, and memcpy with a null pointer is undefined
/// even for zero bytes.
template <typename T>
void ReadPod(const char** p, size_t count, std::vector<T>* out) {
  out->resize(count);
  if (count == 0) return;
  std::memcpy(out->data(), *p, count * sizeof(T));
  *p += count * sizeof(T);
}

Result<int64_t> FileBytes(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return Status::NotFound(ErrnoMessage("stat", path));
  }
  return static_cast<int64_t>(st.st_size);
}

/// Commits `path` durably after a rename: fsync the containing directory.
Status FsyncDirectoryOf(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Status::IoError(ErrnoMessage("open", dir));
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::IoError(ErrnoMessage("fsync", dir));
  return Status::Ok();
}

}  // namespace

CheckpointManager::CheckpointManager(StorageEnv* env, std::string directory,
                                     const AllocationOptions& options,
                                     int num_dims)
    : env_(env),
      directory_path_(std::move(directory)),
      options_(options),
      num_dims_(num_dims),
      every_(std::max(1, options.checkpoint.every)) {}

Result<std::unique_ptr<CheckpointManager>> CheckpointManager::Open(
    StorageEnv* env, const AllocationOptions& options, int num_dims) {
  const std::string& dir = options.checkpoint.directory;
  if (dir.empty()) {
    return Status::InvalidArgument("checkpoint directory not set");
  }
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError(ErrnoMessage("mkdir", dir));
  }
  return std::unique_ptr<CheckpointManager>(
      new CheckpointManager(env, dir, options, num_dims));
}

std::string CheckpointManager::DataPath(const char* name, uint64_t gen) const {
  return directory_path_ + "/" + name + "." + std::to_string(gen);
}

std::string CheckpointManager::ManifestPath(uint64_t gen) const {
  return DataPath("manifest", gen);
}

// ---------------------------------------------------------------------------
// Save path

Status CheckpointManager::ExportImage(FileId file, int64_t pages,
                                      const std::string& dest) {
  IOLAP_RETURN_IF_ERROR(env_->pool().FlushFile(file));
  IOLAP_RETURN_IF_ERROR(env_->disk().ExportPages(file, pages, dest));
  Bump("ckpt.pages_exported", pages);
  return Status::Ok();
}

Status CheckpointManager::WriteBlob(const std::string& path, const void* bytes,
                                    size_t n, bool do_fsync) {
  // Blob writes move bytes outside the page API; report them to the fault
  // injector as checkpoint ops so tests can kill a run mid-manifest.
  IOLAP_RETURN_IF_ERROR(env_->disk().InjectCheckpointOps(
      static_cast<int64_t>((n + kPageSize - 1) / kPageSize) + 1));
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IoError(ErrnoMessage("open", path));
  Status st = Status::Ok();
  size_t done = 0;
  const char* p = static_cast<const char*>(bytes);
  while (done < n) {
    ssize_t put = ::write(fd, p + done, n - done);
    if (put <= 0) {
      st = Status::IoError(ErrnoMessage("write", path));
      break;
    }
    done += static_cast<size_t>(put);
  }
  if (st.ok() && do_fsync && ::fsync(fd) != 0) {
    st = Status::IoError(ErrnoMessage("fsync", path));
  }
  ::close(fd);
  if (!st.ok()) ::unlink(path.c_str());
  return st;
}

Result<std::string> CheckpointManager::ReadBlob(
    const std::string& path) const {
  IOLAP_ASSIGN_OR_RETURN(int64_t bytes, FileBytes(path));
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError(ErrnoMessage("open", path));
  std::string out(static_cast<size_t>(bytes), '\0');
  size_t done = 0;
  Status st = Status::Ok();
  while (done < out.size()) {
    ssize_t got = ::read(fd, out.data() + done, out.size() - done);
    if (got <= 0) {
      st = Status::IoError(ErrnoMessage("read", path));
      break;
    }
    done += static_cast<size_t>(got);
  }
  ::close(fd);
  if (!st.ok()) return st;
  return out;
}

void CheckpointManager::DeleteGeneration(uint64_t gen) const {
  ::unlink(ManifestPath(gen).c_str());
  ::unlink(DataPath("cells", gen).c_str());
  ::unlink(DataPath("imprecise", gen).c_str());
  ::unlink(DataPath("edb", gen).c_str());
}

Status CheckpointManager::Save(int iteration, bool converged,
                               int64_t next_component,
                               const std::vector<ComponentInfo>* directory,
                               const std::vector<CellRecord>* basic_cells,
                               const std::vector<ImpreciseRecord>* basic_entries,
                               PreparedDataset* data,
                               const AllocationResult& result) {
  TraceSpan span("ckpt.save");
  const uint64_t gen = last_gen_ + 1;
  const bool basic = basic_cells != nullptr;
  span.AddArg("generation", static_cast<int64_t>(gen));

  ManifestHeader h{};
  std::memcpy(h.magic, "IOLAPCK1", sizeof(h.magic));
  h.version = kManifestVersion;
  h.flags = (basic ? kManifestFlagBasicPayload : 0) |
            (converged ? kManifestFlagConverged : 0);
  h.generation = gen;
  h.algorithm = static_cast<int32_t>(options_.algorithm);
  h.policy = static_cast<int32_t>(options_.policy);
  h.domain = static_cast<int32_t>(options_.domain);
  h.max_iterations = options_.max_iterations;
  h.epsilon = options_.epsilon;
  h.buffer_pages = env_->buffer_pages();
  h.early_convergence = options_.early_convergence ? 1 : 0;
  h.num_dims = num_dims_;
  h.completed_iterations = iteration;
  h.num_groups = result.num_groups;
  h.next_component = next_component;
  h.final_eps = result.final_eps;
  h.chain_width = result.chain_width;
  h.edges_emitted = result.edges_emitted;
  h.unallocatable_facts = result.unallocatable_facts;
  h.peak_window_records = result.peak_window_records;
  h.census_num_components = result.components.num_components;
  h.census_num_singleton_cells = result.components.num_singleton_cells;
  h.census_largest_component = result.components.largest_component;
  h.census_num_large_components = result.components.num_large_components;
  h.census_large_component_pages = result.components.large_component_pages;
  h.census_max_component_iterations =
      result.components.max_component_iterations;
  h.census_total_component_iterations =
      result.components.total_component_iterations;
  h.num_precise = data->num_precise_facts;
  h.num_imprecise = data->num_imprecise_facts;
  h.cells_count = basic ? static_cast<int64_t>(basic_cells->size())
                        : data->cells.size();
  h.imprecise_count = basic ? static_cast<int64_t>(basic_entries->size())
                            : data->imprecise.size();
  h.edb_count = result.edb.size();
  h.cells_pages = basic ? 0 : data->cells.size_in_pages();
  h.imprecise_pages = basic ? 0 : data->imprecise.size_in_pages();
  // The appender's partially filled tail page flushes and restores cleanly
  // (Appender re-pins a non-empty tail page and marks it dirty per append).
  TypedFile<EdbRecord> edb = result.edb;
  h.edb_pages = edb.size_in_pages();
  h.num_tables = static_cast<uint32_t>(data->tables.size());
  h.num_fences = static_cast<uint32_t>(data->fences.size());
  h.num_directory =
      directory != nullptr ? static_cast<uint32_t>(directory->size()) : 0;
  h.num_per_iteration = static_cast<uint32_t>(result.per_iteration.size());

  // 1. Data images for generation `gen`. Generation gen-1 stays intact
  // until the new manifest is durable: a crash anywhere in here loses
  // nothing.
  if (basic) {
    IOLAP_RETURN_IF_ERROR(WriteBlob(
        DataPath("cells", gen), basic_cells->data(),
        basic_cells->size() * sizeof(CellRecord), /*do_fsync=*/true));
    IOLAP_RETURN_IF_ERROR(WriteBlob(
        DataPath("imprecise", gen), basic_entries->data(),
        basic_entries->size() * sizeof(ImpreciseRecord), /*do_fsync=*/true));
  } else {
    IOLAP_RETURN_IF_ERROR(ExportImage(data->cells.file_id(), h.cells_pages,
                                      DataPath("cells", gen)));
    IOLAP_RETURN_IF_ERROR(ExportImage(data->imprecise.file_id(),
                                      h.imprecise_pages,
                                      DataPath("imprecise", gen)));
  }
  IOLAP_RETURN_IF_ERROR(
      ExportImage(edb.file_id(), h.edb_pages, DataPath("edb", gen)));

  // 2. Commit: checksummed manifest to a temp file, fsync, rename over the
  // final name, fsync the directory. The rename is the commit point.
  std::string blob;
  blob.reserve(sizeof(h) + h.num_tables * sizeof(SummaryTableInfo) +
               h.num_fences * sizeof(data->fences[0]) +
               h.num_directory * sizeof(ComponentInfo) +
               h.num_per_iteration * sizeof(IterationStats) + sizeof(uint64_t));
  AppendPod(&blob, &h, 1);
  AppendPod(&blob, data->tables.data(), data->tables.size());
  AppendPod(&blob, data->fences.data(), data->fences.size());
  if (directory != nullptr) {
    AppendPod(&blob, directory->data(), directory->size());
  }
  AppendPod(&blob, result.per_iteration.data(), result.per_iteration.size());
  uint64_t checksum = Fnv1a64(blob.data(), blob.size());
  AppendPod(&blob, &checksum, 1);

  std::string tmp = directory_path_ + "/manifest.tmp";
  IOLAP_RETURN_IF_ERROR(
      WriteBlob(tmp, blob.data(), blob.size(), /*do_fsync=*/true));
  if (::rename(tmp.c_str(), ManifestPath(gen).c_str()) != 0) {
    return Status::IoError(ErrnoMessage("rename", ManifestPath(gen)));
  }
  IOLAP_RETURN_IF_ERROR(FsyncDirectoryOf(directory_path_));

  // 3. Generation gen is durable; gen-1 remains as the torn-manifest
  // fallback and everything older is garbage.
  if (gen >= 2) DeleteGeneration(gen - 2);
  last_gen_ = gen;
  last_iteration_ = iteration;
  last_converged_ = converged;
  last_component_ = next_component;
  Bump("ckpt.saves");
  return Status::Ok();
}

Status CheckpointManager::CheckpointIteration(int t, bool converged,
                                              PreparedDataset* data,
                                              const AllocationResult& result) {
  if (t == last_iteration_ && converged == last_converged_) {
    return Status::Ok();
  }
  return Save(t, converged, /*next_component=*/0, /*directory=*/nullptr,
              /*basic_cells=*/nullptr, /*basic_entries=*/nullptr, data,
              result);
}

Status CheckpointManager::CheckpointComponents(
    int64_t next_component, PreparedDataset* data,
    const AllocationResult& result,
    const std::vector<ComponentInfo>& directory) {
  if (next_component == last_component_ && last_gen_ > 0) {
    return Status::Ok();
  }
  // A finished component set is final: converged and emitted (DESIGN.md
  // §9), so resume never revisits components below `next_component`.
  return Save(/*iteration=*/result.iterations,
              /*converged=*/next_component ==
                  static_cast<int64_t>(directory.size()),
              next_component, &directory, /*basic_cells=*/nullptr,
              /*basic_entries=*/nullptr, data, result);
}

Status CheckpointManager::CheckpointBasic(
    int t, bool converged, const std::vector<CellRecord>& cells,
    const std::vector<ImpreciseRecord>& entries, PreparedDataset* data,
    const AllocationResult& result) {
  if (t == last_iteration_ && converged == last_converged_) {
    return Status::Ok();
  }
  return Save(t, converged, /*next_component=*/0, /*directory=*/nullptr,
              &cells, &entries, data, result);
}

// ---------------------------------------------------------------------------
// Resume path

Status CheckpointManager::CheckFingerprint(const ManifestHeader& h) const {
  auto mismatch = [](const std::string& what) {
    return Status::FailedPrecondition(
        "checkpoint was written under different options (" + what +
        "); refusing to resume");
  };
  if (h.algorithm != static_cast<int32_t>(options_.algorithm)) {
    return mismatch("algorithm");
  }
  if (h.policy != static_cast<int32_t>(options_.policy)) {
    return mismatch("policy");
  }
  if (h.domain != static_cast<int32_t>(options_.domain)) {
    return mismatch("cell domain");
  }
  if (h.epsilon != options_.epsilon) return mismatch("epsilon");
  if (h.max_iterations != options_.max_iterations) {
    return mismatch("max_iterations");
  }
  if ((h.early_convergence != 0) != options_.early_convergence) {
    return mismatch("early_convergence");
  }
  // A different buffer budget changes Block's group packing and therefore
  // the floating-point accumulation order — the resumed run would diverge.
  if (h.buffer_pages != env_->buffer_pages()) return mismatch("buffer_pages");
  if (h.num_dims != num_dims_) return mismatch("schema dimensionality");
  return Status::Ok();
}

Result<bool> CheckpointManager::LoadGeneration(uint64_t gen) {
  Result<std::string> blob_or = ReadBlob(ManifestPath(gen));
  if (!blob_or.ok()) return false;  // unreadable: fall back
  const std::string& blob = blob_or.value();
  if (blob.size() < sizeof(ManifestHeader) + sizeof(uint64_t)) return false;

  uint64_t stored;
  std::memcpy(&stored, blob.data() + blob.size() - sizeof(stored),
              sizeof(stored));
  if (Fnv1a64(blob.data(), blob.size() - sizeof(stored)) != stored) {
    return false;  // torn or corrupted manifest
  }

  ManifestHeader h;
  std::memcpy(&h, blob.data(), sizeof(h));
  if (std::memcmp(h.magic, "IOLAPCK1", sizeof(h.magic)) != 0 ||
      h.version != kManifestVersion) {
    return false;
  }
  size_t expect = sizeof(h) + h.num_tables * sizeof(SummaryTableInfo) +
                  h.num_fences * sizeof(std::array<int32_t, kMaxDims>) +
                  h.num_directory * sizeof(ComponentInfo) +
                  h.num_per_iteration * sizeof(IterationStats) +
                  sizeof(uint64_t);
  if (blob.size() != expect) return false;
  // A checksum-valid manifest under the wrong options is an operator error,
  // not corruption — surface it instead of silently recomputing.
  IOLAP_RETURN_IF_ERROR(CheckFingerprint(h));

  // The data files this manifest points at must be present and whole.
  const bool basic = (h.flags & kManifestFlagBasicPayload) != 0;
  auto intact = [&](const char* name, int64_t want) {
    Result<int64_t> got = FileBytes(DataPath(name, gen));
    return got.ok() && got.value() == want;
  };
  if (basic) {
    if (!intact("cells",
                h.cells_count * static_cast<int64_t>(sizeof(CellRecord))) ||
        !intact("imprecise", h.imprecise_count * static_cast<int64_t>(
                                 sizeof(ImpreciseRecord)))) {
      return false;
    }
  } else {
    if (!intact("cells", h.cells_pages * static_cast<int64_t>(kPageSize)) ||
        !intact("imprecise",
                h.imprecise_pages * static_cast<int64_t>(kPageSize))) {
      return false;
    }
  }
  if (!intact("edb", h.edb_pages * static_cast<int64_t>(kPageSize))) {
    return false;
  }

  header_ = h;
  const char* p = blob.data() + sizeof(h);
  ReadPod(&p, h.num_tables, &tables_);
  ReadPod(&p, h.num_fences, &fences_);
  ReadPod(&p, h.num_directory, &directory_);
  ReadPod(&p, h.num_per_iteration, &per_iteration_);
  return true;
}

Status CheckpointManager::Restore(PreparedDataset* data,
                                  AllocationResult* result) {
  DiskManager& disk = env_->disk();
  const uint64_t gen = header_.generation;
  const bool basic = (header_.flags & kManifestFlagBasicPayload) != 0;

  IOLAP_ASSIGN_OR_RETURN(data->cells,
                         TypedFile<CellRecord>::Create(disk, "cells"));
  IOLAP_ASSIGN_OR_RETURN(data->imprecise,
                         TypedFile<ImpreciseRecord>::Create(disk, "entries"));
  IOLAP_ASSIGN_OR_RETURN(data->precise_edb,
                         TypedFile<EdbRecord>::Create(disk, "edb"));
  if (!basic) {
    IOLAP_RETURN_IF_ERROR(disk.ImportPages(
        data->cells.file_id(), DataPath("cells", gen), header_.cells_pages));
    data->cells.set_size(header_.cells_count);
    IOLAP_RETURN_IF_ERROR(disk.ImportPages(data->imprecise.file_id(),
                                           DataPath("imprecise", gen),
                                           header_.imprecise_pages));
    data->imprecise.set_size(header_.imprecise_count);
    Bump("ckpt.pages_imported", header_.cells_pages + header_.imprecise_pages);
  }
  IOLAP_RETURN_IF_ERROR(disk.ImportPages(
      data->precise_edb.file_id(), DataPath("edb", gen), header_.edb_pages));
  data->precise_edb.set_size(header_.edb_count);
  Bump("ckpt.pages_imported", header_.edb_pages);

  data->tables = tables_;
  data->fences = fences_;
  data->num_precise_facts = header_.num_precise;
  data->num_imprecise_facts = header_.num_imprecise;

  result->num_cells = header_.cells_count;
  result->num_precise = header_.num_precise;
  result->num_imprecise = header_.num_imprecise;
  result->num_tables = static_cast<int>(header_.num_tables);
  result->iterations = header_.completed_iterations;
  result->final_eps = header_.final_eps;
  result->num_groups = header_.num_groups;
  result->chain_width = header_.chain_width;
  result->edges_emitted = header_.edges_emitted;
  result->unallocatable_facts = header_.unallocatable_facts;
  result->peak_window_records = header_.peak_window_records;
  result->components.num_components = header_.census_num_components;
  result->components.num_singleton_cells = header_.census_num_singleton_cells;
  result->components.largest_component = header_.census_largest_component;
  result->components.num_large_components =
      header_.census_num_large_components;
  result->components.large_component_pages =
      header_.census_large_component_pages;
  result->components.max_component_iterations =
      header_.census_max_component_iterations;
  result->components.total_component_iterations =
      header_.census_total_component_iterations;
  result->per_iteration = per_iteration_;
  return Status::Ok();
}

Result<bool> CheckpointManager::TryResume(PreparedDataset* data,
                                          AllocationResult* result) {
  TraceSpan span("ckpt.resume");
  std::vector<uint64_t> gens;
  if (DIR* d = ::opendir(directory_path_.c_str())) {
    while (struct dirent* e = ::readdir(d)) {
      const char* name = e->d_name;
      if (std::strncmp(name, "manifest.", 9) != 0) continue;
      char* end = nullptr;
      uint64_t gen = std::strtoull(name + 9, &end, 10);
      if (end != nullptr && *end == '\0' && gen > 0) gens.push_back(gen);
    }
    ::closedir(d);
  }
  std::sort(gens.rbegin(), gens.rend());

  for (uint64_t gen : gens) {
    IOLAP_ASSIGN_OR_RETURN(bool usable, LoadGeneration(gen));
    if (!usable) {
      // Torn/corrupted manifest or missing data files: fall back to the
      // previous generation, which Save() kept intact for exactly this.
      Bump("ckpt.torn_manifests");
      continue;
    }
    IOLAP_RETURN_IF_ERROR(Restore(data, result));
    resumed_ = true;
    last_gen_ = gen;
    last_iteration_ = header_.completed_iterations;
    last_converged_ = (header_.flags & kManifestFlagConverged) != 0;
    last_component_ = header_.next_component;
    span.AddArg("generation", static_cast<int64_t>(gen));
    span.AddArg("iteration", header_.completed_iterations);
    Bump("ckpt.resumes");
    return true;
  }
  return false;
}

Status CheckpointManager::LoadBasicState(
    std::vector<CellRecord>* cells, std::vector<ImpreciseRecord>* entries) {
  if (!has_basic_state()) {
    return Status::FailedPrecondition("no resumed Basic payload");
  }
  const uint64_t gen = header_.generation;
  IOLAP_ASSIGN_OR_RETURN(std::string cb, ReadBlob(DataPath("cells", gen)));
  IOLAP_ASSIGN_OR_RETURN(std::string eb, ReadBlob(DataPath("imprecise", gen)));
  if (cb.size() != header_.cells_count * sizeof(CellRecord) ||
      eb.size() != header_.imprecise_count * sizeof(ImpreciseRecord)) {
    return Status::IoError("Basic checkpoint payload size mismatch");
  }
  const char* cp = cb.data();
  ReadPod(&cp, static_cast<size_t>(header_.cells_count), cells);
  const char* ep = eb.data();
  ReadPod(&ep, static_cast<size_t>(header_.imprecise_count), entries);
  return Status::Ok();
}

}  // namespace iolap
