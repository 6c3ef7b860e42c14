#ifndef IOLAP_BENCH_BENCH_UTIL_H_
#define IOLAP_BENCH_BENCH_UTIL_H_

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <string>

#include "alloc/allocator.h"
#include "common/stopwatch.h"
#include "datagen/generator.h"
#include "datagen/table2.h"
#include "examples/example_util.h"
#include "obs/json_util.h"
#include "obs/obs.h"
#include "storage/storage_env.h"

namespace iolap {

/// The two dataset families of Section 11: "automotive-like" (no ALL
/// values, Table 2 composition) and the ALL-allowed synthetic variant that
/// produces a giant connected component.
inline DatasetSpec AutomotiveLikeSpec(int64_t facts, uint64_t seed = 1) {
  DatasetSpec spec;
  spec.num_facts = facts;
  spec.allow_all = false;
  spec.seed = seed;
  return spec;
}

inline DatasetSpec AllSyntheticSpec(int64_t facts, uint64_t seed = 2) {
  DatasetSpec spec;
  spec.num_facts = facts;
  spec.allow_all = true;
  spec.all_fraction = 0.08;
  spec.seed = seed;
  return spec;
}

/// Runs one full allocation and returns the result; everything (dataset
/// generation included) happens in a fresh StorageEnv so runs are
/// independent.
inline AllocationResult RunOnce(const StarSchema& schema,
                                const DatasetSpec& spec, int64_t buffer_pages,
                                AlgorithmKind algorithm, double epsilon,
                                const char* tag) {
  StorageEnv env(MakeWorkDir(tag), buffer_pages);
  TypedFile<FactRecord> facts = Unwrap(GenerateFacts(env, schema, spec));
  AllocationOptions options;
  options.algorithm = algorithm;
  options.epsilon = epsilon;
  return Unwrap(Allocator::Run(env, schema, &facts, options));
}

/// Estimated on-disk size, in pages, of the prepared working set (C plus
/// the imprecise summary tables) for a dataset of the given composition —
/// used to pick buffer sizes as fractions of the data, mirroring the
/// paper's 600 KB..12 MB sweep against a 32 MB table.
inline int64_t EstimateDataPages(int64_t facts, double imprecise_fraction) {
  const int64_t cells =
      static_cast<int64_t>(facts * (1 - imprecise_fraction));
  const int64_t imprecise = static_cast<int64_t>(facts * imprecise_fraction);
  // Ceiling division: a partially-filled last page is still a page the
  // scan pays for, and floor would skew buffer-fraction sweeps at small
  // scales.
  const int64_t cell_rpp = TypedFile<CellRecord>::kRecordsPerPage;
  const int64_t imp_rpp = TypedFile<ImpreciseRecord>::kRecordsPerPage;
  return (cells + cell_rpp - 1) / cell_rpp +
         (imprecise + imp_rpp - 1) / imp_rpp + 2;
}

inline void PrintHeader(const char* title) {
  std::printf("\n==== %s ====\n", title);
}

/// Installs observability for a bench run from the standard
/// `--metrics-out=` / `--trace-out=` flags. Hold the returned object for
/// the duration of main(); with neither flag present it is inert.
inline std::unique_ptr<ScopedObservability> ObsFromFlags(const Flags& flags) {
  return std::make_unique<ScopedObservability>(
      flags.GetString("metrics-out", ""), flags.GetString("trace-out", ""));
}

/// Minimal emitter for machine-readable bench output: a JSON array of flat
/// objects, one per measured configuration. Strings are escaped and
/// non-finite doubles become null (JSON has no inf/nan), via the shared
/// escaper in obs/json_util.h; finite doubles get enough digits to
/// round-trip. Rows accumulate in memory; Write() lands the file atomically
/// enough for the experiment scripts (single writer).
class JsonWriter {
 public:
  explicit JsonWriter(std::string path) : path_(std::move(path)) {}

  void BeginObject() {
    if (!rows_.empty()) rows_ += ",\n";
    rows_ += "  {";
    first_field_ = true;
  }
  void Field(const char* key, const char* value) {
    AppendKey(key);
    AppendJsonString(&rows_, value);
  }
  void Field(const char* key, int64_t value) {
    AppendKey(key);
    rows_ += std::to_string(value);
  }
  void Field(const char* key, double value) {
    AppendKey(key);
    AppendJsonDouble(&rows_, value);
  }
  void Field(const char* key, bool value) {
    AppendKey(key);
    rows_ += value ? "true" : "false";
  }
  void EndObject() { rows_ += '}'; }

  /// Writes the accumulated array; returns false (and prints) on failure.
  bool Write() const {
    std::ofstream out(path_);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path_.c_str());
      return false;
    }
    out << "[\n" << rows_ << "\n]\n";
    return static_cast<bool>(out);
  }

  const std::string& path() const { return path_; }

 private:
  void AppendKey(const char* key) {
    if (!first_field_) rows_ += ", ";
    first_field_ = false;
    AppendJsonString(&rows_, key);
    rows_ += ": ";
  }

  std::string path_;
  std::string rows_;
  bool first_field_ = true;
};

inline void PrintRunRow(const char* algo, double epsilon, int64_t buffer_pages,
                        const AllocationResult& r) {
  std::printf(
      "%-12s eps=%-7g buf=%-6" PRId64 " iters=%-3d |S|/W=%-3d "
      "alloc_io=%-9" PRId64 " alloc_s=%-8.3f emit_s=%-7.3f total_s=%.3f\n",
      algo, epsilon, buffer_pages, r.iterations,
      r.chain_width > 0 ? r.chain_width : r.num_groups, r.alloc_io.total(),
      r.alloc_seconds, r.emit_seconds, r.total_seconds());
}

}  // namespace iolap

#endif  // IOLAP_BENCH_BENCH_UTIL_H_
