#ifndef IOLAP_MODEL_RECORDS_H_
#define IOLAP_MODEL_RECORDS_H_

#include <cstdint>
#include <cstring>
#include <type_traits>

#include "model/schema.h"

namespace iolap {

using FactId = int64_t;

/// Raw fact as ingested (Definition 2 instance): one node id + level per
/// dimension, a measure, and a unique id. Fixed-size POD so it pages
/// directly. ~48 bytes, comparable to the paper's 40-byte tuples.
struct FactRecord {
  FactId fact_id = 0;
  double measure = 0;
  int32_t node[kMaxDims] = {};
  uint8_t level[kMaxDims] = {};
  uint8_t pad[2] = {};

  bool IsPrecise(int num_dims) const {
    for (int d = 0; d < num_dims; ++d) {
      if (level[d] != 1) return false;
    }
    return true;
  }

  LevelVector level_vector() const {
    LevelVector v{};
    std::memcpy(v.data(), level, kMaxDims);
    return v;
  }
};
static_assert(std::is_trivially_copyable_v<FactRecord>);
static_assert(sizeof(FactRecord) == 48);

/// One entry of the cell summary table C. Carries the policy quantity
/// δ(c) and the two iterates Δ(t-1)(c), Δ(t)(c) of the allocation template,
/// plus the connected-component id assigned by the Transitive algorithm.
struct CellRecord {
  double delta0 = 0;      // δ(c)
  double delta_prev = 0;  // Δ(t-1)(c)
  double delta_cur = 0;   // Δ(t)(c)
  int32_t leaf[kMaxDims] = {};
  int32_t ccid = -1;
  uint8_t overlapped = 0;  // covered by >= 1 imprecise fact?
  uint8_t pad[3] = {};
};
static_assert(std::is_trivially_copyable_v<CellRecord>);
static_assert(sizeof(CellRecord) == 56);

/// One imprecise fact, resident in its summary table. `first`/`last` are
/// conservative bounds (page-granular, from cell fence keys) on the indexes
/// in C of the cells this fact overlaps — the machinery behind partition
/// sizes (Definition 9) and the Block algorithm's sliding windows.
struct ImpreciseRecord {
  FactId fact_id = 0;
  double measure = 0;
  double gamma = 0;    // Γ(t)(r)
  int64_t first = 0;   // first possibly-overlapped cell index in C
  int64_t last = -1;   // last possibly-overlapped cell index in C
  int32_t node[kMaxDims] = {};
  uint8_t level[kMaxDims] = {};
  int16_t table = -1;  // summary table index
  int32_t ccid = -1;
  int32_t num_cells = 0;  // |reg(r) ∩ C|, filled during allocation

  LevelVector level_vector() const {
    LevelVector v{};
    std::memcpy(v.data(), level, kMaxDims);
    return v;
  }
};
static_assert(std::is_trivially_copyable_v<ImpreciseRecord>);
static_assert(sizeof(ImpreciseRecord) == 80);

/// One row of the Extended Database D* (Definition 4): fact r allocated to
/// cell c with weight p_{c,r}. Precise facts appear once with weight 1.
struct EdbRecord {
  FactId fact_id = 0;
  double measure = 0;
  double weight = 0;  // p_{c,r}
  int32_t leaf[kMaxDims] = {};

  /// A maintenance tombstone: a superseded row overwritten in place with
  /// weight 0 and fact_id -1. Live rows have weight > 0, so every reader
  /// skips it and every aggregate is unaffected; CompactEdb removes it.
  static EdbRecord Tombstone() {
    EdbRecord rec;
    rec.fact_id = -1;
    return rec;
  }
  bool IsTombstone() const { return weight == 0 && fact_id == -1; }
};
static_assert(std::is_trivially_copyable_v<EdbRecord>);
static_assert(sizeof(EdbRecord) == 48);

/// Region containment test: is the cell with the given leaves a possible
/// completion of the (node, level) region of `fact`?
inline bool RegionCovers(const StarSchema& schema, const int32_t* node,
                         const int32_t* leaf) {
  for (int d = 0; d < schema.num_dims(); ++d) {
    if (!schema.dim(d).Covers(node[d], leaf[d])) return false;
  }
  return true;
}

}  // namespace iolap

#endif  // IOLAP_MODEL_RECORDS_H_
