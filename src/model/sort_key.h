#ifndef IOLAP_MODEL_SORT_KEY_H_
#define IOLAP_MODEL_SORT_KEY_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "model/records.h"
#include "model/schema.h"

namespace iolap {

/// Bits needed to store every value in [0, n): 0 when n <= 1.
inline int BitWidth(uint64_t n) {
  return n <= 1 ? 0 : std::bit_width(n - 1);
}

/// Packs up to `width_bits` of a non-negative value below the already-used
/// high bits of a normalized key (see `SorterKeyPrefix` in
/// storage/external_sort.h). Truncation keeps the prefix monotone: dropped
/// low bits only turn "less" into "equal", never reorder.
inline void PackKeyBits(uint64_t value, int width_bits, uint64_t* key,
                        int* bits_left) {
  if (width_bits <= 0 || *bits_left <= 0) return;
  if (width_bits <= *bits_left) {
    *bits_left -= width_bits;
    *key |= value << *bits_left;
  } else {
    *key |= value >> (width_bits - *bits_left);
    *bits_left = 0;
  }
}

/// One term of a sort order: "the ancestor ordinal of dimension `dim` at
/// hierarchy level `level`". Because leaves are DFS-numbered, ancestor
/// ordinals are monotone in leaf id, so any term list yields a total order
/// on cells under which hierarchy-aligned regions behave predictably.
struct SortTerm {
  int8_t dim;
  int8_t level;
};

/// A sort order L: an ordered list of SortTerms, always refined down to the
/// leaf level of every dimension so cell keys are total.
class SortSpec {
 public:
  /// Canonical order: leaf ids in dimension order. The cell summary table C
  /// is materialized in this order, and Block runs entirely in it.
  static SortSpec Canonical(const StarSchema& schema) {
    SortSpec spec;
    for (int d = 0; d < schema.num_dims(); ++d) {
      spec.terms_.push_back(SortTerm{static_cast<int8_t>(d), 1});
    }
    return spec;
  }

  /// Chain order (Theorem 5): given the chain's level vectors from most
  /// imprecise to most precise, emits ancestor terms top-down so that every
  /// summary table in the chain has contiguous regions in the cell order.
  static SortSpec ForChain(const StarSchema& schema,
                           const std::vector<LevelVector>& descending) {
    SortSpec spec;
    std::vector<int> current(schema.num_dims(), 127);  // "not yet emitted"
    for (const LevelVector& v : descending) {
      for (int d = 0; d < schema.num_dims(); ++d) {
        if (v[d] < current[d]) {
          spec.terms_.push_back(
              SortTerm{static_cast<int8_t>(d), static_cast<int8_t>(v[d])});
          current[d] = v[d];
        }
      }
    }
    for (int d = 0; d < schema.num_dims(); ++d) {
      if (current[d] > 1) {
        spec.terms_.push_back(SortTerm{static_cast<int8_t>(d), 1});
      }
    }
    return spec;
  }

  const std::vector<SortTerm>& terms() const { return terms_; }

 private:
  std::vector<SortTerm> terms_;
};

/// Comparators and packed keys under a SortSpec. Regions (imprecise facts)
/// are compared by their key *interval*: `start` uses each region's first
/// leaf per dimension, `end` its last. Within a chain order a region is
/// exactly a key-prefix block, so these interval comparisons drive the
/// sliding windows of the pass engine.
///
/// A packed key holds each term's ordinal in that term's bit width (the
/// bits the ordinals of its level need), big end first, across
/// `key_words()` 64-bit words: comparing the words in order as unsigned
/// integers compares the terms in order. Word 0 is the sorters' normalized
/// prefix; when `key_bits()` <= 64 it is the whole key.
class SpecComparator {
 public:
  SpecComparator(const StarSchema* schema, const SortSpec& spec) {
    for (const SortTerm& st : spec.terms()) {
      const Hierarchy& h = schema->dim(st.dim);
      const int width = BitWidth(
          static_cast<uint64_t>(h.num_nodes_at_level(st.level)));
      const int offset = key_bits_ % 64;
      Term t;
      t.dim = st.dim;
      t.word = key_bits_ / 64;
      t.spill = std::max(0, offset + width - 64);
      t.shift = t.spill > 0 ? 0 : 64 - offset - width;
      key_bits_ += width;
      // A one-node level (ALL) orders nothing and packs in no bits.
      if (width == 0) continue;
      t.cell_row = h.LeafAncestorOrdinals(st.level);
      // A region's corner ordinals at the term's level depend only on its
      // node in the term's dimension: the node's own ancestor when the
      // term is at or above the node's level, else the ancestor of the
      // node's first (last) leaf.
      t.start_row.resize(static_cast<size_t>(h.num_nodes()));
      t.end_row.resize(static_cast<size_t>(h.num_nodes()));
      for (NodeId n = 0; n < h.num_nodes(); ++n) {
        if (st.level >= h.level(n)) {
          t.start_row[n] = t.end_row[n] =
              h.ordinal(h.AncestorAtLevel(n, st.level));
        } else {
          t.start_row[n] = t.cell_row[h.leaf_begin(n)];
          t.end_row[n] = t.cell_row[h.leaf_end(n) - 1];
        }
      }
      terms_.push_back(std::move(t));
    }
  }

  int key_bits() const { return key_bits_; }
  int key_words() const { return std::max(1, (key_bits_ + 63) / 64); }
  /// Whether word 0 alone orders records (the key fits 64 bits).
  bool key_complete() const { return key_bits_ <= 64; }

  /// The first `num_words` words of a cell's packed key.
  void CellKey(const int32_t* leaf, uint64_t* words, int num_words) const {
    PackTerms([&](const Term& t) { return t.cell_row[leaf[t.dim]]; }, words,
              num_words);
  }

  /// The first `num_words` words of a region's start (low corner) key.
  void RegionStartKey(const ImpreciseRecord& r, uint64_t* words,
                      int num_words) const {
    PackTerms([&](const Term& t) { return t.start_row[r.node[t.dim]]; },
              words, num_words);
  }

  /// The first `num_words` words of a region's end (high corner) key.
  void RegionEndKey(const ImpreciseRecord& r, uint64_t* words,
                    int num_words) const {
    PackTerms([&](const Term& t) { return t.end_row[r.node[t.dim]]; }, words,
              num_words);
  }

  bool CellLess(const CellRecord& a, const CellRecord& b) const {
    for (const Term& t : terms_) {
      int32_t va = t.cell_row[a.leaf[t.dim]];
      int32_t vb = t.cell_row[b.leaf[t.dim]];
      if (va != vb) return va < vb;
    }
    return false;
  }

  /// Orders imprecise entries by region start key.
  bool EntryLess(const ImpreciseRecord& a, const ImpreciseRecord& b) const {
    for (const Term& t : terms_) {
      int32_t va = t.start_row[a.node[t.dim]];
      int32_t vb = t.start_row[b.node[t.dim]];
      if (va != vb) return va < vb;
    }
    return false;
  }

 private:
  /// A term with a nonzero width, and where its bits go: the key is the
  /// terms' concatenation, so a term sits at a fixed bit offset.
  struct Term {
    int dim = 0;
    int word = 0;   // the word holding the term's high bits
    int shift = 0;  // left shift into `word` when the term fits in it
    int spill = 0;  // low bits that continue at the top of word + 1
    const int32_t* cell_row = nullptr;  // ordinal by leaf
    std::vector<int32_t> start_row;     // start-corner ordinal by node
    std::vector<int32_t> end_row;       // end-corner ordinal by node
  };

  /// ORs `value_of(t)` for every term into its place in `num_words` zeroed
  /// words; bits past the last word are dropped.
  template <typename TermValue>
  void PackTerms(const TermValue& value_of, uint64_t* words,
                 int num_words) const {
    std::fill(words, words + num_words, uint64_t{0});
    for (const Term& t : terms_) {
      if (t.word >= num_words) break;
      const uint64_t v = static_cast<uint32_t>(value_of(t));
      if (t.spill == 0) {
        words[t.word] |= v << t.shift;
      } else {
        words[t.word] |= v >> t.spill;
        if (t.word + 1 < num_words) words[t.word + 1] |= v << (64 - t.spill);
      }
    }
  }

  std::vector<Term> terms_;
  int key_bits_ = 0;
};

/// `SpecComparator::CellLess` as a sorter comparator; its normalized prefix
/// is word 0 of the packed cell key.
class CellSpecLess {
 public:
  explicit CellSpecLess(const SpecComparator* cmp) : cmp_(cmp) {}

  bool operator()(const CellRecord& a, const CellRecord& b) const {
    return cmp_->CellLess(a, b);
  }

  uint64_t KeyPrefix(const CellRecord& a) const {
    uint64_t key;
    cmp_->CellKey(a.leaf, &key, 1);
    return key;
  }

 private:
  const SpecComparator* cmp_;
};

/// `SpecComparator::EntryLess` (region start key order) as a sorter
/// comparator; its normalized prefix is word 0 of the packed start key.
class EntrySpecLess {
 public:
  explicit EntrySpecLess(const SpecComparator* cmp) : cmp_(cmp) {}

  bool operator()(const ImpreciseRecord& a, const ImpreciseRecord& b) const {
    return cmp_->EntryLess(a, b);
  }

  uint64_t KeyPrefix(const ImpreciseRecord& a) const {
    uint64_t key;
    cmp_->RegionStartKey(a, &key, 1);
    return key;
  }

 private:
  const SpecComparator* cmp_;
};

/// The component id of a record in no component (ccid < 0); it sorts
/// after every real one.
inline constexpr int32_t kNoComponent = std::numeric_limits<int32_t>::max();

/// The component id of `ccid`: itself, or kNoComponent when negative.
inline int32_t ComponentOf(int32_t ccid) {
  return ccid < 0 ? kNoComponent : ccid;
}

/// ComponentOf packed in `bits` bits, with kNoComponent as all ones.
inline uint64_t PackedComponent(int32_t ccid, int bits) {
  return ccid < 0 ? (uint64_t{1} << bits) - 1 : static_cast<uint64_t>(ccid);
}

/// Transitive's component order for cells (Step 2) whose ccid already holds
/// the canonical ("true") component id, below `num_ids`: by that id, then
/// canonical key order. The normalized prefix packs the component id in
/// BitWidth(num_ids + 1) bits (kNoComponent's all ones lie above every
/// real id), then the base comparator's whole prefix: on the paper's
/// schemas that is the complete key.
class ComponentCellLess {
 public:
  ComponentCellLess(size_t num_ids, const SpecComparator* canonical)
      : ccid_bits_(BitWidth(num_ids + 1)), base_(canonical) {}

  bool operator()(const CellRecord& a, const CellRecord& b) const {
    int32_t ca = ComponentOf(a.ccid), cb = ComponentOf(b.ccid);
    if (ca != cb) return ca < cb;
    return base_(a, b);
  }

  uint64_t KeyPrefix(const CellRecord& a) const {
    uint64_t key = 0;
    int bits = 64;
    PackKeyBits(PackedComponent(a.ccid, ccid_bits_), ccid_bits_, &key, &bits);
    PackKeyBits(base_.KeyPrefix(a), 64, &key, &bits);
    return key;
  }

 private:
  int ccid_bits_;
  CellSpecLess base_;
};

/// As ComponentCellLess for imprecise entries, with the summary table
/// between the component id and the base key. Tables pack as table + 1 in
/// BitWidth(num_tables + 1) bits, so padding sentinels (table -1) lead.
class ComponentEntryLess {
 public:
  ComponentEntryLess(size_t num_ids, size_t num_tables,
                     const SpecComparator* canonical)
      : ccid_bits_(BitWidth(num_ids + 1)),
        table_bits_(BitWidth(num_tables + 1)),
        base_(canonical) {}

  bool operator()(const ImpreciseRecord& a, const ImpreciseRecord& b) const {
    int32_t ca = ComponentOf(a.ccid), cb = ComponentOf(b.ccid);
    if (ca != cb) return ca < cb;
    if (a.table != b.table) return a.table < b.table;
    return base_(a, b);
  }

  uint64_t KeyPrefix(const ImpreciseRecord& a) const {
    uint64_t key = 0;
    int bits = 64;
    PackKeyBits(PackedComponent(a.ccid, ccid_bits_), ccid_bits_, &key, &bits);
    PackKeyBits(static_cast<uint64_t>(a.table + 1), table_bits_, &key, &bits);
    PackKeyBits(base_.KeyPrefix(a), 64, &key, &bits);
    return key;
  }

 private:
  int ccid_bits_;
  int table_bits_;
  EntrySpecLess base_;
};

/// Orders raw facts into "summary table order" (Section 4.1): by level
/// vector (so precise facts, all-ones, come first and each summary table is
/// a contiguous segment), then by region start in canonical order (so the
/// precise prefix materializes C already canonically sorted).
class SummaryOrderLess {
 public:
  explicit SummaryOrderLess(const StarSchema* schema)
      : num_dims_(schema->num_dims()) {
    int max_levels = 0;
    for (int d = 0; d < num_dims_; ++d) {
      const Hierarchy& h = schema->dim(d);
      max_levels = std::max(max_levels, h.num_levels());
      leaf_begin_[d] = h.leaf_begins();
      leaf_bits_[d] = BitWidth(static_cast<uint64_t>(h.num_leaves()));
    }
    level_bits_ = BitWidth(static_cast<uint64_t>(max_levels) + 1);
  }

  bool operator()(const FactRecord& a, const FactRecord& b) const {
    for (int d = 0; d < num_dims_; ++d) {
      if (a.level[d] != b.level[d]) return a.level[d] < b.level[d];
    }
    for (int d = 0; d < num_dims_; ++d) {
      LeafId la = leaf_begin_[d][a.node[d]];
      LeafId lb = leaf_begin_[d][b.node[d]];
      if (la != lb) return la < lb;
    }
    return a.fact_id < b.fact_id;
  }

  /// Normalized key: the level vector (each level in the bits the deepest
  /// hierarchy needs), then as many leaf-begin values (each in its
  /// dimension's leaf width) as still fit.
  uint64_t KeyPrefix(const FactRecord& a) const {
    uint64_t key = 0;
    int bits = 64;
    for (int d = 0; d < num_dims_; ++d) {
      PackKeyBits(a.level[d], level_bits_, &key, &bits);
    }
    for (int d = 0; d < num_dims_ && bits > 0; ++d) {
      PackKeyBits(static_cast<uint32_t>(leaf_begin_[d][a.node[d]]),
                  leaf_bits_[d], &key, &bits);
    }
    return key;
  }

 private:
  int num_dims_;
  int level_bits_ = 0;
  const LeafId* leaf_begin_[kMaxDims] = {};
  int leaf_bits_[kMaxDims] = {};
};

}  // namespace iolap

#endif  // IOLAP_MODEL_SORT_KEY_H_
