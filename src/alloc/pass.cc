#include "alloc/pass.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

namespace iolap {

namespace {

/// A window event key no cell key reaches.
constexpr uint64_t kNever = std::numeric_limits<uint64_t>::max();

/// < 0 / 0 / > 0 comparing two packed keys of `n` words.
int CompareKeys(const uint64_t* a, const uint64_t* b, int n) {
  for (int i = 0; i < n; ++i) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

/// Odd per-dimension multipliers of the group-map hash Σ_d ord[d]·M[d].
/// The hash is linear, so a pass computes each (dimension, level) term of a
/// cell once and every window sums the terms at its levels; maps index by
/// the top bits, which multiplication mixes well.
constexpr uint64_t kOrdinalMul[kMaxDims] = {
    0x9E3779B97F4A7C15ULL, 0xC2B2AE3D27D4EB4FULL, 0x165667B19E3779F9ULL,
    0xD6E8FEB86659FD93ULL, 0xFF51AFD7ED558CCDULL, 0xC4CEB9FE1A85EC53ULL};

uint64_t OrdinalTerm(int32_t ord, int dim) {
  return static_cast<uint64_t>(static_cast<uint32_t>(ord)) * kOrdinalMul[dim];
}

/// FIFO addressed by ever-increasing sequence numbers, stored in a
/// power-of-two ring that doubles when full. References stay valid until
/// their element is popped or the next push_back.
template <typename T>
class SeqRing {
 public:
  bool empty() const { return head_ == tail_; }
  int64_t size() const { return tail_ - head_; }
  /// Sequence number the next push_back gets.
  int64_t tail() const { return tail_; }
  T& operator[](int64_t seq) { return buf_[static_cast<size_t>(seq) & mask_]; }
  const T& operator[](int64_t seq) const {
    return buf_[static_cast<size_t>(seq) & mask_];
  }
  T& front() { return (*this)[head_]; }
  T& back() { return (*this)[tail_ - 1]; }
  void pop_front(int64_t n = 1) { head_ += n; }
  void push_back(const T& value) {
    if (size() == static_cast<int64_t>(buf_.size())) Grow();
    (*this)[tail_++] = value;
  }

 private:
  void Grow() {
    std::vector<T> bigger(std::max<size_t>(16, 2 * buf_.size()));
    const size_t mask = bigger.size() - 1;
    for (int64_t s = head_; s < tail_; ++s) {
      bigger[static_cast<size_t>(s) & mask] = (*this)[s];
    }
    buf_.swap(bigger);
    mask_ = mask;
  }

  std::vector<T> buf_;
  size_t mask_ = 0;
  int64_t head_ = 0;
  int64_t tail_ = 0;
};

/// Open-addressed (linear probing) map from a 64-bit hash to a sequence
/// number, indexed by the hash's top bits and kept at most half full.
/// Probes read a dense array of 32-bit tags (0 marks an empty slot), so a
/// miss, the common case, touches four bytes per slot; callers confirm a
/// tag match against the entry itself.
class GroupMap {
 public:
  GroupMap() { Resize(16); }

  /// The first entry whose tag matches `hash` and for which `match(seq)`
  /// holds, or -1.
  template <typename Match>
  int64_t Find(uint64_t hash, const Match& match) const {
    const uint32_t tag = Tag(hash);
    for (size_t i = Home(hash); tags_[i] != 0; i = Next(i)) {
      if (tags_[i] == tag && match(seqs_[i])) return seqs_[i];
    }
    return -1;
  }

  void Insert(uint64_t hash, int64_t seq) {
    if (2 * (count_ + 1) > tags_.size()) Rehash(2 * tags_.size());
    Place(hash, seq);
    ++count_;
  }

  /// Removes `seq` by backward-shift deletion, which keeps every remaining
  /// entry reachable from its home slot without tombstones.
  void Erase(uint64_t hash, int64_t seq) {
    size_t i = Home(hash);
    while (seqs_[i] != seq) i = Next(i);
    for (size_t j = Next(i); tags_[j] != 0; j = Next(j)) {
      const size_t mask = tags_.size() - 1;
      if (((j - Home(hashes_[j])) & mask) >= ((j - i) & mask)) {
        tags_[i] = tags_[j];
        seqs_[i] = seqs_[j];
        hashes_[i] = hashes_[j];
        i = j;
      }
    }
    tags_[i] = 0;
    --count_;
  }

 private:
  static uint32_t Tag(uint64_t hash) {
    return static_cast<uint32_t>(hash) | 1;
  }
  size_t Home(uint64_t hash) const { return hash >> shift_; }
  size_t Next(size_t i) const { return (i + 1) & (tags_.size() - 1); }

  void Place(uint64_t hash, int64_t seq) {
    size_t i = Home(hash);
    while (tags_[i] != 0) i = Next(i);
    tags_[i] = Tag(hash);
    seqs_[i] = seq;
    hashes_[i] = hash;
  }

  void Resize(size_t capacity) {
    tags_.assign(capacity, 0);
    seqs_.assign(capacity, -1);
    hashes_.assign(capacity, 0);
    shift_ = 64 - std::countr_zero(capacity);
  }

  void Rehash(size_t capacity) {
    std::vector<uint32_t> tags = std::move(tags_);
    std::vector<int64_t> seqs = std::move(seqs_);
    std::vector<uint64_t> hashes = std::move(hashes_);
    Resize(capacity);
    for (size_t i = 0; i < tags.size(); ++i) {
      if (tags[i] != 0) Place(hashes[i], seqs[i]);
    }
  }

  std::vector<uint32_t> tags_;
  std::vector<int64_t> seqs_;
  std::vector<uint64_t> hashes_;
  size_t count_ = 0;
  int shift_ = 60;  // 64 - log2(capacity)
};

}  // namespace

/// Sliding window over one summary-table segment. Entries enter when the
/// cell scan reaches their region-start key and leave past their region-end
/// key; `write_back` persists modified entries on eviction.
///
/// Facts with *identical regions* (common in clustered data) are merged
/// into one open group — their Γ, Δ-contributions and ccid are provably
/// identical, so the per-cell work scales with the number of distinct open
/// regions while I/O and the EDB stay per-fact. Entries arrive in region
/// start order, so a group's members are consecutive entries of the file.
class PassEngine::TableWindow {
 public:
  struct Member {
    FactId fact_id;
    double measure;
  };
  struct Group {
    ImpreciseRecord rec;    // representative (first member's record)
    uint64_t end_prefix;    // word 0 of the region's end key
    uint64_t hash;          // of `ord`
    int32_t ord[kMaxDims];  // the region's ordinals at the table's levels
    int64_t first_index;    // members are entries [first_index, +size)
    int64_t first_member;   // sequence number of the first in members_
    int64_t size;
  };

  /// `ord_slot[d]` indexes dimension d's ancestor ordinal at the table's
  /// level in the per-cell ordinal array the pass hands FindCovering.
  TableWindow(BufferPool* pool, const StarSchema* schema,
              TypedFile<ImpreciseRecord>* file, const TableSegment& seg,
              const SpecComparator* cmp, const int* ord_slot,
              bool write_back, bool reset_on_load, EmitStats* emit_stats)
      : pool_(pool),
        schema_(schema),
        file_(file),
        cmp_(cmp),
        write_back_(write_back),
        reset_on_load_(reset_on_load),
        emit_stats_(emit_stats),
        cursor_(file->Scan(*pool, seg.begin, seg.end)),
        scratch_(static_cast<size_t>(cmp->key_words())) {
    for (int d = 0; d < schema->num_dims(); ++d) {
      ord_slot_[d] = ord_slot[d];
    }
  }

  /// Cells whose key prefix is below this can neither load nor evict an
  /// entry here, so the pass skips AdvanceTo for them.
  uint64_t next_event() const { return next_event_; }

  /// Evicts the groups that end before the cell and loads the entries
  /// that start at or before it. `cell_key` holds the cell's key_words().
  Status AdvanceTo(const uint64_t* cell_key) {
    while (!groups_.empty() && EndsBefore(groups_.front(), cell_key)) {
      IOLAP_RETURN_IF_ERROR(EvictFront());
    }
    while (true) {
      if (!have_peek_) {
        if (cursor_.done()) break;
        peek_index_ = cursor_.index();
        IOLAP_RETURN_IF_ERROR(cursor_.Next(&peek_));
        cmp_->RegionStartKey(peek_, &peek_start_, 1);
        have_peek_ = true;
      }
      if (StartsAfter(cell_key)) break;
      IOLAP_RETURN_IF_ERROR(LoadPeek());
      have_peek_ = false;
    }
    next_event_ = have_peek_ ? peek_start_ : kNever;
    if (!groups_.empty()) {
      // A complete key evicts only past the end key; a truncated one may
      // evict at a prefix tie already.
      uint64_t end = groups_.front().end_prefix;
      if (cmp_->key_complete() && end != kNever) ++end;
      next_event_ = std::min(next_event_, end);
    }
    return Status::Ok();
  }

  bool empty() const { return groups_.empty(); }

  /// The unique open group covering the cell whose ancestor ordinals are
  /// `cell_ords` (and their hash terms `cell_terms`), if any: within one
  /// summary table regions are hierarchy-aligned and disjoint, so coverage
  /// is an exact match on the cell's ordinals at the table's levels.
  Group* FindCovering(const int32_t* cell_ords, const uint64_t* cell_terms) {
    const int k = schema_->num_dims();
    const int64_t seq = map_.Find(HashOf(cell_terms), [&](int64_t s) {
      const Group& group = groups_[s];
      for (int d = 0; d < k; ++d) {
        if (group.ord[d] != cell_ords[ord_slot_[d]]) return false;
      }
      return true;
    });
    return seq < 0 ? nullptr : &groups_[seq];
  }

  const Member& member(int64_t seq) const { return members_[seq]; }

  int64_t open_records() const { return members_.size(); }

  Status Finish() {
    while (!groups_.empty()) IOLAP_RETURN_IF_ERROR(EvictFront());
    return Status::Ok();
  }

  /// Calls `fn` on every entry that was never loaded (used by the emit
  /// pass to account for facts past the end of the cell scan).
  template <typename Fn>
  Status DrainRemaining(Fn fn) {
    if (have_peek_) {
      IOLAP_RETURN_IF_ERROR(fn(peek_));
      have_peek_ = false;
    }
    ImpreciseRecord rec;
    while (!cursor_.done()) {
      IOLAP_RETURN_IF_ERROR(cursor_.Next(&rec));
      IOLAP_RETURN_IF_ERROR(fn(rec));
    }
    return Status::Ok();
  }

 private:
  uint64_t HashOf(const uint64_t* cell_terms) const {
    uint64_t hash = 0;
    for (int d = 0; d < schema_->num_dims(); ++d) {
      hash += cell_terms[ord_slot_[d]];
    }
    return hash;
  }

  bool EndsBefore(const Group& group, const uint64_t* cell_key) {
    if (group.end_prefix != cell_key[0]) return group.end_prefix < cell_key[0];
    if (cmp_->key_complete()) return false;
    cmp_->RegionEndKey(group.rec, scratch_.data(), cmp_->key_words());
    return CompareKeys(scratch_.data(), cell_key, cmp_->key_words()) < 0;
  }

  bool StartsAfter(const uint64_t* cell_key) {
    if (peek_start_ != cell_key[0]) return peek_start_ > cell_key[0];
    if (cmp_->key_complete()) return false;
    cmp_->RegionStartKey(peek_, scratch_.data(), cmp_->key_words());
    return CompareKeys(scratch_.data(), cell_key, cmp_->key_words()) > 0;
  }

  Status LoadPeek() {
    if (reset_on_load_) {
      peek_.gamma = 0;
      peek_.num_cells = 0;
    }
    const int k = schema_->num_dims();
    members_.push_back(Member{peek_.fact_id, peek_.measure});
    if (!groups_.empty() &&
        std::equal(peek_.node, peek_.node + k, groups_.back().rec.node)) {
      ++groups_.back().size;
      return Status::Ok();
    }
    Group group;
    group.rec = peek_;
    cmp_->RegionEndKey(peek_, &group.end_prefix, 1);
    group.hash = 0;
    for (int d = 0; d < k; ++d) {
      group.ord[d] = schema_->dim(d).ordinal(peek_.node[d]);
      group.hash += OrdinalTerm(group.ord[d], d);
    }
    group.first_index = peek_index_;
    group.first_member = members_.tail() - 1;
    group.size = 1;
    if (map_.Find(group.hash, [&](int64_t s) {
          return std::equal(group.ord, group.ord + k, groups_[s].ord);
        }) >= 0) {
      return Status::Internal(
          "summary-table segment not in region start order");
    }
    map_.Insert(group.hash, groups_.tail());
    groups_.push_back(group);
    return Status::Ok();
  }

  Status EvictFront() {
    Group& group = groups_.front();
    if (write_back_) {
      // All members share the group's computed state (Γ, cell count,
      // component id); identities stay per-fact. Members are consecutive
      // entries, so one cursor pins each of their pages once.
      auto out = file_->MutableScan(*pool_, group.first_index,
                                    group.first_index + group.size);
      ImpreciseRecord rec = group.rec;
      for (int64_t m = 0; m < group.size; ++m) {
        const Member& member = members_[group.first_member + m];
        rec.fact_id = member.fact_id;
        rec.measure = member.measure;
        IOLAP_RETURN_IF_ERROR(out.Write(rec));
        out.Advance();
      }
    }
    if (emit_stats_ != nullptr && group.rec.gamma <= 0) {
      emit_stats_->unallocatable_facts += group.size;
    }
    map_.Erase(group.hash, groups_.tail() - groups_.size());
    members_.pop_front(group.size);
    groups_.pop_front();
    return Status::Ok();
  }

  BufferPool* pool_;
  const StarSchema* schema_;
  TypedFile<ImpreciseRecord>* file_;
  const SpecComparator* cmp_;
  bool write_back_;
  bool reset_on_load_;
  EmitStats* emit_stats_;
  int ord_slot_[kMaxDims] = {};
  TypedFile<ImpreciseRecord>::Cursor cursor_;
  SeqRing<Group> groups_;
  SeqRing<Member> members_;
  GroupMap map_;  // open groups by the hash of their ordinals
  std::vector<uint64_t> scratch_;  // a full key, for truncated-prefix ties
  uint64_t next_event_ = 0;        // 0: the first cell peeks
  ImpreciseRecord peek_;
  uint64_t peek_start_ = 0;  // word 0 of peek_'s start key
  int64_t peek_index_ = -1;
  bool have_peek_ = false;
};

Status PassEngine::RunGamma(const std::vector<TableSegment>& tables) {
  return RunPass(PassKind::kGamma, tables, false, false, nullptr, nullptr,
                 nullptr, nullptr);
}

Status PassEngine::RunDelta(const std::vector<TableSegment>& tables,
                            bool init_delta, bool finalize, double* max_eps) {
  return RunPass(PassKind::kDelta, tables, init_delta, finalize, max_eps,
                 nullptr, nullptr, nullptr);
}

Status PassEngine::RunCcid(const std::vector<TableSegment>& tables,
                           UnionFind* uf) {
  return RunPass(PassKind::kCcid, tables, false, false, nullptr, uf, nullptr,
                 nullptr);
}

Status PassEngine::RunEmit(const std::vector<TableSegment>& tables,
                           typename TypedFile<EdbRecord>::Appender* out,
                           EmitStats* stats) {
  return RunPass(PassKind::kEmit, tables, false, false, nullptr, nullptr, out,
                 stats);
}

Status PassEngine::RunPass(PassKind kind,
                           const std::vector<TableSegment>& tables,
                           bool init_delta, bool finalize, double* max_eps,
                           UnionFind* uf,
                           typename TypedFile<EdbRecord>::Appender* out,
                           EmitStats* stats) {
  const bool mutate_cells = kind == PassKind::kDelta || kind == PassKind::kCcid;
  const bool write_back_entries =
      kind == PassKind::kGamma || kind == PassKind::kCcid;
  const bool reset_on_load = kind == PassKind::kGamma;

  const int64_t begin = cell_begin_;
  const int64_t end = cell_end_ < 0 ? cells_->size() : cell_end_;

  // The (dimension, level) pairs the tables' windows probe by; a cell's
  // ancestor ordinals at all of them are computed once, when the first
  // open window needs them.
  const int k = schema_->num_dims();
  std::vector<std::pair<int, int>> ord_pairs;
  std::vector<TableWindow> windows;
  windows.reserve(tables.size());
  for (const TableSegment& seg : tables) {
    int ord_slot[kMaxDims];
    for (int d = 0; d < k; ++d) {
      const std::pair<int, int> pair(d, seg.levels[d]);
      auto it = std::find(ord_pairs.begin(), ord_pairs.end(), pair);
      ord_slot[d] = static_cast<int>(it - ord_pairs.begin());
      if (it == ord_pairs.end()) ord_pairs.push_back(pair);
    }
    windows.emplace_back(pool_, schema_, imprecise_, seg, cmp_, ord_slot,
                         write_back_entries, reset_on_load,
                         kind == PassKind::kEmit ? stats : nullptr);
  }
  std::vector<const int32_t*> ord_rows;
  for (const auto& [d, level] : ord_pairs) {
    ord_rows.push_back(schema_->dim(d).LeafAncestorOrdinals(level));
  }
  std::vector<int32_t> cell_ords(ord_pairs.size());
  std::vector<uint64_t> cell_terms(ord_pairs.size());
  std::vector<uint64_t> cell_key(static_cast<size_t>(cmp_->key_words()));

  auto cursor = mutate_cells ? cells_->MutableScan(*pool_, begin, end)
                             : cells_->Scan(*pool_, begin, end);

  CellRecord cell;
  std::vector<int32_t> touched_ccids;               // scratch for kCcid
  std::vector<TableWindow::Group*> covering;        // scratch for kCcid
  while (!cursor.done()) {
    IOLAP_RETURN_IF_ERROR(cursor.Read(&cell));
    bool cell_modified = false;

    if (kind == PassKind::kDelta && init_delta) {
      cell.delta_cur = cell.delta0;
      cell_modified = true;
    }

    cmp_->CellKey(cell.leaf, cell_key.data(), cmp_->key_words());
    bool advanced = false;
    bool have_ords = false;
    touched_ccids.clear();
    covering.clear();
    bool covered = false;
    for (TableWindow& window : windows) {
      if (cell_key[0] >= window.next_event()) {
        IOLAP_RETURN_IF_ERROR(window.AdvanceTo(cell_key.data()));
        advanced = true;
      }
      if (window.empty()) continue;
      if (!have_ords) {
        for (size_t p = 0; p < ord_pairs.size(); ++p) {
          const int d = ord_pairs[p].first;
          cell_ords[p] = ord_rows[p][cell.leaf[d]];
          cell_terms[p] = OrdinalTerm(cell_ords[p], d);
        }
        have_ords = true;
      }
      TableWindow::Group* group =
          window.FindCovering(cell_ords.data(), cell_terms.data());
      if (group == nullptr) continue;
      covered = true;
      const double weight = static_cast<double>(group->size);
      switch (kind) {
        case PassKind::kGamma:
          group->rec.gamma += cell.delta_prev;
          ++group->rec.num_cells;
          break;
        case PassKind::kDelta:
          if (group->rec.gamma > 0) {
            cell.delta_cur += weight * cell.delta_prev / group->rec.gamma;
            cell_modified = true;
          }
          break;
        case PassKind::kCcid:
          if (group->rec.ccid >= 0) touched_ccids.push_back(group->rec.ccid);
          covering.push_back(group);
          break;
        case PassKind::kEmit:
          if (group->rec.gamma > 0 && cell.delta_prev > 0) {
            EdbRecord edb;
            edb.weight = cell.delta_prev / group->rec.gamma;
            std::memcpy(edb.leaf, cell.leaf, sizeof(edb.leaf));
            for (int64_t m = 0; m < group->size; ++m) {
              const TableWindow::Member& member =
                  window.member(group->first_member + m);
              edb.fact_id = member.fact_id;
              edb.measure = member.measure;
              IOLAP_RETURN_IF_ERROR(out->Append(edb));
              ++stats->edges_emitted;
            }
          }
          break;
      }
    }
    if (advanced) {
      int64_t open_total = 0;
      for (const TableWindow& window : windows) {
        open_total += window.open_records();
      }
      peak_window_records_ = std::max(peak_window_records_, open_total);
    }

    if (kind == PassKind::kCcid && covered) {
      if (cell.ccid >= 0) touched_ccids.push_back(cell.ccid);
      int32_t id;
      if (touched_ccids.empty()) {
        id = uf->Add();
      } else {
        id = touched_ccids[0];
        for (size_t i = 1; i < touched_ccids.size(); ++i) {
          uf->Union(id, touched_ccids[i]);
        }
      }
      if (cell.ccid < 0) {
        cell.ccid = id;
        cell_modified = true;
      }
      for (TableWindow::Group* group : covering) {
        if (group->rec.ccid < 0) group->rec.ccid = id;
      }
    }

    if (kind == PassKind::kDelta) {
      if (covered) {
        cell.overlapped = 1;
        cell_modified = true;
      }
      if (finalize) {
        double eps;
        if (cell.delta_prev != 0) {
          eps = std::fabs(cell.delta_cur - cell.delta_prev) /
                std::fabs(cell.delta_prev);
        } else {
          eps = cell.delta_cur == 0 ? 0.0 : 1.0;
        }
        if (max_eps != nullptr) *max_eps = std::max(*max_eps, eps);
        cell.delta_prev = cell.delta_cur;
        cell_modified = true;
      }
    }

    if (cell_modified) {
      IOLAP_RETURN_IF_ERROR(cursor.Write(cell));
    }
    cursor.Advance();
  }

  for (TableWindow& window : windows) {
    IOLAP_RETURN_IF_ERROR(window.Finish());
    if (kind == PassKind::kEmit) {
      IOLAP_RETURN_IF_ERROR(
          window.DrainRemaining([&](const ImpreciseRecord& rec) -> Status {
            if (rec.gamma <= 0) ++stats->unallocatable_facts;
            return Status::Ok();
          }));
    }
  }
  return Status::Ok();
}

}  // namespace iolap
