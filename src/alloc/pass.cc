#include "alloc/pass.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <deque>
#include <unordered_map>
#include <vector>

namespace iolap {

/// Sliding window over one summary-table segment. Entries enter when the
/// cell scan reaches their region-start key and leave past their region-end
/// key; `write_back` persists modified entries on eviction.
///
/// Facts with *identical regions* (common in clustered data) are merged
/// into one open group — their Γ, Δ-contributions and ccid are provably
/// identical, so the per-cell work scales with the number of distinct open
/// regions while I/O and the EDB stay per-fact.
class PassEngine::TableWindow {
 public:
  struct Member {
    int64_t index;
    FactId fact_id;
    double measure;
  };
  struct OpenGroup {
    ImpreciseRecord rec;  // representative (first member's record)
    std::vector<Member> members;
  };

  TableWindow(BufferPool* pool, const StarSchema* schema,
              TypedFile<ImpreciseRecord>* file, const TableSegment& seg,
              const SpecComparator* cmp, bool write_back, bool reset_on_load,
              EmitStats* emit_stats)
      : pool_(pool),
        schema_(schema),
        file_(file),
        cmp_(cmp),
        write_back_(write_back),
        reset_on_load_(reset_on_load),
        emit_stats_(emit_stats),
        cursor_(file->Scan(*pool, seg.begin, seg.end)) {}

  Status AdvanceTo(const CellRecord& cell) {
    while (!open_.empty() &&
           cmp_->CompareRegionEndToCell(open_.front().rec, cell) < 0) {
      IOLAP_RETURN_IF_ERROR(EvictFront());
    }
    while (true) {
      if (!have_peek_) {
        if (cursor_.done()) break;
        peek_index_ = cursor_.index();
        IOLAP_RETURN_IF_ERROR(cursor_.Next(&peek_));
        have_peek_ = true;
      }
      if (cmp_->CompareRegionStartToCell(peek_, cell) > 0) break;
      if (reset_on_load_) {
        peek_.gamma = 0;
        peek_.num_cells = 0;
      }
      Member member{peek_index_, peek_.fact_id, peek_.measure};
      ++record_count_;
      NodeKey key = KeyOfRegion(peek_);
      auto it = by_region_.find(key);
      if (it != by_region_.end()) {
        it->second->members.push_back(member);
      } else {
        if (!have_levels_) {
          std::memcpy(levels_, peek_.level, sizeof(levels_));
          have_levels_ = true;
        }
        open_.push_back(OpenGroup{peek_, {member}});
        by_region_.emplace(key, &open_.back());
      }
      have_peek_ = false;
    }
    return Status::Ok();
  }

  /// The unique open group covering `cell`, if any: within one summary
  /// table regions are hierarchy-aligned and disjoint, so coverage is an
  /// exact match on the cell's ancestor vector at the table's levels —
  /// an O(1) lookup instead of a scan of the window.
  OpenGroup* FindCovering(const CellRecord& cell) {
    if (open_.empty()) return nullptr;
    NodeKey key{};
    for (int d = 0; d < schema_->num_dims(); ++d) {
      const Hierarchy& h = schema_->dim(d);
      if (levels_[d] == 1) {
        key[d] = h.leaf_node(cell.leaf[d]);
      } else {
        key[d] = h.NodeAt(levels_[d],
                          h.LeafAncestorOrdinal(cell.leaf[d], levels_[d]));
      }
    }
    auto it = by_region_.find(key);
    return it == by_region_.end() ? nullptr : it->second;
  }

  int64_t open_records() const { return record_count_; }

  Status Finish() {
    while (!open_.empty()) IOLAP_RETURN_IF_ERROR(EvictFront());
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
  using NodeKey = std::array<int32_t, kMaxDims>;
  struct NodeKeyHash {
    size_t operator()(const NodeKey& k) const {
      uint64_t h = 1469598103934665603ULL;
      for (int32_t v : k) {
        h ^= static_cast<uint64_t>(static_cast<uint32_t>(v));
        h *= 1099511628211ULL;
      }
      return static_cast<size_t>(h);
    }
  };

  NodeKey KeyOfRegion(const ImpreciseRecord& rec) const {
    NodeKey key{};
    std::memcpy(key.data(), rec.node,
                sizeof(int32_t) * static_cast<size_t>(schema_->num_dims()));
    return key;
  }

  Status EvictFront() {
    OpenGroup& group = open_.front();
    if (write_back_) {
      // All members share the group's computed state (Γ, cell count,
      // component id); identities stay per-fact.
      ImpreciseRecord rec = group.rec;
      for (const Member& m : group.members) {
        rec.fact_id = m.fact_id;
        rec.measure = m.measure;
        IOLAP_RETURN_IF_ERROR(file_->Put(*pool_, m.index, rec));
      }
    }
    if (emit_stats_ != nullptr && group.rec.gamma <= 0) {
      emit_stats_->unallocatable_facts +=
          static_cast<int64_t>(group.members.size());
    }
    record_count_ -= static_cast<int64_t>(group.members.size());
    by_region_.erase(KeyOfRegion(group.rec));
    open_.pop_front();
    return Status::Ok();
  }

  BufferPool* pool_;
  const StarSchema* schema_;
  TypedFile<ImpreciseRecord>* file_;
  const SpecComparator* cmp_;
  bool write_back_;
  bool reset_on_load_;
  EmitStats* emit_stats_;
  uint8_t levels_[kMaxDims] = {};
  bool have_levels_ = false;
  TypedFile<ImpreciseRecord>::Cursor cursor_;
  std::deque<OpenGroup> open_;  // deque: stable references on push/pop
  std::unordered_map<NodeKey, OpenGroup*, NodeKeyHash> by_region_;
  ImpreciseRecord peek_;
  int64_t peek_index_ = -1;
  bool have_peek_ = false;
  int64_t record_count_ = 0;
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

  std::vector<TableWindow> windows;
  windows.reserve(tables.size());
  for (const TableSegment& seg : tables) {
    windows.emplace_back(pool_, schema_, imprecise_, seg, cmp_,
                         write_back_entries, reset_on_load,
                         kind == PassKind::kEmit ? stats : nullptr);
  }

  auto cursor = mutate_cells ? cells_->MutableScan(*pool_, begin, end)
                             : cells_->Scan(*pool_, begin, end);

  CellRecord cell;
  std::vector<int32_t> touched_ccids;               // scratch for kCcid
  std::vector<TableWindow::OpenGroup*> covering;    // scratch for kCcid
  while (!cursor.done()) {
    IOLAP_RETURN_IF_ERROR(cursor.Read(&cell));
    bool cell_modified = false;

    if (kind == PassKind::kDelta && init_delta) {
      cell.delta_cur = cell.delta0;
      cell_modified = true;
    }

    int64_t open_total = 0;
    touched_ccids.clear();
    covering.clear();
    bool covered = false;
    for (TableWindow& window : windows) {
      IOLAP_RETURN_IF_ERROR(window.AdvanceTo(cell));
      open_total += window.open_records();
      TableWindow::OpenGroup* group = window.FindCovering(cell);
      if (group == nullptr) continue;
      covered = true;
      const double weight = static_cast<double>(group->members.size());
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
            for (const auto& member : group->members) {
              edb.fact_id = member.fact_id;
              edb.measure = member.measure;
              IOLAP_RETURN_IF_ERROR(out->Append(edb));
              ++stats->edges_emitted;
            }
          }
          break;
      }
    }
    peak_window_records_ = std::max(peak_window_records_, open_total);

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
      for (TableWindow::OpenGroup* group : covering) {
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
