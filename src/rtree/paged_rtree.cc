#include "rtree/paged_rtree.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <optional>

namespace iolap {

namespace {

struct PagedEntry {
  Rect rect;
  int64_t child;  // child page (internal) or entry id (leaf)
};
static_assert(sizeof(Rect) == 2 * kMaxDims * sizeof(int32_t));

// Page layout: [leaf:int32][count:int32][parent:int64][entries...]
constexpr size_t kHeaderBytes = 16;
constexpr size_t kEntryBytes = sizeof(Rect) + sizeof(int64_t);
constexpr int kPageCapacity =
    static_cast<int>((kPageSize - kHeaderBytes) / kEntryBytes);

double Area(const Rect& r, int k) {
  double area = 1;
  for (int d = 0; d < k; ++d) {
    area *= static_cast<double>(r.hi[d]) - r.lo[d] + 1;
  }
  return area;
}

Rect Combine(const Rect& a, const Rect& b, int k) {
  Rect r;
  for (int d = 0; d < k; ++d) {
    r.lo[d] = std::min(a.lo[d], b.lo[d]);
    r.hi[d] = std::max(a.hi[d], b.hi[d]);
  }
  return r;
}

double Enlargement(const Rect& base, const Rect& add, int k) {
  return Area(Combine(base, add, k), k) - Area(base, k);
}

bool RectsEqual(const Rect& a, const Rect& b, int k) {
  for (int d = 0; d < k; ++d) {
    if (a.lo[d] != b.lo[d] || a.hi[d] != b.hi[d]) return false;
  }
  return true;
}

}  // namespace

struct PagedRTree::NodeData {
  PageId page = -1;
  bool leaf = true;
  PageId parent = -1;
  std::vector<PagedEntry> entries;

  Rect Mbr(int k) const {
    Rect r = entries.front().rect;
    for (size_t i = 1; i < entries.size(); ++i) {
      r = Combine(r, entries[i].rect, k);
    }
    return r;
  }
};

Result<PagedRTree> PagedRTree::Create(DiskManager* disk, BufferPool* pool,
                                      int num_dims, int max_entries) {
  if (max_entries <= 0 || max_entries > kPageCapacity) {
    max_entries = kPageCapacity;
  }
  max_entries = std::max(max_entries, 4);
  IOLAP_ASSIGN_OR_RETURN(FileId file, disk->CreateFile("rtree"));
  PagedRTree tree(disk, pool, file, num_dims, max_entries);
  IOLAP_ASSIGN_OR_RETURN(tree.root_, tree.AllocateNode());
  NodeData root;
  root.page = tree.root_;
  root.leaf = true;
  root.parent = -1;
  IOLAP_RETURN_IF_ERROR(tree.WriteNode(root));
  return tree;
}

Result<PagedRTree::NodeData> PagedRTree::ReadNode(PageId page) {
  ++nodes_accessed_;
  IOLAP_ASSIGN_OR_RETURN(PageGuard guard, pool_->Pin(file_, page));
  const std::byte* data = guard.data();
  NodeData node;
  node.page = page;
  int32_t leaf, count;
  std::memcpy(&leaf, data, sizeof(leaf));
  std::memcpy(&count, data + 4, sizeof(count));
  std::memcpy(&node.parent, data + 8, sizeof(node.parent));
  node.leaf = leaf != 0;
  node.entries.resize(count);
  for (int i = 0; i < count; ++i) {
    const std::byte* at = data + kHeaderBytes + i * kEntryBytes;
    std::memcpy(&node.entries[i].rect, at, sizeof(Rect));
    std::memcpy(&node.entries[i].child, at + sizeof(Rect), sizeof(int64_t));
  }
  return node;
}

Status PagedRTree::WriteNode(const NodeData& node) {
  IOLAP_ASSIGN_OR_RETURN(PageGuard guard, pool_->Pin(file_, node.page));
  std::byte* data = guard.data();
  int32_t leaf = node.leaf ? 1 : 0;
  int32_t count = static_cast<int32_t>(node.entries.size());
  std::memcpy(data, &leaf, sizeof(leaf));
  std::memcpy(data + 4, &count, sizeof(count));
  std::memcpy(data + 8, &node.parent, sizeof(node.parent));
  for (int i = 0; i < count; ++i) {
    std::byte* at = data + kHeaderBytes + i * kEntryBytes;
    std::memcpy(at, &node.entries[i].rect, sizeof(Rect));
    std::memcpy(at + sizeof(Rect), &node.entries[i].child, sizeof(int64_t));
  }
  guard.MarkDirty();
  return Status::Ok();
}

Result<PageId> PagedRTree::AllocateNode() {
  if (!free_pages_.empty()) {
    PageId page = free_pages_.back();
    free_pages_.pop_back();
    return page;
  }
  PageId page = next_page_++;
  IOLAP_ASSIGN_OR_RETURN(PageGuard guard, pool_->PinNew(file_, page));
  guard.MarkDirty();
  return page;
}

void PagedRTree::FreeNode(PageId page) { free_pages_.push_back(page); }

Status PagedRTree::ChooseLeaf(const Rect& rect, std::vector<NodeData>* path) {
  path->clear();
  PageId page = root_;
  while (true) {
    IOLAP_ASSIGN_OR_RETURN(NodeData node, ReadNode(page));
    const bool leaf = node.leaf;
    if (!leaf) {
      const PagedEntry* best = nullptr;
      double best_enlargement = std::numeric_limits<double>::infinity();
      double best_area = std::numeric_limits<double>::infinity();
      for (const PagedEntry& e : node.entries) {
        double enl = Enlargement(e.rect, rect, k_);
        double area = Area(e.rect, k_);
        if (enl < best_enlargement ||
            (enl == best_enlargement && area < best_area)) {
          best = &e;
          best_enlargement = enl;
          best_area = area;
        }
      }
      page = best->child;
    }
    path->push_back(std::move(node));
    if (leaf) return Status::Ok();
  }
}

Status PagedRTree::SplitNode(NodeData* node, NodeData* fresh) {
  std::vector<PagedEntry> entries = std::move(node->entries);
  node->entries.clear();
  fresh->leaf = node->leaf;
  fresh->parent = node->parent;

  size_t seed_a = 0, seed_b = 1;
  double worst = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < entries.size(); ++i) {
    for (size_t j = i + 1; j < entries.size(); ++j) {
      double waste = Area(Combine(entries[i].rect, entries[j].rect, k_), k_) -
                     Area(entries[i].rect, k_) - Area(entries[j].rect, k_);
      if (waste > worst) {
        worst = waste;
        seed_a = i;
        seed_b = j;
      }
    }
  }
  Rect mbr_a = entries[seed_a].rect;
  Rect mbr_b = entries[seed_b].rect;
  std::vector<bool> assigned(entries.size(), false);
  assigned[seed_a] = assigned[seed_b] = true;
  node->entries.push_back(entries[seed_a]);
  fresh->entries.push_back(entries[seed_b]);

  size_t remaining = entries.size() - 2;
  while (remaining > 0) {
    if (node->entries.size() + remaining ==
        static_cast<size_t>(min_entries_)) {
      for (size_t i = 0; i < entries.size(); ++i) {
        if (!assigned[i]) {
          assigned[i] = true;
          node->entries.push_back(entries[i]);
        }
      }
      break;
    }
    if (fresh->entries.size() + remaining ==
        static_cast<size_t>(min_entries_)) {
      for (size_t i = 0; i < entries.size(); ++i) {
        if (!assigned[i]) {
          assigned[i] = true;
          fresh->entries.push_back(entries[i]);
        }
      }
      break;
    }
    size_t best = 0;
    double best_diff = -1;
    for (size_t i = 0; i < entries.size(); ++i) {
      if (assigned[i]) continue;
      double da = Enlargement(mbr_a, entries[i].rect, k_);
      double db = Enlargement(mbr_b, entries[i].rect, k_);
      if (std::abs(da - db) > best_diff) {
        best_diff = std::abs(da - db);
        best = i;
      }
    }
    double da = Enlargement(mbr_a, entries[best].rect, k_);
    double db = Enlargement(mbr_b, entries[best].rect, k_);
    assigned[best] = true;
    --remaining;
    if (da < db ||
        (da == db && node->entries.size() <= fresh->entries.size())) {
      mbr_a = Combine(mbr_a, entries[best].rect, k_);
      node->entries.push_back(entries[best]);
    } else {
      mbr_b = Combine(mbr_b, entries[best].rect, k_);
      fresh->entries.push_back(entries[best]);
    }
  }

  // Children that moved to the fresh node point to a new parent.
  if (!node->leaf) {
    for (const PagedEntry& e : fresh->entries) {
      IOLAP_ASSIGN_OR_RETURN(NodeData child, ReadNode(e.child));
      child.parent = fresh->page;
      IOLAP_RETURN_IF_ERROR(WriteNode(child));
    }
  }
  return Status::Ok();
}

Status PagedRTree::AdjustTree(std::vector<NodeData>* path,
                              std::optional<NodeData> split) {
  while (true) {
    NodeData& node = path->back();
    if (node.parent < 0) {
      if (split.has_value()) {
        // Root split: grow the tree.
        IOLAP_ASSIGN_OR_RETURN(PageId new_root, AllocateNode());
        NodeData root;
        root.page = new_root;
        root.leaf = false;
        root.parent = -1;
        root.entries.push_back(PagedEntry{node.Mbr(k_), node.page});
        root.entries.push_back(PagedEntry{split->Mbr(k_), split->page});
        node.parent = new_root;
        split->parent = new_root;
        IOLAP_RETURN_IF_ERROR(WriteNode(node));
        IOLAP_RETURN_IF_ERROR(WriteNode(*split));
        IOLAP_RETURN_IF_ERROR(WriteNode(root));
        root_ = new_root;
        ++height_;
      }
      return Status::Ok();
    }
    NodeData& parent = (*path)[path->size() - 2];
    for (PagedEntry& e : parent.entries) {
      if (e.child == node.page) {
        e.rect = node.Mbr(k_);
        break;
      }
    }
    std::optional<NodeData> next_split;
    if (split.has_value()) {
      split->parent = parent.page;
      IOLAP_RETURN_IF_ERROR(WriteNode(*split));
      parent.entries.push_back(PagedEntry{split->Mbr(k_), split->page});
      if (parent.entries.size() > static_cast<size_t>(max_entries_)) {
        NodeData fresh;
        IOLAP_ASSIGN_OR_RETURN(fresh.page, AllocateNode());
        IOLAP_RETURN_IF_ERROR(SplitNode(&parent, &fresh));
        IOLAP_RETURN_IF_ERROR(WriteNode(fresh));
        next_split = std::move(fresh);
      }
    }
    IOLAP_RETURN_IF_ERROR(WriteNode(parent));
    path->pop_back();
    split = std::move(next_split);
  }
}

Status PagedRTree::Insert(const Rect& rect, int64_t id) {
  std::vector<NodeData> path;
  IOLAP_RETURN_IF_ERROR(ChooseLeaf(rect, &path));
  NodeData& leaf = path.back();
  leaf.entries.push_back(PagedEntry{rect, id});
  std::optional<NodeData> split;
  if (leaf.entries.size() > static_cast<size_t>(max_entries_)) {
    NodeData fresh;
    IOLAP_ASSIGN_OR_RETURN(fresh.page, AllocateNode());
    IOLAP_RETURN_IF_ERROR(SplitNode(&leaf, &fresh));
    IOLAP_RETURN_IF_ERROR(WriteNode(fresh));
    split = std::move(fresh);
  }
  IOLAP_RETURN_IF_ERROR(WriteNode(leaf));
  IOLAP_RETURN_IF_ERROR(AdjustTree(&path, std::move(split)));
  ++size_;
  return Status::Ok();
}

Status PagedRTree::FindLeaf(PageId page, const Rect& rect, int64_t id,
                            PageId* leaf) {
  IOLAP_ASSIGN_OR_RETURN(NodeData node, ReadNode(page));
  if (node.leaf) {
    for (const PagedEntry& e : node.entries) {
      if (e.child == id && RectsEqual(e.rect, rect, k_)) {
        *leaf = page;
        return Status::Ok();
      }
    }
    return Status::Ok();
  }
  for (const PagedEntry& e : node.entries) {
    if (RectContains(e.rect, rect, k_)) {
      IOLAP_RETURN_IF_ERROR(FindLeaf(e.child, rect, id, leaf));
      if (*leaf >= 0) return Status::Ok();
    }
  }
  return Status::Ok();
}

Status PagedRTree::CollectLeafEntries(
    PageId page, std::vector<std::pair<Rect, int64_t>>* out) {
  IOLAP_ASSIGN_OR_RETURN(NodeData node, ReadNode(page));
  if (node.leaf) {
    for (const PagedEntry& e : node.entries) {
      out->emplace_back(e.rect, e.child);
    }
  } else {
    for (const PagedEntry& e : node.entries) {
      IOLAP_RETURN_IF_ERROR(CollectLeafEntries(e.child, out));
    }
  }
  FreeNode(page);
  return Status::Ok();
}

Status PagedRTree::CondenseTree(PageId leaf_page) {
  std::vector<std::pair<Rect, int64_t>> orphans;
  PageId page = leaf_page;
  while (true) {
    IOLAP_ASSIGN_OR_RETURN(NodeData node, ReadNode(page));
    if (node.parent < 0) break;
    IOLAP_ASSIGN_OR_RETURN(NodeData parent, ReadNode(node.parent));
    if (node.entries.size() < static_cast<size_t>(min_entries_)) {
      for (size_t i = 0; i < parent.entries.size(); ++i) {
        if (parent.entries[i].child == node.page) {
          parent.entries.erase(parent.entries.begin() +
                               static_cast<int64_t>(i));
          break;
        }
      }
      IOLAP_RETURN_IF_ERROR(CollectLeafEntries(node.page, &orphans));
    } else {
      for (PagedEntry& e : parent.entries) {
        if (e.child == node.page) {
          e.rect = node.Mbr(k_);
          break;
        }
      }
    }
    IOLAP_RETURN_IF_ERROR(WriteNode(parent));
    page = parent.page;
  }
  // Shrink the root.
  while (true) {
    IOLAP_ASSIGN_OR_RETURN(NodeData root, ReadNode(root_));
    if (root.leaf || root.entries.size() != 1) break;
    PageId child_page = root.entries.front().child;
    IOLAP_ASSIGN_OR_RETURN(NodeData child, ReadNode(child_page));
    child.parent = -1;
    IOLAP_RETURN_IF_ERROR(WriteNode(child));
    FreeNode(root_);
    root_ = child_page;
    --height_;
  }
  {
    IOLAP_ASSIGN_OR_RETURN(NodeData root, ReadNode(root_));
    if (!root.leaf && root.entries.empty()) {
      root.leaf = true;
      IOLAP_RETURN_IF_ERROR(WriteNode(root));
      height_ = 1;
    }
  }
  size_ -= static_cast<int64_t>(orphans.size());
  for (const auto& [rect, id] : orphans) {
    IOLAP_RETURN_IF_ERROR(Insert(rect, id));
  }
  return Status::Ok();
}

Status PagedRTree::Remove(const Rect& rect, int64_t id, bool* removed) {
  *removed = false;
  PageId leaf_page = -1;
  IOLAP_RETURN_IF_ERROR(FindLeaf(root_, rect, id, &leaf_page));
  if (leaf_page < 0) return Status::Ok();
  IOLAP_ASSIGN_OR_RETURN(NodeData leaf, ReadNode(leaf_page));
  for (size_t i = 0; i < leaf.entries.size(); ++i) {
    if (leaf.entries[i].child == id &&
        RectsEqual(leaf.entries[i].rect, rect, k_)) {
      leaf.entries.erase(leaf.entries.begin() + static_cast<int64_t>(i));
      break;
    }
  }
  IOLAP_RETURN_IF_ERROR(WriteNode(leaf));
  --size_;
  *removed = true;
  return CondenseTree(leaf_page);
}

Status PagedRTree::SearchNode(PageId page, const Rect& query,
                              std::vector<int64_t>* out) {
  IOLAP_ASSIGN_OR_RETURN(NodeData node, ReadNode(page));
  for (const PagedEntry& e : node.entries) {
    if (!RectsIntersect(e.rect, query, k_)) continue;
    if (node.leaf) {
      out->push_back(e.child);
    } else {
      IOLAP_RETURN_IF_ERROR(SearchNode(e.child, query, out));
    }
  }
  return Status::Ok();
}

Status PagedRTree::Search(const Rect& query, std::vector<int64_t>* out) {
  return SearchNode(root_, query, out);
}

Status PagedRTree::CheckNode(PageId page, bool is_root, int depth,
                             int leaf_depth, int64_t* count, bool* ok) {
  IOLAP_ASSIGN_OR_RETURN(NodeData node, ReadNode(page));
  if (!is_root && node.entries.size() < static_cast<size_t>(min_entries_)) {
    *ok = false;
  }
  if (node.entries.size() > static_cast<size_t>(max_entries_)) *ok = false;
  if (node.leaf) {
    if (depth != leaf_depth) *ok = false;
    *count += static_cast<int64_t>(node.entries.size());
    return Status::Ok();
  }
  for (const PagedEntry& e : node.entries) {
    IOLAP_ASSIGN_OR_RETURN(NodeData child, ReadNode(e.child));
    if (child.parent != page) *ok = false;
    if (child.entries.empty()) {
      *ok = false;
      continue;
    }
    if (!RectsEqual(e.rect, child.Mbr(k_), k_)) *ok = false;
    IOLAP_RETURN_IF_ERROR(CheckNode(e.child, false, depth + 1, leaf_depth,
                                    count, ok));
  }
  return Status::Ok();
}

Result<bool> PagedRTree::CheckInvariants() {
  bool ok = true;
  int64_t count = 0;
  IOLAP_RETURN_IF_ERROR(
      CheckNode(root_, true, 1, height_, &count, &ok));
  if (count != size_) ok = false;
  return ok;
}

}  // namespace iolap
