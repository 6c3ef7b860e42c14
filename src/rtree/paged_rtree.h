#ifndef IOLAP_RTREE_PAGED_RTREE_H_
#define IOLAP_RTREE_PAGED_RTREE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/result.h"
#include "rtree/rect.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace iolap {

/// Disk-based Guttman R-tree: one node per 4 KiB page, accessed through the
/// buffer pool so every node touch is counted I/O — the faithful version of
/// the spatial index Section 9 builds over component bounding boxes (the
/// paper used Hadjieleftheriou's disk R-tree [13]).
///
/// Guttman's algorithms: quadratic split, condense-with-reinsert on delete;
/// tested against a brute-force scan under random insert/remove/search
/// workloads. Fan-out is 72 at kMaxDims = 6 (settable lower for tests).
class PagedRTree {
 public:
  /// Creates an empty tree in a fresh file of `disk`, paged through `pool`.
  static Result<PagedRTree> Create(DiskManager* disk, BufferPool* pool,
                                   int num_dims, int max_entries = 0);

  Status Insert(const Rect& rect, int64_t id);

  /// Removes the entry with this exact rect and id; outputs whether found.
  Status Remove(const Rect& rect, int64_t id, bool* removed);

  /// Appends the ids of all entries whose rect intersects `query`.
  Status Search(const Rect& query, std::vector<int64_t>* out);

  int64_t size() const { return size_; }
  int height() const { return height_; }

  /// Node pages read: by Search, and by the descents and fix-ups of
  /// Insert and Remove (choose-leaf, find-leaf, adjust and condense).
  int64_t nodes_accessed() const { return nodes_accessed_; }
  void ResetStats() { nodes_accessed_ = 0; }

  /// Validates tree invariants (counts, MBR tightness, parent links,
  /// uniform leaf depth); used by tests.
  Result<bool> CheckInvariants();

 private:
  PagedRTree(DiskManager* disk, BufferPool* pool, FileId file, int num_dims,
             int max_entries)
      : disk_(disk),
        pool_(pool),
        file_(file),
        k_(num_dims),
        max_entries_(max_entries),
        min_entries_(max_entries / 2) {}

  struct NodeData;  // in-memory image of one node page

  Result<NodeData> ReadNode(PageId page);
  Status WriteNode(const NodeData& node);
  Result<PageId> AllocateNode();
  void FreeNode(PageId page);

  /// Descends to the leaf `rect` belongs in; `path` receives the image of
  /// every node read, root first and leaf last.
  Status ChooseLeaf(const Rect& rect, std::vector<NodeData>* path);
  Status SplitNode(NodeData* node, NodeData* fresh);
  /// Walks `path` back up from its last node, which was just written (as
  /// was `split`, its new sibling, if it split): refreshes each parent's
  /// entry, adds and splits as needed, and writes each parent. The images
  /// on the path stand in for re-reading the pages.
  Status AdjustTree(std::vector<NodeData>* path,
                    std::optional<NodeData> split);
  Status FindLeaf(PageId page, const Rect& rect, int64_t id, PageId* leaf);
  Status CondenseTree(PageId leaf_page);
  Status SearchNode(PageId page, const Rect& query,
                    std::vector<int64_t>* out);
  Status CollectLeafEntries(PageId page,
                            std::vector<std::pair<Rect, int64_t>>* out);
  Status CheckNode(PageId page, bool is_root, int depth, int leaf_depth,
                   int64_t* count, bool* ok);

  DiskManager* disk_;
  BufferPool* pool_;
  FileId file_;
  int k_;
  int max_entries_;
  int min_entries_;
  PageId root_ = -1;
  int64_t size_ = 0;
  int height_ = 1;
  int64_t nodes_accessed_ = 0;
  std::vector<PageId> free_pages_;
  int64_t next_page_ = 0;
};

}  // namespace iolap

#endif  // IOLAP_RTREE_PAGED_RTREE_H_
