#ifndef IOLAP_RTREE_RECT_H_
#define IOLAP_RTREE_RECT_H_

#include <cstdint>

#include "model/schema.h"

namespace iolap {

/// Axis-aligned integer box over leaf coordinates, bounds inclusive.
struct Rect {
  int32_t lo[kMaxDims] = {};
  int32_t hi[kMaxDims] = {};

  static Rect Of(const int32_t* lo_in, const int32_t* hi_in, int k) {
    Rect r;
    for (int d = 0; d < k; ++d) {
      r.lo[d] = lo_in[d];
      r.hi[d] = hi_in[d];
    }
    return r;
  }
};

inline bool RectsIntersect(const Rect& a, const Rect& b, int k) {
  for (int d = 0; d < k; ++d) {
    if (a.hi[d] < b.lo[d] || b.hi[d] < a.lo[d]) return false;
  }
  return true;
}

inline bool RectContains(const Rect& outer, const Rect& inner, int k) {
  for (int d = 0; d < k; ++d) {
    if (inner.lo[d] < outer.lo[d] || inner.hi[d] > outer.hi[d]) return false;
  }
  return true;
}

}  // namespace iolap

#endif  // IOLAP_RTREE_RECT_H_
