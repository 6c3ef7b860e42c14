#ifndef IOLAP_SERVE_ANSWER_H_
#define IOLAP_SERVE_ANSWER_H_

#include <cstdint>

namespace iolap {

/// Per-query answer contract. Exact answers equal a scan of the current
/// snapshot: byte-identical with ServeOptions::agg_index off, within 1e-9
/// with it on (stored partials sum in a different order than the scan).
/// Bounded answers may come from the synopsis tier and promise
/// |answer - exact| <= bound <= epsilon with probability >= 1 - delta (with
/// certainty when the bound is Fréchet-derived). Cache entries carry the
/// mode so a bounded result can never serve an exact query.
enum class AnswerMode : int8_t { kExact = 0, kBounded = 1 };

/// Which store produced an answer, in escalation order: kCache the
/// AggregateCache, kIndex the aggregate index's cell tree, kSynopsis the
/// per-node moment store (an exact answer with bound 0 or a bounded one),
/// kScan the group-by scan.
enum class AnswerTier : int8_t { kCache = 0, kIndex = 1, kSynopsis = 2,
                                 kScan = 3 };

inline const char* AnswerTierName(AnswerTier tier) {
  switch (tier) {
    case AnswerTier::kCache: return "cache";
    case AnswerTier::kIndex: return "index";
    case AnswerTier::kSynopsis: return "synopsis";
    case AnswerTier::kScan: return "scan";
  }
  return "?";
}

struct AnswerSpec {
  AnswerMode mode = AnswerMode::kExact;
  double epsilon = 0;  // max acceptable error bound (absolute, measure units)
  double delta = 0.05;  // max probability the bound is exceeded

  static AnswerSpec Exact() { return AnswerSpec{}; }
  static AnswerSpec Bounded(double epsilon, double delta = 0.05) {
    return AnswerSpec{AnswerMode::kBounded, epsilon, delta};
  }
};

/// How a query was answered: the serving tier, the promised error bound
/// (0 for exact answers), and whether the cache served it.
struct AnswerStats {
  AnswerTier tier = AnswerTier::kScan;
  double bound = 0;
  bool cache_hit = false;
  bool exact = true;
};

}  // namespace iolap

#endif  // IOLAP_SERVE_ANSWER_H_
