// Lawler-style pair-list knapsack DP (Section 4.2.3) and its two extensions
// used by Algorithm 2:
//
//  * multi-capacity one-pass solving (Section 4.2.4): one Pareto sweep up to
//    max(B) answers every capacity in B by a lookup — and, through
//    ParetoRun, reconstructs the chosen set for any of them as well;
//  * adaptive normalization (Lemma 12): pair sizes snap down to the
//    NormalizationGrid on creation, keeping the list O(nbar * |A|) long
//    independent of the numeric capacity.
//
// Reconstruction strategies:
//  * exact lists use divide-and-conquer (Hirschberg-style) with no stored
//    decisions. It rests on a prefix property: the frontier of a forward run
//    cut at capacity c is, bit for bit, the prefix (size <= c * (1 +
//    kRelTol)) of the same run cut at any larger capacity, because the
//    merge's dominance and same-size rules only ever look at smaller sizes.
//    So a forward run over items[lo, hi) keeps snapshots of its frontier at
//    the left-spine midpoints of the recursion tree below [lo, hi); a node
//    takes its left half-frontier as a prefix of the snapshot its parent's
//    run already holds and runs only its right half fresh. Each node does
//    half the merges of a from-scratch split, and the snapshots cost
//    O(L log n) per run, O(L log^2 n) along the deepest recursion path
//    (L = frontier length) — never n * L. Everything transient lives on
//    the thread's ScratchArena in LIFO frames;
//  * normalized lists use an arena of parent pointers: the sequential
//    snapping semantics of the paper are preserved exactly, at the cost of
//    memory proportional to the number of undominated pairs ever created
//    (small in the regimes where normalization is worthwhile — that is the
//    point of the grid).
//
// The merge kernel and its scratch discipline are perf-gated (pinned shapes
// in bench/bench_knapsack.cpp) and property-tested bitwise-identical to the
// retained scalar reference in knapsack/reference.hpp.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/knapsack/geom_grid.hpp"
#include "src/knapsack/item.hpp"
#include "src/util/arena.hpp"

namespace moldable::knapsack {

struct ParetoPoint {
  double size = 0;    ///< total (possibly normalized) size
  double profit = 0;  ///< best profit at this size
};

/// Exact Pareto frontier of {(size, profit)} over subsets of `items` with
/// size <= capacity: ascending in size, strictly ascending in profit,
/// starting with (0, 0). O(n * |list|); with integral sizes the list never
/// exceeds capacity + 1 points.
std::vector<ParetoPoint> exact_pareto(const std::vector<Item>& items, double capacity);

/// Best profit at each queried capacity, answered from one Pareto sweep up
/// to max(capacities) (Section 4.2.4).
std::vector<double> profits_for_capacities(const std::vector<Item>& items,
                                           const std::vector<double>& capacities);

/// Exact solve with divide-and-conquer reconstruction. Equivalent profit to
/// solve_dense but O(L log^2 n) memory. Shorthand for
/// ParetoRun(items, capacity).solve(capacity).
Solution solve_pairlist(std::span<const Item> items, double capacity);

/// One exact forward Pareto run over `items` up to `capacity`, kept so that
/// every capacity c <= capacity is answered from it: profit_at(c) by a
/// lookup, solve(c) by a reconstruction that reuses the run's snapshots.
/// Both are bitwise identical to a fresh run cut at c (the header's prefix
/// property). Algorithm 2 builds one per knapsack and queries every split.
///
/// All storage lives on the calling thread's current scratch arena, inside
/// a frame the destructor rewinds: no heap allocation, but a run must be
/// destroyed in LIFO order with the arena's other frames (nested kernels
/// called while it lives are fine) and used on the constructing thread.
/// `items` must outlive the run.
class ParetoRun {
 public:
  ParetoRun(std::span<const Item> items, double capacity);
  ParetoRun(const ParetoRun&) = delete;
  ParetoRun& operator=(const ParetoRun&) = delete;

  /// Best profit among frontier points with size <= c * (1 + kRelTol).
  double profit_at(double c) const;

  /// Chosen set for capacity c; profit is the chosen items' sum. Throws
  /// std::invalid_argument unless 0 <= c <= the run's capacity.
  Solution solve(double c) const;

  /// The same reconstruction with the chosen indices appended to `chosen`
  /// (room for items.size() more, allocated before this call); returns
  /// the profit. No heap allocation.
  double solve(double c, util::ScratchList<std::size_t>& chosen) const;

  // The run's storage layout, shared with the reconstruction in
  // pairlist.cpp.

  /// A frontier kept by a run (arena memory).
  struct Frontier {
    const ParetoPoint* data = nullptr;
    std::size_t len = 0;
  };
  /// Frontiers of one forward run over items[lo, hi) cut at `capacity`:
  /// at[0] covers items[lo, hi), and at[k + 1] covers items[lo, e_{k+1})
  /// with e_0 = hi, e_{k+1} = lo + (e_k - lo) / 2 — the left spine of the
  /// reconstruction tree below [lo, hi).
  struct Spine {
    double capacity = 0;
    const Frontier* at = nullptr;
  };

 private:
  std::span<const Item> items_;
  util::ScratchArena& arena_;
  util::ScratchArena::Frame frame_;
  Spine spine_;
};

/// Normalized multi-capacity solver (the compressible side of Algorithm 2).
/// Runs the pair-list DP with sizes snapped to `grid` on creation; answers
/// profit queries for any capacity and reconstructs the chosen set by
/// walking parent pointers. The profit for capacity alpha is at least
/// OPT(items, exact, alpha): snapping only under-estimates sizes. The true
/// size of a reconstructed solution exceeds its normalized size by at most
/// (#chosen) * U(alpha) — the slack Lemma 12's compression argument absorbs.
///
/// Storage lives on the calling thread's scratch arena inside a frame the
/// destructor rewinds, under the same LIFO rule as ParetoRun.
class NormalizedPairList {
 public:
  /// Runs the DP immediately. Throws std::invalid_argument when the arena
  /// exceeds `max_pairs` (symptom: the grid is too fine to be useful —
  /// callers should fall back to the exact engine).
  NormalizedPairList(std::span<const Item> items, const NormalizationGrid& grid,
                     std::size_t max_pairs = std::size_t{1} << 26);
  NormalizedPairList(const NormalizedPairList&) = delete;
  NormalizedPairList& operator=(const NormalizedPairList&) = delete;

  /// Best profit among pairs with normalized size <= capacity.
  double profit_at(double capacity) const;

  /// Chosen item indices achieving profit_at(capacity).
  std::vector<std::size_t> reconstruct(double capacity) const;

  /// The same, appended to `chosen` (room for items.size() more).
  void reconstruct(double capacity, util::ScratchList<std::size_t>& chosen) const;

  std::size_t arena_size() const { return node_count_; }

 private:
  struct Node {
    double size;
    double profit;
    std::int64_t parent;  ///< -1 for the root (empty set)
    std::int32_t item;    ///< item added at this node, -1 for root
  };
  /// Index of the frontier node with the largest size <= capacity.
  std::int64_t best_at(double capacity) const;

  util::ScratchArena& arena_;
  util::ScratchArena::Frame frame_;
  std::size_t item_count_ = 0;
  const Node* nodes_ = nullptr;
  std::size_t node_count_ = 0;
  const std::int64_t* frontier_ = nullptr;  ///< final list, ascending size/profit
  std::size_t frontier_len_ = 0;
};

}  // namespace moldable::knapsack
