#include "src/knapsack/pairlist.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "src/util/arena.hpp"

namespace moldable::knapsack {

namespace {

// The Pareto sweep runs entirely on arena scratch: the frontier lives in a
// ping-pong pair of buffers that swap roles every merge step, instead of
// the pre-optimization allocate-and-return std::vector per item. A
// ParetoRun keeps its frontiers on the arena for its own lifetime; every
// returned object (profits, chosen sets, exact_pareto's list) is a heap
// copy, so none aliases arena memory. Bitwise identity with the retained
// reference (knapsack/reference.cpp) is property-tested: the merge below
// applies the exact same compare/tie rules, only with the running "back of
// the output" carried in registers and the capacity cut hoisted out of the
// per-point push.

/// Growable array carved from a ScratchArena. Growth allocates a fresh
/// doubled block (the old one is reclaimed by the frame rewind), so pushes
/// stay amortized O(1) with zero heap traffic.
template <typename T>
struct ArenaList {
  T* data = nullptr;
  std::size_t len = 0;
  std::size_t cap = 0;

  void ensure(util::ScratchArena& arena, std::size_t want) {
    if (want <= cap) return;
    std::size_t ncap = cap ? cap * 2 : 64;
    while (ncap < want) ncap *= 2;
    T* nd = arena.alloc<T>(ncap);
    if (len) std::memcpy(static_cast<void*>(nd), data, len * sizeof(T));
    data = nd;
    cap = ncap;
  }
};

/// Merges `base` with `base (+) item` under a capacity, pruning dominated
/// points; writes into `out` (sized for 2n+1 by the caller) and returns the
/// new length. Both inputs and the output ascend strictly in size and
/// profit, which the merge exploits three ways the per-point push could
/// not: the capacity cut on the shifted stream is a suffix found once; the
/// dominance checks compare against a register-carried last point instead
/// of re-loading out.back(); and once the shifted stream is exhausted the
/// base tail copies straight through (its first survivor is the only point
/// that still needs the full rules).
std::size_t merge_step(const ParetoPoint* __restrict__ base, std::size_t n,
                       const Item& item, double cap_tol,
                       ParetoPoint* __restrict__ out) {
  const double isz = item.size;
  const double ip = item.profit;
  std::size_t b_end = n;  // shifted points at or past this index exceed cap
  while (b_end > 0 && base[b_end - 1].size + isz > cap_tol) --b_end;

  std::size_t m = 0;
  double last_size = -1.0;    // sentinel: sizes/profits are >= 0
  double last_profit = -1.0;
  std::size_t a = 0, b = 0;
  while (a < n && b < b_end) {
    ParetoPoint p;
    if (base[a].size <= base[b].size + isz) {
      p = base[a];
      ++a;
    } else {
      p = {base[b].size + isz, base[b].profit + ip};
      ++b;
    }
    if (p.profit <= last_profit) continue;  // dominated
    if (p.size == last_size) {
      out[m - 1].profit = p.profit;  // same size, better profit
      last_profit = p.profit;
      continue;
    }
    out[m] = p;
    ++m;
    last_size = p.size;
    last_profit = p.profit;
  }
  for (; b < b_end; ++b) {
    const ParetoPoint p{base[b].size + isz, base[b].profit + ip};
    if (p.profit <= last_profit) continue;
    if (p.size == last_size) {
      out[m - 1].profit = p.profit;
      last_profit = p.profit;
      continue;
    }
    out[m] = p;
    ++m;
    last_size = p.size;
    last_profit = p.profit;
  }
  if (a < n) {
    for (; a < n; ++a) {
      const ParetoPoint p = base[a];
      if (p.profit <= last_profit) continue;
      if (p.size == last_size) {
        out[m - 1].profit = p.profit;
      } else {
        out[m] = p;
        ++m;
      }
      ++a;
      break;
    }
    // Rest of the base tail: strictly ascending in both coordinates and
    // under cap, so no rule can fire again.
    for (; a < n; ++a) {
      out[m] = base[a];
      ++m;
    }
  }
  return m;
}

using Frontier = ParetoRun::Frontier;
using Spine = ParetoRun::Spine;

/// Forward run over items[lo, hi) cut at `capacity`, keeping the frontiers
/// the reconstruction below [lo, hi) will ask for (see ParetoRun::Spine).
/// A kept buffer simply leaves the ping-pong pair — the next merge step
/// writes into a fresh one — so keeping costs no copy. Everything lives on
/// `arena` until the caller's frame rewinds.
Spine forward_run(std::span<const Item> items, std::size_t lo, std::size_t hi,
                  double capacity, util::ScratchArena& arena) {
  std::size_t ends[64];  // e_0 = hi > e_1 > ... > lo
  std::size_t count = 0;
  for (std::size_t e = hi;; e = lo + (e - lo) / 2) {
    ends[count++] = e;
    if (e - lo < 2) break;
  }
  Frontier* at = arena.alloc<Frontier>(count);

  const double cap_tol = capacity * (1 + kRelTol);
  ArenaList<ParetoPoint> cur, next;
  cur.ensure(arena, 1);
  cur.data[0] = {0.0, 0.0};
  cur.len = 1;
  std::size_t k = count - 1;  // the next frontier to keep has the least end
  for (std::size_t i = lo;; ++i) {
    const bool keep = i == ends[k];
    if (keep) {
      at[k] = {cur.data, cur.len};
      if (k-- == 0) break;
    }
    next.ensure(arena, 2 * cur.len + 1);
    next.len = merge_step(cur.data, cur.len, items[i], cap_tol, next.data);
    std::swap(cur, next);
    if (keep) next = {};  // the kept buffer must not be overwritten
  }
  return {capacity, at};
}

/// Number of points of `f` with size <= capacity * (1 + kRelTol): by the
/// prefix property, exactly the frontier a run cut at `capacity` builds.
std::size_t prefix_len(const Frontier& f, double capacity) {
  const ParetoPoint* it =
      std::upper_bound(f.data, f.data + f.len, capacity * (1 + kRelTol),
                       [](double c, const ParetoPoint& p) { return c < p.size; });
  return static_cast<std::size_t>(it - f.data);
}

/// Divide-and-conquer reconstruction: find the best split of `capacity`
/// between the two halves from their Pareto lists, then recurse. Profit is
/// identical to the full DP. `run` is a forward run from lo whose at[k] is
/// the frontier of items[lo, hi), so at[k + 1] is the left half's; only
/// the right half runs fresh, and its spine serves the right child.
///
/// Why the left snapshot may stand in for a fresh run at `capacity`: the
/// sweep below stops at the first left point larger than `capacity` (not
/// even the empty right point fits beside it), so it reads only points of
/// size <= capacity. Those are the same in every run whose cut
/// run.capacity * (1 + kRelTol) is at least `capacity` (header's prefix
/// property), and `run`'s always is: a left child's capacity is a left
/// point that fit, so <= its parent's; a right child's is a right point
/// that fit, so within the fresh right run's cut.
///
/// One frame holds this node's run until both children return: O(L log n)
/// live scratch per level of the recursion path.
void reconstruct_rec(std::span<const Item> items, std::size_t lo, std::size_t hi,
                     double capacity, const Spine& run, std::size_t k,
                     util::ScratchList<std::size_t>& chosen, util::ScratchArena& arena) {
  if (lo >= hi || capacity < 0) return;
  if (hi - lo == 1) {
    const Item& it = items[lo];
    if (static_cast<double>(it.size) <= capacity * (1 + kRelTol) && it.profit > 0)
      chosen.push_back(lo);
    return;
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  util::ScratchArena::Frame frame(arena);
  const Spine right = forward_run(items, mid, hi, capacity, arena);
  const Frontier& l1 = run.at[k + 1];
  const Frontier& l2 = right.at[0];

  // Two-pointer sweep: as the left size grows, the best right point can
  // only move left. Both lists are ascending in size and profit.
  double best = -1;
  double best_s1 = 0, best_s2 = 0;
  std::size_t j = l2.len;  // exclusive upper bound into l2
  for (std::size_t i = 0; i < l1.len; ++i) {
    const ParetoPoint& p1 = l1.data[i];
    const double room = capacity - p1.size;
    while (j > 0 && l2.data[j - 1].size > room * (1 + kRelTol)) --j;
    if (j == 0) break;
    const double cand = p1.profit + l2.data[j - 1].profit;
    if (cand > best) {
      best = cand;
      best_s1 = p1.size;
      best_s2 = l2.data[j - 1].size;
    }
  }
  check_invariant(best >= 0, "pairlist reconstruction: no feasible split");
  reconstruct_rec(items, lo, mid, best_s1, run, k + 1, chosen, arena);
  reconstruct_rec(items, mid, hi, best_s2, right, 0, chosen, arena);
}

}  // namespace

ParetoRun::ParetoRun(std::span<const Item> items, double capacity)
    : items_(items),
      arena_(util::scratch_arena()),
      frame_(arena_),
      spine_(forward_run(items, 0, items.size(), capacity, arena_)) {}

double ParetoRun::profit_at(double c) const {
  // Lists start at (0, 0), so a hit always exists for c >= 0.
  const std::size_t len = prefix_len(spine_.at[0], c);
  return len ? spine_.at[0].data[len - 1].profit : 0.0;
}

double ParetoRun::solve(double c, util::ScratchList<std::size_t>& chosen) const {
  if (c < 0) throw std::invalid_argument("ParetoRun::solve: negative capacity");
  if (c > spine_.capacity)
    throw std::invalid_argument("ParetoRun::solve: capacity exceeds the run's");
  const double optimum = profit_at(c);  // the forward run's optimum at c
  const std::size_t first = chosen.size();
  reconstruct_rec(items_, 0, items_.size(), c, spine_, 0, chosen, arena_);
  // The recursion re-derives the same optimum; double-check the arithmetic.
  double check = 0;
  for (std::size_t i = first; i < chosen.size(); ++i) check += items_[chosen[i]].profit;
  check_invariant(check >= optimum * (1 - kRelTol) - kRelTol,
                  "pairlist reconstruction lost profit");
  return check;
}

Solution ParetoRun::solve(double c) const {
  const util::ScratchArena::Frame frame(arena_);
  util::ScratchList<std::size_t> chosen(arena_, items_.size());
  Solution sol;
  sol.profit = solve(c, chosen);
  sol.chosen.assign(chosen.begin(), chosen.end());
  return sol;
}

std::vector<ParetoPoint> exact_pareto(const std::vector<Item>& items, double capacity) {
  util::ScratchArena& arena = util::scratch_arena();
  util::ScratchArena::Frame frame(arena);
  const Frontier f = forward_run(items, 0, items.size(), capacity, arena).at[0];
  return std::vector<ParetoPoint>(f.data, f.data + f.len);
}

std::vector<double> profits_for_capacities(const std::vector<Item>& items,
                                           const std::vector<double>& capacities) {
  double maxc = 0;
  for (double c : capacities) maxc = std::max(maxc, c);
  const ParetoRun run(items, maxc);
  std::vector<double> out;
  out.reserve(capacities.size());
  for (double c : capacities) out.push_back(run.profit_at(c));
  return out;
}

Solution solve_pairlist(std::span<const Item> items, double capacity) {
  return ParetoRun(items, capacity).solve(capacity);
}

// ------------------------------------------------------- normalized arena ---

NormalizedPairList::NormalizedPairList(std::span<const Item> items,
                                       const NormalizationGrid& grid,
                                       std::size_t max_pairs)
    : arena_(util::scratch_arena()), frame_(arena_), item_count_(items.size()) {
  // Candidate pairs: every frontier node extended by one item.
  struct Cand {
    double size, profit;
    std::int64_t parent;
  };
  ArenaList<Node> nodes;
  ArenaList<std::int64_t> frontier, merged;
  ArenaList<Cand> cands;
  nodes.ensure(arena_, 1);
  nodes.data[nodes.len++] = {0.0, 0.0, -1, -1};  // root: empty set
  frontier.ensure(arena_, 1);
  frontier.data[frontier.len++] = 0;

  for (std::size_t i = 0; i < items.size(); ++i) {
    const Item& it = items[i];
    // New sizes snap down to the grid (the paper's "normalized on
    // creation"); overflowing pairs are dropped.
    cands.ensure(arena_, frontier.len);
    cands.len = 0;
    for (std::size_t f = 0; f < frontier.len; ++f) {
      const std::int64_t idx = frontier.data[f];
      const Node& nd = nodes.data[idx];
      const auto snapped = grid.normalize(nd.size + static_cast<double>(it.size));
      if (!snapped) continue;
      cands.data[cands.len++] = {*snapped, nd.profit + it.profit, idx};
    }
    // Both sequences ascend in size (frontier is sorted and snapping is
    // monotone), so a linear merge with dominance pruning suffices.
    merged.ensure(arena_, frontier.len + cands.len);
    merged.len = 0;
    std::size_t a = 0, b = 0;
    auto push = [&](double size, double profit, std::int64_t parent, std::int32_t item) {
      if (merged.len > 0) {
        const Node& back = nodes.data[merged.data[merged.len - 1]];
        if (profit <= back.profit) return;  // dominated
        if (size == back.size) --merged.len;  // same size, keep the better profit
      }
      if (item < 0) {
        merged.data[merged.len++] = parent;  // existing node survives unchanged
      } else {
        nodes.ensure(arena_, nodes.len + 1);
        nodes.data[nodes.len] = {size, profit, parent, item};
        merged.data[merged.len++] = static_cast<std::int64_t>(nodes.len++);
      }
    };
    while (a < frontier.len || b < cands.len) {
      const bool take_old = b >= cands.len || (a < frontier.len &&
                                              nodes.data[frontier.data[a]].size <= cands.data[b].size);
      if (take_old) {
        const Node nd = nodes.data[frontier.data[a]];
        push(nd.size, nd.profit, frontier.data[a], -1);
        ++a;
      } else {
        push(cands.data[b].size, cands.data[b].profit, cands.data[b].parent,
             static_cast<std::int32_t>(i));
        ++b;
      }
    }
    std::swap(frontier, merged);
    if (nodes.len > max_pairs)
      throw std::invalid_argument(
          "NormalizedPairList: arena exceeded max_pairs; the grid is too "
          "fine for this instance — use the exact engine instead");
  }
  nodes_ = nodes.data;
  node_count_ = nodes.len;
  frontier_ = frontier.data;
  frontier_len_ = frontier.len;
}

std::int64_t NormalizedPairList::best_at(double capacity) const {
  std::int64_t best = -1;
  for (std::size_t f = 0; f < frontier_len_; ++f) {
    if (nodes_[frontier_[f]].size > capacity * (1 + kRelTol)) break;
    best = frontier_[f];  // profits ascend along the frontier
  }
  return best;
}

double NormalizedPairList::profit_at(double capacity) const {
  const std::int64_t best = best_at(capacity);
  return best >= 0 ? nodes_[best].profit : 0.0;
}

void NormalizedPairList::reconstruct(double capacity,
                                     util::ScratchList<std::size_t>& chosen) const {
  const std::size_t first = chosen.size();
  for (std::int64_t at = best_at(capacity); at >= 0; at = nodes_[at].parent)
    if (nodes_[at].item >= 0) chosen.push_back(static_cast<std::size_t>(nodes_[at].item));
  std::reverse(chosen.begin() + first, chosen.end());
}

std::vector<std::size_t> NormalizedPairList::reconstruct(double capacity) const {
  const util::ScratchArena::Frame frame(arena_);
  util::ScratchList<std::size_t> chosen(arena_, item_count_);
  reconstruct(capacity, chosen);
  return {chosen.begin(), chosen.end()};
}

}  // namespace moldable::knapsack
