#include "core/baselines.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/parallel.hpp"
#include "graph/graph.hpp"

namespace lmds::core {

std::vector<Vertex> take_all(const Graph& g) {
  std::vector<Vertex> all(static_cast<std::size_t>(g.num_vertices()));
  for (Vertex v = 0; v < g.num_vertices(); ++v) all[static_cast<std::size_t>(v)] = v;
  return all;
}

std::vector<Vertex> tree_degree_rule(const Graph& g, int threads) {
  const int n = g.num_vertices();
  std::vector<char> joins(static_cast<std::size_t>(n), 0);
  common::parallel_for(n, threads, [&](int begin, int end) {
    for (Vertex v = begin; v < end; ++v) {
      const int deg = g.degree(v);
      if (deg >= 2 || deg == 0) {
        joins[static_cast<std::size_t>(v)] = 1;
        continue;
      }
      // Pendant: joins only when its single neighbour is also pendant (a K2
      // component) and v carries the smaller id.
      const Vertex u = g.neighbors(v)[0];
      if (g.degree(u) == 1 && v < u) joins[static_cast<std::size_t>(v)] = 1;
    }
  });
  std::vector<Vertex> result;
  for (Vertex v = 0; v < n; ++v) {
    if (joins[static_cast<std::size_t>(v)]) result.push_back(v);
  }
  return result;
}

namespace {

// The set cover behind gamma. The targets N[v] are bit positions 0..d of a
// multi-word "uncovered" mask, one code path for every degree. The
// candidates N(N[v]) \ {v} come straight from the CSR rows of N[v] by
// sort+unique, and each keeps the sparse list of targets it covers, so the
// memory is O(sum of deg over N[v]) words: never sized by n, and never
// candidates x (d+1)/64 words (1.25 GB for a hub of K_{2,100000}).
class GammaCover {
 public:
  GammaCover(const Graph& g, Vertex v) {
    const auto nv = g.neighbors(v);
    targets_ = static_cast<int>(nv.size()) + 1;
    words_ = (static_cast<std::size_t>(targets_) + 63) / 64;
    // Target 0 is v, target i > 0 its i-th neighbour; w covers target t iff
    // w is in N[t]. Each pair (w, t) is packed as w << 32 | t, so sorting
    // the pairs groups them by coverer.
    std::size_t total = static_cast<std::size_t>(targets_ + g.degree(v));
    for (Vertex t : nv) total += static_cast<std::size_t>(g.degree(t));
    std::vector<std::uint64_t> pairs;
    pairs.reserve(total);
    const auto emit = [&pairs, v](Vertex w, int t) {
      if (w != v) pairs.push_back(static_cast<std::uint64_t>(w) << 32 | static_cast<unsigned>(t));
    };
    for (Vertex w : nv) emit(w, 0);
    for (int t = 1; t < targets_; ++t) {
      const Vertex u = nv[static_cast<std::size_t>(t - 1)];
      emit(u, t);
      for (Vertex w : g.neighbors(u)) emit(w, t);
    }
    std::sort(pairs.begin(), pairs.end());

    // Candidate c covers targets covered_[begin_[c] .. begin_[c + 1]).
    begin_.reserve(pairs.size() + 1);
    covered_.reserve(pairs.size());
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      if (p == 0 || pairs[p] >> 32 != pairs[p - 1] >> 32) begin_.push_back(covered_.size());
      covered_.push_back(static_cast<int>(pairs[p] & 0xffffffffU));
    }
    begin_.push_back(covered_.size());
    const auto candidates = static_cast<int>(begin_.size()) - 1;
    std::vector<int> coverers(static_cast<std::size_t>(targets_), 0);
    for (int t : covered_) ++coverers[static_cast<std::size_t>(t)];
    for (int c = 0; c < candidates; ++c) max_cover_ = std::max(max_cover_, coverage(c));

    // The transpose: target t's coverers, largest coverage first (ties by
    // vertex id), so the search tries big sets first.
    by_target_.assign(static_cast<std::size_t>(targets_) + 1, 0);
    for (int t = 0; t < targets_; ++t) {
      by_target_[static_cast<std::size_t>(t) + 1] =
          by_target_[static_cast<std::size_t>(t)] + static_cast<std::size_t>(coverers[static_cast<std::size_t>(t)]);
    }
    coverer_.resize(covered_.size());
    std::vector<int> order(static_cast<std::size_t>(candidates));
    for (int c = 0; c < candidates; ++c) order[static_cast<std::size_t>(c)] = c;
    std::stable_sort(order.begin(), order.end(),
                     [this](int a, int b) { return coverage(a) > coverage(b); });
    std::vector<std::size_t> fill(by_target_.begin(), by_target_.end() - 1);
    for (int c : order) {
      for (std::size_t k = begin_[static_cast<std::size_t>(c)];
           k != begin_[static_cast<std::size_t>(c) + 1]; ++k) {
        coverer_[fill[static_cast<std::size_t>(covered_[k])]++] = c;
      }
    }
  }

  // Smallest k <= cap such that k candidates cover every target, else cap+1
  // (also when the node budget runs out).
  int minimum(int cap) {
    // N(v) covers N[v], so the optimum is at most d: no deeper level needed.
    const int depth_cap = std::min(cap, targets_ - 1);
    stack_.assign(words_ * static_cast<std::size_t>(depth_cap + 1), 0);
    for (int k = 1; k <= depth_cap; ++k) {
      std::fill(stack_.begin(), stack_.begin() + static_cast<std::ptrdiff_t>(words_),
                ~std::uint64_t{0});
      if (targets_ % 64 != 0) stack_[words_ - 1] = (std::uint64_t{1} << (targets_ % 64)) - 1;
      if (covers(0, k, targets_)) return k;
      if (nodes_ > kMaxNodes) break;
    }
    return cap + 1;
  }

 private:
  static constexpr std::uint64_t kMaxNodes = 50'000'000;  // exact_mds's budget

  int coverage(int c) const {
    return static_cast<int>(begin_[static_cast<std::size_t>(c) + 1] -
                            begin_[static_cast<std::size_t>(c)]);
  }
  std::size_t coverers(int t) const {
    return by_target_[static_cast<std::size_t>(t) + 1] - by_target_[static_cast<std::size_t>(t)];
  }

  // Can `left` more candidates cover the `remaining` targets still set in
  // stack level `depth`?
  bool covers(int depth, int left, int remaining) {
    if (++nodes_ > kMaxNodes) return false;
    if (remaining == 0) return true;
    if (remaining > left * max_cover_) return false;
    const std::uint64_t* uncovered = stack_.data() + static_cast<std::size_t>(depth) * words_;
    // Branch on the uncovered target with the fewest coverers: one of them
    // is in every cover.
    int pivot = -1;
    for (std::size_t w = 0; w < words_; ++w) {
      for (std::uint64_t bits = uncovered[w]; bits != 0; bits &= bits - 1) {
        const auto t = static_cast<int>(w * 64) + std::countr_zero(bits);
        if (pivot < 0 || coverers(t) < coverers(pivot)) pivot = t;
      }
    }
    std::uint64_t* next = stack_.data() + static_cast<std::size_t>(depth + 1) * words_;
    for (std::size_t k = by_target_[static_cast<std::size_t>(pivot)];
         k != by_target_[static_cast<std::size_t>(pivot) + 1]; ++k) {
      const int c = coverer_[k];
      std::copy(uncovered, uncovered + words_, next);
      int still = remaining;
      for (std::size_t j = begin_[static_cast<std::size_t>(c)];
           j != begin_[static_cast<std::size_t>(c) + 1]; ++j) {
        const auto t = static_cast<std::size_t>(covered_[j]);
        const std::uint64_t bit = std::uint64_t{1} << (t % 64);
        if (next[t / 64] & bit) {
          next[t / 64] &= ~bit;
          --still;
        }
      }
      if (covers(depth + 1, left - 1, still)) return true;
      if (nodes_ > kMaxNodes) return false;
    }
    return false;
  }

  int targets_ = 0;
  std::size_t words_ = 0;
  std::vector<std::size_t> begin_;     // candidate -> start of its targets in covered_
  std::vector<int> covered_;           // targets, grouped by candidate
  std::vector<std::size_t> by_target_; // target -> start of its coverers in coverer_
  std::vector<int> coverer_;           // candidates, grouped by target
  std::vector<std::uint64_t> stack_;   // the uncovered mask at each search depth
  int max_cover_ = 0;
  std::uint64_t nodes_ = 0;
};

}  // namespace

int gamma(const Graph& g, Vertex v, int cap) {
  // Minimum number of vertices != v covering N[v]: a set cover over the
  // candidates N(N[v]) \ {v}. Only whether the optimum is <= cap matters,
  // so the search never goes deeper than cap.
  if (cap < 1 || g.degree(v) == 0) return cap + 1;  // N[v] is never empty; isolated: no cover
  return GammaCover(g, v).minimum(cap);
}

std::vector<Vertex> ksv_style(const Graph& g, int k, int threads) {
  const int n = g.num_vertices();
  // gamma dominates the runtime (a tiny set-cover per vertex), and each call
  // touches only its own ball — shard it into a slot array.
  std::vector<char> in_x(static_cast<std::size_t>(n), 0);
  common::parallel_for(n, threads, [&](int begin, int end) {
    for (Vertex v = begin; v < end; ++v) {
      if (gamma(g, v, k) > k) in_x[static_cast<std::size_t>(v)] = 1;
    }
  });
  std::vector<Vertex> x;
  for (Vertex v = 0; v < n; ++v) {
    if (in_x[static_cast<std::size_t>(v)]) x.push_back(v);
  }

  std::vector<char> dominated(static_cast<std::size_t>(n), 0);
  for (Vertex v : x) {
    dominated[static_cast<std::size_t>(v)] = 1;
    for (Vertex w : g.neighbors(v)) dominated[static_cast<std::size_t>(w)] = 1;
  }

  // Cleanup phase: every undominated vertex nominates the member of its
  // closed neighbourhood covering the most undominated vertices (ties to the
  // smaller id) — one more round in the model. Each nominee is computed into
  // the nominator's own slot (reads of `dominated` only), then marked
  // sequentially: no write races, same set for any thread count.
  std::vector<Vertex> nominee(static_cast<std::size_t>(n), graph::kNoVertex);
  common::parallel_for(n, threads, [&](int begin, int end) {
    for (Vertex v = begin; v < end; ++v) {
      if (dominated[static_cast<std::size_t>(v)]) continue;
      Vertex best = v;
      int best_cover = -1;
      const auto consider = [&](Vertex c) {
        int cover = dominated[static_cast<std::size_t>(c)] ? 0 : 1;
        for (Vertex w : g.neighbors(c)) {
          if (!dominated[static_cast<std::size_t>(w)]) ++cover;
        }
        if (cover > best_cover || (cover == best_cover && c < best)) {
          best_cover = cover;
          best = c;
        }
      };
      consider(v);  // N[v] without materializing it; ties still go to the smaller id
      for (Vertex c : g.neighbors(v)) consider(c);
      nominee[static_cast<std::size_t>(v)] = best;
    }
  });
  std::vector<char> nominated(static_cast<std::size_t>(n), 0);
  for (Vertex v = 0; v < n; ++v) {
    const Vertex b = nominee[static_cast<std::size_t>(v)];
    if (b != graph::kNoVertex) nominated[static_cast<std::size_t>(b)] = 1;
  }

  std::vector<Vertex> result = x;
  for (Vertex v = 0; v < n; ++v) {
    if (nominated[static_cast<std::size_t>(v)]) result.push_back(v);
  }
  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

}  // namespace lmds::core
