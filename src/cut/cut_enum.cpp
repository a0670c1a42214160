#include "cut/cut_enum.h"

#include <algorithm>

namespace csat::cut {

namespace {

std::uint32_t signature_of(const std::vector<std::uint32_t>& leaves) {
  std::uint32_t s = 0;
  for (std::uint32_t l : leaves) s |= 1u << (l & 31);
  return s;
}

/// Merged, sorted leaf union; empty optional encoded by ok=false when the
/// union exceeds k.
bool merge_leaves(const std::vector<std::uint32_t>& a,
                  const std::vector<std::uint32_t>& b, int k,
                  std::vector<std::uint32_t>& out) {
  out.clear();
  std::size_t i = 0, j = 0;
  while (i < a.size() || j < b.size()) {
    std::uint32_t next;
    if (j >= b.size() || (i < a.size() && a[i] <= b[j])) {
      next = a[i++];
      if (j < b.size() && b[j] == next) ++j;
    } else {
      next = b[j++];
    }
    out.push_back(next);
    if (static_cast<int>(out.size()) > k) return false;
  }
  return true;
}

}  // namespace

bool Cut::dominates(const Cut& other) const {
  if ((signature & ~other.signature) != 0) return false;
  if (leaves.size() > other.leaves.size()) return false;
  return std::includes(other.leaves.begin(), other.leaves.end(), leaves.begin(),
                       leaves.end());
}

tt::TruthTable expand_tt(const tt::TruthTable& t,
                         const std::vector<std::uint32_t>& from,
                         const std::vector<std::uint32_t>& to) {
  CSAT_CHECK(from.size() <= to.size());
  const int n = static_cast<int>(to.size());
  // Position of each `from` leaf inside `to`.
  std::vector<int> pos(from.size());
  for (std::size_t i = 0; i < from.size(); ++i) {
    const auto it = std::lower_bound(to.begin(), to.end(), from[i]);
    CSAT_CHECK_MSG(it != to.end() && *it == from[i],
                   "expand_tt: from-leaf missing in to-leaves");
    pos[i] = static_cast<int>(it - to.begin());
  }
  tt::TruthTable r(n);
  for (std::uint64_t m = 0; m < r.num_minterms(); ++m) {
    std::uint64_t src = 0;
    for (std::size_t i = 0; i < from.size(); ++i)
      if ((m >> pos[i]) & 1) src |= std::uint64_t{1} << i;
    if (t.get_bit(src)) r.set_bit(m);
  }
  return r;
}

CutEnumerator::CutEnumerator(const aig::Aig& g, const CutParams& params)
    : params_(params), cuts_(g.num_nodes()) {
  CSAT_CHECK(params_.cut_size >= 2 &&
             params_.cut_size <= tt::TruthTable::kMaxVars);
  for (std::uint32_t n = 0; n < g.num_nodes(); ++n) {
    if (g.is_and(n)) {
      merge_node(g, n);
    } else if (params_.keep_trivial || !g.is_and(n)) {
      Cut unit;
      unit.leaves = {n};
      unit.signature = signature_of(unit.leaves);
      unit.func = tt::TruthTable::projection(1, 0);
      cuts_[n].push_back(std::move(unit));
    }
  }
}

void CutEnumerator::merge_node(const aig::Aig& g, std::uint32_t n) {
  const aig::Lit f0 = g.fanin0(n);
  const aig::Lit f1 = g.fanin1(n);
  const auto& set0 = cuts_[f0.node()];
  const auto& set1 = cuts_[f1.node()];
  auto& out = cuts_[n];

  std::vector<std::uint32_t> merged;
  for (const Cut& c0 : set0) {
    for (const Cut& c1 : set1) {
      if (__builtin_popcount(c0.signature | c1.signature) >
          params_.cut_size + 8)
        continue;  // cheap reject before the real merge
      if (!merge_leaves(c0.leaves, c1.leaves, params_.cut_size, merged))
        continue;

      Cut cand;
      cand.leaves = merged;
      cand.signature = signature_of(merged);

      // Dominance filtering against the cuts already kept.
      bool dominated = false;
      for (const Cut& kept : out) {
        if (kept.dominates(cand)) {
          dominated = true;
          break;
        }
      }
      if (dominated) continue;

      tt::TruthTable t0 = expand_tt(c0.func, c0.leaves, cand.leaves);
      if (f0.is_compl()) t0 = ~t0;
      tt::TruthTable t1 = expand_tt(c1.func, c1.leaves, cand.leaves);
      if (f1.is_compl()) t1 = ~t1;
      cand.func = t0 & t1;

      // Remove previously kept cuts that the new one dominates.
      std::erase_if(out, [&](const Cut& kept) { return cand.dominates(kept); });
      out.push_back(std::move(cand));
      if (static_cast<int>(out.size()) > params_.max_cuts) {
        // Priority: prefer smaller cuts (cheaper to price and to map).
        std::stable_sort(out.begin(), out.end(),
                         [](const Cut& a, const Cut& b) {
                           return a.leaves.size() < b.leaves.size();
                         });
        out.pop_back();
      }
    }
  }

  if (params_.keep_trivial) {
    Cut unit;
    unit.leaves = {n};
    unit.signature = signature_of(unit.leaves);
    unit.func = tt::TruthTable::projection(1, 0);
    out.push_back(std::move(unit));
  }
}

}  // namespace csat::cut
