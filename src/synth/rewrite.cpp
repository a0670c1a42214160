#include "synth/rewrite.h"

#include <unordered_map>

#include "aig/window.h"
#include "cut/cut_enum.h"
#include "synth/builder.h"
#include "synth/replace.h"
#include "synth/resyn.h"

namespace csat::synth {

namespace {

/// Standalone structure size of the resynthesized form of a cut function
/// (no sharing with the surrounding network). Cached by truth table across
/// the whole process: 4-input functions repeat massively, so after warm-up
/// a rewrite pass does no ISOP/factoring work at all. Using the standalone
/// size makes the gain estimate pessimistic (sharing can only reduce the
/// real node count), which keeps accepted rewrites safe.
int standalone_size(const tt::TruthTable& f) {
  static thread_local std::unordered_map<std::uint64_t, int> cache;
  const std::uint64_t key =
      f.hash() ^ (static_cast<std::uint64_t>(f.num_vars()) << 56);
  if (const auto it = cache.find(key); it != cache.end()) return it->second;

  const aig::Aig empty;  // builder with no network: every AND is "new"
  CountingBuilder b(empty);
  std::vector<aig::Lit> leaves;
  for (int i = 0; i < f.num_vars(); ++i)  // ids far above any virtual node id
    leaves.push_back(aig::Lit::make((1u << 20) + i, false));
  (void)synth_func(b, f, leaves);
  const int size = b.new_nodes();
  cache.emplace(key, size);
  return size;
}

}  // namespace

aig::Aig rewrite(const aig::Aig& g, const RewriteParams& params) {
  cut::CutParams cp;
  cp.cut_size = params.cut_size;
  cp.max_cuts = params.max_cuts;
  cp.keep_trivial = true;
  const cut::CutEnumerator cuts(g, cp);

  std::unordered_map<std::uint32_t, Replacement> accepted;
  for (std::uint32_t n : g.live_ands()) {
    int best_gain = params.allow_zero_gain ? -1 : 0;
    const cut::Cut* best = nullptr;
    for (const cut::Cut& c : cuts.cuts(n)) {
      if (c.size() < 2) continue;  // unit cut is the node itself
      // Cheap bound first: even a free replacement cannot beat best_gain
      // unless the bounded MFFC is larger.
      const int freed =
          static_cast<int>(aig::mffc_bounded(g, n, c.leaves).size());
      if (freed <= best_gain) continue;
      // Fast accept via the cached standalone size (a lower bound on gain:
      // sharing only shrinks the real structure); fall back to the exact
      // sharing-aware dry run when the bound is inconclusive.
      const int standalone = standalone_size(c.func);
      int gain = freed - standalone;
      if (gain <= best_gain)
        gain = freed - count_new_nodes(g, c.func, c.leaves);
      if (gain > best_gain) {
        best_gain = gain;
        best = &c;
      }
    }
    if (best != nullptr) {
      Replacement r;
      r.leaves = best->leaves;
      r.func = best->func;
      accepted.emplace(n, std::move(r));
    }
  }
  if (accepted.empty()) return cleanup_copy(g);

  aig::Aig out = apply_replacements(g, accepted);
  // Interacting zero/low-gain replacements can regress; keep the better net.
  if (out.num_ands() > g.num_live_ands()) return cleanup_copy(g);
  return out;
}

}  // namespace csat::synth
