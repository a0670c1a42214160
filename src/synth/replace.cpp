#include "synth/replace.h"

#include "synth/builder.h"
#include "synth/resyn.h"

namespace csat::synth {

int count_new_nodes(const aig::Aig& g, const tt::TruthTable& func,
                    std::span<const std::uint32_t> leaves) {
  CountingBuilder b(g);
  std::vector<aig::Lit> leaf_lits;
  leaf_lits.reserve(leaves.size());
  for (std::uint32_t l : leaves) leaf_lits.push_back(aig::Lit::make(l, false));
  (void)synth_func(b, func, leaf_lits);
  return b.new_nodes();
}

namespace {

class Rebuilder {
 public:
  Rebuilder(const aig::Aig& src,
            const std::unordered_map<std::uint32_t, Replacement>& repl)
      : src_(src), repl_(repl), map_(src.num_nodes(), aig::kFalse),
        done_(src.num_nodes(), 0) {
    done_[0] = 1;  // constant maps to constant
    for (std::uint32_t pi : src.pis()) {
      map_[pi] = dst_.add_pi();
      done_[pi] = 1;
    }
  }

  aig::Aig run() {
    for (aig::Lit po : src_.pos()) dst_.add_po(build(po));
    return std::move(dst_);
  }

 private:
  aig::Lit build(aig::Lit old) {
    const std::uint32_t n = old.node();
    if (!done_[n]) {
      if (const auto it = repl_.find(n); it != repl_.end()) {
        const Replacement& r = it->second;
        std::vector<aig::Lit> leaf_lits;
        leaf_lits.reserve(r.leaves.size());
        for (std::uint32_t leaf : r.leaves)
          leaf_lits.push_back(build(aig::Lit::make(leaf, false)));
        RealBuilder rb(dst_);
        map_[n] = synth_func(rb, r.func, leaf_lits);
      } else {
        const aig::Lit a = build(src_.fanin0(n));
        const aig::Lit b = build(src_.fanin1(n));
        map_[n] = dst_.and2(a, b);
      }
      done_[n] = 1;
    }
    return map_[n] ^ old.is_compl();
  }

  const aig::Aig& src_;
  const std::unordered_map<std::uint32_t, Replacement>& repl_;
  aig::Aig dst_;
  std::vector<aig::Lit> map_;
  std::vector<char> done_;
};

}  // namespace

aig::Aig apply_replacements(
    const aig::Aig& g,
    const std::unordered_map<std::uint32_t, Replacement>& replacements) {
  return Rebuilder(g, replacements).run();
}

}  // namespace csat::synth
