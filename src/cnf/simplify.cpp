#include "cnf/simplify.h"

#include <algorithm>
#include <iterator>
#include <span>
#include <utility>

#include "common/check.h"
#include "common/stopwatch.h"
#include "sat/proof.h"

namespace csat::cnf {

namespace {

/// Working clause: a sorted literal range [offset, offset + size) of the
/// simplifier's one literal arena, plus a Bloom signature and liveness.
/// Every rewrite the simplifier makes shrinks a clause (unit removal,
/// strengthening), so rewrites happen in place and a clause never moves.
struct WorkClause {
  std::uint32_t offset = 0;
  std::uint32_t size = 0;
  std::uint64_t signature = 0;
  bool alive = true;
};

std::uint64_t signature_of(std::span<const Lit> lits) {
  std::uint64_t s = 0;
  for (Lit l : lits) s |= 1ULL << (l.var() & 63);
  return s;
}

/// Persistent occurrence list for one literal. Entries are appended when a
/// clause gains the literal; removals (clause death, strengthening past the
/// literal) only bump `dirty`. Readers compact lazily, so the amortized
/// cost of a removal is O(1) and no per-query allocation happens.
struct OccList {
  std::vector<std::uint32_t> entries;
  std::uint32_t dirty = 0;
};

using Kind = SimplifyResult::Reconstruction::Kind;

/// Simplification rounds; each round runs all enabled techniques.
constexpr int kMaxRounds = 3;

class Simplifier {
 public:
  Simplifier(const Cnf& formula, const SimplifyParams& params)
      : params_(params),
        num_vars_(formula.num_vars()),
        assign_(formula.num_vars(), -1),
        occ_(2 * static_cast<std::size_t>(formula.num_vars())),
        lit_mark_(2 * static_cast<std::size_t>(formula.num_vars()), 0),
        touched_flag_(formula.num_vars(), 0) {
    lits_.reserve(formula.num_literals());
    clauses_.reserve(formula.num_clauses());
    in_sub_queue_.reserve(formula.num_clauses());
    sub_queue_.reserve(formula.num_clauses());
    // Size every occurrence list once, from the input's literal counts
    // (tallied in lit_mark_, which is zeroed again before any marking).
    for (std::size_t i = 0; i < formula.num_clauses(); ++i)
      for (Lit l : formula.clause(i)) ++lit_mark_[l.x];
    for (std::size_t x = 0; x < occ_.size(); ++x) {
      occ_[x].entries.reserve(lit_mark_[x]);
      lit_mark_[x] = 0;
    }
    for (std::size_t i = 0; i < formula.num_clauses(); ++i)
      if (!add_clause(formula.clause(i))) break;
  }

  SimplifyResult run() {
    // Tracing starts here, not in the constructor: the original clauses are
    // the proof's premise set and must not appear as derivation steps.
    tracing_ = params_.proof != nullptr;
    propagate_units();
    for (int round = 0; round < kMaxRounds && !unsat_ && !timed_out_;
         ++round) {
      // Pure-literal and BVE sweeps only look at variables whose
      // neighbourhood changed: everything in round 0, the touched set after.
      round_vars_.clear();
      if (round == 0) {
        round_vars_.reserve(num_vars_);
        for (std::uint32_t v = 0; v < num_vars_; ++v) round_vars_.push_back(v);
      } else {
        round_vars_.swap(touched_);
        for (std::uint32_t v : round_vars_) touched_flag_[v] = 0;
      }
      bool changed = false;
      changed |= propagate_units();
      if (unsat_ || timed_out_) break;
      if (params_.pure_literals) changed |= eliminate_pures();
      if (params_.subsumption) changed |= subsume();
      if (params_.variable_elimination) changed |= eliminate_variables();
      if (!changed) break;
    }
    return finish();
  }

 private:
  // --- budgets --------------------------------------------------------------
  //
  // Spent resolutions stop subsumption and BVE, and the wall clock stops
  // everything. Pending units are drained regardless.

  void check_clock() {
    if (++clock_ticks_ % 4096 != 0) return;
    if (watch_.seconds() > params_.max_seconds) timed_out_ = true;
  }

  void charge_res(std::uint64_t n) {
    stats_.resolutions += n;
    if (stats_.resolutions > params_.max_resolutions) res_spent_ = true;
    check_clock();
  }

  [[nodiscard]] bool resolution_stopped() const {
    return res_spent_ || timed_out_;
  }

  // --- worklists ------------------------------------------------------------

  void touch_var(std::uint32_t v) {
    if (touched_flag_[v]) return;
    touched_flag_[v] = 1;
    touched_.push_back(v);
  }

  void enqueue_subsumption(std::uint32_t idx) {
    if (in_sub_queue_[idx]) return;
    in_sub_queue_[idx] = 1;
    sub_queue_.push_back(idx);
  }

  // --- proof emission ---------------------------------------------------------
  //
  // Every mutation of the live clause set is mirrored as DRAT add/delete
  // steps in the *input* variable space (tracing stops before remapping).
  // The invariant that makes the pure-literal RAT steps checkable is that
  // the checker's active non-unit clauses are exactly the live clauses
  // here: adds are emitted in the stored, normalized form, and every kill
  // or in-place rewrite emits the matching delete. Unit clauses are the
  // one exception — the checker ignores unit deletions (its root
  // assignment only grows), which matches a fixed variable never becoming
  // pure-eligible again.

  void proof_add(std::span<const Lit> lits) {
    if (tracing_) params_.proof->add(lits);
  }
  void proof_add1(Lit l) { proof_add(std::span<const Lit>(&l, 1)); }
  void proof_delete(std::span<const Lit> lits) {
    if (tracing_) params_.proof->remove(lits);
  }
  /// Keeps the pre-rewrite form of clause `idx` for the delete step that
  /// follows the rewritten form's add.
  void proof_snapshot(std::uint32_t idx) {
    if (!tracing_) return;
    const std::span<const Lit> old = lits(idx);
    proof_old_.assign(old.begin(), old.end());
  }

  // --- clause management ----------------------------------------------------

  std::span<Lit> lits(std::uint32_t idx) {
    const WorkClause& c = clauses_[idx];
    return {lits_.data() + c.offset, c.size};
  }

  /// Normalizes `in` straight onto the arena's tail (a rejected clause is
  /// popped off again). `in` must not point into the arena.
  bool add_clause(std::span<const Lit> in) {
    const std::size_t offset = lits_.size();
    for (Lit l : in) {
      const int v = assign_[l.var()];
      if (v == static_cast<int>(!l.sign())) {  // satisfied
        lits_.resize(offset);
        return true;
      }
      if (v == static_cast<int>(l.sign())) continue;  // falsified lit
      lits_.push_back(l);
    }
    const auto first = lits_.begin() + static_cast<std::ptrdiff_t>(offset);
    std::sort(first, lits_.end());
    lits_.erase(std::unique(first, lits_.end()), lits_.end());
    const std::span<const Lit> added(lits_.data() + offset,
                                     lits_.size() - offset);
    for (std::size_t i = 0; i + 1 < added.size(); ++i)
      if (added[i] == !added[i + 1]) {  // tautology
        lits_.resize(offset);
        return true;
      }
    if (added.empty()) {
      unsat_ = true;
      return false;
    }
    if (added.size() == 1) {
      // Emitted now, not when the pending unit is fixed: the only traced
      // caller is BVE, whose parent clauses (the RUP witnesses) are gone
      // by the time propagate_units runs.
      proof_add(added);
      pending_units_.push_back(added[0]);
      lits_.resize(offset);
      return true;
    }
    CSAT_CHECK_MSG(lits_.size() <= std::numeric_limits<std::uint32_t>::max(),
                   "simplify: literal arena exceeds 32-bit offsets");
    proof_add(added);
    const auto idx = static_cast<std::uint32_t>(clauses_.size());
    for (Lit l : added) {
      occ_[l.x].entries.push_back(idx);
      touch_var(l.var());
    }
    clauses_.push_back({static_cast<std::uint32_t>(offset),
                        static_cast<std::uint32_t>(added.size()),
                        signature_of(added), true});
    in_sub_queue_.push_back(0);
    enqueue_subsumption(idx);
    return true;
  }

  void kill_clause(std::uint32_t idx) {
    WorkClause& c = clauses_[idx];
    if (!c.alive) return;
    if (c.size >= 2) proof_delete(lits(idx));
    c.alive = false;
    ++stats_.removed_clauses;
    for (Lit l : lits(idx)) {
      ++occ_[l.x].dirty;
      touch_var(l.var());
    }
  }

  /// Drops `l` from clause `idx` in place (the clause stays sorted).
  void remove_literal(std::uint32_t idx, Lit l) {
    const std::span<Lit> cl = lits(idx);
    WorkClause& c = clauses_[idx];
    c.size = static_cast<std::uint32_t>(std::remove(cl.begin(), cl.end(), l) -
                                        cl.begin());
    c.signature = signature_of(lits(idx));
  }

  /// Exact live occurrences of `l`: entries whose clause is alive and still
  /// contains `l`. Compacts in place when stale entries have accumulated.
  /// The returned list stays valid while clauses die or shrink (that only
  /// bumps `dirty`); an append to it, or another occ() call on the same
  /// literal (which may compact it), invalidates it.
  const std::vector<std::uint32_t>& occ(Lit l) {
    OccList& list = occ_[l.x];
    if (list.dirty > 0) {
      std::erase_if(list.entries, [&](std::uint32_t idx) {
        if (!clauses_[idx].alive) return true;
        const std::span<const Lit> cl = lits(idx);
        return !std::binary_search(cl.begin(), cl.end(), l);
      });
      list.dirty = 0;
    }
    return list.entries;
  }

  // --- literal marks --------------------------------------------------------

  /// Marks the literals of clause `idx`, clearing every earlier mark.
  void mark_clause(std::uint32_t idx) {
    if (++mark_stamp_ == 0) {
      std::fill(lit_mark_.begin(), lit_mark_.end(), 0);
      mark_stamp_ = 1;
    }
    for (Lit l : lits(idx)) lit_mark_[l.x] = mark_stamp_;
  }
  [[nodiscard]] bool marked(Lit l) const {
    return lit_mark_[l.x] == mark_stamp_;
  }
  /// True when every literal of clause `idx` is marked.
  bool all_marked(std::uint32_t idx) {
    for (Lit l : lits(idx))
      if (!marked(l)) return false;
    return true;
  }
  /// True when clause `idx` holds `n` marked literals (all of the marked
  /// clause, when that clause has n literals).
  bool holds_marked(std::uint32_t idx, std::uint32_t n) {
    std::uint32_t hits = 0;
    for (Lit l : lits(idx))
      if (marked(l) && ++hits == n) return true;
    return false;
  }

  // --- unit propagation -------------------------------------------------------

  /// Makes `l` true. Returns true when the variable was newly assigned.
  /// Stats are attributed by the caller (unit/pure buckets); the
  /// reconstruction entry is pushed here so no fix can be forgotten.
  bool fix_literal(Lit l) {
    const std::uint32_t v = l.var();
    if (assign_[v] != -1) {
      if (assign_[v] == static_cast<int>(l.sign())) unsat_ = true;
      return false;
    }
    assign_[v] = l.sign() ? 0 : 1;
    stack_.push_back({Kind::kFixed, v, l});
    // The unit step itself. RUP for propagated literals (the deriving
    // clauses are still present), RAT on l for pure literals (no active
    // clause contains !l).
    proof_add1(l);
    // Satisfied clauses die; falsified literals shrink clauses.
    const auto& satisfied = occ(l);
    check_clock();
    for (std::uint32_t idx : satisfied) kill_clause(idx);
    const auto& shrunk = occ(!l);
    check_clock();
    for (std::uint32_t idx : shrunk) {
      if (!clauses_[idx].alive) continue;
      proof_snapshot(idx);
      remove_literal(idx, !l);
      for (Lit m : lits(idx)) touch_var(m.var());
      if (clauses_[idx].size == 0) {
        unsat_ = true;
        return true;
      }
      // The shrunk clause is RUP against {old clause, unit l}; the old
      // form is deleted so a stale copy can't block a later RAT step.
      proof_add(lits(idx));
      proof_delete(proof_old_);
      if (clauses_[idx].size == 1) {
        pending_units_.push_back(lits(idx)[0]);
        kill_clause(idx);
      } else {
        enqueue_subsumption(idx);
      }
    }
    // The variable is gone from the formula for good.
    occ_[l.x].entries.clear();
    occ_[l.x].dirty = 0;
    occ_[(!l).x].entries.clear();
    occ_[(!l).x].dirty = 0;
    touch_var(v);
    return true;
  }

  /// Drains the pending-unit queue to a fixpoint. Runs to completion even
  /// when a budget is exhausted: once any fix has weakened the formula, the
  /// queued consequences must be applied for the result to stay sound.
  bool propagate_units() {
    bool changed = false;
    while (!pending_units_.empty() && !unsat_) {
      const Lit l = pending_units_.back();
      pending_units_.pop_back();
      if (fix_literal(l)) {
        ++stats_.fixed_units;
        changed = true;
      }
    }
    return changed;
  }

  // --- pure literals ----------------------------------------------------------

  bool eliminate_pures() {
    bool changed = false;
    for (std::uint32_t v : round_vars_) {
      if (unsat_ || timed_out_) break;
      if (assign_[v] != -1) continue;
      const bool has_pos = !occ(Lit::make(v, false)).empty();
      const bool has_neg = !occ(Lit::make(v, true)).empty();
      if (has_pos == has_neg) continue;  // both phases, or unconstrained
      const Lit pure = Lit::make(v, !has_pos);
      if (fix_literal(pure)) ++stats_.pure_literals;
      propagate_units();
      changed = true;
    }
    return changed;
  }

  // --- subsumption -------------------------------------------------------------
  //
  // The queued clause c is marked once; every candidate is then tested in
  // one pass over its own literals. Nothing below grows the arena or the
  // clause list, so c's literal range stays put while it is processed.

  bool subsume() {
    bool changed = false;
    while (!sub_queue_.empty() && !unsat_ && !resolution_stopped()) {
      const std::uint32_t ci = sub_queue_.back();
      sub_queue_.pop_back();
      in_sub_queue_[ci] = 0;
      if (!clauses_[ci].alive) continue;
      mark_clause(ci);
      const std::uint32_t c_size = clauses_[ci].size;
      const std::uint64_t c_sig = clauses_[ci].signature;

      // Backward: is c itself subsumed by an existing clause? Any subsumer
      // is made of c's literals, so scanning their occurrence lists finds it.
      {
        bool killed = false;
        for (Lit l : lits(ci)) {
          for (std::uint32_t di : occ(l)) {
            if (di == ci) continue;
            const WorkClause& d = clauses_[di];
            charge_res(1);
            if (d.size <= c_size && (d.signature & ~c_sig) == 0 &&
                all_marked(di)) {
              kill_clause(ci);
              ++stats_.subsumed_clauses;
              changed = true;
              killed = true;
              break;
            }
          }
          if (killed || resolution_stopped()) break;
        }
        if (killed) continue;
        if (resolution_stopped()) break;
      }

      // Forward: c subsumes supersets, found through the occurrence list of
      // its least-occurring literal.
      Lit best = lits(ci)[0];
      for (Lit l : lits(ci))
        if (occ_[l.x].entries.size() < occ_[best.x].entries.size()) best = l;
      for (std::uint32_t di : occ(best)) {
        if (di == ci || !clauses_[di].alive) continue;
        charge_res(1);
        const WorkClause& d = clauses_[di];
        if (c_size > d.size) continue;
        if ((c_sig & ~d.signature) == 0 && holds_marked(di, c_size)) {
          kill_clause(di);
          ++stats_.subsumed_clauses;
          changed = true;
        }
      }
      if (resolution_stopped()) break;

      // Self-subsuming resolution: c with one literal flipped subsumes d
      // => remove the flipped literal from d. Flipping keeps c's signature.
      for (std::uint32_t k = 0; k < c_size; ++k) {
        if (!clauses_[ci].alive || unsat_ || resolution_stopped()) break;
        const Lit flip = lits(ci)[k];
        for (std::uint32_t di : occ(!flip)) {
          if (di == ci || !clauses_[di].alive) continue;
          charge_res(1);
          if (c_size > clauses_[di].size) continue;
          if (!flipped_subset(di, flip, c_size, c_sig)) continue;
          proof_snapshot(di);
          remove_literal(di, !flip);
          // The strengthened clause is the resolvent of c and d on `flip`;
          // both parents are still present, so it is RUP.
          proof_add(lits(di));
          proof_delete(proof_old_);
          ++occ_[(!flip).x].dirty;
          ++stats_.strengthened_clauses;
          for (Lit l : lits(di)) touch_var(l.var());
          touch_var(flip.var());
          changed = true;
          if (clauses_[di].size == 1) {
            pending_units_.push_back(lits(di)[0]);
            kill_clause(di);
          } else if (clauses_[di].size == 0) {
            unsat_ = true;
            break;
          } else {
            enqueue_subsumption(di);
          }
        }
      }
      propagate_units();
    }
    propagate_units();
    return changed;
  }

  /// True when the marked clause c, with `flip` negated, is a subset of
  /// clause `di`: d holds !flip and the other c_size - 1 marked literals.
  /// (A d holding !flip cannot hold flip, so every marked hit counts.)
  bool flipped_subset(std::uint32_t di, Lit flip, std::uint32_t c_size,
                      std::uint64_t c_sig) {
    if ((c_sig & ~clauses_[di].signature) != 0) return false;
    bool has_flipped = false;
    std::uint32_t hits = 0;
    for (Lit l : lits(di)) {
      if (l == !flip) {
        has_flipped = true;
      } else if (marked(l)) {
        ++hits;
      }
    }
    return has_flipped && hits + 1 == c_size;
  }

  // --- bounded variable elimination ---------------------------------------------
  //
  // Count first, build later: the non-tautological resolvents are counted
  // with the positive parent's literals marked, and are only built (one at
  // a time, in one reused buffer) once the elimination is accepted.

  /// True when the resolvent on v of the marked clause with clause `ni` is
  /// a tautology, i.e. `ni` holds the negation of a marked literal.
  bool resolvent_tautological(std::uint32_t ni, std::uint32_t v) {
    for (Lit l : lits(ni))
      if (l.var() != v && marked(!l)) return true;
    return false;
  }

  /// Appends clause `idx` to the reconstruction literals, led by `pivot`.
  void record_eliminated(std::uint32_t idx, Lit pivot) {
    stack_lits_.push_back(pivot);
    for (Lit l : lits(idx))
      if (l != pivot) stack_lits_.push_back(l);
  }

  bool eliminate_variables() {
    bool changed = false;
    for (std::uint32_t v : round_vars_) {
      if (unsat_ || resolution_stopped()) break;
      if (assign_[v] != -1) continue;
      // Resolvents never mention v, so adding them below leaves these two
      // lists untouched.
      const auto& pos = occ(Lit::make(v, false));
      const auto& neg = occ(Lit::make(v, true));
      if (pos.empty() && neg.empty()) continue;
      const int occurrences = static_cast<int>(pos.size() + neg.size());
      if (occurrences > params_.bve_occurrence_limit) continue;

      // Count non-tautological resolvents.
      int resolvents = 0;
      bool too_many = false;
      for (std::uint32_t pi : pos) {
        mark_clause(pi);
        for (std::uint32_t ni : neg) {
          charge_res(1);
          if (!resolvent_tautological(ni, v) && ++resolvents > occurrences) {
            too_many = true;
            break;
          }
        }
        if (too_many) break;
      }
      if (too_many || resolution_stopped()) continue;

      // Record the variable's clauses for model reconstruction, then swap
      // them for the resolvents (NiVER's non-increasing elimination).
      const auto begin = static_cast<std::uint32_t>(stack_lits_.size());
      for (std::uint32_t idx : pos) record_eliminated(idx, Lit::make(v, false));
      for (std::uint32_t idx : neg) record_eliminated(idx, Lit::make(v, true));
      stack_.push_back({Kind::kEliminated, v, Lit{}, begin,
                        static_cast<std::uint32_t>(stack_lits_.size())});
      // Resolvents go in before the parents die: each resolvent's RUP
      // check in proof mode resolves against the still-present parents.
      // add_clause may move the arena, so no span is held across it.
      bool added = true;
      for (std::uint32_t pi : pos) {
        mark_clause(pi);
        for (std::uint32_t ni : neg) {
          if (resolvent_tautological(ni, v)) continue;
          // Merged in order, so add_clause's normalization finds it sorted.
          const std::span<const Lit> a = lits(pi);
          const std::span<const Lit> b = lits(ni);
          resolvent_.clear();
          std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                         std::back_inserter(resolvent_));
          std::erase_if(resolvent_, [v](Lit l) { return l.var() == v; });
          added = add_clause(resolvent_);
          if (!added) break;
        }
        if (!added) break;
      }
      for (std::uint32_t idx : pos) kill_clause(idx);
      for (std::uint32_t idx : neg) kill_clause(idx);
      ++stats_.eliminated_vars;
      propagate_units();
      changed = true;
    }
    return changed;
  }

  // --- output ------------------------------------------------------------------

  SimplifyResult finish() {
    SimplifyResult result;
    result.unsat = unsat_;
    result.original_vars = num_vars_;
    result.stack = std::move(stack_);
    result.stack_lits = std::move(stack_lits_);
    result.var_map.assign(num_vars_, SimplifyResult::kUnmapped);
    stats_.budget_exhausted = res_spent_ || timed_out_;

    if (unsat_) {
      // Cap the proof with the empty clause. Every unsat_ site has already
      // put the checker in root conflict (two opposing units, or a clause
      // whose literals are all falsified by emitted units), so this final
      // step always verifies.
      proof_add(std::span<const Lit>{});
      // Canonical unsatisfiable formula: zero variables, one empty clause.
      // (The old contradictory-unit encoding emitted out-of-range literals
      // for 0-variable inputs.)
      result.cnf.add_clause(std::span<const Lit>{});
      stats_.seconds = watch_.seconds();
      result.stats = stats_;
      return result;
    }

    // Variables that still appear in the output: live clauses plus any
    // units left pending (only possible when no technique ran).
    std::vector<bool> seen(num_vars_, false);
    for (std::uint32_t idx = 0; idx < clauses_.size(); ++idx)
      if (clauses_[idx].alive)
        for (Lit l : lits(idx)) seen[l.var()] = true;
    for (Lit l : pending_units_) seen[l.var()] = true;

    std::uint32_t next = 0;
    for (std::uint32_t v = 0; v < num_vars_; ++v) {
      if (!seen[v]) continue;
      result.var_map[v] = next++;
      result.inverse_map.push_back(v);
    }
    result.cnf.add_vars(next);
    std::vector<Lit> mapped;
    for (std::uint32_t idx = 0; idx < clauses_.size(); ++idx) {
      if (!clauses_[idx].alive) continue;
      mapped.clear();
      for (Lit l : lits(idx))
        mapped.push_back(Lit::make(result.var_map[l.var()], l.sign()));
      result.cnf.add_clause(mapped);
    }
    for (Lit l : pending_units_)
      result.cnf.add_unit(Lit::make(result.var_map[l.var()], l.sign()));
    stats_.seconds = watch_.seconds();
    result.stats = stats_;
    return result;
  }

  SimplifyParams params_;
  std::uint32_t num_vars_;
  SimplifyStats stats_;
  bool unsat_ = false;
  bool res_spent_ = false;      // max_resolutions passed: subsumption, BVE stop
  bool timed_out_ = false;      // max_seconds passed: every technique stops
  bool tracing_ = false;        // params_.proof set and run() has started
  std::vector<Lit> proof_old_;  // pre-rewrite snapshot for add/delete pairs
  Stopwatch watch_;
  std::uint64_t clock_ticks_ = 0;
  std::vector<int> assign_;  // -1 unknown, 0 false, 1 true
  std::vector<Lit> lits_;    // the literal arena every WorkClause points into
  std::vector<WorkClause> clauses_;
  std::vector<OccList> occ_;  // by literal
  std::vector<Lit> pending_units_;
  std::vector<SimplifyResult::Reconstruction> stack_;
  std::vector<Lit> stack_lits_;  // kEliminated payloads (see simplify.h)
  // Literal marks for subsumption and BVE (stamp-versioned, by literal).
  std::uint32_t mark_stamp_ = 0;
  std::vector<std::uint32_t> lit_mark_;
  std::vector<Lit> resolvent_;  // BVE's one resolvent buffer
  // Worklists.
  std::vector<std::uint8_t> touched_flag_;
  std::vector<std::uint32_t> touched_;
  std::vector<std::uint32_t> round_vars_;
  std::vector<std::uint32_t> sub_queue_;
  std::vector<std::uint8_t> in_sub_queue_;
};

}  // namespace

std::vector<bool> SimplifyResult::extend_model(std::vector<bool> model) const {
  CSAT_CHECK_MSG(model.size() >= cnf.num_vars(),
                 "simplify: model does not cover the simplified formula");
  std::vector<bool> full(original_vars, false);
  for (std::size_t d = 0; d < inverse_map.size(); ++d)
    full[inverse_map[d]] = model[d];
  // Replay the reconstruction stack newest-first: each entry's value only
  // depends on variables that survived or were recorded later.
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    switch (it->kind) {
      case Reconstruction::Kind::kFixed:
        full[it->var] = !it->binding.sign();
        break;
      case Reconstruction::Kind::kEliminated: {
        // The entry's clauses lie back to back in stack_lits, each led by
        // its literal on the eliminated variable.
        bool value = false;
        bool forced = false;
        const Lit* p = stack_lits.data() + it->begin;
        const Lit* const end = stack_lits.data() + it->end;
        while (p != end) {
          const Lit pivot = *p++;
          bool satisfied_without_v = false;
          for (; p != end && p->var() != it->var; ++p)
            satisfied_without_v |= full[p->var()] != p->sign();
          if (!satisfied_without_v) {
            const bool needed = !pivot.sign();
            CSAT_CHECK_MSG(!forced || value == needed,
                           "simplify: inconsistent model reconstruction");
            value = needed;
            forced = true;
          }
        }
        full[it->var] = forced ? value : false;
        break;
      }
    }
  }
  return full;
}

SimplifyResult simplify(const Cnf& formula, const SimplifyParams& params) {
  return Simplifier(formula, params).run();
}

}  // namespace csat::cnf
