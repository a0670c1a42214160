#include "cnf/simplify.h"

#include <algorithm>
#include <span>
#include <utility>

#include "common/check.h"
#include "common/stopwatch.h"
#include "sat/proof.h"

namespace csat::cnf {

namespace {

/// Working clause: sorted literals + Bloom signature + liveness.
struct WorkClause {
  std::vector<Lit> lits;
  std::uint64_t signature = 0;
  bool alive = true;
};

std::uint64_t signature_of(const std::vector<Lit>& lits) {
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

class Simplifier {
 public:
  Simplifier(const Cnf& formula, const SimplifyParams& params)
      : params_(params),
        num_vars_(formula.num_vars()),
        assign_(formula.num_vars(), -1),
        occ_(2 * static_cast<std::size_t>(formula.num_vars())),
        touched_flag_(formula.num_vars(), 0),
        probe_mark_(formula.num_vars(), 0),
        probe_val_(formula.num_vars(), 0) {
    for (std::size_t i = 0; i < formula.num_clauses(); ++i)
      if (!add_clause(formula.clause(i))) break;
  }

  SimplifyResult run() {
    // Tracing starts here, not in the constructor: the original clauses are
    // the proof's premise set and must not appear as derivation steps.
    tracing_ = params_.proof != nullptr;
    propagate_units();
    for (int round = 0; round < params_.max_rounds && !unsat_ && !exhausted_;
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
      if (unsat_ || exhausted_) break;
      if (params_.pure_literals) changed |= eliminate_pures();
      if (params_.failed_literal_probing) changed |= probe();
      if (params_.subsumption) changed |= subsume();
      if (params_.variable_elimination) changed |= eliminate_variables();
      if (!changed) break;
    }
    return finish();
  }

 private:
  // --- budgets --------------------------------------------------------------

  void check_clock() {
    if (++clock_ticks_ % 4096 != 0) return;
    if (watch_.seconds() > params_.max_seconds) exhausted_ = true;
  }

  void charge_props(std::uint64_t n) {
    stats_.propagations += n;
    if (stats_.propagations > params_.max_propagations) exhausted_ = true;
    check_clock();
  }

  void charge_res(std::uint64_t n) {
    stats_.resolutions += n;
    if (stats_.resolutions > params_.max_resolutions) exhausted_ = true;
    check_clock();
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
  void proof_add2(Lit a, Lit b) {
    const Lit pair[2] = {a, b};
    proof_add(pair);
  }
  void proof_delete(std::span<const Lit> lits) {
    if (tracing_) params_.proof->remove(lits);
  }
  void proof_delete2(Lit a, Lit b) {
    const Lit pair[2] = {a, b};
    proof_delete(pair);
  }

  // --- clause management ----------------------------------------------------

  bool add_clause(std::span<const Lit> in) {
    std::vector<Lit> lits;
    lits.reserve(in.size());
    for (Lit l : in) {
      const int v = assign_[l.var()];
      if (v == static_cast<int>(!l.sign())) return true;    // satisfied
      if (v == static_cast<int>(l.sign())) continue;        // falsified lit
      lits.push_back(l);
    }
    std::sort(lits.begin(), lits.end());
    lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
    for (std::size_t i = 0; i + 1 < lits.size(); ++i)
      if (lits[i] == !lits[i + 1]) return true;  // tautology
    if (lits.empty()) {
      unsat_ = true;
      return false;
    }
    if (lits.size() == 1) {
      // Emitted now, not when the pending unit is fixed: the only traced
      // caller is BVE, whose parent clauses (the RUP witnesses) are gone
      // by the time propagate_units runs.
      proof_add(lits);
      pending_units_.push_back(lits[0]);
      return true;
    }
    proof_add(lits);
    const auto idx = static_cast<std::uint32_t>(clauses_.size());
    WorkClause wc;
    wc.lits = std::move(lits);
    wc.signature = signature_of(wc.lits);
    for (Lit l : wc.lits) {
      occ_[l.x].entries.push_back(idx);
      touch_var(l.var());
    }
    clauses_.push_back(std::move(wc));
    in_sub_queue_.push_back(0);
    enqueue_subsumption(idx);
    return true;
  }

  void kill_clause(std::uint32_t idx) {
    if (!clauses_[idx].alive) return;
    if (clauses_[idx].lits.size() >= 2) proof_delete(clauses_[idx].lits);
    clauses_[idx].alive = false;
    ++stats_.removed_clauses;
    for (Lit l : clauses_[idx].lits) {
      ++occ_[l.x].dirty;
      touch_var(l.var());
    }
  }

  /// Exact live occurrences of `l`: entries whose clause is alive and still
  /// contains `l`. Compacts in place when stale entries have accumulated.
  /// The returned reference is invalidated by add_clause/substitution (which
  /// append entries); copy first when the loop body mutates clauses.
  const std::vector<std::uint32_t>& occ(Lit l) {
    OccList& list = occ_[l.x];
    if (list.dirty > 0) {
      std::erase_if(list.entries, [&](std::uint32_t idx) {
        const WorkClause& c = clauses_[idx];
        return !c.alive ||
               !std::binary_search(c.lits.begin(), c.lits.end(), l);
      });
      list.dirty = 0;
    }
    return list.entries;
  }

  // --- unit propagation -------------------------------------------------------

  /// Makes `l` true. Returns true when the variable was newly assigned.
  /// Stats are attributed by the caller (unit/pure/failed buckets); the
  /// reconstruction entry is pushed here so no fix can be forgotten.
  bool fix_literal(Lit l) {
    const std::uint32_t v = l.var();
    if (assign_[v] != -1) {
      if (assign_[v] == static_cast<int>(l.sign())) unsat_ = true;
      return false;
    }
    assign_[v] = l.sign() ? 0 : 1;
    stack_.push_back({SimplifyResult::Reconstruction::Kind::kFixed, v, l, {}});
    // The unit step itself. RUP for propagated and failed literals (the
    // deriving clauses are still present), RAT on l for pure literals (no
    // active clause contains !l). Both-phase probe lifts are covered by
    // helper binaries the probe loop emits just before calling here.
    proof_add1(l);
    // Satisfied clauses die; falsified literals shrink clauses.
    scratch_ = occ(l);
    charge_props(scratch_.size() + 1);
    for (std::uint32_t idx : scratch_) kill_clause(idx);
    scratch_ = occ(!l);
    charge_props(scratch_.size() + 1);
    for (std::uint32_t idx : scratch_) {
      WorkClause& c = clauses_[idx];
      if (!c.alive) continue;
      if (tracing_) proof_old_ = c.lits;
      c.lits.erase(std::remove(c.lits.begin(), c.lits.end(), !l), c.lits.end());
      c.signature = signature_of(c.lits);
      for (Lit m : c.lits) touch_var(m.var());
      if (c.lits.empty()) {
        unsat_ = true;
        return true;
      }
      // The shrunk clause is RUP against {old clause, unit l}; the old
      // form is deleted so a stale copy can't block a later RAT step.
      proof_add(c.lits);
      proof_delete(proof_old_);
      if (c.lits.size() == 1) {
        pending_units_.push_back(c.lits[0]);
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
      if (unsat_ || exhausted_) break;
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

  // --- failed-literal probing --------------------------------------------------

  /// BCP under the assumption `root`, on top of the (empty) global
  /// assignment, using a stamp-versioned scratch valuation. Returns false
  /// when a budget cut the probe short (its trail must be discarded);
  /// otherwise `conflict` reports whether the assumption failed.
  bool bcp_probe(Lit root, bool& conflict) {
    conflict = false;
    ++probe_stamp_;
    probe_trail_.clear();
    probe_mark_[root.var()] = probe_stamp_;
    probe_val_[root.var()] = root.sign() ? 0 : 1;
    probe_trail_.push_back(root);
    for (std::size_t head = 0; head < probe_trail_.size(); ++head) {
      const Lit a = probe_trail_[head];
      const auto& watch = occ(!a);
      charge_props(watch.size() + 1);
      if (exhausted_) return false;
      for (std::uint32_t idx : watch) {
        const WorkClause& c = clauses_[idx];
        bool satisfied = false;
        int unknown = 0;
        Lit unit{};
        for (Lit l : c.lits) {
          if (probe_mark_[l.var()] == probe_stamp_) {
            if (probe_val_[l.var()] == static_cast<std::uint8_t>(!l.sign())) {
              satisfied = true;
              break;
            }
            continue;  // falsified literal
          }
          ++unknown;
          unit = l;
        }
        if (satisfied) continue;
        if (unknown == 0) {
          conflict = true;
          return true;
        }
        if (unknown == 1) {
          probe_mark_[unit.var()] = probe_stamp_;
          probe_val_[unit.var()] = unit.sign() ? 0 : 1;
          probe_trail_.push_back(unit);
        }
      }
    }
    return true;
  }

  bool probe() {
    bool changed = false;
    std::vector<Lit> fixes;
    for (std::uint32_t v = 0; v < num_vars_ && !unsat_ && !exhausted_; ++v) {
      if (assign_[v] != -1) continue;
      // Variables missing a phase are pure (or unconstrained), not worth
      // probing: assuming the absent phase propagates nothing.
      if (occ(Lit::make(v, false)).empty() || occ(Lit::make(v, true)).empty())
        continue;
      ++stats_.probed_literals;

      bool conflict = false;
      if (!bcp_probe(Lit::make(v, false), conflict)) break;
      if (conflict) {
        ++stats_.failed_literals;
        fix_literal(Lit::make(v, true));
        propagate_units();
        changed = true;
        continue;
      }
      pos_implied_.clear();
      for (Lit l : probe_trail_)
        pos_implied_.emplace_back(l.var(), !l.sign());

      if (!bcp_probe(Lit::make(v, true), conflict)) break;
      if (conflict) {
        ++stats_.failed_literals;
        fix_literal(Lit::make(v, false));
        propagate_units();
        changed = true;
        continue;
      }

      // Intersect the two implication sets. A variable assigned the same
      // value by both phases is fixed; opposite values mean equivalence
      // with the probed variable.
      fixes.clear();
      equivs_.clear();
      for (const auto& [m, b1] : pos_implied_) {
        if (m == v || probe_mark_[m] != probe_stamp_) continue;
        const bool b2 = probe_val_[m] != 0;
        if (b1 == b2) {
          fixes.push_back(Lit::make(m, !b1));
        } else {
          equivs_.emplace_back(m, Lit::make(v, !b1));
        }
      }
      for (const auto& [m, rep] : equivs_) {
        if (assign_[m] != -1 || assign_[rep.var()] != -1) continue;
        substitute_var(m, rep);
        changed = true;
        if (unsat_ || exhausted_) break;
      }
      for (Lit f : fixes) {
        if (unsat_ || assign_[f.var()] != -1) continue;
        ++stats_.failed_literals;
        // f alone is not RUP (deriving it needs a case split on v), so
        // bridge with two helper binaries, each RUP via one probe trail:
        // (!v or f) from the v-true phase, (v or f) from the v-false
        // phase. Resolving them yields the unit; then they are retracted
        // so they can't shadow a later pure/RAT step on v.
        proof_add2(Lit::make(v, true), f);
        proof_add2(Lit::make(v, false), f);
        fix_literal(f);
        proof_delete2(Lit::make(v, true), f);
        proof_delete2(Lit::make(v, false), f);
        changed = true;
      }
      propagate_units();
    }
    return changed;
  }

  /// Replaces every occurrence of variable `m` by the equivalent literal
  /// `rep` (value(m) == value(rep)), removing `m` from the formula. The
  /// equivalence is pushed on the reconstruction stack first, so replay
  /// recovers m's value from rep's.
  void substitute_var(std::uint32_t m, Lit rep) {
    stack_.push_back(
        {SimplifyResult::Reconstruction::Kind::kEquivalent, m, rep, {}});
    ++stats_.equivalent_literals;
    // The two equivalence binaries (!m or rep) and (m or !rep). Each is RUP
    // via one phase of the probe trail that discovered the equivalence (the
    // caller emits these before anything mutates the clause set). Every
    // rewritten clause below is then RUP against {its old form, one of
    // these binaries}; they are retracted at the end so m's ghost
    // occurrences can't block a later RAT step.
    proof_add2(Lit::make(m, true), rep);
    proof_add2(Lit::make(m, false), !rep);
    for (const bool sgn : {false, true}) {
      const Lit s = Lit::make(m, sgn);
      const Lit r = rep ^ sgn;
      scratch_ = occ(s);
      charge_props(scratch_.size() + 1);
      for (std::uint32_t idx : scratch_) {
        WorkClause& c = clauses_[idx];
        if (!c.alive) continue;
        if (std::binary_search(c.lits.begin(), c.lits.end(), !r)) {
          kill_clause(idx);  // clause gains r alongside !r: tautology
          continue;
        }
        const bool had_r =
            std::binary_search(c.lits.begin(), c.lits.end(), r);
        if (tracing_) proof_old_ = c.lits;
        *std::find(c.lits.begin(), c.lits.end(), s) = r;
        std::sort(c.lits.begin(), c.lits.end());
        if (had_r)
          c.lits.erase(std::unique(c.lits.begin(), c.lits.end()),
                       c.lits.end());
        c.signature = signature_of(c.lits);
        proof_add(c.lits);
        proof_delete(proof_old_);
        for (Lit l : c.lits) touch_var(l.var());
        if (c.lits.size() == 1) {
          pending_units_.push_back(c.lits[0]);
          kill_clause(idx);
          continue;
        }
        if (!had_r) occ_[r.x].entries.push_back(idx);
        enqueue_subsumption(idx);
      }
      occ_[s.x].entries.clear();
      occ_[s.x].dirty = 0;
    }
    proof_delete2(Lit::make(m, true), rep);
    proof_delete2(Lit::make(m, false), !rep);
    touch_var(m);
    touch_var(rep.var());
    propagate_units();
  }

  // --- subsumption -------------------------------------------------------------

  /// True when every literal of a occurs in b (both sorted).
  static bool subset_of(const WorkClause& a, const WorkClause& b) {
    if ((a.signature & ~b.signature) != 0) return false;
    return std::includes(b.lits.begin(), b.lits.end(), a.lits.begin(),
                         a.lits.end());
  }

  bool subsume() {
    bool changed = false;
    while (!sub_queue_.empty() && !unsat_ && !exhausted_) {
      const std::uint32_t ci = sub_queue_.back();
      sub_queue_.pop_back();
      in_sub_queue_[ci] = 0;
      if (!clauses_[ci].alive) continue;

      // Backward: is c itself subsumed by an existing clause? Any subsumer
      // is made of c's literals, so scanning their occurrence lists finds it.
      {
        const WorkClause& c = clauses_[ci];
        bool killed = false;
        for (Lit l : c.lits) {
          for (std::uint32_t di : occ(l)) {
            if (di == ci) continue;
            const WorkClause& d = clauses_[di];
            charge_res(1);
            if (d.lits.size() <= c.lits.size() && subset_of(d, c)) {
              kill_clause(ci);
              ++stats_.subsumed_clauses;
              changed = true;
              killed = true;
              break;
            }
          }
          if (killed || exhausted_) break;
        }
        if (killed) continue;
        if (exhausted_) break;
      }

      // Forward: c subsumes supersets, found through the occurrence list of
      // its least-occurring literal.
      Lit best = clauses_[ci].lits[0];
      for (Lit l : clauses_[ci].lits)
        if (occ_[l.x].entries.size() < occ_[best.x].entries.size()) best = l;
      scratch_ = occ(best);
      for (std::uint32_t di : scratch_) {
        if (di == ci || !clauses_[di].alive) continue;
        charge_res(1);
        if (clauses_[ci].lits.size() > clauses_[di].lits.size()) continue;
        if (subset_of(clauses_[ci], clauses_[di])) {
          kill_clause(di);
          ++stats_.subsumed_clauses;
          changed = true;
        }
      }
      if (exhausted_) break;

      // Self-subsuming resolution: c with one literal flipped subsumes d
      // => remove the flipped literal from d.
      const std::vector<Lit> base = clauses_[ci].lits;
      for (Lit flip : base) {
        if (!clauses_[ci].alive || unsat_ || exhausted_) break;
        WorkClause probe;
        probe.lits = base;
        *std::find(probe.lits.begin(), probe.lits.end(), flip) = !flip;
        std::sort(probe.lits.begin(), probe.lits.end());
        probe.signature = signature_of(probe.lits);
        scratch_ = occ(!flip);
        for (std::uint32_t di : scratch_) {
          if (di == ci || !clauses_[di].alive) continue;
          charge_res(1);
          if (probe.lits.size() > clauses_[di].lits.size()) continue;
          if (!subset_of(probe, clauses_[di])) continue;
          WorkClause& d = clauses_[di];
          if (tracing_) proof_old_ = d.lits;
          d.lits.erase(std::remove(d.lits.begin(), d.lits.end(), !flip),
                       d.lits.end());
          d.signature = signature_of(d.lits);
          // The strengthened clause is the resolvent of c and d on `flip`;
          // both parents are still present, so it is RUP.
          proof_add(d.lits);
          proof_delete(proof_old_);
          ++occ_[(!flip).x].dirty;
          ++stats_.strengthened_clauses;
          for (Lit l : d.lits) touch_var(l.var());
          touch_var(flip.var());
          changed = true;
          if (d.lits.size() == 1) {
            pending_units_.push_back(d.lits[0]);
            kill_clause(di);
          } else if (d.lits.empty()) {
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

  // --- bounded variable elimination ---------------------------------------------

  bool eliminate_variables() {
    bool changed = false;
    for (std::uint32_t v : round_vars_) {
      if (unsat_ || exhausted_) break;
      if (assign_[v] != -1) continue;
      const std::vector<std::uint32_t> pos = occ(Lit::make(v, false));
      const std::vector<std::uint32_t> neg = occ(Lit::make(v, true));
      if (pos.empty() && neg.empty()) continue;
      const int occurrences = static_cast<int>(pos.size() + neg.size());
      if (occurrences > params_.bve_occurrence_limit) continue;

      // Build non-tautological resolvents.
      std::vector<std::vector<Lit>> resolvents;
      bool too_many = false;
      for (std::uint32_t pi : pos) {
        for (std::uint32_t ni : neg) {
          charge_res(1);
          std::vector<Lit> r;
          bool taut = false;
          for (Lit l : clauses_[pi].lits)
            if (l.var() != v) r.push_back(l);
          for (Lit l : clauses_[ni].lits) {
            if (l.var() == v) continue;
            r.push_back(l);
          }
          std::sort(r.begin(), r.end());
          r.erase(std::unique(r.begin(), r.end()), r.end());
          for (std::size_t i = 0; i + 1 < r.size(); ++i)
            if (r[i] == !r[i + 1]) {
              taut = true;
              break;
            }
          if (!taut) resolvents.push_back(std::move(r));
          if (static_cast<int>(resolvents.size()) > occurrences) {
            too_many = true;
            break;
          }
        }
        if (too_many) break;
      }
      if (too_many || exhausted_) continue;

      // Record the variable's clauses for model reconstruction, then swap
      // them for the resolvents (NiVER's non-increasing elimination).
      SimplifyResult::Reconstruction rec;
      rec.kind = SimplifyResult::Reconstruction::Kind::kEliminated;
      rec.var = v;
      for (std::uint32_t idx : pos) rec.clauses.push_back(clauses_[idx].lits);
      for (std::uint32_t idx : neg) rec.clauses.push_back(clauses_[idx].lits);
      stack_.push_back(std::move(rec));
      // Resolvents go in before the parents die: each resolvent's RUP
      // check in proof mode resolves against the still-present parents.
      // (The final clause set is the same either way — resolvents never
      // mention v, so the pos/neg snapshots stay exact.)
      for (const auto& r : resolvents)
        if (!add_clause(r)) break;
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
    result.var_map.assign(num_vars_, SimplifyResult::kUnmapped);
    stats_.budget_exhausted = exhausted_;

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
    for (const WorkClause& c : clauses_)
      if (c.alive)
        for (Lit l : c.lits) seen[l.var()] = true;
    for (Lit l : pending_units_) seen[l.var()] = true;

    if (params_.remap_variables) {
      std::uint32_t next = 0;
      for (std::uint32_t v = 0; v < num_vars_; ++v) {
        if (!seen[v]) continue;
        result.var_map[v] = next++;
        result.inverse_map.push_back(v);
      }
      result.cnf.add_vars(next);
      std::vector<Lit> mapped;
      for (const WorkClause& c : clauses_) {
        if (!c.alive) continue;
        mapped.clear();
        for (Lit l : c.lits)
          mapped.push_back(Lit::make(result.var_map[l.var()], l.sign()));
        result.cnf.add_clause(mapped);
      }
      for (Lit l : pending_units_)
        result.cnf.add_unit(Lit::make(result.var_map[l.var()], l.sign()));
    } else {
      for (std::uint32_t v = 0; v < num_vars_; ++v) {
        result.var_map[v] = v;
        result.inverse_map.push_back(v);
      }
      result.cnf.add_vars(num_vars_);
      // Fixed variables come back as unit clauses so that a model of the
      // output directly assigns them.
      for (std::uint32_t v = 0; v < num_vars_; ++v)
        if (assign_[v] != -1)
          result.cnf.add_unit(Lit::make(v, assign_[v] == 0));
      for (const WorkClause& c : clauses_)
        if (c.alive) result.cnf.add_clause(c.lits);
      for (Lit l : pending_units_) result.cnf.add_unit(l);
    }
    stats_.seconds = watch_.seconds();
    result.stats = stats_;
    return result;
  }

  SimplifyParams params_;
  std::uint32_t num_vars_;
  SimplifyStats stats_;
  bool unsat_ = false;
  bool exhausted_ = false;
  bool tracing_ = false;        // params_.proof set and run() has started
  std::vector<Lit> proof_old_;  // pre-rewrite snapshot for add/delete pairs
  Stopwatch watch_;
  std::uint64_t clock_ticks_ = 0;
  std::vector<int> assign_;  // -1 unknown, 0 false, 1 true
  std::vector<WorkClause> clauses_;
  std::vector<OccList> occ_;  // by literal
  std::vector<Lit> pending_units_;
  std::vector<SimplifyResult::Reconstruction> stack_;
  // Worklists.
  std::vector<std::uint8_t> touched_flag_;
  std::vector<std::uint32_t> touched_;
  std::vector<std::uint32_t> round_vars_;
  std::vector<std::uint32_t> sub_queue_;
  std::vector<std::uint8_t> in_sub_queue_;
  std::vector<std::uint32_t> scratch_;
  // Probing scratch (stamp-versioned so probes never pay an O(vars) reset).
  std::uint32_t probe_stamp_ = 0;
  std::vector<std::uint32_t> probe_mark_;
  std::vector<std::uint8_t> probe_val_;
  std::vector<Lit> probe_trail_;
  std::vector<std::pair<std::uint32_t, bool>> pos_implied_;
  std::vector<std::pair<std::uint32_t, Lit>> equivs_;
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
      case Reconstruction::Kind::kEquivalent:
        full[it->var] = full[it->binding.var()] != it->binding.sign();
        break;
      case Reconstruction::Kind::kEliminated: {
        bool value = false;
        bool forced = false;
        for (const auto& clause : it->clauses) {
          bool satisfied_without_v = false;
          Lit v_lit = Lit::make(it->var, false);
          for (Lit l : clause) {
            if (l.var() == it->var) {
              v_lit = l;
              continue;
            }
            if (full[l.var()] != l.sign()) {
              satisfied_without_v = true;
              break;
            }
          }
          if (!satisfied_without_v) {
            const bool needed = !v_lit.sign();
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
