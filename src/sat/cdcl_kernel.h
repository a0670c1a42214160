#ifndef CSAT_SAT_CDCL_KERNEL_H
#define CSAT_SAT_CDCL_KERNEL_H

/// \file cdcl_kernel.h
/// The CDCL kernel shared by the CNF solver (sat/solver.h) and the
/// circuit-native solver (sat/circuit_solver.h).
///
/// CdclKernel<Derived, StatsT> is a CRTP base: every hook it calls
/// on the solver built on it is resolved at compile time, so the hot loops
/// make no virtual call. It owns
///  * the assignment: literal values, per-variable level / reason / saved
///    phase / activity, the trail with its decision-level boundaries, and
///    the binary and long-clause propagation heads;
///  * the clause store: clauses of >= 3 literals in a ClauseArena (learnt
///    ones also listed in learnt_refs_), their watchers in a flat
///    FlatLists<Watcher> slab arena, and binary clauses as bare implied
///    literals in a FlatLists<Lit> — plus learnt attach (activity, glue
///    protection), the binary drain, the one long-clause watch walk
///    (blocker skip, replacement search, slab prefetch), reduce_db() with
///    blocker-sorted watcher compaction, mark-compact collect_garbage() and
///    the watch-invariant checker;
///  * conflict analysis: first-UIP resolution over a reason accessor,
///    recursive abstraction-guarded minimization, LBD, and variable/clause
///    bumping with rescale hooks;
///  * checkpoints: the Limits budgets (terminate flag, conflicts, decisions,
///    wall clock, soft/hard memory caps) and the Luby restart and
///    reduction schedules.
///
/// Each solver keeps only its propagator and decision policy: Solver adds
/// chronological backtracking, EMA restarts, vivification, clause sharing,
/// DRAT emission and the VSIDS heap; CircuitSolver adds gate evaluation,
/// the justification frontier, the goal clause and finish_sat.
///
/// Hooks called on Derived (which befriends the kernel):
///  * required: backtrack(level) and memory_bytes();
///  * implicit clauses (Derived::kImplicitClauses == true):
///    implicit_reason(p, r) materializes the reason clause of true literal
///    p with p first; implicit_conflict(confl) the conflict clause. Reason
///    and conflict crefs in [kImplicitTagBase, kClauseRefBinary) belong to
///    the derived solver (CircuitSolver tags its gate clauses C1/C2/C3);
///  * optional, no-op by default: on_var_bumped(v) (Solver: heap-up) and
///    on_activity_rescale(factor) (CircuitSolver: frontier snapshots).
///
/// Limits semantics (both solvers): every budget counts from the start of
/// the solve() call it is passed to. A kUnknown exit backtracks to level 0
/// and keeps the clause database, stats, restart and reduction schedules,
/// so a later solve() resumes the search and makes up to its own budget of
/// further progress.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <span>
#include <vector>

#include "cnf/cnf.h"
#include "common/check.h"
#include "common/luby.h"
#include "common/stopwatch.h"
#include "sat/arena.h"
#include "sat/proof.h"
#include "sat/watch.h"

namespace csat::sat {

using cnf::Lit;

/// Per-solve() search budget; defaults mean "unlimited". Every budget counts
/// from the start of the solve() call it is passed to (max_conflicts = 50
/// allows 50 more conflicts, however many earlier calls made). Budgets are
/// checked at conflict/decision checkpoints, so overshoot is bounded by one
/// propagation round. Exhaustion yields Status::kUnknown with the solver
/// state intact — a later solve() resumes where the search left off.
struct Limits {
  std::uint64_t max_conflicts = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_decisions = std::numeric_limits<std::uint64_t>::max();
  double max_seconds = std::numeric_limits<double>::infinity();  ///< wall-clock
  /// External cancellation (portfolio first-finisher-wins, server deadline
  /// watchdog): when non-null and set, solve() backtracks to level 0 and
  /// returns Status::kUnknown at the next checkpoint. The solver only reads
  /// through this pointer; the clause database and stats stay valid and a
  /// later solve() may resume.
  const std::atomic<bool>* terminate = nullptr;
  /// Memory budgets over the solver's memory_bytes() (0 = unlimited),
  /// sampled on a 64-conflict cadence plus once at solve() entry. Crossing
  /// the soft cap forces a reduce_db() pass (at most one per 512 conflicts,
  /// so a footprint that will not shrink cannot thrash); crossing the hard
  /// cap stops the search with Status::kUnknown and memout_stops
  /// incremented — instead of dying inside operator new. The solver stays
  /// valid and reusable.
  std::uint64_t soft_memory_bytes = 0;
  std::uint64_t hard_memory_bytes = 0;
};

/// Tunable CDCL heuristics. A plain value object: cheap to copy, no
/// ownership; each solver keeps its own copy at construction. Both solvers
/// take it: the kernel reads the decay, reduction and Luby fields, and
/// CircuitSolver also reads seed. The rest (EMA restarts, random decisions,
/// default phase, chrono and vivification cadence) is CNF-solver-only — the
/// circuit arm keeps Luby restarts and skips chrono/vivification because
/// its gate clauses are implicit (nothing to vivify) and the frontier
/// bookkeeping assumes in-order trails.
struct SolverConfig {
  enum class Restarts { kLuby, kEma };

  Restarts restarts = Restarts::kLuby;
  /// Luby: restart after luby(i) * luby_unit conflicts.
  std::uint32_t luby_unit = 64;

  double var_decay = 0.95;
  bool default_phase = false;  // initial polarity when no saved phase
  /// Probability of a random decision (diversification; 0 disables).
  double random_decision_freq = 0.0;

  /// Learnt-DB reduction: first reduction after reduce_first conflicts,
  /// subsequent intervals grow by reduce_increment.
  std::uint64_t reduce_first = 2000;
  std::uint64_t reduce_increment = 300;

  std::uint64_t seed = 91648253;

  /// --- inprocessing cadence (see sat/solver.h for semantics) ---
  /// Backjumps deeper than this many levels below the conflict level are
  /// truncated to a single-level backtrack (CaDiCaL's chronolevelim). The
  /// default is deliberately above this suite's trail depths: measured on
  /// bench/sat_micro, truncation that actually fires costs conflicts on
  /// these shallow searches (see ROADMAP), so the default reserves it for
  /// the deep-trail instances it was designed for while the restart-side
  /// trail reuse carries the wins here.
  std::uint32_t chrono_threshold = 500;
  /// Conflicts between vivification passes.
  std::uint64_t vivify_interval = 3000;
  /// Per-pass propagation budget, as a permille share of the propagations
  /// performed since the previous pass (floor 2000), so vivification effort
  /// scales with search effort instead of dominating small solves.
  std::uint32_t vivify_effort_permille = 50;

  /// Stand-in for Kissat 4.0: aggressive EMA restarts, fast variable decay.
  static SolverConfig kissat_like() {
    SolverConfig c;
    c.restarts = Restarts::kEma;
    c.var_decay = 0.95;
    c.reduce_first = 2000;
    return c;
  }

  /// Stand-in for CaDiCaL 2.0: Luby restarts, slower decay, larger DB.
  static SolverConfig cadical_like() {
    SolverConfig c;
    c.restarts = Restarts::kLuby;
    c.luby_unit = 100;
    c.var_decay = 0.99;
    c.reduce_first = 4000;
    c.reduce_increment = 600;
    return c;
  }
};

template <typename Derived, typename StatsT>
class CdclKernel {
 protected:
  static constexpr std::uint8_t kFalse = 0;
  static constexpr std::uint8_t kTrue = 1;
  static constexpr std::uint8_t kUnknown = 2;
  static constexpr Lit kLitUndef{0xFFFFFFFFu};
  /// Reason/conflict crefs at or above this value (and below
  /// kClauseRefBinary) tag a derived solver's implicit clauses. Arena refs
  /// are word offsets and stay far below it.
  static constexpr ClauseRef kImplicitTagBase = 0xFFFFFFF0u;
  /// Default for Derived::kImplicitClauses (hidden by CircuitSolver).
  static constexpr bool kImplicitClauses = false;
  /// Learnt clauses with LBD <= kGlueKeep are never deleted.
  static constexpr std::uint32_t kGlueKeep = 2;
  /// Per-conflict clause-activity decay.
  static constexpr double kClauseDecay = 0.999;

  /// Why a variable is assigned: nothing (decision or root unit), an arena
  /// clause, an inline binary clause (aux = the other, false literal), or a
  /// derived solver's implicit clause (aux = its payload, e.g. a gate id).
  struct Reason {
    ClauseRef cref = kClauseRefUndef;
    std::uint32_t aux = 0;

    static Reason none() { return {}; }
    static Reason clause(ClauseRef c) { return {c, 0}; }
    static Reason binary(Lit other) { return {kClauseRefBinary, other.x}; }
    static Reason implicit(ClauseRef tag, std::uint32_t payload) {
      return {tag, payload};
    }
    [[nodiscard]] Lit other() const { return Lit(aux); }
    [[nodiscard]] bool is_none() const { return cref == kClauseRefUndef; }
    [[nodiscard]] bool is_binary() const { return cref == kClauseRefBinary; }
    [[nodiscard]] bool is_clause() const { return cref < kImplicitTagBase; }
    [[nodiscard]] bool is_implicit() const {
      return cref >= kImplicitTagBase && cref < kClauseRefBinary;
    }
  };

  /// Conflict found by propagation: an arena clause, an inline binary
  /// clause (both literals false, carried by value), an implicit clause
  /// (a carries the derived payload), or none.
  struct Conflict {
    ClauseRef cref = kClauseRefUndef;
    Lit a{};
    Lit b{};

    [[nodiscard]] bool is_none() const { return cref == kClauseRefUndef; }
    [[nodiscard]] bool is_binary() const { return cref == kClauseRefBinary; }
  };

  /// Long-clause watcher: blocker is some literal of the clause, so visits
  /// where it is already true skip the arena entirely.
  struct Watcher {
    ClauseRef cref;
    Lit blocker;
  };

  /// One solve() call's view of its Limits (see the file comment).
  struct Budget {
    const Limits* limits = nullptr;
    Stopwatch watch;
    std::uint64_t conflict_limit = 0;  ///< absolute stats_.conflicts bound
    std::uint64_t decision_limit = 0;  ///< absolute stats_.decisions bound
    std::uint64_t next_mem_check = 0;
    std::uint64_t soft_reduce_at = 0;
  };

  explicit CdclKernel(const SolverConfig& config) : config_(config) {}

  Derived& self() { return static_cast<Derived&>(*this); }

  // --- assignment ------------------------------------------------------------

  /// Literal-indexed truth lookup: one byte load, no sign arithmetic — the
  /// single hottest read of propagation (the blocker test).
  [[nodiscard]] std::uint8_t value(Lit l) const { return value_[l.x]; }
  [[nodiscard]] std::uint8_t var_value(std::uint32_t v) const {
    return value_[v << 1];
  }
  [[nodiscard]] std::uint32_t decision_level() const {
    return static_cast<std::uint32_t>(trail_lim_.size());
  }

  /// Declares the next variable with saved phase \p phase. After a reset()
  /// the watch headers keep their high-water size, so re-adding variables
  /// reuses the grown buffers.
  void add_var(std::uint8_t phase) {
    value_.push_back(kUnknown);  // positive literal
    value_.push_back(kUnknown);  // negative literal
    phase_.push_back(phase);
    level_.push_back(0);
    reason_.push_back(Reason::none());
    activity_.push_back(0.0);
    seen_.push_back(0);
    watch_.ensure_lists(value_.size());
    bin_watch_.ensure_lists(value_.size());
  }

  /// Assigns \p l true at an explicit trail level. A level below the
  /// current decision level (Solver's chronological backtracking) marks
  /// the trail out of order until the next backtrack to level 0.
  void enqueue_at(Lit l, Reason reason, std::uint32_t lev) {
    CSAT_DCHECK(value(l) == kUnknown);
    CSAT_DCHECK(lev <= decision_level());
    value_[l.x] = kTrue;
    value_[(!l).x] = kFalse;
    level_[l.var()] = lev;
    reason_[l.var()] = reason;
    if (lev < decision_level()) chrono_dirty_ = true;
    trail_.push_back(l);
  }
  void enqueue(Lit l, Reason reason) {
    enqueue_at(l, reason, decision_level());
  }

  /// Opens a new decision level and assigns \p l as its decision.
  void decide(Lit l) {
    ++stats_.decisions;
    trail_lim_.push_back(static_cast<std::uint32_t>(trail_.size()));
    stats_.max_decision_level =
        std::max<std::uint64_t>(stats_.max_decision_level, decision_level());
    enqueue(l, Reason::none());
  }

  // --- propagation -----------------------------------------------------------

  /// Binary clauses to fixpoint: each list entry *is* the implied literal,
  /// so the pass runs on dense Lit slabs with no arena access, and any
  /// binary conflict surfaces before a long clause is inspected.
  /// stats_.propagations counts literals at this (leading) head.
  Conflict drain_binaries() {
    while (bin_qhead_ < trail_.size()) {
      const Lit p = trail_[bin_qhead_++];
      ++stats_.propagations;
      const typename FlatLists<Lit>::Head bh = bin_watch_.head(p.x);
      const Lit* bl = bin_watch_.data() + bh.offset;
      for (std::uint32_t k = 0; k < bh.size; ++k) {
        const Lit other = bl[k];
        const std::uint8_t v = value(other);
        if (v == kTrue) continue;
        if (v == kFalse) {
          bin_qhead_ = trail_.size();
          qhead_ = trail_.size();
          return {kClauseRefBinary, other, !p};
        }
        ++stats_.binary_props;
        enqueue(other, Reason::binary(!p));
      }
    }
    return {};
  }

  /// Walks the long-clause watchers of the literal at qhead_ (which the
  /// caller checked exists): blocker skip, replacement-watch search, unit
  /// propagation, conflict. On conflict both heads park at the trail end.
  Conflict propagate_long() {
    const Lit p = trail_[qhead_++];
    // The next literal's watcher slab is the guaranteed next read: get its
    // first line in flight while this literal is processed.
    if (qhead_ < trail_.size())
      CSAT_PREFETCH(watch_.data() + watch_.head(trail_[qhead_].x).offset);
    const Lit not_p = !p;
    // Cache offset/size and re-derive the base pointer after any push:
    // migrating a watcher to another list can reallocate the buffer, but
    // never moves *this* list's slab (the new watch literal is distinct
    // from !p, which sits in watch position 1 by then).
    const std::uint32_t off = watch_.head(p.x).offset;
    const std::uint32_t n = watch_.head(p.x).size;
    Watcher* ws = watch_.data() + off;
    Conflict confl;
    std::uint32_t keep = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      const Watcher w = ws[i];
      if (value(w.blocker) == kTrue) {
        ws[keep++] = w;
        continue;
      }
      // Deliberately no prefetch of the next watcher's clause header here:
      // most visits end at the blocker test above without touching clause
      // memory, and prefetching every header defeats that (measured -10-20%
      // on the adder/pigeonhole families).
      ClauseArena::Clause c = arena_[w.cref];
      // Normalize so the false literal (~p) sits at position 1.
      if (c[0] == not_p) std::swap(c[0], c[1]);
      CSAT_DCHECK(c[1] == not_p);
      const Lit first = c[0];
      if (first != w.blocker && value(first) == kTrue) {
        ws[keep++] = {w.cref, first};
        continue;
      }
      // Search for a replacement watch.
      bool moved = false;
      const std::uint32_t size = c.size();
      for (std::uint32_t k = 2; k < size; ++k) {
        if (value(c[k]) != kFalse) {
          std::swap(c[1], c[k]);
          watch_.push((!c[1]).x, {w.cref, first});
          ws = watch_.data() + off;  // push may reallocate the buffer
          moved = true;
          break;
        }
      }
      if (moved) continue;  // watcher migrated; drop from this list
      // Clause is unit or conflicting.
      ws[keep++] = {w.cref, first};
      if (value(first) == kFalse) {
        confl.cref = w.cref;
        qhead_ = trail_.size();
        bin_qhead_ = trail_.size();
        // Preserve the remaining watchers before aborting the scan.
        for (++i; i < n; ++i) ws[keep++] = ws[i];
        break;
      }
      enqueue(first, Reason::clause(w.cref));
    }
    watch_.set_size(p.x, keep);
    return confl;
  }

  // --- clause store ----------------------------------------------------------

  /// Attaches a clause (>= 2 literals, lits[0] and lits[1] watched):
  /// binaries go straight into the binary lists (no arena storage, so they
  /// are never deleted), longer clauses into the arena. Learnt clauses get
  /// the current bump as activity and, at LBD <= kGlueKeep, the protected
  /// tier. Returns the reason to use when enqueuing lits[0].
  Reason attach_clause(std::span<const Lit> lits, bool learnt,
                       std::uint32_t lbd) {
    CSAT_DCHECK(lits.size() >= 2);
    if (learnt) ++stats_.learned;
    if (lits.size() == 2) {
      attach_binary(lits[0], lits[1]);
      return Reason::binary(lits[1]);
    }
    const ClauseRef cref = arena_.alloc(lits, learnt, lbd);
    if (learnt) {
      ClauseArena::Clause c = arena_[cref];
      c.set_activity(static_cast<float>(clause_inc_));
      if (lbd <= kGlueKeep) c.set_protect();
      learnt_refs_.push_back(cref);
    }
    watch_.push((!lits[0]).x, {cref, lits[1]});
    watch_.push((!lits[1]).x, {cref, lits[0]});
    return Reason::clause(cref);
  }

  /// Attaches binary clause {a, b} in both directions.
  void attach_binary(Lit a, Lit b) {
    bin_watch_.push((!a).x, b);
    bin_watch_.push((!b).x, a);
  }

  /// Removes the watcher of \p cref from the list of \p key (the negation
  /// of the watched literal), preserving the order of the rest: watch-list
  /// order is part of solver determinism.
  void watch_remove(Lit key, ClauseRef cref) {
    const auto ws = watch_[key.x];
    for (std::size_t i = 0; i < ws.size(); ++i) {
      if (ws[i].cref == cref) {
        for (std::size_t m = i + 1; m < ws.size(); ++m) ws[m - 1] = ws[m];
        watch_.set_size(key.x, static_cast<std::uint32_t>(ws.size() - 1));
        return;
      }
    }
    CSAT_DCHECK(false);  // the clause was not watched on !key
  }

  /// Removes both watchers of an arena clause.
  void detach_clause(ClauseRef cref) {
    ClauseArena::Clause c = arena_[cref];
    watch_remove(!c[0], cref);
    watch_remove(!c[1], cref);
  }

  /// Whether the clause is the reason of its first literal's assignment —
  /// reduce_db() (and Solver's vivification) must leave such clauses alone.
  [[nodiscard]] bool reason_locked(ClauseRef cref) {
    const Lit first = arena_[cref][0];
    const Reason r = reason_[first.var()];
    return value(first) == kTrue && r.is_clause() && r.cref == cref;
  }

  /// Records the clause learned from a conflict and asserts its first
  /// literal: a unit at level 0, otherwise attached as learnt and enqueued
  /// at \p level (its asserting level; below the decision level only under
  /// Solver's chronological backtracking).
  void learn(std::span<const Lit> learnt, std::uint32_t lbd,
             std::uint32_t level) {
    stats_.learnt_literals += learnt.size();
    proof_add(learnt);  // first-UIP clause: RUP by construction
    if (learnt.size() == 1) {
      enqueue_at(learnt[0], Reason::none(), 0);
    } else {
      enqueue_at(learnt[0], attach_clause(learnt, /*learnt=*/true, lbd), level);
    }
  }

  /// Learnt-DB reduction: marks the worse half of the deletable learnt
  /// clauses garbage (high LBD first, low activity as tie-break; protected
  /// glue and reason-locked clauses survive), purges their watchers, runs a
  /// mark-compact collection once a quarter of the arena is dead, and
  /// defragments the watcher arenas on the same trigger.
  void reduce_db() {
    ++stats_.reductions;
    // learnt_refs_ holds no garbage on entry: marked clauses are erased
    // below in the same cycle.
    std::vector<ClauseRef> deletable;
    for (ClauseRef cr : learnt_refs_) {
      ClauseArena::Clause c = arena_[cr];
      if (c.protect() || reason_locked(cr)) continue;
      deletable.push_back(cr);
    }
    std::sort(deletable.begin(), deletable.end(),
              [&](ClauseRef a, ClauseRef b) {
                ClauseArena::Clause ca = arena_[a];
                ClauseArena::Clause cb = arena_[b];
                if (ca.lbd() != cb.lbd()) return ca.lbd() > cb.lbd();
                return ca.activity() < cb.activity();
              });
    const std::size_t to_remove = deletable.size() / 2;
    for (std::size_t i = 0; i < to_remove; ++i) {
      // Proof deletion at mark time: the literals are intact until the
      // next compaction, and advisory delete lines keep checker state small.
      proof_delete(arena_[deletable[i]].lits());
      arena_.mark_garbage(deletable[i]);
      ++stats_.removed;
    }
    if (to_remove > 0) {
      purge_garbage_watchers();
      std::erase_if(learnt_refs_,
                    [&](ClauseRef cr) { return arena_[cr].garbage(); });
    }
    // Mark-compact once a quarter of the arena is dead: amortizes the copy
    // against the fragmentation BCP would otherwise walk over.
    if (arena_.garbage_words() > 0 &&
        arena_.garbage_words() * 4 >= arena_.size_words()) {
      collect_garbage();
    }
    // Slabs abandoned by growth relocation are the watcher-side analogue
    // of garbage clause words: same quarter-dead trigger. The long lists
    // are repacked blocker-live first, so the next descent reads the
    // watchers BCP skips without a clause visit as one sequential run.
    if (watch_.dead_slots() > 0 &&
        watch_.dead_slots() * 4 >= watch_.total_slots()) {
      watch_.compact(
          [this](const Watcher& w) { return value(w.blocker) == kTrue; });
    }
    if (bin_watch_.dead_slots() > 0 &&
        bin_watch_.dead_slots() * 4 >= bin_watch_.total_slots()) {
      bin_watch_.compact();
    }
  }

  /// Runs reduce_db() when the conflict count reaches the schedule: first
  /// after reduce_first conflicts, then at intervals growing by
  /// reduce_increment.
  void reduce_on_schedule() {
    if (stats_.conflicts < reduce_budget_) return;
    reduce_db();
    ++reduce_count_;
    reduce_budget_ = stats_.conflicts + config_.reduce_first +
                     config_.reduce_increment * reduce_count_;
  }

  /// Single sweep over every long watch list instead of per-clause detach:
  /// a reduction round deletes thousands of clauses, so one O(watchers)
  /// pass beats O(deleted * list length) searches.
  void purge_garbage_watchers() {
    const std::size_t n = watch_.num_lists();
    for (std::size_t i = 0; i < n; ++i) {
      const auto ws = watch_[i];
      std::uint32_t keep = 0;
      for (const Watcher& w : ws)
        if (!arena_[w.cref].garbage()) ws[keep++] = w;
      watch_.set_size(i, keep);
    }
  }

  /// Mark-compact GC: relocates live clauses and remaps every watcher,
  /// trail reason and learnt reference — the only places a ClauseRef is
  /// kept. Reason clauses are protected from deletion, so forwarding is
  /// always defined for them.
  void collect_garbage() {
    ++stats_.arena_gcs;
    arena_.compact();
    // Each list's live span only: dead slabs hold stale crefs for which
    // forwarding is undefined. Reasons matter only for assigned variables,
    // i.e. exactly the trail.
    const std::size_t n = watch_.num_lists();
    for (std::size_t i = 0; i < n; ++i)
      for (Watcher& w : watch_[i]) w.cref = arena_.forwarded(w.cref);
    for (const Lit l : trail_) {
      Reason& r = reason_[l.var()];
      if (r.is_clause()) r.cref = arena_.forwarded(r.cref);
    }
    for (ClauseRef& cr : learnt_refs_) cr = arena_.forwarded(cr);
    arena_.compact_release();
  }

  // --- conflict analysis -----------------------------------------------------

  /// First-UIP analysis of \p confl at the current decision level: fills
  /// \p learnt (asserting literal first, then the literal of the highest
  /// remaining level), its backjump level and LBD. Bumps every variable and
  /// learnt clause it resolves on.
  void analyze(const Conflict& confl, std::vector<Lit>& learnt,
               std::uint32_t& bt_level, std::uint32_t& lbd) {
    learnt.clear();
    learnt.push_back(kLitUndef);  // slot for the asserting literal
    std::uint32_t counter = 0;
    Lit p = kLitUndef;
    std::size_t index = trail_.size();
    // Binary clauses under resolution are carried by value in bin[].
    Lit bin[2] = {confl.a, confl.b};
    std::span<const Lit> clits = conflict_clause(confl, bin);
    for (;;) {
      const std::size_t start = (p == kLitUndef) ? 0 : 1;
      for (std::size_t j = start; j < clits.size(); ++j) {
        const Lit q = clits[j];
        const std::uint32_t v = q.var();
        if (seen_[v] || level_[v] == 0) continue;
        seen_[v] = 1;
        bump_var(v);
        if (level_[v] >= decision_level())
          ++counter;
        else
          learnt.push_back(q);
      }
      // Walk the trail back to the next marked literal of the current
      // level. The level check matters under chrono: literals marked at
      // *lower* levels can sit above current-level ones in the trail when
      // assignments are out of order, and must be stepped over.
      for (;;) {
        const std::uint32_t v = trail_[--index].var();
        if (seen_[v] && level_[v] >= decision_level()) break;
      }
      p = trail_[index];
      seen_[p.var()] = 0;
      if (--counter == 0) break;  // p is the first UIP
      clits = reason_clause(p, reason_[p.var()], bin);
    }
    learnt[0] = !p;

    // Conflict-clause minimization (recursive, abstraction-guarded).
    analyze_clear_.assign(learnt.begin() + 1, learnt.end());
    std::uint32_t abstract_levels = 0;
    for (std::size_t i = 1; i < learnt.size(); ++i)
      abstract_levels |= 1u << (level_[learnt[i].var()] & 31);
    std::size_t out = 1;
    for (std::size_t i = 1; i < learnt.size(); ++i) {
      const Lit l = learnt[i];
      if (reason_[l.var()].is_none() || !lit_redundant(l, abstract_levels))
        learnt[out++] = l;
      else
        ++stats_.minimized_lits;
    }
    learnt.resize(out);
    for (Lit l : analyze_clear_) seen_[l.var()] = 0;

    // Backjump level; the second watch goes on its literal.
    if (learnt.size() == 1) {
      bt_level = 0;
    } else {
      std::size_t max_i = 1;
      for (std::size_t i = 2; i < learnt.size(); ++i)
        if (level_[learnt[i].var()] > level_[learnt[max_i].var()]) max_i = i;
      std::swap(learnt[1], learnt[max_i]);
      bt_level = level_[learnt[1].var()];
    }
    lbd = compute_lbd(learnt);
  }

  /// Literals of the conflict clause; bumps it when it is a learnt clause.
  std::span<const Lit> conflict_clause(const Conflict& confl, Lit (&bin)[2]) {
    if (confl.is_binary()) return {bin, 2};
    if constexpr (Derived::kImplicitClauses) {
      if (confl.cref >= kImplicitTagBase)
        return self().implicit_conflict(confl);
    }
    CSAT_DCHECK(confl.cref != kClauseRefUndef);
    return arena_clause_bumped(confl.cref);
  }

  /// Reason clause of true literal \p p, with \p p first; bumps it when it
  /// is a learnt clause.
  std::span<const Lit> reason_clause(Lit p, Reason r, Lit (&bin)[2]) {
    if (r.is_binary()) {
      bin[0] = p;
      bin[1] = r.other();
      return {bin, 2};
    }
    if constexpr (Derived::kImplicitClauses) {
      if (r.is_implicit()) return self().implicit_reason(p, r);
    }
    CSAT_DCHECK(r.is_clause());
    return arena_clause_bumped(r.cref);
  }

  std::span<const Lit> arena_clause_bumped(ClauseRef cref) {
    ClauseArena::Clause c = arena_[cref];
    if (c.learnt()) bump_clause(c);
    return c.lits();
  }

  /// Whether learnt-clause literal \p lit is implied by the other literals
  /// of the clause (through reasons whose levels all occur in the clause,
  /// per \p abstract_levels). Marks what it proves in seen_ and records it
  /// in analyze_clear_; a failed proof rolls its own marks back.
  [[nodiscard]] bool lit_redundant(Lit lit, std::uint32_t abstract_levels) {
    analyze_stack_.clear();
    analyze_stack_.push_back(lit);
    const std::size_t top = analyze_clear_.size();
    while (!analyze_stack_.empty()) {
      const Lit q = analyze_stack_.back();
      analyze_stack_.pop_back();
      const Reason r = reason_[q.var()];
      CSAT_DCHECK(!r.is_none());
      // Antecedent literals of q's reason, excluding the implied !q itself.
      Lit bin[1];
      std::span<const Lit> rest;
      if (r.is_binary()) {
        bin[0] = r.other();
        rest = std::span<const Lit>(bin, 1);
      } else if (r.is_clause()) {
        rest = arena_[r.cref].lits().subspan(1);
      } else {
        if constexpr (Derived::kImplicitClauses)
          rest = self().implicit_reason(!q, r).subspan(1);
      }
      for (const Lit l : rest) {
        const std::uint32_t v = l.var();
        if (seen_[v] || level_[v] == 0) continue;
        if (!reason_[v].is_none() &&
            ((1u << (level_[v] & 31)) & abstract_levels) != 0) {
          seen_[v] = 1;
          analyze_stack_.push_back(l);
          analyze_clear_.push_back(l);
        } else {
          for (std::size_t k = top; k < analyze_clear_.size(); ++k)
            seen_[analyze_clear_[k].var()] = 0;
          analyze_clear_.resize(top);
          return false;
        }
      }
    }
    return true;
  }

  /// Literal-block distance: distinct non-root decision levels in \p lits,
  /// counted with a generation-stamped per-level table.
  [[nodiscard]] std::uint32_t compute_lbd(std::span<const Lit> lits) {
    if (lbd_stamp_.size() <= decision_level() + 1)
      lbd_stamp_.resize(decision_level() + 2, 0);
    if (++lbd_gen_ == 0) {  // generation wrap: invalidate every stamp
      std::fill(lbd_stamp_.begin(), lbd_stamp_.end(), 0u);
      lbd_gen_ = 1;
    }
    std::uint32_t lbd = 0;
    for (const Lit l : lits) {
      const std::uint32_t lev = level_[l.var()];
      if (lev > 0 && lbd_stamp_[lev] != lbd_gen_) {
        lbd_stamp_[lev] = lbd_gen_;
        ++lbd;
      }
    }
    return lbd;
  }

  void bump_var(std::uint32_t v) {
    activity_[v] += var_inc_;
    if (activity_[v] > 1e100) {
      for (double& a : activity_) a *= 1e-100;
      var_inc_ *= 1e-100;
      self().on_activity_rescale(1e-100);
    }
    self().on_var_bumped(v);
  }
  void on_var_bumped(std::uint32_t) {}
  void on_activity_rescale(double) {}

  void bump_clause(ClauseArena::Clause c) {
    c.set_activity(c.activity() + static_cast<float>(clause_inc_));
    if (c.activity() > 1e20f) {
      for (ClauseRef cr : learnt_refs_) {
        ClauseArena::Clause lc = arena_[cr];
        if (!lc.garbage()) lc.set_activity(lc.activity() * 1e-20f);
      }
      clause_inc_ *= 1e-20;
    }
  }

  void decay_activities() {
    var_inc_ /= config_.var_decay;
    clause_inc_ /= kClauseDecay;
  }

  // --- checkpoints -----------------------------------------------------------

  /// Opens one solve() call's budget. The first call since construction or
  /// reset() also starts the Luby and reduction schedules; later calls
  /// resume them.
  Budget begin_solve(const Limits& limits) {
    constexpr auto kNone = std::numeric_limits<std::uint64_t>::max();
    Budget b;
    b.limits = &limits;
    b.conflict_limit = limits.max_conflicts >= kNone - stats_.conflicts
                           ? kNone
                           : stats_.conflicts + limits.max_conflicts;
    b.decision_limit = limits.max_decisions >= kNone - stats_.decisions
                           ? kNone
                           : stats_.decisions + limits.max_decisions;
    b.next_mem_check = stats_.conflicts;
    if (luby_index_ == 0) {
      luby_budget_ = luby(++luby_index_) * config_.luby_unit;
      reduce_budget_ = config_.reduce_first;
    }
    return b;
  }

  /// Checked every search iteration (conflicts included, so portfolio
  /// losers stop promptly inside long conflict bursts): the terminate flag,
  /// then the memory caps. memory_bytes() is sampled every 64 conflicts plus
  /// once at entry, so a hard cap below the instance's own footprint
  /// returns memout immediately rather than never; soft-cap reductions are
  /// spaced 512 conflicts apart — a footprint reduce_db() cannot shrink
  /// (protected/locked clauses, watch-list high water) must not retrigger a
  /// full reduction every conflict.
  [[nodiscard]] bool interrupted(Budget& b) {
    const Limits& limits = *b.limits;
    if (limits.terminate != nullptr &&
        limits.terminate->load(std::memory_order_relaxed))
      return true;
    if (limits.soft_memory_bytes == 0 && limits.hard_memory_bytes == 0)
      return false;
    if (stats_.conflicts < b.next_mem_check) return false;
    b.next_mem_check = stats_.conflicts + 64;
    std::uint64_t bytes = self().memory_bytes();
    if (limits.soft_memory_bytes != 0 && bytes > limits.soft_memory_bytes &&
        stats_.conflicts >= b.soft_reduce_at) {
      b.soft_reduce_at = stats_.conflicts + 512;
      reduce_db();
      ++stats_.memory_reductions;
      bytes = self().memory_bytes();
    }
    if (limits.hard_memory_bytes != 0 && bytes > limits.hard_memory_bytes) {
      ++stats_.memout_stops;
      return true;
    }
    return false;
  }

  /// Conflict, decision and wall-clock budgets, checked after each learnt
  /// clause is attached (so a conflict burst cannot sail past them and the
  /// state stays resumable) and before each restart/decision.
  [[nodiscard]] bool exhausted(const Budget& b) const {
    return stats_.conflicts >= b.conflict_limit ||
           stats_.decisions >= b.decision_limit ||
           (b.limits->max_seconds != std::numeric_limits<double>::infinity() &&
            b.watch.seconds() > b.limits->max_seconds);
  }

  /// Luby schedule: a restart is due after luby(i) * luby_unit conflicts.
  [[nodiscard]] bool luby_restart_due() const {
    return stats_.conflicts - conflicts_at_restart_ >= luby_budget_;
  }
  /// Starts the next restart interval.
  void next_restart_interval() {
    conflicts_at_restart_ = stats_.conflicts;
    luby_budget_ = luby(++luby_index_) * config_.luby_unit;
  }

  // --- proof hooks -----------------------------------------------------------

  void proof_add(std::span<const Lit> lits) {
    if (proof_ != nullptr) proof_->add(lits);
  }
  void proof_delete(std::span<const Lit> lits) {
    if (proof_ != nullptr) proof_->remove(lits);
  }

  // --- storage accounting and invariants -------------------------------------

  /// Heap footprint of the watch storage.
  [[nodiscard]] std::uint64_t watch_bytes() const {
    return watch_.bytes() + bin_watch_.bytes();
  }

  /// Heap footprint of the clause store and the per-variable kernel state.
  [[nodiscard]] std::uint64_t kernel_bytes() const {
    std::uint64_t total = arena_.bytes() + watch_bytes();
    total += value_.capacity() * sizeof(std::uint8_t);
    total += phase_.capacity() * sizeof(std::uint8_t);
    total += seen_.capacity() * sizeof(std::uint8_t);
    total += level_.capacity() * sizeof(std::uint32_t);
    total += trail_.capacity() * sizeof(Lit);
    total += reason_.capacity() * sizeof(Reason);
    total += activity_.capacity() * sizeof(double);
    total += learnt_refs_.capacity() * sizeof(ClauseRef);
    return total;
  }

  /// Debug walker (O(database)): every live arena clause is watched exactly
  /// once on each of its first two literals, every watcher references a
  /// live in-range clause and carries a blocker that is a literal of that
  /// clause, and the binary lists are mirror-symmetric (clause {a,b}
  /// appears in both (!a)'s and (!b)'s list). Reports each violation on
  /// stderr prefixed with \p who; returns false if there was any.
  [[nodiscard]] bool check_watches(const char* who) {
    bool ok = true;
    const auto fail = [&](const char* what, std::uint64_t a, std::uint64_t b) {
      std::fprintf(stderr, "%s: %s (%llu, %llu)\n", who, what,
                   static_cast<unsigned long long>(a),
                   static_cast<unsigned long long>(b));
      ok = false;
    };
    const std::size_t nlists = value_.size();

    std::vector<std::uint8_t> slot0(arena_.size_words(), 0);
    std::vector<std::uint8_t> slot1(arena_.size_words(), 0);
    for (std::size_t i = 0; i < watch_.num_lists() && i < nlists; ++i) {
      const Lit not_p = !Lit(static_cast<std::uint32_t>(i));
      for (const Watcher& w : watch_[i]) {
        if (w.cref + ClauseArena::kHeaderWords > arena_.size_words()) {
          fail("watcher cref out of range", i, w.cref);
          continue;
        }
        ClauseArena::Clause c = arena_[w.cref];
        if (c.garbage()) {
          fail("watcher references garbage clause", i, w.cref);
          continue;
        }
        if (c[0] == not_p) {
          if (++slot0[w.cref] > 1)
            fail("clause watched twice on lit 0", i, w.cref);
        } else if (c[1] == not_p) {
          if (++slot1[w.cref] > 1)
            fail("clause watched twice on lit 1", i, w.cref);
        } else {
          fail("list literal is not a watch of the clause", i, w.cref);
        }
        bool blocker_in_clause = false;
        for (const Lit l : c.lits()) blocker_in_clause |= l == w.blocker;
        if (!blocker_in_clause) fail("blocker not a clause literal", i, w.cref);
      }
    }
    arena_.for_each_clause([&](ClauseRef cref) {
      if (slot0[cref] != 1 || slot1[cref] != 1)
        fail("live clause not watched exactly twice", slot0[cref] + slot1[cref],
             cref);
    });

    // Every entry {list p, implied other} is clause {!p, other}; collect
    // each direction keyed by the canonical (sorted) literal pair.
    // Symmetric multisets <=> every clause is attached in both directions.
    std::vector<std::uint64_t> fwd;
    std::vector<std::uint64_t> rev;
    for (std::size_t i = 0; i < bin_watch_.num_lists() && i < nlists; ++i) {
      const Lit a = !Lit(static_cast<std::uint32_t>(i));
      for (const Lit other : bin_watch_[i]) {
        if (a == other) {
          fail("degenerate binary clause", a.x, 0);
          continue;
        }
        const std::uint64_t lo = std::min(a.x, other.x);
        const std::uint64_t hi = std::max(a.x, other.x);
        (a.x < other.x ? fwd : rev).push_back((lo << 32) | hi);
      }
    }
    std::sort(fwd.begin(), fwd.end());
    std::sort(rev.begin(), rev.end());
    if (fwd != rev)
      fail("binary lists are not mirror-symmetric", fwd.size(), rev.size());
    return ok;
  }

  /// Returns the kernel to its freshly-constructed state while keeping
  /// every buffer's heap allocation (the warm-reuse contract of the
  /// solvers' reset()). Config is kept; the proof sink is detached.
  void reset_kernel() {
    stats_ = StatsT{};
    ok_ = true;
    arena_.clear();
    learnt_refs_.clear();
    watch_.clear();
    bin_watch_.clear();
    value_.clear();
    phase_.clear();
    level_.clear();
    reason_.clear();
    trail_.clear();
    trail_lim_.clear();
    qhead_ = 0;
    bin_qhead_ = 0;
    activity_.clear();
    var_inc_ = 1.0;
    clause_inc_ = 1.0;
    seen_.clear();
    analyze_stack_.clear();
    analyze_clear_.clear();
    lbd_stamp_.clear();
    lbd_gen_ = 0;
    conflicts_at_restart_ = 0;
    luby_index_ = 0;
    luby_budget_ = 0;
    reduce_budget_ = 0;
    reduce_count_ = 0;
    chrono_dirty_ = false;
    proof_ = nullptr;
  }

  SolverConfig config_;
  StatsT stats_;
  bool ok_ = true;  ///< false: root-level UNSAT established

  // --- clause store ---
  ClauseArena arena_;                   ///< all clauses of >= 3 literals
  std::vector<ClauseRef> learnt_refs_;  ///< learnt arena subset for reduction
  /// Long-clause watchers and binary clauses (bare implied literals), both
  /// indexed by Lit.x of the falsified literal.
  FlatLists<Watcher> watch_;
  FlatLists<Lit> bin_watch_;

  // --- assignment ---
  std::vector<std::uint8_t> value_;   ///< per literal (indexed by Lit.x)
  std::vector<std::uint8_t> phase_;   ///< saved polarity per variable
  std::vector<std::uint32_t> level_;  ///< per variable
  std::vector<Reason> reason_;        ///< per variable
  std::vector<Lit> trail_;
  std::vector<std::uint32_t> trail_lim_;
  /// Long-clause head, and the binary head that leads it: every literal
  /// resolves its binary implications before any long-clause work.
  std::size_t qhead_ = 0;
  std::size_t bin_qhead_ = 0;
  /// True while the trail may hold out-of-order assignments (set by any
  /// below-decision-level enqueue; Solver clears it when a backtrack
  /// reaches level 0).
  bool chrono_dirty_ = false;

  // --- activities and analysis scratch ---
  std::vector<double> activity_;
  double var_inc_ = 1.0;
  double clause_inc_ = 1.0;
  std::vector<std::uint8_t> seen_;
  std::vector<Lit> analyze_stack_;
  std::vector<Lit> analyze_clear_;
  std::vector<std::uint32_t> lbd_stamp_;
  std::uint32_t lbd_gen_ = 0;

  // --- restart and reduction schedules ---
  std::uint64_t conflicts_at_restart_ = 0;
  std::uint64_t luby_index_ = 0;
  std::uint64_t luby_budget_ = 0;
  std::uint64_t reduce_budget_ = 0;
  std::uint64_t reduce_count_ = 0;

  /// DRAT sink (never owned; Solver::set_proof()).
  ProofTracer* proof_ = nullptr;
};

}  // namespace csat::sat

#endif  // CSAT_SAT_CDCL_KERNEL_H
