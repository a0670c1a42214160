#ifndef CSAT_SAT_SOLVER_H
#define CSAT_SAT_SOLVER_H

/// \file solver.h
/// Conflict-Driven Clause Learning SAT solver over CNF.
///
/// A CDCL solver in the MiniSat/CaDiCaL lineage, built on the CDCL kernel
/// it shares with the circuit-native solver (sat/cdcl_kernel.h): that
/// kernel supplies the clause store (flat clause arena, flat watcher arena
/// with blocker literals, dense binary lists propagated to fixpoint before
/// any long clause), first-UIP analysis with recursive minimization, LBD,
/// learnt-DB reduction with mark-compact GC, the Limits checkpoints and the
/// Luby schedule. This class adds what is CNF-specific: the EVSIDS decision
/// heap with phase saving, Glucose-EMA restarts as an alternative to Luby,
/// and the inprocessing, sharing and proof layers below.
///
/// Inprocessing (always on; SolverConfig sets only its cadence):
///  * Chronological backtracking: when first-UIP analysis asks for a
///    backjump more than chrono_threshold levels below the conflict level,
///    the solver backtracks only one level and keeps the intact trail
///    prefix instead of redoing its propagation. A restart likewise keeps
///    the trail prefix the restarted search would redo decision for
///    decision (van der Tak et al.) unless import or vivification is due.
///    Trail invariants: a literal's recorded level may be *lower* than the
///    decision level of the trail segment holding it (out-of-order
///    assignment — asserting literals are enqueued at their true asserting
///    level), every literal of level k still sits at or above the start of
///    segment k, and backtrack(target) keeps every literal with level <=
///    target, compacting survivors to the segment start and re-propagating
///    them. A conflict's true level can therefore sit below the decision
///    level; analysis first drops to it, and a conflict clause with a
///    single literal at that level is a missed lower-level propagation —
///    repaired by backtracking one more level and propagating that literal
///    out of order from the conflict clause (no clause is learned).
///  * Clause vivification: at restart boundaries, under a propagation
///    budget proportional to search effort, learnt clauses outside the
///    protected glue tier are re-propagated literal by literal and
///    strengthened or deleted in place in the arena (ClauseArena::shrink),
///    with LBD and the protected glue tier re-stamped.
///  * Clause-exchange import at every decision-level-0 propagation
///    fixpoint (not just restarts), plus per-worker adaptive glue export
///    thresholds driven by observed ring pressure, starting from
///    ClauseSharingOptions::max_lbd.
///
/// Inprocessing phase ordering at a restart boundary:
///   restart backtrack(0) -> import fixpoint (import_clauses) -> vivify
///   under budget (vivify_pass) -> resume search; reduce_db keeps its own
///   conflict-count cadence. Vivification and import both require (and
///   assert) decision level 0.
///
/// Memory model: clauses of >= 3 literals are packed header+literals in one
/// contiguous std::uint32_t arena and addressed by 32-bit ClauseRef
/// offsets. Binary clauses have no clause object at all — the watch-list
/// entry stores the other literal (the watcher *is* the clause), so binary
/// propagation never touches the arena, and reasons/conflicts carry a
/// binary tag plus that literal instead of a reference.
///
/// Two roles in the framework:
///  * the *evaluation solver* standing in for Kissat 4.0 / CaDiCaL 2.0
///    (SolverConfig::kissat_like() / cadical_like() presets — two modern
///    CDCL configurations for the paper's Fig. 4 panels), and
///  * the *reward oracle* of the RL loop: stats().decisions is exactly the
///    "number of variable branching times" of Eq. (3).
///
/// Determinism: given the same formula, config and seed, every run produces
/// identical statistics — required for reproducible experiments.

#include <atomic>
#include <cstdint>
#include <limits>
#include <span>
#include <unordered_set>
#include <vector>

#include "cnf/cnf.h"
#include "sat/cdcl_kernel.h"
#include "sat/clause_exchange.h"

namespace csat::sat {

using cnf::Cnf;

/// Verdict of a solve: kUnknown means a budget/cancellation stopped the
/// search, never that the formula is undecidable.
enum class Status { kSat, kUnsat, kUnknown };

/// Monotonic search counters. They accumulate across successive solve()
/// calls on the same solver and are zeroed only by Solver::reset().
struct Stats {
  std::uint64_t decisions = 0;   ///< "branching times" — the paper's complexity proxy
  std::uint64_t conflicts = 0;   ///< conflicts found by propagation
  std::uint64_t propagations = 0;  ///< literals enqueued by BCP
  std::uint64_t restarts = 0;
  std::uint64_t learned = 0;  ///< clauses learned from conflict analysis
  /// Literals across all clauses learned from conflicts (units included);
  /// learnt_literals / conflicts is the mean learned-clause length.
  std::uint64_t learnt_literals = 0;
  std::uint64_t removed = 0;
  /// Learnt-DB reduction passes, and how many of them ended in a
  /// mark-compact arena collection.
  std::uint64_t reductions = 0;
  std::uint64_t arena_gcs = 0;
  std::uint64_t minimized_lits = 0;
  std::uint64_t max_decision_level = 0;
  /// Backjumps truncated to one level by chronological backtracking (the
  /// trail prefix between the asserting level and the conflict level was
  /// kept instead of re-propagated).
  std::uint64_t chrono_backtracks = 0;
  /// Restarts that kept a non-empty trail prefix instead of re-propagating
  /// it from level 0 (chrono's restart-side twin).
  std::uint64_t reused_trails = 0;
  /// Clauses strengthened (shrunk in place) by vivification; root-satisfied
  /// clauses vivification deletes outright count under `removed`.
  std::uint64_t vivified_clauses = 0;
  /// Literals removed from clauses by vivification.
  std::uint64_t vivify_strengthened_lits = 0;
  /// Clause sharing (zero unless connected to a ClauseExchange).
  std::uint64_t exported = 0;  ///< learnt clauses published to the exchange
  std::uint64_t imported = 0;  ///< foreign clauses attached to this solver
  /// Ring publications that lapped this worker's import cursor before it
  /// drained them (the publisher is unknowable once the slot is reused, so
  /// this includes the worker's own exports).
  std::uint64_t import_lost = 0;
  /// Literals enqueued by the dedicated binary-clause pass.
  std::uint64_t binary_props = 0;
  /// Watcher slab moves paid to grow a full per-literal list (zero on the
  /// first descent when the occurrence-histogram reservation sized every
  /// list right).
  std::uint64_t watcher_relocations = 0;
  /// Heap footprint of the watch lists in bytes — a gauge refreshed at
  /// every solve() exit, not a monotonic counter.
  std::uint64_t watch_bytes = 0;
  /// Total solver heap footprint in bytes (arena + watch lists + per-var
  /// state) — a gauge refreshed at every solve() exit, like watch_bytes.
  std::uint64_t memory_bytes = 0;
  /// reduce_db() passes forced by Limits::soft_memory_bytes.
  std::uint64_t memory_reductions = 0;
  /// Searches stopped by Limits::hard_memory_bytes (the solve returned
  /// Status::kUnknown with reason "memout"; state stays valid/resumable).
  std::uint64_t memout_stops = 0;
};

/// Clause-sharing knobs of a portfolio race (sat/portfolio.h): the race
/// reads enabled and ring_capacity, each connected Solver the export filter
/// and import cadence.
struct ClauseSharingOptions {
  /// Master switch. Even when true, sharing is suppressed for 1-worker
  /// portfolios (nothing to share with) and in deterministic mode (import
  /// timing depends on thread scheduling, which would break bit-for-bit
  /// reproducibility; see PortfolioOptions::deterministic).
  bool enabled = true;
  /// Starting glue export filter: each worker exports learnt clauses with
  /// LBD <= its filter, which then moves one step at a time inside [1, 4]
  /// from the import_lost share it observes, so a loose filter that floods
  /// the ring self-corrects (a start above 4 only ever tightens).
  std::uint32_t max_lbd = 2;
  /// ... and with at most this many literals.
  std::uint32_t max_size = 8;
  /// Export ring slots; producers overwrite the oldest clause when a
  /// consumer lags more than this many publications behind.
  std::size_t ring_capacity = 1 << 12;
};

/// Thread model: a Solver instance is confined to one thread at a time (no
/// internal locking); distinct instances never share state, so any number
/// may run concurrently. The only cross-thread channels are the read-only
/// Limits::terminate flag and a connected ClauseExchange (which is
/// internally synchronized and must outlive the connection). The solver
/// owns its entire clause database; Cnf inputs are copied in.
class Solver : private CdclKernel<Solver, Stats> {
 public:
  explicit Solver(SolverConfig config = {});

  /// Adds all clauses (and variables) of \p formula. Must be called at
  /// decision level 0 (i.e. outside solve()).
  void add_formula(const Cnf& formula);

  /// Declares the next variable (0-based) and returns its index.
  std::uint32_t new_var();
  /// Number of declared variables; literals range over [0, 2 * num_vars()).
  [[nodiscard]] std::uint32_t num_vars() const {
    return static_cast<std::uint32_t>(level_.size());
  }

  /// Adds a clause; returns false when the formula became trivially
  /// unsatisfiable (empty clause / conflicting units at level 0).
  bool add_clause(std::span<const Lit> lits);
  bool add_clause(std::initializer_list<Lit> lits) {
    return add_clause(std::span<const Lit>(lits.begin(), lits.size()));
  }

  /// Runs CDCL search until a verdict or a budget limit.
  Status solve(const Limits& limits = {});

  /// Returns the solver to its freshly-constructed state (no variables, no
  /// clauses, zeroed stats, RNG re-seeded from the config) while keeping
  /// every internal buffer's heap allocation: the clause arena, watch
  /// lists, trail, heap and analyze scratch all retain their grown
  /// capacity. This is the warm-reuse path for long-lived server workers
  /// (core/solve_server.h) — reset(); add_formula(next); solve() costs no
  /// reallocation once the buffers have grown to workload size. Config is
  /// preserved; any connected clause exchange is disconnected. Must not be
  /// called while solve() is running.
  void reset();

  /// Connects this solver to a portfolio clause exchange as worker
  /// \p worker_id. Learnt clauses passing \p sharing's export filter are
  /// published after conflict analysis; foreign clauses are drained by
  /// import_clauses() at restart boundaries (and at solve() entry). Pass
  /// nullptr to disconnect.
  /// Every clause moved either way is implied by the common input formula,
  /// so sharing never changes SAT/UNSAT verdicts — only search effort.
  void connect_exchange(ClauseExchange* exchange, std::size_t worker_id,
                        const ClauseSharingOptions& sharing = {});

  /// Attaches a DRAT proof sink (sat/proof.h) or detaches it (nullptr).
  /// While attached, every learnt clause, vivification rewrite, learnt-DB
  /// deletion and the final empty clause are emitted, so an UNSAT verdict
  /// carries a certificate checkable against the added formula
  /// (sat/drat_check.h). Must be called before any clause or variable is
  /// added — the proof's premise set is exactly what add_formula() /
  /// add_clause() receive afterwards. Mutually exclusive with
  /// connect_exchange(): imported clauses are derived in *another*
  /// worker's search and are not RUP-derivable here, so proof mode is
  /// sequential-only (solve_portfolio() enforces the same rule).
  void set_proof(ProofTracer* tracer);

  /// Drains foreign clauses from the connected exchange into the clause
  /// database (attached as learnt, deduplicated by clause hash, simplified
  /// against the level-0 assignment). Must be called at decision level 0;
  /// solve() does so automatically at every restart. Returns false when an
  /// imported clause (or the propagation it triggers) proves the formula
  /// UNSAT at the root.
  bool import_clauses();

  /// Complete model (indexed by variable) — valid after Status::kSat and
  /// until the next solve()/reset(); the reference stays owned by the
  /// solver.
  [[nodiscard]] const std::vector<bool>& model() const { return model_; }

  /// Counters accumulated since construction or the last reset().
  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// The configuration this solver was constructed with (immutable).
  [[nodiscard]] const SolverConfig& config() const { return config_; }

  /// Current heap footprint in bytes: clause arena + watch lists + the
  /// per-variable/trail state. The quantity Limits::soft_memory_bytes /
  /// hard_memory_bytes budget. O(1): a sum of buffer capacities.
  [[nodiscard]] std::uint64_t memory_bytes() const;

  /// Debug walker (tests only; O(database)): verifies the watch invariants
  /// — every live arena clause is watched exactly once on each of its first
  /// two literals, every watcher references a live in-range clause and
  /// carries a blocker that is a literal of that clause, and the binary
  /// lists are mirror-symmetric (clause {a,b} appears in both (!a)'s and
  /// (!b)'s list). Returns false (with a stderr note) on the first
  /// violation. Call between solve() calls, not mid-propagation.
  [[nodiscard]] bool check_watches() {
    return Kernel::check_watches("check_watches");
  }

 private:
  using Kernel = CdclKernel<Solver, Stats>;
  friend Kernel;

  // --- propagation ---
  /// Binary lists to fixpoint first, then one long-clause literal over the
  /// watcher arena (prefetching ahead), and back.
  Conflict propagate();
  /// Unassigns every literal with level > \p level. Literals assigned
  /// out-of-order below that (chrono) survive: they are compacted to the
  /// start of the open segment and re-queued for propagation, which repairs
  /// any watch work their unassigned consequences invalidated.
  void backtrack(std::uint32_t level);

  /// True level of a conflict under chrono (the maximum literal level in
  /// the conflict clause — possibly below the decision level), the number
  /// of clause literals at that level, the single such literal when that
  /// count is 1 (a missed lower-level propagation), and the maximum level
  /// of the remaining literals (the forced literal's asserting level).
  struct ConflictLevel {
    std::uint32_t level = 0;
    std::uint32_t at_level = 0;
    Lit forced{};
    std::uint32_t forced_level = 0;
  };
  [[nodiscard]] ConflictLevel find_conflict_level(const Conflict& confl);

  // --- decisions ---
  Lit pick_branch();
  /// Kernel hook: a bumped variable moves up the VSIDS heap.
  void on_var_bumped(std::uint32_t v) {
    if (heap_pos_[v] >= 0) heap_up(static_cast<std::uint32_t>(heap_pos_[v]));
  }
  void heap_insert(std::uint32_t v);
  std::uint32_t heap_pop();
  void heap_up(std::uint32_t pos);
  void heap_down(std::uint32_t pos);
  [[nodiscard]] bool heap_less(std::uint32_t a, std::uint32_t b) const {
    return activity_[a] > activity_[b];
  }

  // --- clause DB ---
  /// Level-0 clause normalization shared by add_clause() and import_one():
  /// sort, drop duplicate and root-falsified literals, detect tautologies
  /// and root-satisfied clauses (kRedundant) and the empty clause (kEmpty).
  enum class RootNorm { kRedundant, kEmpty, kClause };
  RootNorm normalize_at_root(std::span<const Lit> lits, std::vector<Lit>& out);
  /// Lays the watch headers out from \p formula's literal-occurrence
  /// histogram (two smallest literals of each clause — normalize_at_root()
  /// sorts, so those are the ones attach_clause() will watch) so the
  /// initial attach and first descent pay no slab relocation. No-op once
  /// any list holds data.
  void reserve_watches(const Cnf& formula);
  /// Moves \p l into watch position 0 of an arena clause, fixing up the
  /// watch lists when \p l was unwatched. Used by the chrono forced path,
  /// which turns the conflict clause into the reason of its single
  /// conflict-level literal (reasons keep their implied literal at slot 0).
  void make_watched_first(ClauseRef cref, Lit l);

  // --- vivification ---
  /// One inprocessing pass at decision level 0: re-propagates candidate
  /// clauses under the propagation budget, strengthening them in place.
  /// Returns false when a vivified unit/empty clause proves UNSAT.
  bool vivify_pass();
  /// Vivifies one detached clause given its literal snapshot; leaves the
  /// solver back at decision level 0 and reattaches, shrinks, rewrites as
  /// binary/unit, or deletes the clause. Returns false on root UNSAT.
  bool vivify_one(ClauseRef cref);

  // --- restarts ---
  [[nodiscard]] bool should_restart() const;
  void on_conflict_for_restart(std::uint32_t lbd);
  /// Deepest decision level whose prefix the restarted search would rebuild
  /// verbatim (every kept decision has higher EVSIDS activity than the best
  /// unassigned variable and matches its saved phase) — restarting to that
  /// level instead of 0 skips the redundant re-propagation.
  [[nodiscard]] std::uint32_t reusable_trail_level();

  // --- clause sharing ---
  void export_clause(std::span<const Lit> lits, std::uint32_t lbd);
  void import_one(std::span<const Lit> lits, std::uint32_t lbd);
  /// Cheap check (one atomic load) whether the exchange holds tickets this
  /// worker has not drained — gates the level-0 fixpoint import.
  [[nodiscard]] bool has_pending_import() const {
    return exchange_ != nullptr &&
           exchange_->published() > exchange_cursor_.next;
  }
  /// Adaptive glue export: folds one drain's delivered/lost counts into the
  /// pressure window and moves export_lbd_ inside
  /// [kAdaptiveMinLbd, kAdaptiveMaxLbd].
  void adapt_sharing(const ClauseExchange::DrainStats& drained);

  /// Shared epilogue of every UNSAT exit from solve(): emits the empty
  /// clause (once) so the proof is a complete refutation.
  Status proved_unsat();

  /// The CDCL loop behind solve(), which wraps it only to refresh the
  /// watch-storage gauges (Stats::watch_bytes / watcher_relocations).
  Status search(const Limits& limits);

  std::vector<std::int32_t> heap_pos_;  // -1 when absent
  std::vector<std::uint32_t> heap_;     // binary max-heap of vars

  // restart state: Glucose-style EMA restarts fire when the fast LBD
  // average exceeds kEmaMargin times the slow one, at least
  // kEmaMinConflicts conflicts after the previous restart.
  // Known flaw, kept because search is pinned to it: ema_slow_ starts at 0
  // and, with no bias correction, takes ~16k conflicts to approach the true
  // LBD mean, so the margin test almost always passes and restarts fall
  // back to a fixed kEmaMinConflicts schedule (~50 conflicts apart).
  static constexpr double kEmaFastAlpha = 1.0 / 32.0;
  static constexpr double kEmaSlowAlpha = 1.0 / 16384.0;
  static constexpr double kEmaMargin = 1.25;
  static constexpr std::uint64_t kEmaMinConflicts = 50;
  double ema_fast_ = 0.0;
  double ema_slow_ = 0.0;

  // vivification state (conflict/propagation marks of the last pass)
  std::uint64_t vivify_conflicts_at_ = 0;
  std::uint64_t vivify_props_at_ = 0;
  std::vector<Lit> vivify_lits_;  // literal snapshot of the clause in hand
  std::vector<Lit> vivify_kept_;  // surviving literals
  /// Set while vivify assumptions are on the trail: their backtrack must
  /// not clobber the search's saved phases.
  bool vivify_active_ = false;

  // clause-sharing state
  ClauseExchange* exchange_ = nullptr;
  std::size_t exchange_id_ = 0;
  ClauseSharingOptions sharing_;
  ClauseExchange::Cursor exchange_cursor_;
  /// Effective export LBD filter: starts at sharing_.max_lbd and is moved
  /// inside the adaptive band by adapt_sharing().
  static constexpr std::uint32_t kAdaptiveMinLbd = 1;
  static constexpr std::uint32_t kAdaptiveMaxLbd = 4;
  std::uint32_t export_lbd_ = 0;
  /// Ring-pressure window for adapt_sharing(): lost vs total tickets seen.
  std::uint64_t adapt_lost_ = 0;
  std::uint64_t adapt_seen_ = 0;
  /// Hashes of clauses this solver already published or imported, so the
  /// same clause (normally) never crosses the exchange twice for this
  /// worker. Cleared when it reaches kMaxSharedHashes: dedup is
  /// best-effort — a duplicate that slips through is just a redundant
  /// learnt clause the next reduce_db() can delete — and the set must not
  /// grow without bound on long runs with loose sharing filters.
  static constexpr std::size_t kMaxSharedHashes = 1u << 20;
  std::unordered_set<std::uint64_t> shared_hashes_;
  std::vector<Lit> norm_scratch_;

  /// Keeps repeated UNSAT exits from duplicating the final empty clause.
  bool proof_empty_emitted_ = false;

  std::uint64_t rng_state_;
  std::vector<bool> model_;
};

/// One-shot convenience: solve \p formula under \p config and \p limits.
struct SolveResult {
  Status status = Status::kUnknown;
  Stats stats;
  std::vector<bool> model;
};
/// When \p proof is non-null it receives the solve's DRAT steps
/// (set_proof() is called before the formula is added).
SolveResult solve_cnf(const Cnf& formula, const SolverConfig& config = {},
                      const Limits& limits = {}, ProofTracer* proof = nullptr);

}  // namespace csat::sat

#endif  // CSAT_SAT_SOLVER_H
