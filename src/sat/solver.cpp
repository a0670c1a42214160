#include "sat/solver.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/check.h"
#include "common/rng.h"
#include "sat/proof.h"

namespace csat::sat {

namespace {

/// CSAT_FORCE_INPROCESSING=1 shortens the vivification cadence (at most
/// 200 conflicts between passes, at least a 200 permille budget) for every
/// solver regardless of its config — the sanitizer CI lanes set it so
/// vivification's in-place clause shrinking runs under ASan/TSan even on
/// the short solves of the test suites.
bool force_inprocessing() {
  static const bool forced = [] {
    const char* env = std::getenv("CSAT_FORCE_INPROCESSING");
    const bool on = env != nullptr && env[0] != '\0' && env[0] != '0';
    if (on) {
      // Announce once: this overrides explicit solver configs (benchmark
      // runs in a shell with the CI env leaked would otherwise silently
      // measure the wrong configuration).
      std::fprintf(stderr,
                   "csat: CSAT_FORCE_INPROCESSING=1 — forcing an aggressive "
                   "vivification cadence in every solver\n");
    }
    return on;
  }();
  return forced;
}
}  // namespace

Solver::Solver(SolverConfig config)
    : Kernel(config), rng_state_(config.seed | 1) {
  if (force_inprocessing()) {
    config_.vivify_interval = std::min<std::uint64_t>(config_.vivify_interval, 200);
    config_.vivify_effort_permille =
        std::max<std::uint32_t>(config_.vivify_effort_permille, 200);
  }
}

std::uint32_t Solver::new_var() {
  const std::uint32_t v = num_vars();
  add_var(config_.default_phase ? kTrue : kFalse);
  heap_pos_.push_back(-1);
  heap_insert(v);
  return v;
}

void Solver::reset() {
  reset_kernel();
  heap_.clear();
  heap_pos_.clear();
  ema_fast_ = 0.0;
  ema_slow_ = 0.0;
  vivify_conflicts_at_ = 0;
  vivify_props_at_ = 0;
  vivify_lits_.clear();
  vivify_kept_.clear();
  vivify_active_ = false;
  exchange_ = nullptr;
  exchange_id_ = 0;
  sharing_ = ClauseSharingOptions{};
  exchange_cursor_ = ClauseExchange::Cursor{};
  export_lbd_ = 0;
  adapt_lost_ = 0;
  adapt_seen_ = 0;
  shared_hashes_.clear();
  proof_empty_emitted_ = false;
  rng_state_ = config_.seed | 1;
  model_.clear();
}

void Solver::set_proof(ProofTracer* tracer) {
  if (tracer != nullptr) {
    CSAT_CHECK_MSG(exchange_ == nullptr,
                   "proof emission and clause sharing are mutually exclusive "
                   "(imported clauses are not RUP-derivable from this "
                   "worker's run)");
    CSAT_CHECK_MSG(num_vars() == 0,
                   "set_proof() must be called before clauses are added: the "
                   "proof's premise set is the formula added afterwards");
  }
  proof_ = tracer;
  proof_empty_emitted_ = false;
}

Status Solver::proved_unsat() {
  if (proof_ != nullptr && !proof_empty_emitted_) {
    proof_->add({});
    proof_empty_emitted_ = true;
  }
  return Status::kUnsat;
}

void Solver::add_formula(const Cnf& formula) {
  while (num_vars() < formula.num_vars()) new_var();
  reserve_watches(formula);
  for (std::size_t i = 0; i < formula.num_clauses(); ++i) {
    if (!add_clause(formula.clause(i))) return;  // already UNSAT; keep ok_ false
  }
}

void Solver::reserve_watches(const Cnf& formula) {
  if (watch_.total_slots() != 0 || bin_watch_.total_slots() != 0) return;
  const std::size_t nlits = 2 * static_cast<std::size_t>(num_vars());
  std::vector<std::uint32_t> longs(nlits, 0);
  std::vector<std::uint32_t> bins(nlits, 0);
  for (std::size_t i = 0; i < formula.num_clauses(); ++i) {
    const auto c = formula.clause(i);
    if (c.size() < 2) continue;
    // The two smallest distinct literals are the ones attach_clause() will
    // watch after normalize_at_root() sorts the clause. Clauses that
    // normalization shrinks or drops make this histogram an overestimate,
    // which only leaves slack capacity — never a relocation.
    Lit lo = kLitUndef;
    Lit hi = kLitUndef;
    for (const Lit l : c) {
      if (lo == kLitUndef || l < lo) {
        if (lo != kLitUndef && lo != l) hi = lo;
        lo = l;
      } else if (l != lo && (hi == kLitUndef || l < hi)) {
        hi = l;
      }
    }
    if (hi == kLitUndef) continue;  // all duplicates: a unit after dedup
    auto& table = c.size() == 2 ? bins : longs;
    ++table[(!lo).x];
    ++table[(!hi).x];
  }
  watch_.reserve_lists(longs);
  bin_watch_.reserve_lists(bins);
}

Solver::RootNorm Solver::normalize_at_root(std::span<const Lit> lits,
                                           std::vector<Lit>& out) {
  CSAT_DCHECK(decision_level() == 0);
  std::vector<Lit>& c = norm_scratch_;
  c.assign(lits.begin(), lits.end());
  std::sort(c.begin(), c.end());
  out.clear();
  out.reserve(c.size());
  Lit prev = kLitUndef;
  for (Lit l : c) {
    CSAT_CHECK(l.var() < num_vars());
    if (l == prev) continue;
    if (prev != kLitUndef && l == !prev) return RootNorm::kRedundant;  // tautology
    const std::uint8_t v = value(l);
    if (v == kTrue && level_[l.var()] == 0)
      return RootNorm::kRedundant;  // satisfied at root
    if (v == kFalse && level_[l.var()] == 0) {
      prev = l;
      continue;  // falsified at root: drop literal
    }
    out.push_back(l);
    prev = l;
  }
  return out.empty() ? RootNorm::kEmpty : RootNorm::kClause;
}

bool Solver::add_clause(std::span<const Lit> lits) {
  if (!ok_) return false;
  CSAT_CHECK_MSG(decision_level() == 0, "clauses must be added at level 0");

  std::vector<Lit> out;
  switch (normalize_at_root(lits, out)) {
    case RootNorm::kRedundant:
      return true;
    case RootNorm::kEmpty:
      ok_ = false;
      return false;
    case RootNorm::kClause:
      break;
  }
  if (out.size() == 1) {
    if (value(out[0]) == kFalse) {
      ok_ = false;
      return false;
    }
    if (value(out[0]) == kUnknown) enqueue(out[0], Reason::none());
    if (!propagate().is_none()) {
      ok_ = false;
      return false;
    }
    return true;
  }
  attach_clause(out, /*learnt=*/false, /*lbd=*/0);
  return true;
}

Solver::Conflict Solver::propagate() {
  for (;;) {
    Conflict confl = drain_binaries();
    if (!confl.is_none() || qhead_ >= trail_.size()) return confl;
    confl = propagate_long();
    if (!confl.is_none()) return confl;
  }
}

void Solver::backtrack(std::uint32_t target) {
  if (decision_level() <= target) return;
  const std::uint32_t limit = trail_lim_[target];
  // Literals assigned out of order (chrono: recorded level <= target while
  // sitting in a higher segment) survive the backtrack: compact them to the
  // start of the open segment and re-propagate them, which re-derives any
  // consequences the unassignments above invalidated.
  std::size_t keep = limit;
  for (std::size_t i = limit; i < trail_.size(); ++i) {
    const Lit l = trail_[i];
    const std::uint32_t v = l.var();
    if (level_[v] > target) {
      if (!vivify_active_) phase_[v] = var_value(v);
      value_[v << 1] = kUnknown;
      value_[(v << 1) | 1] = kUnknown;
      reason_[v] = Reason::none();
      if (heap_pos_[v] < 0) heap_insert(v);
    } else {
      trail_[keep++] = l;
    }
  }
  trail_.resize(keep);
  trail_lim_.resize(target);
  qhead_ = limit;
  bin_qhead_ = limit;
  // At level 0 every surviving literal is a root assignment: the trail is
  // in order again and the conflict-level scan can stand down until the
  // next out-of-order enqueue.
  if (target == 0) chrono_dirty_ = false;
}

Solver::ConflictLevel Solver::find_conflict_level(const Conflict& confl) {
  ConflictLevel out;
  const auto account = [&](Lit l) {
    const std::uint32_t lev = level_[l.var()];
    if (lev > out.level) {
      out.forced_level = out.level;
      out.level = lev;
      out.at_level = 1;
      out.forced = l;
    } else if (lev == out.level) {
      ++out.at_level;
    } else if (lev > out.forced_level) {
      out.forced_level = lev;
    }
  };
  if (confl.is_binary()) {
    account(confl.a);
    account(confl.b);
  } else {
    for (const Lit l : arena_[confl.cref].lits()) account(l);
  }
  return out;
}

void Solver::make_watched_first(ClauseRef cref, Lit l) {
  ClauseArena::Clause c = arena_[cref];
  if (c[0] == l) return;
  if (c[1] == l) {
    // Both positions are watched; swapping them moves no watch-list entry.
    std::swap(c[0], c[1]);
    return;
  }
  const Lit old0 = c[0];
  const std::uint32_t size = c.size();
  for (std::uint32_t k = 2; k < size; ++k) {
    if (c[k] == l) {
      c[k] = old0;
      c[0] = l;
      break;
    }
  }
  CSAT_DCHECK(c[0] == l);
  watch_remove(!old0, cref);
  watch_.push((!l).x, {cref, c[1]});
}

// --- vivification ------------------------------------------------------------

bool Solver::vivify_pass() {
  CSAT_CHECK_MSG(decision_level() == 0, "vivification runs at level 0 only");
  if (!ok_) return false;
  // Reach the level-0 propagation fixpoint first: a chrono restart can
  // leave kept out-of-order literals queued behind qhead_.
  if (!propagate().is_none()) {
    ok_ = false;
    return false;
  }

  // Candidates: learnt tier-2 clauses (LBD above the protected glue band —
  // glue clauses are already tight) that were never vivified before, in
  // (LBD asc, activity desc) order. The once-only bit bounds both total
  // vivify effort and the watch-order perturbation re-propagation causes.
  // Reason-locked clauses are skipped: their literals anchor level-0
  // assignments.
  std::vector<ClauseRef> candidates;
  candidates.reserve(learnt_refs_.size());
  for (ClauseRef cr : learnt_refs_) {
    ClauseArena::Clause c = arena_[cr];
    if (c.garbage() || c.vivify_tried() || c.lbd() <= kGlueKeep ||
        reason_locked(cr)) {
      continue;
    }
    candidates.push_back(cr);
  }
  std::sort(candidates.begin(), candidates.end(),
            [&](ClauseRef a, ClauseRef b) {
              ClauseArena::Clause ca = arena_[a];
              ClauseArena::Clause cb = arena_[b];
              if (ca.lbd() != cb.lbd()) return ca.lbd() < cb.lbd();
              if (ca.activity() != cb.activity())
                return ca.activity() > cb.activity();
              return a < b;
            });

  // Budget: a configurable permille share of the propagations performed
  // since the previous pass, so inprocessing effort tracks search effort.
  const std::uint64_t since = stats_.propagations - vivify_props_at_;
  const std::uint64_t budget = std::max<std::uint64_t>(
      2000, since * config_.vivify_effort_permille / 1000);
  const std::uint64_t stop_at = stats_.propagations + budget;

  bool removed_any = false;
  for (ClauseRef cr : candidates) {
    if (!ok_ || stats_.propagations >= stop_at) break;
    if (arena_[cr].garbage() || reason_locked(cr)) continue;  // pass-local churn
    if (!vivify_one(cr)) break;
    if (arena_[cr].garbage()) removed_any = true;
  }
  if (removed_any) {
    std::erase_if(learnt_refs_,
                  [&](ClauseRef cr) { return arena_[cr].garbage(); });
  }
  vivify_props_at_ = stats_.propagations;
  return ok_;
}

bool Solver::vivify_one(ClauseRef cref) {
  CSAT_DCHECK(decision_level() == 0);
  ClauseArena::Clause c = arena_[cref];
  const std::uint32_t old_size = c.size();
  const bool learnt = c.learnt();
  c.set_vivify_tried();
  vivify_lits_.assign(c.lits().begin(), c.lits().end());
  // Detached so the clause cannot propagate (and thus vacuously "imply")
  // its own literals while we re-derive them.
  detach_clause(cref);

  std::vector<Lit>& kept = vivify_kept_;
  kept.clear();
  bool satisfied_at_root = false;
  vivify_active_ = true;
  for (std::size_t i = 0; i < vivify_lits_.size(); ++i) {
    const Lit l = vivify_lits_[i];
    const std::uint8_t v = value(l);
    if (v == kTrue) {
      if (level_[l.var()] == 0) {
        satisfied_at_root = true;  // subsumed by the root assignment
      } else {
        // ~kept implies l, so (kept | l) subsumes the clause: keep l and
        // drop every remaining literal.
        kept.push_back(l);
      }
      break;
    }
    if (v == kFalse) continue;  // root- or prefix-falsified: drop l
    kept.push_back(l);
    if (i + 1 == vivify_lits_.size()) break;  // no tail left to drop
    trail_lim_.push_back(static_cast<std::uint32_t>(trail_.size()));
    enqueue(!l, Reason::none());
    if (!propagate().is_none()) break;  // ~kept implies bottom: keep = clause
  }
  backtrack(0);
  vivify_active_ = false;

  if (satisfied_at_root) {
    proof_delete(vivify_lits_);
    arena_.mark_garbage(cref);
    ++stats_.removed;
    return true;
  }
  const std::size_t new_size = kept.size();
  if (new_size == old_size) {  // nothing strengthened: reattach unchanged
    watch_.push((!vivify_lits_[0]).x, {cref, vivify_lits_[1]});
    watch_.push((!vivify_lits_[1]).x, {cref, vivify_lits_[0]});
    return true;
  }
  ++stats_.vivified_clauses;
  stats_.vivify_strengthened_lits += old_size - new_size;
  // Proof order: add the strengthened clause first (it is RUP against a
  // set still holding the original), then delete the original.
  if (new_size == 0) {
    // Every literal was root-false: the clause is empty at the root.
    proof_delete(vivify_lits_);
    arena_.mark_garbage(cref);
    ok_ = false;
    return false;
  }
  if (new_size == 1) {
    proof_add(kept);
    proof_delete(vivify_lits_);
    arena_.mark_garbage(cref);
    if (value(kept[0]) == kFalse) {
      ok_ = false;
      return false;
    }
    if (value(kept[0]) == kUnknown) enqueue(kept[0], Reason::none());
    if (!propagate().is_none()) {
      ok_ = false;
      return false;
    }
    return true;
  }
  if (new_size == 2) {
    // Strengthened to a binary: binaries have no arena storage (permanent,
    // never garbage-collected) — retire the arena clause.
    proof_add(kept);
    proof_delete(vivify_lits_);
    arena_.mark_garbage(cref);
    attach_binary(kept[0], kept[1]);
    return true;
  }
  // >= 3 literals: rewrite and shrink in place — the ClauseRef stays valid,
  // so nothing outside the watch lists needs fixing up.
  proof_add(kept);
  proof_delete(vivify_lits_);
  std::span<Lit> lits = c.lits();
  for (std::size_t i = 0; i < new_size; ++i) lits[i] = kept[i];
  arena_.shrink(cref, static_cast<std::uint32_t>(new_size));
  const std::uint32_t new_lbd =
      std::min(c.lbd(), static_cast<std::uint32_t>(new_size));
  c.set_lbd(new_lbd);
  if (learnt && new_lbd <= kGlueKeep) c.set_protect();
  watch_.push((!kept[0]).x, {cref, kept[1]});
  watch_.push((!kept[1]).x, {cref, kept[0]});
  return true;
}

// --- decision heap ---------------------------------------------------------

void Solver::heap_insert(std::uint32_t v) {
  heap_pos_[v] = static_cast<std::int32_t>(heap_.size());
  heap_.push_back(v);
  heap_up(static_cast<std::uint32_t>(heap_.size() - 1));
}

std::uint32_t Solver::heap_pop() {
  const std::uint32_t top = heap_[0];
  heap_pos_[top] = -1;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_pos_[heap_[0]] = 0;
    heap_down(0);
  }
  return top;
}

void Solver::heap_up(std::uint32_t pos) {
  const std::uint32_t v = heap_[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 2;
    if (!heap_less(v, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    heap_pos_[heap_[pos]] = static_cast<std::int32_t>(pos);
    pos = parent;
  }
  heap_[pos] = v;
  heap_pos_[v] = static_cast<std::int32_t>(pos);
}

void Solver::heap_down(std::uint32_t pos) {
  const std::uint32_t v = heap_[pos];
  const std::uint32_t n = static_cast<std::uint32_t>(heap_.size());
  for (;;) {
    std::uint32_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_less(heap_[child + 1], heap_[child])) ++child;
    if (!heap_less(heap_[child], v)) break;
    heap_[pos] = heap_[child];
    heap_pos_[heap_[pos]] = static_cast<std::int32_t>(pos);
    pos = child;
  }
  heap_[pos] = v;
  heap_pos_[v] = static_cast<std::int32_t>(pos);
}

Lit Solver::pick_branch() {
  // Optional random diversification.
  if (config_.random_decision_freq > 0.0) {
    const double r =
        static_cast<double>(splitmix64(rng_state_) >> 11) * 0x1.0p-53;
    if (r < config_.random_decision_freq && !heap_.empty()) {
      const std::uint32_t idx = static_cast<std::uint32_t>(
          splitmix64(rng_state_) % heap_.size());
      const std::uint32_t v = heap_[idx];
      if (var_value(v) == kUnknown)
        return Lit::make(v, phase_[v] == kFalse);
    }
  }
  while (!heap_.empty()) {
    const std::uint32_t v = heap_pop();
    if (var_value(v) == kUnknown) return Lit::make(v, phase_[v] == kFalse);
  }
  return kLitUndef;
}

// --- restarts & reduction ----------------------------------------------------

void Solver::on_conflict_for_restart(std::uint32_t lbd) {
  ema_fast_ += kEmaFastAlpha * (static_cast<double>(lbd) - ema_fast_);
  ema_slow_ += kEmaSlowAlpha * (static_cast<double>(lbd) - ema_slow_);
}

bool Solver::should_restart() const {
  if (config_.restarts == SolverConfig::Restarts::kLuby)
    return luby_restart_due();
  const std::uint64_t since = stats_.conflicts - conflicts_at_restart_;
  return since >= kEmaMinConflicts && ema_fast_ > kEmaMargin * ema_slow_;
}

std::uint32_t Solver::reusable_trail_level() {
  if (decision_level() == 0) return 0;
  // The restarted search redoes decisions best-activity-first with saved
  // phases, so the prefix up to the first decision that (a) has activity
  // at most the best unassigned variable's, (b) diverges from its saved
  // phase, or (c) is an out-of-order import artifact, would be rebuilt
  // literal for literal — keep it.
  while (!heap_.empty() && var_value(heap_[0]) != kUnknown) heap_pop();
  if (heap_.empty()) return decision_level();
  const double limit = activity_[heap_[0]];
  std::uint32_t keep = 0;
  double prev_activity = std::numeric_limits<double>::infinity();
  while (keep < decision_level()) {
    const std::uint32_t start = trail_lim_[keep];
    if (start >= trail_.size()) break;  // empty level (chrono bookkeeping)
    const Lit dec = trail_[start];
    const std::uint32_t v = dec.var();
    if (!reason_[v].is_none() || level_[v] != keep + 1) break;
    // Strict descending-activity match: the kept decisions must be exactly
    // the sequence a fresh pick_branch would redo (best-first), or the
    // "reused" prefix silently diverges from a true restart.
    if (activity_[v] <= limit || activity_[v] >= prev_activity) break;
    if (dec != Lit::make(v, phase_[v] == kFalse)) break;
    prev_activity = activity_[v];
    ++keep;
  }
  return keep;
}

// --- clause sharing ----------------------------------------------------------

void Solver::connect_exchange(ClauseExchange* exchange, std::size_t worker_id,
                              const ClauseSharingOptions& sharing) {
  CSAT_CHECK_MSG(exchange == nullptr || proof_ == nullptr,
                 "proof emission and clause sharing are mutually exclusive "
                 "(imported clauses are not RUP-derivable from this worker's "
                 "run)");
  exchange_ = exchange;
  exchange_id_ = worker_id;
  sharing_ = sharing;
  exchange_cursor_ = {};
  export_lbd_ = sharing.max_lbd;
  adapt_lost_ = 0;
  adapt_seen_ = 0;
  shared_hashes_.clear();
}

void Solver::adapt_sharing(const ClauseExchange::DrainStats& drained) {
  adapt_lost_ += drained.lost;
  adapt_seen_ += drained.lost + drained.delivered + drained.skipped;
  if (adapt_seen_ < 256) return;  // wait for a meaningful pressure window
  // Lost tickets mean producers lapped this consumer — the ring is flooded,
  // so tighten this worker's export filter; a clean window means headroom,
  // so drift back toward the loose end of the band.
  if (adapt_lost_ * 10 >= adapt_seen_) {  // >= 10% of the window lost
    if (export_lbd_ > kAdaptiveMinLbd) --export_lbd_;
  } else if (adapt_lost_ * 100 <= adapt_seen_) {  // <= 1% lost
    if (export_lbd_ < kAdaptiveMaxLbd) ++export_lbd_;
  }
  adapt_lost_ = 0;
  adapt_seen_ = 0;
}

void Solver::export_clause(std::span<const Lit> lits, std::uint32_t lbd) {
  CSAT_DCHECK(exchange_ != nullptr);
  if (lbd > export_lbd_ || lits.size() > sharing_.max_size) return;
  if (shared_hashes_.size() >= kMaxSharedHashes) shared_hashes_.clear();
  if (!shared_hashes_.insert(clause_hash(lits)).second) return;
  exchange_->publish(exchange_id_, lits, lbd);
  ++stats_.exported;
}

/// Attaches one foreign clause at decision level 0: normalize against the
/// root assignment exactly like add_clause(), but keep the clause learnt
/// (with its original LBD) so database reduction can still discard it.
void Solver::import_one(std::span<const Lit> lits, std::uint32_t lbd) {
  if (!ok_) return;
  if (shared_hashes_.size() >= kMaxSharedHashes) shared_hashes_.clear();
  if (!shared_hashes_.insert(clause_hash(lits)).second) return;  // duplicate

  std::vector<Lit> out;
  switch (normalize_at_root(lits, out)) {
    case RootNorm::kRedundant:
      return;
    case RootNorm::kEmpty:
      ok_ = false;
      return;
    case RootNorm::kClause:
      break;
  }
  ++stats_.imported;
  if (out.size() == 1) {
    if (value(out[0]) == kFalse)
      ok_ = false;
    else if (value(out[0]) == kUnknown)
      enqueue(out[0], Reason::none());
    return;
  }
  attach_clause(out, /*learnt=*/true, std::max(lbd, 1u));
}

bool Solver::import_clauses() {
  if (exchange_ == nullptr || !ok_) return ok_;
  CSAT_CHECK_MSG(decision_level() == 0, "imports happen at level 0 only");
  const auto drained = exchange_->drain(
      exchange_cursor_, exchange_id_,
      [this](std::span<const Lit> lits, std::uint32_t lbd, std::size_t) {
        import_one(lits, lbd);
      });
  stats_.import_lost += drained.lost;
  adapt_sharing(drained);
  if (ok_ && !propagate().is_none()) ok_ = false;
  return ok_;
}

// --- main search -------------------------------------------------------------

Status Solver::solve(const Limits& limits) {
  const Status status = search(limits);
  // Storage gauges are refreshed once per solve, not in the hot loop.
  stats_.watch_bytes = watch_bytes();
  stats_.watcher_relocations = watch_.relocations() + bin_watch_.relocations();
  stats_.memory_bytes = memory_bytes();
  return status;
}

std::uint64_t Solver::memory_bytes() const {
  // The clause arena and watch lists dominate (and are the only parts that
  // grow during search); the per-variable state is counted so a cap sized
  // below the formula's own footprint trips immediately instead of never.
  return kernel_bytes() + heap_.capacity() * sizeof(std::uint32_t) +
         heap_pos_.capacity() * sizeof(std::int32_t);
}

Status Solver::search(const Limits& limits) {
  if (!ok_) return proved_unsat();
  Budget budget = begin_solve(limits);

  if (!propagate().is_none()) {
    ok_ = false;
    return proved_unsat();
  }
  if (!import_clauses()) return proved_unsat();

  std::vector<Lit> learnt;
  for (;;) {
    if (interrupted(budget)) {
      backtrack(0);
      return Status::kUnknown;
    }
    const Conflict confl = propagate();
    if (!confl.is_none()) {
      ++stats_.conflicts;
      if (decision_level() == 0) {
        ok_ = false;
        return proved_unsat();
      }
      if (chrono_dirty_) {
        // With out-of-order assignments on the trail the conflict's true
        // level can sit below the decision level: drop to it before
        // analysis. With an in-order trail (chrono_dirty_ clear) the
        // conflict level is the decision level by construction and the
        // scan is skipped.
        const ConflictLevel cl = find_conflict_level(confl);
        if (cl.level == 0) {
          ok_ = false;
          return proved_unsat();
        }
        if (cl.at_level == 1 && cl.level < decision_level()) {
          // A missed lower-level propagation (possible only with
          // out-of-order assignments on the trail) surfaced as a conflict:
          // one level below the conflict level the clause is unit, so
          // propagate its single conflict-level literal out of order from
          // the conflict clause itself instead of learning a duplicate. A
          // single-literal conflict *at* the decision level stays with
          // first-UIP analysis — its learnt clause gets minimized, which
          // the bare conflict clause would not be.
          backtrack(cl.level - 1);
          Reason reason;
          if (confl.is_binary()) {
            reason = Reason::binary(cl.forced == confl.a ? confl.b : confl.a);
          } else {
            make_watched_first(confl.cref, cl.forced);
            reason = Reason::clause(confl.cref);
          }
          enqueue_at(cl.forced, reason, cl.forced_level);
          continue;
        }
        backtrack(cl.level);
      }
      std::uint32_t bt_level = 0;
      std::uint32_t lbd = 0;
      analyze(confl, learnt, bt_level, lbd);
      std::uint32_t target = bt_level;
      if (decision_level() - bt_level > config_.chrono_threshold) {
        // Far backjump: keep the trail prefix intact (it would be
        // re-propagated verbatim) and assert the UIP out of order.
        target = decision_level() - 1;
        ++stats_.chrono_backtracks;
      }
      backtrack(target);
      learn(learnt, lbd, bt_level);
      if (exchange_ != nullptr) export_clause(learnt, lbd);
      decay_activities();
      on_conflict_for_restart(lbd);
      reduce_on_schedule();
      if (exhausted(budget)) {
        backtrack(0);
        return Status::kUnknown;
      }
      continue;
    }

    // Level-0 propagation fixpoint between restarts: a cheap opportunity to
    // drain the exchange early instead of waiting for the next restart.
    if (decision_level() == 0 && has_pending_import()) {
      if (!import_clauses()) return proved_unsat();
      continue;  // imported clauses may propagate: find the new fixpoint
    }

    if (exhausted(budget)) {
      backtrack(0);
      return Status::kUnknown;
    }

    if (should_restart()) {
      ++stats_.restarts;
      const bool vivify_due =
          stats_.conflicts - vivify_conflicts_at_ >= config_.vivify_interval;
      // Inprocessing (import, vivification) needs level 0; plain restarts
      // reuse the trail prefix the restarted search would redo
      // decision-for-decision.
      const std::uint32_t reuse =
          vivify_due || has_pending_import() ? 0 : reusable_trail_level();
      backtrack(reuse);
      if (reuse == 0) {
        if (!import_clauses()) return proved_unsat();
        if (vivify_due) {
          vivify_conflicts_at_ = stats_.conflicts;
          if (!vivify_pass()) return proved_unsat();
        }
      } else {
        ++stats_.reused_trails;
      }
      next_restart_interval();
      // EMA: forgive the spike that triggered the restart.
      if (config_.restarts == SolverConfig::Restarts::kEma) ema_fast_ = 0.0;
      continue;
    }

    const Lit next = pick_branch();
    if (next == kLitUndef) {
      model_.assign(num_vars(), false);
      for (std::uint32_t v = 0; v < num_vars(); ++v)
        model_[v] = var_value(v) == kTrue;
      backtrack(0);
      return Status::kSat;
    }
    decide(next);
  }
}

SolveResult solve_cnf(const Cnf& formula, const SolverConfig& config,
                      const Limits& limits, ProofTracer* proof) {
  Solver solver(config);
  if (proof != nullptr) solver.set_proof(proof);
  solver.add_formula(formula);
  SolveResult r;
  r.status = solver.solve(limits);
  r.stats = solver.stats();
  if (r.status == Status::kSat) {
    r.model = solver.model();
    CSAT_CHECK_MSG(formula.satisfied_by(r.model), "solver returned invalid model");
  }
  return r;
}

}  // namespace csat::sat
