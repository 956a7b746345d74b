//! The solver facade used by the symbolic execution engine.

use crate::backend::{solve_feasibility, SolverBackendKind};
use crate::cache::{CacheSlice, ModelCache, ShardedQueryCache};
use crate::constraint::ConstraintSet;
use crate::search::{search, SearchBudget, SearchOutcome};
use crate::stats::{AtomicSolverStats, SolverStats};
use c9_expr::{collect_symbols, Assignment, Expr, ExprRef, SymbolId, SymbolManager, Width};
use c9_trace::{Histogram, HistogramSnapshot, Span, SpanKind};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::RwLock;
use std::time::Instant;

/// Configuration of a [`Solver`].
#[derive(Clone, Copy, Debug)]
pub struct SolverConfig {
    /// Budget for each backtracking search.
    pub budget: SearchBudget,
    /// Whether the query (satisfiability) cache is enabled.
    pub enable_query_cache: bool,
    /// Whether the model (counterexample) cache is enabled.
    pub enable_model_cache: bool,
    /// Maximum number of entries in the query cache.
    pub query_cache_capacity: usize,
    /// Maximum number of models kept in the model cache.
    pub model_cache_capacity: usize,
    /// Whether independence slicing is applied before searching.
    pub enable_independence: bool,
    /// When a query cannot be decided within budget, treat the branch as
    /// feasible (`true`, the conservative choice used by the engine) or
    /// infeasible (`false`).
    pub unknown_is_sat: bool,
    /// Which backend strategy feasibility searches use (the canonical
    /// backtracking search alone, bit-blasting with canonical fallback, or
    /// a sequential race). Model-returning queries always resolve through
    /// the canonical search regardless of this setting.
    pub backend: SolverBackendKind,
}

impl Default for SolverConfig {
    fn default() -> SolverConfig {
        SolverConfig {
            budget: SearchBudget::default(),
            enable_query_cache: true,
            enable_model_cache: true,
            query_cache_capacity: 16_384,
            model_cache_capacity: 64,
            enable_independence: true,
            unknown_is_sat: true,
            backend: SolverBackendKind::Canonical,
        }
    }
}

/// Result of a satisfiability check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable, with a witness model.
    Sat(Assignment),
    /// Proved unsatisfiable.
    Unsat,
    /// Could not be decided within the search budget.
    Unknown,
}

impl SatResult {
    /// Whether this result is `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }

    /// Whether this result is `Unsat`.
    pub fn is_unsat(&self) -> bool {
        matches!(self, SatResult::Unsat)
    }

    /// Extracts the model if satisfiable.
    pub fn model(self) -> Option<Assignment> {
        match self {
            SatResult::Sat(m) => Some(m),
            _ => None,
        }
    }
}

/// Three-valued validity answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Validity {
    /// The expression is true under every model of the constraints.
    True,
    /// The expression is false under every model of the constraints.
    False,
    /// Neither (or undecided within budget).
    Unknown,
}

/// The constraint solver.
///
/// A `Solver` is `Send + Sync`: all interior mutability is synchronized
/// (lock-striped query cache, read-write-locked model cache, atomic
/// statistics), so every executor thread of a Cloud9 worker shares one
/// solver instance — and one warm cache — instead of rebuilding a private
/// cache per thread.
///
/// # Determinism
///
/// Model-*returning* queries ([`Solver::get_model`], [`Solver::get_value`],
/// and the public [`Solver::check_sat`] entry points) always produce the
/// *canonical* model: the deterministic backtracking-search result for the
/// exact constraint set, computed as the union of its independence groups'
/// canonical models, each memoized in the query cache. Feasibility
/// queries ([`Solver::may_be_true`] / [`Solver::must_be_true`]) only need
/// the satisfiability bit and may be answered by any cached witness model.
/// Since satisfiability bits and canonical models are pure functions of the
/// constraint set, every value that can influence the shape of the
/// execution tree is independent of thread interleaving — which is what
/// keeps exhaustive path sets identical across `--threads` settings.
#[derive(Debug)]
pub struct Solver {
    config: SolverConfig,
    query_cache: ShardedQueryCache,
    model_cache: RwLock<ModelCache>,
    stats: AtomicSolverStats,
    /// Wall-clock latency of every query (cache hits included), in
    /// microseconds. Write-only from the engine's point of view — feeds
    /// worker status reports and `run_report.json`, never decisions.
    latency: Histogram,
    /// Widths of symbols registered via [`Solver::register_symbols`]; used
    /// as a fallback for query symbols whose width cannot be learned from
    /// the query expressions themselves.
    registered_widths: RwLock<BTreeMap<SymbolId, Width>>,
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

impl Solver {
    /// Creates a solver with the default configuration.
    pub fn new() -> Solver {
        Solver::with_config(SolverConfig::default())
    }

    /// Creates a solver with an explicit configuration.
    pub fn with_config(config: SolverConfig) -> Solver {
        Solver {
            query_cache: ShardedQueryCache::new(config.query_cache_capacity),
            model_cache: RwLock::new(ModelCache::new(config.model_cache_capacity)),
            stats: AtomicSolverStats::default(),
            latency: Histogram::new(),
            registered_widths: RwLock::new(BTreeMap::new()),
            config,
        }
    }

    /// The configuration this solver was created with.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// A snapshot of the solver statistics. The warm-cache counters live in
    /// the query cache (they are bumped under the shard locks) and are
    /// overlaid on the atomic snapshot here.
    pub fn stats(&self) -> SolverStats {
        let mut stats = self.stats.snapshot();
        stats.imported_cache_entries = self.query_cache.imported_entries();
        stats.warm_hits = self.query_cache.warm_hits();
        stats
    }

    /// Exports the `max` hottest query-cache entries as a transferable
    /// [`CacheSlice`] (see [`ShardedQueryCache::export_slice`]).
    pub fn export_slice(&self, max: usize) -> CacheSlice {
        self.query_cache.export_slice(max)
    }

    /// A monotonic counter of locally solved cache insertions; unchanged
    /// generation means an export would ship nothing an earlier export did
    /// not already carry.
    pub fn cache_generation(&self) -> u64 {
        self.query_cache.own_insertions()
    }

    /// Exports the `max` hottest query-cache entries whose constraints
    /// mention any of the `footprint` symbols.
    pub fn export_slice_for(&self, footprint: &BTreeSet<SymbolId>, max: usize) -> CacheSlice {
        self.query_cache.export_slice_for(footprint, max)
    }

    /// Merges a slice exported by another worker's solver into the query
    /// cache; returns the number of entries newly added. Imports are
    /// answer-preserving (cached answers are pure functions of their
    /// constraint sets), so this can only save searches, never change
    /// results.
    pub fn import_slice(&self, slice: &CacheSlice) -> u64 {
        if !self.config.enable_query_cache {
            return 0;
        }
        self.query_cache.merge_slice(slice)
    }

    /// A snapshot of the per-query latency histogram (microseconds).
    pub fn latency_snapshot(&self) -> HistogramSnapshot {
        self.latency.snapshot()
    }

    /// Registers the widths of symbols from a [`SymbolManager`]; queries
    /// mentioning unregistered symbols infer widths from the expressions that
    /// contain them.
    pub fn register_symbols(&self, manager: &SymbolManager) {
        let mut widths = self
            .registered_widths
            .write()
            .expect("width table poisoned");
        for info in manager.iter() {
            widths.insert(info.id, info.width);
        }
    }

    /// Clears both caches, modelling a job arriving at a fresh worker.
    pub fn clear_caches(&self) {
        self.query_cache.clear();
        self.model_cache
            .write()
            .expect("model cache poisoned")
            .clear();
    }

    /// Resolves the widths of `symbols` for a query over `working`: widths
    /// are learned from the query's own expressions (every symbol carries
    /// its width at each occurrence), falling back to registered widths.
    ///
    /// Widths are deliberately *not* cached across queries: symbol
    /// identifiers are allocated per execution state, so the same id can
    /// name symbols of different widths in different states — a shared
    /// learned-width table would cross-contaminate concurrent queries.
    fn widths_for(
        &self,
        working: &[ExprRef],
        symbols: &BTreeSet<SymbolId>,
    ) -> BTreeMap<SymbolId, Width> {
        let mut learned = BTreeMap::new();
        for e in working {
            learn_widths_rec(e, &mut learned);
        }
        let registered = self.registered_widths.read().expect("width table poisoned");
        symbols
            .iter()
            .map(|s| {
                let width = learned
                    .get(s)
                    .copied()
                    .or_else(|| registered.get(s).copied())
                    .unwrap_or(Width::W8);
                (*s, width)
            })
            .collect()
    }

    /// Checks whether the constraint set is satisfiable and returns a model
    /// if it is.
    pub fn check_sat(&self, constraints: &ConstraintSet) -> SatResult {
        self.query(constraints, None, true)
    }

    /// Checks whether `constraints ∧ extra` is satisfiable.
    pub fn check_sat_with(&self, constraints: &ConstraintSet, extra: Option<ExprRef>) -> SatResult {
        self.query(constraints, extra, true)
    }

    /// The query pipeline: trivial rejection → independence slicing (or,
    /// for model-returning queries, one solve per independence group) →
    /// query cache → (witness) model cache → budgeted search. Every public
    /// call counts as exactly one query; see [`Solver::solve`] for how the
    /// lookups below it are counted.
    fn query(
        &self,
        constraints: &ConstraintSet,
        extra: Option<ExprRef>,
        needs_model: bool,
    ) -> SatResult {
        let started = Instant::now();
        let mut span = Span::enter(SpanKind::SolverQuery);
        span.detail(constraints.len() as u64);
        let result = self.query_inner(constraints, extra, needs_model);
        self.latency.record(started.elapsed().as_micros() as u64);
        result
    }

    fn query_inner(
        &self,
        constraints: &ConstraintSet,
        extra: Option<ExprRef>,
        needs_model: bool,
    ) -> SatResult {
        self.stats.inc_queries();
        if constraints.is_trivially_false() {
            self.stats.inc_unsat();
            return SatResult::Unsat;
        }
        if let Some(e) = &extra {
            if let Some(c) = e.as_const() {
                if c.is_false() {
                    self.stats.inc_unsat();
                    return SatResult::Unsat;
                }
            }
        }

        let result = match &extra {
            // Slice to what is relevant to the extra query when independence
            // slicing is enabled. Slicing relies on the engine invariant that
            // the path-constraint set itself is always satisfiable (every
            // constraint was feasible when it was added), so dropping
            // independent groups cannot change the answer.
            //
            // A working set with a sliced-in extra expression can never be
            // the key of a model-returning query (those always pass
            // `extra: None`), so canonical models are only worth caching
            // for extra-free keys.
            Some(e) if !e.is_concrete() => {
                let mut working = if self.config.enable_independence {
                    let sliced = constraints.relevant(&collect_symbols(e));
                    if sliced.len() < constraints.len() {
                        self.stats.inc_independence_slices();
                    }
                    sliced
                } else {
                    constraints.constraints().to_vec()
                };
                working.push(e.clone());
                self.solve(&working, needs_model, false)
            }
            _ if needs_model && self.config.enable_independence => self.solve_groups(constraints),
            _ => self.solve(constraints.constraints(), needs_model, true),
        };
        match result {
            SatResult::Sat(_) => self.stats.inc_sat(),
            SatResult::Unsat => self.stats.inc_unsat(),
            SatResult::Unknown => {}
        }
        result
    }

    /// Solves every independence group of `constraints` on its own and
    /// merges the group models.
    ///
    /// This is exact: the search orders symbols by keys local to their
    /// group (domain size, mentions within the group, id), and the
    /// lexicographically-first solution of a product of independent groups
    /// is the product of each group's first solution — so the merged model
    /// is the canonical model of the whole set. Each group is a query-cache
    /// key of its own, so a group shared by many paths is solved once.
    fn solve_groups(&self, constraints: &ConstraintSet) -> SatResult {
        let mut model = Assignment::new();
        let mut unknown = false;
        for group in constraints.groups() {
            match self.solve(&group, true, true) {
                SatResult::Sat(m) => {
                    for (sym, value) in m.iter() {
                        model.set(sym, value);
                    }
                }
                SatResult::Unsat => return SatResult::Unsat,
                SatResult::Unknown => unknown = true,
            }
        }
        if unknown {
            SatResult::Unknown
        } else {
            SatResult::Sat(model)
        }
    }

    /// Answers one working constraint list: query cache → (witness) model
    /// cache → budgeted search. Each call is exactly one query-cache hit,
    /// one model-cache hit, or one search in the statistics.
    ///
    /// `needs_model` distinguishes model-returning callers (which must get
    /// the canonical model, see the type-level documentation) from
    /// feasibility callers (which only consume the satisfiability bit and
    /// may be answered by an arbitrary cached witness, or an empty
    /// placeholder model on a cached sat answer). `canonical_key` says
    /// whether a canonical model may be cached under `working`.
    fn solve(&self, working: &[ExprRef], needs_model: bool, canonical_key: bool) -> SatResult {
        // Query cache. Feasibility callers only ask for the sat bit, so
        // the shard does not clone the stored canonical model for them.
        if self.config.enable_query_cache {
            match self.query_cache.get(working, None, needs_model) {
                Some((false, _)) => {
                    self.stats.inc_query_cache_hits();
                    return SatResult::Unsat;
                }
                // Feasibility callers discard the model; an empty
                // placeholder witness is enough.
                Some((true, _)) if !needs_model => {
                    self.stats.inc_query_cache_hits();
                    return SatResult::Sat(Assignment::new());
                }
                Some((true, Some(m))) => {
                    self.stats.inc_query_cache_hits();
                    return SatResult::Sat(m);
                }
                // Sat is known but no canonical model was recorded yet (the
                // bit came from a witness-cache hit or a feasibility query):
                // fall through to the search, which computes and backfills it.
                Some((true, None)) | None => {}
            }
        }

        // Model (counterexample) cache — feasibility only: any witness
        // proves satisfiability, but model-returning callers need the
        // canonical model for cross-thread determinism.
        if !needs_model && self.config.enable_model_cache {
            let witness = self
                .model_cache
                .read()
                .expect("model cache poisoned")
                .find_satisfying(working);
            if let Some(m) = witness {
                self.stats.inc_model_cache_hits();
                if self.config.enable_query_cache {
                    self.query_cache.insert(working, None, true, None);
                }
                return SatResult::Sat(m);
            }
        }

        // Full search. Model-returning callers go straight to the canonical
        // backtracking search (its model *is* the canonical model);
        // feasibility callers go through the backend selection table, which
        // may answer with a verified witness from the bit-blasting backend
        // before falling back to the canonical search.
        self.stats.inc_searches();
        let symbols: BTreeSet<SymbolId> = working.iter().flat_map(collect_symbols).collect();
        let widths = self.widths_for(working, &symbols);
        let (outcome, via_alt) = if needs_model {
            (search(working, &widths, self.config.budget, None), false)
        } else {
            solve_feasibility(self.config.backend, working, &widths, self.config.budget)
        };
        match outcome {
            SearchOutcome::Sat(model) => {
                // Note: when the query was sliced, the model only binds the
                // symbols of the slice. Feasibility callers ignore the model;
                // model-generation callers (`get_model`, `get_value`) never
                // pass an extra query, so their groups' models together
                // bind every symbol of the constraint set.
                if self.config.enable_query_cache {
                    // A witness from an alternative backend proves the sat
                    // bit but is *not* the canonical model — caching it as
                    // such would make later `get_model` answers depend on
                    // the backend choice. Leave the model slot empty; a
                    // model-returning query backfills it canonically.
                    let canonical = (canonical_key && !via_alt).then(|| model.clone());
                    self.query_cache.insert(working, None, true, canonical);
                }
                if self.config.enable_model_cache {
                    self.model_cache
                        .write()
                        .expect("model cache poisoned")
                        .insert(model.clone());
                }
                SatResult::Sat(model)
            }
            SearchOutcome::Unsat => {
                if self.config.enable_query_cache {
                    self.query_cache.insert(working, None, false, None);
                }
                SatResult::Unsat
            }
            SearchOutcome::Unknown => {
                self.stats.inc_unknowns();
                SatResult::Unknown
            }
        }
    }

    /// Whether `expr` *may* be true under the constraints (feasibility).
    ///
    /// `Unknown` results are resolved according to
    /// [`SolverConfig::unknown_is_sat`].
    pub fn may_be_true(&self, constraints: &ConstraintSet, expr: ExprRef) -> bool {
        match self.query(constraints, Some(expr), false) {
            SatResult::Sat(_) => true,
            SatResult::Unsat => false,
            SatResult::Unknown => self.config.unknown_is_sat,
        }
    }

    /// Whether `expr` *must* be true under the constraints (validity).
    pub fn must_be_true(&self, constraints: &ConstraintSet, expr: ExprRef) -> bool {
        !self.may_be_true(constraints, Expr::logical_not(expr))
    }

    /// Classifies `expr` as valid, unsatisfiable, or neither.
    pub fn validity(&self, constraints: &ConstraintSet, expr: ExprRef) -> Validity {
        let can_be_true = self.may_be_true(constraints, expr.clone());
        let can_be_false = self.may_be_true(constraints, Expr::logical_not(expr));
        match (can_be_true, can_be_false) {
            (true, false) => Validity::True,
            (false, true) => Validity::False,
            _ => Validity::Unknown,
        }
    }

    /// Produces a model of the constraint set (a concrete test case).
    pub fn get_model(&self, constraints: &ConstraintSet) -> Option<Assignment> {
        self.check_sat(constraints).model()
    }

    /// Produces one concrete value that `expr` can take under the constraints.
    pub fn get_value(&self, constraints: &ConstraintSet, expr: &ExprRef) -> Option<u64> {
        if let Some(c) = expr.as_const() {
            return Some(c.value());
        }
        let mut model = self.query(constraints, None, true).model()?;
        // Symbols of the query that the path constraints do not mention are
        // unconstrained; bind them to zero so the evaluation is total.
        for sym in collect_symbols(expr) {
            if model.get(sym).is_none() {
                model.set(sym, 0);
            }
        }
        expr.eval(&model).map(|v| v.value())
    }
}

fn learn_widths_rec(e: &ExprRef, widths: &mut BTreeMap<SymbolId, Width>) {
    use c9_expr::ExprKind;
    match e.kind() {
        ExprKind::Sym(id) => {
            widths.insert(*id, e.width());
        }
        ExprKind::Const(_) => {}
        ExprKind::Unary(_, a) | ExprKind::ZExt(a) | ExprKind::SExt(a) | ExprKind::Extract(a, _) => {
            learn_widths_rec(a, widths)
        }
        ExprKind::Binary(_, a, b) | ExprKind::Concat(a, b) => {
            learn_widths_rec(a, widths);
            learn_widths_rec(b, widths);
        }
        ExprKind::Ite(c, t, f) => {
            learn_widths_rec(c, widths);
            learn_widths_rec(t, widths);
            learn_widths_rec(f, widths);
        }
    }
}
