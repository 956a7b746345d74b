//! Solver statistics.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters describing the work a [`crate::Solver`] has performed.
///
/// These feed the per-worker statistics that Cloud9 workers report to the
/// load balancer and that the evaluation harness aggregates. The live
/// counters inside a solver are [`AtomicSolverStats`] (many executor threads
/// share one solver); this struct is the serializable snapshot that crosses
/// the wire.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolverStats {
    /// Total satisfiability queries issued (feasibility + validity + model),
    /// one per public solver call.
    pub queries: u64,
    /// Cache lookups answered from the query cache. A feasibility query
    /// makes one lookup; a model query makes one per independence group.
    pub query_cache_hits: u64,
    /// Cache lookups answered by re-using a cached model.
    pub model_cache_hits: u64,
    /// Cache lookups that required a backtracking search. Every lookup is
    /// exactly one of a query-cache hit, a model-cache hit or a search.
    pub searches: u64,
    /// Searches that ended with `Unknown` (budget exhausted or incomplete
    /// domain enumeration).
    pub unknowns: u64,
    /// Queries proved unsatisfiable.
    pub unsat: u64,
    /// Queries proved satisfiable.
    pub sat: u64,
    /// Queries whose constraint set was reduced by independence slicing
    /// (at least one independent constraint group was dropped).
    pub independence_slices: u64,
    /// Query-cache entries added by importing [`crate::CacheSlice`]s from
    /// other workers (job-batch piggyback, status gossip, or the
    /// coordinator's cluster hot set).
    pub imported_cache_entries: u64,
    /// Query-cache hits served by an imported entry — the lookups this
    /// worker did not have to re-solve because a sibling already had.
    pub warm_hits: u64,
}

impl SolverStats {
    /// Merges another stats snapshot into this one.
    pub fn merge(&mut self, other: &SolverStats) {
        self.queries += other.queries;
        self.query_cache_hits += other.query_cache_hits;
        self.model_cache_hits += other.model_cache_hits;
        self.searches += other.searches;
        self.unknowns += other.unknowns;
        self.unsat += other.unsat;
        self.sat += other.sat;
        self.independence_slices += other.independence_slices;
        self.imported_cache_entries += other.imported_cache_entries;
        self.warm_hits += other.warm_hits;
    }

    /// Fraction of cache lookups answered by either cache, in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        let hits = self.query_cache_hits + self.model_cache_hits;
        let lookups = hits + self.searches;
        if lookups == 0 {
            return 0.0;
        }
        hits as f64 / lookups as f64
    }

    /// Fraction of query-cache hits served by imported entries, in
    /// `[0, 1]` — how much of the cache's value came from siblings.
    pub fn warm_hit_rate(&self) -> f64 {
        if self.query_cache_hits == 0 {
            return 0.0;
        }
        self.warm_hits as f64 / self.query_cache_hits as f64
    }
}

/// Lock-free live counters of a shared [`crate::Solver`].
///
/// Every counter is a relaxed atomic: executor threads bump them
/// concurrently and only aggregate totals are ever observed, so no ordering
/// between counters is required. [`AtomicSolverStats::snapshot`] produces
/// the serializable [`SolverStats`] view.
#[derive(Debug, Default)]
pub struct AtomicSolverStats {
    queries: AtomicU64,
    query_cache_hits: AtomicU64,
    model_cache_hits: AtomicU64,
    searches: AtomicU64,
    unknowns: AtomicU64,
    unsat: AtomicU64,
    sat: AtomicU64,
    independence_slices: AtomicU64,
}

macro_rules! bump {
    ($($method:ident => $field:ident),* $(,)?) => {
        $(
            #[doc = concat!("Increments the `", stringify!($field), "` counter.")]
            pub fn $method(&self) {
                self.$field.fetch_add(1, Ordering::Relaxed);
            }
        )*
    };
}

impl AtomicSolverStats {
    bump! {
        inc_queries => queries,
        inc_query_cache_hits => query_cache_hits,
        inc_model_cache_hits => model_cache_hits,
        inc_searches => searches,
        inc_unknowns => unknowns,
        inc_unsat => unsat,
        inc_sat => sat,
        inc_independence_slices => independence_slices,
    }

    /// A point-in-time copy of all counters.
    pub fn snapshot(&self) -> SolverStats {
        SolverStats {
            queries: self.queries.load(Ordering::Relaxed),
            query_cache_hits: self.query_cache_hits.load(Ordering::Relaxed),
            model_cache_hits: self.model_cache_hits.load(Ordering::Relaxed),
            searches: self.searches.load(Ordering::Relaxed),
            unknowns: self.unknowns.load(Ordering::Relaxed),
            unsat: self.unsat.load(Ordering::Relaxed),
            sat: self.sat.load(Ordering::Relaxed),
            independence_slices: self.independence_slices.load(Ordering::Relaxed),
            // Sourced from the query-cache counters, not atomics here:
            // `Solver::stats` overlays them on this snapshot.
            imported_cache_entries: 0,
            warm_hits: 0,
        }
    }
}
