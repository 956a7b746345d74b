//! Unit and property-based tests for the solver.

use crate::{
    classify, independent_groups, relevant_constraints, BitBlastBackend, CacheSlice, ConstraintSet,
    QueryCache, QueryClass, SatResult, SearchBudget, SearchOutcome, ShardedQueryCache, SliceEntry,
    Solver, SolverBackend, SolverBackendKind, SolverConfig, Validity,
};
use c9_expr::{collect_symbols, Assignment, Expr, ExprRef, SymbolId, SymbolManager, Width};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn byte(sym: SymbolId) -> ExprRef {
    Expr::sym(sym, Width::W8)
}

#[test]
fn empty_set_is_sat() {
    let solver = Solver::new();
    let pc = ConstraintSet::new();
    assert!(solver.check_sat(&pc).is_sat());
}

#[test]
fn single_equality_gives_exact_model() {
    let mut m = SymbolManager::new();
    let x = m.fresh("x", Width::W8);
    let mut pc = ConstraintSet::new();
    pc.push(Expr::eq(byte(x), Expr::const_(42, Width::W8)));
    let solver = Solver::new();
    let model = solver.get_model(&pc).expect("sat");
    assert_eq!(model.get(x), Some(42));
}

#[test]
fn contradiction_is_unsat() {
    let mut m = SymbolManager::new();
    let x = m.fresh("x", Width::W8);
    let mut pc = ConstraintSet::new();
    pc.push(Expr::eq(byte(x), Expr::const_(1, Width::W8)));
    pc.push(Expr::eq(byte(x), Expr::const_(2, Width::W8)));
    let solver = Solver::new();
    assert!(solver.check_sat(&pc).is_unsat());
}

#[test]
fn range_constraints_produce_in_range_model() {
    let mut m = SymbolManager::new();
    let x = m.fresh("x", Width::W8);
    let mut pc = ConstraintSet::new();
    pc.push(Expr::ult(byte(x), Expr::const_(100, Width::W8)));
    pc.push(Expr::ult(Expr::const_(90, Width::W8), byte(x)));
    let solver = Solver::new();
    let model = solver.get_model(&pc).expect("sat");
    let v = model.get(x).unwrap();
    assert!(v > 90 && v < 100, "got {v}");
}

#[test]
fn arithmetic_relation_between_symbols() {
    let mut m = SymbolManager::new();
    let x = m.fresh("x", Width::W8);
    let y = m.fresh("y", Width::W8);
    // x + y == 10 and x > y.
    let mut pc = ConstraintSet::new();
    pc.push(Expr::eq(
        Expr::add(byte(x), byte(y)),
        Expr::const_(10, Width::W8),
    ));
    pc.push(Expr::ult(byte(y), byte(x)));
    let solver = Solver::new();
    let model = solver.get_model(&pc).expect("sat");
    let (vx, vy) = (model.get(x).unwrap(), model.get(y).unwrap());
    assert_eq!((vx + vy) & 0xff, 10);
    assert!(vy < vx);
}

#[test]
fn unsat_over_full_byte_domain_is_proved() {
    let mut m = SymbolManager::new();
    let x = m.fresh("x", Width::W8);
    // x*2 == 1 has no solution modulo 256 (left side is always even).
    let mut pc = ConstraintSet::new();
    pc.push(Expr::eq(
        Expr::mul(byte(x), Expr::const_(2, Width::W8)),
        Expr::const_(1, Width::W8),
    ));
    let solver = Solver::new();
    assert!(solver.check_sat(&pc).is_unsat());
}

#[test]
fn may_and_must_be_true() {
    let mut m = SymbolManager::new();
    let x = m.fresh("x", Width::W8);
    let mut pc = ConstraintSet::new();
    pc.push(Expr::ult(byte(x), Expr::const_(10, Width::W8)));
    let solver = Solver::new();

    // x < 20 must hold; x < 5 may hold but need not.
    assert!(solver.must_be_true(&pc, Expr::ult(byte(x), Expr::const_(20, Width::W8))));
    assert!(solver.may_be_true(&pc, Expr::ult(byte(x), Expr::const_(5, Width::W8))));
    assert!(!solver.must_be_true(&pc, Expr::ult(byte(x), Expr::const_(5, Width::W8))));
    // x >= 10 contradicts the constraints.
    assert!(!solver.may_be_true(&pc, Expr::ule(Expr::const_(10, Width::W8), byte(x))));
}

#[test]
fn validity_classification() {
    let mut m = SymbolManager::new();
    let x = m.fresh("x", Width::W8);
    let mut pc = ConstraintSet::new();
    pc.push(Expr::eq(byte(x), Expr::const_(7, Width::W8)));
    let solver = Solver::new();
    assert_eq!(
        solver.validity(&pc, Expr::eq(byte(x), Expr::const_(7, Width::W8))),
        Validity::True
    );
    assert_eq!(
        solver.validity(&pc, Expr::eq(byte(x), Expr::const_(8, Width::W8))),
        Validity::False
    );

    let mut pc2 = ConstraintSet::new();
    pc2.push(Expr::ult(byte(x), Expr::const_(10, Width::W8)));
    assert_eq!(
        solver.validity(&pc2, Expr::eq(byte(x), Expr::const_(3, Width::W8))),
        Validity::Unknown
    );
}

#[test]
fn get_value_concretizes() {
    let mut m = SymbolManager::new();
    let x = m.fresh("x", Width::W8);
    let mut pc = ConstraintSet::new();
    pc.push(Expr::eq(byte(x), Expr::const_(99, Width::W8)));
    let solver = Solver::new();
    let doubled = Expr::mul(byte(x), Expr::const_(2, Width::W8));
    assert_eq!(solver.get_value(&pc, &doubled), Some(198));
    assert_eq!(solver.get_value(&pc, &Expr::const_(5, Width::W32)), Some(5));
}

#[test]
fn wide_symbol_with_bounds() {
    let mut m = SymbolManager::new();
    let n = m.fresh("n", Width::W32);
    let ne = Expr::sym(n, Width::W32);
    let mut pc = ConstraintSet::new();
    pc.push(Expr::ult(ne.clone(), Expr::const_(1000, Width::W32)));
    pc.push(Expr::ult(Expr::const_(500, Width::W32), ne.clone()));
    let solver = Solver::new();
    let model = solver.get_model(&pc).expect("sat");
    let v = model.get(n).unwrap();
    assert!(v > 500 && v < 1000);
}

#[test]
fn multi_byte_word_comparison() {
    // A 32-bit value assembled from 4 symbolic bytes, compared to a magic
    // constant — the typical protocol-parsing constraint shape.
    let mut m = SymbolManager::new();
    let bytes = m.fresh_bytes("hdr", 4);
    let exprs: Vec<_> = bytes.iter().map(|b| byte(*b)).collect();
    let word = Expr::from_le_bytes(&exprs);
    let mut pc = ConstraintSet::new();
    pc.push(Expr::eq(word, Expr::const_(0x1234_5678, Width::W32)));
    let solver = Solver::new();
    let model = solver.get_model(&pc).expect("sat");
    assert_eq!(model.get(bytes[0]), Some(0x78));
    assert_eq!(model.get(bytes[1]), Some(0x56));
    assert_eq!(model.get(bytes[2]), Some(0x34));
    assert_eq!(model.get(bytes[3]), Some(0x12));
}

#[test]
fn caches_report_hits() {
    let mut m = SymbolManager::new();
    let x = m.fresh("x", Width::W8);
    let mut pc = ConstraintSet::new();
    pc.push(Expr::ult(byte(x), Expr::const_(10, Width::W8)));
    let solver = Solver::new();
    assert!(solver.check_sat(&pc).is_sat());
    assert!(solver.check_sat(&pc).is_sat());
    let stats = solver.stats();
    assert!(stats.query_cache_hits + stats.model_cache_hits >= 1);
    assert!(stats.cache_hit_rate() > 0.0);
}

#[test]
fn clearing_caches_forces_research() {
    let mut m = SymbolManager::new();
    let x = m.fresh("x", Width::W8);
    let mut pc = ConstraintSet::new();
    pc.push(Expr::eq(byte(x), Expr::const_(3, Width::W8)));
    let solver = Solver::new();
    assert!(solver.check_sat(&pc).is_sat());
    let searches_before = solver.stats().searches;
    solver.clear_caches();
    assert!(solver.check_sat(&pc).is_sat());
    assert!(solver.stats().searches > searches_before);
}

#[test]
fn disabled_caches_still_correct() {
    let config = SolverConfig {
        enable_model_cache: false,
        enable_query_cache: false,
        ..SolverConfig::default()
    };
    let solver = Solver::with_config(config);
    let mut m = SymbolManager::new();
    let x = m.fresh("x", Width::W8);
    let mut pc = ConstraintSet::new();
    pc.push(Expr::eq(byte(x), Expr::const_(200, Width::W8)));
    assert_eq!(solver.get_model(&pc).unwrap().get(x), Some(200));
    assert_eq!(solver.stats().query_cache_hits, 0);
    assert_eq!(solver.stats().model_cache_hits, 0);
}

#[test]
fn trivially_false_set() {
    let mut pc = ConstraintSet::new();
    pc.push(Expr::false_());
    assert!(pc.is_trivially_false());
    let solver = Solver::new();
    assert!(solver.check_sat(&pc).is_unsat());
}

#[test]
fn independence_groups_split_unrelated_symbols() {
    let mut m = SymbolManager::new();
    let a = m.fresh("a", Width::W8);
    let b = m.fresh("b", Width::W8);
    let c = m.fresh("c", Width::W8);
    let mut pc = ConstraintSet::new();
    pc.push(Expr::ult(byte(a), Expr::const_(5, Width::W8)));
    pc.push(Expr::ult(byte(b), byte(c)));
    pc.push(Expr::ult(byte(c), Expr::const_(100, Width::W8)));
    let groups = independent_groups(&pc);
    assert_eq!(groups.len(), 2);
    let sizes: Vec<usize> = groups.iter().map(|g| g.len()).collect();
    assert!(sizes.contains(&1) && sizes.contains(&2));
}

#[test]
fn relevant_constraints_slices_by_query_symbols() {
    let mut m = SymbolManager::new();
    let a = m.fresh("a", Width::W8);
    let b = m.fresh("b", Width::W8);
    let c = m.fresh("c", Width::W8);
    let mut pc = ConstraintSet::new();
    pc.push(Expr::ult(byte(a), Expr::const_(5, Width::W8)));
    pc.push(Expr::ult(byte(b), byte(c)));
    let query = Expr::eq(byte(a), Expr::const_(1, Width::W8));
    let relevant = relevant_constraints(&pc, &collect_symbols(&query));
    assert_eq!(relevant.len(), 1);
    assert_eq!(collect_symbols(&relevant[0]).len(), 1);
}

#[test]
fn relevant_constraints_follow_transitive_dependencies() {
    let mut m = SymbolManager::new();
    let a = m.fresh("a", Width::W8);
    let b = m.fresh("b", Width::W8);
    let c = m.fresh("c", Width::W8);
    let mut pc = ConstraintSet::new();
    pc.push(Expr::ult(byte(a), byte(b)));
    pc.push(Expr::ult(byte(b), byte(c)));
    let query = Expr::eq(byte(a), Expr::const_(1, Width::W8));
    let relevant = relevant_constraints(&pc, &collect_symbols(&query));
    // Both constraints are needed: a relates to b, b relates to c.
    assert_eq!(relevant.len(), 2);
}

#[test]
fn sliced_query_still_respects_sliced_group_consistency() {
    // Unsatisfiable subgroup unrelated to the query must not block a
    // feasibility answer about an unrelated symbol... but an unsat *related*
    // group must.
    let mut m = SymbolManager::new();
    let a = m.fresh("a", Width::W8);
    let mut pc = ConstraintSet::new();
    pc.push(Expr::ult(byte(a), Expr::const_(5, Width::W8)));
    pc.push(Expr::ult(Expr::const_(10, Width::W8), byte(a)));
    let solver = Solver::new();
    // The whole set is unsat, so nothing may be true over it.
    assert!(!solver.may_be_true(&pc, Expr::eq(byte(a), Expr::const_(1, Width::W8))));
}

#[test]
fn string_match_constraints() {
    // Model the "GET " prefix check that HTTP-like parsers perform.
    let mut m = SymbolManager::new();
    let req = m.fresh_bytes("req", 4);
    let mut pc = ConstraintSet::new();
    for (i, ch) in b"GET ".iter().enumerate() {
        pc.push(Expr::eq(
            byte(req[i]),
            Expr::const_(u64::from(*ch), Width::W8),
        ));
    }
    let solver = Solver::new();
    let model = solver.get_model(&pc).expect("sat");
    let recovered: Vec<u8> = req.iter().map(|s| model.get(*s).unwrap() as u8).collect();
    assert_eq!(&recovered, b"GET ");
}

/// The solver must be shareable across executor threads.
#[test]
fn solver_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Solver>();
}

fn pin_constraint(sym: SymbolId, value: u64) -> ExprRef {
    Expr::eq(byte(sym), Expr::const_(value, Width::W8))
}

#[test]
fn query_cache_eviction_keeps_hot_entries() {
    let mut m = SymbolManager::new();
    let x = m.fresh("x", Width::W8);
    let mut cache = QueryCache::new(8);
    // Fill to capacity with 8 distinct single-constraint queries.
    for v in 0..8u64 {
        cache.insert(&[pin_constraint(x, v)], None, true, None);
    }
    assert_eq!(cache.len(), 8);
    // Touch the first four: their reference bits mark them hot.
    for v in 0..4u64 {
        assert!(cache.get(&[pin_constraint(x, v)], None, true).is_some());
    }
    // Overflow: a segmented second-chance sweep must free one segment
    // (capacity/8 = 1 entry here) without dropping the whole cache.
    cache.insert(&[pin_constraint(x, 8)], None, false, None);
    assert!(cache.len() <= 8, "capacity exceeded: {}", cache.len());
    assert!(
        cache.len() >= 7,
        "wholesale eviction happened: only {} entries survived",
        cache.len()
    );
    assert!(cache.evictions() >= 1);
    // Every hot entry survived the sweep (the cold tail was evicted first).
    for v in 0..4u64 {
        assert!(
            cache.get(&[pin_constraint(x, v)], None, true).is_some(),
            "hot entry {v} was evicted"
        );
    }
    // The newly inserted entry is present with its recorded answer.
    assert_eq!(
        cache.get(&[pin_constraint(x, 8)], None, true),
        Some((false, None))
    );
}

#[test]
fn query_cache_eviction_boundary_exact_capacity() {
    let mut m = SymbolManager::new();
    let x = m.fresh("x", Width::W8);
    let mut cache = QueryCache::new(4);
    // Inserting exactly `capacity` entries must not evict anything.
    for v in 0..4u64 {
        cache.insert(&[pin_constraint(x, v)], None, true, None);
    }
    assert_eq!(cache.len(), 4);
    assert_eq!(cache.evictions(), 0);
    // Re-inserting an existing key updates in place: still no eviction.
    cache.insert(&[pin_constraint(x, 0)], None, true, None);
    assert_eq!(cache.len(), 4);
    assert_eq!(cache.evictions(), 0);
    // The first insert past capacity triggers exactly one segment sweep.
    cache.insert(&[pin_constraint(x, 99)], None, true, None);
    assert!(cache.len() <= 4);
    assert!(cache.evictions() >= 1);
}

#[test]
fn query_cache_survives_sustained_overflow() {
    let mut m = SymbolManager::new();
    let x = m.fresh("x", Width::W8);
    let y = m.fresh("y", Width::W8);
    let mut cache = QueryCache::new(16);
    // One pinned-hot entry, kept alive by touching it between inserts.
    let hot = [pin_constraint(x, 255)];
    cache.insert(&hot, None, true, None);
    for v in 0..200u64 {
        cache.insert(&[pin_constraint(y, v % 251)], None, v % 2 == 0, None);
        assert!(
            cache.get(&hot, None, true).is_some(),
            "hot entry lost at {v}"
        );
        assert!(cache.len() <= 16);
    }
}

#[test]
fn concurrent_solver_preserves_stats_and_cache_monotonicity() {
    let solver = Solver::new();
    const THREADS: u64 = 8;
    const REPEATS: u64 = 50;
    let mut m = SymbolManager::new();
    let x = m.fresh("x", Width::W8);
    let y = m.fresh("y", Width::W8);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let solver = &solver;
            let mut pc = ConstraintSet::new();
            // Every thread shares one constraint (cache-hot across threads)
            // and adds a private one (cache-cold on first use).
            pc.push(Expr::ult(byte(x), Expr::const_(200, Width::W8)));
            pc.push(pin_constraint(y, t));
            scope.spawn(move || {
                for _ in 0..REPEATS {
                    assert!(solver.check_sat(&pc).is_sat());
                    assert!(
                        solver.may_be_true(&pc, Expr::ult(byte(x), Expr::const_(100, Width::W8)))
                    );
                }
            });
        }
    });
    let stats = solver.stats();
    // No lost updates: every query of every thread is accounted for.
    assert_eq!(stats.queries, THREADS * REPEATS * 2);
    assert_eq!(stats.sat, THREADS * REPEATS * 2);
    // The shared cache answered the repeats: far fewer searches than
    // queries, and a healthy hit count.
    assert!(
        stats.query_cache_hits + stats.model_cache_hits >= THREADS * (REPEATS - 1),
        "hits too low: {stats:?}"
    );
    assert!(
        stats.searches <= 4 * THREADS,
        "searches too high: {stats:?}"
    );

    // Cache hits are monotone: asking an already-cached query again can
    // only grow the hit counters.
    let before = solver.stats();
    let mut pc = ConstraintSet::new();
    pc.push(Expr::ult(byte(x), Expr::const_(200, Width::W8)));
    pc.push(pin_constraint(y, 0));
    assert!(solver.check_sat(&pc).is_sat());
    let after = solver.stats();
    assert!(
        after.query_cache_hits + after.model_cache_hits
            > before.query_cache_hits + before.model_cache_hits
    );
}

#[test]
fn canonical_models_are_reproducible() {
    // The model handed to model-returning callers is a pure function of
    // the constraint set: a fresh solver (empty caches) and a warmed-up
    // solver must return the very same assignment.
    let mut m = SymbolManager::new();
    let x = m.fresh("x", Width::W8);
    let y = m.fresh("y", Width::W8);
    let mut pc = ConstraintSet::new();
    pc.push(Expr::ult(byte(x), Expr::const_(50, Width::W8)));
    pc.push(Expr::eq(
        Expr::add(byte(x), byte(y)),
        Expr::const_(60, Width::W8),
    ));

    let warm = Solver::new();
    // Warm the witness cache with a *different* but overlapping query whose
    // model also satisfies `pc` for some values.
    let mut other = ConstraintSet::new();
    other.push(Expr::ult(byte(x), Expr::const_(50, Width::W8)));
    assert!(warm.check_sat(&other).is_sat());
    let warm_model = warm.get_model(&pc).expect("sat");

    let fresh = Solver::new();
    let fresh_model = fresh.get_model(&pc).expect("sat");
    assert_eq!(
        warm_model.get(x),
        fresh_model.get(x),
        "canonical model depends on cache state"
    );
    assert_eq!(warm_model.get(y), fresh_model.get(y));
    // And asking the same solver twice reproduces it as well.
    let again = warm.get_model(&pc).expect("sat");
    assert_eq!(again.get(x), warm_model.get(x));
    assert_eq!(again.get(y), warm_model.get(y));
}

fn slice_for(sym: SymbolId, specs: &[(u64, bool, bool)]) -> CacheSlice {
    CacheSlice {
        entries: specs
            .iter()
            .map(|&(v, hot, with_model)| SliceEntry {
                constraints: vec![pin_constraint(sym, v)],
                query: None,
                sat: true,
                // Models are a pure function of the key, mirroring the
                // canonical-model invariant of real caches.
                model: with_model.then(|| {
                    let mut a = Assignment::new();
                    a.set(sym, v);
                    a
                }),
                hot,
            })
            .collect(),
    }
}

#[test]
fn imported_slice_never_evicts_residents() {
    let mut m = SymbolManager::new();
    let x = m.fresh("x", Width::W8);
    let y = m.fresh("y", Width::W8);
    // 2 entries per shard: small enough that a large import would flush it
    // if imports were allowed to evict.
    let cache = ShardedQueryCache::new(32);
    for v in 0..8u64 {
        cache.insert(&[pin_constraint(x, v)], None, true, None);
    }
    let residents = cache.len();
    // A slice far larger than the whole cache.
    let specs: Vec<(u64, bool, bool)> = (0..200).map(|v| (v % 251, true, false)).collect();
    let big = slice_for(y, &specs);
    cache.merge_slice(&big);
    // Every resident is still answerable — imports only used spare room.
    for v in 0..8u64 {
        assert!(
            cache.get(&[pin_constraint(x, v)], None, false).is_some(),
            "resident {v} evicted by an import"
        );
    }
    assert!(cache.len() >= residents);
}

#[test]
fn reference_bits_survive_slice_merge() {
    let mut m = SymbolManager::new();
    let x = m.fresh("x", Width::W8);
    let cache = ShardedQueryCache::new(256);
    let key = [pin_constraint(x, 7)];
    cache.insert(&key, None, true, None);
    // A hit sets the clock reference bit.
    assert!(cache.get(&key, None, false).is_some());
    // Import the same key (cold, but carrying the canonical model).
    let mut model = Assignment::new();
    model.set(x, 7);
    let slice = CacheSlice {
        entries: vec![SliceEntry {
            constraints: key.to_vec(),
            query: None,
            sat: true,
            model: Some(model.clone()),
            hot: false,
        }],
    };
    assert_eq!(
        cache.merge_slice(&slice),
        0,
        "existing key must merge in place"
    );
    // The re-exported entry still carries the reference bit — the merge
    // neither cleared it nor replaced the entry — and gained the model.
    let exported = cache.export_slice(16);
    let entry = exported
        .entries
        .iter()
        .find(|e| e.constraints == key)
        .expect("merged entry must still be exportable");
    assert!(entry.hot, "reference bit lost in merge");
    assert_eq!(entry.model.as_ref(), Some(&model));
}

#[test]
fn export_slice_ranks_hot_entries_first() {
    let mut m = SymbolManager::new();
    let x = m.fresh("x", Width::W8);
    let cache = ShardedQueryCache::new(256);
    for v in 0..8u64 {
        cache.insert(&[pin_constraint(x, v)], None, true, None);
    }
    for v in [1u64, 4, 6] {
        assert!(cache.get(&[pin_constraint(x, v)], None, false).is_some());
    }
    let slice = cache.export_slice(3);
    assert_eq!(slice.len(), 3);
    assert!(
        slice.entries.iter().all(|e| e.hot),
        "cold entry out-ranked a hot one"
    );
}

#[test]
fn export_slice_for_filters_by_footprint() {
    let mut m = SymbolManager::new();
    let x = m.fresh("x", Width::W8);
    let y = m.fresh("y", Width::W8);
    let cache = ShardedQueryCache::new(256);
    cache.insert(&[pin_constraint(x, 1)], None, true, None);
    cache.insert(&[pin_constraint(y, 2)], None, true, None);
    let footprint: BTreeSet<SymbolId> = [x].into_iter().collect();
    let slice = cache.export_slice_for(&footprint, 16);
    assert_eq!(slice.len(), 1);
    assert!(collect_symbols(&slice.entries[0].constraints[0]).contains(&x));
}

#[test]
fn imported_entries_serve_warm_hits_without_searches() {
    let mut m = SymbolManager::new();
    let x = m.fresh("x", Width::W8);
    let sets: Vec<ConstraintSet> = (0..6u64)
        .map(|v| {
            let mut pc = ConstraintSet::new();
            pc.push(pin_constraint(x, v));
            pc
        })
        .collect();
    let source = Solver::new();
    for pc in &sets {
        assert!(source.check_sat(pc).is_sat());
    }
    let slice = source.export_slice(64);
    assert!(slice.len() >= sets.len());

    let sink = Solver::new();
    assert_eq!(sink.import_slice(&slice) as usize, slice.len());
    for pc in &sets {
        assert!(sink.check_sat(pc).is_sat());
    }
    let stats = sink.stats();
    assert_eq!(
        stats.searches, 0,
        "imported answers should spare all searches"
    );
    assert_eq!(stats.imported_cache_entries as usize, slice.len());
    assert_eq!(stats.warm_hits, sets.len() as u64);
    assert!(stats.warm_hit_rate() > 0.99);

    // Imported canonical models are authoritative for the exact key: the
    // sink returns the same model a fresh solver would compute itself.
    let fresh = Solver::new();
    for pc in &sets {
        assert_eq!(
            sink.get_model(pc).unwrap().get(x),
            fresh.get_model(pc).unwrap().get(x)
        );
    }
}

#[test]
fn bitblast_backend_agrees_on_small_queries() {
    let mut m = SymbolManager::new();
    let x = m.fresh("x", Width::W8);
    let widths: std::collections::BTreeMap<SymbolId, Width> =
        [(x, Width::W8)].into_iter().collect();
    let budget = SearchBudget::default();

    // Sat: verified witness.
    let sat = [pin_constraint(x, 42)];
    match BitBlastBackend.solve(&sat, &widths, budget) {
        SearchOutcome::Sat(model) => {
            assert_eq!(c9_expr::eval_constraints(&sat, &model), Some(true));
            assert_eq!(model.get(x), Some(42));
        }
        other => panic!("expected sat, got {other:?}"),
    }

    // Unsat over an exhaustive byte domain is proved.
    let unsat = [pin_constraint(x, 1), pin_constraint(x, 2)];
    assert_eq!(
        BitBlastBackend.solve(&unsat, &widths, budget),
        SearchOutcome::Unsat
    );
}

#[test]
fn backend_selection_table_is_class_driven() {
    let mut m = SymbolManager::new();
    let x = m.fresh("x", Width::W8);
    let n = m.fresh("n", Width::W64);
    let tiny: std::collections::BTreeMap<SymbolId, Width> = [(x, Width::W8)].into_iter().collect();
    let wide: std::collections::BTreeMap<SymbolId, Width> = [(n, Width::W64)].into_iter().collect();
    assert_eq!(classify(&tiny), QueryClass::Tiny);
    assert_eq!(classify(&wide), QueryClass::Wide);
    let budget = SearchBudget::default();
    // Canonical never consults the alternative backend.
    assert!(crate::alt_budget(SolverBackendKind::Canonical, QueryClass::Tiny, budget).is_none());
    // Wide queries never go to the bit-blaster (its search is bit-depth
    // exponential without exhaustive domains).
    assert!(crate::alt_budget(SolverBackendKind::BitBlast, QueryClass::Wide, budget).is_none());
    assert!(crate::alt_budget(SolverBackendKind::Race, QueryClass::Wide, budget).is_none());
    // Race mode throttles the witness finder to a budget slice.
    let race = crate::alt_budget(SolverBackendKind::Race, QueryClass::Tiny, budget).unwrap();
    assert!(race.max_nodes < budget.max_nodes);
}

#[test]
fn backend_choice_is_invisible_to_the_engine() {
    // Same queries, three backend kinds: identical feasibility decisions
    // and identical canonical models — the determinism contract that lets
    // racing be enabled per worker without perturbing path sets.
    let kinds = [
        SolverBackendKind::Canonical,
        SolverBackendKind::BitBlast,
        SolverBackendKind::Race,
    ];
    let mut decisions: Vec<Vec<bool>> = Vec::new();
    let mut models: Vec<Vec<Option<u64>>> = Vec::new();
    for kind in kinds {
        let solver = Solver::with_config(SolverConfig {
            backend: kind,
            ..SolverConfig::default()
        });
        let mut m = SymbolManager::new();
        let x = m.fresh("x", Width::W8);
        let y = m.fresh("y", Width::W8);
        let n = m.fresh("n", Width::W32);
        let mut pc = ConstraintSet::new();
        pc.push(Expr::ult(byte(x), Expr::const_(100, Width::W8)));
        pc.push(Expr::eq(
            Expr::add(byte(x), byte(y)),
            Expr::const_(120, Width::W8),
        ));
        pc.push(Expr::ult(
            Expr::sym(n, Width::W32),
            Expr::const_(1000, Width::W32),
        ));
        let queries = [
            Expr::ult(byte(x), Expr::const_(50, Width::W8)),
            Expr::eq(byte(y), Expr::const_(30, Width::W8)),
            Expr::ult(Expr::sym(n, Width::W32), Expr::const_(5, Width::W32)),
            Expr::eq(byte(x), Expr::const_(200, Width::W8)),
        ];
        decisions.push(
            queries
                .iter()
                .map(|q| solver.may_be_true(&pc, q.clone()))
                .collect(),
        );
        let model = solver.get_model(&pc).expect("sat");
        models.push(vec![model.get(x), model.get(y), model.get(n)]);
    }
    assert_eq!(decisions[0], decisions[1], "bitblast changed a decision");
    assert_eq!(decisions[0], decisions[2], "race changed a decision");
    assert_eq!(models[0], models[1], "bitblast changed the canonical model");
    assert_eq!(models[0], models[2], "race changed the canonical model");
}

/// The union-find slicer the incremental groups replaced, kept as the
/// reference the property tests compare against.
fn reference_groups(set: &ConstraintSet) -> Vec<Vec<ExprRef>> {
    fn find(parent: &mut BTreeMap<SymbolId, SymbolId>, x: SymbolId) -> SymbolId {
        let p = *parent.entry(x).or_insert(x);
        if p == x {
            return x;
        }
        let root = find(parent, p);
        parent.insert(x, root);
        root
    }
    let mut parent = BTreeMap::new();
    let syms: Vec<BTreeSet<SymbolId>> = set.iter().map(collect_symbols).collect();
    for cs in &syms {
        let mut it = cs.iter();
        if let Some(first) = it.next() {
            for s in it {
                let (ra, rb) = (find(&mut parent, *first), find(&mut parent, *s));
                if ra != rb {
                    parent.insert(ra, rb);
                }
            }
        }
    }
    let mut groups: BTreeMap<Option<SymbolId>, Vec<ExprRef>> = BTreeMap::new();
    for (c, cs) in set.iter().zip(&syms) {
        let key = cs.iter().next().map(|s| find(&mut parent, *s));
        groups.entry(key).or_default().push(c.clone());
    }
    let mut result: Vec<Vec<ExprRef>> = groups.into_values().collect();
    result.sort_by_key(|g| {
        g.iter()
            .flat_map(collect_symbols)
            .min()
            .map_or(u32::MAX, |s| s.0)
    });
    result
}

/// The fixpoint slicer the incremental groups replaced (reference).
fn reference_relevant(set: &ConstraintSet, query: &BTreeSet<SymbolId>) -> Vec<ExprRef> {
    let mut closure = query.clone();
    let syms: Vec<BTreeSet<SymbolId>> = set.iter().map(collect_symbols).collect();
    let mut included = vec![false; syms.len()];
    let mut changed = !query.is_empty();
    while changed {
        changed = false;
        for (i, cs) in syms.iter().enumerate() {
            if !included[i] && cs.iter().any(|s| closure.contains(s)) {
                included[i] = true;
                for s in cs {
                    changed |= closure.insert(*s);
                }
            }
        }
    }
    set.iter()
        .zip(included)
        .filter(|(_, inc)| *inc)
        .map(|(c, _)| c.clone())
        .collect()
}

/// A byte constraint over up to three of `syms`, from a small template
/// table: `(template, a, b, c, k)` picks the shape, the symbols and the
/// constant.
fn template_constraint(
    syms: &[SymbolId],
    (t, a, b, c, k): (u8, usize, usize, usize, u8),
) -> ExprRef {
    let n = syms.len();
    let x = byte(syms[a % n]);
    // Distinct partners, so `x ^ x` and friends cannot fold to constants.
    let y = byte(syms[(a + 1 + b % (n - 1)) % n]);
    let k = Expr::const_(u64::from(k), Width::W8);
    match t % 7 {
        0 => Expr::ult(x, k),
        1 => Expr::eq(x, k),
        2 => Expr::ne(x, k),
        3 => Expr::ult(k, x),
        4 => Expr::eq(Expr::add(x, y), k),
        5 => Expr::ult(Expr::xor(x, y), k),
        _ => {
            let z = byte(syms[c % n]);
            Expr::ult(Expr::add(Expr::add(x, y), z), k)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For arbitrary push sequences the incremental groups and slices
    /// equal the union-find / fixpoint reference.
    #[test]
    fn prop_incremental_groups_match_the_fixpoint_reference(
        pushes in proptest::collection::vec(
            ((0u8..7, 0usize..8, 0usize..8), (0usize..8, any::<u8>())),
            0..24,
        ),
        queries in proptest::collection::vec(proptest::collection::vec(0usize..10, 0..3), 1..6),
    ) {
        let mut m = SymbolManager::new();
        let syms: Vec<SymbolId> = (0..10).map(|i| m.fresh(&format!("s{i}"), Width::W8)).collect();
        let mut pc = ConstraintSet::new();
        for ((t, a, b), (c, k)) in pushes {
            pc.push(template_constraint(&syms[..8], (t, a, b, c, k)));
            prop_assert_eq!(independent_groups(&pc), reference_groups(&pc));
            for q in &queries {
                let q: BTreeSet<SymbolId> = q.iter().map(|i| syms[*i]).collect();
                prop_assert_eq!(relevant_constraints(&pc, &q), reference_relevant(&pc, &q));
            }
        }
    }

    /// For random small constraint sets, the merged per-group model is
    /// the canonical model of a search over the whole set.
    #[test]
    fn prop_per_group_models_equal_the_full_search(
        pushes in proptest::collection::vec(
            ((0u8..7, 0usize..4, 0usize..4), (0usize..4, any::<u8>())),
            1..7,
        ),
    ) {
        let mut m = SymbolManager::new();
        let syms: Vec<SymbolId> = (0..4).map(|i| m.fresh(&format!("s{i}"), Width::W8)).collect();
        let mut pc = ConstraintSet::new();
        for ((t, a, b), (c, k)) in pushes {
            pc.push(template_constraint(&syms, (t, a, b, c, k)));
        }
        let widths: BTreeMap<SymbolId, Width> = pc.symbols().map(|s| (s, Width::W8)).collect();
        // A small budget keeps the undecidable-in-budget cases cheap.
        let budget = SearchBudget { max_nodes: 20_000 };
        let full = crate::search::search(pc.constraints(), &widths, budget, None);
        let solver = Solver::with_config(SolverConfig { budget, ..SolverConfig::default() });
        let grouped = solver.check_sat(&pc);
        match (&full, &grouped) {
            (SearchOutcome::Sat(a), SatResult::Sat(b)) => prop_assert_eq!(a, b),
            (SearchOutcome::Unsat, SatResult::Unsat) => {}
            // Per-group budgets can only decide more, never contradict.
            (SearchOutcome::Unknown, _) => {}
            _ => prop_assert!(false, "full {:?} vs per-group {:?}", full, grouped),
        }
    }


    /// Slice merge is commutative and associative (the key-join union with
    /// OR-ed hot bits and prefer-present models), given the purity
    /// invariant that identical keys carry identical answers.
    #[test]
    fn prop_slice_merge_commutative_associative(
        a in proptest::collection::vec((0u64..8, any::<bool>(), any::<bool>()), 0..10),
        b in proptest::collection::vec((0u64..8, any::<bool>(), any::<bool>()), 0..10),
        c in proptest::collection::vec((0u64..8, any::<bool>(), any::<bool>()), 0..10),
    ) {
        let mut m = SymbolManager::new();
        let x = m.fresh("x", Width::W8);
        let (a, b, c) = (slice_for(x, &a), slice_for(x, &b), slice_for(x, &c));
        let merged = |l: &CacheSlice, r: &CacheSlice| {
            let mut out = l.clone();
            out.merge(r);
            out
        };
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
        prop_assert_eq!(
            merged(&merged(&a, &b), &c),
            merged(&a, &merged(&b, &c))
        );
        // Merging a slice into itself is the identity (idempotence).
        let aa = merged(&a, &a);
        prop_assert_eq!(merged(&aa, &a), aa);
    }

    /// Any model returned by the solver actually satisfies the constraints.
    #[test]
    fn prop_models_satisfy_constraints(bound in 1u8..=255, target in 0u8..=254) {
        let mut m = SymbolManager::new();
        let x = m.fresh("x", Width::W8);
        let y = m.fresh("y", Width::W8);
        let mut pc = ConstraintSet::new();
        pc.push(Expr::ult(byte(x), Expr::const_(u64::from(bound), Width::W8)));
        pc.push(Expr::eq(
            Expr::xor(byte(x), byte(y)),
            Expr::const_(u64::from(target), Width::W8),
        ));
        let solver = Solver::new();
        match solver.check_sat(&pc) {
            SatResult::Sat(model) => {
                prop_assert_eq!(pc.eval(&model), Some(true));
            }
            SatResult::Unsat => {
                // Only possible when no x < bound exists, i.e. never for bound >= 1.
                prop_assert!(false, "unexpected unsat");
            }
            SatResult::Unknown => prop_assert!(false, "unexpected unknown"),
        }
    }

    /// A constraint pinning each byte to a concrete value is always sat and
    /// the model reproduces exactly those bytes.
    #[test]
    fn prop_pinned_bytes_recovered(data in proptest::collection::vec(any::<u8>(), 1..12)) {
        let mut m = SymbolManager::new();
        let syms = m.fresh_bytes("d", data.len());
        let mut pc = ConstraintSet::new();
        for (s, b) in syms.iter().zip(&data) {
            pc.push(Expr::eq(byte(*s), Expr::const_(u64::from(*b), Width::W8)));
        }
        let solver = Solver::new();
        let model = solver.get_model(&pc).expect("must be sat");
        for (s, b) in syms.iter().zip(&data) {
            prop_assert_eq!(model.get(*s), Some(u64::from(*b)));
        }
    }

    /// must_be_true and may_be_true are consistent: a valid expression is
    /// also feasible (on a satisfiable constraint set).
    #[test]
    fn prop_validity_implies_feasibility(limit in 1u8..200) {
        let mut m = SymbolManager::new();
        let x = m.fresh("x", Width::W8);
        let mut pc = ConstraintSet::new();
        pc.push(Expr::ult(byte(x), Expr::const_(u64::from(limit), Width::W8)));
        let solver = Solver::new();
        let q = Expr::ult(byte(x), Expr::const_(u64::from(limit) + 1, Width::W8));
        if solver.must_be_true(&pc, q.clone()) {
            prop_assert!(solver.may_be_true(&pc, q));
        }
    }
}
