//! Independence slicing of constraint sets.
//!
//! Two constraints are *dependent* if they share a symbol (directly or
//! transitively through other constraints). A query only needs the
//! constraints that are dependent on the symbols it mentions; the rest of the
//! path condition cannot influence the answer. This mirrors the independent
//! constraint-set optimization in KLEE, on which Cloud9 builds.
//!
//! [`ConstraintSet`] maintains its independence groups incrementally as
//! constraints are pushed; these functions are views of those groups.

use crate::ConstraintSet;
use c9_expr::{collect_symbols, ExprRef, SymbolId};
use std::collections::BTreeSet;

/// Splits a constraint set into groups of mutually dependent constraints,
/// ordered by the smallest symbol each group mentions, each in insertion
/// order.
///
/// Constraints that reference no symbols at all (which normally cannot occur,
/// since such constraints fold to constants) form one group of their own,
/// ordered last.
pub fn independent_groups(set: &ConstraintSet) -> Vec<Vec<ExprRef>> {
    let mut groups: Vec<Vec<ExprRef>> = set.groups().collect();
    groups.sort_by_cached_key(|group| {
        group
            .iter()
            .flat_map(collect_symbols)
            .min()
            .map_or(u32::MAX, |s| s.0)
    });
    groups
}

/// Returns the constraints of `set` that are (transitively) dependent on any
/// of `query_symbols`, i.e. the slice that is sufficient to answer a query
/// over those symbols, in insertion order.
pub fn relevant_constraints(
    set: &ConstraintSet,
    query_symbols: &BTreeSet<SymbolId>,
) -> Vec<ExprRef> {
    set.relevant(query_symbols)
}
