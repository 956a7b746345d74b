//! Constraint sets: ordered collections of 1-bit path constraints, kept
//! partitioned into independence groups as they grow.

use c9_expr::{collect_symbols, Assignment, BinaryOp, Expr, ExprKind, ExprRef, SymbolId, Width};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// An ordered set of path constraints.
///
/// Each constraint is a 1-bit expression that must be true along the current
/// execution path. Two constraints are *dependent* if they share a symbol,
/// directly or transitively through other constraints; the set maintains
/// its partition into independence groups incrementally as constraints are
/// pushed (KLEE's independent element sets), so slicing a query never has
/// to re-traverse the constraints.
///
/// The set also tracks whether a trivially-false constraint (`false` constant)
/// was ever added, which makes the whole set unsatisfiable regardless of the
/// other constraints.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConstraintSet {
    constraints: Vec<ExprRef>,
    trivially_false: bool,
    /// The independence groups, by creation. A group merged into another
    /// is left behind empty, so group indices stay stable.
    groups: Vec<Group>,
    /// The group each referenced symbol belongs to.
    symbol_group: BTreeMap<SymbolId, u32>,
    /// The group holding constraints that mention no symbol at all (which
    /// normally cannot occur, since such constraints fold to constants).
    symbol_free_group: Option<u32>,
}

/// One independence group.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
struct Group {
    /// Indices of the member constraints, in insertion order.
    members: Vec<u32>,
    /// The symbols the members mention.
    symbols: Vec<SymbolId>,
}

impl ConstraintSet {
    /// Creates an empty (trivially satisfiable) constraint set.
    pub fn new() -> ConstraintSet {
        ConstraintSet::default()
    }

    /// Adds a constraint to the set.
    ///
    /// Trivially-true constraints (the constant `1`) are dropped; a
    /// trivially-false constraint marks the whole set unsatisfiable.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the constraint is not 1 bit wide.
    pub fn push(&mut self, constraint: ExprRef) {
        debug_assert_eq!(constraint.width(), Width::W1, "constraints must be boolean");
        if let Some(c) = constraint.as_const() {
            if c.is_true() {
                return;
            }
            self.trivially_false = true;
            return;
        }
        // A top-level conjunction is split into its conjuncts: the solver's
        // per-symbol pruning works best on small independent constraints.
        if let ExprKind::Binary(BinaryOp::And, lhs, rhs) = constraint.kind() {
            self.push(lhs.clone());
            self.push(rhs.clone());
            return;
        }
        let index = self.constraints.len() as u32;
        let symbols = collect_symbols(&constraint);
        self.constraints.push(constraint);
        let group = self.join_groups(&symbols);
        self.groups[group as usize].members.push(index);
    }

    /// Merges every group touching `symbols` into one (a fresh group if
    /// none does), claims `symbols` for it, and returns its index.
    fn join_groups(&mut self, symbols: &BTreeSet<SymbolId>) -> u32 {
        if symbols.is_empty() {
            return *self.symbol_free_group.get_or_insert_with(|| {
                self.groups.push(Group::default());
                self.groups.len() as u32 - 1
            });
        }
        let mut touched: Vec<u32> = symbols
            .iter()
            .filter_map(|s| self.symbol_group.get(s).copied())
            .collect();
        touched.sort_unstable();
        touched.dedup();
        // Relabel the smaller groups into the largest one.
        let target = touched
            .iter()
            .copied()
            .max_by_key(|g| {
                (
                    self.groups[*g as usize].members.len(),
                    std::cmp::Reverse(*g),
                )
            })
            .unwrap_or_else(|| {
                self.groups.push(Group::default());
                self.groups.len() as u32 - 1
            });
        for source in touched.into_iter().filter(|g| *g != target) {
            let merged = std::mem::take(&mut self.groups[source as usize]);
            for s in &merged.symbols {
                self.symbol_group.insert(*s, target);
            }
            let into = &mut self.groups[target as usize];
            into.symbols.extend(merged.symbols);
            into.members = merge_sorted(&into.members, &merged.members);
        }
        for s in symbols {
            if self.symbol_group.insert(*s, target).is_none() {
                self.groups[target as usize].symbols.push(*s);
            }
        }
        target
    }

    /// Returns a copy of this set extended with one more constraint.
    pub fn with(&self, constraint: ExprRef) -> ConstraintSet {
        let mut copy = self.clone();
        copy.push(constraint);
        copy
    }

    /// The constraints, in insertion order.
    pub fn constraints(&self) -> &[ExprRef] {
        &self.constraints
    }

    /// The symbols referenced by any constraint, in ascending order.
    pub fn symbols(&self) -> impl Iterator<Item = SymbolId> + '_ {
        self.symbol_group.keys().copied()
    }

    /// The independence groups, each as its constraints in insertion order.
    /// Groups come in creation order; together they partition the set.
    pub fn groups(&self) -> impl Iterator<Item = Vec<ExprRef>> + '_ {
        self.groups
            .iter()
            .filter(|g| !g.members.is_empty())
            .map(|g| self.members(&g.members))
    }

    /// The constraints (transitively) dependent on any of `query_symbols`:
    /// the union of the groups those symbols belong to, in insertion order.
    pub fn relevant(&self, query_symbols: &BTreeSet<SymbolId>) -> Vec<ExprRef> {
        let mut touched: Vec<u32> = query_symbols
            .iter()
            .filter_map(|s| self.symbol_group.get(s).copied())
            .collect();
        touched.sort_unstable();
        touched.dedup();
        match touched.as_slice() {
            [] => Vec::new(),
            [only] => self.members(&self.groups[*only as usize].members),
            several => {
                let mut members: Vec<u32> = several
                    .iter()
                    .flat_map(|g| self.groups[*g as usize].members.iter().copied())
                    .collect();
                members.sort_unstable();
                self.members(&members)
            }
        }
    }

    fn members(&self, indices: &[u32]) -> Vec<ExprRef> {
        indices
            .iter()
            .map(|i| self.constraints[*i as usize].clone())
            .collect()
    }

    /// Number of (non-trivial) constraints.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// Whether the set contains no constraints.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty() && !self.trivially_false
    }

    /// Whether a constant-false constraint was added.
    pub fn is_trivially_false(&self) -> bool {
        self.trivially_false
    }

    /// Evaluates all constraints under a total assignment.
    ///
    /// Returns `None` if some constraint references an unbound symbol and the
    /// result cannot be decided.
    pub fn eval(&self, assignment: &Assignment) -> Option<bool> {
        if self.trivially_false {
            return Some(false);
        }
        c9_expr::eval_constraints(&self.constraints, assignment)
    }

    /// Builds a single conjunction expression of all constraints (used mainly
    /// for diagnostics).
    pub fn as_conjunction(&self) -> ExprRef {
        if self.trivially_false {
            return Expr::false_();
        }
        let mut acc = Expr::true_();
        for c in &self.constraints {
            acc = Expr::logical_and(acc, c.clone());
        }
        acc
    }

    /// Iterates over the constraints.
    pub fn iter(&self) -> impl Iterator<Item = &ExprRef> {
        self.constraints.iter()
    }
}

/// Merges two ascending index lists.
fn merge_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

impl FromIterator<ExprRef> for ConstraintSet {
    fn from_iter<T: IntoIterator<Item = ExprRef>>(iter: T) -> ConstraintSet {
        let mut set = ConstraintSet::new();
        for c in iter {
            set.push(c);
        }
        set
    }
}
