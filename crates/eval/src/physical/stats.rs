//! Execution statistics: per-operator row counters.
//!
//! Example 3.2's point is that inserting a projection *reduces the size of
//! intermediate results*. To measure that claim (experiment E5) and to
//! report actual cardinalities in EXPLAIN,
//! [`Engine::run_instrumented`](crate::Engine::run_instrumented) registers
//! one counter per plan node that tallies the tuples (with multiplicity)
//! flowing out of it; [`ExecStats`] holds the counters in registration
//! (post-)order. Counters are relaxed atomics, so workers of a parallel
//! pipeline add into them concurrently and the totals do not depend on the
//! worker count.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One plan node's counters.
#[derive(Debug)]
pub(crate) struct OpCounter {
    /// Tuples produced, counted with multiplicity.
    rows_out: AtomicU64,
    /// Attribute values produced (`rows × arity`) — the paper's "size of
    /// intermediate results" is data volume, so narrowing projections
    /// shrink this even when the row count is unchanged.
    cells_out: AtomicU64,
    /// Output arity of the node.
    arity: u64,
}

impl OpCounter {
    /// Records `rows` tuples (with multiplicity) leaving the node.
    pub(crate) fn record(&self, rows: u64) {
        self.rows_out.fetch_add(rows, Ordering::Relaxed);
        self.cells_out
            .fetch_add(rows * self.arity, Ordering::Relaxed);
    }
}

/// Shared execution statistics for one plan.
#[derive(Debug, Default, Clone)]
pub struct ExecStats {
    counters: Vec<(String, Arc<OpCounter>)>,
}

impl ExecStats {
    /// Creates an empty stats registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a counter for a node with the given label and output
    /// arity, returning the handle the pipeline updates.
    pub(crate) fn register(&mut self, label: impl Into<String>, arity: usize) -> Arc<OpCounter> {
        let c = Arc::new(OpCounter {
            rows_out: AtomicU64::new(0),
            cells_out: AtomicU64::new(0),
            arity: arity as u64,
        });
        self.counters.push((label.into(), Arc::clone(&c)));
        c
    }

    /// `(label, rows_out)` per registered node, in registration order
    /// (bottom-up plan order).
    pub fn rows_out(&self) -> Vec<(String, u64)> {
        self.counters
            .iter()
            .map(|(l, c)| (l.clone(), c.rows_out.load(Ordering::Relaxed)))
            .collect()
    }

    /// `(label, cells_out)` per registered node, in registration order
    /// (bottom-up plan order: a node's inputs precede it).
    pub fn cells_out(&self) -> Vec<(String, u64)> {
        self.counters
            .iter()
            .map(|(l, c)| (l.clone(), c.cells_out.load(Ordering::Relaxed)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_track_rows_and_cells() {
        let mut stats = ExecStats::new();
        let scan = stats.register("scan(r)", 3);
        let select = stats.register("select", 3);
        scan.record(5);
        scan.record(1);
        select.record(2);
        assert_eq!(
            stats.rows_out(),
            vec![("scan(r)".to_owned(), 6), ("select".to_owned(), 2)]
        );
        assert_eq!(
            stats.cells_out(),
            vec![("scan(r)".to_owned(), 18), ("select".to_owned(), 6)]
        );
    }
}
