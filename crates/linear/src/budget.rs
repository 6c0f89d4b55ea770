//! Cooperative work budgets for the solvers.
//!
//! Exact-rational simplex has no useful a-priori bound on pivot count, so
//! callers that must meet deadlines (interactive tools, CI, servers) need a
//! way to interrupt a solve that is taking too long. The [`WorkBudget`]
//! trait is the hook: the pivot loop charges one unit per iteration and
//! stops with [`LinearError::Interrupted`](crate::LinearError::Interrupted)
//! as soon as a charge is refused. The trait is deliberately minimal so
//! higher layers (deadlines, step counters, cancellation flags — see
//! `cr-core`'s `Budget`) can implement it without this crate knowing about
//! clocks or atomics.

/// A cooperative work meter threaded through the solvers' inner loops.
///
/// Implementations must be cheap (called once per simplex pivot) and
/// idempotent on refusal: once `consume` returns `false` it should keep
/// returning `false` so interrupted solves stay interrupted.
pub trait WorkBudget {
    /// Charges `units` of work against the budget. Returning `false`
    /// signals exhaustion: the solver abandons the computation and
    /// reports [`LinearError::Interrupted`](crate::LinearError::Interrupted).
    fn consume(&self, units: u64) -> bool;

    /// Observability hook: the solver reports the dimensions of each
    /// standard-form tableau it builds (rows × columns, before any row
    /// elimination). Purely informational — the default does nothing, and
    /// implementations must not refuse work here. Higher layers use it to
    /// record peak problem sizes without this crate depending on their
    /// metrics machinery.
    fn note_tableau(&self, _rows: usize, _cols: usize) {}

    /// Observability hook: once per solve that built a tableau, whether or
    /// not it finished, the solver reports the most `(column, value)`
    /// entries its tableau rows stored at once. Rows are sparse, so this —
    /// not rows × columns — is the tableau's size in exact rationals.
    /// Purely informational, like [`note_tableau`](Self::note_tableau).
    fn note_peak_entries(&self, _entries: usize) {}
}

/// The budget that never runs out — used by the ungoverned entry points
/// ([`solve`](crate::solve), [`optimize`](crate::optimize)).
#[derive(Clone, Copy, Debug, Default)]
pub struct Unlimited;

impl WorkBudget for Unlimited {
    fn consume(&self, _units: u64) -> bool {
        true
    }
}

impl<B: WorkBudget + ?Sized> WorkBudget for &B {
    fn consume(&self, units: u64) -> bool {
        (**self).consume(units)
    }

    fn note_tableau(&self, rows: usize, cols: usize) {
        (**self).note_tableau(rows, cols);
    }

    fn note_peak_entries(&self, entries: usize) {
        (**self).note_peak_entries(entries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Capped {
        left: AtomicU64,
    }

    impl WorkBudget for Capped {
        fn consume(&self, units: u64) -> bool {
            // fetch_update returns Err when the closure declines.
            self.left
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |left| {
                    left.checked_sub(units)
                })
                .is_ok()
        }
    }

    #[test]
    fn unlimited_never_refuses() {
        assert!(Unlimited.consume(u64::MAX));
        assert!(Unlimited.consume(0));
    }

    #[test]
    fn capped_refuses_after_exhaustion() {
        let b = Capped {
            left: AtomicU64::new(3),
        };
        assert!(b.consume(2));
        assert!(b.consume(1));
        assert!(!b.consume(1));
        assert!(!b.consume(1), "stays refused");
    }

    #[test]
    fn reference_delegates() {
        let b = Capped {
            left: AtomicU64::new(1),
        };
        let r: &dyn WorkBudget = &b;
        assert!(r.consume(1));
        assert!(!(&r).consume(1));
    }
}
