//! Sparse exact-rational simplex tableau with Bland's anti-cycling rule.
//!
//! The tableau solves problems already in standard form:
//! `min c·y  s.t.  A y = b,  y >= 0,  b >= 0`, with an initial basis
//! supplied by the caller: the slack of every inequality row whose slack
//! enters with +1, which covers all of Ψ_S's homogeneous rows, and an
//! artificial column on every other row. Phase 1 minimizes the sum of the
//! artificials and stops as soon as that sum is zero; an artificial that
//! starts at zero costs no phase-1 pivot, only an eviction.
//!
//! Each constraint row stores only its nonzero `(column, value)` entries, in
//! increasing column order, plus its right-hand side. Ψ_S rows carry a few
//! ±1 and small-bound coefficients, and every exact operation allocates and
//! normalizes by a gcd, so pivots, the ratio test and pricing touch stored
//! entries only. The reduced-cost row stays dense: pricing scans it for the
//! first negative entry.
//!
//! The pivot rule is Bland's, exactly as in the dense tableau this replaced
//! (kept as the test reference in `reference.rs`). Sparsity changes which
//! cells are visited, never which pivot is chosen, so every solve takes the
//! same pivot sequence and yields the same basis. That turns exactness into
//! a test — identical pivots and witnesses on random systems — rather than
//! an argument.

use cr_rational::Rational;

use crate::budget::WorkBudget;
use crate::error::LinearError;

/// Result of running the pivot loop on one objective.
#[derive(Debug, PartialEq, Eq)]
pub(super) enum PivotOutcome {
    /// No improving column remains; the current basis is optimal.
    Optimal,
    /// An improving column had no positive entry: the objective is
    /// unbounded below.
    Unbounded,
}

/// One constraint row: `Σ entries = rhs`.
#[derive(Default)]
pub(super) struct Row {
    /// Nonzero coefficients, strictly increasing by column.
    pub(super) entries: Vec<(usize, Rational)>,
    pub(super) rhs: Rational,
}

impl Row {
    /// The coefficient in column `col`, if nonzero.
    fn coeff(&self, col: usize) -> Option<&Rational> {
        self.entries
            .binary_search_by_key(&col, |&(j, _)| j)
            .ok()
            .map(|k| &self.entries[k].1)
    }

    /// `self -= factor · pivot`, merging the two sorted entry lists and
    /// dropping entries that cancel. `spare` is an empty buffer that becomes
    /// the new entry list; the old list's buffer is handed back through it.
    fn sub_scaled(&mut self, factor: &Rational, pivot: &Row, spare: &mut Vec<(usize, Rational)>) {
        let mut old = std::mem::replace(&mut self.entries, std::mem::take(spare));
        let mut mine = old.drain(..).peekable();
        for (j, p) in &pivot.entries {
            while let Some(entry) = mine.next_if(|(k, _)| k < j) {
                self.entries.push(entry);
            }
            let delta = factor * p;
            match mine.next_if(|(k, _)| k == j) {
                Some((_, v)) => {
                    let v = v - delta;
                    if !v.is_zero() {
                        self.entries.push((*j, v));
                    }
                }
                None => self.entries.push((*j, -delta)),
            }
        }
        self.entries.extend(mine);
        *spare = old;
        self.rhs -= factor * &pivot.rhs;
    }

    /// `dense -= scale · self` on a dense row whose last cell holds the
    /// right-hand side.
    fn sub_scaled_from(&self, scale: &Rational, dense: &mut [Rational]) {
        for (j, v) in &self.entries {
            dense[*j] -= scale * v;
        }
        *dense.last_mut().expect("dense row has an rhs cell") -= scale * &self.rhs;
    }
}

pub(super) struct Tableau {
    rows: Vec<Row>,
    /// `basis[i]` is the column currently basic in row `i`.
    basis: Vec<usize>,
    /// Reduced-cost row (`ncols + 1` entries; the last is minus the current
    /// objective value).
    cost: Vec<Rational>,
    /// Number of variable columns (excluding the RHS).
    ncols: usize,
    /// Columns at or beyond this index are artificial: banned from entering
    /// the basis once phase 1 completes.
    art_start: usize,
    phase_one_done: bool,
    /// The most row entries stored at once so far.
    peak_entries: usize,
    /// Empty entry buffer recycled by [`Row::sub_scaled`].
    spare: Vec<(usize, Rational)>,
    /// Every (entering, leaving) column pair pivoted on, in order.
    #[cfg(test)]
    pub(super) pivots: Vec<(usize, usize)>,
}

impl Tableau {
    /// Builds a tableau from prepared rows. Every row must have a
    /// nonnegative RHS and sorted nonzero entries below `ncols`, and
    /// `basis[i]` must index a column whose entry in row `i` is `1` and
    /// which no other row stores.
    pub(super) fn new(rows: Vec<Row>, basis: Vec<usize>, ncols: usize, art_start: usize) -> Self {
        debug_assert_eq!(rows.len(), basis.len());
        debug_assert!(rows.iter().all(|r| {
            !r.rhs.is_negative()
                && r.entries.windows(2).all(|w| w[0].0 < w[1].0)
                && r.entries.iter().all(|(j, v)| *j < ncols && !v.is_zero())
        }));
        let peak_entries = rows.iter().map(|r| r.entries.len()).sum();
        Tableau {
            rows,
            basis,
            cost: vec![Rational::zero(); ncols + 1],
            ncols,
            art_start,
            phase_one_done: false,
            peak_entries,
            spare: Vec::new(),
            #[cfg(test)]
            pivots: Vec::new(),
        }
    }

    /// Number of constraint rows currently in the tableau.
    pub(super) fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// The most row entries the tableau has stored at once — its size in
    /// exact rationals, which fill-in during pivots can grow.
    pub(super) fn peak_entries(&self) -> usize {
        self.peak_entries
    }

    /// Runs phase 1 (minimize the sum of artificial variables). Returns
    /// `Ok(true)` iff the underlying system is feasible. The sum cannot go
    /// below zero, so the loop stops as soon as it reaches zero rather than
    /// pricing further degenerate pivots; a basis whose artificials all
    /// start at zero makes no phase-1 pivot and charges nothing, as one
    /// without artificials does. Afterwards all artificial variables are
    /// out of the basis (redundant rows are dropped) and banned from
    /// re-entering. Each pivot iteration charges one unit against
    /// `budget`; a refused charge aborts with [`LinearError::Interrupted`].
    pub(super) fn phase_one(&mut self, budget: &dyn WorkBudget) -> Result<bool, LinearError> {
        assert!(!self.phase_one_done, "phase_one run twice");
        self.phase_one_done = true;
        if self.art_start == self.ncols {
            // No artificials: the supplied slack basis is already feasible.
            return Ok(true);
        }
        // Objective: sum of artificial columns.
        let mut cost = vec![Rational::zero(); self.ncols + 1];
        for c in &mut cost[self.art_start..self.ncols] {
            *c = Rational::one();
        }
        self.install_cost(cost);

        let outcome = self.pivot_loop(self.ncols, true, budget)?; // artificials may enter in phase 1
        debug_assert_eq!(
            outcome,
            PivotOutcome::Optimal,
            "phase 1 cannot be unbounded"
        );

        if self.objective_value().is_positive() {
            return Ok(false);
        }
        self.evict_artificials();
        Ok(true)
    }

    /// Installs `objective` (to be minimized; entries indexed by column) and
    /// runs phase 2. Requires a feasible basis from [`phase_one`].
    pub(super) fn phase_two(
        &mut self,
        objective: &[Rational],
        budget: &dyn WorkBudget,
    ) -> Result<PivotOutcome, LinearError> {
        assert!(self.phase_one_done, "phase_two before phase_one");
        let mut cost = vec![Rational::zero(); self.ncols + 1];
        cost[..objective.len()].clone_from_slice(objective);
        self.install_cost(cost);
        self.pivot_loop(self.art_start, false, budget)
    }

    /// Expresses `cost` over the nonbasic columns by subtracting every row
    /// whose basic column it charges, and makes it the reduced-cost row.
    fn install_cost(&mut self, mut cost: Vec<Rational>) {
        for (row, &b) in self.rows.iter().zip(&self.basis) {
            if !cost[b].is_zero() {
                let scale = cost[b].clone();
                row.sub_scaled_from(&scale, &mut cost);
            }
        }
        self.cost = cost;
    }

    /// The current objective value (meaningful after a phase).
    pub(super) fn objective_value(&self) -> Rational {
        -self.cost[self.ncols].clone()
    }

    /// The value of column `j` in the current basic solution.
    pub(super) fn column_value(&self, j: usize) -> Rational {
        for (i, &b) in self.basis.iter().enumerate() {
            if b == j {
                return self.rows[i].rhs.clone();
            }
        }
        Rational::zero()
    }

    /// Bland's-rule pivot loop: entering column is the smallest-index column
    /// below `col_limit` with negative reduced cost; leaving row attains the
    /// minimum ratio, ties broken by smallest basic column index. With
    /// `stop_at_zero` the loop also ends, before pricing, once the objective
    /// value is zero, which is optimal for an objective that cannot go
    /// negative. Charges one budget unit per pricing iteration — Bland's
    /// rule guarantees termination but not *when*, and exact rationals make
    /// each pivot arbitrarily expensive, so this is the cancellation point
    /// for the whole solver.
    fn pivot_loop(
        &mut self,
        col_limit: usize,
        stop_at_zero: bool,
        budget: &dyn WorkBudget,
    ) -> Result<PivotOutcome, LinearError> {
        loop {
            if stop_at_zero && self.cost[self.ncols].is_zero() {
                return Ok(PivotOutcome::Optimal);
            }
            if !budget.consume(1) {
                return Err(LinearError::Interrupted);
            }
            cr_faults::point!("linear.pivot", |_| Err(LinearError::FaultInjected {
                site: "linear.pivot"
            }));
            let Some(enter) = (0..col_limit).find(|&j| self.cost[j].is_negative()) else {
                return Ok(PivotOutcome::Optimal);
            };
            let mut leave: Option<(usize, Rational)> = None;
            for (i, row) in self.rows.iter().enumerate() {
                let Some(a) = row.coeff(enter).filter(|a| a.is_positive()) else {
                    continue;
                };
                let ratio = &row.rhs / a;
                match &leave {
                    None => leave = Some((i, ratio)),
                    Some((best_i, best)) => {
                        if ratio < *best || (ratio == *best && self.basis[i] < self.basis[*best_i])
                        {
                            leave = Some((i, ratio));
                        }
                    }
                }
            }
            let Some((row, _)) = leave else {
                return Ok(PivotOutcome::Unbounded);
            };
            self.pivot(row, enter);
        }
    }

    /// Pivots: column `enter` becomes basic in `row`.
    fn pivot(&mut self, row: usize, enter: usize) {
        let mut pivot_row = std::mem::take(&mut self.rows[row]);
        let inv = pivot_row
            .coeff(enter)
            .expect("pivot on a stored (nonzero) entry")
            .recip();
        for (_, v) in &mut pivot_row.entries {
            *v *= &inv;
        }
        pivot_row.rhs *= &inv;
        // The pivot row was taken out, so it stores no entry in `enter`.
        for r in &mut self.rows {
            if let Some(factor) = r.coeff(enter).cloned() {
                r.sub_scaled(&factor, &pivot_row, &mut self.spare);
            }
        }
        let factor = self.cost[enter].clone();
        if !factor.is_zero() {
            pivot_row.sub_scaled_from(&factor, &mut self.cost);
        }
        self.rows[row] = pivot_row;
        #[cfg(test)]
        self.pivots.push((enter, self.basis[row]));
        self.basis[row] = enter;
        let stored = self.rows.iter().map(|r| r.entries.len()).sum();
        self.peak_entries = self.peak_entries.max(stored);
    }

    /// Drives any artificial variable still basic (necessarily at value 0)
    /// out of the basis, dropping rows that turn out to be redundant.
    fn evict_artificials(&mut self) {
        let mut i = 0;
        while i < self.rows.len() {
            if self.basis[i] < self.art_start {
                i += 1;
                continue;
            }
            debug_assert!(self.rows[i].rhs.is_zero());
            // A degenerate pivot (rhs = 0) is feasibility-preserving on any
            // nonzero entry, positive or negative. Entries are sorted, so
            // the first one is the smallest nonzero column.
            match self.rows[i].entries.first() {
                Some(&(j, _)) if j < self.art_start => {
                    self.pivot(i, j);
                    i += 1;
                }
                _ => {
                    // 0 = 0 row: the original constraint was redundant.
                    self.rows.swap_remove(i);
                    self.basis.swap_remove(i);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Unlimited;

    fn r(n: i64) -> Rational {
        Rational::from_int(n)
    }

    /// A tableau from dense integer rows whose last cell is the RHS.
    fn tableau(dense: &[&[i64]], basis: Vec<usize>, ncols: usize, art_start: usize) -> Tableau {
        let rows = dense
            .iter()
            .map(|cells| {
                let (rhs, coeffs) = cells.split_last().expect("row has an rhs cell");
                Row {
                    entries: (0..ncols)
                        .filter(|&j| coeffs[j] != 0)
                        .map(|j| (j, r(coeffs[j])))
                        .collect(),
                    rhs: r(*rhs),
                }
            })
            .collect();
        Tableau::new(rows, basis, ncols, art_start)
    }

    /// x + y = 2 with artificial a:   [1, 1, 1 | 2], basis {a}.
    #[test]
    fn phase_one_finds_feasible_basis() {
        let mut t = tableau(&[&[1, 1, 1, 2]], vec![2], 3, 2);
        assert!(t.phase_one(&Unlimited).unwrap());
        // x (col 0) should have entered by Bland's rule; x = 2.
        assert_eq!(t.column_value(0), r(2));
        assert_eq!(t.column_value(2), r(0));
        assert_eq!(t.pivots, vec![(0, 2)]);
    }

    /// x = 1 and x = 2 simultaneously (two artificial rows): infeasible.
    #[test]
    fn phase_one_detects_infeasible() {
        let mut t = tableau(&[&[1, 1, 0, 1], &[1, 0, 1, 2]], vec![1, 2], 3, 1);
        assert!(!t.phase_one(&Unlimited).unwrap());
    }

    /// min -x s.t. x + s = 5 (slack basis, no artificials): optimum x = 5.
    #[test]
    fn phase_two_optimizes() {
        let mut t = tableau(&[&[1, 1, 5]], vec![1], 2, 2);
        assert!(t.phase_one(&Unlimited).unwrap());
        let outcome = t.phase_two(&[r(-1), r(0)], &Unlimited).unwrap();
        assert_eq!(outcome, PivotOutcome::Optimal);
        assert_eq!(t.objective_value(), r(-5));
        assert_eq!(t.column_value(0), r(5));
    }

    /// min -x s.t. x - s = 0 (x unbounded above).
    #[test]
    fn phase_two_detects_unbounded() {
        let mut t = tableau(&[&[1, -1, 1, 0]], vec![2], 3, 2);
        assert!(t.phase_one(&Unlimited).unwrap());
        let outcome = t.phase_two(&[r(-1), r(0)], &Unlimited).unwrap();
        assert_eq!(outcome, PivotOutcome::Unbounded);
    }

    /// Redundant duplicated row: x = 1, x = 1. Second artificial can't be
    /// pivoted out and its row must be dropped.
    #[test]
    fn redundant_rows_are_dropped() {
        let mut t = tableau(&[&[1, 1, 0, 1], &[1, 0, 1, 1]], vec![1, 2], 3, 1);
        assert!(t.phase_one(&Unlimited).unwrap());
        assert_eq!(t.column_value(0), r(1));
        assert!(t.rows.len() <= 2);
        assert!(t
            .basis
            .iter()
            .all(|&b| b < 1 || t.column_value(b).is_zero()));
    }

    /// Eliminating the entering column cancels stored entries and fills in
    /// new ones; the peak counts the most entries stored at once.
    #[test]
    fn pivots_keep_rows_sparse_and_count_the_peak() {
        // 2x + y + a1 = 2, x + a2 = 1: x enters in row 0 (ratio tie, lower
        // basic column), then eviction pivots y in for the zero-valued a2.
        let mut t = tableau(&[&[2, 1, 1, 0, 2], &[1, 0, 0, 1, 1]], vec![2, 3], 4, 2);
        assert_eq!(t.peak_entries(), 5);
        assert!(t.phase_one(&Unlimited).unwrap());
        assert_eq!(t.pivots, vec![(0, 2), (1, 3)]);
        assert_eq!((t.column_value(0), t.column_value(1)), (r(1), r(0)));
        // After the first pivot row 1 reads -y/2 - a1/2 + a2 = 0: its x
        // entry cancelled and two filled in, six stored in all. The second
        // pivot cancels row 0's y and a1 entries and fills in its a2.
        assert_eq!(t.peak_entries(), 6);
        assert_eq!(t.rows.iter().map(|r| r.entries.len()).sum::<usize>(), 5);
        assert!(t
            .rows
            .iter()
            .all(|row| row.entries.iter().all(|(_, v)| !v.is_zero())));
    }

    /// A starved budget interrupts phase 1 instead of looping or panicking.
    #[test]
    fn starved_budget_interrupts() {
        struct Refuse;
        impl WorkBudget for Refuse {
            fn consume(&self, _: u64) -> bool {
                false
            }
        }
        let mut t = tableau(&[&[1, 1, 1, 2]], vec![2], 3, 2);
        assert_eq!(t.phase_one(&Refuse), Err(LinearError::Interrupted));
    }
}
