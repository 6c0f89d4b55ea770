//! Conversion of [`LinSystem`]s to standard form and the public solver
//! entry points.

#[cfg(test)]
mod reference;
mod tableau;

use cr_rational::Rational;

use crate::budget::{Unlimited, WorkBudget};
use crate::error::LinearError;
use crate::expr::{LinExpr, VarId};
use crate::solution::{Feasibility, Solution};
use crate::system::{Cmp, Constraint, LinSystem, VarKind};
use tableau::{PivotOutcome, Row, Tableau};

/// Optimization direction for [`optimize`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// Outcome of [`optimize`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OptOutcome {
    /// No assignment satisfies the constraints.
    Infeasible,
    /// The objective is unbounded in the requested direction.
    Unbounded,
    /// An optimum exists; attached are the optimal value and a witness.
    Optimal {
        /// Optimal objective value.
        value: Rational,
        /// An assignment attaining it.
        solution: Solution,
    },
}

/// How user variables map onto standard-form columns.
struct StandardForm {
    /// `col_of[v] = (positive column, optional negative column)`; free
    /// variables get both (`x = pos - neg`), nonnegative variables only the
    /// first.
    col_of: Vec<(usize, Option<usize>)>,
    /// Column of the strictness slack `t`, if strict rows were present.
    t_col: Option<usize>,
    tableau: Tableau,
    ncols: usize,
}

/// Builds the standard-form tableau for `sys`. When `with_t` is set, a
/// variable `t ∈ [0, 1]` is introduced, strict rows are relaxed by `t`
/// (`< rhs` becomes `+ t <= rhs`, `> rhs` becomes `- t >= rhs`), and the
/// caller is expected to maximize `t`.
///
/// Columns are laid out as structural (user variables, then `t`), then one
/// slack per inequality row, then one artificial per row whose slack cannot
/// seed the basis. Each row's entries are pushed in that order, so they come
/// out sorted by column without a sort.
///
/// A row is negated when its right-hand side is negative, and also when it
/// is a `>=` row with a zero right-hand side. Either way its slack then
/// enters with +1 and seeds the basis, as it does on every `<=` row with a
/// nonnegative right-hand side: the solve starts at the origin, which
/// satisfies every homogeneous row of Ψ_S (`S − m·C ≥ 0`, `n·C − S ≥ 0`,
/// `x_c − t_c ≥ 0`). Artificials remain only on `=` rows and on rows, such
/// as `x_c ≥ 1`, that exclude the origin. Which optimal vertex a solve
/// returns depends on this starting basis, so a witness is one optimal
/// vertex among possibly several; feasibility and optimal values do not.
fn build_standard_form(sys: &LinSystem, with_t: bool) -> StandardForm {
    // --- structural columns ---
    let mut next_col = 0usize;
    let mut col_of = Vec::with_capacity(sys.num_vars());
    for i in 0..sys.num_vars() {
        match sys.var_kind(VarId(i as u32)) {
            VarKind::Nonneg => {
                col_of.push((next_col, None));
                next_col += 1;
            }
            VarKind::Free => {
                col_of.push((next_col, Some(next_col + 1)));
                next_col += 2;
            }
        }
    }
    let t_col = with_t.then(|| {
        let c = next_col;
        next_col += 1;
        c
    });
    let struct_cols = next_col;

    // --- rows over structural columns, strict rows relaxed by t ---
    let structural = |c: &Constraint| {
        // `LinExpr` iterates by variable and stores no zeros, so the
        // entries are distinct and increasing by column.
        let mut entries = Vec::with_capacity(2 * c.expr.len() + 3);
        for (v, coef) in c.expr.iter() {
            let (pos, neg) = col_of[v.index()];
            entries.push((pos, coef.clone()));
            if let Some(neg) = neg {
                entries.push((neg, -coef));
            }
        }
        let cmp = match c.cmp {
            Cmp::Lt => {
                let t = t_col.expect("strict row without t variable");
                entries.push((t, Rational::one()));
                Cmp::Le
            }
            Cmp::Gt => {
                let t = t_col.expect("strict row without t variable");
                entries.push((t, -Rational::one()));
                Cmp::Ge
            }
            cmp => cmp,
        };
        (entries, cmp, c.rhs.clone())
    };
    // t <= 1 keeps the phase-2 objective bounded.
    let t_row = t_col.map(|t| (vec![(t, Rational::one())], Cmp::Le, Rational::one()));

    // --- add slacks, normalize RHS sign, decide basis / artificials ---
    let n_rows = sys.constraints().len() + usize::from(with_t);
    let n_slack = sys
        .constraints()
        .iter()
        .filter(|c| c.cmp != Cmp::Eq)
        .count()
        + usize::from(with_t);
    let art_start = struct_cols + n_slack;
    let mut rows = Vec::with_capacity(n_rows);
    let mut basis = Vec::with_capacity(n_rows);
    let mut slack_cursor = struct_cols;
    let mut art_cursor = art_start;
    for (mut entries, cmp, mut rhs) in sys.constraints().iter().map(structural).chain(t_row) {
        let slack = match cmp {
            Cmp::Le => Some(Rational::one()),
            Cmp::Ge => Some(-Rational::one()),
            Cmp::Eq => None,
            Cmp::Lt | Cmp::Gt => unreachable!("strict rows relaxed above"),
        };
        let slack_col = slack.map(|coef| {
            entries.push((slack_cursor, coef));
            slack_cursor += 1;
            slack_cursor - 1
        });
        if rhs.is_negative() || (cmp == Cmp::Ge && rhs.is_zero()) {
            for (_, v) in &mut entries {
                *v = -&*v;
            }
            rhs = -rhs;
        }
        // The slack (the last entry so far) can seed the basis iff its
        // coefficient ended up +1.
        match slack_col.filter(|_| entries.last().is_some_and(|(_, v)| v.is_positive())) {
            Some(s) => basis.push(s),
            None => {
                entries.push((art_cursor, Rational::one()));
                basis.push(art_cursor);
                art_cursor += 1;
            }
        }
        rows.push(Row { entries, rhs });
    }

    let ncols = art_cursor;
    StandardForm {
        col_of,
        t_col,
        tableau: Tableau::new(rows, basis, ncols, art_start),
        ncols,
    }
}

impl StandardForm {
    /// Reads user-variable values out of the current basic solution.
    fn extract(&self, sys: &LinSystem) -> Solution {
        let mut values = Vec::with_capacity(sys.num_vars());
        for &(pos, neg) in &self.col_of {
            let mut v = self.tableau.column_value(pos);
            if let Some(neg) = neg {
                v -= self.tableau.column_value(neg);
            }
            values.push(v);
        }
        Solution::new(values)
    }

    /// Expands a user-level objective onto standard-form columns.
    fn expand_objective(&self, obj: &LinExpr) -> Vec<Rational> {
        let mut out = vec![Rational::zero(); self.ncols];
        for (v, c) in obj.iter() {
            let (pos, neg) = self.col_of[v.index()];
            out[pos] += c;
            if let Some(neg) = neg {
                out[neg] -= c;
            }
        }
        out
    }

    /// Decides feasibility of `sys`, whose standard form this is. With a
    /// strictness slack `t`, phase 2 maximizes `t` and the strict rows hold
    /// iff it ends positive.
    fn feasibility(
        &mut self,
        sys: &LinSystem,
        budget: &dyn WorkBudget,
    ) -> Result<Feasibility, LinearError> {
        if !self.tableau.phase_one(budget)? {
            return Ok(Feasibility::Infeasible);
        }
        if let Some(t) = self.t_col {
            let mut objective = vec![Rational::zero(); self.ncols];
            objective[t] = -Rational::one(); // maximize t == minimize -t
            let outcome = self.tableau.phase_two(&objective, budget)?;
            debug_assert_eq!(outcome, PivotOutcome::Optimal, "t <= 1 bounds phase 2");
            if !self.tableau.column_value(t).is_positive() {
                return Ok(Feasibility::Infeasible);
            }
        }
        let sol = self.extract(sys);
        debug_assert_eq!(sys.check(sol.values()), Ok(()));
        Ok(Feasibility::Feasible(sol))
    }

    /// Optimizes `objective` over `sys`, whose standard form this is (built
    /// without a strictness slack).
    fn optimum(
        &mut self,
        sys: &LinSystem,
        objective: &LinExpr,
        direction: Direction,
        budget: &dyn WorkBudget,
    ) -> Result<OptOutcome, LinearError> {
        if !self.tableau.phase_one(budget)? {
            return Ok(OptOutcome::Infeasible);
        }
        let mut cols = self.expand_objective(objective);
        if direction == Direction::Maximize {
            for c in &mut cols {
                *c = -c.clone();
            }
        }
        match self.tableau.phase_two(&cols, budget)? {
            PivotOutcome::Unbounded => Ok(OptOutcome::Unbounded),
            PivotOutcome::Optimal => {
                let solution = self.extract(sys);
                debug_assert_eq!(sys.check(solution.values()), Ok(()));
                let value = objective.eval(solution.values());
                Ok(OptOutcome::Optimal { value, solution })
            }
        }
    }
}

/// Decides feasibility of `sys` exactly, returning a rational witness when
/// feasible. Strict inequalities are fully supported (see the crate docs for
/// the interior-point reduction).
pub fn solve(sys: &LinSystem) -> Feasibility {
    match solve_governed(sys, &Unlimited) {
        Ok(f) => f,
        // An injected fault must not masquerade as an answer; the panic is
        // contained by the chaos harness's catch_unwind.
        Err(e @ LinearError::FaultInjected { .. }) => panic!("{e} in ungoverned solve"),
        Err(_) => unreachable!("the unlimited budget never interrupts"),
    }
}

/// [`solve`] under a caller-supplied [`WorkBudget`]: each simplex pivot
/// charges one unit, and a refused charge aborts the solve with
/// [`LinearError::Interrupted`]. No partial answer is reported — an
/// interrupted feasibility question is unanswered, not infeasible.
pub fn solve_governed(
    sys: &LinSystem,
    budget: &dyn WorkBudget,
) -> Result<Feasibility, LinearError> {
    cr_faults::point!("linear.tableau", |_| Err(LinearError::FaultInjected {
        site: "linear.tableau"
    }));
    let mut sf = build_standard_form(sys, sys.has_strict());
    budget.note_tableau(sf.tableau.num_rows(), sf.ncols);
    let outcome = sf.feasibility(sys, budget);
    budget.note_peak_entries(sf.tableau.peak_entries());
    outcome
}

/// Optimizes `objective` over the feasible region of `sys`.
///
/// Strict inequalities are rejected with
/// [`LinearError::StrictInOptimize`]: over an open set the optimum need not
/// be attained.
pub fn optimize(
    sys: &LinSystem,
    objective: &LinExpr,
    direction: Direction,
) -> Result<OptOutcome, LinearError> {
    optimize_governed(sys, objective, direction, &Unlimited)
}

/// [`optimize`] under a caller-supplied [`WorkBudget`] (one unit per pivot;
/// refusal surfaces as [`LinearError::Interrupted`]).
pub fn optimize_governed(
    sys: &LinSystem,
    objective: &LinExpr,
    direction: Direction,
    budget: &dyn WorkBudget,
) -> Result<OptOutcome, LinearError> {
    if sys.has_strict() {
        return Err(LinearError::StrictInOptimize);
    }
    cr_faults::point!("linear.tableau", |_| Err(LinearError::FaultInjected {
        site: "linear.tableau"
    }));
    let mut sf = build_standard_form(sys, false);
    budget.note_tableau(sf.tableau.num_rows(), sf.ncols);
    let outcome = sf.optimum(sys, objective, direction, budget);
    budget.note_peak_entries(sf.tableau.peak_entries());
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64) -> Rational {
        Rational::from_int(n)
    }

    fn rq(n: i64, d: i64) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn empty_system_is_feasible() {
        let sys = LinSystem::new();
        assert!(solve(&sys).is_feasible());
    }

    #[test]
    fn trivial_contradiction() {
        let mut sys = LinSystem::new();
        sys.push(LinExpr::new(), Cmp::Le, r(-1)); // 0 <= -1
        assert_eq!(solve(&sys), Feasibility::Infeasible);
    }

    #[test]
    fn trivial_tautology() {
        let mut sys = LinSystem::new();
        sys.push(LinExpr::new(), Cmp::Le, r(1)); // 0 <= 1
        assert!(solve(&sys).is_feasible());
    }

    #[test]
    fn basic_feasible_with_witness() {
        let mut sys = LinSystem::new();
        let x = sys.add_var(VarKind::Nonneg);
        let y = sys.add_var(VarKind::Nonneg);
        sys.push(LinExpr::from_terms([(x, 1), (y, 2)]), Cmp::Ge, r(4));
        sys.push(LinExpr::from_terms([(x, 1), (y, -1)]), Cmp::Eq, r(1));
        let Feasibility::Feasible(sol) = solve(&sys) else {
            panic!("expected feasible");
        };
        assert_eq!(sys.check(sol.values()), Ok(()));
    }

    #[test]
    fn infeasible_equalities() {
        let mut sys = LinSystem::new();
        let x = sys.add_var(VarKind::Free);
        sys.push(LinExpr::var(x), Cmp::Eq, r(1));
        sys.push(LinExpr::var(x), Cmp::Eq, r(2));
        assert_eq!(solve(&sys), Feasibility::Infeasible);
    }

    #[test]
    fn free_variable_can_go_negative() {
        let mut sys = LinSystem::new();
        let x = sys.add_var(VarKind::Free);
        sys.push(LinExpr::var(x), Cmp::Le, r(-5));
        let Feasibility::Feasible(sol) = solve(&sys) else {
            panic!("expected feasible");
        };
        assert!(sol.value(x) <= r(-5));
    }

    #[test]
    fn nonneg_variable_cannot() {
        let mut sys = LinSystem::new();
        let x = sys.add_var(VarKind::Nonneg);
        sys.push(LinExpr::var(x), Cmp::Le, r(-5));
        assert_eq!(solve(&sys), Feasibility::Infeasible);
    }

    #[test]
    fn strict_feasible() {
        let mut sys = LinSystem::new();
        let x = sys.add_var(VarKind::Nonneg);
        sys.push(LinExpr::var(x), Cmp::Gt, r(0));
        sys.push(LinExpr::var(x), Cmp::Lt, r(1));
        let Feasibility::Feasible(sol) = solve(&sys) else {
            panic!("expected feasible");
        };
        assert!(sol.value(x).is_positive() && sol.value(x) < r(1));
    }

    #[test]
    fn strict_infeasible_boundary_only() {
        // x >= 1, x <= 1, x > 1: closure feasible (x = 1) but strict not.
        let mut sys = LinSystem::new();
        let x = sys.add_var(VarKind::Nonneg);
        sys.push(LinExpr::var(x), Cmp::Ge, r(1));
        sys.push(LinExpr::var(x), Cmp::Le, r(1));
        sys.push(LinExpr::var(x), Cmp::Gt, r(1));
        assert_eq!(solve(&sys), Feasibility::Infeasible);
    }

    #[test]
    fn strict_homogeneous_cone() {
        // The paper's shape: x > 0 with 2x <= y and y <= 3x.
        let mut sys = LinSystem::new();
        let x = sys.add_var(VarKind::Nonneg);
        let y = sys.add_var(VarKind::Nonneg);
        sys.push(LinExpr::from_terms([(x, 2), (y, -1)]), Cmp::Le, r(0));
        sys.push(LinExpr::from_terms([(y, 1), (x, -3)]), Cmp::Le, r(0));
        sys.push(LinExpr::var(x), Cmp::Gt, r(0));
        let Feasibility::Feasible(sol) = solve(&sys) else {
            panic!("expected feasible");
        };
        assert_eq!(sys.check(sol.values()), Ok(()));
        assert!(sol.value(x).is_positive());
    }

    #[test]
    fn optimize_bounded() {
        // max x + y s.t. x + 2y <= 4, 3x + y <= 6  =>  optimum at (8/5, 6/5).
        let mut sys = LinSystem::new();
        let x = sys.add_var(VarKind::Nonneg);
        let y = sys.add_var(VarKind::Nonneg);
        sys.push(LinExpr::from_terms([(x, 1), (y, 2)]), Cmp::Le, r(4));
        sys.push(LinExpr::from_terms([(x, 3), (y, 1)]), Cmp::Le, r(6));
        let obj = LinExpr::from_terms([(x, 1), (y, 1)]);
        let out = optimize(&sys, &obj, Direction::Maximize).unwrap();
        let OptOutcome::Optimal { value, solution } = out else {
            panic!("expected optimal");
        };
        assert_eq!(value, rq(14, 5));
        assert_eq!(solution.value(x), rq(8, 5));
        assert_eq!(solution.value(y), rq(6, 5));
    }

    #[test]
    fn optimize_minimize() {
        let mut sys = LinSystem::new();
        let x = sys.add_var(VarKind::Nonneg);
        sys.push(LinExpr::var(x), Cmp::Ge, r(3));
        let out = optimize(&sys, &LinExpr::var(x), Direction::Minimize).unwrap();
        let OptOutcome::Optimal { value, .. } = out else {
            panic!("expected optimal");
        };
        assert_eq!(value, r(3));
    }

    #[test]
    fn optimize_unbounded() {
        let mut sys = LinSystem::new();
        let x = sys.add_var(VarKind::Nonneg);
        sys.push(LinExpr::var(x), Cmp::Ge, r(0));
        let out = optimize(&sys, &LinExpr::var(x), Direction::Maximize).unwrap();
        assert_eq!(out, OptOutcome::Unbounded);
    }

    #[test]
    fn optimize_infeasible() {
        let mut sys = LinSystem::new();
        let x = sys.add_var(VarKind::Nonneg);
        sys.push(LinExpr::var(x), Cmp::Le, r(-1));
        let out = optimize(&sys, &LinExpr::var(x), Direction::Maximize).unwrap();
        assert_eq!(out, OptOutcome::Infeasible);
    }

    #[test]
    fn optimize_rejects_strict() {
        let mut sys = LinSystem::new();
        let x = sys.add_var(VarKind::Nonneg);
        sys.push(LinExpr::var(x), Cmp::Gt, r(0));
        let err = optimize(&sys, &LinExpr::var(x), Direction::Maximize).unwrap_err();
        assert_eq!(err, LinearError::StrictInOptimize);
    }

    #[test]
    fn degenerate_cycling_guard() {
        // A classically degenerate LP (Beale-like); Bland's rule must
        // terminate. max 10x1 - 57x2 - 9x3 - 24x4 over the Beale cube.
        let mut sys = LinSystem::new();
        let v: Vec<_> = (0..4).map(|_| sys.add_var(VarKind::Nonneg)).collect();
        sys.push(
            LinExpr::from_terms([(v[0], 1), (v[1], -2), (v[2], -1), (v[3], 9)]),
            Cmp::Le,
            r(0),
        );
        sys.push(
            LinExpr::from_terms([(v[0], 1), (v[1], -3), (v[2], -1), (v[3], 2)]),
            Cmp::Le,
            r(0),
        );
        sys.push(LinExpr::var(v[0]), Cmp::Le, r(1));
        let obj = LinExpr::from_terms([(v[0], 10), (v[1], -57), (v[2], -9), (v[3], -24)]);
        let out = optimize(&sys, &obj, Direction::Maximize).unwrap();
        assert!(matches!(out, OptOutcome::Optimal { .. }));
    }

    #[test]
    fn governed_solve_matches_ungoverned_and_interrupts_when_starved() {
        use std::sync::atomic::{AtomicU64, Ordering};
        struct Capped(AtomicU64);
        impl WorkBudget for Capped {
            fn consume(&self, units: u64) -> bool {
                self.0
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |left| {
                        left.checked_sub(units)
                    })
                    .is_ok()
            }
        }
        let mut sys = LinSystem::new();
        let x = sys.add_var(VarKind::Nonneg);
        let y = sys.add_var(VarKind::Nonneg);
        sys.push(LinExpr::from_terms([(x, 1), (y, 2)]), Cmp::Ge, r(4));
        sys.push(LinExpr::from_terms([(x, 1), (y, -1)]), Cmp::Eq, r(1));
        let generous = Capped(AtomicU64::new(10_000));
        assert_eq!(solve_governed(&sys, &generous).unwrap(), solve(&sys));
        let starved = Capped(AtomicU64::new(0));
        assert_eq!(
            solve_governed(&sys, &starved),
            Err(LinearError::Interrupted)
        );
        assert_eq!(
            optimize_governed(&sys, &LinExpr::var(x), Direction::Minimize, &starved),
            Err(LinearError::Interrupted)
        );
    }

    /// Counts the units charged, refusing none.
    #[derive(Default)]
    struct Counted(std::cell::Cell<u64>);

    impl WorkBudget for Counted {
        fn consume(&self, units: u64) -> bool {
            self.0.set(self.0.get() + units);
            true
        }
    }

    /// Ψ_S's shape: every row is a homogeneous `>=`, so every slack seeds
    /// the basis at the origin and no artificial column is built.
    #[test]
    fn homogeneous_ge_rows_start_from_their_slacks() {
        let mut sys = LinSystem::new();
        let x = sys.add_var(VarKind::Nonneg);
        let y = sys.add_var(VarKind::Nonneg);
        let z = sys.add_var(VarKind::Nonneg);
        sys.push(LinExpr::from_terms([(x, 1), (y, -2)]), Cmp::Ge, r(0));
        sys.push(LinExpr::from_terms([(y, 3), (x, -1)]), Cmp::Ge, r(0));
        sys.push(LinExpr::from_terms([(y, 1), (z, -1)]), Cmp::Ge, r(0));
        let mut sf = build_standard_form(&sys, false);
        assert_eq!(sf.ncols, 3 + 3, "three structural and three slack columns");
        let charged = Counted::default();
        assert!(sf.tableau.phase_one(&charged).unwrap());
        assert_eq!((charged.0.get(), sf.tableau.pivots.len()), (0, 0));

        // A strict row relaxed by t is a homogeneous `>=` row as well.
        sys.push(LinExpr::var(x), Cmp::Gt, r(0));
        let mut sf = build_standard_form(&sys, true);
        assert_eq!(sf.ncols, 3 + 1 + 5, "t and five slacks, no artificial");
        let Feasibility::Feasible(sol) = sf.feasibility(&sys, &Unlimited).unwrap() else {
            panic!("expected feasible");
        };
        assert!(sol.value(x).is_positive());
    }

    /// A homogeneous equality still takes an artificial, but it starts at
    /// zero: phase 1 stops before pricing, and eviction alone pivots the
    /// artificial out, on the row's first stored entry even though that
    /// entry is negative.
    #[test]
    fn zero_equality_row_is_cleared_by_eviction_alone() {
        let mut sys = LinSystem::new();
        let x = sys.add_var(VarKind::Nonneg);
        let y = sys.add_var(VarKind::Nonneg);
        sys.push(LinExpr::from_terms([(x, 2), (y, -1)]), Cmp::Ge, r(0));
        sys.push(LinExpr::from_terms([(x, -1), (y, 1)]), Cmp::Eq, r(0));
        let mut sf = build_standard_form(&sys, false);
        // Columns: x, y, the first row's slack, the second row's artificial.
        assert_eq!(sf.ncols, 4);
        let charged = Counted::default();
        assert!(sf.tableau.phase_one(&charged).unwrap());
        assert_eq!(charged.0.get(), 0, "no pricing, no pivot");
        assert_eq!(sf.tableau.pivots, vec![(0, 3)]);
        let obj = LinExpr::from_terms([(x, 1), (y, 1)]);
        assert_eq!(
            optimize(&sys, &obj, Direction::Maximize),
            Ok(OptOutcome::Unbounded)
        );
    }

    /// A `>=` row with a positive right-hand side excludes the origin, so
    /// it keeps its artificial and phase 1 pivots it out.
    #[test]
    fn positive_ge_row_keeps_its_artificial() {
        let mut sys = LinSystem::new();
        let x = sys.add_var(VarKind::Nonneg);
        let y = sys.add_var(VarKind::Nonneg);
        sys.push(LinExpr::from_terms([(x, 1), (y, 1)]), Cmp::Ge, r(1));
        sys.push(LinExpr::from_terms([(x, 1), (y, -1)]), Cmp::Ge, r(0));
        let mut sf = build_standard_form(&sys, false);
        // Columns: x, y, two slacks, the first row's artificial.
        assert_eq!(sf.ncols, 5);
        let charged = Counted::default();
        assert!(sf.tableau.phase_one(&charged).unwrap());
        assert_eq!(charged.0.get(), 1, "one pivot brings the sum to zero");
        assert_eq!(sf.tableau.pivots, vec![(0, 4)]);
        assert_eq!(sf.extract(&sys).values(), &[r(1), r(0)]);
    }

    #[test]
    fn redundant_constraints_fine() {
        let mut sys = LinSystem::new();
        let x = sys.add_var(VarKind::Nonneg);
        sys.push(LinExpr::var(x), Cmp::Eq, r(2));
        sys.push(LinExpr::var(x), Cmp::Eq, r(2));
        sys.push(LinExpr::from_terms([(x, 2)]), Cmp::Eq, r(4));
        let Feasibility::Feasible(sol) = solve(&sys) else {
            panic!("expected feasible");
        };
        assert_eq!(sol.value(x), r(2));
    }
}
