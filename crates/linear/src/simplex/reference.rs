//! The dense exact-rational tableau the sparse one replaced, kept as the
//! reference it is tested against: same standard form, same Bland's rule,
//! every cell of every row stored and updated. The proptest below asserts
//! that on random systems the sparse solver pivots on the same (entering,
//! leaving) pairs in the same order and returns the same answers and
//! witnesses.

use cr_rational::Rational;

use super::{Direction, OptOutcome};
use crate::expr::{LinExpr, VarId};
use crate::solution::{Feasibility, Solution};
use crate::system::{Cmp, LinSystem, VarKind};

struct DenseTableau {
    /// Row-major constraint matrix; each row has `ncols + 1` entries, the
    /// last being the right-hand side.
    rows: Vec<Vec<Rational>>,
    basis: Vec<usize>,
    cost: Vec<Rational>,
    ncols: usize,
    art_start: usize,
    /// Every (entering, leaving) column pair pivoted on, in order.
    pivots: Vec<(usize, usize)>,
}

impl DenseTableau {
    fn phase_one(&mut self) -> bool {
        if self.art_start == self.ncols {
            return true;
        }
        let mut cost = vec![Rational::zero(); self.ncols + 1];
        for c in &mut cost[self.art_start..self.ncols] {
            *c = Rational::one();
        }
        self.install_cost(cost);
        self.pivot_loop(self.ncols, true);
        if self.objective_value().is_positive() {
            return false;
        }
        self.evict_artificials();
        true
    }

    /// Returns whether the objective is bounded below.
    fn phase_two(&mut self, objective: &[Rational]) -> bool {
        let mut cost = vec![Rational::zero(); self.ncols + 1];
        cost[..objective.len()].clone_from_slice(objective);
        self.install_cost(cost);
        self.pivot_loop(self.art_start, false)
    }

    fn install_cost(&mut self, mut cost: Vec<Rational>) {
        for (row, &b) in self.rows.iter().zip(&self.basis) {
            if !cost[b].is_zero() {
                let scale = cost[b].clone();
                for (c, r) in cost.iter_mut().zip(row) {
                    *c -= &scale * r;
                }
            }
        }
        self.cost = cost;
    }

    fn objective_value(&self) -> Rational {
        -self.cost[self.ncols].clone()
    }

    fn column_value(&self, j: usize) -> Rational {
        match self.basis.iter().position(|&b| b == j) {
            Some(i) => self.rows[i][self.ncols].clone(),
            None => Rational::zero(),
        }
    }

    fn pivot_loop(&mut self, col_limit: usize, stop_at_zero: bool) -> bool {
        loop {
            if stop_at_zero && self.cost[self.ncols].is_zero() {
                return true;
            }
            let Some(enter) = (0..col_limit).find(|&j| self.cost[j].is_negative()) else {
                return true;
            };
            let mut leave: Option<(usize, Rational)> = None;
            for i in 0..self.rows.len() {
                let a = &self.rows[i][enter];
                if !a.is_positive() {
                    continue;
                }
                let ratio = &self.rows[i][self.ncols] / a;
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
                return false;
            };
            self.pivot(row, enter);
        }
    }

    fn pivot(&mut self, row: usize, enter: usize) {
        let inv = self.rows[row][enter].recip();
        for v in self.rows[row].iter_mut() {
            *v *= &inv;
        }
        let pivot_row = self.rows[row].clone();
        for i in 0..self.rows.len() {
            if i == row {
                continue;
            }
            let factor = self.rows[i][enter].clone();
            if factor.is_zero() {
                continue;
            }
            for (v, p) in self.rows[i].iter_mut().zip(&pivot_row) {
                *v -= &factor * p;
            }
        }
        let factor = self.cost[enter].clone();
        if !factor.is_zero() {
            for (c, p) in self.cost.iter_mut().zip(&pivot_row) {
                *c -= &factor * p;
            }
        }
        self.pivots.push((enter, self.basis[row]));
        self.basis[row] = enter;
    }

    fn evict_artificials(&mut self) {
        let mut i = 0;
        while i < self.rows.len() {
            if self.basis[i] < self.art_start {
                i += 1;
                continue;
            }
            match (0..self.art_start).find(|&j| !self.rows[i][j].is_zero()) {
                Some(j) => {
                    self.pivot(i, j);
                    i += 1;
                }
                None => {
                    self.rows.swap_remove(i);
                    self.basis.swap_remove(i);
                }
            }
        }
    }
}

struct DenseForm {
    col_of: Vec<(usize, Option<usize>)>,
    t_col: Option<usize>,
    tableau: DenseTableau,
}

fn build_dense(sys: &LinSystem, with_t: bool) -> DenseForm {
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

    let mut raw: Vec<(Vec<Rational>, Cmp, Rational)> = Vec::new();
    for c in sys.constraints() {
        let mut coeffs = vec![Rational::zero(); struct_cols];
        for (v, coef) in c.expr.iter() {
            let (pos, neg) = col_of[v.index()];
            coeffs[pos] += coef;
            if let Some(neg) = neg {
                coeffs[neg] -= coef;
            }
        }
        let cmp = match c.cmp {
            Cmp::Lt => {
                coeffs[t_col.expect("strict path has t")] += Rational::one();
                Cmp::Le
            }
            Cmp::Gt => {
                coeffs[t_col.expect("strict path has t")] -= Rational::one();
                Cmp::Ge
            }
            cmp => cmp,
        };
        raw.push((coeffs, cmp, c.rhs.clone()));
    }
    if let Some(t) = t_col {
        let mut coeffs = vec![Rational::zero(); struct_cols];
        coeffs[t] = Rational::one();
        raw.push((coeffs, Cmp::Le, Rational::one()));
    }

    let n_slack = raw.iter().filter(|(_, cmp, _)| *cmp != Cmp::Eq).count();
    let max_cols = struct_cols + n_slack + raw.len();
    let mut rows = Vec::new();
    let mut basis = Vec::new();
    let mut slack_cursor = struct_cols;
    let mut art_cursor = struct_cols + n_slack;
    for (mut row, cmp, rhs) in raw {
        row.resize(max_cols + 1, Rational::zero());
        let mut slack_col = None;
        if cmp != Cmp::Eq {
            row[slack_cursor] = if cmp == Cmp::Le {
                Rational::one()
            } else {
                -Rational::one()
            };
            slack_col = Some(slack_cursor);
            slack_cursor += 1;
        }
        row[max_cols] = rhs.clone();
        if rhs.is_negative() || (cmp == Cmp::Ge && rhs.is_zero()) {
            for v in row.iter_mut() {
                *v = -v.clone();
            }
        }
        match slack_col.filter(|&s| row[s] == Rational::one()) {
            Some(s) => basis.push(s),
            None => {
                row[art_cursor] = Rational::one();
                basis.push(art_cursor);
                art_cursor += 1;
            }
        }
        rows.push(row);
    }
    let ncols = art_cursor;
    for row in &mut rows {
        let rhs = row[max_cols].clone();
        row.truncate(ncols);
        row.push(rhs);
    }
    DenseForm {
        col_of,
        t_col,
        tableau: DenseTableau {
            rows,
            basis,
            cost: vec![Rational::zero(); ncols + 1],
            ncols,
            art_start: struct_cols + n_slack,
            pivots: Vec::new(),
        },
    }
}

impl DenseForm {
    fn extract(&self) -> Solution {
        let values = self
            .col_of
            .iter()
            .map(|&(pos, neg)| {
                let v = self.tableau.column_value(pos);
                match neg {
                    Some(neg) => v - self.tableau.column_value(neg),
                    None => v,
                }
            })
            .collect();
        Solution::new(values)
    }
}

/// The dense solver's answer to [`super::solve`], with its pivot sequence.
fn solve_dense(sys: &LinSystem) -> (Feasibility, Vec<(usize, usize)>) {
    let mut df = build_dense(sys, sys.has_strict());
    let mut feasible = df.tableau.phase_one();
    if let (true, Some(t)) = (feasible, df.t_col) {
        let mut objective = vec![Rational::zero(); df.tableau.ncols];
        objective[t] = -Rational::one();
        assert!(df.tableau.phase_two(&objective), "t <= 1 bounds phase 2");
        feasible = df.tableau.column_value(t).is_positive();
    }
    let answer = if feasible {
        Feasibility::Feasible(df.extract())
    } else {
        Feasibility::Infeasible
    };
    (answer, df.tableau.pivots)
}

/// The dense solver's answer to [`super::optimize`] on a system without
/// strict rows, with its pivot sequence.
fn optimize_dense(
    sys: &LinSystem,
    objective: &LinExpr,
    direction: Direction,
) -> (OptOutcome, Vec<(usize, usize)>) {
    let mut df = build_dense(sys, false);
    if !df.tableau.phase_one() {
        return (OptOutcome::Infeasible, df.tableau.pivots);
    }
    let mut cols = vec![Rational::zero(); df.tableau.ncols];
    for (v, c) in objective.iter() {
        let (pos, neg) = df.col_of[v.index()];
        cols[pos] += c;
        if let Some(neg) = neg {
            cols[neg] -= c;
        }
    }
    if direction == Direction::Maximize {
        for c in &mut cols {
            *c = -c.clone();
        }
    }
    let outcome = if df.tableau.phase_two(&cols) {
        let solution = df.extract();
        let value = objective.eval(solution.values());
        OptOutcome::Optimal { value, solution }
    } else {
        OptOutcome::Unbounded
    };
    (outcome, df.tableau.pivots)
}

mod tests {
    use super::super::{build_standard_form, optimize, solve};
    use super::*;
    use crate::budget::Unlimited;
    use proptest::prelude::*;

    fn cmp_strategy() -> impl Strategy<Value = Cmp> {
        prop_oneof![
            Just(Cmp::Le),
            Just(Cmp::Lt),
            Just(Cmp::Eq),
            Just(Cmp::Ge),
            Just(Cmp::Gt),
        ]
    }

    /// How a generated row relates to the rows before it.
    #[derive(Clone, Copy, Debug)]
    enum Shape {
        /// As drawn.
        Plain,
        /// Right-hand side forced to 0, so many vertices are degenerate.
        Degenerate,
        /// Twice the previous row: redundant, and for equalities a row that
        /// phase 1 must drop.
        Repeat,
        /// The sum of the previous two rows as an equality: linearly
        /// dependent without being a copy.
        Sum,
    }

    fn shape_strategy() -> impl Strategy<Value = Shape> {
        prop_oneof![
            Just(Shape::Plain),
            Just(Shape::Plain),
            Just(Shape::Degenerate),
            Just(Shape::Repeat),
            Just(Shape::Sum),
        ]
    }

    /// Random systems of up to 8 variables, some free, and up to 10 rows of
    /// every comparison kind, with degenerate and redundant rows mixed in;
    /// plus an objective over the same variables.
    fn arb_case() -> impl Strategy<Value = (LinSystem, LinExpr)> {
        (1..=8usize).prop_flat_map(|nv| {
            let row = (
                proptest::collection::vec((-3i64..=3, 0..nv), 1..=nv.min(4)),
                cmp_strategy(),
                -4i64..=4,
                shape_strategy(),
            );
            (
                proptest::collection::vec(any::<bool>(), nv),
                proptest::collection::vec(row, 0..=10),
                proptest::collection::vec((-3i64..=3, 0..nv), 0..=nv),
            )
                .prop_map(|(kinds, rows, objective)| {
                    let mut sys = LinSystem::new();
                    let vars: Vec<_> = kinds
                        .iter()
                        .map(|&nn| sys.add_var(if nn { VarKind::Nonneg } else { VarKind::Free }))
                        .collect();
                    for (terms, cmp, rhs, shape) in rows {
                        let done = sys.constraints();
                        let (expr, cmp, rhs) = match (shape, done) {
                            (Shape::Repeat, [.., last]) => {
                                let mut e = LinExpr::new();
                                e.add_scaled(&last.expr, &Rational::from_int(2));
                                (e, last.cmp, &last.rhs * &Rational::from_int(2))
                            }
                            (Shape::Sum, [.., a, b]) => {
                                let mut e = a.expr.clone();
                                e.add_scaled(&b.expr, &Rational::one());
                                (e, Cmp::Eq, &a.rhs + &b.rhs)
                            }
                            _ => {
                                let mut e = LinExpr::new();
                                for (c, vi) in terms {
                                    e.add_term(vars[vi], Rational::from_int(c));
                                }
                                let rhs = match shape {
                                    Shape::Degenerate => 0,
                                    _ => rhs,
                                };
                                (e, cmp, Rational::from_int(rhs))
                            }
                        };
                        sys.push(expr, cmp, rhs);
                    }
                    let mut obj = LinExpr::new();
                    for (c, vi) in objective {
                        obj.add_term(vars[vi], Rational::from_int(c));
                    }
                    (sys, obj)
                })
        })
    }

    /// `sys` with every strict row closed, so it can be optimized.
    fn closure(sys: &LinSystem) -> LinSystem {
        let mut closed = LinSystem::new();
        for i in 0..sys.num_vars() {
            closed.add_var(sys.var_kind(VarId(i as u32)));
        }
        for c in sys.constraints() {
            let cmp = match c.cmp {
                Cmp::Lt => Cmp::Le,
                Cmp::Gt => Cmp::Ge,
                cmp => cmp,
            };
            closed.push(c.expr.clone(), cmp, c.rhs.clone());
        }
        closed
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn sparse_tableau_pivots_and_answers_like_the_dense_one((sys, obj) in arb_case()) {
            let mut sf = build_standard_form(&sys, sys.has_strict());
            let sparse = sf.feasibility(&sys, &Unlimited).expect("unlimited budget");
            let (dense, dense_pivots) = solve_dense(&sys);
            prop_assert_eq!(&sf.tableau.pivots, &dense_pivots, "pivots differ on:\n{}", sys);
            prop_assert_eq!(&sparse, &dense, "answers differ on:\n{}", sys);
            prop_assert_eq!(solve(&sys), dense);

            let closed = closure(&sys);
            for direction in [Direction::Minimize, Direction::Maximize] {
                let mut sf = build_standard_form(&closed, false);
                let sparse = sf
                    .optimum(&closed, &obj, direction, &Unlimited)
                    .expect("unlimited budget");
                let (dense, dense_pivots) = optimize_dense(&closed, &obj, direction);
                prop_assert_eq!(&sf.tableau.pivots, &dense_pivots, "pivots differ on:\n{}", closed);
                prop_assert_eq!(&sparse, &dense, "optima differ on:\n{}", closed);
                prop_assert_eq!(optimize(&closed, &obj, direction), Ok(dense));
            }
        }
    }
}
