//! Greatest-fixpoint computation of the maximal acceptable support.
//!
//! Candidate set `P` starts as all consistent compound classes. A round
//! probes each `c ∈ P` with one exact LP:
//!
//! ```text
//! Ψ_S  ∪  { Var(c') = 0 : c' ∉ P }
//!      ∪  { Var(r)  = 0 : r depends on some c' ∉ P }
//!      ∪  { Var(c) >= 1 }
//! ```
//!
//! (`>= 1` replaces the paper's `> 0`: the system is a homogeneous cone, so
//! any solution with `Var(c) > 0` scales to one with `Var(c) >= 1`.)
//! Probes that fail remove `c` from `P`; rounds repeat until stable.
//! Removal is monotone (shrinking `P` only adds constraints), the family of
//! acceptable supports is closed under solution addition, and summing the
//! per-candidate witnesses of the final round yields one acceptable solution
//! positive on exactly the fixpoint — see the module docs of
//! [`crate::sat`] for the argument.

use cr_linear::{
    optimize_governed, Cmp, Direction, LinExpr, LinSystem, LinearError, OptOutcome, Solution,
    VarId, VarKind,
};
use cr_rational::Rational;

use crate::budget::{Budget, Stage};
use crate::error::{CrError, CrResult};
use crate::sat::AcceptableSolution;
use crate::system::CrSystem;

/// Shared engine for the greatest fixpoint: given a way to restrict the
/// system to a candidate support, runs one *support-maximizing* LP per pass
/// instead of one feasibility probe per candidate.
///
/// The trick: attach to every candidate `c` a capped indicator
/// `0 <= t_c <= min(x_c, 1)` and maximize `Σ t_c`. The feasible set is a
/// convex cone closed under addition, so at any optimum `t_c = 1` exactly
/// when `x_c` *can* be positive under the current candidate set (a positive
/// value scales to `>= 1`, and two optima add), i.e. the optimum identifies
/// the whole next candidate set — and, at the final pass, the optimal `x`
/// itself is an acceptable solution positive on exactly the maximal
/// support.
/// Work is metered against `budget` under [`Stage::Fixpoint`]: one unit per
/// pass, plus one per simplex pivot of each support-maximizing LP; an
/// exhausted budget aborts with
/// [`CrError::BudgetExceeded`](crate::CrError::BudgetExceeded) *after*
/// depositing the current candidate set on the budget via
/// [`Budget::offer_frontier`], so the caller can checkpoint and resume.
///
/// `initial` seeds the candidate set from such a checkpointed frontier
/// instead of all-`true`. Soundness: `alive` only ever shrinks, and every
/// intermediate set contains the final fixpoint `P*`, so restarting from
/// any offered frontier converges to the same `P*` (the iteration is a
/// monotone descent whose limit is independent of which superset of `P*`
/// it starts from).
pub(crate) fn support_by_max_lp(
    n: usize,
    class_vars: &[VarId],
    budget: &Budget,
    initial: Option<&[bool]>,
    restrict: impl Fn(&[bool]) -> LinSystem,
) -> CrResult<(Vec<bool>, Option<Vec<Rational>>)> {
    let tracer = budget.tracer();
    let _span = tracer.span(Stage::Fixpoint.as_str());
    let mut alive = match initial {
        Some(frontier) if frontier.len() == n => frontier.to_vec(),
        _ => vec![true; n],
    };
    loop {
        if let Err(e) = budget.charge(Stage::Fixpoint, 1) {
            budget.offer_frontier(Stage::Fixpoint, &alive);
            return Err(e);
        }
        cr_faults::point!("core.fixpoint.step", |_| Err(CrError::FaultInjected {
            site: "core.fixpoint.step"
        }));
        tracer.add(cr_trace::Counter::FixpointIterations, 1);
        if alive.iter().all(|&a| !a) {
            return Ok((alive, None));
        }
        let mut lin = restrict(&alive);
        let mut objective = LinExpr::new();
        for (cc, &a) in alive.iter().enumerate() {
            if !a {
                continue;
            }
            let t = lin.add_var(VarKind::Nonneg);
            lin.push(LinExpr::var(t), Cmp::Le, Rational::one());
            let mut e = LinExpr::var(class_vars[cc]);
            e.add_term(t, -Rational::one());
            lin.push(e, Cmp::Ge, Rational::zero());
            objective.add_term(t, Rational::one());
        }
        let outcome = match optimize_governed(
            &lin,
            &objective,
            Direction::Maximize,
            &budget.stage(Stage::Fixpoint),
        ) {
            Ok(outcome) => outcome,
            Err(LinearError::Interrupted) => {
                budget.offer_frontier(Stage::Fixpoint, &alive);
                return Err(budget.exceeded_err(Stage::Fixpoint));
            }
            Err(LinearError::FaultInjected { site }) => {
                return Err(CrError::FaultInjected { site })
            }
            Err(e) => unreachable!("support LP has no strict rows: {e}"),
        };
        match outcome {
            OptOutcome::Optimal { solution, .. } => {
                let one = Rational::one();
                let mut changed = false;
                let mut next = vec![false; n];
                for (cc, &a) in alive.iter().enumerate() {
                    if !a {
                        continue;
                    }
                    if solution.value(class_vars[cc]) >= one {
                        next[cc] = true;
                    } else {
                        changed = true;
                    }
                }
                if !changed {
                    return Ok((alive, Some(solution.values().to_vec())));
                }
                alive = next;
            }
            OptOutcome::Infeasible | OptOutcome::Unbounded => {
                unreachable!("the zero vector is feasible and the objective is capped")
            }
        }
    }
}

/// `Ψ_S` restricted to supports inside `alive`, optionally requiring one
/// compound class at `>= 1`.
pub(crate) fn restrict(sys: &CrSystem, alive: &[bool], target: Option<usize>) -> LinSystem {
    let mut lin = sys.lin.clone();
    for (cc, &a) in alive.iter().enumerate() {
        if !a {
            lin.push(LinExpr::var(sys.cclass_vars[cc]), Cmp::Eq, Rational::zero());
        }
    }
    for (ri, deps) in sys.deps.iter().enumerate() {
        if deps.iter().any(|&cc| !alive[cc]) {
            lin.push(LinExpr::var(sys.crel_vars[ri]), Cmp::Eq, Rational::zero());
        }
    }
    if let Some(cc) = target {
        lin.push(LinExpr::var(sys.cclass_vars[cc]), Cmp::Ge, Rational::one());
    }
    lin
}

/// Computes the maximal acceptable support `P*` and (when nonempty) an
/// integer acceptable solution positive on exactly `P*`.
pub fn maximal_acceptable_support(sys: &CrSystem) -> (Vec<bool>, Option<AcceptableSolution>) {
    maximal_acceptable_support_governed(sys, &Budget::unlimited())
        .expect("the unlimited budget cannot be exceeded")
}

/// [`maximal_acceptable_support`] under a resource [`Budget`]
/// ([`Stage::Fixpoint`] metering; see
/// [`crate::budget`] for the governor's guards).
pub fn maximal_acceptable_support_governed(
    sys: &CrSystem,
    budget: &Budget,
) -> CrResult<(Vec<bool>, Option<AcceptableSolution>)> {
    maximal_acceptable_support_resumed(sys, budget, None)
}

/// [`maximal_acceptable_support_governed`] seeded with a checkpointed
/// fixpoint frontier (see [`Budget::offer_frontier`]); `None` starts from
/// scratch.
pub fn maximal_acceptable_support_resumed(
    sys: &CrSystem,
    budget: &Budget,
    initial: Option<&[bool]>,
) -> CrResult<(Vec<bool>, Option<AcceptableSolution>)> {
    let n_cc = sys.cclass_vars.len();
    let (alive, values) = support_by_max_lp(n_cc, &sys.cclass_vars, budget, initial, |alive| {
        restrict(sys, alive, None)
    })?;
    let Some(values) = values else {
        return Ok((alive, None));
    };
    let (ints, _factor) = Solution::new(values).scale_to_integers();
    let witness = AcceptableSolution {
        cclass_counts: sys
            .cclass_vars
            .iter()
            .map(|v| ints[v.index()].clone())
            .collect(),
        crel_counts: sys
            .crel_vars
            .iter()
            .map(|v| ints[v.index()].clone())
            .collect(),
    };
    debug_assert!(witness.verify(sys), "fixpoint witness failed verification");
    Ok((alive, Some(witness)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expansion::{Expansion, ExpansionConfig};
    use crate::schema::{Card, SchemaBuilder};

    #[test]
    fn acceptability_prunes_cascading_classes() {
        // A must participate in R (minc 1) whose other role is typed by X;
        // X is unsatisfiable because of an empty window. Acceptability must
        // then kill A too (its tuples have nowhere to point), even though
        // the bare LP without the dependency condition would be feasible
        // with Var(R-tuples) > 0 and Var(X) = 0.
        let mut b = SchemaBuilder::new();
        let a = b.class("A");
        let x = b.class("X");
        let r = b.relationship("R", [("u", a), ("v", x)]).unwrap();
        b.card(a, b.role(r, 0), Card::at_least(1)).unwrap();
        // Empty window on X: minc 2 > maxc 1.
        b.card(x, b.role(r, 1), Card::new(2, Some(1))).unwrap();
        let schema = b.build().unwrap();
        let exp = Expansion::build(&schema, &ExpansionConfig::default()).unwrap();
        let sys = crate::system::CrSystem::build(&exp);
        let (alive, witness) = maximal_acceptable_support(&sys);
        // Compound classes containing X are dead; so are those containing A.
        for &cc in exp.compound_classes_containing(x) {
            assert!(!alive[cc]);
        }
        for &cc in exp.compound_classes_containing(a) {
            assert!(!alive[cc], "A must be dragged down by acceptability");
        }
        assert!(witness.is_none());
    }

    #[test]
    fn governed_fixpoint_trips_and_matches() {
        let mut b = SchemaBuilder::new();
        let a = b.class("A");
        let x = b.class("X");
        let r = b.relationship("R", [("u", a), ("v", x)]).unwrap();
        b.card(a, b.role(r, 0), Card::exactly(3)).unwrap();
        b.card(x, b.role(r, 1), Card::exactly(1)).unwrap();
        let schema = b.build().unwrap();
        let exp = Expansion::build(&schema, &ExpansionConfig::default()).unwrap();
        let sys = crate::system::CrSystem::build(&exp);

        let starved = Budget::unlimited().with_stage_limit(Stage::Fixpoint, 1);
        let err = maximal_acceptable_support_governed(&sys, &starved).unwrap_err();
        assert!(matches!(
            err,
            crate::CrError::BudgetExceeded {
                stage: Stage::Fixpoint,
                ..
            }
        ));

        let generous = Budget::unlimited().with_max_steps(1_000_000);
        let (alive, witness) = maximal_acceptable_support_governed(&sys, &generous).unwrap();
        let (alive_un, witness_un) = maximal_acceptable_support(&sys);
        assert_eq!(alive, alive_un);
        assert_eq!(witness.is_some(), witness_un.is_some());
        assert!(generous.stage_steps(Stage::Fixpoint) > 0);
    }

    #[test]
    fn witness_positive_on_all_support() {
        let mut b = SchemaBuilder::new();
        let a = b.class("A");
        let x = b.class("X");
        let r = b.relationship("R", [("u", a), ("v", x)]).unwrap();
        b.card(a, b.role(r, 0), Card::exactly(3)).unwrap();
        b.card(x, b.role(r, 1), Card::exactly(1)).unwrap();
        let schema = b.build().unwrap();
        let exp = Expansion::build(&schema, &ExpansionConfig::default()).unwrap();
        let sys = crate::system::CrSystem::build(&exp);
        let (alive, witness) = maximal_acceptable_support(&sys);
        let w = witness.expect("satisfiable schema");
        assert!(w.verify(&sys));
        for (cc, &a) in alive.iter().enumerate() {
            assert_eq!(
                w.cclass_counts[cc].is_positive(),
                a,
                "witness support must equal the fixpoint"
            );
        }
    }
}
