//! The literal Theorem 3.4 decision procedure: enumerate subsets
//! `Z ⊆ V_C` of forced-zero compound-class unknowns.
//!
//! For each `Z`, the system `Ψ_Z` pins `Var(c) = 0` for `c ∈ Z`, requires
//! `Var(c) > 0` (as `>= 1`, by homogeneity) for `c ∉ Z`, keeps
//! `Var(r) >= 0`, and pins `Var(r) = 0` for every relationship unknown
//! depending on a member of `Z`. The target class is satisfiable iff some
//! `Ψ_Z` with a compound class containing it outside `Z` is feasible.
//!
//! This is `2^|V_C|` LP calls — the paper's own complexity remark — and is
//! kept as an independently-implemented oracle for the fixpoint engine
//! (property-tested equal) and as the E3 ablation baseline.

use std::collections::HashMap;

use cr_linear::{solve_governed, Cmp, LinExpr, LinearError};
use cr_rational::Rational;

use crate::budget::{Budget, Stage};
use crate::error::{CrError, CrResult};
use crate::expansion::Expansion;
use crate::ids::ClassId;
use crate::system::CrSystem;

/// Hard cap on the number of compound-class unknowns the enumeration will
/// accept (`2^max` subsets).
pub const MAX_Z_UNKNOWNS: usize = 20;

/// Decides satisfiability of `class` by enumerating `Z ⊆ V_C` (Theorem 3.4
/// verbatim). Errors if the expansion has more than [`MAX_Z_UNKNOWNS`]
/// compound classes.
pub fn satisfiable_by_z_enumeration(
    exp: &Expansion<'_>,
    sys: &CrSystem,
    class: ClassId,
) -> CrResult<bool> {
    satisfiable_by_z_enumeration_governed(exp, sys, class, &Budget::unlimited())
}

/// [`satisfiable_by_z_enumeration`] under a resource [`Budget`]: each `Z`
/// subset charges one [`Stage::ZEnumeration`] unit (plus one per simplex
/// pivot of its feasibility probe), so a caller can cap the oracle's
/// exponential sweep and fall back to the polynomial fixpoint — see
/// [`satisfiable_with_fallback`](crate::sat::satisfiable_with_fallback).
pub fn satisfiable_by_z_enumeration_governed(
    exp: &Expansion<'_>,
    sys: &CrSystem,
    class: ClassId,
    budget: &Budget,
) -> CrResult<bool> {
    satisfiable_by_z_enumeration_memo(exp, sys, class, budget, &mut ZMemo::default())
}

/// Feasibility of each `Ψ_Z` probed so far, by the subset `Z` as a bitmask.
/// `Ψ_Z` does not mention the class being decided, so a caller deciding
/// several classes of one system passes one memo and solves each `Ψ_Z` at
/// most once.
#[derive(Debug, Default)]
pub(crate) struct ZMemo(HashMap<u64, bool>);

/// [`satisfiable_by_z_enumeration_governed`] reusing the `Ψ_Z` verdicts in
/// `memo`, which must come from calls on the same `sys`. Every subset
/// visited is still charged and counted; only the repeated simplex probes
/// are skipped.
pub(crate) fn satisfiable_by_z_enumeration_memo(
    exp: &Expansion<'_>,
    sys: &CrSystem,
    class: ClassId,
    budget: &Budget,
    memo: &mut ZMemo,
) -> CrResult<bool> {
    let n_cc = sys.cclass_vars.len();
    if n_cc > MAX_Z_UNKNOWNS {
        return Err(CrError::ZEnumerationTooLarge { unknowns: n_cc });
    }
    let containing = exp.compound_classes_containing(class);
    if containing.is_empty() {
        return Ok(false);
    }
    let tracer = budget.tracer();
    let _span = tracer.span(Stage::ZEnumeration.as_str());
    for z in 0u64..(1u64 << n_cc) {
        budget.charge(Stage::ZEnumeration, 1)?;
        cr_faults::point!("core.zenum.subset", |_| Err(CrError::FaultInjected {
            site: "core.zenum.subset"
        }));
        tracer.add(cr_trace::Counter::ZenumSubsets, 1);
        let in_z = |cc: usize| z & (1 << cc) != 0;
        // Σ Var(C̄ ∋ class) > 0 needs some containing compound class
        // outside Z.
        if containing.iter().all(|&cc| in_z(cc)) {
            continue;
        }
        let feasible = match memo.0.get(&z) {
            Some(&feasible) => feasible,
            None => {
                let feasible = psi_z_feasible(sys, z, budget)?;
                memo.0.insert(z, feasible);
                feasible
            }
        };
        if feasible {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Whether `Ψ_Z` has a solution, `Z` given as a bitmask over the
/// compound-class unknowns.
fn psi_z_feasible(sys: &CrSystem, z: u64, budget: &Budget) -> CrResult<bool> {
    let in_z = |cc: usize| z & (1 << cc) != 0;
    let mut lin = sys.lin.clone();
    for (cc, &var) in sys.cclass_vars.iter().enumerate() {
        if in_z(cc) {
            lin.push(LinExpr::var(var), Cmp::Eq, Rational::zero());
        } else {
            lin.push(LinExpr::var(var), Cmp::Ge, Rational::one());
        }
    }
    for (ri, deps) in sys.deps.iter().enumerate() {
        if deps.iter().any(|&cc| in_z(cc)) {
            lin.push(LinExpr::var(sys.crel_vars[ri]), Cmp::Eq, Rational::zero());
        }
    }
    match solve_governed(&lin, &budget.stage(Stage::ZEnumeration)) {
        Ok(feasibility) => Ok(feasibility.is_feasible()),
        Err(LinearError::Interrupted) => Err(budget.exceeded_err(Stage::ZEnumeration)),
        Err(LinearError::FaultInjected { site }) => Err(CrError::FaultInjected { site }),
        Err(e) => unreachable!("feasibility probe cannot reject the system: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expansion::{Expansion, ExpansionConfig};
    use crate::schema::{Card, Schema, SchemaBuilder};
    use crate::system::CrSystem;

    fn figure1() -> Schema {
        let mut b = SchemaBuilder::new();
        let c = b.class("C");
        let d = b.class("D");
        b.isa(d, c);
        let r = b.relationship("R", [("U1", c), ("U2", d)]).unwrap();
        b.card(c, b.role(r, 0), Card::at_least(2)).unwrap();
        b.card(d, b.role(r, 1), Card::at_most(1)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn figure1_unsat_by_enumeration() {
        let schema = figure1();
        let exp = Expansion::build(&schema, &ExpansionConfig::default()).unwrap();
        let sys = CrSystem::build(&exp);
        for class in schema.classes() {
            assert!(!satisfiable_by_z_enumeration(&exp, &sys, class).unwrap());
        }
    }

    #[test]
    fn satisfiable_simple() {
        let mut b = SchemaBuilder::new();
        let a = b.class("A");
        let x = b.class("X");
        let r = b.relationship("R", [("u", a), ("v", x)]).unwrap();
        b.card(a, b.role(r, 0), Card::exactly(2)).unwrap();
        let schema = b.build().unwrap();
        let exp = Expansion::build(&schema, &ExpansionConfig::default()).unwrap();
        let sys = CrSystem::build(&exp);
        assert!(satisfiable_by_z_enumeration(&exp, &sys, a).unwrap());
        assert!(satisfiable_by_z_enumeration(&exp, &sys, x).unwrap());
    }

    /// One memo across every class gives each class the verdict of a
    /// fresh enumeration, and a class decided again probes nothing new.
    #[test]
    fn shared_memo_keeps_verdicts_and_probes_each_subset_once() {
        let schema = figure1();
        let exp = Expansion::build(&schema, &ExpansionConfig::default()).unwrap();
        let sys = CrSystem::build(&exp);
        let budget = Budget::unlimited();
        let mut memo = ZMemo::default();
        for class in schema.classes() {
            let shared =
                satisfiable_by_z_enumeration_memo(&exp, &sys, class, &budget, &mut memo).unwrap();
            assert_eq!(
                shared,
                satisfiable_by_z_enumeration(&exp, &sys, class).unwrap()
            );
        }
        let probed = memo.0.len();
        assert!(probed > 0);
        for class in schema.classes() {
            satisfiable_by_z_enumeration_memo(&exp, &sys, class, &budget, &mut memo).unwrap();
        }
        assert_eq!(memo.0.len(), probed);
    }

    #[test]
    fn guard_on_large_expansions() {
        let mut b = SchemaBuilder::new();
        for i in 0..6 {
            b.class(format!("C{i}"));
        }
        let a = b.class("A");
        let schema = b.build().unwrap();
        let exp = Expansion::build(&schema, &ExpansionConfig::default()).unwrap();
        let sys = CrSystem::build(&exp);
        // 2^7 - 1 = 127 compound classes > 20.
        assert!(matches!(
            satisfiable_by_z_enumeration(&exp, &sys, a),
            Err(CrError::ZEnumerationTooLarge { .. })
        ));
    }
}
