//! Cross-validation: the exact simplex and Fourier–Motzkin are independent
//! implementations and must agree on feasibility of random small systems;
//! every witness must check out against the original constraints.

use cr_linear::{
    optimize, solve, solve_fm, Cmp, Direction, Feasibility, FmConfig, LinExpr, LinSystem,
    OptOutcome, VarKind,
};
use cr_rational::Rational;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RandomSystem {
    sys: LinSystem,
}

fn cmp_strategy() -> impl Strategy<Value = Cmp> {
    prop_oneof![
        Just(Cmp::Le),
        Just(Cmp::Lt),
        Just(Cmp::Eq),
        Just(Cmp::Ge),
        Just(Cmp::Gt),
    ]
}

fn arb_system(max_vars: usize, max_cons: usize) -> impl Strategy<Value = RandomSystem> {
    (1..=max_vars).prop_flat_map(move |nv| {
        let constraint = (
            proptest::collection::vec((-4i64..=4, 0..nv), 1..=nv.min(3)),
            cmp_strategy(),
            -6i64..=6,
        );
        (
            proptest::collection::vec(any::<bool>(), nv),
            proptest::collection::vec(constraint, 0..=max_cons),
        )
            .prop_map(move |(kinds, cons)| {
                let mut sys = LinSystem::new();
                let vars: Vec<_> = kinds
                    .iter()
                    .map(|&nn| sys.add_var(if nn { VarKind::Nonneg } else { VarKind::Free }))
                    .collect();
                for (terms, cmp, rhs) in cons {
                    let mut e = LinExpr::new();
                    for (c, vi) in terms {
                        e.add_term(vars[vi], Rational::from_int(c));
                    }
                    sys.push(e, cmp, Rational::from_int(rhs));
                }
                RandomSystem { sys }
            })
    })
}

/// Ψ_S-shaped systems: nonnegative unknowns, every right-hand side zero,
/// mostly `>=` rows with some equalities, and optionally one unknown held
/// at `>= 1` as the fixpoint's probes hold a compound class. The origin
/// satisfies every row but that last one.
fn arb_psi_shaped(max_vars: usize, max_cons: usize) -> impl Strategy<Value = RandomSystem> {
    (2..=max_vars).prop_flat_map(move |nv| {
        let cmp = prop_oneof![Just(Cmp::Ge), Just(Cmp::Ge), Just(Cmp::Ge), Just(Cmp::Eq)];
        let constraint = (
            proptest::collection::vec((-3i64..=3, 0..nv), 1..=nv.min(3)),
            cmp,
        );
        (
            proptest::collection::vec(constraint, 1..=max_cons),
            proptest::option::of(0..nv),
        )
            .prop_map(move |(cons, pinned)| {
                let mut sys = LinSystem::new();
                let vars: Vec<_> = (0..nv).map(|_| sys.add_var(VarKind::Nonneg)).collect();
                for (terms, cmp) in cons {
                    let mut e = LinExpr::new();
                    for (c, vi) in terms {
                        e.add_term(vars[vi], Rational::from_int(c));
                    }
                    sys.push(e, cmp, Rational::zero());
                }
                if let Some(vi) = pinned {
                    sys.push(LinExpr::var(vars[vi]), Cmp::Ge, Rational::one());
                }
                RandomSystem { sys }
            })
    })
}

/// A system together with a random objective over its variables.
fn with_objective(
    systems: impl Strategy<Value = RandomSystem>,
) -> impl Strategy<Value = (RandomSystem, LinExpr)> {
    systems.prop_flat_map(|rs| {
        let nv = rs.sys.num_vars();
        let terms = proptest::collection::vec((-3i64..=3, 0..nv), 0..=nv);
        let objective = terms.prop_map(|terms| {
            let mut obj = LinExpr::new();
            for (c, vi) in terms {
                obj.add_term(cr_linear::VarId(vi as u32), Rational::from_int(c));
            }
            obj
        });
        (Just(rs), objective)
    })
}

/// `optimize` in both directions agrees with the other engines: an
/// infeasible or unbounded answer matches `solve`, and an optimal one is
/// feasible, evaluates to its value, and is beaten by no point that
/// Fourier–Motzkin (which shares no code with the simplex) can find:
/// `sys` plus `obj > value` (maximizing) or `obj < value` (minimizing) is
/// infeasible. This pins optimal values while leaving the simplex free to
/// return any optimal vertex.
fn optimum_is_right(sys: &LinSystem, obj: &LinExpr) -> Result<(), TestCaseError> {
    for (direction, beats) in [
        (Direction::Maximize, Cmp::Gt),
        (Direction::Minimize, Cmp::Lt),
    ] {
        match optimize(sys, obj, direction).unwrap() {
            OptOutcome::Infeasible => prop_assert!(!solve(sys).is_feasible()),
            OptOutcome::Unbounded => prop_assert!(solve(sys).is_feasible()),
            OptOutcome::Optimal { value, solution } => {
                prop_assert_eq!(sys.check(solution.values()), Ok(()));
                prop_assert_eq!(obj.eval(solution.values()), value.clone());
                let mut better = sys.clone();
                better.push(obj.clone(), beats, value.clone());
                let fm =
                    solve_fm(&better, FmConfig::default()).expect("budget ample for small systems");
                prop_assert!(
                    !fm.is_feasible(),
                    "{direction:?} optimum {value} beaten on:\n{sys}"
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn simplex_agrees_with_fm(rs in arb_system(4, 6)) {
        let fm = solve_fm(&rs.sys, FmConfig::default())
            .expect("budget ample for 4-var systems");
        let sx = solve(&rs.sys);
        prop_assert_eq!(
            fm.is_feasible(),
            sx.is_feasible(),
            "engines disagree on:\n{}",
            rs.sys
        );
        if let Feasibility::Feasible(sol) = &sx {
            prop_assert_eq!(rs.sys.check(sol.values()), Ok(()));
        }
        if let Feasibility::Feasible(sol) = &fm {
            prop_assert_eq!(rs.sys.check(sol.values()), Ok(()));
        }
    }

    #[test]
    fn optimum_is_feasible_and_bounds_hold((rs, obj) in with_objective(arb_system(4, 6))) {
        prop_assume!(!rs.sys.has_strict());
        optimum_is_right(&rs.sys, &obj)?;
    }

    #[test]
    fn optimum_bounds_hold_on_psi_shaped((rs, obj) in with_objective(arb_psi_shaped(5, 6))) {
        optimum_is_right(&rs.sys, &obj)?;
    }

    #[test]
    fn homogeneous_scaling_preserves(rs in arb_system(4, 6)) {
        // Rebuild the system with all RHS forced to zero: for homogeneous
        // systems, integer scaling of a witness is again a witness.
        let mut hom = LinSystem::new();
        for i in 0..rs.sys.num_vars() {
            hom.add_var(rs.sys.var_kind(cr_linear::VarId(i as u32)));
        }
        for c in rs.sys.constraints() {
            hom.push(c.expr.clone(), c.cmp, Rational::zero());
        }
        if let Feasibility::Feasible(sol) = solve(&hom) {
            let (ints, _factor) = sol.scale_to_integers();
            let as_rat: Vec<Rational> =
                ints.into_iter().map(Rational::from_int).collect();
            prop_assert_eq!(hom.check(&as_rat), Ok(()));
        }
    }
}
