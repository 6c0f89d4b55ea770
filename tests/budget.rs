//! Resource-governor integration tests: adversarial schemas that
//! deterministically exhaust each pipeline stage's budget, graceful
//! degradation from the Theorem 3.4 enumeration to the polynomial
//! fixpoint, and governed-vs-ungoverned agreement under generous budgets.
//!
//! The contract under test: every reasoning entry point given a [`Budget`]
//! either answers, or returns [`CrError::BudgetExceeded`] /
//! [`Verdict::Unknown`] — it never panics and never runs past its
//! deadline's next check.

use std::time::Duration;

use cr_core::budget::{Budget, CancelToken, ManualClock, Stage};
use cr_core::expansion::{Expansion, ExpansionConfig};
use cr_core::implication::{
    implied_maxc_governed, implies_minc_governed, BoundVerdict, ImpliedBound, Verdict,
};
use cr_core::model::ModelConfig;
use cr_core::sat::{satisfiable_with_fallback, Reasoner, SatEngine, Strategy as SolveStrategy};
use cr_core::schema::{Card, Schema, SchemaBuilder};
use cr_core::system::CrSystem;
use cr_core::CrError;
use proptest::prelude::*;

/// A forest of ISA chains: `width` independent chains of `depth` classes.
/// Classes in different chains overlap freely, so the expansion has
/// `(depth + 1)^width - 1` consistent compound classes — exponential in the
/// width while every individual constraint stays trivial.
fn isa_chain_forest(width: usize, depth: usize) -> Schema {
    let mut b = SchemaBuilder::new();
    for w in 0..width {
        let mut prev = None;
        for d in 0..depth {
            let c = b.class(format!("C{w}_{d}"));
            if let Some(p) = prev {
                b.isa(c, p);
            }
            prev = Some(c);
        }
    }
    b.build().unwrap()
}

/// Dense Section 5 constraints: `n` classes under one root, pairwise
/// disjoint leaves, root covered by the leaves. The consistency check prunes
/// most Venn atoms, but the DFS still *visits* exponentially many nodes —
/// exactly the work the expansion budget must meter.
fn dense_covering_disjointness(n: usize) -> Schema {
    let mut b = SchemaBuilder::new();
    let root = b.class("Root");
    let leaves: Vec<_> = (0..n)
        .map(|i| {
            let c = b.class(format!("L{i}"));
            b.isa(c, root);
            c
        })
        .collect();
    b.disjoint(leaves.iter().copied()).unwrap();
    b.covering(root, leaves.iter().copied()).unwrap();
    b.build().unwrap()
}

/// A wide n-ary relationship whose roles each range over a small ISA
/// diamond: the compound-relationship odometer walks the product of the
/// per-role candidate lists.
fn wide_nary() -> Schema {
    let mut b = SchemaBuilder::new();
    let mut roles = Vec::new();
    for k in 0..4 {
        let top = b.class(format!("T{k}"));
        let sub = b.class(format!("S{k}"));
        b.isa(sub, top);
        roles.push((format!("u{k}"), top));
    }
    b.relationship("W", roles.iter().map(|(n, c)| (n.as_str(), *c)))
        .unwrap();
    b.build().unwrap()
}

/// The paper's meeting schema (Figures 2/3): small, satisfiable, exercises
/// refinement along ISA.
fn meeting() -> Schema {
    let mut b = SchemaBuilder::new();
    let speaker = b.class("Speaker");
    let discussant = b.class("Discussant");
    let talk = b.class("Talk");
    b.isa(discussant, speaker);
    let holds = b
        .relationship("Holds", [("U1", speaker), ("U2", talk)])
        .unwrap();
    let participates = b
        .relationship("Participates", [("U3", discussant), ("U4", talk)])
        .unwrap();
    b.card(speaker, b.role(holds, 0), Card::at_least(1))
        .unwrap();
    b.card(discussant, b.role(holds, 0), Card::at_most(2))
        .unwrap();
    b.card(talk, b.role(holds, 1), Card::exactly(1)).unwrap();
    b.card(discussant, b.role(participates, 0), Card::exactly(1))
        .unwrap();
    b.card(talk, b.role(participates, 1), Card::at_least(1))
        .unwrap();
    b.build().unwrap()
}

fn assert_trips(result: Result<Reasoner<'_>, CrError>, want: Stage) {
    match result {
        Err(CrError::BudgetExceeded {
            stage,
            spent,
            limit,
        }) => {
            assert_eq!(stage, want, "tripped in {stage}, expected {want}");
            assert!(spent > limit, "spent {spent} must exceed limit {limit}");
        }
        Err(other) => panic!("expected BudgetExceeded, got {other}"),
        Ok(_) => panic!("expected the {want} budget to trip"),
    }
}

#[test]
fn isa_forest_trips_expansion_stage() {
    // 4^4 - 1 = 255 compound classes; the DFS visits many more nodes.
    let schema = isa_chain_forest(4, 3);
    let budget = Budget::unlimited().with_stage_limit(Stage::Expansion, 50);
    assert_trips(
        Reasoner::with_budget(
            &schema,
            &ExpansionConfig::default(),
            SolveStrategy::Aggregated,
            &budget,
        ),
        Stage::Expansion,
    );
    // Untouched stages stay untouched.
    assert_eq!(budget.stage_steps(Stage::Fixpoint), 0);
}

#[test]
fn dense_constraints_trip_expansion_stage() {
    let schema = dense_covering_disjointness(10);
    let budget = Budget::unlimited().with_stage_limit(Stage::Expansion, 30);
    assert_trips(
        Reasoner::with_budget(
            &schema,
            &ExpansionConfig::default(),
            SolveStrategy::Aggregated,
            &budget,
        ),
        Stage::Expansion,
    );
}

#[test]
fn wide_nary_trips_expansion_stage() {
    // 8 classes in 4 ISA pairs: 3^4 - 1 = 80 compound classes, and the
    // compound-relationship odometer walks the 4-role product of the
    // per-role candidate lists (54^4 ≈ 8.5M combinations — the budget must
    // stop it long before the size guard would).
    let schema = wide_nary();
    let budget = Budget::unlimited().with_stage_limit(Stage::Expansion, 600);
    assert_trips(
        Reasoner::with_budget(
            &schema,
            &ExpansionConfig::default(),
            SolveStrategy::Aggregated,
            &budget,
        ),
        Stage::Expansion,
    );
}

#[test]
fn fixpoint_stage_trips_after_expansion_succeeds() {
    let schema = meeting();
    let budget = Budget::unlimited().with_stage_limit(Stage::Fixpoint, 1);
    assert_trips(
        Reasoner::with_budget(
            &schema,
            &ExpansionConfig::default(),
            SolveStrategy::Aggregated,
            &budget,
        ),
        Stage::Fixpoint,
    );
    // The expansion completed before the fixpoint tripped.
    assert!(budget.stage_steps(Stage::Expansion) > 0);
}

#[test]
fn direct_strategy_fixpoint_also_governed() {
    let schema = meeting();
    let budget = Budget::unlimited().with_stage_limit(Stage::Fixpoint, 1);
    assert_trips(
        Reasoner::with_budget(
            &schema,
            &ExpansionConfig::default(),
            SolveStrategy::Direct,
            &budget,
        ),
        Stage::Fixpoint,
    );
}

#[test]
fn zenum_trips_and_falls_back_to_fixpoint() {
    // The Figure 1 infinity pump (C needs ≥ 2 R-tuples, D at most 1; D ≼ C)
    // makes C finitely unsatisfiable, so its Theorem 3.4 enumeration can
    // never exit early on a witness: it must sweep all 2^|V_C| Z subsets.
    // Two free classes pad the expansion to 11 compound classes — 2048
    // subsets, far beyond a 100-unit budget yet trivial for the fixpoint.
    let mut b = SchemaBuilder::new();
    let c = b.class("C");
    let d = b.class("D");
    b.isa(d, c);
    let r = b.relationship("R", [("U1", c), ("U2", d)]).unwrap();
    b.card(c, b.role(r, 0), Card::at_least(2)).unwrap();
    b.card(d, b.role(r, 1), Card::at_most(1)).unwrap();
    let free_e = b.class("E");
    let free_f = b.class("F");
    let schema = b.build().unwrap();
    let exp = Expansion::build(&schema, &ExpansionConfig::default()).unwrap();
    let sys = CrSystem::build(&exp);

    // The capped enumeration trips on the unsatisfiable class...
    let starved = Budget::unlimited().with_stage_limit(Stage::ZEnumeration, 100);
    let err = cr_core::sat::zenum::satisfiable_by_z_enumeration_governed(&exp, &sys, c, &starved);
    assert!(
        matches!(
            err,
            Err(CrError::BudgetExceeded {
                stage: Stage::ZEnumeration,
                ..
            })
        ),
        "enumeration should trip, got {err:?}"
    );

    // ...and the fallback still answers every class, degrading to the
    // fixpoint exactly when the enumeration budget trips, always agreeing
    // with the unlimited oracle.
    for class in schema.classes() {
        let budget = Budget::unlimited().with_stage_limit(Stage::ZEnumeration, 100);
        let (sat, engine) = satisfiable_with_fallback(&exp, &sys, class, &budget).unwrap();
        let oracle = cr_core::sat::zenum::satisfiable_by_z_enumeration(&exp, &sys, class).unwrap();
        assert_eq!(sat, oracle, "fallback verdict must match the oracle");
        if class == c || class == d {
            assert_eq!(engine, SatEngine::Fixpoint, "unsat classes must degrade");
        }
    }

    // The fallback verdicts are sound: a full reasoner run constructs an
    // actual finite model populating exactly the satisfiable classes, and
    // the model re-verifies against the Definition 2.2 semantics.
    let reasoner = Reasoner::new(&schema).unwrap();
    let model = reasoner
        .construct_model(&ModelConfig::default())
        .unwrap()
        .expect("E and F are satisfiable");
    assert!(model.is_model_of(&schema));
    for class in [free_e, free_f] {
        assert!(
            !model.class_extension(class).is_empty(),
            "fallback said satisfiable; the witness model must populate it"
        );
    }
    for class in [c, d] {
        assert!(
            model.class_extension(class).is_empty(),
            "finitely unsatisfiable classes must stay empty"
        );
    }
}

#[test]
fn simplex_stage_attribution_for_direct_solver_use() {
    use cr_linear::{solve_governed, Cmp, LinExpr, LinSystem, LinearError, VarKind};
    use cr_rational::Rational;
    let mut lin = LinSystem::new();
    let x = lin.add_var(VarKind::Nonneg);
    let y = lin.add_var(VarKind::Nonneg);
    let mut e = LinExpr::var(x);
    e.add_term(y, Rational::one());
    lin.push(e, Cmp::Ge, Rational::one());
    // A Budget used directly as a WorkBudget books under Stage::Simplex.
    let budget = Budget::unlimited().with_stage_limit(Stage::Simplex, 0);
    assert!(matches!(
        solve_governed(&lin, &budget),
        Err(LinearError::Interrupted)
    ));
    assert!(matches!(
        budget.exceeded_err(Stage::Simplex),
        CrError::BudgetExceeded {
            stage: Stage::Simplex,
            ..
        }
    ));
}

#[test]
fn implication_unknown_is_three_valued_not_false() {
    let schema = meeting();
    let config = ExpansionConfig::default();
    let talk = schema.class_by_name("Talk").unwrap();
    let holds = schema.rel_by_name("Holds").unwrap();
    let u2 = schema.role_by_name(holds, "U2").unwrap();
    let participates = schema.rel_by_name("Participates").unwrap();
    let u4 = schema.role_by_name(participates, "U4").unwrap();

    // minc(Talk, Holds.U2) = 2 exceeds the declared 1..1, hence is not
    // implied; deciding that takes a probe.
    let free = Budget::unlimited();
    assert_eq!(
        implies_minc_governed(&schema, talk, u2, 2, &config, &free).unwrap(),
        Verdict::False
    );

    // Under starvation the same query is Unknown — crucially not False.
    let starved = Budget::unlimited().with_max_steps(2);
    let v = implies_minc_governed(&schema, talk, u2, 2, &config, &starved).unwrap();
    assert!(matches!(v, Verdict::Unknown { .. }), "got {v:?}");
    // The declared minc(Talk, Holds.U2) = 1 needs no probe, so the same
    // starved budget answers it.
    assert_eq!(
        implies_minc_governed(&schema, talk, u2, 1, &config, &starved).unwrap(),
        Verdict::True
    );

    // The tightest maxc(Talk, Participates.U4) = 1 is not declared and
    // takes one probe; no probe at all is allowed here.
    let starved = Budget::unlimited().with_stage_limit(Stage::Implication, 0);
    let b = implied_maxc_governed(&schema, talk, u4, &config, 1 << 16, &starved).unwrap();
    assert!(matches!(b, BoundVerdict::Unknown { .. }), "got {b:?}");
    // Talk's declared 1..1 on Holds.U2 settles that search without one.
    assert_eq!(
        implied_maxc_governed(&schema, talk, u2, &config, 1 << 16, &starved).unwrap(),
        BoundVerdict::Known(ImpliedBound::Bound(1))
    );
}

#[test]
fn manual_clock_deadline_trips_deterministically() {
    let schema = isa_chain_forest(4, 3);
    let clock = ManualClock::new();
    let budget = Budget::unlimited()
        .with_deadline(Duration::from_millis(10))
        .with_manual_clock(&clock);
    // Time frozen before the deadline: reasoning completes.
    Reasoner::with_budget(
        &schema,
        &ExpansionConfig::default(),
        SolveStrategy::Aggregated,
        &budget,
    )
    .unwrap();

    // Past the deadline every subsequent charge trips, reporting elapsed
    // and allowed milliseconds.
    clock.advance(Duration::from_millis(11));
    match Reasoner::with_budget(
        &schema,
        &ExpansionConfig::default(),
        SolveStrategy::Aggregated,
        &budget,
    ) {
        Err(CrError::BudgetExceeded { spent, limit, .. }) => {
            assert_eq!(limit, 10);
            assert!(spent >= 11, "spent {spent} ms");
        }
        other => panic!("expected deadline trip, got {:?}", other.err()),
    }
}

#[test]
fn cancellation_stops_reasoning_with_zero_limit_sentinel() {
    let schema = meeting();
    let token = CancelToken::new();
    let budget = Budget::unlimited().with_cancel_token(&token);
    token.cancel();
    match Reasoner::with_budget(
        &schema,
        &ExpansionConfig::default(),
        SolveStrategy::Aggregated,
        &budget,
    ) {
        Err(CrError::BudgetExceeded { limit, .. }) => assert_eq!(limit, 0),
        other => panic!("expected cancellation, got {:?}", other.err()),
    }
    assert!(budget.cancel_token().is_cancelled());
}

#[test]
fn baseline_governor_matches_core_surface() {
    let mut b = SchemaBuilder::new();
    let a = b.class("A");
    let x = b.class("X");
    let r = b.relationship("R", [("u", a), ("v", x)]).unwrap();
    b.card(a, b.role(r, 0), Card::exactly(2)).unwrap();
    let schema = b.build().unwrap();
    let starved = Budget::unlimited().with_stage_limit(Stage::Fixpoint, 1);
    assert!(matches!(
        cr_baseline::BaselineReasoner::with_budget(&schema, &starved),
        Err(cr_baseline::BaselineError::BudgetExceeded(
            CrError::BudgetExceeded {
                stage: Stage::Fixpoint,
                ..
            }
        ))
    ));
}

/// Random schemas with ISA, relationships, and cardinalities.
#[derive(Debug, Clone)]
struct PlanWithIsa {
    classes: usize,
    isa: Vec<(usize, usize)>, // sub > sup keeps the hierarchy acyclic
    rels: Vec<(usize, usize)>,
    cards: Vec<(usize, usize, usize, u64, Option<u64>)>, // (rel, pos, class, min, max)
}

fn plan() -> impl Strategy<Value = PlanWithIsa> {
    (2usize..=4).prop_flat_map(|classes| {
        let isa = proptest::collection::vec((1..classes.max(2), 0..classes), 0..=3);
        let rels = proptest::collection::vec((0..classes, 0..classes), 1..=2);
        let cards = proptest::collection::vec(
            (
                0usize..2,
                0usize..2,
                0..classes,
                0u64..=3,
                prop_oneof![Just(None), (0u64..=3).prop_map(Some)],
            ),
            0..=5,
        );
        (Just(classes), isa, rels, cards).prop_map(|(classes, isa, rels, cards)| PlanWithIsa {
            classes,
            isa,
            rels,
            cards,
        })
    })
}

fn build(plan: &PlanWithIsa) -> Schema {
    let mut b = SchemaBuilder::new();
    let classes: Vec<_> = (0..plan.classes)
        .map(|i| b.class(format!("C{i}")))
        .collect();
    for &(sub, sup) in &plan.isa {
        if sub < plan.classes && sup < sub {
            b.isa(classes[sub], classes[sup]);
        }
    }
    let mut rels = Vec::new();
    for (i, &(p0, p1)) in plan.rels.iter().enumerate() {
        rels.push(
            b.relationship(format!("R{i}"), [("u", classes[p0]), ("v", classes[p1])])
                .unwrap(),
        );
    }
    // The builder only validates the `C ≼* primary(U)` refinement rule at
    // build(), so replicate the reflexive-transitive ISA closure here and
    // skip card targets it would reject.
    let mut reach = vec![vec![false; plan.classes]; plan.classes];
    for (i, row) in reach.iter_mut().enumerate() {
        row[i] = true;
    }
    for &(sub, sup) in &plan.isa {
        if sub < plan.classes && sup < sub {
            reach[sub][sup] = true;
        }
    }
    for mid in 0..plan.classes {
        for a in 0..plan.classes {
            if reach[a][mid] {
                let via: Vec<usize> = (0..plan.classes).filter(|&c| reach[mid][c]).collect();
                for c in via {
                    reach[a][c] = true;
                }
            }
        }
    }
    for &(rel, pos, class, min, max) in &plan.cards {
        if rel >= rels.len() {
            continue;
        }
        let primary = [plan.rels[rel].0, plan.rels[rel].1][pos];
        if !reach[class][primary] {
            continue;
        }
        let role = b.role(rels[rel], pos);
        // Duplicate declarations are rejected by the builder; just skip them.
        let _ = b.card(classes[class], role, Card::new(min, max));
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under a generous budget the governed reasoner must agree with the
    /// ungoverned one bit-for-bit — the governor may only *stop* work, never
    /// change answers.
    #[test]
    fn governed_agrees_with_ungoverned_under_generous_budget(p in plan()) {
        let schema = build(&p);
        let generous = Budget::unlimited().with_max_steps(10_000_000);
        let governed = Reasoner::with_budget(
            &schema,
            &ExpansionConfig::default(),
            SolveStrategy::Aggregated,
            &generous,
        )
        .unwrap();
        let ungoverned = Reasoner::new(&schema).unwrap();
        prop_assert_eq!(governed.support(), ungoverned.support());
        prop_assert_eq!(governed.witness().is_some(), ungoverned.witness().is_some());
        for class in schema.classes() {
            prop_assert_eq!(
                governed.is_class_satisfiable(class),
                ungoverned.is_class_satisfiable(class)
            );
        }
        // Meter actually ran.
        prop_assert!(generous.steps() > 0);
    }

    /// Starved budgets must surface as `BudgetExceeded`, never as a panic
    /// and never as a wrong answer.
    #[test]
    fn starved_budgets_error_cleanly(p in plan(), limit in 1u64..=40) {
        let schema = build(&p);
        let budget = Budget::unlimited().with_max_steps(limit);
        match Reasoner::with_budget(
            &schema,
            &ExpansionConfig::default(),
            SolveStrategy::Aggregated,
            &budget,
        ) {
            Ok(r) => {
                // Finished within budget: the answers must match the
                // ungoverned run exactly.
                let reference = Reasoner::new(&schema).unwrap();
                prop_assert_eq!(r.support(), reference.support());
            }
            Err(CrError::BudgetExceeded { spent, limit: l, .. }) => {
                prop_assert!(spent > l);
            }
            Err(other) => return Err(TestCaseError::Fail(format!("unexpected error {other}"))),
        }
    }
}
