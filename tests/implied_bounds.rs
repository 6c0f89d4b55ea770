//! Declared-window shortcuts in `cr_core::implication` against the search
//! that probes every step.
//!
//! `reference` is the implication search that builds the auxiliary-class
//! schema of Section 4 for every probe, including the probes the declared
//! windows decide. On random schemas of every generator shape, where
//! exact, refined and inherited windows all occur, the tightest-bound
//! searches and the single questions must answer exactly as it does.

use cr_bench::{SchemaGen, SchemaShape};
use cr_core::expansion::ExpansionConfig;
use cr_core::implication::{implied_maxc, implied_minc, implies_maxc, implies_minc};
use cr_core::isa::IsaClosure;
use proptest::prelude::*;

/// The implication search probing every step: each probe rebuilds the
/// schema with `C_exc` and runs the reasoner on it.
mod reference {
    use cr_core::expansion::ExpansionConfig;
    use cr_core::ids::{ClassId, RoleId};
    use cr_core::implication::ImpliedBound;
    use cr_core::sat::Reasoner;
    use cr_core::schema::{Card, Schema, SchemaBuilder};

    /// `schema` plus `C_exc ≼ parent` carrying `card` on `role`.
    fn with_exc_class(
        schema: &Schema,
        parent: ClassId,
        role: RoleId,
        card: Card,
    ) -> (Schema, ClassId) {
        let (mut b, classes, role_map) = SchemaBuilder::copy_structure(schema);
        let exc = b.class("\u{22A5}exc");
        b.isa(exc, classes[parent.index()]);
        for &(sub, sup) in schema.isa_statements() {
            b.isa(classes[sub.index()], classes[sup.index()]);
        }
        for d in schema.card_declarations() {
            b.card(classes[d.class.index()], role_map[d.role.index()], d.card)
                .unwrap();
        }
        b.card(exc, role_map[role.index()], card).unwrap();
        for group in schema.disjointness_groups() {
            b.disjoint(group.iter().map(|c| classes[c.index()]))
                .unwrap();
        }
        for (c, covers) in schema.coverings() {
            b.covering(
                classes[c.index()],
                covers.iter().map(|c| classes[c.index()]),
            )
            .unwrap();
        }
        (b.build().unwrap(), exc)
    }

    fn exc_unsatisfiable(
        schema: &Schema,
        class: ClassId,
        role: RoleId,
        card: Card,
        config: &ExpansionConfig,
    ) -> bool {
        let (extended, exc) = with_exc_class(schema, class, role, card);
        !Reasoner::with_config(&extended, config)
            .unwrap()
            .is_class_satisfiable(exc)
    }

    pub fn implies_minc(
        schema: &Schema,
        class: ClassId,
        role: RoleId,
        m: u64,
        config: &ExpansionConfig,
    ) -> bool {
        m == 0 || exc_unsatisfiable(schema, class, role, Card::at_most(m - 1), config)
    }

    pub fn implies_maxc(
        schema: &Schema,
        class: ClassId,
        role: RoleId,
        n: u64,
        config: &ExpansionConfig,
    ) -> bool {
        exc_unsatisfiable(schema, class, role, Card::at_least(n + 1), config)
    }

    pub fn implied_minc(
        schema: &Schema,
        class: ClassId,
        role: RoleId,
        config: &ExpansionConfig,
    ) -> ImpliedBound {
        if !Reasoner::with_config(schema, config)
            .unwrap()
            .is_class_satisfiable(class)
        {
            return ImpliedBound::Unsatisfiable;
        }
        if !implies_minc(schema, class, role, 1, config) {
            return ImpliedBound::Bound(0);
        }
        let mut lo = 1u64;
        let mut hi = 2u64;
        while implies_minc(schema, class, role, hi, config) {
            lo = hi;
            hi *= 2;
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if implies_minc(schema, class, role, mid, config) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        ImpliedBound::Bound(lo)
    }

    pub fn implied_maxc(
        schema: &Schema,
        class: ClassId,
        role: RoleId,
        config: &ExpansionConfig,
        cap: u64,
    ) -> ImpliedBound {
        if !Reasoner::with_config(schema, config)
            .unwrap()
            .is_class_satisfiable(class)
        {
            return ImpliedBound::Unsatisfiable;
        }
        if implies_maxc(schema, class, role, 0, config) {
            return ImpliedBound::Bound(0);
        }
        let mut lo = 0u64;
        let mut hi = 1u64;
        loop {
            if hi > cap {
                return ImpliedBound::NoBoundUpTo(cap);
            }
            if implies_maxc(schema, class, role, hi, config) {
                break;
            }
            lo = hi;
            hi *= 2;
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if implies_maxc(schema, class, role, mid, config) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        ImpliedBound::Bound(hi)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For every well-formed (class, role) of a random schema: the same
    /// tightest minimum, the same tightest maximum at caps the search
    /// reaches (3, 16) and does not (4096), and the same single-question
    /// verdicts for bounds 0..=6.
    #[test]
    fn declared_window_searches_answer_like_probing_every_step(
        shape_ix in 0usize..3,
        classes in 2usize..=4,
        rels in 1usize..=2,
        max_card in 1u64..=5,
        seed in 0u64..1u64 << 32,
    ) {
        let shape = [SchemaShape::Flat, SchemaShape::IsaModerate, SchemaShape::IsaHeavy][shape_ix];
        let mut gen = SchemaGen::shaped(shape, classes, rels, seed);
        gen.max_card = max_card;
        let schema = gen.build();
        let config = ExpansionConfig::default();
        let closure = IsaClosure::compute(&schema);
        for rel in schema.rels() {
            for &role in schema.roles_of(rel) {
                for class in schema.classes() {
                    if !closure.is_subclass_of(class, schema.primary_class(role)) {
                        continue;
                    }
                    let at = format!("{}, {} in\n{:?}", schema.class_name(class), schema.role_name(role), schema);
                    prop_assert_eq!(
                        implied_minc(&schema, class, role, &config).unwrap(),
                        reference::implied_minc(&schema, class, role, &config),
                        "implied minc of {}", at
                    );
                    for cap in [3, 16, 4096] {
                        prop_assert_eq!(
                            implied_maxc(&schema, class, role, &config, cap).unwrap(),
                            reference::implied_maxc(&schema, class, role, &config, cap),
                            "implied maxc at cap {} of {}", cap, at
                        );
                    }
                    for k in 0..=6 {
                        prop_assert_eq!(
                            implies_minc(&schema, class, role, k, &config).unwrap(),
                            reference::implies_minc(&schema, class, role, k, &config),
                            "minc = {} of {}", k, at
                        );
                        prop_assert_eq!(
                            implies_maxc(&schema, class, role, k, &config).unwrap(),
                            reference::implies_maxc(&schema, class, role, k, &config),
                            "maxc = {} of {}", k, at
                        );
                    }
                }
            }
        }
    }
}
