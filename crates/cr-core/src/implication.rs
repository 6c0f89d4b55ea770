//! Logical implication of ISA and cardinality constraints (Section 4).
//!
//! * `S ⊨ C ≼ D` reduces to a support query: the maximal acceptable support
//!   answers "can some compound class containing `C` but not `D` be
//!   populated?" — if none can, every finite model satisfies `C ≼ D`.
//! * `S ⊨ minc(C, R, U) = m` holds iff the auxiliary class `C_exc ≼ C` with
//!   `maxc(C_exc, R, U) = m − 1` is unsatisfiable in the extended schema
//!   (an instance violating the implied minimum is exactly an instance of
//!   `C_exc`); symmetrically `S ⊨ maxc(C, R, U) = n` uses
//!   `minc(C_exc, R, U) = n + 1`.
//!
//! On top of the paper's per-constraint checks, [`implied_minc`] /
//! [`implied_maxc`] compute the *tightest* implied windows by monotone
//! doubling-plus-binary search (this regenerates Figure 7). The implied
//! minimum search always terminates for satisfiable classes; the implied
//! maximum may genuinely not exist (unbounded participation), so that
//! search carries an explicit cap and reports
//! [`ImpliedBound::NoBoundUpTo`] honestly when it is hit.
//!
//! A probe the declared windows already decide builds no auxiliary
//! schema. The windows declared for the role on the class and its
//! ISA-ancestors tighten into one `(min, max)`, as Definition 3.1 does per
//! compound class. Every instance of the class is an instance of each
//! ancestor, so in every model it partakes at least `min` and at most
//! `max` times: `minc = m` holds for `m ≤ min` and `maxc = n` for
//! `n ≥ max`, in any schema. The two searches first establish that the
//! class is satisfiable; some finite model then has an instance of it,
//! which refutes `minc = m` for `m > max` and `maxc = n` for `n < min`.
//! So the implied-minimum search doubles upward from the declared minimum
//! (`min+1, min+2, min+4, …`, then bisects), and the implied-maximum
//! search keeps its probe sequence and cap but skips the probes the
//! window decides. Both find the same monotone frontier as probing every
//! step.

use crate::budget::{Budget, Stage};
use crate::error::{CrError, CrResult};
use crate::expansion::ExpansionConfig;
use crate::ids::{ClassId, RoleId};
use crate::isa::IsaClosure;
use crate::sat::{Reasoner, Strategy};
use crate::schema::{Card, Schema, SchemaBuilder};

/// Result of a tightest-implied-bound query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ImpliedBound {
    /// The queried class is itself unsatisfiable; every bound is vacuously
    /// implied.
    Unsatisfiable,
    /// The tightest implied bound.
    Bound(u64),
    /// (Max-bound queries only.) No bound up to the search cap is implied;
    /// participation is unbounded at least up to this value.
    NoBoundUpTo(u64),
}

/// Three-valued answer of a *governed* implication query: under a resource
/// [`Budget`] the honest outcomes are "holds", "does not hold", and "the
/// budget ran out before the question was decided". The last is
/// [`Verdict::Unknown`] — a budget trip mid-query is *not* evidence either
/// way, so it must not collapse onto `False`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The schema finitely implies the queried constraint.
    True,
    /// The schema does not finitely imply the queried constraint.
    False,
    /// The budget was exhausted before an answer was reached.
    Unknown {
        /// Human-readable account of which guard tripped (the
        /// [`CrError::BudgetExceeded`] display).
        reason: String,
    },
}

impl Verdict {
    /// Whether this is a definite [`Verdict::True`].
    pub fn is_true(&self) -> bool {
        matches!(self, Verdict::True)
    }

    /// Whether the query was actually decided (not [`Verdict::Unknown`]).
    pub fn is_known(&self) -> bool {
        !matches!(self, Verdict::Unknown { .. })
    }
}

impl From<bool> for Verdict {
    fn from(b: bool) -> Verdict {
        if b {
            Verdict::True
        } else {
            Verdict::False
        }
    }
}

/// Three-valued answer of a governed tightest-bound search (the
/// [`Verdict`] analogue for [`implied_minc_governed`] /
/// [`implied_maxc_governed`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BoundVerdict {
    /// The search completed.
    Known(ImpliedBound),
    /// The budget was exhausted mid-search.
    Unknown {
        /// Human-readable account of which guard tripped.
        reason: String,
    },
}

impl Reasoner<'_> {
    /// Whether the schema finitely implies `sub ≼ sup`.
    pub fn implies_isa(&self, sub: ClassId, sup: ClassId) -> bool {
        // Some compound class with sub but without sup populated?
        self.expansion()
            .compound_classes_containing(sub)
            .iter()
            .all(|&cc| {
                !self.support()[cc] || self.expansion().compound_classes()[cc].contains(sup.index())
            })
    }

    /// Whether the schema finitely implies that `c1` and `c2` are disjoint
    /// (no finite model gives them a common instance): no compound class in
    /// the maximal acceptable support contains both.
    pub fn implies_disjoint(&self, c1: ClassId, c2: ClassId) -> bool {
        self.expansion()
            .compound_classes_containing(c1)
            .iter()
            .all(|&cc| {
                !self.support()[cc] || !self.expansion().compound_classes()[cc].contains(c2.index())
            })
    }

    /// Whether the schema finitely implies the covering
    /// `class ⊆ covers_1 ∪ …`: every supported compound class containing
    /// `class` contains some cover.
    pub fn implies_covering(&self, class: ClassId, covers: &[ClassId]) -> bool {
        self.expansion()
            .compound_classes_containing(class)
            .iter()
            .all(|&cc| {
                !self.support()[cc]
                    || covers
                        .iter()
                        .any(|d| self.expansion().compound_classes()[cc].contains(d.index()))
            })
    }

    /// All implied-but-undeclared ISA pairs, in id order.
    pub fn implied_isa_pairs(&self) -> Vec<(ClassId, ClassId)> {
        let schema = self.schema();
        let closure = IsaClosure::compute(schema);
        let mut out = Vec::new();
        for sub in schema.classes() {
            for sup in schema.classes() {
                if sub != sup && !closure.is_subclass_of(sub, sup) && self.implies_isa(sub, sup) {
                    out.push((sub, sup));
                }
            }
        }
        out
    }
}

/// Rebuilds `schema` plus one auxiliary class `C_exc ≼ parent` carrying a
/// single cardinality declaration on `role`.
fn with_exc_class(
    schema: &Schema,
    parent: ClassId,
    role: RoleId,
    card: Card,
) -> CrResult<(Schema, ClassId)> {
    let (mut b, classes, role_map) = SchemaBuilder::copy_structure(schema);
    // A name no user class can carry (user names come from the builder
    // API / DSL identifiers).
    let exc = b.class("\u{22A5}exc");
    b.isa(exc, classes[parent.index()]);
    for &(sub, sup) in schema.isa_statements() {
        b.isa(classes[sub.index()], classes[sup.index()]);
    }
    for d in schema.card_declarations() {
        b.card(classes[d.class.index()], role_map[d.role.index()], d.card)
            .expect("declared cards are unique in the source schema");
    }
    b.card(exc, role_map[role.index()], card)?;
    for group in schema.disjointness_groups() {
        b.disjoint(group.iter().map(|c| classes[c.index()]))?;
    }
    for (c, covers) in schema.coverings() {
        b.covering(
            classes[c.index()],
            covers.iter().map(|c| classes[c.index()]),
        )?;
    }
    let built = b.build()?;
    Ok((built, exc))
}

/// Which bound an implication probe asks about.
#[derive(Clone, Copy)]
enum Side {
    /// `minc(class, role) = k`.
    Min,
    /// `maxc(class, role) = k`.
    Max,
}

/// A well-formed implication question about `(class, role)`, with the
/// window the schema declares for it.
struct Query<'q> {
    schema: &'q Schema,
    class: ClassId,
    role: RoleId,
    /// The windows declared for `role` on `class` and its ISA-ancestors,
    /// tightened into one as Definition 3.1 does per compound class.
    declared: Card,
    config: &'q ExpansionConfig,
    budget: &'q Budget,
}

impl<'q> Query<'q> {
    fn new(
        schema: &'q Schema,
        class: ClassId,
        role: RoleId,
        config: &'q ExpansionConfig,
        budget: &'q Budget,
    ) -> CrResult<Query<'q>> {
        let closure = IsaClosure::compute(schema);
        if !closure.is_subclass_of(class, schema.primary_class(role)) {
            return Err(CrError::CardOnNonSubclass { class, role });
        }
        let declared = closure
            .ancestors(class)
            .iter()
            .fold(Card::UNCONSTRAINED, |card, c| {
                card.tighten(&schema.declared_card(ClassId::from_index(c), role))
            });
        Ok(Query {
            schema,
            class,
            role,
            declared,
            config,
            budget,
        })
    }

    /// Whether the schema implies the `side` bound `k`. The declared window
    /// decides `minc = k` for `k ≤ min` and `maxc = k` for `k ≥ max`; when
    /// the caller knows the class `satisfiable`, it also refutes
    /// `minc = k` for `k > max` and `maxc = k` for `k < min` (see the
    /// module doc for why). Every other bound takes the auxiliary-class
    /// probe of Section 4: one [`Stage::Implication`] unit plus whatever
    /// its expansion and fixpoint charge.
    fn implies(&self, side: Side, k: u64, satisfiable: bool) -> CrResult<bool> {
        let (min, max) = (self.declared.min, self.declared.max);
        let decided = match side {
            Side::Min if k <= min => Some(true),
            Side::Min if satisfiable && max.is_some_and(|max| k > max) => Some(false),
            Side::Max if max.is_some_and(|max| k >= max) => Some(true),
            Side::Max if satisfiable && k < min => Some(false),
            _ => None,
        };
        if let Some(answer) = decided {
            return Ok(answer);
        }
        let _span = self.budget.tracer().span(Stage::Implication.as_str());
        self.budget.charge(Stage::Implication, 1)?;
        self.budget
            .tracer()
            .add(cr_trace::Counter::ImplicationProbes, 1);
        // An instance violating the bound is exactly an instance of C_exc
        // (`k > min ≥ 0` on the minimum side).
        let violation = match side {
            Side::Min => Card::at_most(k - 1),
            Side::Max => Card::at_least(k + 1),
        };
        let (extended, exc) = with_exc_class(self.schema, self.class, self.role, violation)?;
        let r = Reasoner::with_budget(&extended, self.config, Strategy::default(), self.budget)?;
        Ok(!r.is_class_satisfiable(exc))
    }

    /// Whether `class` is finitely satisfiable in the schema itself.
    fn class_satisfiable(&self) -> CrResult<bool> {
        let base =
            Reasoner::with_budget(self.schema, self.config, Strategy::default(), self.budget)?;
        Ok(base.is_class_satisfiable(self.class))
    }
}

/// Whether `schema ⊨ minc(class, role) = m` (Section 4).
///
/// ```
/// use cr_core::expansion::ExpansionConfig;
/// use cr_core::implication::implies_minc;
/// use cr_core::schema::{Card, SchemaBuilder};
///
/// // Every A partakes exactly twice, so minc = 2 is implied but 3 is not.
/// let mut b = SchemaBuilder::new();
/// let a = b.class("A");
/// let x = b.class("X");
/// let r = b.relationship("R", [("u", a), ("v", x)]).unwrap();
/// let u = b.role(r, 0);
/// b.card(a, u, Card::exactly(2)).unwrap();
/// let schema = b.build().unwrap();
///
/// let config = ExpansionConfig::default();
/// assert!(implies_minc(&schema, a, u, 2, &config).unwrap());
/// assert!(!implies_minc(&schema, a, u, 3, &config).unwrap());
/// ```
pub fn implies_minc(
    schema: &Schema,
    class: ClassId,
    role: RoleId,
    m: u64,
    config: &ExpansionConfig,
) -> CrResult<bool> {
    implies_minc_with(schema, class, role, m, config, &Budget::unlimited())
}

/// [`implies_minc`] metered against `budget`, propagating
/// [`CrError::BudgetExceeded`] (the [`Verdict`]-returning wrapper is
/// [`implies_minc_governed`]).
fn implies_minc_with(
    schema: &Schema,
    class: ClassId,
    role: RoleId,
    m: u64,
    config: &ExpansionConfig,
    budget: &Budget,
) -> CrResult<bool> {
    Query::new(schema, class, role, config, budget)?.implies(Side::Min, m, false)
}

/// [`implies_minc`] under a resource [`Budget`]: a budget trip yields
/// [`Verdict::Unknown`] instead of an error — the caller asked a yes/no
/// question and "ran out of budget" is the honest third answer.
pub fn implies_minc_governed(
    schema: &Schema,
    class: ClassId,
    role: RoleId,
    m: u64,
    config: &ExpansionConfig,
    budget: &Budget,
) -> CrResult<Verdict> {
    verdict_of(implies_minc_with(schema, class, role, m, config, budget))
}

/// Whether `schema ⊨ maxc(class, role) = n` (Section 4).
pub fn implies_maxc(
    schema: &Schema,
    class: ClassId,
    role: RoleId,
    n: u64,
    config: &ExpansionConfig,
) -> CrResult<bool> {
    implies_maxc_with(schema, class, role, n, config, &Budget::unlimited())
}

fn implies_maxc_with(
    schema: &Schema,
    class: ClassId,
    role: RoleId,
    n: u64,
    config: &ExpansionConfig,
    budget: &Budget,
) -> CrResult<bool> {
    Query::new(schema, class, role, config, budget)?.implies(Side::Max, n, false)
}

/// [`implies_maxc`] under a resource [`Budget`] (see
/// [`implies_minc_governed`] for the three-valued contract).
pub fn implies_maxc_governed(
    schema: &Schema,
    class: ClassId,
    role: RoleId,
    n: u64,
    config: &ExpansionConfig,
    budget: &Budget,
) -> CrResult<Verdict> {
    verdict_of(implies_maxc_with(schema, class, role, n, config, budget))
}

/// Collapses a budget trip to [`Verdict::Unknown`]; other errors (ill-formed
/// query, oversized expansion) stay errors.
fn verdict_of(result: CrResult<bool>) -> CrResult<Verdict> {
    match result {
        Ok(b) => Ok(Verdict::from(b)),
        Err(e @ CrError::BudgetExceeded { .. }) => Ok(Verdict::Unknown {
            reason: e.to_string(),
        }),
        Err(e) => Err(e),
    }
}

/// The [`BoundVerdict`] analogue of [`verdict_of`].
fn bound_verdict_of(result: CrResult<ImpliedBound>) -> CrResult<BoundVerdict> {
    match result {
        Ok(b) => Ok(BoundVerdict::Known(b)),
        Err(e @ CrError::BudgetExceeded { .. }) => Ok(BoundVerdict::Unknown {
            reason: e.to_string(),
        }),
        Err(e) => Err(e),
    }
}

/// The largest `m` with `schema ⊨ minc(class, role) = m`.
pub fn implied_minc(
    schema: &Schema,
    class: ClassId,
    role: RoleId,
    config: &ExpansionConfig,
) -> CrResult<ImpliedBound> {
    implied_minc_with(schema, class, role, config, &Budget::unlimited())
}

/// [`implied_minc`] under a resource [`Budget`]: the whole
/// doubling-plus-binary search is metered, and exhaustion mid-search yields
/// [`BoundVerdict::Unknown`] rather than a spuriously loose bound.
pub fn implied_minc_governed(
    schema: &Schema,
    class: ClassId,
    role: RoleId,
    config: &ExpansionConfig,
    budget: &Budget,
) -> CrResult<BoundVerdict> {
    bound_verdict_of(implied_minc_with(schema, class, role, config, budget))
}

fn implied_minc_with(
    schema: &Schema,
    class: ClassId,
    role: RoleId,
    config: &ExpansionConfig,
    budget: &Budget,
) -> CrResult<ImpliedBound> {
    let query = Query::new(schema, class, role, config, budget)?;
    if !query.class_satisfiable()? {
        return Ok(ImpliedBound::Unsatisfiable);
    }
    // The declared minimum is implied. Double the step past it until a
    // bound is not implied (terminates: the class is satisfiable, so some
    // model realizes a finite count); saturating at `u64::MAX` ends the
    // doubling with `hi == lo`.
    let base = query.declared.min;
    let mut lo = base; // implied
    let mut step = 1u64;
    let mut hi = base.saturating_add(step);
    while hi > lo && query.implies(Side::Min, hi, true)? {
        lo = hi;
        step = step.saturating_mul(2);
        hi = base.saturating_add(step);
    }
    // Invariant: minc=lo implied, minc=hi not; binary search the frontier.
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if query.implies(Side::Min, mid, true)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(ImpliedBound::Bound(lo))
}

/// The smallest `n` with `schema ⊨ maxc(class, role) = n`, searching up to
/// `cap` (participation maxima can be genuinely unbounded, in which case
/// [`ImpliedBound::NoBoundUpTo`] is returned).
pub fn implied_maxc(
    schema: &Schema,
    class: ClassId,
    role: RoleId,
    config: &ExpansionConfig,
    cap: u64,
) -> CrResult<ImpliedBound> {
    implied_maxc_with(schema, class, role, config, cap, &Budget::unlimited())
}

/// [`implied_maxc`] under a resource [`Budget`] (see
/// [`implied_minc_governed`]).
pub fn implied_maxc_governed(
    schema: &Schema,
    class: ClassId,
    role: RoleId,
    config: &ExpansionConfig,
    cap: u64,
    budget: &Budget,
) -> CrResult<BoundVerdict> {
    bound_verdict_of(implied_maxc_with(schema, class, role, config, cap, budget))
}

fn implied_maxc_with(
    schema: &Schema,
    class: ClassId,
    role: RoleId,
    config: &ExpansionConfig,
    cap: u64,
    budget: &Budget,
) -> CrResult<ImpliedBound> {
    let query = Query::new(schema, class, role, config, budget)?;
    if !query.class_satisfiable()? {
        return Ok(ImpliedBound::Unsatisfiable);
    }
    if query.implies(Side::Max, 0, true)? {
        return Ok(ImpliedBound::Bound(0));
    }
    // Double until an implied bound appears or the cap is passed.
    let mut lo = 0u64; // not implied
    let mut hi = 1u64;
    loop {
        if hi > cap {
            return Ok(ImpliedBound::NoBoundUpTo(cap));
        }
        if query.implies(Side::Max, hi, true)? {
            break;
        }
        lo = hi;
        hi *= 2;
    }
    // Invariant: maxc=hi implied, maxc=lo not.
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if query.implies(Side::Max, mid, true)? {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(ImpliedBound::Bound(hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's meeting schema (Figures 2/3).
    fn meeting() -> (
        Schema,
        ClassId,
        ClassId,
        ClassId,
        RoleId,
        RoleId,
        RoleId,
        RoleId,
    ) {
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
        let (u1, u2) = (b.role(holds, 0), b.role(holds, 1));
        let (u3, u4) = (b.role(participates, 0), b.role(participates, 1));
        b.card(speaker, u1, Card::at_least(1)).unwrap();
        b.card(discussant, u1, Card::at_most(2)).unwrap();
        b.card(talk, u2, Card::exactly(1)).unwrap();
        b.card(discussant, u3, Card::exactly(1)).unwrap();
        b.card(talk, u4, Card::at_least(1)).unwrap();
        (
            b.build().unwrap(),
            speaker,
            discussant,
            talk,
            u1,
            u2,
            u3,
            u4,
        )
    }

    #[test]
    fn figure7_isa_inference() {
        // S ⊨ Speaker ≼ Discussant: every talk has exactly one holder and
        // at least one (exactly one) discussant, discussants hold talks...
        // — the paper's first Figure 7 inference.
        let (schema, speaker, discussant, ..) = meeting();
        let r = Reasoner::new(&schema).unwrap();
        assert!(r.implies_isa(speaker, discussant));
        // The declared direction also holds, trivially.
        assert!(r.implies_isa(discussant, speaker));
        let pairs = r.implied_isa_pairs();
        assert!(pairs.contains(&(speaker, discussant)));
    }

    #[test]
    fn figure7_max_participates() {
        // S ⊨ maxc(Talk, Participates, U4) = 1.
        let (schema, _, _, talk, _, _, _, u4) = meeting();
        let config = ExpansionConfig::default();
        assert!(implies_maxc(&schema, talk, u4, 1, &config).unwrap());
        assert!(!implies_maxc(&schema, talk, u4, 0, &config).unwrap());
        assert_eq!(
            implied_maxc(&schema, talk, u4, &config, 1 << 16).unwrap(),
            ImpliedBound::Bound(1)
        );
    }

    #[test]
    fn figure7_max_holds() {
        // S ⊨ maxc(Speaker, Holds, U1) = 1, although the declaration allows
        // up to 2 for discussants and ∞ for speakers.
        let (schema, speaker, _, _, u1, ..) = meeting();
        let config = ExpansionConfig::default();
        assert!(implies_maxc(&schema, speaker, u1, 1, &config).unwrap());
        assert_eq!(
            implied_maxc(&schema, speaker, u1, &config, 1 << 16).unwrap(),
            ImpliedBound::Bound(1)
        );
    }

    #[test]
    fn implied_minc_on_meeting() {
        // Every speaker holds at least one talk (declared), and the
        // interaction does not force more than that.
        let (schema, speaker, _, _, u1, ..) = meeting();
        let config = ExpansionConfig::default();
        assert_eq!(
            implied_minc(&schema, speaker, u1, &config).unwrap(),
            ImpliedBound::Bound(1)
        );
    }

    #[test]
    fn unbounded_max_reports_cap() {
        // A speaker-only schema with no max constraint: participation is
        // unbounded.
        let mut b = SchemaBuilder::new();
        let s = b.class("S");
        let t = b.class("T");
        let r = b.relationship("R", [("u", s), ("v", t)]).unwrap();
        let u = b.role(r, 0);
        b.card(s, u, Card::at_least(1)).unwrap();
        let schema = b.build().unwrap();
        let config = ExpansionConfig::default();
        assert_eq!(
            implied_maxc(&schema, s, u, &config, 64).unwrap(),
            ImpliedBound::NoBoundUpTo(64)
        );
    }

    #[test]
    fn unsat_class_vacuous_bounds() {
        let mut b = SchemaBuilder::new();
        let c = b.class("C");
        let d = b.class("D");
        b.isa(d, c);
        let r = b.relationship("R", [("U1", c), ("U2", d)]).unwrap();
        let (u1, u2) = (b.role(r, 0), b.role(r, 1));
        b.card(c, u1, Card::at_least(2)).unwrap();
        b.card(d, u2, Card::at_most(1)).unwrap();
        let schema = b.build().unwrap();
        let config = ExpansionConfig::default();
        assert_eq!(
            implied_minc(&schema, c, u1, &config).unwrap(),
            ImpliedBound::Unsatisfiable
        );
        assert_eq!(
            implied_maxc(&schema, c, u1, &config, 64).unwrap(),
            ImpliedBound::Unsatisfiable
        );
    }

    #[test]
    fn governed_queries_answer_or_say_unknown() {
        let (schema, speaker, _, talk, u1, _, _, u4) = meeting();
        let config = ExpansionConfig::default();

        // Generous budget: the governed answers match the ungoverned ones.
        let free = Budget::unlimited();
        assert_eq!(
            implies_maxc_governed(&schema, talk, u4, 1, &config, &free).unwrap(),
            Verdict::True
        );
        assert_eq!(
            implies_maxc_governed(&schema, talk, u4, 0, &config, &free).unwrap(),
            Verdict::False
        );
        assert_eq!(
            implied_minc_governed(&schema, speaker, u1, &config, &free).unwrap(),
            BoundVerdict::Known(ImpliedBound::Bound(1))
        );

        // Starved budget: the only honest answer is Unknown — never a
        // definite verdict, never a panic.
        let starved = Budget::unlimited().with_max_steps(3);
        let v = implies_maxc_governed(&schema, talk, u4, 1, &config, &starved).unwrap();
        assert!(matches!(v, Verdict::Unknown { .. }), "got {v:?}");
        // maxc(Speaker, Holds.U1) needs one probe: maxc = 0 is refuted by
        // the declared minimum, maxc = 1 takes an LP.
        let starved = Budget::unlimited().with_stage_limit(Stage::Implication, 0);
        let b = implied_maxc_governed(&schema, speaker, u1, &config, 1 << 16, &starved).unwrap();
        assert!(matches!(b, BoundVerdict::Unknown { .. }), "got {b:?}");
        // The Unknown reason names the tripped guard.
        if let BoundVerdict::Unknown { reason } = b {
            assert!(reason.contains("implication"), "{reason}");
        }
        // One probe's worth of budget answers it.
        let one_probe = Budget::unlimited().with_stage_limit(Stage::Implication, 1);
        assert_eq!(
            implied_maxc_governed(&schema, speaker, u1, &config, 1 << 16, &one_probe).unwrap(),
            BoundVerdict::Known(ImpliedBound::Bound(1))
        );
    }

    /// Runs `query` under a fresh tracer and returns its answer with the
    /// number of auxiliary-schema probes it took.
    fn probes<T>(query: impl FnOnce(&Budget) -> T) -> (T, u64) {
        let tracer = cr_trace::Tracer::new(Box::new(cr_trace::NullSink));
        let answer = query(&Budget::unlimited().with_tracer(&tracer));
        (answer, tracer.counter(cr_trace::Counter::ImplicationProbes))
    }

    #[test]
    fn declared_windows_settle_probes_without_an_lp() {
        let (schema, speaker, _, talk, u1, u2, ..) = meeting();
        let config = ExpansionConfig::default();
        // Declared 1..∞ on Speaker: minc = 1 is given, only minc = 2 needs
        // an LP.
        assert_eq!(
            probes(|b| implied_minc_governed(&schema, speaker, u1, &config, b).unwrap()),
            (BoundVerdict::Known(ImpliedBound::Bound(1)), 1)
        );
        assert_eq!(
            probes(|b| implies_minc_governed(&schema, speaker, u1, 1, &config, b).unwrap()),
            (Verdict::True, 0)
        );
        // Declared 1..1 on Talk decides both searches outright.
        assert_eq!(
            probes(|b| implied_minc_governed(&schema, talk, u2, &config, b).unwrap()),
            (BoundVerdict::Known(ImpliedBound::Bound(1)), 0)
        );
        assert_eq!(
            probes(|b| implied_maxc_governed(&schema, talk, u2, &config, 1 << 16, b).unwrap()),
            (BoundVerdict::Known(ImpliedBound::Bound(1)), 0)
        );
        // A single question never uses the refuting side: the class might
        // be unsatisfiable, making every bound implied.
        assert_eq!(
            probes(|b| implies_maxc_governed(&schema, talk, u2, 0, &config, b).unwrap()),
            (Verdict::False, 1)
        );
    }

    #[test]
    fn ill_formed_queries_rejected() {
        let mut b = SchemaBuilder::new();
        let a = b.class("A");
        let x = b.class("X");
        let r = b.relationship("R", [("u", a), ("v", a)]).unwrap();
        let u = b.role(r, 0);
        let schema = b.build().unwrap();
        let config = ExpansionConfig::default();
        // X is unrelated to role u's primary class A.
        assert!(matches!(
            implies_minc(&schema, x, u, 1, &config),
            Err(CrError::CardOnNonSubclass { .. })
        ));
    }

    #[test]
    fn isa_not_implied_when_separable() {
        let mut b = SchemaBuilder::new();
        let a = b.class("A");
        let x = b.class("X");
        let schema = {
            b.relationship("R", [("u", a), ("v", x)]).unwrap();
            b.build().unwrap()
        };
        let r = Reasoner::new(&schema).unwrap();
        assert!(!r.implies_isa(a, x));
        assert!(!r.implies_isa(x, a));
        assert!(r.implied_isa_pairs().is_empty());
    }
}
