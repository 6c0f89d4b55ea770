//! Self-certifying verdicts: independent re-validation of reasoner output.
//!
//! The production pipeline (expansion → `Ψ_S` → greatest fixpoint) is a
//! long chain of exact but intricate code; under fault injection — or a
//! plain bug — it could in principle return a *wrong* verdict rather than
//! a clean error. This module closes that gap by re-deriving every verdict
//! through machinery that is independent of (and much simpler than) the
//! solver path that produced it:
//!
//! * **SAT side.** The reasoner's witness is plugged back into the
//!   paper-verbatim system with [`AcceptableSolution::verify`](crate::sat::AcceptableSolution::verify) — pure
//!   rational arithmetic, no simplex — and its positive entries are
//!   required to coincide exactly with the claimed maximal support.
//! * **UNSAT side.** Every compound class *outside* the support gets a
//!   Farkas/Motzkin certificate ([`cr_linear::FarkasCertificate`]) in a
//!   chain that starts from all compound classes: each proves that `Ψ_S`,
//!   restricted to the classes not yet excluded, admits no solution with
//!   that class positive. Checking a certificate is a handful of dot
//!   products; together with the witness (which shows the support itself
//!   *is* jointly achievable) this certifies each class-level verdict: a
//!   class is satisfiable iff one of its compound classes is in the
//!   support. Neither side trusts how the support was reached, so a
//!   support that is too small (say, one resumed from a corrupted
//!   checkpoint frontier) leaves a class the chain cannot exclude.
//! * **Differential oracle.** On small expansions (at most
//!   [`zenum::MAX_Z_UNKNOWNS`] compound classes) every class verdict is
//!   additionally recomputed by the paper's literal Theorem 3.4
//!   `Z ⊆ V_C` enumeration and compared.
//!
//! Certification cost is metered against the caller's [`Budget`] and the
//! outcome lands in the `certify_checks` / `certify_failures` /
//! `certify_farkas_steps` trace counters, so it is visible in every
//! [`RunReport`](cr_trace::RunReport). The chaos harness
//! (`tests/chaos.rs`) uses this module as ground truth: a fault may abort
//! a request, but any verdict that *is* returned must certify.

use cr_linear::{farkas_certificate_governed, LinearError};
use cr_trace::Counter;

use crate::budget::{Budget, Stage};
use crate::error::{CrError, CrResult};
use crate::expansion::ExpansionConfig;
use crate::sat::{fixpoint, zenum, Reasoner, Strategy};
use crate::schema::Schema;

/// Outcome of a certification pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CertifyReport {
    /// Individual checks performed (witness plug-back, support equality,
    /// Farkas certificates, differential comparisons).
    pub checks: u64,
    /// Farkas certificates derived and verified.
    pub farkas_certificates: u64,
    /// Class verdicts additionally cross-checked by the Z-enumeration
    /// oracle (0 when the expansion is too large for it).
    pub differential_classes: u64,
    /// Human-readable descriptions of every failed check; empty means the
    /// verdict is certified.
    pub failures: Vec<String>,
    /// The independently re-validated unsatisfiable classes, by name, in
    /// id order — callers compare this against the verdict they are
    /// certifying.
    pub unsat_classes: Vec<String>,
}

impl CertifyReport {
    /// Whether every check passed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Certifies the verdicts of an already-built [`Reasoner`].
///
/// Errors only on resource exhaustion ([`CrError::BudgetExceeded`]) or an
/// injected fault; a *failed check* is not an error — it is recorded in
/// [`CertifyReport::failures`] (and the `certify_failures` counter) so the
/// caller can report exactly what was refuted.
pub fn certify_reasoner(reasoner: &Reasoner<'_>, budget: &Budget) -> CrResult<CertifyReport> {
    let tracer = budget.tracer();
    let sys = reasoner.system();
    let support = reasoner.support();
    let mut report = CertifyReport::default();
    let check = |report: &mut CertifyReport, passed: bool, failure: String| {
        report.checks += 1;
        tracer.add(Counter::CertifyChecks, 1);
        if !passed {
            tracer.add(Counter::CertifyFailures, 1);
            report.failures.push(failure);
        }
    };

    // SAT side: the witness must satisfy Ψ_S + acceptability by direct
    // arithmetic, and be positive on exactly the claimed support.
    match reasoner.witness() {
        Some(w) => {
            check(
                &mut report,
                w.verify(sys),
                "witness fails Ψ_S or acceptability re-validation".to_string(),
            );
            let support_matches = support
                .iter()
                .enumerate()
                .all(|(cc, &alive)| w.cclass_counts[cc].is_positive() == alive);
            check(
                &mut report,
                support_matches,
                "witness support differs from the claimed maximal support".to_string(),
            );
        }
        None => check(
            &mut report,
            support.iter().all(|&alive| !alive),
            "no witness although the claimed support is nonempty".to_string(),
        ),
    }

    // UNSAT side: a chain of Farkas certificates shrinks the set of
    // compound classes an acceptable solution may use, from all of them
    // down to the claimed support. Each link proves that `Ψ_S` restricted
    // to the current set admits no solution with an excluded class
    // `cc >= 1`; every acceptable solution inside the set solves that
    // restriction, so `cc` is zero in all of them and leaves the set. A
    // removal never blocks a later one, so the passes repeat until one
    // removes nothing. From the maximal support the chain reaches it in
    // any order; a class that a too-small support wrongly excludes keeps
    // a solution and never leaves. Checking each class only against the
    // support itself would not do: that pins the class to zero, and the
    // probe is infeasible whatever the support.
    let mut possible = vec![true; support.len()];
    let mut pending: Vec<usize> = (0..support.len()).filter(|&cc| !support[cc]).collect();
    loop {
        let before = pending.len();
        for cc in std::mem::take(&mut pending) {
            budget.charge(Stage::Fixpoint, 1)?;
            let probe = fixpoint::restrict(sys, &possible, Some(cc));
            let cert = match farkas_certificate_governed(&probe, &budget) {
                Ok(c) => c,
                Err(LinearError::Interrupted) => return Err(budget.exceeded_err(Stage::Simplex)),
                Err(LinearError::FaultInjected { site }) => {
                    return Err(CrError::FaultInjected { site })
                }
                Err(e) => unreachable!("certificate search cannot fail otherwise: {e}"),
            };
            // The derivation already checked the certificate; checking it
            // again here against the probe keeps the generator untrusted.
            if cert.is_some_and(|c| c.check(&probe).is_ok()) {
                report.farkas_certificates += 1;
                tracer.add(Counter::CertifyFarkasSteps, 1);
                check(&mut report, true, String::new());
                possible[cc] = false;
            } else {
                pending.push(cc);
            }
        }
        if pending.is_empty() || pending.len() == before {
            break;
        }
    }
    for cc in pending {
        check(
            &mut report,
            false,
            format!("no Farkas certificate for excluded compound class {cc}"),
        );
    }

    // Differential oracle on small expansions: the literal Theorem 3.4
    // enumeration must agree with the fixpoint on every class. The classes
    // share one system, so each `Ψ_Z` is solved once for all of them.
    let schema = reasoner.schema();
    let mut memo = zenum::ZMemo::default();
    for class in schema.classes() {
        let claimed = reasoner.is_class_satisfiable(class);
        if !claimed {
            report
                .unsat_classes
                .push(schema.class_name(class).to_string());
        }
        match zenum::satisfiable_by_z_enumeration_memo(
            reasoner.expansion(),
            sys,
            class,
            budget,
            &mut memo,
        ) {
            Ok(oracle) => {
                report.differential_classes += 1;
                check(
                    &mut report,
                    oracle == claimed,
                    format!(
                        "Z-enumeration oracle disagrees on class {} (oracle: {}, fixpoint: {})",
                        schema.class_name(class),
                        oracle,
                        claimed
                    ),
                );
            }
            // Too large for the exponential oracle: skip, not a failure.
            Err(CrError::ZEnumerationTooLarge { .. }) => {}
            Err(e) => return Err(e),
        }
    }

    Ok(report)
}

/// Builds a fresh [`Reasoner`] for `schema` and certifies it. A fresh
/// verdict certifies the reasoner that computed it through
/// [`certify_reasoner`] (`crsat check --certify` and `crsat resume
/// --certify` do, and so does the server for `"certify": true` misses and
/// for everything it stores); a verdict with no reasoner at hand — cached,
/// stored or coalesced in the server — is re-derived here from the schema
/// text, so a corrupted cache entry is caught too.
pub fn certify_check(schema: &Schema, budget: &Budget) -> CrResult<CertifyReport> {
    let reasoner = Reasoner::with_budget(
        schema,
        &ExpansionConfig::default(),
        Strategy::Aggregated,
        budget,
    )?;
    certify_reasoner(&reasoner, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Card, SchemaBuilder};

    fn meeting() -> Schema {
        let mut b = SchemaBuilder::new();
        let speaker = b.class("Speaker");
        let discussant = b.class("Discussant");
        let talk = b.class("Talk");
        b.isa(discussant, speaker);
        let holds = b
            .relationship("Holds", [("U1", speaker), ("U2", talk)])
            .unwrap();
        b.card(speaker, b.role(holds, 0), Card::at_least(1))
            .unwrap();
        b.card(discussant, b.role(holds, 0), Card::at_most(2))
            .unwrap();
        b.card(talk, b.role(holds, 1), Card::exactly(1)).unwrap();
        b.build().unwrap()
    }

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
    fn satisfiable_schema_certifies_clean() {
        let schema = meeting();
        let report = certify_check(&schema, &Budget::unlimited()).unwrap();
        assert!(report.ok(), "failures: {:?}", report.failures);
        assert!(report.checks > 0);
        assert!(report.unsat_classes.is_empty());
        assert!(
            report.differential_classes > 0,
            "small schema must be cross-checked"
        );
    }

    #[test]
    fn unsat_schema_certifies_with_farkas_chain() {
        let schema = figure1();
        let report = certify_check(&schema, &Budget::unlimited()).unwrap();
        assert!(report.ok(), "failures: {:?}", report.failures);
        assert_eq!(report.unsat_classes, vec!["C", "D"]);
        assert!(
            report.farkas_certificates > 0,
            "every excluded compound class needs a certificate"
        );
    }

    #[test]
    fn certification_is_metered() {
        let schema = figure1();
        let tracer = cr_trace::Tracer::new(Box::new(cr_trace::NullSink));
        let budget = Budget::unlimited().with_tracer(&tracer);
        let report = certify_check(&schema, &budget).unwrap();
        assert_eq!(tracer.counter(Counter::CertifyChecks), report.checks);
        assert_eq!(tracer.counter(Counter::CertifyFailures), 0);
        assert_eq!(
            tracer.counter(Counter::CertifyFarkasSteps),
            report.farkas_certificates
        );
    }

    #[test]
    fn certification_respects_the_budget() {
        let schema = figure1();
        let starved = Budget::unlimited().with_max_steps(3);
        assert!(matches!(
            certify_check(&schema, &starved),
            Err(CrError::BudgetExceeded { .. })
        ));
    }

    /// Two disjoint classes that need each other through `R`: the maximal
    /// support holds both, and neither can join an empty support alone.
    fn mutual_pair() -> Schema {
        let mut b = SchemaBuilder::new();
        let x = b.class("X");
        let y = b.class("Y");
        b.disjoint([x, y]).unwrap();
        let r = b.relationship("R", [("U1", x), ("U2", y)]).unwrap();
        b.card(x, b.role(r, 0), Card::at_least(1)).unwrap();
        b.card(y, b.role(r, 1), Card::at_least(1)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn a_corrupted_reasoner_verdict_is_refuted() {
        // A reasoner resumed from a frontier that drops classes of the
        // maximal support ends on a support that is too small. Its witness
        // still fits that support, so the Farkas chain must refute it: the
        // dropped classes keep a solution and cannot be excluded. On the
        // mutual pair, dropping either class drops both, and only a chain
        // that starts from every class, not from the support, sees that.
        let budget = Budget::unlimited();
        for schema in [meeting(), mutual_pair()] {
            let support = Reasoner::new(&schema).unwrap().support().to_vec();
            let mut frontiers = vec![vec![false; support.len()]];
            for (cc, &alive) in support.iter().enumerate() {
                if alive {
                    let mut frontier = support.clone();
                    frontier[cc] = false;
                    frontiers.push(frontier);
                }
            }
            assert!(frontiers.len() > 1, "the support is nonempty");
            for strategy in [Strategy::Aggregated, Strategy::Direct] {
                for frontier in &frontiers {
                    let resumed = Reasoner::with_budget_resumed(
                        &schema,
                        &ExpansionConfig::default(),
                        strategy,
                        &budget,
                        Some(frontier),
                    )
                    .unwrap();
                    let report = certify_reasoner(&resumed, &budget).unwrap();
                    assert!(
                        report
                            .failures
                            .iter()
                            .any(|f| f.starts_with("no Farkas certificate")),
                        "{strategy:?} from {frontier:?}: {:?}",
                        report.failures
                    );
                }
            }
        }
    }
}
