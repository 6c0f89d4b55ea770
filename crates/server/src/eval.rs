//! Question evaluation: the bridge from protocol requests to the `cr-core`
//! reasoning pipeline. Shared by the daemon and `crsat batch`, and —
//! crucially — identical in verdict to the single-threaded `crsat check` /
//! `crsat implies` code paths (both call the same governed entry points).

use cr_core::expansion::ExpansionConfig;
use cr_core::ids::{ClassId, RoleId};
use cr_core::implication::{implies_maxc_governed, implies_minc_governed, Verdict};
use cr_core::sat::{Reasoner, Strategy};
use cr_core::{Budget, CertifyReport, CrError, Schema, Stage};

use crate::protocol::Status;

/// The outcome of evaluating one question against one schema.
#[derive(Clone, Debug)]
pub struct Answer {
    /// Outcome status (drives the response status / exit code).
    pub status: Status,
    /// Machine-readable verdict.
    pub verdict: String,
    /// Human-readable detail lines.
    pub detail: Vec<String>,
}

impl Answer {
    pub(crate) fn error(message: String) -> Answer {
        Answer {
            status: Status::Error,
            verdict: String::new(),
            detail: vec![message],
        }
    }

    /// The answer to `check`, from its unsatisfiable class names followed
    /// by `rel <name>` lines. An empty-in-every-finite-model relationship
    /// is reported but, as in the CLI, only unsatisfiable *classes* make
    /// the verdict negative.
    fn checked(unsat: Vec<String>) -> Answer {
        let (status, verdict) = if unsat.iter().any(|n| !n.starts_with("rel ")) {
            (Status::Negative, "unsatisfiable")
        } else {
            (Status::Ok, "satisfiable")
        };
        Answer {
            status,
            verdict: verdict.to_string(),
            detail: unsat,
        }
    }

    /// Whether this answer may be cached (deterministic for the schema and
    /// question, independent of the request's budget).
    pub fn cacheable(&self) -> bool {
        matches!(self.status, Status::Ok | Status::Negative)
    }
}

/// Renders budget exhaustion in the stable machine-readable form the CLI
/// uses on stderr (`budget-exceeded stage=<s> spent=<n> limit=<n>`).
pub fn budget_line(e: &CrError) -> Option<String> {
    match e {
        CrError::BudgetExceeded {
            stage,
            spent,
            limit,
        } => Some(format!(
            "budget-exceeded stage={} spent={spent} limit={limit}",
            stage.as_str()
        )),
        _ => None,
    }
}

fn from_cr_error(e: CrError, budget: &Budget) -> Answer {
    if let CrError::FaultInjected { .. } = e {
        // Surfaced faults are metered so chaos runs can see, per request,
        // that an injection was contained rather than swallowed.
        budget.tracer().add(cr_trace::Counter::FaultsInjected, 1);
    }
    match budget_line(&e) {
        Some(line) => Answer {
            status: Status::BudgetExceeded,
            verdict: String::new(),
            detail: vec![line],
        },
        None => Answer::error(e.to_string()),
    }
}

/// `check`: finite satisfiability of every class (and relationship).
/// Status is [`Status::Negative`] iff some class is finitely
/// unsatisfiable — the same criterion as `crsat check`'s exit code 1.
pub fn check(schema: &Schema, budget: &Budget) -> Answer {
    check_certified(schema, budget, false).0
}

/// [`cr_core::certify_reasoner`]'s report on a reasoner, or the error
/// (budget trip, injected fault) that stopped certification.
pub type Certification = Result<CertifyReport, CrError>;

/// [`check`], plus, when `certify` is set, the [`Certification`] of the
/// very reasoner that answered. There is none when no reasoner was built:
/// then there is no verdict to certify.
pub fn check_certified(
    schema: &Schema,
    budget: &Budget,
    certify: bool,
) -> (Answer, Option<Certification>) {
    let reasoner = match Reasoner::with_budget(
        schema,
        &ExpansionConfig::default(),
        Strategy::default(),
        budget,
    ) {
        Ok(r) => r,
        Err(e) => return (from_cr_error(e, budget), None),
    };
    let mut unsat = Vec::new();
    for c in schema.classes() {
        if !reasoner.is_class_satisfiable(c) {
            unsat.push(schema.class_name(c).to_string());
        }
    }
    for rel in schema.rels() {
        if !reasoner.is_rel_satisfiable(rel) {
            unsat.push(format!("rel {}", schema.rel_name(rel)));
        }
    }
    let answer = Answer::checked(unsat);
    let certified = certify.then(|| cr_core::certify_reasoner(&reasoner, budget));
    (answer, certified)
}

/// The outcome of the delta evaluation path.
// `Answered` dwarfs `Fallback` (it carries the next edit's reusable
// context), but every value is consumed immediately on one path, so the
// boxing clippy suggests would only add a hot-path allocation.
#[allow(clippy::large_enum_variant)]
pub enum DeltaEval {
    /// The delta path produced a verdict; `next` is the edited schema's
    /// context, ready to be pinned for the next edit in a stream.
    Answered {
        /// The answer (same shape as [`check`]'s).
        answer: Answer,
        /// Context of the edited schema.
        next: cr_delta::DeltaContext,
    },
    /// The delta path declined (structural diff, invalidation blow-up,
    /// injected delta fault); the caller runs a full check on the already-
    /// derived edited canonical form.
    Fallback {
        /// Canonical form of the edited schema.
        edited_canonical: String,
        /// Human-readable reason, surfaced in the response detail.
        reason: String,
    },
}

/// `check_delta`: satisfiability of a pinned base with a diff applied,
/// reusing the base's cached expansion/support/witness (see `cr-delta`).
/// Errors (malformed diff, budget trips) come back as the `Err` [`Answer`].
pub fn check_delta(
    base: &cr_delta::DeltaContext,
    diff: &cr_delta::SchemaDiff,
    budget: &Budget,
) -> Result<DeltaEval, Answer> {
    let outcome = cr_delta::check_delta(
        base,
        diff,
        &cr_delta::DeltaConfig::default(),
        &ExpansionConfig::default(),
        budget,
    );
    match outcome {
        Ok(cr_delta::DeltaOutcome::Checked(v)) => {
            let mut unsat = v.unsat_classes;
            unsat.extend(v.unsat_rels.iter().map(|r| format!("rel {r}")));
            Ok(DeltaEval::Answered {
                answer: Answer::checked(unsat),
                next: v.next,
            })
        }
        Ok(cr_delta::DeltaOutcome::Fallback {
            edited_canonical,
            reason,
        }) => Ok(DeltaEval::Fallback {
            edited_canonical,
            reason: reason.to_string(),
        }),
        Err(e) => Err(delta_error_answer(e, budget)),
    }
}

/// Renders a `cr-delta` error as an [`Answer`] (budget trips keep their
/// protocol status; everything else is a plain error).
pub fn delta_error_answer(e: cr_delta::DeltaError, budget: &Budget) -> Answer {
    match e {
        cr_delta::DeltaError::Malformed(what) => Answer::error(format!("delta: {what}")),
        cr_delta::DeltaError::Core(e) => from_cr_error(e, budget),
    }
}

fn find_class(schema: &Schema, name: &str) -> Result<ClassId, String> {
    schema
        .class_by_name(name)
        .ok_or_else(|| format!("unknown class {name:?}"))
}

fn find_role(schema: &Schema, spec: &str) -> Result<RoleId, String> {
    let (rel_name, role_name) = spec
        .split_once('.')
        .ok_or_else(|| format!("role spec {spec:?} must look like Rel.Role"))?;
    let rel = schema
        .rel_by_name(rel_name)
        .ok_or_else(|| format!("unknown relationship {rel_name:?}"))?;
    schema
        .role_by_name(rel, role_name)
        .ok_or_else(|| format!("relationship {rel_name:?} has no role {role_name:?}"))
}

/// `implies`: the same query grammar as `crsat implies` —
/// `isa A B` | `min C Rel.Role k` | `max C Rel.Role k`.
pub fn implies(schema: &Schema, query: &[String], budget: &Budget) -> Answer {
    let usage = "implies query: isa <A> <B> | min <C> <Rel.Role> <k> | max <C> <Rel.Role> <k>";
    let config = ExpansionConfig::default();
    let verdict = match query {
        [kind, a, b] if kind == "isa" => {
            let (a, b) = match (find_class(schema, a), find_class(schema, b)) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(e), _) | (_, Err(e)) => return Answer::error(e),
            };
            match Reasoner::with_budget(schema, &config, Strategy::default(), budget) {
                Ok(r) => Verdict::from(r.implies_isa(a, b)),
                Err(e) => return from_cr_error(e, budget),
            }
        }
        [kind, c, role, k] if kind == "min" || kind == "max" => {
            let class = match find_class(schema, c) {
                Ok(c) => c,
                Err(e) => return Answer::error(e),
            };
            let role = match find_role(schema, role) {
                Ok(u) => u,
                Err(e) => return Answer::error(e),
            };
            let k: u64 = match k.parse() {
                Ok(k) => k,
                Err(_) => return Answer::error(usage.to_string()),
            };
            let result = if kind == "min" {
                implies_minc_governed(schema, class, role, k, &config, budget)
            } else {
                implies_maxc_governed(schema, class, role, k, &config, budget)
            };
            match result {
                Ok(v) => v,
                Err(e) => return from_cr_error(e, budget),
            }
        }
        _ => return Answer::error(usage.to_string()),
    };
    match verdict {
        Verdict::True => Answer {
            status: Status::Ok,
            verdict: "implied".to_string(),
            detail: Vec::new(),
        },
        Verdict::False => Answer {
            status: Status::Negative,
            verdict: "not-implied".to_string(),
            detail: Vec::new(),
        },
        Verdict::Unknown { reason } => match budget.check(Stage::Implication) {
            Err(e) => from_cr_error(e, budget),
            Ok(()) => Answer::error(reason),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1() -> Schema {
        cr_lang::parse_schema(
            "class C; class D isa C; relationship R (U1: C, U2: D); \
             card C in R.U1: 2..*; card D in R.U2: 0..1;",
        )
        .unwrap()
    }

    #[test]
    fn check_reports_unsat_classes() {
        let schema = figure1();
        let answer = check(&schema, &Budget::unlimited());
        assert_eq!(answer.status, Status::Negative);
        assert_eq!(answer.verdict, "unsatisfiable");
        assert!(answer.detail.contains(&"C".to_string()));
        assert!(answer.detail.contains(&"D".to_string()));
    }

    #[test]
    fn implies_isa_and_bad_queries() {
        let schema = figure1();
        let yes = implies(
            &schema,
            &["isa".into(), "D".into(), "C".into()],
            &Budget::unlimited(),
        );
        assert_eq!(yes.status, Status::Ok);
        let unknown = implies(
            &schema,
            &["isa".into(), "Nope".into(), "C".into()],
            &Budget::unlimited(),
        );
        assert_eq!(unknown.status, Status::Error);
        let malformed = implies(&schema, &["what".into()], &Budget::unlimited());
        assert_eq!(malformed.status, Status::Error);
    }

    #[test]
    fn budget_trip_surfaces_protocol_line() {
        let schema = figure1();
        let budget = Budget::unlimited().with_max_steps(1);
        let answer = check(&schema, &budget);
        assert_eq!(answer.status, Status::BudgetExceeded);
        assert!(answer.detail[0].starts_with("budget-exceeded stage="));
        assert!(!answer.cacheable());
    }
}
