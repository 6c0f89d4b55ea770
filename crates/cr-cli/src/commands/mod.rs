//! `crsat` subcommand implementations.
//!
//! Every command returns `Result<u8, String>` where the `u8` is the
//! process exit code (0 success, 1 negative answer); `main` owns turning
//! errors into exit codes 2/3 and emitting the run report, so commands
//! never print to stderr themselves.

use cr_core::expansion::ExpansionConfig;
use cr_core::explain::minimal_unsat_core_governed;
use cr_core::ids::{ClassId, RoleId};
use cr_core::implication::{
    implied_maxc_governed, implied_minc_governed, implies_maxc_governed, implies_minc_governed,
    BoundVerdict, ImpliedBound, Verdict,
};
use cr_core::model::ModelConfig;
use cr_core::sat::{Reasoner, Strategy};
use cr_core::system::render_verbatim;
use cr_core::{Budget, CrError, Schema, Stage};

mod delta;
pub use delta::diff;

mod service;
pub use service::{batch, serve};

mod resume;
pub use resume::resume;

mod sim;
pub use sim::{sim, store};

/// The single source of truth for the CLI's outcome protocol: maps a
/// command result to the `(outcome, exit_code)` pair — `("ok", 0)`,
/// `("negative", 1)`, `("error", 2)`, `("budget-exceeded", 3)`. The
/// budget case is recognized by the stable stderr line prefix that
/// [`err_str`] (and `cr-server`'s evaluator) emit.
pub fn classify_outcome(result: &Result<u8, String>) -> (&'static str, u8) {
    match result {
        Ok(0) => ("ok", 0),
        Ok(code) => ("negative", *code),
        Err(msg) if msg.starts_with("budget-exceeded ") => ("budget-exceeded", 3),
        Err(_) => ("error", 2),
    }
}

/// Renders `CrError` for the CLI. Budget exhaustion gets the stable
/// machine-readable form `budget-exceeded stage=<s> spent=<n> limit=<n>`
/// that `main` routes to stderr with exit code 3.
fn err_str(e: CrError) -> String {
    match e {
        CrError::BudgetExceeded {
            stage,
            spent,
            limit,
        } => {
            format!(
                "budget-exceeded stage={} spent={spent} limit={limit}",
                stage.as_str()
            )
        }
        other => other.to_string(),
    }
}

/// Converts an implication [`Verdict::Unknown`] / [`BoundVerdict::Unknown`]
/// back into the structured budget-exceeded line: the budget's guards are
/// still tripped, so re-checking recovers stage/spent/limit.
fn unknown_to_err(budget: &Budget, reason: String) -> String {
    match budget.check(Stage::Implication) {
        Err(e) => err_str(e),
        Ok(()) => reason,
    }
}

fn reasoner<'s>(schema: &'s Schema, budget: &Budget) -> Result<Reasoner<'s>, String> {
    Reasoner::with_budget(
        schema,
        &ExpansionConfig::default(),
        Strategy::default(),
        budget,
    )
    .map_err(err_str)
}

fn find_class(schema: &Schema, name: &str) -> Result<ClassId, String> {
    schema
        .class_by_name(name)
        .ok_or_else(|| format!("unknown class {name:?}"))
}

/// Parses `R.U` into a role id.
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

/// `crsat check`: report finite and unrestricted satisfiability per class
/// (and per relationship); exit 1 if any class is finitely unsatisfiable.
/// With `certify`, the verdict is re-validated through the independent
/// certificate checker and a refutation turns the run into an error.
/// With `checkpoint`, a budget trip additionally serializes the
/// interrupted fixpoint state to the given path for `crsat resume`.
pub fn check(
    schema: &Schema,
    certify: bool,
    checkpoint: Option<&str>,
    budget: &Budget,
) -> Result<u8, String> {
    let r = Reasoner::with_budget(
        schema,
        &ExpansionConfig::default(),
        Strategy::default(),
        budget,
    )
    .map_err(|e| checkpoint_on_trip(e, schema, checkpoint, budget))?;
    check_with_reasoner(schema, &r, certify, budget)
}

/// The budget-exceeded exit path of `check`: when a checkpoint file was
/// requested, harvest the frontier the fixpoint deposited on the budget
/// and write it out atomically before surfacing the structured
/// budget-exceeded line (exit code 3 either way — the checkpoint is a
/// side artifact, not a success).
fn checkpoint_on_trip(
    e: CrError,
    schema: &Schema,
    checkpoint: Option<&str>,
    budget: &Budget,
) -> String {
    if let (CrError::BudgetExceeded { stage, .. }, Some(path)) = (&e, checkpoint) {
        let cp = cr_core::checkpoint::Checkpoint::from_interrupted(
            "check",
            cr_lang::print_schema(schema),
            cr_core::canonical_hash(schema),
            strategy_name(Strategy::default()),
            *stage,
            budget,
        );
        match cr_store::write_atomic(std::path::Path::new(path), cp.to_json().as_bytes()) {
            Ok(()) => println!("checkpoint written to {path}"),
            Err(werr) => return format!("cannot write checkpoint {path}: {werr}"),
        }
    }
    err_str(e)
}

/// Stable strategy names shared by the checkpoint schema and `resume`'s
/// parser.
pub(crate) fn strategy_name(strategy: Strategy) -> &'static str {
    match strategy {
        Strategy::Aggregated => "aggregated",
        Strategy::Direct => "direct",
    }
}

/// The reporting half of `check`, shared with `crsat resume` (which builds
/// its reasoner from a checkpointed frontier instead of from scratch).
pub(crate) fn check_with_reasoner(
    schema: &Schema,
    r: &Reasoner<'_>,
    certify: bool,
    budget: &Budget,
) -> Result<u8, String> {
    let viable = cr_core::unrestricted::viable_compound_classes(r.expansion());
    let mut any_unsat = false;
    println!("{:<24} {:<16} unrestricted", "class", "finite");
    for c in schema.classes() {
        let sat = r.is_class_satisfiable(c);
        let unres = r
            .expansion()
            .compound_classes_containing(c)
            .iter()
            .any(|&cc| viable[cc]);
        any_unsat |= !sat;
        println!(
            "{:<24} {:<16} {}",
            schema.class_name(c),
            if sat { "satisfiable" } else { "UNSATISFIABLE" },
            if unres {
                "satisfiable"
            } else {
                "UNSATISFIABLE"
            }
        );
    }
    for rel in schema.rels() {
        println!(
            "{:<24} {}",
            format!("rel {}", schema.rel_name(rel)),
            if r.is_rel_satisfiable(rel) {
                "satisfiable"
            } else {
                "UNSATISFIABLE (empty in every finite model)"
            }
        );
    }
    if certify {
        // Certify the reasoner that answered. No certificate check trusts
        // how its support was reached: a support resumed from a corrupted
        // checkpoint frontier is too small, and the Farkas chain cannot
        // exclude the classes it wrongly drops.
        let certified = cr_core::certify_reasoner(r, budget).map_err(err_str)?;
        if !certified.ok() {
            for f in &certified.failures {
                println!("certify: {f}");
            }
            return Err(format!(
                "certification refuted the verdict ({} of {} checks failed)",
                certified.failures.len(),
                certified.checks
            ));
        }
        println!(
            "\ncertified: {} checks, {} Farkas certificates, {} classes cross-checked \
             by the enumeration oracle",
            certified.checks, certified.farkas_certificates, certified.differential_classes
        );
    }
    if any_unsat {
        println!(
            "\nschema has finitely unsatisfiable classes; run `crsat explain` for a minimal core"
        );
        Ok(1)
    } else {
        println!("\nall {} classes satisfiable", schema.num_classes());
        Ok(0)
    }
}

/// `crsat expand`: print the expansion (Figure 4 style).
pub fn expand(schema: &Schema, budget: &Budget) -> Result<u8, String> {
    let r = reasoner(schema, budget)?;
    let exp = r.expansion();
    println!(
        "compound classes: {} total, {} consistent",
        exp.total_compound_classes(),
        exp.compound_classes().len()
    );
    for i in 0..exp.compound_classes().len() {
        println!("  {}", exp.cclass_name(i));
    }
    println!(
        "consistent compound relationships: {}",
        exp.compound_rels().len()
    );
    for rel in schema.rels() {
        println!(
            "  {}: {} compound relationships",
            schema.rel_name(rel),
            exp.compound_rels_of(rel).len()
        );
    }
    println!("derived cardinalities (Definition 3.1):");
    for rel in schema.rels() {
        for &u in schema.roles_of(rel) {
            let primary = schema.primary_class(u);
            for &cc in exp.compound_classes_containing(primary) {
                let card = exp.derived_card(cc, u);
                if card != cr_core::Card::UNCONSTRAINED {
                    println!(
                        "  {} in {}.{}: {}",
                        exp.cclass_name(cc),
                        schema.rel_name(rel),
                        schema.role_name(u),
                        card
                    );
                }
            }
        }
    }
    Ok(0)
}

/// `crsat system`: print `Ψ_S` (Figure 5 style), optionally verbatim with
/// forced-zero unknowns.
pub fn system(schema: &Schema, verbatim: bool, budget: &Budget) -> Result<u8, String> {
    let r = reasoner(schema, budget)?;
    if verbatim {
        let text = render_verbatim(r.expansion(), 8).map_err(|e| e.to_string())?;
        print!("{text}");
    } else {
        print!("{}", r.system().render(r.expansion()));
    }
    Ok(0)
}

/// `crsat model`: construct a verified model (Figure 6 style).
pub fn model(schema: &Schema, budget: &Budget) -> Result<u8, String> {
    let r = reasoner(schema, budget)?;
    match r
        .construct_model(&ModelConfig::default())
        .map_err(|e| e.to_string())?
    {
        None => {
            println!("no class is satisfiable; the only model is empty");
            Ok(1)
        }
        Some(m) => {
            println!("domain: {} individuals", m.domain_size());
            for c in schema.classes() {
                let ext: Vec<String> = m
                    .class_extension(c)
                    .iter()
                    .map(|i| format!("e{i}"))
                    .collect();
                println!("  {} = {{{}}}", schema.class_name(c), ext.join(", "));
            }
            for rel in schema.rels() {
                println!("  {} =", schema.rel_name(rel));
                for tuple in m.rel_extension(rel) {
                    let parts: Vec<String> = schema
                        .roles_of(rel)
                        .iter()
                        .zip(tuple)
                        .map(|(&u, i)| format!("{}: e{}", schema.role_name(u), i))
                        .collect();
                    println!("    ⟨{}⟩", parts.join(", "));
                }
            }
            println!("verified against Definition 2.2: ok");
            Ok(0)
        }
    }
}

/// `crsat implies <isa A B | min C R.U k | max C R.U k>`.
pub fn implies(schema: &Schema, rest: &[String], budget: &Budget) -> Result<u8, String> {
    let usage = "implies query: isa <A> <B> | min <C> <Rel.Role> <k> | max <C> <Rel.Role> <k>";
    let config = ExpansionConfig::default();
    let verdict = match rest {
        [kind, a, b] if kind == "isa" => {
            let r = reasoner(schema, budget)?;
            Verdict::from(r.implies_isa(find_class(schema, a)?, find_class(schema, b)?))
        }
        [kind, c, role, k] if kind == "min" => {
            let k: u64 = k.parse().map_err(|_| usage.to_string())?;
            implies_minc_governed(
                schema,
                find_class(schema, c)?,
                find_role(schema, role)?,
                k,
                &config,
                budget,
            )
            .map_err(err_str)?
        }
        [kind, c, role, k] if kind == "max" => {
            let k: u64 = k.parse().map_err(|_| usage.to_string())?;
            implies_maxc_governed(
                schema,
                find_class(schema, c)?,
                find_role(schema, role)?,
                k,
                &config,
                budget,
            )
            .map_err(err_str)?
        }
        _ => return Err(usage.to_string()),
    };
    match verdict {
        Verdict::True => {
            println!("implied");
            Ok(0)
        }
        Verdict::False => {
            println!("not implied");
            Ok(1)
        }
        Verdict::Unknown { reason } => Err(unknown_to_err(budget, reason)),
    }
}

/// `crsat bounds <C> <Rel.Role>`: tightest implied window.
pub fn bounds(schema: &Schema, rest: &[String], budget: &Budget) -> Result<u8, String> {
    let [class, role] = rest else {
        return Err("bounds query: <C> <Rel.Role>".to_string());
    };
    let c = find_class(schema, class)?;
    let u = find_role(schema, role)?;
    let config = ExpansionConfig::default();
    let known = |b: BoundVerdict| match b {
        BoundVerdict::Known(bound) => Ok(bound),
        BoundVerdict::Unknown { reason } => Err(unknown_to_err(budget, reason)),
    };
    let min = known(implied_minc_governed(schema, c, u, &config, budget).map_err(err_str)?)?;
    let max =
        known(implied_maxc_governed(schema, c, u, &config, 1 << 16, budget).map_err(err_str)?)?;
    match (min, max) {
        (ImpliedBound::Unsatisfiable, _) | (_, ImpliedBound::Unsatisfiable) => {
            println!("{class} is unsatisfiable; every window is vacuously implied");
        }
        (min, max) => {
            let lo = match min {
                ImpliedBound::Bound(m) => m.to_string(),
                _ => "?".to_string(),
            };
            let hi = match max {
                ImpliedBound::Bound(n) => n.to_string(),
                ImpliedBound::NoBoundUpTo(cap) => format!("∞ (no bound up to {cap})"),
                _ => "?".to_string(),
            };
            println!("tightest implied window for {class} in {role}: ({lo}, {hi})");
        }
    }
    Ok(0)
}

/// `crsat report`: the full design review a CASE tool would surface —
/// satisfiability (finite and unrestricted), implied ISA, tightest implied
/// windows for every declared constraint, and minimal cores for
/// unsatisfiable classes.
pub fn report(schema: &Schema, budget: &Budget) -> Result<u8, String> {
    let r = reasoner(schema, budget)?;
    let config = ExpansionConfig::default();

    println!("# Schema report\n");
    println!(
        "{} classes, {} relationships, {} ISA statements, {} cardinality declarations",
        schema.num_classes(),
        schema.num_rels(),
        schema.isa_statements().len(),
        schema.card_declarations().len()
    );
    println!(
        "expansion: {} consistent compound classes of {} subsets, {} compound relationships\n",
        r.expansion().compound_classes().len(),
        r.expansion().total_compound_classes(),
        r.expansion().compound_rels().len()
    );

    println!("## Satisfiability\n");
    let viable = cr_core::unrestricted::viable_compound_classes(r.expansion());
    let mut unsat = Vec::new();
    for c in schema.classes() {
        let finite = r.is_class_satisfiable(c);
        let unres = r
            .expansion()
            .compound_classes_containing(c)
            .iter()
            .any(|&cc| viable[cc]);
        if !finite {
            unsat.push(c);
        }
        println!(
            "- {}: {}{}",
            schema.class_name(c),
            if finite {
                "satisfiable"
            } else {
                "UNSATISFIABLE"
            },
            if !finite && unres {
                " (satisfiable over infinite domains: a finite-model artifact)"
            } else {
                ""
            }
        );
    }
    for rel in schema.rels() {
        if !r.is_rel_satisfiable(rel) {
            println!(
                "- relationship {}: empty in every finite model",
                schema.rel_name(rel)
            );
        }
    }

    println!("\n## Implied (undeclared) ISA\n");
    let pairs = r.implied_isa_pairs();
    if pairs.is_empty() {
        println!("- none");
    }
    for (sub, sup) in pairs {
        println!("- {} ≼ {}", schema.class_name(sub), schema.class_name(sup));
    }

    println!("\n## Tightest implied windows (declared constraints)\n");
    for d in schema.card_declarations() {
        if unsat.contains(&d.class) {
            continue;
        }
        let known = |b: BoundVerdict| match b {
            BoundVerdict::Known(bound) => Ok(bound),
            BoundVerdict::Unknown { reason } => Err(unknown_to_err(budget, reason)),
        };
        let lo = known(
            implied_minc_governed(schema, d.class, d.role, &config, budget).map_err(err_str)?,
        )?;
        let hi = known(
            implied_maxc_governed(schema, d.class, d.role, &config, 1 << 12, budget)
                .map_err(err_str)?,
        )?;
        let fmt = |b: ImpliedBound, inf: &str| match b {
            ImpliedBound::Bound(v) => v.to_string(),
            ImpliedBound::NoBoundUpTo(_) => inf.to_string(),
            ImpliedBound::Unsatisfiable => "-".to_string(),
        };
        println!(
            "- {} in {}.{}: declared {}, implied ({},{})",
            schema.class_name(d.class),
            schema.rel_name(schema.rel_of_role(d.role)),
            schema.role_name(d.role),
            d.card,
            fmt(lo, "0"),
            fmt(hi, "∞")
        );
    }

    if !unsat.is_empty() {
        println!("\n## Minimal unsatisfiable cores\n");
        for c in &unsat {
            if let Some(core) =
                minimal_unsat_core_governed(schema, *c, &config, budget).map_err(err_str)?
            {
                println!("- {}:", schema.class_name(*c));
                for item in core {
                    println!("    {}", item.describe(schema));
                }
            }
        }
        return Ok(1);
    }
    Ok(0)
}

/// `crsat compare <a> <b>`: semantic subsumption / equivalence of two
/// schemas over the same signature.
pub fn compare(a: &Schema, b: &Schema) -> Result<u8, String> {
    let config = ExpansionConfig::default();
    let ab = cr_core::compare::subsumes(a, b, &config).map_err(|e| e.to_string())?;
    let ba = cr_core::compare::subsumes(b, a, &config).map_err(|e| e.to_string())?;
    match (ab.holds(), ba.holds()) {
        (true, true) => {
            println!("equivalent: the schemas have exactly the same finite models");
            Ok(0)
        }
        (true, false) => {
            println!("first schema is strictly stronger; second does not imply:");
            for f in &ba.failing {
                println!("  {f}");
            }
            Ok(1)
        }
        (false, true) => {
            println!("second schema is strictly stronger; first does not imply:");
            for f in &ab.failing {
                println!("  {f}");
            }
            Ok(1)
        }
        (false, false) => {
            println!("incomparable; first does not imply:");
            for f in &ab.failing {
                println!("  {f}");
            }
            println!("and second does not imply:");
            for f in &ba.failing {
                println!("  {f}");
            }
            Ok(1)
        }
    }
}

/// `crsat explain <class>`: minimal unsatisfiable core.
pub fn explain(schema: &Schema, rest: &[String], budget: &Budget) -> Result<u8, String> {
    let [class] = rest else {
        return Err("explain query: <class>".to_string());
    };
    let c = find_class(schema, class)?;
    match minimal_unsat_core_governed(schema, c, &ExpansionConfig::default(), budget)
        .map_err(err_str)?
    {
        None => {
            println!("{class} is satisfiable; nothing to explain");
            Ok(0)
        }
        Some(core) => {
            println!(
                "{class} is unsatisfiable; minimal core ({} constraints):",
                core.len()
            );
            for r in &core {
                println!("  {}", r.describe(schema));
            }
            println!("removing any one of these restores satisfiability");
            Ok(1)
        }
    }
}
