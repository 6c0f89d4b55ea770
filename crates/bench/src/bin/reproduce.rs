//! Regenerates every figure of the paper and the scaling/ablation
//! experiments recorded in EXPERIMENTS.md.
//!
//! ```text
//! reproduce                 # everything
//! reproduce figures         # Figures 1-7 + the Section 3.3 counterexample
//! reproduce scaling         # experiments E1-E7
//! reproduce bench           # machine-readable snapshot: E-series timings
//!                           # + a daemon load run (BENCH_<date>.json)
//! reproduce --quick         # smaller sweeps (CI-friendly)
//! reproduce --stats FILE    # also write a RunReport (JSON) for the
//!                           # instrumented reference pipeline to FILE
//! reproduce bench --out F   # snapshot destination (default BENCH_<date>.json)
//! reproduce bench --date D  # stamp the snapshot with date D (default today)
//! reproduce bench --compare BASE.json   # after snapshotting, diff against a
//!                           # committed baseline and exit 1 on regression
//! reproduce bench --threshold P         # regression threshold in percent
//!                           # (default 75: fail when a family's geometric-
//!                           # mean slowdown exceeds 1.75x)
//! ```

use std::time::Instant;

use cr_baseline::BaselineReasoner;
use cr_bench::{SchemaGen, SchemaShape};
use cr_core::expansion::{Expansion, ExpansionConfig};
use cr_core::implication::{implied_maxc, implied_minc, ImpliedBound};
use cr_core::model::ModelConfig;
use cr_core::sat::zenum::satisfiable_by_z_enumeration;
use cr_core::sat::Reasoner;
use cr_core::schema::Schema;
use cr_core::system::render_verbatim;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let stats = stats_path(&args);
    let what = args
        .iter()
        .enumerate()
        .filter(|&(i, a)| {
            !(a.starts_with("--")
                || i > 0
                    && matches!(
                        args[i - 1].as_str(),
                        "--stats" | "--out" | "--date" | "--compare" | "--threshold"
                    ))
        })
        .map(|(_, a)| a.as_str())
        .next()
        .unwrap_or("all");
    if what == "figures" || what == "all" {
        figures();
    }
    if what == "scaling" || what == "all" {
        scaling(quick);
    }
    if what == "bench" {
        let date = flag_value(&args, "--date").unwrap_or_else(today);
        let out = flag_value(&args, "--out").unwrap_or_else(|| format!("BENCH_{date}.json"));
        bench_snapshot(quick, &out, &date);
        if let Some(base) = flag_value(&args, "--compare") {
            let threshold = flag_value(&args, "--threshold")
                .map(|v| {
                    v.parse::<f64>().unwrap_or_else(|_| {
                        eprintln!("--threshold needs a number (percent), got {v:?}");
                        std::process::exit(2);
                    })
                })
                .unwrap_or(75.0);
            compare_snapshots(&out, &base, threshold);
        }
    }
    if let Some(path) = stats {
        write_run_report(&path);
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    let eq = format!("{flag}=");
    for (i, a) in args.iter().enumerate() {
        if let Some(v) = a.strip_prefix(&eq) {
            return Some(v.to_string());
        }
        if a == flag {
            return args.get(i + 1).cloned();
        }
    }
    None
}

/// Today as `YYYY-MM-DD` (UTC), from the epoch by the standard civil
/// calendar conversion — no date dependency needed for a file stamp.
fn today() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

fn stats_path(args: &[String]) -> Option<String> {
    for (i, a) in args.iter().enumerate() {
        if let Some(v) = a.strip_prefix("--stats=") {
            return Some(v.to_string());
        }
        if a == "--stats" {
            return args.get(i + 1).cloned();
        }
    }
    None
}

/// Runs the reference pipeline (the meeting schema: reasoner, implication
/// probe, model construction) under a null-sink tracer and writes the
/// resulting RunReport to `path` — the same JSON document `crsat --stats`
/// emits, so EXPERIMENTS.md tooling consumes one format.
fn write_run_report(path: &str) {
    use cr_core::budget::Budget;
    use cr_core::implication::implied_minc_governed;
    use cr_core::sat::Strategy;
    use cr_trace::{NullSink, Tracer};

    let schema = meeting();
    let tracer = Tracer::new(Box::new(NullSink));
    let budget = Budget::unlimited().with_tracer(&tracer);
    let config = ExpansionConfig::default();
    let r = Reasoner::with_budget(&schema, &config, Strategy::default(), &budget).unwrap();
    if let Some(d) = schema.card_declarations().first() {
        let _ = implied_minc_governed(&schema, d.class, d.role, &config, &budget).unwrap();
    }
    let _ = r.construct_model(&ModelConfig::default()).unwrap();
    let mut report = cr_core::run_report(&budget, "reproduce:reference-pipeline", "ok");
    report.target = "meeting schema (Figures 2/3)".to_string();
    match std::fs::write(path, report.to_json() + "\n") {
        Ok(()) => println!("\nrun report written to {path}"),
        Err(e) => eprintln!("cannot write stats to {path}: {e}"),
    }
}

const MEETING: &str = r#"
    class Speaker;
    class Discussant isa Speaker;
    class Talk;
    relationship Holds (U1: Speaker, U2: Talk);
    relationship Participates (U3: Discussant, U4: Talk);
    card Speaker in Holds.U1: 1..*;
    card Discussant in Holds.U1: 0..2;
    card Talk in Holds.U2: 1..1;
    card Discussant in Participates.U3: 1..1;
    card Talk in Participates.U4: 1..*;
"#;

const FIGURE1: &str = r#"
    class C;
    class D isa C;
    relationship R (U1: C, U2: D);
    card C in R.U1: 2..*;
    card D in R.U2: 0..1;
"#;

fn header(title: &str) {
    println!("\n==================================================================");
    println!("{title}");
    println!("==================================================================");
}

fn figures() {
    figure1();
    figure3();
    figure4();
    figure5();
    figure6();
    figure7();
    figure8();
}

fn figure1() {
    header("Figure 1 — finitely unsatisfiable ER diagram");
    let schema = cr_lang::parse_schema(FIGURE1).unwrap();
    let r = Reasoner::new(&schema).unwrap();
    println!("schema: |R| >= 2|C| (minc(C,R,U1)=2), |R| <= |D| (maxc(D,R,U2)=1), D ≼ C");
    for c in schema.classes() {
        let unrestricted = cr_core::unrestricted::unrestricted_satisfiable(r.expansion(), c);
        println!(
            "  {:<4} finite: {:<16} unrestricted: {}",
            schema.class_name(c),
            if r.is_class_satisfiable(c) {
                "satisfiable"
            } else {
                "UNSATISFIABLE"
            },
            if unrestricted {
                "satisfiable"
            } else {
                "UNSATISFIABLE"
            }
        );
        assert!(unrestricted, "the gap exists only for finite models");
    }
    assert_eq!(r.unsatisfiable_classes().len(), 2);
    println!("(the finite/unrestricted gap is the paper's motivation: the 2:1 ratio");
    println!(" is absorbed by an infinite domain but never by a finite one)");
}

fn meeting() -> Schema {
    cr_lang::parse_schema(MEETING).unwrap()
}

fn figure3() {
    header("Figures 2/3 — the meeting CR-schema");
    let schema = meeting();
    print!("{}", cr_lang::print_schema(&schema));
    let r = Reasoner::new(&schema).unwrap();
    assert!(r.is_schema_fully_satisfiable());
    println!("all classes satisfiable: ok (paper: schema is consistent)");
}

fn figure4() {
    header("Figure 4 — the expansion");
    let schema = meeting();
    let exp = Expansion::build(&schema, &ExpansionConfig::default()).unwrap();
    println!(
        "compound classes: {} total, {} consistent (paper: c̄1..c̄7, consistent {{c̄1,c̄3,c̄4,c̄5,c̄7}})",
        exp.total_compound_classes(),
        exp.compound_classes().len()
    );
    for i in 0..exp.compound_classes().len() {
        println!("  {}", exp.cclass_name(i));
    }
    let holds = schema.rel_by_name("Holds").unwrap();
    let part = schema.rel_by_name("Participates").unwrap();
    println!(
        "consistent H̄: {} (paper: 12), consistent P̄: {} (paper: 6)",
        exp.compound_rels_of(holds).len(),
        exp.compound_rels_of(part).len()
    );
    println!("derived windows (Definition 3.1):");
    for rel in schema.rels() {
        for &u in schema.roles_of(rel) {
            let primary = schema.primary_class(u);
            for &cc in exp.compound_classes_containing(primary) {
                let card = exp.derived_card(cc, u);
                if card != cr_core::Card::UNCONSTRAINED {
                    println!(
                        "  minc/maxc({}, {}, {}) = {}",
                        exp.cclass_name(cc),
                        schema.rel_name(rel),
                        schema.role_name(u),
                        card
                    );
                }
            }
        }
    }
}

fn figure5() {
    header("Figure 5 — the system of disequations Ψ_S (verbatim, with zero rows)");
    let schema = meeting();
    let exp = Expansion::build(&schema, &ExpansionConfig::default()).unwrap();
    let text = render_verbatim(&exp, 8).unwrap();
    let vars = text
        .lines()
        .filter(|l| l.trim_start().starts_with("Var("))
        .count();
    println!("{text}");
    println!("unknown inventory: {vars} (paper: 7 class + 49 H̄ + 49 P̄ = 105)");
    assert_eq!(vars, 105);
}

fn figure6() {
    header("Figure 6 — acceptable solution and derived model");
    let schema = meeting();
    let r = Reasoner::new(&schema).unwrap();
    let w = r.witness().unwrap();
    let exp = r.expansion();
    println!("acceptable solution (nonzero counts):");
    for (i, v) in w.cclass_counts.iter().enumerate() {
        if v.is_positive() {
            println!("  X({}) = {v}", exp.cclass_name(i));
        }
    }
    for (i, v) in w.crel_counts.iter().enumerate() {
        if v.is_positive() {
            println!("  X({}) = {v}", exp.crel_name(i));
        }
    }
    let model = r
        .construct_model(&ModelConfig::default())
        .unwrap()
        .expect("satisfiable");
    println!(
        "constructed model: {} individuals, {} Holds tuples, {} Participates tuples",
        model.domain_size(),
        model
            .rel_extension(schema.rel_by_name("Holds").unwrap())
            .len(),
        model
            .rel_extension(schema.rel_by_name("Participates").unwrap())
            .len()
    );
    assert!(model.is_model_of(&schema));
    println!("verified against Definition 2.2: ok (paper's Figure 6 gives a 4-element model)");
}

fn figure7() {
    header("Figure 7 — implied constraints");
    let schema = meeting();
    let r = Reasoner::new(&schema).unwrap();
    let speaker = schema.class_by_name("Speaker").unwrap();
    let discussant = schema.class_by_name("Discussant").unwrap();
    let talk = schema.class_by_name("Talk").unwrap();
    let holds = schema.rel_by_name("Holds").unwrap();
    let part = schema.rel_by_name("Participates").unwrap();
    let u1 = schema.role_by_name(holds, "U1").unwrap();
    let u4 = schema.role_by_name(part, "U4").unwrap();
    let config = ExpansionConfig::default();

    let isa = r.implies_isa(speaker, discussant);
    println!("S ⊨ Speaker ≼ Discussant:            {isa} (paper: yes)");
    assert!(isa);

    let m1 = implied_maxc(&schema, talk, u4, &config, 1 << 16).unwrap();
    println!("S ⊨ maxc(Talk, Participates, U4) = 1: {m1:?} (paper: yes, tightest 1)");
    assert_eq!(m1, ImpliedBound::Bound(1));

    let m2 = implied_maxc(&schema, speaker, u1, &config, 1 << 16).unwrap();
    println!("S ⊨ maxc(Speaker, Holds, U1) = 1:     {m2:?} (paper: yes, tightest 1)");
    assert_eq!(m2, ImpliedBound::Bound(1));

    let m3 = implied_minc(&schema, speaker, u1, &config).unwrap();
    println!("tightest implied minc(Speaker, Holds, U1): {m3:?}");
}

fn figure8() {
    header("Section 3.3 — the refinement that breaks the schema");
    let amended = MEETING.replace(
        "card Discussant in Holds.U1: 0..2;",
        "card Discussant in Holds.U1: 2..2;",
    );
    let schema = cr_lang::parse_schema(&amended).unwrap();
    let r = Reasoner::new(&schema).unwrap();
    println!("added: minc(Discussant, Holds, U1) = 2");
    let unsat = r.unsatisfiable_classes();
    for c in &unsat {
        println!("  {} UNSATISFIABLE", schema.class_name(*c));
    }
    assert_eq!(unsat.len(), 3, "paper: the system becomes unsolvable");
    println!("(paper: #talks = #speakers = #discussants forces a contradiction)");
}

// --------------------------------------------------------------------------
// Scaling and ablation experiments
// --------------------------------------------------------------------------

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64() * 1e3)
}

fn scaling(quick: bool) {
    e1_expansion(quick);
    e2_satisfiability(quick);
    e2b_system_ablation(quick);
    e3_accept_ablation(quick);
    e4_baseline(quick);
    e5_implication(quick);
    e6_disjointness(quick);
    e7_unrestricted(quick);
}

fn e7_unrestricted(quick: bool) {
    header("E8 — finite vs unrestricted satisfiability (the Figure 1 gap at scale)");
    println!("(schemas embed g copies of the Figure 1 gadget among 2g satisfiable classes)");
    println!("| gadgets | classes | finite-unsat | unrestricted-unsat | gap | finite ms | unrestricted ms |");
    println!("|---|---|---|---|---|---|---|");
    let gadget_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 3, 4] };
    for &g in gadget_counts {
        let schema = gadget_schema(g);
        let (r, finite_ms) = time(|| Reasoner::new(&schema).unwrap());
        let finite_unsat = r.unsatisfiable_classes().len();
        let (viable, ms) = time(|| cr_core::unrestricted::viable_compound_classes(r.expansion()));
        let unrestricted_unsat = schema
            .classes()
            .filter(|&c| {
                !r.expansion()
                    .compound_classes_containing(c)
                    .iter()
                    .any(|&cc| viable[cc])
            })
            .count();
        println!(
            "| {g} | {} | {finite_unsat} | {unrestricted_unsat} | {} | {finite_ms:.2} | {ms:.2} |",
            schema.num_classes(),
            finite_unsat - unrestricted_unsat
        );
        assert_eq!(finite_unsat, 2 * g, "each gadget kills its two classes");
        assert_eq!(
            unrestricted_unsat, 0,
            "no gadget is unrestrictedly unsatisfiable"
        );
    }
}

/// `g` copies of the paper's Figure 1 gadget (finitely unsatisfiable,
/// unrestrictedly satisfiable) plus `2g` benign classes with ordinary
/// constraints. The gadget families are declared pairwise disjoint —
/// both realistic and the paper's own Section 5 advice for keeping the
/// expansion small (without it the expansion grows as `3^g · 4^g`).
fn gadget_schema(g: usize) -> Schema {
    use cr_core::schema::{Card, SchemaBuilder};
    let mut b = SchemaBuilder::new();
    let mut roots = Vec::new();
    for i in 0..g {
        let c = b.class(format!("C{i}"));
        let d = b.class(format!("D{i}"));
        b.isa(d, c);
        let r = b
            .relationship(format!("R{i}"), [("U1", c), ("U2", d)])
            .unwrap();
        b.card(c, b.role(r, 0), Card::at_least(2)).unwrap();
        b.card(d, b.role(r, 1), Card::at_most(1)).unwrap();
        // Benign companions.
        let p = b.class(format!("P{i}"));
        let q = b.class(format!("Q{i}"));
        let s = b
            .relationship(format!("S{i}"), [("V1", p), ("V2", q)])
            .unwrap();
        b.card(p, b.role(s, 0), Card::exactly(1)).unwrap();
        b.card(q, b.role(s, 1), Card::new(1, Some(2))).unwrap();
        roots.extend([c, p, q]);
    }
    if roots.len() >= 2 {
        b.disjoint(roots).unwrap();
    }
    b.build().unwrap()
}

fn e1_expansion(quick: bool) {
    header("E1 — expansion size is exponential in #classes, modulated by ISA");
    println!("| shape | classes | consistent cc | compound rels | build ms |");
    println!("|---|---|---|---|---|");
    let sizes: &[usize] = if quick {
        &[4, 8]
    } else {
        &[4, 6, 8, 10, 12, 14]
    };
    for &shape in &[
        SchemaShape::Flat,
        SchemaShape::IsaModerate,
        SchemaShape::IsaHeavy,
    ] {
        for &n in sizes {
            let schema = SchemaGen::shaped(shape, n, 3, 11).build();
            let config = ExpansionConfig {
                max_compound_classes: 1 << 20,
                max_compound_rels: 1 << 22,
            };
            let (exp, ms) = time(|| Expansion::build(&schema, &config));
            match exp {
                Ok(exp) => println!(
                    "| {shape:?} | {n} | {} | {} | {ms:.2} |",
                    exp.compound_classes().len(),
                    exp.compound_rels().len()
                ),
                Err(e) => println!("| {shape:?} | {n} | — | — | exceeded budget ({e}) |"),
            }
        }
    }
}

fn e2_satisfiability(quick: bool) {
    header("E2 — full satisfiability check (expansion + Ψ_S + fixpoint, aggregated LP)");
    println!("| classes | direct unknowns | agg unknowns | total ms | unsat classes |");
    println!("|---|---|---|---|---|");
    let sizes: &[usize] = if quick {
        &[3, 5]
    } else {
        &[3, 4, 5, 6, 7, 8, 9, 10]
    };
    for &n in sizes {
        let schema = SchemaGen::shaped(SchemaShape::IsaModerate, n, 3, 23).build();
        let (r, ms) = time(|| Reasoner::new(&schema).unwrap());
        let agg = cr_core::agg::AggSystem::build(r.expansion());
        println!(
            "| {n} | {} | {} | {ms:.2} | {} |",
            r.system().num_unknowns(),
            agg.num_unknowns(),
            r.unsatisfiable_classes().len()
        );
    }
}

fn e2b_system_ablation(quick: bool) {
    header("E2b — direct (paper-verbatim) vs aggregated system ablation");
    println!("| classes | direct unknowns | direct ms | agg unknowns | agg ms | agree |");
    println!("|---|---|---|---|---|---|");
    let sizes: &[usize] = if quick { &[3, 4] } else { &[3, 4, 5, 6] };
    for &n in sizes {
        let schema = SchemaGen::shaped(SchemaShape::IsaModerate, n, 3, 23).build();
        let config = ExpansionConfig::default();
        let (direct, d_ms) = time(|| {
            Reasoner::with_strategy(&schema, &config, cr_core::sat::Strategy::Direct).unwrap()
        });
        let (agg, a_ms) = time(|| {
            Reasoner::with_strategy(&schema, &config, cr_core::sat::Strategy::Aggregated).unwrap()
        });
        let agree = direct.support() == agg.support();
        let agg_sys = cr_core::agg::AggSystem::build(agg.expansion());
        println!(
            "| {n} | {} | {d_ms:.2} | {} | {a_ms:.2} | {agree} |",
            direct.system().num_unknowns(),
            agg_sys.num_unknowns()
        );
        assert!(agree);
    }
}

fn e3_accept_ablation(quick: bool) {
    header("E3 — fixpoint vs the paper's literal Z-enumeration (Theorem 3.4)");
    println!("| classes | compound classes | fixpoint ms | z-enum ms | agree |");
    println!("|---|---|---|---|---|");
    let sizes: &[usize] = if quick { &[2, 3] } else { &[2, 3, 4] };
    for &n in sizes {
        let schema = SchemaGen::shaped(SchemaShape::IsaModerate, n, 2, 31).build();
        let (r, fix_ms) = time(|| Reasoner::new(&schema).unwrap());
        let (zs, z_ms) = time(|| {
            schema
                .classes()
                .map(|c| satisfiable_by_z_enumeration(r.expansion(), r.system(), c).unwrap())
                .collect::<Vec<_>>()
        });
        let agree = schema
            .classes()
            .zip(&zs)
            .all(|(c, &z)| r.is_class_satisfiable(c) == z);
        println!(
            "| {n} | {} | {fix_ms:.2} | {z_ms:.2} | {agree} |",
            r.expansion().compound_classes().len()
        );
        assert!(agree);
    }
}

fn e4_baseline(quick: bool) {
    header("E4 — what ISA costs: ICDE'94 vs the LN90 baseline on flat schemas");
    println!("| classes | LN90 unknowns | ICDE unknowns | LN90 ms | ICDE ms | agree |");
    println!("|---|---|---|---|---|---|");
    let sizes: &[usize] = if quick { &[4, 6] } else { &[4, 6, 8] };
    for &n in sizes {
        let schema = SchemaGen::shaped(SchemaShape::Flat, n, 2, 41).build();
        let (base, base_ms) = time(|| BaselineReasoner::new(&schema).unwrap());
        let (full, full_ms) = time(|| Reasoner::new(&schema).unwrap());
        let agree = schema
            .classes()
            .all(|c| base.is_class_satisfiable(c) == full.is_class_satisfiable(c));
        println!(
            "| {n} | {} | {} | {base_ms:.2} | {full_ms:.2} | {agree} |",
            base.num_unknowns(),
            full.system().num_unknowns()
        );
        assert!(agree);
    }
}

fn e5_implication(quick: bool) {
    header("E5 — implication via reduction to satisfiability");
    println!("| classes | query | result | ms |");
    println!("|---|---|---|---|");
    let sizes: &[usize] = if quick { &[3] } else { &[3, 4, 5] };
    let config = ExpansionConfig::default();
    for &n in sizes {
        let schema = SchemaGen::shaped(SchemaShape::IsaModerate, n, 2, 53).build();
        // Query the first declared card's (class, role).
        if let Some(d) = schema.card_declarations().first() {
            let (lo, ms1) = time(|| implied_minc(&schema, d.class, d.role, &config).unwrap());
            println!("| {n} | implied minc | {lo:?} | {ms1:.2} |");
            let (hi, ms2) =
                time(|| implied_maxc(&schema, d.class, d.role, &config, 1 << 12).unwrap());
            println!("| {n} | implied maxc | {hi:?} | {ms2:.2} |");
        }
        let (pairs, ms3) = time(|| Reasoner::new(&schema).unwrap().implied_isa_pairs());
        println!("| {n} | implied isa pairs | {} | {ms3:.2} |", pairs.len());
    }
}

fn e6_disjointness(quick: bool) {
    header("E6 — Section 5: disjointness dramatically shrinks the system");
    println!("| classes | disjoint group | consistent cc | rows | reason ms |");
    println!("|---|---|---|---|---|");
    let n = if quick { 6 } else { 8 };
    let groups: &[usize] = if quick { &[0, 4] } else { &[0, 2, 4, 6, 8] };
    for &g in groups {
        let mut gen = SchemaGen::shaped(SchemaShape::Flat, n, 3, 61);
        gen.disjoint_group = g;
        let schema = gen.build();
        let config = ExpansionConfig {
            max_compound_classes: 1 << 20,
            max_compound_rels: 1 << 22,
        };
        let (exp, _) = time(|| Expansion::build(&schema, &config).unwrap());
        let ncc = exp.compound_classes().len();
        let sys = cr_core::agg::AggSystem::build(&exp);
        let rows = sys.num_rows();
        drop(exp);
        let (r, ms) = time(|| Reasoner::with_config(&schema, &config).unwrap());
        let _ = r;
        println!("| {n} | {g} | {ncc} | {rows} | {ms:.2} |");
    }
}

// --------------------------------------------------------------------------
// `bench` — machine-readable snapshot (BENCH_<date>.json)
// --------------------------------------------------------------------------

/// Runs a compact version of the E-series sweeps plus a daemon load run
/// and writes one JSON document: per-experiment timing rows, and the
/// daemon's aggregate RunReport (the same schema `crsat --stats` emits,
/// so one toolchain reads both). The snapshot is what a release commits
/// at the repo root as `BENCH_<date>.json`.
fn bench_snapshot(quick: bool, out: &str, date: &str) {
    header(&format!("bench snapshot — {date}"));
    let mut rows: Vec<String> = Vec::new();

    // E1: expansion growth by ISA shape.
    let e1_sizes: &[usize] = if quick { &[4, 6] } else { &[4, 6, 8, 10] };
    for &shape in &[
        SchemaShape::Flat,
        SchemaShape::IsaModerate,
        SchemaShape::IsaHeavy,
    ] {
        for &n in e1_sizes {
            let schema = SchemaGen::shaped(shape, n, 3, 11).build();
            let config = ExpansionConfig {
                max_compound_classes: 1 << 20,
                max_compound_rels: 1 << 22,
            };
            let (exp, ms) = time(|| Expansion::build(&schema, &config));
            if let Ok(exp) = exp {
                rows.push(format!(
                    "{{\"id\":\"E1\",\"shape\":\"{shape:?}\",\"classes\":{n},\
                     \"compound_classes\":{},\"compound_rels\":{},\"ms\":{ms:.3}}}",
                    exp.compound_classes().len(),
                    exp.compound_rels().len()
                ));
            }
        }
    }

    // E2: full satisfiability check.
    let e2_sizes: &[usize] = if quick { &[3, 5] } else { &[3, 5, 7, 9] };
    for &n in e2_sizes {
        let schema = SchemaGen::shaped(SchemaShape::IsaModerate, n, 3, 23).build();
        let (r, ms) = time(|| Reasoner::new(&schema).unwrap());
        rows.push(format!(
            "{{\"id\":\"E2\",\"classes\":{n},\"unknowns\":{},\
             \"unsat_classes\":{},\"ms\":{ms:.3}}}",
            r.system().num_unknowns(),
            r.unsatisfiable_classes().len()
        ));
    }

    // E4: ICDE'94 vs the LN90 baseline on flat schemas.
    let e4_sizes: &[usize] = if quick { &[4, 6] } else { &[4, 6, 8] };
    for &n in e4_sizes {
        let schema = SchemaGen::shaped(SchemaShape::Flat, n, 2, 41).build();
        let (base, base_ms) = time(|| BaselineReasoner::new(&schema).unwrap());
        let (full, full_ms) = time(|| Reasoner::new(&schema).unwrap());
        let agree = schema
            .classes()
            .all(|c| base.is_class_satisfiable(c) == full.is_class_satisfiable(c));
        assert!(agree);
        rows.push(format!(
            "{{\"id\":\"E4\",\"classes\":{n},\"baseline_ms\":{base_ms:.3},\
             \"full_ms\":{full_ms:.3},\"agree\":{agree}}}"
        ));
    }

    // E5: implication probes.
    let e5_sizes: &[usize] = if quick { &[3] } else { &[3, 4, 5] };
    let config = ExpansionConfig::default();
    for &n in e5_sizes {
        let schema = SchemaGen::shaped(SchemaShape::IsaModerate, n, 2, 53).build();
        if let Some(d) = schema.card_declarations().first() {
            let (_, minc_ms) = time(|| implied_minc(&schema, d.class, d.role, &config).unwrap());
            let (_, maxc_ms) =
                time(|| implied_maxc(&schema, d.class, d.role, &config, 1 << 12).unwrap());
            rows.push(format!(
                "{{\"id\":\"E5\",\"classes\":{n},\
                 \"minc_ms\":{minc_ms:.3},\"maxc_ms\":{maxc_ms:.3}}}"
            ));
        }
    }

    d_series(quick, &mut rows);

    let daemon = daemon_load(quick);

    let doc = format!(
        "{{\"version\":1,\"date\":\"{date}\",\"quick\":{quick},\
         \"experiments\":[{}],\"daemon\":{daemon}}}\n",
        rows.join(",")
    );
    match std::fs::write(out, &doc) {
        Ok(()) => println!(
            "bench snapshot written to {out} ({} experiment rows)",
            rows.len()
        ),
        Err(e) => {
            eprintln!("cannot write {out}: {e}");
            std::process::exit(1);
        }
    }
}

// --------------------------------------------------------------------------
// D-series — incremental (delta) re-checking on an edit stream
// --------------------------------------------------------------------------

/// `g` pairwise-disjoint ISA chains (C ≼ B ≼ A), each with a relationship
/// whose cards have min ≥ 1 and a wide max window — the interactive-editor
/// shape: tightening one bound at a time never changes the Venn atoms and
/// keeps the base witness acceptable, so the delta path can reuse the
/// whole fixpoint (`cr-delta`'s zero-LP reuse).
fn edit_stream_schema(g: usize, max: u64) -> String {
    let mut s = String::new();
    let mut roots = Vec::new();
    for i in 0..g {
        s.push_str(&format!(
            "class A{i}; class B{i} isa A{i}; class C{i} isa B{i};\n\
             relationship R{i} (U1: A{i}, U2: C{i});\n\
             card A{i} in R{i}.U1: 1..{max};\n\
             card C{i} in R{i}.U2: 1..{max};\n"
        ));
        roots.push(format!("A{i}"));
    }
    if roots.len() >= 2 {
        s.push_str(&format!("disjoint {};\n", roots.join(", ")));
    }
    s
}

/// The edit-stream workload: `edits` sequential one-constraint tightenings
/// per schema size, each checked twice — incrementally through
/// `cr_delta::check_delta` (chaining each verdict's context into the next
/// edit, as an editor session would) and from scratch. Appends one
/// `D<n>` row per size with both cumulative timings and prints the
/// geometric-mean speedup across sizes.
fn d_series(quick: bool, rows: &mut Vec<String>) {
    use cr_core::budget::Budget;

    header("D — incremental re-check on an edit stream (delta vs from-scratch)");
    println!("| id | classes | edits | delta ms | scratch ms | speedup |");
    println!("|---|---|---|---|---|---|");
    const START_MAX: u64 = 64;
    let sweeps: &[(usize, usize)] = if quick {
        &[(2, 8), (3, 8)]
    } else {
        &[(2, 24), (4, 24), (6, 24)]
    };
    let budget = Budget::unlimited();
    let config = ExpansionConfig::default();
    let mut speedups = Vec::new();
    for (d, &(g, edits)) in sweeps.iter().enumerate() {
        let base_src = edit_stream_schema(g, START_MAX);
        let base_schema = cr_lang::parse_schema(&base_src).unwrap();
        let mut ctx = cr_delta::DeltaContext::from_schema(&base_schema, &config, &budget).unwrap();
        let mut cur = base_src;
        let mut delta_ms = 0.0;
        let mut scratch_ms = 0.0;
        for j in 0..edits {
            // Round-robin over the chains; each edit shrinks one max by 1.
            let chain = j % g;
            let old_max = START_MAX - (j / g) as u64;
            let next = cur.replace(
                &format!("card C{chain} in R{chain}.U2: 1..{old_max};"),
                &format!("card C{chain} in R{chain}.U2: 1..{};", old_max - 1),
            );
            assert_ne!(next, cur, "edit {j} must change the schema");
            let edited_schema = cr_lang::parse_schema(&next).unwrap();
            let diff = cr_lang::diff_canonical(ctx.canonical(), &edited_schema.canonical_form());
            let (outcome, d_ms) = time(|| {
                cr_delta::check_delta(
                    &ctx,
                    &diff,
                    &cr_delta::DeltaConfig::default(),
                    &config,
                    &budget,
                )
                .unwrap()
            });
            delta_ms += d_ms;
            let verdict = match outcome {
                cr_delta::DeltaOutcome::Checked(v) => v,
                cr_delta::DeltaOutcome::Fallback { reason, .. } => {
                    panic!("D-series edits must stay on the delta path, got fallback: {reason}")
                }
            };
            let (scratch_unsat, s_ms) = time(|| {
                let r = Reasoner::new(&edited_schema).unwrap();
                let classes = r.unsatisfiable_classes().len();
                let rels = edited_schema
                    .rels()
                    .filter(|&rel| !r.is_rel_satisfiable(rel))
                    .count();
                (classes, rels)
            });
            scratch_ms += s_ms;
            assert_eq!(
                scratch_unsat,
                (verdict.unsat_classes.len(), verdict.unsat_rels.len()),
                "delta and from-scratch verdicts must agree on edit {j}"
            );
            ctx = verdict.next;
            cur = next;
        }
        let speedup = scratch_ms / delta_ms;
        speedups.push(speedup);
        println!(
            "| D{} | {} | {edits} | {delta_ms:.2} | {scratch_ms:.2} | {speedup:.1}x |",
            d + 1,
            3 * g
        );
        rows.push(format!(
            "{{\"id\":\"D{}\",\"classes\":{},\"edits\":{edits},\
             \"delta_ms\":{delta_ms:.3},\"scratch_ms\":{scratch_ms:.3}}}",
            d + 1,
            3 * g
        ));
    }
    let geomean = (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp();
    println!("D-series geometric-mean speedup: {geomean:.1}x (delta vs from-scratch)");
    assert!(
        geomean >= 2.0,
        "delta path must stay at least 2x faster than from-scratch on the edit stream \
         (got {geomean:.2}x)"
    );
}

// --------------------------------------------------------------------------
// `bench --compare` — the regression gate
// --------------------------------------------------------------------------

/// Diffs the freshly written snapshot at `new_path` against the committed
/// baseline at `base_path` and exits 1 when any experiment family's
/// geometric-mean slowdown exceeds `threshold_pct` percent.
///
/// Rows are matched by identity (`id` plus every non-timing field:
/// `shape`, `classes`, ...); for each matched row every `*_ms` field
/// contributes a slowdown ratio new/base, and the daemon row contributes
/// base/new over `throughput_rps` (lower throughput = regression). Ratios
/// are aggregated per family (E1, E2, E4, E5, daemon) by geometric mean —
/// a single noisy row cannot trip the gate, a consistent slowdown across
/// a family does. CI runs this gate against the committed baseline, and
/// self-tests it against a copy of the fresh snapshot doctored 20× faster,
/// which must exit 1.
fn compare_snapshots(new_path: &str, base_path: &str, threshold_pct: f64) {
    let read = |p: &str| -> cr_trace::json::Value {
        let text = std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("bench gate: cannot read {p}: {e}");
            std::process::exit(2);
        });
        cr_trace::json::parse(&text).unwrap_or_else(|e| {
            eprintln!("bench gate: cannot parse {p}: {e}");
            std::process::exit(2);
        })
    };
    let fresh = read(new_path);
    let base = read(base_path);
    let mut families: std::collections::BTreeMap<String, Vec<f64>> =
        std::collections::BTreeMap::new();

    // Experiment rows: match by identity key, ratio every shared *_ms.
    let rows = |doc: &cr_trace::json::Value| -> Vec<cr_trace::json::Value> {
        doc.get("experiments")
            .and_then(|e| e.as_arr())
            .map(<[cr_trace::json::Value]>::to_vec)
            .unwrap_or_default()
    };
    let base_rows = rows(&base);
    for row in rows(&fresh) {
        let Some(obj) = row.as_obj() else { continue };
        let key = row_identity(obj);
        let Some(base_obj) = base_rows
            .iter()
            .filter_map(|r| r.as_obj())
            .find(|b| row_identity(b) == key)
        else {
            println!("bench gate: no baseline row for {key} (new experiment, skipped)");
            continue;
        };
        let family = obj
            .get("id")
            .and_then(|v| v.as_str())
            .unwrap_or("?")
            .to_string();
        for (field, value) in obj {
            if !field.ends_with("_ms") {
                continue;
            }
            let (Some(new_ms), Some(base_ms)) =
                (as_f64(value), base_obj.get(field).and_then(as_f64))
            else {
                continue;
            };
            // Sub-millisecond rows are pure noise at CI granularity.
            if base_ms > 0.5 && new_ms > 0.0 {
                families
                    .entry(family.clone())
                    .or_default()
                    .push(new_ms / base_ms);
            }
        }
    }

    // Daemon throughput: invert so >1 always means "got worse".
    let rps = |doc: &cr_trace::json::Value| {
        doc.get("daemon")
            .and_then(|d| d.get("throughput_rps"))
            .and_then(as_f64)
    };
    if let (Some(new_rps), Some(base_rps)) = (rps(&fresh), rps(&base)) {
        if new_rps > 0.0 && base_rps > 0.0 {
            families
                .entry("daemon".to_string())
                .or_default()
                .push(base_rps / new_rps);
        }
    }

    if families.is_empty() {
        eprintln!("bench gate: no comparable rows between {new_path} and {base_path}");
        std::process::exit(2);
    }
    let limit = 1.0 + threshold_pct / 100.0;
    let mut failed = false;
    println!("\nbench gate: {new_path} vs {base_path} (threshold {threshold_pct:.0}%)");
    println!("| family | rows | geomean slowdown | verdict |");
    println!("|---|---|---|---|");
    for (family, ratios) in &families {
        let geomean = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
        let verdict = if geomean > limit {
            failed = true;
            "REGRESSION"
        } else {
            "ok"
        };
        println!(
            "| {family} | {} | {geomean:.3}x | {verdict} |",
            ratios.len()
        );
    }
    if failed {
        eprintln!("bench gate: FAILED — a family regressed past {limit:.2}x");
        std::process::exit(1);
    }
    println!("bench gate: ok");
}

/// A row's identity: every field that is not a timing/throughput
/// measurement, rendered `k=v` sorted (BTreeMap order) — `id=E1
/// shape=Flat classes=4` matches across snapshots even if timing fields
/// come and go.
fn row_identity(obj: &std::collections::BTreeMap<String, cr_trace::json::Value>) -> String {
    let mut parts = Vec::new();
    for (k, v) in obj {
        if k.ends_with("_ms") || k == "ms" || k == "throughput_rps" {
            continue;
        }
        let rendered = match v {
            cr_trace::json::Value::Str(s) => s.clone(),
            cr_trace::json::Value::Num(n) => format!("{n}"),
            cr_trace::json::Value::Bool(b) => format!("{b}"),
            _ => continue,
        };
        parts.push(format!("{k}={rendered}"));
    }
    parts.join(" ")
}

fn as_f64(v: &cr_trace::json::Value) -> Option<f64> {
    match v {
        cr_trace::json::Value::Num(n) => Some(*n),
        _ => None,
    }
}

/// The daemon load generator: boots an in-process server, pushes a batch
/// of distinct generated checks through the worker pool (with mixed
/// priorities and per-request deadlines, so the admission path is the
/// production one), replays half of them to exercise the verdict cache,
/// and returns a JSON object embedding the server-lifetime aggregate
/// RunReport.
fn daemon_load(quick: bool) -> String {
    use cr_server::{Op, Request, Server, ServerConfig};
    use std::sync::mpsc;

    let workers = 4;
    let server = Server::new(ServerConfig {
        workers,
        ..ServerConfig::default()
    });
    let n = if quick { 12 } else { 32 };
    let lines: Vec<String> = (0..n)
        .map(|i| {
            let schema = SchemaGen::shaped(SchemaShape::IsaModerate, 3 + i % 3, 2, 101 + i as u64);
            let mut request = Request::new(format!("load-{i}"), Op::Check);
            request.schema = Some(cr_lang::print_schema(&schema.build()));
            request.priority = (i % 10) as u8;
            request.deadline_ms = Some(30_000);
            request.to_json()
        })
        .collect();
    let drive = |batch: &[String]| {
        let (tx, rx) = mpsc::channel();
        for line in batch {
            let tx = tx.clone();
            let worker = server.clone();
            let line = line.clone();
            server
                .submit(Box::new(move || {
                    let response = worker.process_line(&line);
                    tx.send(response.status).unwrap();
                }))
                .expect("pool accepts load jobs");
        }
        drop(tx);
        rx.iter().count()
    };
    let t0 = Instant::now();
    let answered = drive(&lines) + drive(&lines[..n / 2]);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let report = server.final_report("ok");
    server.finish();
    let requests = lines.len() + n / 2;
    assert_eq!(answered, requests, "every load request must be answered");
    format!(
        "{{\"requests\":{requests},\"workers\":{workers},\"wall_ms\":{wall_ms:.3},\
         \"throughput_rps\":{:.1},\"report\":{}}}",
        requests as f64 / (wall_ms / 1e3),
        report.to_json()
    )
}
