//! `solve-cold`: a closed loop on one thread calling the library with no
//! server. Nearly all its time is the fixpoint's exact LPs, so it is the
//! workload on which arithmetic and simplex changes show; the server,
//! cache and store are bypassed.
//!
//! The corpus is a fixed set of `SchemaGen` schemas (Flat, IsaModerate and
//! IsaHeavy at 4 and 5 classes, 4 of each); the first of each stratum also
//! asks for one implied minimum bound. A run makes whole passes over the
//! corpus's calls until `--seconds` has run out, each pass in an order
//! drawn from the seed, and its latency figures are taken over each call's
//! best pass (see [`best_per_item`]), scaled by the host's speed during the
//! run (see [`crate::calib`]). A fixed set keeps runs comparable: per-schema times
//! span three orders of magnitude, so a run over a seed-drawn sample
//! measured mostly which slow schemas it drew. Reference verdicts for the
//! ISA schemas are recorded once per corpus schema, after `certify_check`
//! passed on it, in `data/solve_cold.tsv` (`perfbench record-solve-cold`);
//! ISA-free schemas are checked against the LN90 baseline at the end of
//! each run.
//!
//! Set-up loads the corpus into the program: it parses each schema's source
//! text with `cr-lang` and takes its canonical hash, which the answers are
//! checked under. Generating the corpus is the benchmark's own work and is
//! not timed.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cr_bench::{SchemaGen, SchemaShape};
use cr_core::expansion::ExpansionConfig;
use cr_core::implication::{implied_minc_governed, BoundVerdict, ImpliedBound};
use cr_core::sat::{Reasoner, Strategy};
use cr_core::{Budget, CrError, Schema};
use cr_server::protocol::Status;

use crate::calib::Calibration;
use crate::layers::{paired, Replay};
use crate::stats::{best_per_item, median, percentile, ratio, Digest, Rng};
use crate::{param, peak_rss_mb, Args, Invalid, Outcome};

const WORKLOAD: &str = "solve-cold";
const STRATA: [(usize, SchemaShape); 6] = [
    (4, SchemaShape::Flat),
    (4, SchemaShape::IsaModerate),
    (4, SchemaShape::IsaHeavy),
    (5, SchemaShape::Flat),
    (5, SchemaShape::IsaModerate),
    (5, SchemaShape::IsaHeavy),
];
const PER_STRATUM: usize = 4;
/// Every k-th corpus schema also asks for one implied minimum bound.
const QUERY_EVERY: usize = 8;
/// Certification budget per schema when recording; past it the recorder
/// falls back to the paper-verbatim (Direct) system.
const RECORD_CERTIFY_SECS: u64 = 5;
const DATA: &str = include_str!("../data/solve_cold.tsv");
/// Visiting orders drawn from the seed before the clock starts; a run
/// stops after the pass in which `--seconds` ran out, or after the last.
const MAX_PASSES: usize = 40;
/// Timed set-ups before the timed loop, and one more after every
/// `SETUP_EVERY`-th call inside it (its time is left out of the loop's).
/// `setup_s` is their median. On a shared 2-vCPU VM one thread's speed
/// switched between two levels, about 1.7x apart, for seconds at a time,
/// so set-ups taken back to back landed all on one level and the median
/// jumped between runs; samples spread over the run follow the mix.
const SETUPS: usize = 10;
const SETUP_EVERY: usize = 6;

struct Entry {
    stratum: usize,
    index: usize,
    /// Source text of the generated schema.
    source: String,
    query: bool,
}

/// A corpus schema as set-up leaves it: parsed, with its canonical hash.
struct Loaded {
    schema: Schema,
    hash: u128,
}

fn gen(stratum: usize, index: usize) -> Schema {
    let (classes, shape) = STRATA[stratum];
    let seed = 1_000_000 + (stratum * 1000 + index) as u64;
    SchemaGen::shaped(shape, classes, 2, seed).build()
}

fn build() -> Vec<Entry> {
    (0..STRATA.len())
        .flat_map(|stratum| (0..PER_STRATUM).map(move |index| (stratum, index)))
        .map(|(stratum, index)| Entry {
            stratum,
            index,
            source: cr_lang::print_schema(&gen(stratum, index)),
            query: index.is_multiple_of(QUERY_EVERY),
        })
        .collect()
}

/// One timed call: the check of a corpus schema, or its implied-bound
/// query.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Call {
    entry: usize,
    query: bool,
}

fn calls(entries: &[Entry]) -> Vec<Call> {
    entries
        .iter()
        .enumerate()
        .flat_map(|(entry, e)| {
            let check = Call {
                entry,
                query: false,
            };
            let query = e.query.then_some(Call { entry, query: true });
            std::iter::once(check).chain(query)
        })
        .collect()
}

/// The visiting order of each pass over the calls, drawn from the seed.
fn passes(seed: u64, calls: usize) -> Vec<Vec<usize>> {
    let mut rng = Rng::new(seed, 1);
    (0..MAX_PASSES)
        .map(|_| {
            let mut p: Vec<usize> = (0..calls).collect();
            rng.shuffle(&mut p);
            p
        })
        .collect()
}

/// The timed set-up: parse every schema and take its canonical hash.
fn load(entries: &[Entry]) -> Vec<Loaded> {
    entries
        .iter()
        .map(|e| {
            let schema = cr_lang::parse_schema(&e.source).expect("generated schema parses");
            Loaded {
                hash: cr_core::canonical_hash(&schema),
                schema,
            }
        })
        .collect()
}

fn inputs_digest(entries: &[Entry], passes: &[Vec<usize>]) -> String {
    let mut d = Digest::new();
    for e in entries {
        d.add(e.source.as_bytes());
        d.add(&[u8::from(e.query)]);
    }
    for p in passes {
        for &i in p {
            d.add(&(i as u64).to_le_bytes());
        }
    }
    d.hex()
}

fn query_target(schema: &Schema) -> Option<(cr_core::ClassId, cr_core::RoleId)> {
    schema
        .card_declarations()
        .first()
        .map(|d| (d.class, d.role))
}

fn bound_text(v: &BoundVerdict) -> String {
    match v {
        BoundVerdict::Known(ImpliedBound::Bound(m)) => m.to_string(),
        BoundVerdict::Known(ImpliedBound::Unsatisfiable) => "unsat".to_string(),
        BoundVerdict::Known(ImpliedBound::NoBoundUpTo(m)) => format!("none<={m}"),
        BoundVerdict::Unknown { .. } => "unknown".to_string(),
    }
}

fn unsat_of(detail: &[String]) -> Vec<String> {
    let mut v: Vec<String> = detail
        .iter()
        .filter(|d| !d.starts_with("rel "))
        .cloned()
        .collect();
    v.sort();
    v
}

fn join(v: &[String]) -> String {
    if v.is_empty() {
        "-".to_string()
    } else {
        v.join(",")
    }
}

/// One recorded reference row.
struct Reference {
    hash: String,
    unsat: String,
    implied: String,
}

fn references() -> BTreeMap<(usize, usize), Reference> {
    DATA.lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .filter_map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            let key = (f.first()?.parse().ok()?, f.get(1)?.parse().ok()?);
            Some((
                key,
                Reference {
                    hash: f.get(2)?.to_string(),
                    unsat: f.get(4)?.to_string(),
                    implied: f.get(5)?.to_string(),
                },
            ))
        })
        .collect()
}

/// Records the reference table: for each corpus schema, its canonical
/// hash, the certified unsat classes (ISA schemas only), and the implied
/// bound for schemas that carry a query. Runs on two threads.
pub fn record() -> Result<(), String> {
    let keys: Vec<(usize, usize)> = (0..STRATA.len())
        .flat_map(|s| (0..PER_STRATUM).map(move |i| (s, i)))
        .collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let rows = std::sync::Mutex::new(BTreeMap::new());
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                let Some(&(s, i)) = keys.get(k) else { return };
                let row = record_one(s, i);
                eprintln!("{s}\t{i}\t{row}");
                rows.lock()
                    .expect("recorder thread panicked")
                    .insert((s, i), row);
            });
        }
    });
    let rows = rows.into_inner().expect("recorder thread panicked");
    let mut out = String::from(
        "# solve-cold reference verdicts: stratum, index, canonical hash, source, unsat classes, implied minc\n\
         # source: certified = certify_check passed; direct = certify exceeded its budget, Direct-strategy verdict; ln90 = checked against the LN90 baseline at run time\n",
    );
    for ((s, i), row) in rows {
        out.push_str(&format!("{s}\t{i}\t{row}\n"));
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("data/solve_cold.tsv");
    std::fs::write(&path, out).map_err(|e| format!("write {}: {e}", path.display()))
}

fn record_one(stratum: usize, index: usize) -> String {
    let schema = gen(stratum, index);
    let hash = format!("{:032x}", cr_core::canonical_hash(&schema));
    let checked = cr_server::eval::check(&schema, &Budget::unlimited());
    let claimed = unsat_of(&checked.detail);
    let (source, unsat) = if schema.isa_statements().is_empty() {
        ("ln90", "-".to_string())
    } else {
        let budget = Budget::unlimited().with_deadline(Duration::from_secs(RECORD_CERTIFY_SECS));
        match cr_core::certify_check(&schema, &budget) {
            Ok(report) => {
                assert!(
                    report.ok(),
                    "certification failed on {stratum}/{index}: {:?}",
                    report.failures
                );
                let mut certified = report.unsat_classes.clone();
                certified.sort();
                assert_eq!(
                    certified, claimed,
                    "certified verdict differs on {stratum}/{index}"
                );
                ("certified", join(&certified))
            }
            Err(CrError::BudgetExceeded { .. }) => {
                let r = Reasoner::with_budget(
                    &schema,
                    &ExpansionConfig::default(),
                    Strategy::Direct,
                    &Budget::unlimited(),
                )
                .expect("unlimited budget");
                let mut direct: Vec<String> = r
                    .unsatisfiable_classes()
                    .into_iter()
                    .map(|c| schema.class_name(c).to_string())
                    .collect();
                direct.sort();
                assert_eq!(
                    direct, claimed,
                    "Direct verdict differs on {stratum}/{index}"
                );
                ("direct", join(&direct))
            }
            Err(e) => panic!("certify_check failed on {stratum}/{index}: {e}"),
        }
    };
    let implied = match (index.is_multiple_of(QUERY_EVERY), query_target(&schema)) {
        (true, Some((class, role))) => bound_text(
            &implied_minc_governed(
                &schema,
                class,
                role,
                &ExpansionConfig::default(),
                &Budget::unlimited(),
            )
            .expect("unlimited budget"),
        ),
        _ => "-".to_string(),
    };
    format!("{hash}\t{source}\t{unsat}\t{implied}")
}

/// What one call answered.
enum Answer {
    /// A check: its status and unsat classes.
    Check(Status, Vec<String>),
    /// An implied-bound query.
    Implied(String),
}

struct Answered {
    entry: usize,
    answer: Answer,
}

/// Makes one call and returns its answer.
fn answer(call: Call, schema: &Schema) -> Answer {
    match (call.query, query_target(schema)) {
        (true, Some((class, role))) => Answer::Implied(
            implied_minc_governed(
                schema,
                class,
                role,
                &ExpansionConfig::default(),
                &Budget::unlimited(),
            )
            .map_or_else(|e| format!("error: {e}"), |v| bound_text(&v)),
        ),
        (true, None) => Answer::Implied("no declared window".to_string()),
        (false, _) => {
            let a = cr_server::eval::check(schema, &Budget::unlimited());
            Answer::Check(a.status, unsat_of(&a.detail))
        }
    }
}

pub fn run(args: &Args) -> Result<Outcome, Invalid> {
    let refs = references();
    let entries = build();
    let calls = calls(&entries);
    let passes = passes(args.seed, calls.len());
    let digest = inputs_digest(&entries, &passes);
    let mut setups = Vec::new();
    let mut timed_load = || {
        let t = Instant::now();
        let loaded = load(&entries);
        setups.push(t.elapsed().as_secs_f64());
        loaded
    };
    for _ in 1..SETUPS {
        timed_load();
    }
    let loaded = timed_load();
    if args.trace {
        let replayed: Vec<Call> = passes.iter().flatten().map(|&i| calls[i]).collect();
        return traced(args, &entries, &loaded, &replayed, &refs, digest);
    }

    let slo_ms = param(WORKLOAD, "slo_ms");
    let mut samples = Vec::new();
    let mut answered = Vec::new();
    let started = Instant::now();
    let mut paused = Duration::ZERO;
    let mut made = 0usize;
    let mut whole = 0usize;
    let mut host = Calibration::new();
    for order in &passes {
        for &i in order {
            if made % SETUP_EVERY == SETUP_EVERY - 1 {
                let t = Instant::now();
                timed_load();
                paused += t.elapsed();
            }
            made += 1;
            let call = calls[i];
            let t = Instant::now();
            let a = answer(call, &loaded[call.entry].schema);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            answered.push(Answered {
                entry: call.entry,
                answer: a,
            });
            let t = Instant::now();
            samples.push((call, ms, host.probe()));
            paused += t.elapsed();
        }
        whole += 1;
        if started.elapsed() >= args.seconds + paused {
            break;
        }
    }
    let elapsed = (started.elapsed() - paused).as_secs_f64();
    let peak = peak_rss_mb();

    let (failed, mismatches) = verify(&entries, &loaded, &answered, &refs);
    let raw = best_per_item(samples.iter().map(|&(call, ms, _)| (call, ms)));
    let best = best_per_item(
        samples
            .iter()
            .map(|&(call, ms, probe)| (call, ms * host.factor_at(probe))),
    );
    let n = best.len();
    let within = best.iter().filter(|&&l| l <= slo_ms).count();
    Ok(Outcome {
        attempted: answered.len() as u64,
        failed,
        mismatches,
        metrics: vec![
            ("setup_s", median(&setups), "s", setups.len()),
            ("p50_ms", median(&best), "ms", n),
            ("tail_ms", percentile(&best, 0.9), "ms", n),
            (
                "throughput_rps",
                n as f64 / (best.iter().sum::<f64>() / 1e3),
                "1/s",
                n,
            ),
            ("slo_frac", ratio(within as f64, n as f64), "ratio", n),
            ("peak_rss_mb", peak, "MB", 1),
        ],
        notes: vec![
            format!("input digest {digest}"),
            format!(
                "set-up parses and hashes the {} corpus schemas; {} samples, {SETUPS} before the loop and one after every {SETUP_EVERY}th call",
                entries.len(),
                setups.len()
            ),
            format!(
                "closed loop, 1 thread: {whole} whole passes over {n} calls ({} checks, {} implied-bound queries) in {elapsed:.3} s, {:.3} calls/s",
                entries.len(),
                n - entries.len(),
                samples.len() as f64 / elapsed
            ),
            format!(
                "figures over each call's best pass, each time scaled by the host's speed around it: p50, tail = p90, throughput = calls / summed best times, slo_frac = share of calls whose best is within {slo_ms} ms"
            ),
            host.note(),
            format!(
                "unscaled: p50 {:.3} ms, tail {:.3} ms, throughput {:.3} 1/s",
                median(&raw),
                percentile(&raw, 0.9),
                n as f64 / (raw.iter().sum::<f64>() / 1e3)
            ),
        ],
    })
}

/// Checks each answer against a reference the timed path did not produce.
/// Returns `(failed, mismatches)`.
fn verify(
    entries: &[Entry],
    loaded: &[Loaded],
    answered: &[Answered],
    refs: &BTreeMap<(usize, usize), Reference>,
) -> (u64, u64) {
    let mut failed = 0;
    let mut mismatches = 0;
    // The expected unsat classes of each entry, computed once.
    let mut expected: Vec<Option<Option<String>>> = vec![None; entries.len()];
    for a in answered {
        let e = &entries[a.entry];
        let schema = &loaded[a.entry].schema;
        let Some(r) = refs.get(&(e.stratum, e.index)) else {
            eprintln!("no reference row for {}/{}", e.stratum, e.index);
            mismatches += 1;
            continue;
        };
        let want = expected[a.entry].get_or_insert_with(|| {
            if r.hash != format!("{:032x}", loaded[a.entry].hash) {
                eprintln!(
                    "generator drift: {}/{} no longer matches its reference",
                    e.stratum, e.index
                );
                return None;
            }
            Some(if schema.isa_statements().is_empty() {
                let base = cr_baseline::BaselineReasoner::new(schema).expect("flat schema");
                let mut v: Vec<String> = base
                    .unsatisfiable_classes(schema)
                    .into_iter()
                    .map(|c| schema.class_name(c).to_string())
                    .collect();
                v.sort();
                join(&v)
            } else {
                r.unsat.clone()
            })
        });
        let Some(want) = want else {
            mismatches += 1;
            continue;
        };
        match &a.answer {
            Answer::Check(status, _) if !matches!(status, Status::Ok | Status::Negative) => {
                failed += 1;
            }
            Answer::Check(_, unsat) if join(unsat) != *want => {
                eprintln!(
                    "verdict mismatch on {}/{}: got {} expected {want}",
                    e.stratum,
                    e.index,
                    join(unsat)
                );
                mismatches += 1;
            }
            Answer::Implied(implied) if *implied != r.implied => {
                eprintln!(
                    "implied bound mismatch on {}/{}: got {implied} expected {}",
                    e.stratum, e.index, r.implied
                );
                mismatches += 1;
            }
            _ => {}
        }
    }
    (failed + mismatches, mismatches)
}

/// The traced run: the passes' calls replayed untraced and traced in
/// lockstep for `--seconds`; the difference is the tracing overhead.
fn traced(
    args: &Args,
    entries: &[Entry],
    loaded: &[Loaded],
    calls: &[Call],
    refs: &BTreeMap<(usize, usize), Reference>,
    digest: String,
) -> Result<Outcome, Invalid> {
    let run = paired(
        Vec::new,
        calls.len(),
        args.seconds,
        |replay, answered: &mut Vec<Answered>, i| {
            let call = calls[i];
            answered.push(Answered {
                entry: call.entry,
                answer: replay_call(replay, call, &loaded[call.entry].schema),
            });
        },
    );
    let (failed, mismatches) = verify(entries, loaded, &run.state, refs);
    let _ = run
        .traced
        .rec
        .write_tsv(&args.work_dir("spans").with_extension("tsv"));
    let mut extra = BTreeMap::new();
    extra.insert("trace.overhead_share", run.overhead_share());
    Ok(Outcome {
        attempted: run.requests as u64,
        failed,
        mismatches,
        metrics: run
            .traced
            .metrics(&extra)
            .into_iter()
            .map(|(n, v, u)| (n, v, u, run.requests))
            .collect(),
        notes: vec![
            format!("input digest {digest}"),
            format!(
                "replayed {} calls untraced ({:.3} s) and traced ({:.3} s) in lockstep",
                run.requests, run.untraced_s, run.traced_s
            ),
            "bypassed layers (read 0): lang, canon, protocol, cache, certify, store, repl, admission, flight, delta, server".to_string(),
        ],
    })
}

fn replay_call(replay: &mut Replay, call: Call, schema: &Schema) -> Answer {
    replay.begin_request();
    let a = match (call.query, query_target(schema)) {
        (true, Some((class, role))) => {
            Answer::Implied(bound_text(&replay.implied_minc(schema, class, role)))
        }
        (true, None) => Answer::Implied("no declared window".to_string()),
        (false, _) => {
            let mut unsat = replay.check(schema);
            unsat.sort();
            Answer::Check(Status::Ok, unsat)
        }
    };
    replay.end_request();
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(seed: u64) -> String {
        let entries = build();
        inputs_digest(&entries, &passes(seed, calls(&entries).len()))
    }

    #[test]
    fn same_seed_same_digest() {
        assert_eq!(digest(11), digest(11));
        assert_ne!(digest(11), digest(12));
    }

    #[test]
    fn every_corpus_schema_has_a_reference() {
        let refs = references();
        assert_eq!(refs.len(), STRATA.len() * PER_STRATUM);
        let entries = build();
        for (e, l) in entries.iter().zip(load(&entries)) {
            let r = &refs[&(e.stratum, e.index)];
            assert_eq!(r.hash, format!("{:032x}", l.hash));
            assert_eq!(l.hash, cr_core::canonical_hash(&gen(e.stratum, e.index)));
        }
    }
}
