//! `edit-stream`: a closed loop of 2 editor sessions, each on its own
//! connection to a memory-only daemon. A session pins a schema of
//! disjoint A≼B≼C chains (the D-series shape) and then sends hash-chained
//! `check_delta` edits that tighten and loosen card windows, with
//! occasional sat↔unsat flips and occasional structural edits that fall
//! back to a full check. It loads `cr-delta` and the `check_delta`
//! request path, which the other workloads bypass.
//!
//! No store: with one, every delta verdict is re-certified from scratch,
//! which costs 100 times the edit and would hide the delta path.
//!
//! A session's edits form a fixed cycle of excursions: from an anchor
//! state it tightens one window (or flips a chain unsat, or adds a class)
//! `EXCURSION` times, then one multi-line edit loosens everything to the
//! next anchor. So three edits in four are tightenings and a fixed quarter
//! are loosenings, which may rerun the fixpoint. The cycle is long enough
//! that the daemon's verdict cache has evicted an edit when it recurs, and
//! short enough that every answer can be checked against a from-scratch
//! check of the edited schema, memoized per distinct schema.
//!
//! A run goes round the cycle many times, and its latency figures are taken
//! over each cycle position's best repeat (see
//! [`crate::stats::best_per_item`]), each time scaled by the host's speed
//! around it (see [`crate::calib`]).

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use cr_core::expansion::ExpansionConfig;
use cr_core::{Budget, Schema};
use cr_delta::{DeltaConfig, DeltaContext, DeltaOutcome};
use cr_server::{CacheKey, CachedVerdict, Op, Request, ServerConfig, Status, VerdictCache};
use cr_trace::Counter;

use crate::calib::Calibration;
use crate::client::{Conn, Daemon, Reply, WORKERS};
use crate::layers::{paired, response, Replay};
use crate::stats::{best_per_item, median, percentile, ratio, Digest, Rng};
use crate::{param, peak_rss_mb, Args, Invalid, Outcome};

const WORKLOAD: &str = "edit-stream";
const SESSIONS: usize = 2;
const CHAINS: usize = 2;
/// Anchors per session cycle, and tightening edits per excursion.
const ANCHORS: usize = 300;
/// Generator seed of the excursions, which every run shares: per-edit
/// costs span three orders of magnitude, and the cycle must stay short
/// enough to check, so runs over seed-drawn excursions would measure
/// mostly which costly edits they drew. The run's seed orders them.
const EXCURSION_SEED: u64 = 0xD5EED;
const EXCURSION: usize = 3;
/// Every `FLIP_EVERY`-th excursion flips a chain unsatisfiable and every
/// `STRUCTURAL_EVERY`-th adds a class; the edit back to the next anchor
/// undoes either. Fixed positions keep the mix the same in every run.
const FLIP_EVERY: usize = 8;
const STRUCTURAL_EVERY: usize = 50;
const A_MAX: u64 = 64;
/// Timed set-ups per run, all before the timed loop; `setup_s` is their
/// median.
const SETUPS: usize = 25;
/// A session probes the host's speed before every `PROBE_EVERY`-th edit,
/// outside the edit's timing.
const PROBE_EVERY: usize = 64;

/// One chain's windows: C's in `R.U2`, and A's `1..A_MAX` in `R.U1`
/// unless `flip_min` raises A's minimum past what C can take.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Chain {
    c_lo: u64,
    c_hi: u64,
    flip_min: Option<u64>,
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct State {
    chains: [Chain; CHAINS],
    extra_class: bool,
}

impl State {
    fn source(&self, session: usize) -> String {
        let p = format!("S{session}");
        let mut s = String::new();
        for (i, c) in self.chains.iter().enumerate() {
            let a = match c.flip_min {
                Some(m) => format!("{m}..*"),
                None => format!("1..{A_MAX}"),
            };
            s += &format!(
                "class {p}A{i}; class {p}B{i} isa {p}A{i}; class {p}C{i} isa {p}B{i};\n\
                 relationship {p}R{i} (U1: {p}A{i}, U2: {p}C{i});\n\
                 card {p}A{i} in {p}R{i}.U1: {a};\ncard {p}C{i} in {p}R{i}.U2: {}..{};\n",
                c.c_lo, c.c_hi
            );
        }
        let roots: Vec<String> = (0..CHAINS).map(|i| format!("{p}A{i}")).collect();
        s += &format!("disjoint {};\n", roots.join(", "));
        if self.extra_class {
            s += &format!("class {p}X;\n");
        }
        s
    }

    /// A wide-windowed state to start excursions from.
    fn anchor(rng: &mut Rng) -> State {
        State {
            chains: [0; CHAINS].map(|_| Chain {
                c_lo: rng.below(2),
                c_hi: 8 + rng.below(17),
                flip_min: None,
            }),
            extra_class: false,
        }
    }

    /// One tightening edit of the given kind: add a class (structural),
    /// flip a chain unsatisfiable by raising A's minimum past C's maximum,
    /// or raise a minimum or lower a maximum by one.
    fn tighten(&self, kind: Tighten, rng: &mut Rng) -> State {
        let mut n = self.clone();
        if kind == Tighten::Structural {
            n.extra_class = true;
            return n;
        }
        let i = rng.below(CHAINS as u64) as usize;
        let c = &mut n.chains[i];
        if kind == Tighten::Flip {
            c.flip_min = Some(c.c_hi + 1);
        } else if rng.below(2) == 0 && c.c_lo < c.c_hi {
            c.c_lo += 1;
        } else if c.c_hi > c.c_lo.max(1) {
            c.c_hi -= 1;
        } else {
            // Nothing left to tighten in this window: widen it instead.
            c.c_lo = c.c_lo.saturating_sub(1);
        }
        n
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Tighten {
    Window,
    Flip,
    Structural,
}

/// One edit of a session's cycle: the diff from the previous state and
/// the edited state.
struct Step {
    diff: Vec<String>,
    state: usize,
}

struct Session {
    /// Source text of each distinct state; `sources[0]` is the base.
    sources: Vec<String>,
    cycle: Vec<Step>,
}

fn canonical(source: &str) -> String {
    cr_lang::parse_schema(source)
        .expect("generated schema parses")
        .canonical_form()
}

/// Session `s`'s excursions, the same in every run: an anchor and the
/// states its tightening edits reach.
fn excursions(s: usize) -> Vec<Vec<State>> {
    let mut rng = Rng::new(EXCURSION_SEED, s as u64);
    let mut seen = HashSet::new();
    (0..ANCHORS)
        .map(|a| {
            // Distinct anchors, so no excursion repeats another's edits.
            let mut cur = State::anchor(&mut rng);
            while !seen.insert(cur.clone()) {
                cur = State::anchor(&mut rng);
            }
            let mut states = vec![cur.clone()];
            for step in 0..EXCURSION {
                let kind = match (step, a % STRUCTURAL_EVERY, a % FLIP_EVERY) {
                    (0, 0, _) => Tighten::Structural,
                    (1, _, 0) => Tighten::Flip,
                    _ => Tighten::Window,
                };
                cur = cur.tighten(kind, &mut rng);
                states.push(cur.clone());
            }
            states
        })
        .collect()
}

/// The run's cycle for session `s`: its excursions in seeded order, each
/// ending with one edit that loosens to the next excursion's anchor.
fn session(seed: u64, s: usize) -> Session {
    let mut excursions = excursions(s);
    Rng::new(seed, 3 + s as u64).shuffle(&mut excursions);
    let mut states: Vec<State> = Vec::new();
    let mut index: HashMap<State, usize> = HashMap::new();
    let mut intern = |st: State, states: &mut Vec<State>| {
        *index.entry(st.clone()).or_insert_with(|| {
            states.push(st);
            states.len() - 1
        })
    };
    let mut path: Vec<usize> = excursions
        .iter()
        .flatten()
        .map(|st| intern(st.clone(), &mut states))
        .collect();
    path.push(path[0]);
    let sources: Vec<String> = states.iter().map(|st| st.source(s)).collect();
    let canon: Vec<String> = sources.iter().map(|src| canonical(src)).collect();
    let cycle = path
        .windows(2)
        .map(|w| Step {
            diff: cr_lang::diff_canonical(&canon[w[0]], &canon[w[1]]).to_lines(),
            state: w[1],
        })
        .collect();
    Session { sources, cycle }
}

fn sessions(seed: u64) -> Vec<Session> {
    (0..SESSIONS).map(|s| session(seed, s)).collect()
}

fn sessions_digest(sessions: &[Session]) -> String {
    let mut d = Digest::new();
    for s in sessions {
        d.add(s.sources[0].as_bytes());
        for step in &s.cycle {
            for line in &step.diff {
                d.add(line.as_bytes());
            }
        }
    }
    d.hex()
}

fn pin_line(id: String, source: &str) -> String {
    let mut r = Request::new(id, Op::PinBase);
    r.schema = Some(source.to_string());
    r.to_json()
}

fn delta_line(id: String, base: &str, step: &Step, source: &str) -> String {
    let mut r = Request::new(id, Op::CheckDelta);
    r.base = Some(base.to_string());
    r.diff = step.diff.clone();
    // The edited text rides along, so an evicted base degrades to a full
    // check instead of failing.
    r.schema = Some(source.to_string());
    r.to_json()
}

/// A request a session sent, enough to rebuild its line for the replay.
enum Sent {
    /// `pin_base` of a state's text (the base's in set-up, else after edit
    /// `k`), and whether the daemon answered it.
    Pin {
        k: Option<usize>,
        state: usize,
        answered: bool,
    },
    /// `check_delta` number `k` of the session against `head`.
    Delta { k: usize, head: u128 },
}

/// What the benchmark keeps of an edit's reply: what is checked and
/// summed, with no heap data. The log grows with the edits a run manages,
/// and with whole replies kept it put a quarter more in `peak_rss_mb` when
/// the machine ran faster.
#[derive(Clone, Copy)]
struct Kept {
    status: Status,
    /// `Some(true)` for "unsatisfiable", `Some(false)` for "satisfiable".
    unsat: Option<bool>,
    cached: bool,
    bytes: usize,
    stage_ns: [u64; 3],
    pivots: u64,
}

impl Kept {
    fn of(reply: &Reply) -> Kept {
        Kept {
            status: match reply.status.as_str() {
                "ok" => Status::Ok,
                "negative" => Status::Negative,
                "shed" => Status::Shed,
                "budget-exceeded" => Status::BudgetExceeded,
                _ => Status::Error,
            },
            unsat: match reply.verdict.as_deref() {
                Some("unsatisfiable") => Some(true),
                Some("satisfiable") => Some(false),
                _ => None,
            },
            cached: reply.cached,
            bytes: reply.bytes,
            stage_ns: reply.stage_ns,
            pivots: reply.pivots,
        }
    }

    fn answered(&self) -> bool {
        matches!(self.status, Status::Ok | Status::Negative)
    }

    fn verdict(&self) -> &'static str {
        match self.unsat {
            Some(true) => "unsatisfiable",
            Some(false) => "satisfiable",
            None => "-",
        }
    }
}

/// One edit and what was kept of its reply.
struct Edit {
    pos: usize,
    ms: f64,
    /// The edit's round trip plus the re-pin that may follow it: the
    /// session's time per edit.
    step_ms: f64,
    /// The session's last host-speed probe before the edit.
    probe: usize,
    reply: Kept,
    /// `Some(true)` when the daemon had lost the base, `Some(false)` for
    /// any other declared fallback.
    fallback: Option<bool>,
}

/// What one session saw, in order.
struct Log {
    edits: Vec<Edit>,
    sent: Vec<Sent>,
    /// Pins sent after set-up, and how many of them were not answered.
    pins: usize,
    failed_pins: usize,
    /// Why the session's connection broke, if it did.
    broken: Option<String>,
    /// Host-speed probes made between edits.
    host: Calibration,
}

fn request_line(s: usize, session: &Session, sent: &Sent) -> String {
    match sent {
        Sent::Pin { k, state, .. } => {
            let id = match k {
                Some(k) => format!("s{s}-pin{k}"),
                None => format!("s{s}-pin"),
            };
            pin_line(id, &session.sources[*state])
        }
        Sent::Delta { k, head } => {
            let step = &session.cycle[k % session.cycle.len()];
            delta_line(
                format!("s{s}-{k}"),
                &format!("{head:032x}"),
                step,
                &session.sources[step.state],
            )
        }
    }
}

fn parse_hash(reply: &Reply) -> Result<u128, String> {
    let hex = reply
        .schema_hash
        .as_deref()
        .ok_or("reply without schema_hash")?;
    u128::from_str_radix(hex, 16).map_err(|e| format!("schema_hash {hex:?}: {e}"))
}

/// The session's base pin, sent during set-up.
fn base_pin() -> Sent {
    Sent::Pin {
        k: None,
        state: 0,
        answered: true,
    }
}

/// Pins session `s`'s base, returning the hash edits chain from.
fn pin_base(conn: &mut Conn, s: usize, session: &Session) -> Result<u128, String> {
    let line = request_line(s, session, &base_pin());
    let reply = Reply::parse(&conn.call(&line).map_err(|e| e.to_string())?)?;
    if !reply.answered() {
        return Err(format!(
            "base pin answered {}: {:?}",
            reply.status, reply.detail
        ));
    }
    parse_hash(&reply)
}

/// Sends one request and reads its reply; an unparseable reply becomes a
/// reply that was not answered. Errs only when the connection fails.
fn call(conn: &mut Conn, line: &str) -> Result<(Reply, f64), String> {
    let t = Instant::now();
    let raw = conn.call(line).map_err(|e| e.to_string())?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let reply = Reply::parse(&raw).unwrap_or_else(|e| Reply {
        status: format!("malformed reply ({e})"),
        ..Reply::default()
    });
    Ok((reply, ms))
}

fn run_session(
    conn: &mut Conn,
    s: usize,
    session: &Session,
    mut head: u128,
    until: Instant,
) -> Log {
    let mut log = Log {
        edits: Vec::new(),
        sent: vec![base_pin()],
        pins: 0,
        failed_pins: 0,
        broken: None,
        host: Calibration::new(),
    };
    let mut k = 0usize;
    let mut probe = 0;
    while Instant::now() < until {
        if k % PROBE_EVERY == 0 {
            probe = log.host.probe();
        }
        let step = Instant::now();
        let pos = k % session.cycle.len();
        let state = session.cycle[pos].state;
        let sent = Sent::Delta { k, head };
        let (reply, ms) = match call(conn, &request_line(s, session, &sent)) {
            Ok(r) => r,
            Err(e) => {
                log.broken = Some(e);
                break;
            }
        };
        log.sent.push(sent);
        let fallback = reply
            .detail
            .iter()
            .find(|d| d.starts_with("delta-fallback"))
            .map(|d| d.starts_with("delta-fallback: base"));
        // The delta path auto-pins the edited schema under the reply's hash.
        let chained = (reply.answered() && !reply.cached && fallback.is_none())
            .then(|| parse_hash(&reply).ok())
            .flatten();
        log.edits.push(Edit {
            pos,
            ms,
            step_ms: ms,
            probe,
            reply: Kept::of(&reply),
            fallback,
        });
        k += 1;
        if let Some(h) = chained {
            head = h;
            continue;
        }
        // A cache hit, a fallback or a failed edit pins nothing: pin the
        // edited schema so the next edit chains from it. If the pin fails
        // too, the next edit names a base the daemon lacks and falls back
        // to a full check of the text it carries.
        let pin = Sent::Pin {
            k: Some(k),
            state,
            answered: true,
        };
        let line = request_line(s, session, &pin);
        let pin = match call(conn, &line) {
            Ok((pin, _)) => pin,
            Err(e) => {
                log.broken = Some(e);
                break;
            }
        };
        log.pins += 1;
        let answered = pin.answered();
        head = match parse_hash(&pin) {
            Ok(h) if answered => h,
            _ => {
                eprintln!("s{s}-pin{k} answered {}: {:?}", pin.status, pin.detail);
                log.failed_pins += 1;
                cr_core::canonical_text_hash(&canonical(&session.sources[state]))
            }
        };
        log.sent.push(Sent::Pin {
            k: Some(k),
            state,
            answered,
        });
        if let Some(e) = log.edits.last_mut() {
            e.step_ms = step.elapsed().as_secs_f64() * 1e3;
        }
    }
    log
}

pub fn run(args: &Args) -> Result<Outcome, Invalid> {
    let fail = |e: String| Invalid(format!("daemon: {e}"));
    let sessions = sessions(args.seed);
    let digest = sessions_digest(&sessions);
    let slo_ms = param(WORKLOAD, "slo_ms");

    // Set-up: boot the daemon with the sessions' connections pending (see
    // `Daemon::start`), then pin their bases.
    let setup = || -> Result<(Daemon, Vec<Conn>, Vec<u128>), Invalid> {
        let config = ServerConfig {
            workers: WORKERS,
            ..ServerConfig::default()
        };
        let (daemon, streams) = Daemon::start(config, SESSIONS).map_err(fail)?;
        let mut conns = Vec::new();
        let mut heads = Vec::new();
        for ((s, session), stream) in sessions.iter().enumerate().zip(streams) {
            let mut conn = Conn::new(stream).map_err(|e| fail(e.to_string()))?;
            heads.push(pin_base(&mut conn, s, session).map_err(fail)?);
            conns.push(conn);
        }
        Ok((daemon, conns, heads))
    };
    let mut setups = Vec::new();
    let mut timed_setup = || -> Result<_, Invalid> {
        let t = Instant::now();
        let live = setup()?;
        setups.push(t.elapsed().as_secs_f64());
        Ok(live)
    };
    for _ in 1..SETUPS {
        drop(timed_setup()?);
    }
    let (daemon, mut conns, heads) = timed_setup()?;

    let started = Instant::now();
    let until = started + args.seconds;
    let logs: Vec<Log> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&sessions)
            .zip(heads)
            .enumerate()
            .map(|(s, ((conn, session), head))| {
                scope.spawn(move || run_session(conn, s, session, head, until))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let peak = peak_rss_mb();
    // Admission and flight counters for the traced output; a session whose
    // connection broke is already counted as failed below.
    let stats = conns[0]
        .call(&Request::new("stats", Op::Stats).to_json())
        .ok()
        .and_then(|l| Reply::parse(&l).ok())
        .unwrap_or_default();
    drop(conns);
    drop(daemon);

    // Every verdict against a from-scratch check of the edited schema,
    // once per distinct schema, on two threads.
    let expected = references(&sessions, &logs);
    let mut failed = 0u64;
    let mut mismatches = 0u64;
    let mut latencies = Vec::new();
    let mut edit_ms = Vec::new();
    let mut step_samples = Vec::new();
    let mut within = 0usize;
    let mut fallbacks = 0usize;
    let mut hits = 0usize;
    for (s, log) in logs.iter().enumerate() {
        if let Some(e) = &log.broken {
            eprintln!("session {s}: connection failed: {e}");
            failed += 1;
        }
        failed += log.failed_pins as u64;
        for (k, edit) in log.edits.iter().enumerate() {
            let Edit {
                pos,
                ms,
                step_ms,
                probe,
                reply,
                fallback,
            } = edit;
            latencies.push(*ms);
            if reply.answered() {
                let scale = log.host.factor_at(*probe);
                edit_ms.push(((s, *pos), *ms, scale));
                step_samples.push(((s, *pos), *step_ms, scale));
            }
            hits += usize::from(reply.cached);
            fallbacks += usize::from(fallback.is_some());
            if !reply.answered() {
                eprintln!("s{s}-{k} answered {}", reply.status.as_str());
                failed += 1;
                continue;
            }
            let (status, verdict) = &expected[&(s, sessions[s].cycle[*pos].state)];
            if reply.status.as_str() != status || reply.verdict() != verdict {
                eprintln!(
                    "verdict mismatch on s{s}-{k}: got {} {}, expected {status} {verdict}",
                    reply.status.as_str(),
                    reply.verdict()
                );
                failed += 1;
                mismatches += 1;
            } else if *ms <= slo_ms {
                within += 1;
            }
        }
    }
    let n = latencies.len();
    // Each cycle position's best repeat, each time scaled by the host's
    // speed around it (see `calib`); a session completes one edit per step.
    let raw = best_per_item(edit_ms.iter().map(|&(key, ms, _)| (key, ms)));
    let best = best_per_item(edit_ms.iter().map(|&(key, ms, scale)| (key, ms * scale)));
    let rate = |scaled: bool| -> f64 {
        (0..SESSIONS)
            .map(|s| {
                let steps = best_per_item(
                    step_samples
                        .iter()
                        .filter(|((t, _), _, _)| *t == s)
                        .map(|&(key, ms, scale)| (key, if scaled { ms * scale } else { ms })),
                );
                ratio(steps.len() as f64, steps.iter().sum::<f64>() / 1e3)
            })
            .sum()
    };
    let mut host = Calibration::new();
    for log in &logs {
        host.merge(&log.host);
    }
    let positions = best.len();
    let pins: usize = logs.iter().map(|l| l.pins).sum();
    let broken = logs.iter().filter(|l| l.broken.is_some()).count();
    let attempted = (n + pins + broken) as u64;
    let mut notes = vec![
        format!("input digest {digest}"),
        format!(
            "closed loop, {SESSIONS} sessions: {n} edits answered, {pins} re-pins, {} distinct edited schemas checked from scratch; tail = p95; SLO {slo_ms} ms",
            expected.len()
        ),
        format!(
            "shares: delta fallbacks {:.4}, verdict-cache hits {:.4} of edits",
            ratio(fallbacks as f64, n as f64),
            ratio(hits as f64, n as f64)
        ),
        format!(
            "figures over each of the {positions} cycle positions' best repeat, each time scaled by the host's speed around it: p50, tail = p95, throughput = sum over sessions of positions / summed best steps (edit plus any re-pin); slo_frac over every edit, unscaled; {:.1} edits/s measured",
            n as f64 / elapsed
        ),
        host.note(),
        format!(
            "unscaled: p50 {:.4} ms, tail {:.4} ms, throughput {:.3} 1/s",
            median(&raw),
            percentile(&raw, 0.95),
            rate(false)
        ),
    ];
    if !args.trace {
        return Ok(Outcome {
            attempted,
            failed,
            mismatches,
            metrics: vec![
                ("setup_s", median(&setups), "s", setups.len()),
                ("p50_ms", median(&best), "ms", positions),
                // p95, not p99: past the slowest 2% (mostly full-check
                // fallbacks) the tail is thin, and p99 moved by a quarter
                // between runs of the same code.
                ("tail_ms", percentile(&best, 0.95), "ms", positions),
                ("throughput_rps", rate(true), "1/s", positions),
                ("slo_frac", ratio(within as f64, n as f64), "ratio", n),
                ("peak_rss_mb", peak, "MB", 1),
            ],
            notes,
        });
    }

    // Traced: replay the sessions' requests on one thread, in the order
    // each session sent them and alternating sessions, through the path
    // the daemon took for each edit.
    let requests = interleave(&logs);
    let run = paired(
        ReplayState::new,
        requests.len(),
        args.seconds,
        |replay, state, i| {
            let (s, sent, edit) = requests[i];
            replay_request(replay, state, s, &sessions[s], sent, edit);
        },
    );
    let replay = &run.traced;
    let _ = replay
        .rec
        .write_tsv(&args.work_dir("spans").with_extension("tsv"));
    let replayed: Vec<&Edit> = requests[..run.requests]
        .iter()
        .filter_map(|r| r.2)
        .collect();
    let replies: Vec<Reply> = replayed
        .iter()
        .map(|e| Reply {
            bytes: e.reply.bytes,
            stage_ns: e.reply.stage_ns,
            pivots: e.reply.pivots,
            ..Reply::default()
        })
        .collect();
    let daemon_ms: f64 = replayed.iter().map(|e| e.ms).sum();
    let mut extra: BTreeMap<&'static str, f64> = BTreeMap::new();
    extra.insert(
        "protocol.response_bytes",
        ratio(
            replies.iter().map(|r| r.bytes as f64).sum(),
            replies.len() as f64,
        ),
    );
    extra.insert("admission.shed", stats.stat("requests_shed"));
    extra.insert(
        "admission.queue_delay_ewma_us",
        stats.stat("queue_delay_ewma_us"),
    );
    extra.insert("flight.coalesced", stats.stat("requests_coalesced"));
    extra.insert(
        "server.other_ms",
        (daemon_ms - run.state.edit_ms) / replayed.len().max(1) as f64,
    );
    extra.insert("trace.overhead_share", run.overhead_share());
    notes.push(format!(
        "replayed {} requests untraced ({:.3} s) and traced ({:.3} s) in lockstep",
        run.requests, run.untraced_s, run.traced_s
    ));
    notes.extend(crate::serve_durable::cross_check(&replies, replay));
    Ok(Outcome {
        attempted,
        failed,
        mismatches,
        metrics: replay
            .metrics(&extra)
            .into_iter()
            .map(|(name, v, unit)| (name, v, unit, run.requests))
            .collect(),
        notes,
    })
}

fn references(sessions: &[Session], logs: &[Log]) -> HashMap<(usize, usize), (String, String)> {
    let mut wanted: Vec<(usize, usize)> = logs
        .iter()
        .enumerate()
        .flat_map(|(s, log)| {
            log.edits
                .iter()
                .map(move |e| (s, sessions[s].cycle[e.pos].state))
        })
        .collect::<HashSet<_>>()
        .into_iter()
        .collect();
    wanted.sort_unstable();
    let out = std::sync::Mutex::new(HashMap::new());
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                let Some(&(s, state)) = wanted.get(i) else {
                    return;
                };
                let schema: Schema = cr_lang::parse_schema(&sessions[s].sources[state])
                    .expect("generated schema parses");
                let a = cr_server::eval::check(&schema, &Budget::unlimited());
                out.lock()
                    .expect("reference thread panicked")
                    .insert((s, state), (a.status.as_str().to_string(), a.verdict));
            });
        }
    });
    out.into_inner().expect("reference thread panicked")
}

/// Every request the sessions sent, each with its edit's outcome, in the
/// order each session sent them and alternating between sessions.
fn interleave(logs: &[Log]) -> Vec<(usize, &Sent, Option<&Edit>)> {
    let mut per_session: Vec<_> = logs
        .iter()
        .enumerate()
        .map(|(s, log)| {
            let mut edits = log.edits.iter();
            log.sent
                .iter()
                .map(move |sent| {
                    let edit = matches!(sent, Sent::Delta { .. })
                        .then(|| edits.next())
                        .flatten();
                    (s, sent, edit)
                })
                .collect::<Vec<_>>()
                .into_iter()
        })
        .collect();
    let mut out = Vec::new();
    loop {
        let before = out.len();
        for it in per_session.iter_mut() {
            out.extend(it.next());
        }
        if out.len() == before {
            return out;
        }
    }
}

/// One replay's own daemon-side state.
struct ReplayState {
    cache: VerdictCache,
    pinned: HashMap<String, Arc<DeltaContext>>,
    /// Summed replay wall time of the edits.
    edit_ms: f64,
}

impl ReplayState {
    fn new() -> ReplayState {
        let defaults = ServerConfig::default();
        ReplayState {
            cache: VerdictCache::new(defaults.cache_capacity, defaults.cache_shards),
            pinned: HashMap::new(),
            edit_ms: 0.0,
        }
    }
}

fn replay_request(
    replay: &mut Replay,
    state: &mut ReplayState,
    s: usize,
    session: &Session,
    sent: &Sent,
    edit: Option<&Edit>,
) {
    let t = Instant::now();
    let line = request_line(s, session, sent);
    replay.begin_request();
    let req = replay.decode(&line);
    match (sent, edit) {
        (
            Sent::Pin {
                answered: false, ..
            },
            _,
        ) => {
            replay.encode(
                "pin_base",
                response(&req.id, Status::Error, None, Vec::new(), false, None),
            );
        }
        (_, None) => {
            let schema = replay.parse(req.schema.as_deref().unwrap_or_default());
            let (canonical, _) = replay.canon(&schema);
            let hash = format!("{:032x}", cr_core::canonical_text_hash(&canonical));
            let known = state.pinned.contains_key(&hash);
            if !known {
                let ctx = replay.governed("pin", &[], |b| {
                    DeltaContext::from_canonical(&canonical, &ExpansionConfig::default(), b)
                        .expect("pin_base on a generated schema")
                });
                state.pinned.insert(hash.clone(), Arc::new(ctx));
            }
            let out = response(
                &req.id,
                Status::Ok,
                Some("pinned"),
                Vec::new(),
                known,
                Some(hash),
            );
            replay.encode("pin_base", out);
        }
        (_, Some(edit)) => replay_edit(replay, &req, edit, &state.cache, &mut state.pinned),
    }
    replay.end_request();
    if edit.is_some() {
        state.edit_ms += t.elapsed().as_secs_f64() * 1e3;
    }
}

fn verdict_of(unsat: &[String]) -> (Status, &'static str) {
    if unsat.is_empty() {
        (Status::Ok, "satisfiable")
    } else {
        (Status::Negative, "unsatisfiable")
    }
}

fn replay_edit(
    replay: &mut Replay,
    req: &Request,
    edit: &Edit,
    cache: &VerdictCache,
    pinned: &mut HashMap<String, Arc<DeltaContext>>,
) {
    if !edit.reply.answered() {
        // Shed or refused before any work: only the reply is encoded.
        let out = response(&req.id, edit.reply.status, None, Vec::new(), false, None);
        replay.encode("check_delta", out);
        return;
    }
    let base_hash = req.base.clone().unwrap_or_default();
    let base = pinned.get(&base_hash).cloned();
    let Some(base) = base.filter(|_| edit.fallback != Some(true)) else {
        // The daemon had lost the base: a full check of the edited text.
        let schema = replay.parse(req.schema.as_deref().unwrap_or_default());
        let (_, hash) = replay.canon(&schema);
        let unsat = replay.check(&schema);
        let (status, verdict) = verdict_of(&unsat);
        let out = response(
            &req.id,
            status,
            Some(verdict),
            unsat,
            false,
            Some(format!("{hash:032x}")),
        );
        replay.encode("check_delta", out);
        return;
    };
    let (diff, edited) = replay.rec.span("lang.diff", |_| {
        let diff = cr_lang::SchemaDiff::parse_lines(&req.diff).expect("generated diff parses");
        let edited = cr_lang::apply_diff(base.canonical(), &diff).expect("generated diff applies");
        (diff, edited)
    });
    let edited_hash = replay
        .rec
        .span("canon.hash", |_| cr_core::canonical_text_hash(&edited));
    let schema_hash = Some(format!("{edited_hash:032x}"));
    let key = CacheKey {
        canonical: base.canonical().to_string(),
        question: format!("delta {base_hash} {:032x}", diff.hash()),
    };
    // Take the path the daemon took: its cache state is not the replay's.
    let hit = replay
        .lookup(cache, base.hash(), &key)
        .filter(|_| edit.reply.cached);
    replay.add("cache.hits", f64::from(u8::from(edit.reply.cached)));
    if let Some(hit) = hit {
        let out = response(
            &req.id,
            hit.status,
            Some(&hit.verdict),
            hit.detail,
            true,
            schema_hash,
        );
        replay.encode("check_delta", out);
        return;
    }
    let before = replay.count("delta.solves");
    let outcome = replay.governed(
        "delta",
        &[
            (Counter::AtomsInvalidated, "delta.atoms_invalidated"),
            (Counter::SimplexSolves, "delta.solves"),
        ],
        |b| {
            cr_delta::check_delta(
                &base,
                &diff,
                &DeltaConfig::default(),
                &ExpansionConfig::default(),
                b,
            )
            .expect("delta check on a generated edit")
        },
    );
    let unsat = match outcome {
        DeltaOutcome::Checked(v) => {
            if replay.count("delta.solves") == before {
                replay.add("delta.zero_lp", 1.0);
            }
            let unsat = v.unsat_classes.clone();
            pinned.insert(v.next.hash_hex(), Arc::new(v.next));
            unsat
        }
        DeltaOutcome::Fallback {
            edited_canonical, ..
        } => {
            replay.add("delta.fallbacks", 1.0);
            let schema = replay.rec.span("lang.parse", |_| {
                cr_lang::schema_from_canonical(&edited_canonical).expect("edited canonical parses")
            });
            replay.check(&schema)
        }
    };
    let (status, verdict) = verdict_of(&unsat);
    let v = CachedVerdict {
        status,
        verdict: verdict.to_string(),
        detail: unsat.clone(),
        trace_id: None,
    };
    replay.insert(cache, base.hash(), key, v);
    let out = response(&req.id, status, Some(verdict), unsat, false, schema_hash);
    replay.encode("check_delta", out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_digest() {
        let digest = |seed| sessions_digest(&sessions(seed));
        assert_eq!(digest(4), digest(4));
        assert_ne!(digest(4), digest(5));
    }

    #[test]
    fn replies_that_are_not_answered_count_as_failed_edits() {
        // One budget step: every edit and every re-pin trips the budget.
        let config = ServerConfig {
            workers: WORKERS,
            default_max_steps: Some(1),
            ..ServerConfig::default()
        };
        let (daemon, streams) = Daemon::start(config, 1).expect("daemon starts");
        let stream = streams.into_iter().next().expect("one stream");
        let mut conn = Conn::new(stream).expect("connection");
        let sess = session(1, 0);
        let head = cr_core::canonical_text_hash(&canonical(&sess.sources[0]));
        let until = Instant::now() + std::time::Duration::from_millis(300);
        let log = run_session(&mut conn, 0, &sess, head, until);
        drop(conn);
        drop(daemon);
        assert!(log.broken.is_none());
        assert!(!log.edits.is_empty());
        assert!(log.edits.iter().all(|e| !e.reply.answered()));
        assert_eq!(log.pins, log.edits.len());
        assert_eq!(log.failed_pins, log.pins);
    }

    #[test]
    fn cycle_returns_to_the_base_and_each_diff_applies() {
        let sess = session(8, 0);
        assert_eq!(sess.cycle.len(), ANCHORS * (EXCURSION + 1));
        assert_eq!(sess.cycle.last().map(|s| s.state), Some(0));
        let mut cur = canonical(&sess.sources[0]);
        for step in &sess.cycle {
            let diff = cr_lang::SchemaDiff::parse_lines(&step.diff).expect("diff parses");
            cur = cr_lang::apply_diff(&cur, &diff).expect("diff applies");
            assert_eq!(cur, canonical(&sess.sources[step.state]));
        }
    }
}
