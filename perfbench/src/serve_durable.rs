//! `serve-durable`: an open loop at a fixed offered rate against a durable
//! daemon (verdict store on disk) followed by a warm standby, then a
//! closed-loop saturation phase of never-seen schemas at depth 2.
//!
//! A cache hit is a read (parse, canonicalize, cache, JSON); a miss is a
//! write (check, `certify_check`, append and fsync, shipping to the
//! standby). So this workload loads the request pipeline and the certify,
//! store and replication layers, while arithmetic hardly shows at p50.
//!
//! The saturation phase sends each of its schemas several times under
//! fresh names, and its capacity is taken over each schema's best
//! response time (see [`crate::stats::best_per_item`]), each time scaled
//! by the host's speed around it (see [`crate::calib`]). The open loop's
//! latencies are mostly the wait for the next arrival and are not scaled.

use std::collections::{BTreeMap, HashMap};
use std::io::BufReader;
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use cr_bench::{SchemaGen, SchemaShape};
use cr_core::{Budget, Schema};
use cr_server::eval::Answer;
use cr_server::{CacheKey, CachedVerdict, Op, Request, Server, ServerConfig, Status, VerdictCache};
use cr_trace::Counter;

use crate::calib::Calibration;
use crate::client::{recv_line, send_line, Conn, Daemon, Handoff, Reply, WORKERS};
use crate::layers::{paired, response, Replay};
use crate::stats::{best_per_item, geomean, mean, median, percentile, ratio, Digest, Rng};
use crate::{param, peak_rss_mb, Args, Invalid, Outcome};

const WORKLOAD: &str = "serve-durable";
/// Schemas in the pool the traffic draws from, Zipf-skewed.
const POOL: usize = 48;
const ZIPF_S: f64 = 1.1;
/// Traffic mix, per mille of open-loop requests. `certify:true` re-runs
/// certification even on a cache hit. Heavier mixes make the admission
/// gate shed bursts of requests whenever two costly certifications
/// overlap.
const NEVER_SEEN: usize = 10;
const CERTIFY: usize = 5;
const IMPLIES: usize = 50;
/// Never-seen schemas of the saturation phase. In each of `ROUNDS` rounds
/// every one is sent as `DEPTH` copies at once, each under names no other
/// request used, so every request is a write and both workers do the same
/// work (about 11 s in all on a 2-vCPU VM, most of it the few schemas
/// whose certification takes seconds).
const SATURATION_SCHEMAS: usize = 48;
const ROUNDS: usize = 3;
/// Generator seed of the open loop's arrival times, which every run shares.
const ARRIVAL_SEED: u64 = 0x5EED;
/// Share of `--seconds` spent in the open loop; saturation follows.
const OPEN_SHARE: f64 = 0.8;
const DEPTH: usize = 2;
/// Timed set-ups per run, all before the timed phases; `setup_s` is their
/// median.
const SETUPS: usize = 25;
/// Windows the open loop's tail is taken over (see [`windowed_tail`]).
const TAIL_WINDOWS: usize = 4;
/// How long before a send is due the generator stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(300);
/// How long the open loop may take to drain before it counts as backlog.
const DRAIN: Duration = Duration::from_secs(10);

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Check,
    Certify,
    Implies,
}

struct Req {
    line: String,
    schema: usize,
    kind: Kind,
    query: Vec<String>,
}

struct Inputs {
    /// Source text of every schema a request names; the first `POOL` are
    /// the pool.
    sources: Vec<String>,
    open: Vec<Req>,
    capacity: Vec<Req>,
    /// The saturation schema each capacity request sends.
    capacity_item: Vec<usize>,
    rate: f64,
    /// When each open-loop request is due, from the loop's start.
    due: Vec<Duration>,
}

/// A 3-class schema; the shape rotates with `gen_seed`.
fn schema(gen_seed: u64) -> Schema {
    let shape = [
        SchemaShape::Flat,
        SchemaShape::IsaModerate,
        SchemaShape::IsaHeavy,
    ][(gen_seed % 3) as usize];
    SchemaGen::shaped(shape, 3, 2, gen_seed).build()
}

fn request_line(id: String, kind: Kind, source: &str, query: &[String]) -> String {
    let mut r = Request::new(
        id,
        if kind == Kind::Implies {
            Op::Implies
        } else {
            Op::Check
        },
    );
    r.schema = Some(source.to_string());
    r.query = query.to_vec();
    r.certify = kind == Kind::Certify;
    r.to_json()
}

/// An implied-minimum question about the schema's first declared window.
fn implies_query(s: &Schema, bump: u64) -> Option<Vec<String>> {
    let d = s.card_declarations().first()?;
    let rel = s.rel_of_role(d.role);
    Some(vec![
        "min".to_string(),
        s.class_name(d.class).to_string(),
        format!("{}.{}", s.rel_name(rel), s.role_name(d.role)),
        (d.card.min + bump).to_string(),
    ])
}

/// Splits `n` requests over the pool by Zipf weight (largest remainder).
fn zipf_counts(n: usize) -> Vec<usize> {
    let w: Vec<f64> = (0..POOL)
        .map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = w.iter().sum();
    let exact: Vec<f64> = w.iter().map(|x| x / total * n as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..POOL).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    for &r in by_remainder.iter().take(n - counts.iter().sum::<usize>()) {
        counts[r] += 1;
    }
    counts
}

/// The request mix is the same multiset in every run of a given length:
/// per-request costs span four orders of magnitude (a cache hit against a
/// multi-second certification), so runs over seed-drawn mixes would
/// measure mostly which slow requests they drew. The seed sets the order.
fn inputs(seed: u64, seconds: Duration) -> Inputs {
    let rate = param(WORKLOAD, "rate_rps");
    let mut rng = Rng::new(seed, 2);
    let pool: Vec<Schema> = (0..POOL as u64).map(schema).collect();
    let mut sources: Vec<String> = pool.iter().map(cr_lang::print_schema).collect();
    let fresh = |sources: &mut Vec<String>, gen_seed: u64| {
        sources.push(cr_lang::print_schema(&schema(gen_seed)));
        sources.len() - 1
    };
    let n_open = (rate * seconds.as_secs_f64() * OPEN_SHARE).round() as usize;
    let n_new = n_open * NEVER_SEEN / 1000;
    let n_certify = n_open * CERTIFY / 1000;
    let n_implies = n_open * IMPLIES / 1000;
    let mut mix: Vec<(usize, Kind, Vec<String>)> = Vec::with_capacity(n_open);
    for j in 0..n_new {
        mix.push((
            fresh(&mut sources, 600_000 + j as u64),
            Kind::Check,
            Vec::new(),
        ));
    }
    for j in 0..n_certify {
        mix.push((j * 7 % POOL, Kind::Certify, Vec::new()));
    }
    for (r, count) in zipf_counts(n_implies).into_iter().enumerate() {
        for k in 0..count {
            match implies_query(&pool[r], k as u64 % 2) {
                Some(q) => mix.push((r, Kind::Implies, q)),
                None => mix.push((r, Kind::Check, Vec::new())),
            }
        }
    }
    for (r, count) in zipf_counts(n_open - mix.len()).into_iter().enumerate() {
        mix.extend((0..count).map(|_| (r, Kind::Check, Vec::new())));
    }
    rng.shuffle(&mut mix);
    let open = mix
        .into_iter()
        .enumerate()
        .map(|(i, (schema, kind, query))| Req {
            line: request_line(format!("o{i}"), kind, &sources[schema], &query),
            schema,
            kind,
            query,
        })
        .collect();
    let saturation: Vec<String> = (0..SATURATION_SCHEMAS as u64)
        .map(|n| cr_lang::print_schema(&schema(500_000 + n)))
        .collect();
    let mut capacity = Vec::new();
    let mut capacity_item = Vec::new();
    for round in 0..ROUNDS {
        let mut order: Vec<usize> = (0..SATURATION_SCHEMAS).collect();
        rng.shuffle(&mut order);
        for item in order {
            for copy in 0..DEPTH {
                sources.push(renamed(&saturation[item], &format!("s{round}c{copy}_")));
                let schema = sources.len() - 1;
                let i = capacity.len();
                capacity.push(Req {
                    line: request_line(format!("c{i}"), Kind::Check, &sources[schema], &[]),
                    schema,
                    kind: Kind::Check,
                    query: Vec::new(),
                });
                capacity_item.push(item);
            }
        }
    }
    // Arrivals every 1/rate seconds, each gap jittered by up to a fifth,
    // the same in every run. The daemon does not set TCP_NODELAY, so a
    // reply waits for the client's next packet whenever the previous reply
    // is unacknowledged, and at this rate that is almost every reply:
    // latencies are the wait for the next arrival plus the work. A fixed
    // gap quantizes them to multiples of it, and Poisson gaps make the
    // share of replies that wait flip between runs (see layers.json).
    let mut arrivals = Rng::new(ARRIVAL_SEED, 0);
    let mut at = 0.0;
    let due: Vec<f64> = (0..n_open)
        .map(|_| {
            let jitter = arrivals.below(1 << 53) as f64 / (1u64 << 53) as f64;
            at += (0.8 + 0.4 * jitter) / rate;
            at
        })
        .collect();
    Inputs {
        sources,
        open,
        capacity,
        capacity_item,
        rate,
        due: due.into_iter().map(Duration::from_secs_f64).collect(),
    }
}

/// The schema text with `prefix` put before every class and relationship
/// name (`C<n>`, `R<n>`): a schema the daemon has never seen, whose check
/// does the same work, since a common prefix keeps the names' order.
fn renamed(source: &str, prefix: &str) -> String {
    let mut out = String::with_capacity(source.len() + 64);
    let mut word = String::new();
    let flush = |word: &mut String, out: &mut String| {
        let mut chars = word.chars();
        let generated = matches!(chars.next(), Some('C' | 'R'))
            && !chars.as_str().is_empty()
            && chars.all(|c| c.is_ascii_digit());
        if generated {
            out.push_str(prefix);
        }
        out.push_str(word);
        word.clear();
    };
    for c in source.chars() {
        if c.is_alphanumeric() || c == '_' {
            word.push(c);
        } else {
            flush(&mut word, &mut out);
            out.push(c);
        }
    }
    flush(&mut word, &mut out);
    out
}

fn inputs_digest(inputs: &Inputs) -> String {
    let mut d = Digest::new();
    for r in inputs.open.iter().chain(&inputs.capacity) {
        d.add(r.line.as_bytes());
    }
    for t in &inputs.due {
        d.add(&t.as_nanos().to_le_bytes());
    }
    d.hex()
}

fn primary_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        cache_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    }
}

/// Waits until the standby has applied the primary's whole log.
fn wait_caught_up(primary: &Server, standby: &Server) -> Result<(), String> {
    let started = Instant::now();
    loop {
        let head = primary.metrics_view().store.map(|s| s.log_bytes);
        let applied = standby.metrics_view().repl.map(|r| r.offset);
        if head.is_some() && applied >= head {
            return Ok(());
        }
        if started.elapsed() > Duration::from_secs(30) {
            return Err(format!(
                "standby stuck at {applied:?} of {head:?} log bytes"
            ));
        }
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// One received reply line and when it arrived.
type Arrival = (Instant, String);

/// Reads reply lines until `done(received)` holds or `deadline` passes.
fn receive(
    mut reader: BufReader<TcpStream>,
    done: impl Fn(usize) -> bool,
    deadline: Instant,
    notify: Option<mpsc::Sender<()>>,
) -> (Vec<Arrival>, BufReader<TcpStream>) {
    reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_millis(50)))
        .expect("set read timeout");
    let mut got = Vec::new();
    let mut buf = String::new();
    while !done(got.len()) && Instant::now() < deadline {
        match std::io::BufRead::read_line(&mut reader, &mut buf) {
            Ok(0) => break,
            Ok(_) if buf.ends_with('\n') => {
                got.push((Instant::now(), std::mem::take(&mut buf)));
                if let Some(tx) = &notify {
                    let _ = tx.send(());
                }
            }
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => break,
        }
    }
    reader
        .get_ref()
        .set_read_timeout(None)
        .expect("clear read timeout");
    (got, reader)
}

/// Waits until `t`: sleeps until shortly before it, then spins, since a
/// sleep alone overshoots by a tenth of a millisecond or more, which would
/// count as latency of the request it delays.
fn sleep_until(t: Instant) {
    let now = Instant::now();
    if let Some(ahead) = (t - SPIN).checked_duration_since(now) {
        std::thread::sleep(ahead);
    }
    while Instant::now() < t {
        std::hint::spin_loop();
    }
}

/// The open loop: requests sent on schedule by this thread, replies read
/// by one receiver thread. Returns due times, send times and arrivals.
fn open_loop(
    conn: Conn,
    reqs: &[Req],
    schedule: &[Duration],
) -> (Vec<Instant>, Vec<Instant>, Vec<Arrival>) {
    let (mut writer, reader) = conn.split();
    let n = reqs.len();
    let start = Instant::now() + Duration::from_millis(20);
    let deadline = start + schedule.last().copied().unwrap_or_default() + DRAIN;
    let receiver = std::thread::spawn(move || receive(reader, move |got| got >= n, deadline, None));
    let mut due = Vec::with_capacity(n);
    let mut sent = Vec::with_capacity(n);
    for (r, offset) in reqs.iter().zip(schedule) {
        let t = start + *offset;
        sleep_until(t);
        if send_line(&mut writer, &r.line).is_err() {
            break;
        }
        due.push(t);
        sent.push(Instant::now());
    }
    let (arrivals, _) = receiver.join().expect("receiver thread panicked");
    (due, sent, arrivals)
}

/// The saturation phase: the requests in groups of `DEPTH` (one schema's
/// copies), each group sent at once on one connection and answered before
/// a host-speed probe and the next group. Returns send times, arrivals,
/// the probe after each sent request, the phase's start, and the `stats`
/// reply read afterwards on the same connection.
fn saturate(
    conn: Conn,
    reqs: &[Req],
    host: &mut Calibration,
) -> (Vec<Instant>, Vec<Arrival>, Vec<usize>, Instant, Reply) {
    let (mut writer, reader) = conn.split();
    let sent_total = Arc::new(AtomicUsize::new(0));
    let sending = Arc::new(AtomicBool::new(true));
    let (tx, rx) = mpsc::channel();
    let start = Instant::now();
    let receiver = {
        let sent_total = Arc::clone(&sent_total);
        let sending = Arc::clone(&sending);
        std::thread::spawn(move || {
            receive(
                reader,
                move |got| {
                    !sending.load(Ordering::SeqCst) && got >= sent_total.load(Ordering::SeqCst)
                },
                start + Duration::from_secs(120),
                Some(tx),
            )
        })
    };
    let mut sent = Vec::new();
    let mut send = |sent: &mut Vec<Instant>| {
        let ok = send_line(&mut writer, &reqs[sent.len()].line).is_ok();
        if ok {
            sent.push(Instant::now());
            sent_total.fetch_add(1, Ordering::SeqCst);
        }
        ok
    };
    let mut received = 0;
    let mut probes = Vec::with_capacity(reqs.len());
    let mut open = true;
    for group in reqs.chunks(DEPTH) {
        for _ in group {
            open = open && send(&mut sent);
        }
        while open && received < sent.len() {
            open = rx.recv().is_ok();
            received += 1;
        }
        let p = host.probe();
        probes.resize(sent.len(), p);
        if !open {
            break;
        }
    }
    sending.store(false, Ordering::SeqCst);
    let (arrivals, mut reader) = receiver.join().expect("receiver thread panicked");
    // Admission and flight counters for the traced output only.
    let stats = send_line(&mut writer, &Request::new("stats", Op::Stats).to_json())
        .and_then(|()| recv_line(&mut reader))
        .ok()
        .and_then(|l| Reply::parse(&l).ok())
        .unwrap_or_default();
    (sent, arrivals, probes, start, stats)
}

/// The open loop's tail: in each of `TAIL_WINDOWS` consecutive windows of
/// requests, the highest percentile with 10 samples beyond it; then the
/// median over windows, so one burst of overlapping certifications does
/// not decide a run's figure.
fn windowed_tail(by_send: &[f64]) -> f64 {
    let size = by_send.len() / TAIL_WINDOWS;
    let tails: Vec<f64> = by_send
        .chunks(size.max(1))
        .filter(|w| w.len() == size)
        .map(|w| percentile(w, 1.0 - 10.0 / w.len() as f64))
        .collect();
    median(&tails)
}

/// Answers a from-scratch evaluation gives, memoized per question.
struct References<'a> {
    sources: &'a [String],
    memo: HashMap<(usize, Vec<String>), Answer>,
}

impl References<'_> {
    /// The answer to `query` on schema `schema` (`check` when empty).
    fn expected(&mut self, schema: usize, query: &[String]) -> Answer {
        let key = (schema, query.to_vec());
        if let Some(a) = self.memo.get(&key) {
            return a.clone();
        }
        let parsed = cr_lang::parse_schema(&self.sources[schema]).expect("generated schema parses");
        let a = if query.is_empty() {
            cr_server::eval::check(&parsed, &Budget::unlimited())
        } else {
            cr_server::eval::implies(&parsed, query, &Budget::unlimited())
        };
        self.memo.insert(key, a.clone());
        a
    }
}

pub fn run(args: &Args) -> Result<Outcome, Invalid> {
    let work = args.work_dir("work");
    let _ = std::fs::remove_dir_all(&work);
    let result = run_in(args, &work);
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn run_in(args: &Args, work: &Path) -> Result<Outcome, Invalid> {
    let fail = |e: String| Invalid(format!("daemon: {e}"));
    let inputs = inputs(args.seed, args.seconds);
    let digest = inputs_digest(&inputs);
    let slo_ms = param(WORKLOAD, "slo_ms");

    // Fixture: a store pre-filled with the pool's certified verdicts.
    let primary_dir = work.join("primary");
    {
        let server = Server::open(primary_config(&primary_dir)).map_err(fail)?;
        for (j, src) in inputs.sources[..POOL].iter().enumerate() {
            server.process_line(&request_line(format!("p{j}"), Kind::Check, src, &[]));
        }
        server.finish();
    }

    // Set-up: warm restart on the store, then a standby catches up. The
    // standby's follower and the two load connections use streams made
    // before the primary's accept loop started (see `Daemon::start`).
    let mut setups = Vec::new();
    let mut catchups = Vec::new();
    let mut setup = |k: usize| -> Result<(Daemon, Server, Vec<TcpStream>), Invalid> {
        let t = Instant::now();
        let (primary, mut streams) =
            Daemon::start(primary_config(&primary_dir), 3).map_err(fail)?;
        let tc = Instant::now();
        let standby = Server::open(ServerConfig {
            workers: WORKERS,
            cache_dir: Some(work.join(format!("standby-{k}"))),
            follow: Some(primary.addr.to_string()),
            connector: Arc::new(Handoff::new(streams.remove(0))),
            ..ServerConfig::default()
        })
        .map_err(fail)?;
        wait_caught_up(&primary.server, &standby).map_err(fail)?;
        catchups.push(tc.elapsed().as_secs_f64() * 1e3);
        setups.push(t.elapsed().as_secs_f64());
        Ok((primary, standby, streams))
    };
    for k in 1..SETUPS {
        let (primary, standby, _) = setup(k)?;
        standby.finish();
        drop(primary);
    }
    let (primary, standby, mut streams) = setup(0)?;

    // Warm the cache with the pool's implies answers, which the store does
    // not keep, so the open loop's misses are its never-seen schemas.
    let warm: BTreeMap<(usize, Vec<String>), &Req> = inputs
        .open
        .iter()
        .filter(|r| r.kind == Kind::Implies)
        .map(|r| ((r.schema, r.query.clone()), r))
        .collect();
    for r in warm.values() {
        primary.server.process_line(&r.line);
    }

    // Timed: the open loop, then saturation.
    let mut connect = || Conn::new(streams.remove(0)).map_err(|e| fail(e.to_string()));
    let (due, sent, arrivals) = open_loop(connect()?, &inputs.open, &inputs.due);
    let mut host = Calibration::new();
    let (cap_sent, cap_arrivals, cap_probes, cap_start, stats) =
        saturate(connect()?, &inputs.capacity, &mut host);
    let peak = peak_rss_mb();

    // The standby must hold exactly the primary's verdicts.
    wait_caught_up(&primary.server, &standby).map_err(fail)?;
    let shipped = primary.server.aggregate_counter(Counter::ReplBytesShipped) as f64;
    let applied = standby.aggregate_counter(Counter::ReplChunksApplied) as f64;
    let primary = primary.stop();
    let primary_verdicts = primary.persisted_verdicts();
    standby.promote().map_err(fail)?;
    let standby_verdicts = standby.persisted_verdicts();
    standby.finish();
    let recover_started = Instant::now();
    let recovered = cr_store::Store::open(&primary_dir.join("verdicts.log")).map(|s| s.len());
    let recover_ms = recover_started.elapsed().as_secs_f64() * 1e3;

    if sent.len() < inputs.open.len() || arrivals.len() < sent.len() {
        return Err(Invalid(format!(
            "backlog: {} of {} open-loop requests sent, {} answered",
            sent.len(),
            inputs.open.len(),
            arrivals.len()
        )));
    }
    let lags: Vec<f64> = due
        .iter()
        .zip(&sent)
        .map(|(d, s)| s.duration_since(*d).as_secs_f64() * 1e3)
        .collect();
    let lag_p99 = percentile(&lags, 0.99);
    let lag_bound_ms = param(WORKLOAD, "lag_bound_ms");
    if lag_p99 > lag_bound_ms {
        return Err(Invalid(format!(
            "generator lag p99 {lag_p99:.3} ms exceeds {lag_bound_ms} ms"
        )));
    }

    // Check every answer against a from-scratch evaluation.
    let mut refs = References {
        sources: &inputs.sources,
        memo: HashMap::new(),
    };
    let mut failed = 0u64;
    let mut mismatches = 0u64;
    let mut latencies = Vec::new();
    let mut by_send = vec![0.0; inputs.open.len()];
    let mut service = Vec::new();
    let mut within = 0usize;
    let mut hits = 0usize;
    let mut replies = Vec::new();
    // A reply line parsed, with the index its id names; a line that does
    // not parse or names no request the phase sent is a failure.
    let identify = |line: &str, prefix: char, sent: usize| -> Option<(Reply, usize)> {
        let reply = Reply::parse(line)
            .map_err(|e| eprintln!("unparseable reply: {e}"))
            .ok()?;
        let i = reply
            .id
            .strip_prefix(prefix)
            .and_then(|n| n.parse::<usize>().ok())
            .filter(|&i| i < sent);
        if i.is_none() {
            eprintln!("unexpected reply id {}", reply.id);
        }
        Some((reply, i?))
    };
    let mut check = |req: &Req, reply: &Reply, failed: &mut u64, mismatches: &mut u64| -> bool {
        if !reply.answered() {
            eprintln!("{} answered {}: {:?}", reply.id, reply.status, reply.detail);
            *failed += 1;
            return false;
        }
        let want = refs.expected(req.schema, &req.query);
        let status = want.status.as_str();
        if reply.status != status || reply.verdict.as_deref().unwrap_or("") != want.verdict {
            eprintln!(
                "verdict mismatch on {}: got {} {:?}, expected {status} {}",
                reply.id, reply.status, reply.verdict, want.verdict
            );
            *failed += 1;
            *mismatches += 1;
            return false;
        }
        true
    };
    for (at, line) in &arrivals {
        let Some((reply, i)) = identify(line, 'o', sent.len()) else {
            failed += 1;
            continue;
        };
        let latency = at.duration_since(due[i]).as_secs_f64() * 1e3;
        latencies.push(latency);
        by_send[i] = latency;
        service.push(at.duration_since(sent[i]).as_secs_f64() * 1e3);
        hits += usize::from(reply.cached);
        if check(&inputs.open[i], &reply, &mut failed, &mut mismatches) && latency <= slo_ms {
            within += 1;
        }
        replies.push(reply);
    }
    let mut cap_service = Vec::new();
    // Saturation requests never sent or never answered are failures too.
    failed += inputs.capacity.len().saturating_sub(cap_arrivals.len()) as u64;
    for (at, line) in &cap_arrivals {
        let Some((reply, i)) = identify(line, 'c', cap_sent.len()) else {
            failed += 1;
            continue;
        };
        if check(&inputs.capacity[i], &reply, &mut failed, &mut mismatches) {
            let ms = at.duration_since(cap_sent[i]).as_secs_f64() * 1e3;
            cap_service.push((inputs.capacity_item[i], ms, cap_probes[i]));
        }
        replies.push(reply);
    }
    if primary_verdicts != standby_verdicts || recovered.as_ref().ok() != primary_verdicts.as_ref()
    {
        eprintln!(
            "store mismatch: primary {primary_verdicts:?}, promoted standby {standby_verdicts:?}, recovered {recovered:?}"
        );
        failed += 1;
        mismatches += 1;
    }
    // DEPTH requests are outstanding at once, so the phase completes DEPTH
    // per response time. The geometric mean of each schema's best response
    // time over its copies, each scaled by the host's speed around it (see
    // `calib`), gives the write capacity for a typical never-seen schema:
    // the few multi-second certifications made the arithmetic mean vary by
    // a quarter from run to run; they show in tail_ms and certify.* instead.
    // Sending a schema's copies together keeps a cheap request from being
    // timed next to a costly one in some runs and not in others.
    let cap_raw = best_per_item(cap_service.iter().map(|&(item, ms, _)| (item, ms)));
    let cap_best = best_per_item(
        cap_service
            .iter()
            .map(|&(item, ms, probe)| (item, ms * host.factor_at(probe))),
    );
    let capacity = DEPTH as f64 / (geomean(&cap_best) / 1e3);
    let cap_ms: Vec<f64> = cap_service.iter().map(|s| s.1).collect();
    let n = latencies.len();
    let never_seen = inputs.open.iter().filter(|r| r.schema >= POOL).count();
    let mut notes = vec![
        format!("input digest {digest}"),
        format!(
            "open loop at {} rps: {} sent, {} answered, generator lag p99 {lag_p99:.3} ms; tail = median over {TAIL_WINDOWS} windows of each one's highest percentile with 10 samples beyond it; SLO {slo_ms} ms",
            inputs.rate,
            sent.len(),
            arrivals.len()
        ),
        format!(
            "saturation at depth {DEPTH}: {} never-seen schemas ({SATURATION_SCHEMAS} in {ROUNDS} rounds of {DEPTH} renamed copies sent together) answered in {:.3} s; throughput_rps = {DEPTH} / geometric mean of each schema's best response time, scaled to the reference host ({:.3} 1/s unscaled); response p50 {:.3} p90 {:.3} max {:.3} ms",
            cap_arrivals.len(),
            cap_arrivals.last().map_or(0.0, |(at, _)| at.duration_since(cap_start).as_secs_f64()),
            DEPTH as f64 / (geomean(&cap_raw) / 1e3),
            percentile(&cap_ms, 0.5),
            percentile(&cap_ms, 0.9),
            percentile(&cap_ms, 1.0)
        ),
        host.note(),
        format!(
            "shares: cache hits {:.4} of open-loop answers, never-seen (writes) {:.4} of open-loop requests",
            ratio(hits as f64, n as f64),
            ratio(never_seen as f64, inputs.open.len() as f64)
        ),
        format!(
            "persisted verdicts: primary {primary_verdicts:?}, promoted standby {standby_verdicts:?}, recovered {recovered:?}"
        ),
    ];
    let attempted = (inputs.open.len() + inputs.capacity.len()) as u64;
    if !args.trace {
        return Ok(Outcome {
            attempted,
            failed,
            mismatches,
            metrics: vec![
                ("setup_s", median(&setups), "s", setups.len()),
                ("p50_ms", percentile(&latencies, 0.5), "ms", n),
                ("tail_ms", windowed_tail(&by_send), "ms", n),
                ("throughput_rps", capacity, "1/s", cap_best.len()),
                (
                    "slo_frac",
                    ratio(within as f64, inputs.open.len() as f64),
                    "ratio",
                    inputs.open.len(),
                ),
                ("peak_rss_mb", peak, "MB", 1),
            ],
            notes,
        });
    }

    // Traced: replay the same requests on one thread, untraced then traced.
    let replayed: Vec<&Req> = inputs
        .open
        .iter()
        .chain(inputs.capacity.iter().take(cap_sent.len()))
        .collect();
    // The replay's cache starts as the daemon's did when the open loop
    // began: the pool's check verdicts, rehydrated from the store, and the
    // implies answers warmed before the loop.
    let cached: Vec<(usize, Vec<String>, Answer)> = (0..POOL)
        .map(|j| (j, Vec::new()))
        .chain(warm.keys().cloned())
        .map(|(j, query)| {
            let a = refs.expected(j, &query);
            (j, query, a)
        })
        .collect();
    let stores = std::cell::Cell::new(0);
    let make = || {
        stores.set(stores.get() + 1);
        ReplayState::new(
            &inputs.sources,
            &cached,
            &work.join(format!("replay-{}", stores.get())),
        )
    };
    let run = paired(make, replayed.len(), Duration::MAX, |replay, state, i| {
        replay_request(replay, state, replayed[i]);
    });
    let (replay, traced) = (&run.traced, &run.state.totals);
    let _ = replay
        .rec
        .write_tsv(&args.work_dir("spans").with_extension("tsv"));

    let open_n = inputs.open.len() as f64;
    let mut extra: BTreeMap<&'static str, f64> = BTreeMap::new();
    extra.insert(
        "protocol.response_bytes",
        mean(&replies.iter().map(|r| r.bytes as f64).collect::<Vec<_>>()),
    );
    // Over the open loop, whose latency the cache serves; the saturation
    // phase is all misses by design.
    extra.insert("cache.hit_share", traced.open_hits / open_n);
    extra.insert("store.recover_ms", recover_ms);
    extra.insert("repl.bytes_shipped", shipped);
    extra.insert("repl.chunks_applied", applied);
    extra.insert("repl.catchup_ms", median(&catchups));
    extra.insert("admission.shed", stats.stat("requests_shed"));
    extra.insert(
        "admission.queue_delay_ewma_us",
        stats.stat("queue_delay_ewma_us"),
    );
    extra.insert("flight.coalesced", stats.stat("requests_coalesced"));
    extra.insert("server.other_ms", mean(&service) - traced.open_ms / open_n);
    extra.insert("gen.lag_p99_ms", lag_p99);
    extra.insert("trace.overhead_share", run.overhead_share());
    notes.push(format!(
        "replayed {} requests untraced ({:.3} s) and traced ({:.3} s) in lockstep",
        run.requests, run.untraced_s, run.traced_s
    ));
    notes.push(format!(
        "certify share of miss time {:.4} ({:.1} of {:.1} ms)",
        ratio(traced.miss_certify_ms, traced.miss_ms),
        traced.miss_certify_ms,
        traced.miss_ms
    ));
    notes.extend(cross_check(&replies, replay));
    Ok(Outcome {
        attempted,
        failed,
        mismatches,
        metrics: replay
            .metrics(&extra)
            .into_iter()
            .map(|(name, v, unit)| (name, v, unit, replayed.len()))
            .collect(),
        notes,
    })
}

/// Totals of one replay.
#[derive(Default)]
struct PassTotals {
    /// Summed wall time of the open-loop requests.
    open_ms: f64,
    /// Open-loop requests the replay's cache answered.
    open_hits: f64,
    miss_ms: f64,
    miss_certify_ms: f64,
}

/// One replay's own daemon-side state: a verdict cache holding what the
/// daemon's held when the open loop began, and a scratch store.
struct ReplayState {
    cache: VerdictCache,
    store: cr_store::Store,
    totals: PassTotals,
}

impl ReplayState {
    /// `cached` holds `(schema, query, answer)`; an empty query is `check`.
    fn new(sources: &[String], cached: &[(usize, Vec<String>, Answer)], dir: &Path) -> ReplayState {
        let defaults = ServerConfig::default();
        let cache = VerdictCache::new(defaults.cache_capacity, defaults.cache_shards);
        for (j, query, a) in cached {
            let schema = cr_lang::parse_schema(&sources[*j]).expect("pool schema parses");
            let key = CacheKey {
                canonical: schema.canonical_form(),
                question: if query.is_empty() {
                    "check".to_string()
                } else {
                    format!("implies {}", query.join(" "))
                },
            };
            let v = CachedVerdict {
                status: a.status,
                verdict: a.verdict.clone(),
                detail: a.detail.clone(),
                trace_id: None,
            };
            cache.insert(cr_core::canonical_hash(&schema), key, v);
        }
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("replay store dir");
        ReplayState {
            cache,
            store: cr_store::Store::open(&dir.join("verdicts.log")).expect("replay store"),
            totals: PassTotals::default(),
        }
    }
}

/// Replays one request through each layer in the order the daemon calls
/// them: decode, parse, canonicalize, cache lookup, then on a miss the
/// pipeline, certification, the durable append, and the cache fill;
/// certification again for `certify:true`; finally the response encoding.
fn replay_request(replay: &mut Replay, state: &mut ReplayState, r: &Req) {
    let t = Instant::now();
    let totals = &mut state.totals;
    replay.begin_request();
    let req = replay.decode(&r.line);
    let schema = replay.parse(req.schema.as_deref().unwrap_or_default());
    let (canonical, hash) = replay.canon(&schema);
    let question = if r.kind == Kind::Implies {
        format!("implies {}", req.query.join(" "))
    } else {
        "check".to_string()
    };
    let key = CacheKey {
        canonical,
        question,
    };
    let hit = replay.lookup(&state.cache, hash, &key);
    let cached = hit.is_some();
    replay.add("cache.hits", f64::from(u8::from(cached)));
    if req.id.starts_with('o') {
        totals.open_hits += f64::from(u8::from(cached));
    }
    let (status, verdict, detail) = match hit {
        Some(hit) => (hit.status, hit.verdict, hit.detail),
        None => {
            let miss = Instant::now();
            let answer = if r.kind == Kind::Implies {
                let a = replay.implies(&schema, &req.query);
                (a.status, a.verdict, a.detail)
            } else {
                let unsat = replay.check(&schema);
                let c = Instant::now();
                replay.certify(&schema);
                totals.miss_certify_ms += c.elapsed().as_secs_f64() * 1e3;
                let status = if unsat.is_empty() {
                    Status::Ok
                } else {
                    Status::Negative
                };
                let verdict = if unsat.is_empty() {
                    "satisfiable"
                } else {
                    "unsatisfiable"
                };
                let value = format!(
                    "{{\"status\":\"{}\",\"verdict\":\"{verdict}\",\"detail\":{unsat:?}}}",
                    status.as_str()
                );
                let mut k = (key.canonical.len() as u32).to_le_bytes().to_vec();
                k.extend_from_slice(key.canonical.as_bytes());
                k.extend_from_slice(key.question.as_bytes());
                replay.persist(&mut state.store, &k, value.as_bytes());
                (status, verdict.to_string(), unsat)
            };
            let v = CachedVerdict {
                status: answer.0,
                verdict: answer.1.clone(),
                detail: answer.2.clone(),
                trace_id: None,
            };
            replay.insert(&state.cache, hash, key, v);
            totals.miss_ms += miss.elapsed().as_secs_f64() * 1e3;
            answer
        }
    };
    if req.certify {
        replay.certify(&schema);
    }
    let out = response(
        &req.id,
        status,
        Some(&verdict),
        detail,
        cached,
        Some(format!("{hash:032x}")),
    );
    replay.encode(req.op.as_str(), out);
    replay.end_request();
    if req.id.starts_with('o') {
        totals.open_ms += t.elapsed().as_secs_f64() * 1e3;
    }
}

/// Compares the stage totals embedded in the daemon's responses with the
/// replay's layer totals over the same requests.
pub fn cross_check(replies: &[Reply], replay: &Replay) -> Vec<String> {
    let sum = |k: usize| replies.iter().map(|r| r.stage_ns[k]).sum::<u64>() as f64 / 1e6;
    let pivots = replies.iter().map(|r| r.pivots).sum::<u64>() as f64;
    let rows = [
        ("expansion ms", sum(0), replay.total_ms("expansion")),
        ("fixpoint ms", sum(1), replay.total_ms("fixpoint")),
        ("implication ms", sum(2), replay.total_ms("implication")),
        ("simplex_pivots", pivots, replay.count("pivots")),
    ];
    let mut out = vec![
        "cross-check, daemon RunReports vs replay (daemon stages include certification's own expansion and fixpoint; Server::final_report() stages are empty, so they are not read):".to_string(),
    ];
    for (name, daemon, replayed) in rows {
        out.push(format!(
            "  {name:<16} daemon {daemon:>14.3}  replay {replayed:>14.3}  difference {:>14.3}",
            daemon - replayed
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_digest() {
        let s = Duration::from_secs(2);
        let digest = |seed| inputs_digest(&inputs(seed, s));
        assert_eq!(digest(5), digest(5));
        assert_ne!(digest(5), digest(6));
    }

    #[test]
    fn seeds_reorder_one_request_mix() {
        let s = Duration::from_secs(20);
        let (a, b) = (inputs(9, s), inputs(10, s));
        let mix = |i: &Inputs| {
            let mut v: Vec<(usize, u8, Vec<String>)> = i
                .open
                .iter()
                .map(|r| (r.schema, r.kind as u8, r.query.clone()))
                .collect();
            v.sort();
            v
        };
        assert_eq!(mix(&a), mix(&b));
        assert_ne!(inputs_digest(&a), inputs_digest(&b));
        let fresh = a.open.iter().filter(|r| r.schema >= POOL).count();
        assert_eq!(fresh, a.open.len() * NEVER_SEEN / 1000);
        assert!(a.open.iter().any(|r| r.kind == Kind::Implies));
        assert!(a.open.iter().any(|r| r.kind == Kind::Certify));
    }
}
