//! Chaos suite: seeded fault injection across every catalogued failpoint.
//!
//! Run with `cargo test -p cr-bench --test chaos --features faults`. For
//! each site in `cr_faults::SITES` the harness installs a fault plan,
//! boots a fresh TCP daemon, pushes reasoning requests through it, and
//! asserts the containment contract:
//!
//! * (a) every request is answered with a *clean* protocol response —
//!   success, a structured error/overload/budget line, or (for the
//!   response-write site only) a dropped reply the client times out on;
//!   never a hung connection or a garbled line;
//! * (b) any *verdict* that is returned matches the fault-free ground
//!   truth established by the certificate checker up front — a fault may
//!   abort a request but may never flip its answer;
//! * (c) after clearing the plan the daemon still answers a ping — no
//!   fault takes the service down.
//!
//! The whole run is deterministic and replayable: one seed (printed, and
//! overridable via `CR_CHAOS_SEED`) drives every probabilistic site
//! through per-site seeded generators, independent of thread timing.
//!
//! Without `--features faults` the same file asserts the zero-overhead
//! contract instead: an installed plan is inert and verdicts are normal.

use cr_server::{Op, Request, Server, ServerConfig};

const FIGURE1: &str = include_str!("../schemas/figure1.cr");
const MEETING: &str = include_str!("../schemas/meeting.cr");

fn check_request(id: &str, schema: &str) -> String {
    let mut request = Request::new(id.to_string(), Op::Check);
    request.schema = Some(schema.to_string());
    request.to_json()
}

/// Fault-free expected verdict for a schema, established by the
/// *certificate checker* (not the production pipeline), so the chaos
/// assertions compare against independently certified ground truth.
fn certified_verdict(source: &str) -> &'static str {
    cr_faults::clear();
    let schema = cr_lang::parse_schema(source).expect("fixture parses");
    let report = cr_core::certify_check(&schema, &cr_core::Budget::unlimited())
        .expect("fault-free certification cannot error");
    assert!(
        report.ok(),
        "ground truth refused to certify: {:?}",
        report.failures
    );
    if report.unsat_classes.is_empty() {
        "satisfiable"
    } else {
        "unsatisfiable"
    }
}

#[cfg(feature = "faults")]
mod armed {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    use cr_faults::FaultPlan;
    use cr_trace::json::{self, Value};

    // The fault registry is process-global: tests that install plans must
    // not interleave. (A poisoned guard is fine — the registry itself is
    // panic-safe — so recover instead of propagating.)
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// One action spec per catalogued site. Infallible sites (no governed
    /// `Result` to return through) get `panic`; the server sites use
    /// nth-hit specs so the daemon provably *recovers* after the hit.
    const PLAN: &[(&str, &str)] = &[
        ("bigint.alloc", "panic(chaos: bigint.alloc)"),
        ("linear.pivot", "50%return"),
        ("linear.tableau", "return"),
        ("core.expansion.step", "return"),
        ("core.fixpoint.step", "return"),
        ("core.zenum.subset", "return"),
        ("core.model.build", "return"),
        ("core.canon", "panic(chaos: core.canon)"),
        ("server.queue.push", "1#return"),
        ("server.worker.start", "2#panic(chaos: worker down)"),
        ("server.response.write", "1#return"),
        ("server.cache.get", "return"),
        ("server.cache.insert", "panic(chaos: cache.insert)"),
        // Store sites: a failed append/sync/rename must cost at most the
        // durability of that one verdict, never the response (the server
        // counts the error and answers normally).
        ("store.append.write", "return"),
        ("store.append.sync", "1#return"),
        ("store.compact.rename", "return"),
        // HA sites. The admission site sheds the first request (the
        // client must see a clean, retryable `shed`); the replication
        // pair only fires on replicate traffic (exercised end-to-end in
        // `replication_faults_never_corrupt_the_standby`); a panicking
        // supervisor tick must never take the service down.
        ("server.admission.shed", "1#return"),
        ("server.repl.chunk", "50%return"),
        ("server.repl.apply", "50%return"),
        ("server.supervisor.tick", "panic(chaos: supervisor tick)"),
        // Telemetry sites: both live exclusively on the scrape path, so
        // they cannot fire in the generic request loop below (no scraper
        // is attached there) — `scrape_faults_never_affect_request_handling`
        // exercises them end-to-end over real HTTP.
        ("server.metrics.scrape", "panic(chaos: metrics scrape)"),
        ("server.metrics.window_roll", "panic(chaos: window roll)"),
        // Delta sites fire only on `check_delta` requests, which the
        // generic loop below never sends —
        // `delta_faults_fall_back_without_flipping_verdicts` exercises
        // them end-to-end and asserts the fallback contract.
        ("delta.diff", "return"),
        ("delta.invalidate", "return"),
        ("delta.merge", "return"),
    ];

    struct Daemon {
        server: Server,
        stream: TcpStream,
        reader: BufReader<TcpStream>,
        stop: Arc<AtomicBool>,
        thread: std::thread::JoinHandle<()>,
    }

    /// Boots a fresh daemon *after* the fault plan is installed (so even
    /// worker-startup faults are exercised) and connects one client. The
    /// daemon gets a fresh durable store so the `store.*` sites fire on
    /// the persist path.
    fn boot() -> Daemon {
        let cache_dir = std::env::temp_dir().join("cr-chaos-store");
        let _ = std::fs::remove_dir_all(&cache_dir);
        let server = Server::new(ServerConfig {
            workers: 2,
            queue_capacity: 8,
            cache_capacity: 8,
            cache_shards: 2,
            default_timeout_ms: Some(30_000),
            cache_dir: Some(cache_dir),
            ..ServerConfig::default()
        });
        let stop = Arc::new(AtomicBool::new(false));
        let (addr_tx, addr_rx) = mpsc::channel();
        let thread = {
            let server = server.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                server
                    .serve_tcp("127.0.0.1:0", stop, move |bound| {
                        addr_tx.send(bound).expect("report bound address");
                    })
                    .expect("serve_tcp");
            })
        };
        let addr = addr_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("daemon binds within 10s");
        let stream = TcpStream::connect(addr).expect("connect to daemon");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("set read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Daemon {
            server,
            stream,
            reader,
            stop,
            thread,
        }
    }

    impl Daemon {
        fn send(&mut self, line: &str) {
            self.stream
                .write_all(format!("{line}\n").as_bytes())
                .expect("send request");
        }

        /// Reads one response line; `None` on read timeout (the only
        /// site allowed to cause that is `server.response.write`).
        fn read(&mut self) -> Option<Value> {
            let mut line = String::new();
            match self.reader.read_line(&mut line) {
                Ok(0) => panic!("daemon closed the connection mid-session"),
                Ok(_) => Some(json::parse(&line).expect("response must be valid JSON")),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    None
                }
                Err(e) => panic!("read failed: {e}"),
            }
        }

        fn shutdown(self) {
            self.stop.store(true, Ordering::SeqCst);
            self.thread.join().expect("serve thread exits cleanly");
            self.server.finish();
        }
    }

    /// The containment contract for one received response.
    fn assert_contained(site: &str, id: &str, expected_verdict: &str, resp: &Value) {
        let status = resp
            .get("status")
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("[{site}] response for {id} has no status: {resp:?}"));
        assert_eq!(
            resp.get("id").and_then(Value::as_str),
            Some(id),
            "[{site}] response correlates to the wrong request"
        );
        match status {
            // A real verdict got through the fault: it must agree with
            // the certified fault-free ground truth.
            "ok" | "negative" => {
                assert_eq!(
                    resp.get("verdict").and_then(Value::as_str),
                    Some(expected_verdict),
                    "[{site}] fault flipped the verdict for {id}"
                );
            }
            // Clean containment: a structured error (injected fault,
            // contained panic), budget line, or retryable load shed,
            // with detail — never a wrong verdict.
            "error" | "budget-exceeded" | "shed" => {
                let detail = resp.get("detail").and_then(Value::as_arr).unwrap_or(&[]);
                assert!(
                    !detail.is_empty(),
                    "[{site}] error response for {id} carries no detail"
                );
            }
            other => panic!("[{site}] response for {id} has unknown status {other:?}"),
        }
    }

    #[test]
    fn every_failpoint_site_is_contained() {
        let _guard = serial();
        let seed: u64 = std::env::var("CR_CHAOS_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0xC1A05);
        eprintln!("chaos seed: {seed} (replay with CR_CHAOS_SEED={seed})");

        // The catalog and the plan must stay in sync: a failpoint wired
        // into the code but missing here would silently go untested.
        let planned: Vec<&str> = PLAN.iter().map(|(s, _)| *s).collect();
        assert_eq!(
            planned,
            cr_faults::SITES,
            "chaos plan out of sync with catalog"
        );

        let unsat_verdict = certified_verdict(FIGURE1);
        let sat_verdict = certified_verdict(MEETING);
        assert_eq!(
            (unsat_verdict, sat_verdict),
            ("unsatisfiable", "satisfiable")
        );

        for (site, spec) in PLAN {
            eprintln!("chaos: {site} = {spec}");
            cr_faults::install(&FaultPlan::new(seed).site(site, spec));
            let mut daemon = boot();
            // The dropped-response site is the only one where a read is
            // *expected* to time out; keep that wait short.
            if *site == "server.response.write" {
                daemon
                    .reader
                    .get_ref()
                    .set_read_timeout(Some(Duration::from_secs(2)))
                    .expect("tighten read timeout");
            }

            let cases = [("q0", FIGURE1, unsat_verdict), ("q1", MEETING, sat_verdict)];
            for (id, schema, expected) in cases {
                daemon.send(&check_request(id, schema));
                match daemon.read() {
                    Some(resp) => assert_contained(site, id, expected, &resp),
                    // (a) the only fault allowed to cost the client a
                    // reply (rather than a clean error) is dropping the
                    // response write itself.
                    None => assert_eq!(
                        *site, "server.response.write",
                        "[{site}] request {id} got no response"
                    ),
                }
            }

            // (c) the daemon survived: with the plan cleared it must
            // answer a follow-up ping normally.
            cr_faults::clear();
            daemon.send(&Request::new("ping".to_string(), Op::Ping).to_json());
            let pong = daemon
                .read()
                .unwrap_or_else(|| panic!("[{site}] daemon did not answer the follow-up ping"));
            assert_eq!(pong.get("verdict").and_then(Value::as_str), Some("pong"));
            daemon.shutdown();
        }
    }

    fn stat_of(server: &Server, key: &str) -> u64 {
        let resp = server.process_request(&Request::new("st".to_string(), Op::Stats));
        let prefix = format!("{key}=");
        resp.detail
            .iter()
            .find_map(|d| d.strip_prefix(&prefix).and_then(|v| v.parse().ok()))
            .unwrap_or(0)
    }

    /// Replication under fire: with both the ship and apply failpoints
    /// firing at 50%, a standby must still converge on the primary's log
    /// (every refused chunk is simply re-requested — the poll offset is
    /// the ack), and after the primary dies and the standby promotes,
    /// every acknowledged verdict is served from the warm store with the
    /// correct answer. Faults may slow replication; they may never
    /// corrupt it.
    #[test]
    fn replication_faults_never_corrupt_the_standby() {
        let _guard = serial();
        let seed: u64 = std::env::var("CR_CHAOS_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0xFA11);
        eprintln!("chaos seed: {seed} (replay with CR_CHAOS_SEED={seed})");
        cr_faults::install(
            &FaultPlan::new(seed)
                .site("server.repl.chunk", "50%return")
                .site("server.repl.apply", "50%return"),
        );

        let primary_dir = std::env::temp_dir().join("cr-chaos-failover-primary");
        let standby_dir = std::env::temp_dir().join("cr-chaos-failover-standby");
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&standby_dir);
        let primary = Server::new(ServerConfig {
            workers: 2,
            cache_dir: Some(primary_dir.clone()),
            ..ServerConfig::default()
        });
        let stop = Arc::new(AtomicBool::new(false));
        let (addr_tx, addr_rx) = mpsc::channel();
        let serve_thread = {
            let primary = primary.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                primary
                    .serve_tcp("127.0.0.1:0", stop, move |bound| {
                        addr_tx.send(bound).expect("report bound address");
                    })
                    .expect("serve_tcp");
            })
        };
        let addr = addr_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("primary binds within 10s");

        // Populate the primary: distinct, certifiable, satisfiable
        // schemas, each acknowledged before the standby exists.
        let schemas: Vec<String> = (0..4)
            .map(|i| {
                format!(
                    "class A{i}; class B{i} isa A{i}; \
                     relationship R{i} (U1: A{i}, U2: B{i}); \
                     card A{i} in R{i}.U1: 1..2;"
                )
            })
            .collect();
        for (i, schema) in schemas.iter().enumerate() {
            let mut r = Request::new(format!("w{i}"), Op::Check);
            r.schema = Some(schema.clone());
            let resp = primary.process_request(&r);
            assert_eq!(resp.status.as_str(), "ok", "fixture {i}: {:?}", resp.detail);
        }
        let goal = stat_of(&primary, "store_log_bytes");
        assert!(goal > 0, "fixtures must reach the durable log");

        let standby = Server::open(ServerConfig {
            workers: 1,
            cache_dir: Some(standby_dir.clone()),
            follow: Some(addr.to_string()),
            follow_poll_ms: 20,
            // Park self-promotion: this test promotes explicitly, and a
            // fault-heavy poll pattern must not race it.
            promote_after_ms: 600_000,
            ..ServerConfig::default()
        })
        .expect("standby boots");
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while stat_of(&standby, "repl_offset") < goal {
            assert!(
                std::time::Instant::now() < deadline,
                "standby failed to catch up under replication faults \
                 (offset {}/{goal})",
                stat_of(&standby, "repl_offset")
            );
            std::thread::sleep(Duration::from_millis(50));
        }
        cr_faults::clear();

        // The primary dies; the standby takes over warm.
        stop.store(true, Ordering::SeqCst);
        serve_thread.join().expect("serve thread exits");
        primary.finish();
        let resp = standby.process_request(&Request::new("pr".to_string(), Op::Promote));
        assert_eq!(resp.verdict.as_deref(), Some("promoted"));
        for (i, schema) in schemas.iter().enumerate() {
            let mut r = Request::new(format!("r{i}"), Op::Check);
            r.schema = Some(schema.clone());
            let resp = standby.process_request(&r);
            assert_eq!(
                resp.status.as_str(),
                "ok",
                "verdict {i} lost or wrong after failover: {:?}",
                resp.detail
            );
            assert!(resp.cached, "verdict {i} must come from the warm store");
            assert_eq!(resp.verdict.as_deref(), Some("satisfiable"));
        }
        standby.finish();
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&standby_dir);
    }

    /// The telemetry plane is observational: with both scrape-path
    /// failpoints panicking on *every* hit, request handling must be
    /// completely unaffected — every check still returns its certified
    /// verdict — and once the plan clears, scrapes work again. A faulty
    /// scrape costs that scrape its HTTP response, nothing more.
    #[test]
    fn scrape_faults_never_affect_request_handling() {
        let _guard = serial();
        cr_faults::install(
            &FaultPlan::new(0x5C4A9E)
                .site("server.metrics.scrape", "panic(chaos: metrics scrape)")
                .site("server.metrics.window_roll", "panic(chaos: window roll)"),
        );
        let server = Server::open(ServerConfig {
            workers: 2,
            metrics_addr: Some("127.0.0.1:0".to_string()),
            ..ServerConfig::default()
        })
        .expect("server boots with a metrics listener");
        let addr = server.metrics_addr().expect("metrics listener bound");
        let scrape = |path: &str| -> String {
            let mut stream = TcpStream::connect(addr).expect("connect to metrics listener");
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .expect("set read timeout");
            stream
                .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
                .expect("send scrape");
            let mut body = String::new();
            use std::io::Read;
            let _ = stream.read_to_string(&mut body);
            body
        };
        // Faulty scrapes die before rendering: the client sees a closed
        // connection (empty response), never a torn exposition.
        for _ in 0..3 {
            let body = scrape("/metrics");
            assert!(
                !body.contains("crsat_"),
                "a panicking scrape must not deliver an exposition: {body:?}"
            );
        }
        assert!(cr_faults::hits("server.metrics.scrape") >= 3);
        // Request handling is oblivious to the dying scrapes.
        let expected = certified_verdict(MEETING);
        cr_faults::install(
            &FaultPlan::new(0x5C4A9E)
                .site("server.metrics.scrape", "panic(chaos: metrics scrape)")
                .site("server.metrics.window_roll", "panic(chaos: window roll)"),
        );
        let mut request = Request::new("during-scrape-faults".to_string(), Op::Check);
        request.schema = Some(MEETING.to_string());
        let response = server.process_request(&request);
        assert_eq!(response.status.as_str(), "ok");
        assert_eq!(response.verdict.as_deref(), Some(expected));
        // Clear the plan: the very next scrape succeeds, and it reports
        // the traffic that flowed while scrapes were failing.
        cr_faults::clear();
        let body = scrape("/metrics");
        assert!(
            body.contains("crsat_requests_served_total 1"),
            "post-fault scrape must see the request served under fire: {body}"
        );
        server.finish();
    }

    /// The incremental-checking contract under fire: with each delta-path
    /// failpoint firing on every hit, a `check_delta` request must
    /// degrade to the transparent from-scratch fallback — same verdict
    /// as the certified ground truth of the edited schema, with the
    /// fallback declared in the detail — and never flip an answer. After
    /// the plan clears, the delta path works again.
    #[test]
    fn delta_faults_fall_back_without_flipping_verdicts() {
        let _guard = serial();
        // Figure 1's interaction, relaxed (satisfiable); the edit
        // tightens `C in R.U1` to `2..*`, flipping it unsatisfiable —
        // the flip is what catches a fault that answers from the base.
        let base_dsl = "class C; class D isa C; relationship R (U1: C, U2: D); \
                        card C in R.U1: 0..*; card D in R.U2: 0..1;";
        let edited_dsl = "class C; class D isa C; relationship R (U1: C, U2: D); \
                          card C in R.U1: 2..*; card D in R.U2: 0..1;";
        assert_eq!(certified_verdict(base_dsl), "satisfiable");
        assert_eq!(certified_verdict(edited_dsl), "unsatisfiable");
        let base_canonical = cr_lang::parse_schema(base_dsl).unwrap().canonical_form();
        let base_hash = format!("{:032x}", cr_core::canonical_text_hash(&base_canonical));
        let edited_canonical = cr_lang::parse_schema(edited_dsl).unwrap().canonical_form();
        let diff = cr_lang::diff_canonical(&base_canonical, &edited_canonical).to_lines();

        for site in ["delta.diff", "delta.invalidate", "delta.merge"] {
            cr_faults::clear();
            let server = Server::new(ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            });
            let mut pin = Request::new("pin".to_string(), Op::PinBase);
            pin.schema = Some(base_dsl.to_string());
            let resp = server.process_request(&pin);
            assert_eq!(resp.verdict.as_deref(), Some("pinned"), "{:?}", resp.detail);

            cr_faults::install(&FaultPlan::new(0xDE17A).site(site, "return"));
            let mut delta = Request::new("d0".to_string(), Op::CheckDelta);
            delta.base = Some(base_hash.clone());
            delta.diff = diff.clone();
            let resp = server.process_request(&delta);
            assert!(cr_faults::hits(site) >= 1, "[{site}] failpoint never fired");
            assert_eq!(
                resp.status.as_str(),
                "negative",
                "[{site}] fallback lost the verdict: {:?}",
                resp.detail
            );
            assert_eq!(
                resp.verdict.as_deref(),
                Some("unsatisfiable"),
                "[{site}] fault flipped the verdict"
            );
            assert!(
                resp.detail
                    .iter()
                    .any(|d| d.contains("delta-fallback") && d.contains(site)),
                "[{site}] fallback must be declared in the detail: {:?}",
                resp.detail
            );

            // Plan cleared: the same edit goes back to the delta path
            // (no fallback in the detail) with the same verdict.
            cr_faults::clear();
            let mut again = Request::new("d1".to_string(), Op::CheckDelta);
            again.base = Some(base_hash.clone());
            again.diff = diff.clone();
            let resp = server.process_request(&again);
            assert_eq!(resp.verdict.as_deref(), Some("unsatisfiable"));
            assert!(
                !resp.detail.iter().any(|d| d.contains("delta-fallback")),
                "[{site}] delta path must recover once the plan clears: {:?}",
                resp.detail
            );
            server.finish();
        }
    }

    /// A server with Figure 1's relaxed schema pinned as a delta base, and
    /// the `check_delta` that tightens it to unsatisfiable.
    fn pinned_tightening() -> (Server, Request) {
        let base_dsl = "class C; class D isa C; relationship R (U1: C, U2: D); \
                        card C in R.U1: 0..*; card D in R.U2: 0..1;";
        let edited_dsl = base_dsl.replace("C in R.U1: 0..*", "C in R.U1: 2..*");
        let server = Server::new(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let mut pin = Request::new("pin".to_string(), Op::PinBase);
        pin.schema = Some(base_dsl.to_string());
        let pinned = server.process_request(&pin);
        assert_eq!(pinned.verdict.as_deref(), Some("pinned"), "{pinned:?}");
        let base = cr_lang::parse_schema(base_dsl).unwrap().canonical_form();
        let edited = cr_lang::parse_schema(&edited_dsl).unwrap().canonical_form();
        let mut delta = Request::new("delta".to_string(), Op::CheckDelta);
        delta.base = pinned.schema_hash;
        delta.diff = cr_lang::diff_canonical(&base, &edited).to_lines();
        (server, delta)
    }

    /// Every reasoning op registers in flight, so `/metrics` counts it and
    /// the second-SIGTERM cancel reaches it: a `check_delta` stalled in
    /// the delta path answers `budget-exceeded` once cancelled, exactly as
    /// a stalled `check` does, instead of finishing its verdict.
    #[test]
    fn cancel_inflight_reaches_a_running_check_delta() {
        let _guard = serial();
        let (delta_server, delta) = pinned_tightening();
        let mut check = Request::new("check".to_string(), Op::Check);
        check.schema = Some(FIGURE1.to_string());
        let check_server = Server::new(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let cases = [
            (delta_server, delta, "delta.diff", "delay(600)"),
            (check_server, check, "core.expansion.step", "1#delay(600)"),
        ];
        for (server, request, site, spec) in cases {
            cr_faults::install(&FaultPlan::new(0xCA9CE1).site(site, spec));
            let running = {
                let server = server.clone();
                std::thread::spawn(move || server.process_request(&request))
            };
            let started = std::time::Instant::now();
            while server.metrics_view().inflight == 0 {
                assert!(
                    started.elapsed() < Duration::from_millis(400),
                    "[{site}] the running request never registered in flight"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
            assert_eq!(server.metrics_view().inflight, 1, "[{site}]");
            server.cancel_inflight();
            let resp = running.join().expect("the request thread answers");
            cr_faults::clear();
            assert_eq!(
                resp.status.as_str(),
                "budget-exceeded",
                "[{site}] cancel must abort the request: {:?}",
                resp.detail
            );
            assert_eq!(server.metrics_view().inflight, 0, "[{site}]");
            server.finish();
        }
    }

    /// A `check_delta` that panics is contained like any reasoning op: an
    /// `aborted` report each time, counted against the edited schema,
    /// until the schema is quarantined.
    #[test]
    fn a_panicking_check_delta_is_aborted_then_quarantined() {
        let _guard = serial();
        let (server, delta) = pinned_tightening();
        cr_faults::install(&FaultPlan::new(0xDE17A).site("delta.diff", "panic(chaos: delta.diff)"));
        let responses: Vec<_> = (0..4).map(|_| server.process_request(&delta)).collect();
        cr_faults::clear();
        for resp in &responses[..3] {
            assert_eq!(resp.status.as_str(), "error");
            assert_eq!(resp.detail, vec!["panic: chaos: delta.diff".to_string()]);
            let report = resp
                .report
                .as_ref()
                .expect("an aborted request still reports");
            assert!(report.aborted);
        }
        let edited_hash = responses[0]
            .schema_hash
            .as_deref()
            .expect("the edited hash");
        assert!(
            responses[3].detail[0].starts_with("schema quarantined")
                && responses[3].detail[0].contains(edited_hash),
            "quarantine is keyed by the edited schema: {:?}",
            responses[3].detail
        );
        assert_eq!(stat_of(&server, "poison_quarantined"), 1);
        server.finish();
    }

    /// The same seed must replay the exact same injection pattern — the
    /// printed seed is enough to reproduce a chaos failure.
    #[test]
    fn injection_pattern_replays_from_the_seed() {
        let _guard = serial();
        let pattern = |seed: u64| -> Vec<bool> {
            cr_faults::install(&FaultPlan::new(seed).site("linear.pivot", "50%return"));
            let fired = (0..64)
                .map(|_| cr_faults::eval("linear.pivot").is_some())
                .collect();
            cr_faults::clear();
            fired
        };
        assert_eq!(pattern(7), pattern(7), "same seed must replay identically");
        assert_ne!(pattern(7), pattern(8), "seeds must matter");
    }
}

/// Zero-overhead contract: without `--features faults` an installed plan
/// is inert — a site configured to panic in the middle of the reasoning
/// pipeline never fires and verdicts are normal.
#[cfg(not(feature = "faults"))]
#[test]
fn failpoints_are_inert_without_the_feature() {
    cr_faults::install(
        &cr_faults::FaultPlan::new(1)
            .site("core.fixpoint.step", "panic(must never fire)")
            .site("server.cache.get", "return"),
    );
    let server = Server::new(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut request = Request::new("inert".to_string(), Op::Check);
    request.schema = Some(FIGURE1.to_string());
    let response = server.process_request(&request);
    assert_eq!(response.status.as_str(), "negative");
    assert_eq!(response.verdict.as_deref(), Some("unsatisfiable"));
    assert_eq!(cr_faults::hits("core.fixpoint.step"), 0);
    assert_eq!(certified_verdict(FIGURE1), "unsatisfiable");
    server.finish();
    cr_faults::clear();
    let _ = check_request("unused", MEETING);
}
