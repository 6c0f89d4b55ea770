//! The concurrent reasoning service: request processing, the stdio and TCP
//! transports, high availability, and graceful shutdown.
//!
//! One [`Server`] owns a [`WorkerPool`], a [`VerdictCache`], an
//! [`Admission`] gate, and a server-lifetime aggregate [`Tracer`].
//! Transports (stdio loop, TCP acceptor) only move bytes: every request
//! line becomes a pool job that computes the response and writes it to
//! its connection's shared writer. Responses therefore interleave across
//! requests of one connection — clients correlate by `id`.
//!
//! High availability is three cooperating mechanisms:
//!
//! * **Replication / failover** — a server started with `config.follow`
//!   boots as a *standby*: it mirrors the primary's verdict log byte-for-
//!   byte (see [`crate::repl`]) into its own `cache_dir` and warms its
//!   cache from every applied chunk. It serves replicated verdicts but
//!   refuses fresh computation (so the two never diverge). When the
//!   primary's heartbeat (a successful replicate poll) lapses for
//!   `promote_after_ms`, or a `promote` request arrives, the standby
//!   [`Server::promote`]s: the mirror becomes its durable store and it
//!   starts computing — warm, with every acknowledged verdict intact.
//! * **Supervision** — a supervisor thread respawns dead workers, trips
//!   the cancel token of wedged requests (past deadline + grace), relaxes
//!   the admission gate, and quarantines poison schemas that crash the
//!   pipeline repeatedly (see [`crate::supervise`]).
//! * **Admission control** — requests carrying `deadline_ms` are refused
//!   up front (`shed` status, exit code 4, retryable) when they cannot
//!   meet their deadline; under queue-delay overload an AIMD threshold
//!   sheds the lowest-priority work first (see [`crate::admission`]).
//!   Concurrent identical requests coalesce onto one computation (see
//!   [`crate::flight`]).
//!
//! Shutdown: a `shutdown` request, stdin EOF (ctrl-D), or SIGTERM/SIGINT
//! (see [`crate::signal`]) makes the transports stop reading, after which
//! [`Server::finish`] joins the helper threads and drains the pool —
//! queued and in-flight requests complete and flush their responses. A
//! *second* SIGTERM/SIGINT should call [`Server::cancel_inflight`], which
//! trips every in-flight request's cancel token so reasoning aborts at
//! its next governor check and reports `budget-exceeded` instead of
//! stalling shutdown.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cr_core::{Budget, CancelToken, Clock};
use cr_store::{Replica, Vfs};
use cr_trace::{Counter, NullSink, RunReport, Tracer};

use crate::admission::{Admission, Admit};
use crate::cache::{CacheKey, CachedVerdict, VerdictCache};
use crate::eval;
use crate::flight;
use crate::metrics::{
    self, MetricsView, ReplView, SharedSink, StoreView, Telemetry, COARSE_WINDOW_NS, FINE_WINDOW_NS,
};
use crate::persist::{PersistentStore, StoreRecovery};
use crate::pool::{SubmitError, WorkerPool};
use crate::protocol::{Op, ReplChunk, Request, Response, Status};
use crate::repl::{self, FollowerClient};
use crate::supervise::{InflightRegistry, PoisonTracker};

/// Tunables for a [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads (default: available parallelism, capped at 8).
    pub workers: usize,
    /// Bounded request-queue capacity; a full queue sheds with a
    /// retryable `shed` response rather than buffering unboundedly.
    pub queue_capacity: usize,
    /// Approximate verdict-cache capacity, in entries.
    pub cache_capacity: usize,
    /// Cache shard count (rounded up to a power of two).
    pub cache_shards: usize,
    /// Default per-request deadline when the request names none.
    pub default_timeout_ms: Option<u64>,
    /// Default per-request step budget when the request names none.
    pub default_max_steps: Option<u64>,
    /// Directory for the durable verdict store (`None` = memory-only).
    /// When set, certified `check` verdicts are appended to
    /// `<dir>/verdicts.log` and rehydrated into the cache on boot, so a
    /// restarted server answers previously settled questions warm. A
    /// standby (`follow` set) *requires* it: the mirror lives there.
    pub cache_dir: Option<PathBuf>,
    /// Primary address (`host:port`) to follow. `Some` boots the server
    /// as a warm standby instead of a primary.
    pub follow: Option<String>,
    /// How often the standby polls the primary for log chunks.
    pub follow_poll_ms: u64,
    /// How long the primary's heartbeat may lapse before the standby
    /// promotes itself.
    pub promote_after_ms: u64,
    /// File to (atomically) write the bound TCP address to. A standby
    /// prefixes the line with `standby `; promotion rewrites it, so a
    /// client watching the file is redirected without a torn read.
    pub port_file: Option<PathBuf>,
    /// Queue-delay target for the admission gate: sustained delay above
    /// this sheds low-priority work (AIMD; see [`Admission`]).
    pub shed_target_ms: u64,
    /// Supervisor tick interval.
    pub supervise_interval_ms: u64,
    /// Address (`host:port`) for the telemetry endpoint serving
    /// `GET /metrics` (Prometheus text) and `GET /statusz` (JSON).
    /// `None` disables the listener. Scrapes share the server's
    /// shutdown lifecycle but never its worker pool or request queue.
    pub metrics_addr: Option<String>,
    /// Where the server-lifetime aggregate tracer emits its events
    /// (promotion notices and other operational messages). `None` keeps
    /// the aggregate silent, as before.
    pub event_sink: Option<SharedSink>,
    /// Time source for admission cooldowns, wedge timers, and follower
    /// deadline waits. Defaults to the monotonic wall clock; the
    /// deterministic simulation injects a manually advanced one.
    pub clock: Clock,
    /// Filesystem the durable store, standby mirror, and port file are
    /// written through. Defaults to the real filesystem; the simulation
    /// injects an in-memory one with crash/torn-write fault injection.
    pub vfs: Arc<dyn Vfs>,
    /// How the replication follower dials the primary. Defaults to TCP;
    /// the simulation injects an in-memory network.
    pub connector: Arc<dyn crate::transport::Connector>,
    /// Store compaction threshold override in bytes (`None` = the store's
    /// default). Tests and the simulation set this low to force
    /// compaction-triggered epoch resets.
    pub store_compact_threshold: Option<u64>,
    /// Standby only: when true, no follower thread is spawned — an
    /// external driver pumps replication via [`Server::follower_step`]
    /// and decides promotion itself. The deterministic simulation uses
    /// this to run the follower on virtual time.
    pub follow_external: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        let parallelism = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        ServerConfig {
            workers: parallelism.min(8),
            queue_capacity: 256,
            cache_capacity: 1024,
            cache_shards: 8,
            default_timeout_ms: None,
            default_max_steps: None,
            cache_dir: None,
            follow: None,
            follow_poll_ms: 100,
            promote_after_ms: 3000,
            port_file: None,
            shed_target_ms: 50,
            supervise_interval_ms: 100,
            metrics_addr: None,
            event_sink: None,
            clock: Clock::monotonic(),
            vfs: cr_store::std_vfs(),
            connector: Arc::new(crate::transport::TcpConnector),
            store_compact_threshold: None,
            follow_external: false,
        }
    }
}

/// Most delta bases a server keeps pinned at once. Each pinned base holds
/// a schema plus its expansion atoms and witness — bounded memory, and an
/// edit stream only ever needs its current head pinned.
const MAX_PINNED_BASES: usize = 64;

/// Outcome of one [`Server::follower_step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FollowerStep {
    /// A chunk was polled and applied; `more` means it was full and the
    /// next poll should follow without delay (mid-catch-up streaming).
    Applied {
        /// More bytes are waiting on the primary.
        more: bool,
    },
    /// The mirror is gone — promotion already consumed it; stop pumping.
    Stopped,
}

/// This node computes and replicates out.
const ROLE_PRIMARY: u8 = 0;
/// This node mirrors a primary and refuses fresh computation.
const ROLE_STANDBY: u8 = 1;

struct Inner {
    config: ServerConfig,
    pool: WorkerPool,
    cache: VerdictCache,
    /// Durable verdict store. Present on a primary with a `cache_dir`;
    /// `None` on a standby until promotion installs one (behind `RwLock`
    /// because promotion swaps it while readers serve lookups).
    store: RwLock<Option<PersistentStore>>,
    /// Standby mirror of the primary's log; taken (and closed) by
    /// promotion.
    replica: Mutex<Option<Replica>>,
    role: AtomicU8,
    admission: Admission,
    inflight: InflightRegistry,
    poison: PoisonTracker,
    flights: flight::Inflight,
    /// Sequence numbers for the in-flight registry.
    next_seq: AtomicU64,
    /// Delta bases pinned by `pin_base` (and auto-pinned by successful
    /// `check_delta` verdicts), keyed by canonical hash hex. Bounded by
    /// [`MAX_PINNED_BASES`]; an arbitrary entry is evicted past that.
    pinned: Mutex<HashMap<String, Arc<cr_delta::DeltaContext>>>,
    /// The TCP address we bound (for the port file).
    bound_addr: Mutex<Option<SocketAddr>>,
    /// The telemetry endpoint's bound address, when one is configured.
    metrics_bound: Mutex<Option<SocketAddr>>,
    /// Live time-series registry: every response records its latency and
    /// shed-ness here; scrapes and the `stats` op read it.
    telemetry: Telemetry,
    /// Standby: the primary's log length at the last successful poll —
    /// what replication lag is measured against.
    repl_head: AtomicU64,
    /// Supervisor / follower threads, joined by [`Server::finish`].
    helpers: Mutex<Vec<JoinHandle<()>>>,
    /// Persist/replication failures swallowed so far. A failed append
    /// never fails the request — the verdict was already computed and
    /// certified — but it must not vanish either; `stats` surfaces this.
    store_errors: AtomicU64,
    cancel: CancelToken,
    shutdown: AtomicBool,
    /// Server-lifetime aggregate counters (cache traffic, requests served);
    /// the `stats` op snapshots this tracer.
    aggregate: Tracer,
}

/// The service. Cheap to clone (an `Arc`); all state is shared.
#[derive(Clone)]
pub struct Server {
    inner: Arc<Inner>,
}

impl Server {
    /// Builds a server (spawning its worker threads immediately). Panics if
    /// `config.cache_dir` names an unopenable store — use [`Server::open`]
    /// to handle that as an error.
    pub fn new(config: ServerConfig) -> Server {
        Server::open(config).expect("verdict store")
    }

    /// Builds a server. A primary opens (and recovers) the durable verdict
    /// store when `config.cache_dir` is set and rehydrates the in-memory
    /// cache from it — a restarted daemon answers previously certified
    /// questions warm. A standby (`config.follow` set) instead opens its
    /// mirror of the primary's log, warms the cache from it, and starts a
    /// follower thread streaming the rest. Store recovery details are
    /// available via [`Server::store_recovery`] for the caller to report.
    pub fn open(config: ServerConfig) -> Result<Server, String> {
        let standby = config.follow.is_some();
        let cache = VerdictCache::new(config.cache_capacity, config.cache_shards);
        let mut store = None;
        let mut replica = None;
        if standby {
            let dir = config.cache_dir.clone().ok_or_else(|| {
                "standby mode (--follow) requires a cache dir for the mirrored log".to_string()
            })?;
            config
                .vfs
                .create_dir_all(&dir)
                .map_err(|e| format!("create standby dir {}: {e}", dir.display()))?;
            let (rep, payloads) = Replica::open_on(config.vfs.as_ref(), &dir.join("verdicts.log"))
                .map_err(|e| format!("open standby mirror: {e}"))?;
            for (canonical, question, verdict) in repl::warm_entries(&payloads) {
                let shard_hash = cr_core::canonical_text_hash(&canonical);
                cache.insert(
                    shard_hash,
                    CacheKey {
                        canonical,
                        question,
                    },
                    verdict,
                );
            }
            replica = Some(rep);
        } else if let Some(dir) = &config.cache_dir {
            let opened = PersistentStore::open_on(
                Arc::clone(&config.vfs),
                dir,
                config.store_compact_threshold,
            )?;
            // Rehydrate. Store order is log order (oldest first), so under
            // LRU pressure the cache keeps the most recently persisted
            // verdicts; the rest stay reachable through the read-through.
            for (canonical, question, verdict) in opened.entries() {
                let shard_hash = cr_core::canonical_text_hash(&canonical);
                cache.insert(
                    shard_hash,
                    CacheKey {
                        canonical,
                        question,
                    },
                    verdict,
                );
            }
            store = Some(opened);
        }
        let aggregate = match &config.event_sink {
            Some(sink) => Tracer::new(Box::new(sink.clone())),
            None => Tracer::new(Box::new(NullSink)),
        };
        let server = Server {
            inner: Arc::new(Inner {
                pool: WorkerPool::new(config.workers, config.queue_capacity),
                cache,
                store: RwLock::new(store),
                replica: Mutex::new(replica),
                role: AtomicU8::new(if standby { ROLE_STANDBY } else { ROLE_PRIMARY }),
                admission: Admission::with_clock(config.shed_target_ms, config.clock.clone()),
                inflight: InflightRegistry::with_clock(config.clock.clone()),
                poison: PoisonTracker::default(),
                flights: flight::Inflight::with_clock(config.clock.clone()),
                next_seq: AtomicU64::new(0),
                pinned: Mutex::new(HashMap::new()),
                bound_addr: Mutex::new(None),
                metrics_bound: Mutex::new(None),
                // Sized for the workers plus a few transport threads that
                // record shed/error responses from outside the pool.
                telemetry: Telemetry::new(config.workers + 4),
                repl_head: AtomicU64::new(0),
                helpers: Mutex::new(Vec::new()),
                store_errors: AtomicU64::new(0),
                cancel: CancelToken::new(),
                shutdown: AtomicBool::new(false),
                aggregate,
                config,
            }),
        };
        server.spawn_supervisor();
        if standby && !server.inner.config.follow_external {
            server.spawn_follower();
        }
        if let Some(addr) = server.inner.config.metrics_addr.clone() {
            server.spawn_metrics(&addr)?;
        }
        Ok(server)
    }

    /// What store recovery found at boot (`None` when running without a
    /// primary store — memory-only or still a standby). The CLI reports
    /// truncation so an operator can tell a clean boot from a
    /// crash-recovered one.
    pub fn store_recovery(&self) -> Option<StoreRecovery> {
        self.read_store().as_ref().map(|s| s.recovery())
    }

    /// Number of live verdicts in the durable store (`None` when running
    /// without one).
    pub fn persisted_verdicts(&self) -> Option<usize> {
        self.read_store().as_ref().map(|s| s.len())
    }

    /// Forces a verdict-store compaction (admin hook): rewrites the log
    /// down to its live set and bumps the replication epoch, so every
    /// standby's next poll resyncs from offset zero. Returns `Ok(false)`
    /// when there is no store to compact (memory-only, or a standby).
    pub fn compact_store(&self) -> io::Result<bool> {
        match self.read_store().as_ref() {
            Some(store) => {
                store.compact()?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// The server-lifetime aggregate report — what a transport emits as the
    /// final RunReport when it drains (EOF, `shutdown` op, or signal: all
    /// paths converge in [`Server::finish`]).
    pub fn final_report(&self, outcome: &str) -> RunReport {
        self.inner.aggregate.report("serve", outcome)
    }

    /// The server-wide cancellation token. New requests inherit its state;
    /// prefer [`Server::cancel_inflight`] to also abort work already
    /// running under per-request tokens.
    pub fn cancel_token(&self) -> CancelToken {
        self.inner.cancel.clone()
    }

    /// Aborts all reasoning: trips the server-wide token (so requests
    /// picked up from now on start pre-cancelled) and every in-flight
    /// request's own token (so running work aborts at its next governor
    /// check with an honest `budget-exceeded`).
    pub fn cancel_inflight(&self) {
        self.inner.cancel.cancel();
        self.inner.inflight.cancel_all();
    }

    /// Whether graceful shutdown has been requested.
    pub fn shutdown_requested(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// Requests graceful shutdown: transports stop reading; call
    /// [`Server::finish`] to drain.
    pub fn request_shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
    }

    /// True while this node is a standby (mirroring, not computing).
    pub fn is_standby(&self) -> bool {
        self.inner.role.load(Ordering::SeqCst) == ROLE_STANDBY
    }

    /// `"primary"` or `"standby"`.
    pub fn role(&self) -> &'static str {
        if self.is_standby() {
            "standby"
        } else {
            "primary"
        }
    }

    /// Promotes a standby to primary: closes the mirror, opens it as the
    /// durable store (every replicated verdict intact and already warm in
    /// cache), flips the role, and rewrites the port file. Idempotent on a
    /// primary (`Ok("already-primary")`); an `Err` means a concurrent
    /// promotion is mid-swap.
    pub fn promote(&self) -> Result<&'static str, String> {
        let replica = self
            .inner
            .replica
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        let Some(mut replica) = replica else {
            if self.is_standby() {
                return Err("promotion already in progress".to_string());
            }
            return Ok("already-primary");
        };
        let _ = replica.sync();
        drop(replica);
        let dir = self
            .inner
            .config
            .cache_dir
            .clone()
            .ok_or_else(|| "standby has no cache dir".to_string())?;
        let store = PersistentStore::open_on(
            Arc::clone(&self.inner.config.vfs),
            &dir,
            self.inner.config.store_compact_threshold,
        )?;
        *self.inner.store.write().unwrap_or_else(|e| e.into_inner()) = Some(store);
        self.inner.role.store(ROLE_PRIMARY, Ordering::SeqCst);
        self.inner.aggregate.add(Counter::Promotions, 1);
        // The promotion notice rides the aggregate's event sink (when the
        // embedder configured one) instead of raw stderr, so every sink —
        // human stderr, JSON lines — sees the same lifecycle.
        self.inner
            .aggregate
            .message("promoted: standby became primary; mirror is now the durable store");
        self.write_port_file();
        Ok("promoted")
    }

    /// Joins the helper threads, drains queued and in-flight work, joins
    /// the workers, then flushes the durable store / syncs the mirror.
    /// Idempotent.
    pub fn finish(&self) {
        self.request_shutdown();
        let helpers: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.inner.helpers.lock().unwrap_or_else(|e| e.into_inner()));
        for h in helpers {
            let _ = h.join();
        }
        self.inner.pool.shutdown_drain();
        if let Some(store) = self.read_store().as_ref() {
            if store.flush().is_err() {
                self.inner.store_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        if let Some(rep) = self
            .inner
            .replica
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_mut()
        {
            let _ = rep.sync();
        }
    }

    /// Current number of cached verdicts (stats/test aid).
    pub fn cached_verdicts(&self) -> usize {
        self.inner.cache.len()
    }

    /// Aggregate counter value (stats/test aid).
    pub fn aggregate_counter(&self, c: Counter) -> u64 {
        self.inner.aggregate.counter(c)
    }

    fn read_store(&self) -> std::sync::RwLockReadGuard<'_, Option<PersistentStore>> {
        self.inner.store.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Processes one request line to one response line. This is the whole
    /// service in synchronous form — transports wrap it in pool jobs, tests
    /// can call it directly. (The transport path also runs the admission
    /// gate; this direct path does not — local callers have no queue.)
    pub fn process_line(&self, line: &str) -> Response {
        let request = match Request::parse(line) {
            Ok(r) => r,
            Err(msg) => {
                self.inner.aggregate.add(Counter::RequestsServed, 1);
                self.inner.telemetry.record(0, false);
                return Response::error(Request::salvage_id(line), msg);
            }
        };
        self.process_request(&request)
    }

    /// Processes an already-parsed request (the `crsat batch` entry point —
    /// no JSON round-trip needed for local work). Requests arriving without
    /// a trace id get one minted here, so every response carries one.
    pub fn process_request(&self, request: &Request) -> Response {
        if request.trace_id.is_some() {
            return self.process_picked(request, Duration::ZERO);
        }
        let mut traced = request.clone();
        traced.trace_id = Some(cr_trace::mint_trace_id());
        self.process_picked(&traced, Duration::ZERO)
    }

    /// The full transport path in synchronous form: parse, mint a trace
    /// id, run the admission gate, execute under panic containment — and
    /// *always* return exactly one response, exactly as a connection
    /// handler would write back for this line. The deterministic
    /// simulation's clients and the protocol fuzzer call this directly:
    /// it exercises the same code as the TCP path minus the worker pool
    /// (the caller's thread is the worker), so the one-response-per-line
    /// contract is checkable without sockets.
    pub fn respond_line(&self, line: &str) -> Response {
        let mut request = match Request::parse(line) {
            Ok(r) => r,
            Err(msg) => {
                self.inner.aggregate.add(Counter::RequestsServed, 1);
                self.inner.telemetry.record(0, false);
                return Response::error(Request::salvage_id(line), msg);
            }
        };
        if request.trace_id.is_none() {
            request.trace_id = Some(cr_trace::mint_trace_id());
        }
        if matches!(
            request.op,
            Op::Check | Op::Implies | Op::PinBase | Op::CheckDelta
        ) {
            let schema_len = request.schema.as_deref().map_or(0, str::len)
                + request.diff.iter().map(String::len).sum::<usize>();
            if let Admit::Shed { reason, deadline } =
                self.inner
                    .admission
                    .admit(request.deadline_ms, request.priority, schema_len)
            {
                self.count_shed(deadline);
                let mut response = Response::shed(request.id.clone(), reason);
                response.trace_id = request.trace_id.clone();
                return response;
            }
        }
        let work = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.process_picked(&request, Duration::ZERO)
        }));
        work.unwrap_or_else(|panic| {
            let mut response =
                Response::error(request.id.clone(), format!("panic: {}", panic_text(&panic)));
            response.trace_id = request.trace_id.clone();
            response
        })
    }

    /// Submits a job to the server's worker pool, blocking while the
    /// bounded queue is full. This is the local (daemon-less) path:
    /// `crsat batch` fans file checks out over the same pool the daemon
    /// uses, with no client to push back on.
    pub fn submit(&self, job: crate::pool::Job) -> Result<(), SubmitError> {
        self.inner.pool.submit_blocking(job)
    }

    /// Submits a job without blocking, refusing with
    /// [`SubmitError::QueueFull`] under backpressure. Callers that can
    /// re-create the job (`crsat batch`) retry with backoff instead of
    /// parking a thread on the queue condvar — which also routes them
    /// through the overload path the chaos harness exercises.
    pub fn try_submit(&self, job: crate::pool::Job) -> Result<(), SubmitError> {
        self.inner.pool.try_submit(job)
    }

    /// A request picked up for execution after `queue_delay` in the queue.
    /// Central accounting point: every response produced here is counted,
    /// and queue delay feeds the admission gate's overload estimate.
    fn process_picked(&self, request: &Request, queue_delay: Duration) -> Response {
        let started = Instant::now();
        if matches!(
            request.op,
            Op::Check | Op::Implies | Op::PinBase | Op::CheckDelta
        ) {
            self.inner.admission.note_queue_delay(queue_delay);
        }
        let mut response = self.process(request, queue_delay);
        // Trace propagation is centralized: whatever id the request
        // carried (client-supplied or minted at admission) is echoed on
        // its response, whichever path produced it.
        response.trace_id = request.trace_id.clone();
        self.inner.aggregate.add(Counter::RequestsServed, 1);
        let shed = response.status == Status::Shed;
        if shed {
            self.inner.aggregate.add(Counter::RequestsShed, 1);
            if response
                .detail
                .first()
                .is_some_and(|d| d.starts_with("deadline"))
            {
                self.inner.aggregate.add(Counter::DeadlineRejected, 1);
            }
        }
        let latency = queue_delay + started.elapsed();
        self.inner
            .telemetry
            .record(u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX), shed);
        response
    }

    fn process(&self, request: &Request, queue_delay: Duration) -> Response {
        match request.op {
            Op::Ping => Response {
                id: request.id.clone(),
                status: Status::Ok,
                verdict: Some("pong".to_string()),
                detail: Vec::new(),
                cached: false,
                schema_hash: None,
                report: None,
                repl: None,
                trace_id: None,
            },
            Op::Stats => self.stats_response(&request.id),
            Op::Shutdown => {
                self.request_shutdown();
                Response {
                    id: request.id.clone(),
                    status: Status::Ok,
                    verdict: Some("shutting-down".to_string()),
                    detail: Vec::new(),
                    cached: false,
                    schema_hash: None,
                    report: None,
                    repl: None,
                    trace_id: None,
                }
            }
            Op::Replicate => self.handle_replicate(request),
            Op::Promote => self.handle_promote(request),
            Op::Check | Op::Implies => self.reason(request, queue_delay),
            Op::PinBase => self.handle_pin_base(request),
            Op::CheckDelta => self.handle_check_delta(request, queue_delay),
        }
    }

    /// Primary side of replication: answer a standby's poll with a log
    /// chunk.
    fn handle_replicate(&self, request: &Request) -> Response {
        let store = self.read_store();
        let Some(store) = store.as_ref() else {
            return Response::error(
                request.id.clone(),
                "standby: cannot replicate from a standby",
            );
        };
        match repl::ship_chunk(store, request.offset, request.epoch) {
            Ok(chunk) => {
                if !chunk.data.is_empty() {
                    self.inner
                        .aggregate
                        .add(Counter::ReplBytesShipped, chunk.data.len() as u64);
                }
                Response {
                    id: request.id.clone(),
                    status: Status::Ok,
                    verdict: Some("replicate".to_string()),
                    detail: Vec::new(),
                    cached: false,
                    schema_hash: None,
                    report: None,
                    repl: Some(chunk),
                    trace_id: None,
                }
            }
            Err(e) => Response::error(request.id.clone(), format!("replicate: {e}")),
        }
    }

    fn handle_promote(&self, request: &Request) -> Response {
        match self.promote() {
            Ok(word) => Response {
                id: request.id.clone(),
                status: Status::Ok,
                verdict: Some(word.to_string()),
                detail: Vec::new(),
                cached: false,
                schema_hash: None,
                report: None,
                repl: None,
                trace_id: None,
            },
            Err(e) => Response::error(request.id.clone(), format!("promote: {e}")),
        }
    }

    /// A per-request budget for the delta ops: tracer, cancellation, and
    /// the request's (or server default) timeout/step limits. The returned
    /// tracer outlives the budget so the handler can build a RunReport.
    fn delta_budget(&self) -> (Tracer, CancelToken) {
        let tracer = Tracer::new(Box::new(NullSink));
        let cancel = CancelToken::new();
        if self.inner.cancel.is_cancelled() {
            cancel.cancel();
        }
        (tracer, cancel)
    }

    fn budget_for(&self, request: &Request, tracer: &Tracer, cancel: &CancelToken) -> Budget {
        let mut budget = Budget::unlimited()
            .with_tracer(tracer)
            .with_cancel_token(cancel);
        if let Some(ms) = request.timeout_ms.or(self.inner.config.default_timeout_ms) {
            budget = budget.with_deadline(Duration::from_millis(ms));
        }
        if let Some(steps) = request.max_steps.or(self.inner.config.default_max_steps) {
            budget = budget.with_max_steps(steps);
        }
        budget
    }

    /// Pins a schema as a delta base: parse, canonicalize, run the full
    /// pipeline once (unless the hash is already pinned), and remember its
    /// reusable state under the canonical hash for `check_delta`.
    fn handle_pin_base(&self, request: &Request) -> Response {
        if self.is_standby() {
            return Response::error(
                request.id.clone(),
                "standby: cannot pin delta bases; retry on the primary",
            );
        }
        let source = request.schema.as_deref().unwrap_or_default();
        let schema = match cr_lang::parse_schema(source) {
            Ok(s) => s,
            Err(e) => return Response::error(request.id.clone(), format!("schema:{e}")),
        };
        let canonical = schema.canonical_form();
        let hash_hex = format!("{:032x}", cr_core::canonical_text_hash(&canonical));
        let already = {
            let pinned = self.inner.pinned.lock().unwrap_or_else(|e| e.into_inner());
            pinned.contains_key(&hash_hex)
        };
        let (tracer, cancel) = self.delta_budget();
        if !already {
            let budget = self.budget_for(request, &tracer, &cancel);
            let ctx = match cr_delta::DeltaContext::from_canonical(
                &canonical,
                &Default::default(),
                &budget,
            ) {
                Ok(ctx) => ctx,
                Err(e) => {
                    let answer = eval::delta_error_answer(e, &budget);
                    let mut report =
                        cr_core::run_report(&budget, "pin_base", answer.status.as_str());
                    report.target = hash_hex.clone();
                    report.trace_id = request.trace_id.clone();
                    return Response {
                        id: request.id.clone(),
                        status: answer.status,
                        verdict: None,
                        detail: answer.detail,
                        cached: false,
                        schema_hash: Some(hash_hex),
                        report: Some(report),
                        repl: None,
                        trace_id: None,
                    };
                }
            };
            self.pin_context(Arc::new(ctx));
        }
        let budget = self.budget_for(request, &tracer, &cancel);
        let mut report = cr_core::run_report(&budget, "pin_base", "ok");
        report.target = hash_hex.clone();
        report.trace_id = request.trace_id.clone();
        Response {
            id: request.id.clone(),
            status: Status::Ok,
            verdict: Some("pinned".to_string()),
            detail: Vec::new(),
            cached: already,
            schema_hash: Some(hash_hex),
            report: Some(report),
            repl: None,
            trace_id: None,
        }
    }

    /// Remembers a delta context under its canonical hash, evicting an
    /// arbitrary entry when the registry is full.
    fn pin_context(&self, ctx: Arc<cr_delta::DeltaContext>) {
        let mut pinned = self.inner.pinned.lock().unwrap_or_else(|e| e.into_inner());
        if pinned.len() >= MAX_PINNED_BASES && !pinned.contains_key(&ctx.hash_hex()) {
            if let Some(k) = pinned.keys().next().cloned() {
                pinned.remove(&k);
            }
        }
        pinned.insert(ctx.hash_hex(), ctx);
    }

    /// The `check_delta` path: pinned-base lookup → delta cache lookup →
    /// `cr-delta` reuse pipeline → cache/persist under (base hash, diff
    /// hash) → auto-pin the edited schema for the next edit. Falls back to
    /// a full check when the base is unknown (and the request carries a
    /// schema), when the diff is structural, or when invalidation blows
    /// past the threshold — transparently: the client still gets a
    /// verdict, plus a detail line naming the fallback.
    fn handle_check_delta(&self, request: &Request, queue_delay: Duration) -> Response {
        if self.is_standby() {
            return Response::error(
                request.id.clone(),
                "standby: cannot check deltas; retry on the primary",
            );
        }
        let base_hash = request.base.clone().unwrap_or_default();
        let base = {
            let pinned = self.inner.pinned.lock().unwrap_or_else(|e| e.into_inner());
            pinned.get(&base_hash).cloned()
        };
        let Some(base) = base else {
            // Base miss. With a schema in hand the check still succeeds —
            // as a plain full check — so an evicted or never-pinned base
            // degrades performance, not availability.
            self.inner.aggregate.add(Counter::DeltaFallbacks, 1);
            if request.schema.is_some() {
                let mut full = request.clone();
                full.op = Op::Check;
                let mut response = self.reason(&full, queue_delay);
                response
                    .detail
                    .push(format!("delta-fallback: base {base_hash} not pinned"));
                return response;
            }
            return Response::error(
                request.id.clone(),
                format!("unknown delta base {base_hash}; pin_base it first or include a \"schema\" field"),
            );
        };

        let diff = match cr_lang::SchemaDiff::parse_lines(&request.diff) {
            Ok(d) => d,
            Err(e) => return Response::error(request.id.clone(), format!("diff: {e}")),
        };
        let diff_hash = format!("{:032x}", diff.hash());
        // The verdict is about the *edited* schema: `schema_hash` carries
        // its hash (which is also the auto-pinned context's key, so a
        // client can chain the next edit off the response), while the
        // report target keeps naming the base the delta ran against.
        let edited_hash_hex = match cr_lang::apply_diff(base.canonical(), &diff) {
            Ok(c) => format!("{:032x}", cr_core::canonical_text_hash(&c)),
            Err(e) => return Response::error(request.id.clone(), format!("delta: {e}")),
        };
        let key = CacheKey {
            canonical: base.canonical().to_string(),
            question: format!("delta {base_hash} {diff_hash}"),
        };
        let shard_hash = base.hash();

        let (tracer, cancel) = self.delta_budget();
        let budget = self.budget_for(request, &tracer, &cancel);

        // Delta verdicts are cached and persisted like any other verdict,
        // keyed by (base canonical, "delta <base> <diff>") — warm restarts
        // and standbys replay them from the same log records.
        if let Some(hit) = self.inner.cache.get(shard_hash, &key) {
            tracer.add(Counter::CacheHits, 1);
            self.inner.aggregate.add(Counter::CacheHits, 1);
            self.inner.aggregate.add(Counter::DeltaHits, 1);
            let mut report = cr_core::run_report(&budget, "check_delta", hit.status.as_str());
            report.target = base_hash.clone();
            report.trace_id = request.trace_id.clone();
            return Response {
                id: request.id.clone(),
                status: hit.status,
                verdict: (!hit.verdict.is_empty()).then(|| hit.verdict.clone()),
                detail: hit.detail,
                cached: true,
                schema_hash: Some(edited_hash_hex),
                report: Some(report),
                repl: None,
                trace_id: None,
            };
        }
        {
            let store = self.read_store();
            if let Some(hit) = store
                .as_ref()
                .and_then(|s| s.lookup(&key.canonical, &key.question))
            {
                tracer.add(Counter::StoreHits, 1);
                self.inner.aggregate.add(Counter::StoreHits, 1);
                self.inner.aggregate.add(Counter::DeltaHits, 1);
                let mut report = cr_core::run_report(&budget, "check_delta", hit.status.as_str());
                report.target = base_hash.clone();
                report.trace_id = request.trace_id.clone();
                let response = Response {
                    id: request.id.clone(),
                    status: hit.status,
                    verdict: (!hit.verdict.is_empty()).then(|| hit.verdict.clone()),
                    detail: hit.detail.clone(),
                    cached: true,
                    schema_hash: Some(edited_hash_hex.clone()),
                    report: Some(report),
                    repl: None,
                    trace_id: None,
                };
                self.inner.cache.insert(shard_hash, key, hit);
                return response;
            }
        }
        tracer.add(Counter::CacheMisses, 1);
        self.inner.aggregate.add(Counter::CacheMisses, 1);

        let work = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            eval::check_delta(&base, &diff, &budget)
        }));
        let evaluated = match work {
            Ok(e) => e,
            Err(panic) => {
                return Response::error(
                    request.id.clone(),
                    format!("panic: {}", panic_text(&panic)),
                )
            }
        };
        let (answer, fallback_line) = match evaluated {
            Ok(eval::DeltaEval::Answered { answer, next }) => {
                self.inner.aggregate.add(Counter::DeltaHits, 1);
                if answer.cacheable() {
                    let verdict = CachedVerdict {
                        status: answer.status,
                        verdict: answer.verdict.clone(),
                        detail: answer.detail.clone(),
                        trace_id: request.trace_id.clone(),
                    };
                    // Certify against the *edited* schema, re-reasoned from
                    // its text: the record must only reach disk (and
                    // standbys) if the edited schema independently proves
                    // the same unsat set.
                    if self.read_store().is_some() {
                        let certified = cr_core::certify_check(next.schema(), &budget);
                        self.persist_certified(&certified, &key, &verdict, &tracer);
                    }
                    let evicted = self.inner.cache.insert(shard_hash, key, verdict);
                    if evicted > 0 {
                        tracer.add(Counter::CacheEvictions, evicted);
                        self.inner.aggregate.add(Counter::CacheEvictions, evicted);
                    }
                }
                self.pin_context(Arc::new(next));
                (answer, None)
            }
            Ok(eval::DeltaEval::Fallback {
                edited_canonical,
                reason,
            }) => {
                self.inner.aggregate.add(Counter::DeltaFallbacks, 1);
                let edited = match cr_lang::schema_from_canonical(&edited_canonical) {
                    Ok(s) => s,
                    Err(e) => return Response::error(request.id.clone(), format!("delta: {e}")),
                };
                // The full check caches under the edited schema's own
                // (canonical, "check") key — shared with plain `check`
                // requests for the same schema.
                let edited_hash = cr_core::canonical_text_hash(&edited_canonical);
                let full_key = CacheKey {
                    canonical: edited_canonical,
                    question: "check".to_string(),
                };
                let mut full = request.clone();
                full.op = Op::Check;
                // Nothing here certifies the answer for the client, so only
                // a durable store's gate may ask for a certification.
                full.certify = false;
                let (answer, _) =
                    self.compute_fresh(&full, &edited, &budget, edited_hash, full_key, &tracer);
                (answer, Some(format!("delta-fallback: {reason}")))
            }
            Err(answer) => (answer, None),
        };
        let invalidated = tracer.counter(Counter::AtomsInvalidated);
        if invalidated > 0 {
            self.inner
                .aggregate
                .add(Counter::AtomsInvalidated, invalidated);
        }
        let mut report = cr_core::run_report(&budget, "check_delta", answer.status.as_str());
        report.target = base_hash.clone();
        report.trace_id = request.trace_id.clone();
        let mut detail = answer.detail;
        if let Some(line) = fallback_line {
            detail.push(line);
        }
        Response {
            id: request.id.clone(),
            status: answer.status,
            verdict: (!answer.verdict.is_empty()).then(|| answer.verdict.clone()),
            detail,
            cached: false,
            schema_hash: Some(edited_hash_hex),
            report: Some(report),
            repl: None,
            trace_id: None,
        }
    }

    /// The reasoning path: deadline propagation → parse schema → quarantine
    /// gate → cache lookup → (on miss) singleflight + the governed pipeline
    /// → cache fill → response with embedded RunReport.
    fn reason(&self, request: &Request, queue_delay: Duration) -> Response {
        // Per-request observability: the embedded RunReport accounts for
        // exactly this request's work (including whether the verdict came
        // from cache).
        let tracer = Tracer::new(Box::new(NullSink));
        // Per-request cancellation: the supervisor can trip exactly this
        // request (wedge detection) without aborting its neighbors. The
        // server-wide token's state is inherited at pickup.
        let cancel = CancelToken::new();
        if self.inner.cancel.is_cancelled() {
            cancel.cancel();
        }
        let mut budget = Budget::unlimited()
            .with_tracer(&tracer)
            .with_cancel_token(&cancel);
        // Deadline propagation: queueing already consumed part of the
        // end-to-end deadline; what remains caps every other limit. Zero
        // left means the work is sheddable without touching the pipeline.
        let deadline_left = request
            .deadline_ms
            .map(|ms| Duration::from_millis(ms).saturating_sub(queue_delay));
        if let Some(left) = deadline_left {
            if left.is_zero() {
                return Response::shed(request.id.clone(), "deadline expired while queued");
            }
        }
        let mut effective_ms = request.timeout_ms.or(self.inner.config.default_timeout_ms);
        if let Some(left) = deadline_left {
            let left_ms = u64::try_from(left.as_millis()).unwrap_or(u64::MAX);
            effective_ms = Some(effective_ms.map_or(left_ms, |t| t.min(left_ms)));
        }
        if let Some(ms) = effective_ms {
            budget = budget.with_deadline(Duration::from_millis(ms));
        }
        if let Some(steps) = request.max_steps.or(self.inner.config.default_max_steps) {
            budget = budget.with_max_steps(steps);
        }

        let source = request.schema.as_deref().unwrap_or_default();
        let schema = match cr_lang::parse_schema(source) {
            Ok(s) => s,
            Err(e) => {
                return Response::error(request.id.clone(), format!("schema:{e}"));
            }
        };
        let canonical = schema.canonical_form();
        let schema_hash = cr_core::canonical_hash(&schema);
        let question = match request.op {
            Op::Check => "check".to_string(),
            Op::Implies => format!("implies {}", request.query.join(" ")),
            _ => unreachable!("reason() only sees check/implies"),
        };
        let key = CacheKey {
            canonical,
            question,
        };

        if self.inner.poison.is_quarantined(schema_hash) {
            return Response::error(
                request.id.clone(),
                format!("schema quarantined after repeated crashes (hash {schema_hash:032x})"),
            );
        }

        // Wedge watch: while this request runs, the supervisor may trip
        // its token if it blows past deadline + grace.
        let seq = self.inner.next_seq.fetch_add(1, Ordering::Relaxed);
        self.inner
            .inflight
            .register(seq, cancel.clone(), deadline_left);
        let _dereg = Dereg {
            registry: &self.inner.inflight,
            seq,
        };

        // Everything downstream of the parse — cache traffic, the reasoning
        // pipeline, certification — runs under catch_unwind: a panic (a
        // bug, or an injected fault) must cost exactly one response, not a
        // worker's accumulated trace counters. The tracer and budget stay
        // outside, so on abort the partial per-request report survives.
        let work = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(hit) = self.inner.cache.get(schema_hash, &key) {
                tracer.add(Counter::CacheHits, 1);
                self.inner.aggregate.add(Counter::CacheHits, 1);
                // The cached verdict remembers which request computed it;
                // surface that as the hit's leader trace.
                let leader = hit.trace_id.clone();
                return (
                    eval::Answer {
                        status: hit.status,
                        verdict: hit.verdict,
                        detail: hit.detail,
                    },
                    true,
                    leader,
                    None,
                );
            }
            // Read-through: an LRU eviction must not force a recomputation
            // while the verdict sits on disk.
            {
                let store = self.read_store();
                if let Some(hit) = store
                    .as_ref()
                    .and_then(|s| s.lookup(&key.canonical, &key.question))
                {
                    tracer.add(Counter::StoreHits, 1);
                    self.inner.aggregate.add(Counter::StoreHits, 1);
                    let leader = hit.trace_id.clone();
                    let answer = eval::Answer {
                        status: hit.status,
                        verdict: hit.verdict.clone(),
                        detail: hit.detail.clone(),
                    };
                    self.inner.cache.insert(schema_hash, key.clone(), hit);
                    return (answer, true, leader, None);
                }
            }
            tracer.add(Counter::CacheMisses, 1);
            self.inner.aggregate.add(Counter::CacheMisses, 1);
            // A standby serves what was replicated but never computes: a
            // fresh verdict here would fork the store the moment the real
            // primary certifies a different trace for the same question.
            if self.is_standby() {
                return (
                    eval::Answer {
                        status: Status::Error,
                        verdict: String::new(),
                        detail: vec![
                            "standby: verdict not replicated yet; retry on the primary or after promotion"
                                .to_string(),
                        ],
                    },
                    false,
                    None,
                    None,
                );
            }
            // Coalesce concurrent identical work: followers wait for the
            // leader's verdict instead of burning a worker each on the
            // same EXPTIME question.
            match self.inner.flights.begin(key.clone()) {
                flight::Entry::Follower(f) => {
                    let wait = effective_ms
                        .map(Duration::from_millis)
                        .unwrap_or(Duration::from_secs(30));
                    match f.wait(wait) {
                        Some(hit) => {
                            tracer.add(Counter::RequestsCoalesced, 1);
                            self.inner.aggregate.add(Counter::RequestsCoalesced, 1);
                            // A coalesced follower inherited the leader's
                            // verdict — and records whose computation it
                            // rode (the id inside the published verdict).
                            let leader = hit.trace_id.clone();
                            (
                                eval::Answer {
                                    status: hit.status,
                                    verdict: hit.verdict,
                                    detail: hit.detail,
                                },
                                true,
                                leader,
                                None,
                            )
                        }
                        // Leader died or we timed out first: compute it
                        // ourselves under our own budget.
                        None => {
                            let (answer, certified) = self.compute_fresh(
                                request,
                                &schema,
                                &budget,
                                schema_hash,
                                key,
                                &tracer,
                            );
                            (answer, false, None, certified)
                        }
                    }
                }
                flight::Entry::Leader(guard) => {
                    let started = Instant::now();
                    let (answer, certified) =
                        self.compute_fresh(request, &schema, &budget, schema_hash, key, &tracer);
                    // Cost model: fresh-compute wall time by schema size,
                    // feeding the admission gate's can-it-fit estimate.
                    self.inner
                        .admission
                        .note_compute_cost(source.len(), started.elapsed());
                    let publish = answer.cacheable().then(|| CachedVerdict {
                        status: answer.status,
                        verdict: answer.verdict.clone(),
                        detail: answer.detail.clone(),
                        trace_id: request.trace_id.clone(),
                    });
                    guard.publish(publish);
                    (answer, false, None, certified)
                }
            }
        }));

        let (mut answer, cached, leader_trace_id, certified) = match work {
            Ok(result) => result,
            Err(panic) => {
                let msg = panic_text(&panic);
                if self.inner.poison.note_crash(schema_hash) {
                    self.inner.aggregate.add(Counter::PoisonQuarantined, 1);
                }
                let mut report = cr_core::run_report(&budget, request.op.as_str(), "aborted");
                report.aborted = true;
                report.target = format!("{schema_hash:032x}");
                report.trace_id = request.trace_id.clone();
                return Response {
                    id: request.id.clone(),
                    status: Status::Error,
                    verdict: None,
                    detail: vec![format!("panic: {msg}")],
                    cached: false,
                    schema_hash: Some(format!("{schema_hash:032x}")),
                    report: Some(report),
                    repl: None,
                    trace_id: None,
                };
            }
        };

        if request.certify && request.op == Op::Check {
            answer = self.certify_answer(&schema, &budget, answer, certified);
        }

        let mut report = cr_core::run_report(&budget, request.op.as_str(), answer.status.as_str());
        report.target = format!("{schema_hash:032x}");
        report.trace_id = request.trace_id.clone();
        report.leader_trace_id = leader_trace_id;
        Response {
            id: request.id.clone(),
            status: answer.status,
            verdict: (!answer.verdict.is_empty()).then(|| answer.verdict.clone()),
            detail: answer.detail,
            cached,
            schema_hash: Some(format!("{schema_hash:032x}")),
            report: Some(report),
            repl: None,
            trace_id: None,
        }
    }

    /// Runs the governed pipeline for a cache-missed request and fills the
    /// cache (and, for certified `check` verdicts, the durable store).
    /// A `check` on a durable daemon, or one asking `certify`, also
    /// certifies the reasoner that answered; that report comes back for
    /// [`Server::certify_answer`].
    fn compute_fresh(
        &self,
        request: &Request,
        schema: &cr_core::Schema,
        budget: &Budget,
        schema_hash: u128,
        key: CacheKey,
        tracer: &Tracer,
    ) -> (eval::Answer, Option<eval::Certification>) {
        let (answer, certified) = match request.op {
            Op::Check => {
                let certify = request.certify || self.read_store().is_some();
                eval::check_certified(schema, budget, certify)
            }
            Op::Implies => (eval::implies(schema, &request.query, budget), None),
            _ => unreachable!("only check/implies compute"),
        };
        if answer.cacheable() {
            let verdict = CachedVerdict {
                status: answer.status,
                verdict: answer.verdict.clone(),
                detail: answer.detail.clone(),
                trace_id: request.trace_id.clone(),
            };
            if let Some(certified) = &certified {
                self.persist_certified(certified, &key, &verdict, tracer);
            }
            let evicted = self.inner.cache.insert(schema_hash, key, verdict);
            if evicted > 0 {
                tracer.add(Counter::CacheEvictions, evicted);
                self.inner.aggregate.add(Counter::CacheEvictions, evicted);
            }
        }
        (answer, certified)
    }

    /// Re-validates a `check` answer: the independent certificate chain
    /// must both pass and agree with the answer being returned. A fresh
    /// verdict brings `fresh`, the certification of the reasoner that
    /// computed it; a cached, stored or coalesced one is re-derived here by
    /// `cr_core::certify_check` from the schema's source text, so a
    /// corrupted cache entry is caught too. Errors and budget trips are
    /// passed through unchanged — there is nothing to certify.
    fn certify_answer(
        &self,
        schema: &cr_core::Schema,
        budget: &Budget,
        answer: eval::Answer,
        fresh: Option<eval::Certification>,
    ) -> eval::Answer {
        if !matches!(answer.status, Status::Ok | Status::Negative) {
            return answer;
        }
        let certified = match fresh.unwrap_or_else(|| cr_core::certify_check(schema, budget)) {
            Ok(report) => report,
            Err(e) => {
                return match eval::budget_line(&e) {
                    Some(line) => eval::Answer {
                        status: Status::BudgetExceeded,
                        verdict: String::new(),
                        detail: vec![line],
                    },
                    None => eval::Answer {
                        status: Status::Error,
                        verdict: String::new(),
                        detail: vec![format!("certify: {e}")],
                    },
                };
            }
        };
        let claimed_unsat = claimed_unsat_classes(&answer.detail);
        if !certified.ok() {
            return eval::Answer {
                status: Status::Error,
                verdict: String::new(),
                detail: certified
                    .failures
                    .iter()
                    .map(|f| format!("certify: {f}"))
                    .collect(),
            };
        }
        if certified.unsat_classes != claimed_unsat {
            return eval::Answer {
                status: Status::Error,
                verdict: String::new(),
                detail: vec![format!(
                    "certify: verdict mismatch (answer claims unsat [{}], certificates say [{}])",
                    claimed_unsat.join(", "),
                    certified.unsat_classes.join(", ")
                )],
            };
        }
        answer
    }

    /// Durably records a freshly computed `check` verdict — but only when
    /// it passed certification: `certified`, the certificate chain run on
    /// the reasoner that computed it, must pass and its unsat set agree
    /// with the answer. An uncertifiable verdict is still served and cached
    /// in memory (the governor may simply have had no budget left for the
    /// certificate pass); it just never reaches disk, so everything a warm
    /// restart — or a standby mirroring the log — serves was once proven.
    fn persist_certified(
        &self,
        certified: &eval::Certification,
        key: &CacheKey,
        verdict: &CachedVerdict,
        tracer: &Tracer,
    ) {
        let store = self.read_store();
        let Some(store) = store.as_ref() else {
            return;
        };
        let Ok(certified) = certified else {
            return;
        };
        if !certified.ok() || certified.unsat_classes != claimed_unsat_classes(&verdict.detail) {
            return;
        }
        match store.persist(&key.canonical, &key.question, verdict) {
            Ok(outcome) => {
                tracer.add(Counter::StoreWrites, 1);
                self.inner.aggregate.add(Counter::StoreWrites, 1);
                if outcome.compacted {
                    tracer.add(Counter::StoreCompactions, 1);
                    self.inner.aggregate.add(Counter::StoreCompactions, 1);
                }
            }
            Err(_) => {
                self.inner.store_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn stats_response(&self, id: &str) -> Response {
        // One coherent snapshot: the aggregate report and the metrics view
        // are each taken once, and every detail line below reads from
        // them. Before this, each line loaded its counter independently,
        // so a `stats` racing live traffic could report e.g. a cache hit
        // whose request was not yet counted as served.
        let report = self.inner.aggregate.report("stats", "ok");
        let view = self.metrics_view();
        let agg = |name: &str| report.counter(name).unwrap_or(0);
        let mut detail = vec![
            format!("requests_served={}", agg("requests_served")),
            format!("cache_hits={}", agg("cache_hits")),
            format!("cache_misses={}", agg("cache_misses")),
            format!("cache_evictions={}", agg("cache_evictions")),
            format!("cache_entries={}", view.cache_entries),
            format!("workers={}", view.workers),
            format!("queue_capacity={}", view.queue_capacity),
            format!("role={}", view.role),
            format!("alive_workers={}", view.alive_workers),
            format!("inflight={}", view.inflight),
            format!("shed_threshold={}", view.shed_threshold),
            format!("queue_delay_ewma_us={}", view.queue_delay_ewma_us),
            format!("requests_shed={}", agg("requests_shed")),
            format!("deadline_rejected={}", agg("deadline_rejected")),
            format!("requests_coalesced={}", agg("requests_coalesced")),
            format!("workers_respawned={}", agg("workers_respawned")),
            format!("wedge_cancels={}", agg("wedge_cancels")),
            format!("poison_quarantined={}", agg("poison_quarantined")),
            format!("promotions={}", agg("promotions")),
            format!("delta_hits={}", agg("delta_hits")),
            format!("delta_fallbacks={}", agg("delta_fallbacks")),
            format!("atoms_invalidated={}", agg("atoms_invalidated")),
            format!("pinned_bases={}", view.pinned_bases),
            format!("uptime_ms={}", view.uptime_ms),
            format!("build_version={}", view.build_version),
        ];
        if let Some(store) = &view.store {
            detail.push(format!("store_entries={}", store.entries));
            detail.push(format!("store_hits={}", agg("store_hits")));
            detail.push(format!("store_writes={}", agg("store_writes")));
            detail.push(format!("store_compactions={}", agg("store_compactions")));
            detail.push(format!("store_errors={}", view.store_errors));
            detail.push(format!("store_log_bytes={}", store.log_bytes));
            detail.push(format!("store_epoch={}", store.epoch));
            detail.push(format!("repl_bytes_shipped={}", agg("repl_bytes_shipped")));
        }
        if let Some(repl) = &view.repl {
            detail.push(format!("repl_offset={}", repl.offset));
            detail.push(format!("repl_epoch={}", repl.epoch));
            detail.push(format!(
                "repl_chunks_applied={}",
                agg("repl_chunks_applied")
            ));
        }
        Response {
            id: id.to_string(),
            status: Status::Ok,
            verdict: Some("stats".to_string()),
            detail,
            cached: false,
            schema_hash: None,
            report: Some(report),
            repl: None,
            trace_id: None,
        }
    }

    /// One coherent snapshot of the server's operational state — what
    /// `/metrics`, `/statusz`, and the `stats` op all render from.
    pub fn metrics_view(&self) -> MetricsView {
        self.view_at(self.inner.telemetry.now_ns())
    }

    /// The telemetry endpoint's bound address (when one is configured).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        *self
            .inner
            .metrics_bound
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    fn view_at(&self, now_ns: u64) -> MetricsView {
        let t = &self.inner.telemetry;
        let (served_total, shed_total) = t.totals();
        let (served_10s, shed_10s) = t.rates_fine(now_ns, FINE_WINDOW_NS);
        let (served_60s, shed_60s) = t.rates_fine(now_ns, COARSE_WINDOW_NS);
        let store = self.read_store().as_ref().map(|s| StoreView {
            entries: s.len(),
            log_bytes: s.log_bytes(),
            epoch: s.epoch(),
        });
        let repl = self
            .inner
            .replica
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .map(|r| {
                let offset = r.offset();
                // The head only moves on a successful poll; a mirror that
                // has caught up past the last-known head reads as zero lag.
                let head = self.inner.repl_head.load(Ordering::Relaxed).max(offset);
                ReplView {
                    offset,
                    epoch: r.epoch().unwrap_or(0),
                    head,
                    lag: head - offset,
                }
            });
        MetricsView {
            role: self.role(),
            uptime_ms: t.uptime_ms(),
            build_version: env!("CARGO_PKG_VERSION"),
            served_total,
            shed_total,
            served_10s,
            served_60s,
            shed_10s,
            shed_60s,
            scrapes_total: t.scrapes_total(),
            latency_lifetime: t.latency_lifetime(),
            latency_10s: t.latency_fine(now_ns, FINE_WINDOW_NS),
            latency_60s: t.latency_fine(now_ns, COARSE_WINDOW_NS),
            workers: self.inner.config.workers,
            alive_workers: self.inner.pool.alive_workers(),
            queue_depth: self.inner.pool.queued(),
            queue_capacity: self.inner.config.queue_capacity,
            inflight: self.inner.inflight.len(),
            shed_threshold: self.inner.admission.threshold(),
            queue_delay_ewma_us: self.inner.admission.queue_delay_us(),
            cache_entries: self.inner.cache.len(),
            cache_capacity: self.inner.config.cache_capacity,
            store,
            store_errors: self.inner.store_errors.load(Ordering::Relaxed),
            repl,
            quarantined: self.inner.poison.quarantined_hashes(),
            pinned_bases: self
                .inner
                .pinned
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .len(),
        }
    }

    // ------------------------------------------------------------------
    // Helper threads
    // ------------------------------------------------------------------

    /// Spawns the supervisor. It holds only a `Weak` on the server's
    /// state: a server dropped without `finish()` lets the thread notice
    /// and exit instead of keeping `Inner` alive forever.
    fn spawn_supervisor(&self) {
        let weak = Arc::downgrade(&self.inner);
        let interval = Duration::from_millis(self.inner.config.supervise_interval_ms.max(10));
        let handle = std::thread::Builder::new()
            .name("cr-supervisor".to_string())
            .spawn(move || loop {
                std::thread::sleep(interval);
                let Some(inner) = weak.upgrade() else {
                    return;
                };
                let server = Server { inner };
                if server.shutdown_requested() {
                    return;
                }
                // Contain a panicking tick (injected or real): the
                // supervisor must outlive its own faults to keep the pool
                // honest.
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    server.supervise_tick();
                }));
            })
            .expect("spawn supervisor thread");
        self.inner
            .helpers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(handle);
    }

    fn supervise_tick(&self) {
        // Chaos: panic or stall one tick (the catch_unwind above and the
        // next tick absorb it; repair is merely delayed, never lost).
        cr_faults::point!("server.supervisor.tick");
        let respawned = self.inner.pool.respawn_dead();
        if respawned > 0 {
            self.inner
                .aggregate
                .add(Counter::WorkersRespawned, respawned);
        }
        let tripped = self.inner.inflight.trip_wedged();
        if tripped > 0 {
            self.inner.aggregate.add(Counter::WedgeCancels, tripped);
        }
        self.inner.admission.maybe_relax();
    }

    /// A replication client configured from this standby's `follow`
    /// address, io timeout, and connector — what the follower thread
    /// dials with, exposed so an external driver (`follow_external`) can
    /// pump [`Server::follower_step`] itself. `None` on a primary.
    pub fn follower_client(&self) -> Option<FollowerClient> {
        let addr = self.inner.config.follow.clone()?;
        let promote_after = Duration::from_millis(self.inner.config.promote_after_ms.max(100));
        let io_timeout = promote_after.min(Duration::from_millis(1000));
        Some(FollowerClient::with_connector(
            addr,
            io_timeout,
            Arc::clone(&self.inner.config.connector),
        ))
    }

    /// One follower iteration: reads the mirror's position, polls the
    /// primary for the next chunk, applies it. `Ok(Applied{more})` is a
    /// successful poll (doubles as a primary heartbeat; `more` means a
    /// full chunk arrived and the caller should poll again without
    /// delay); `Ok(Stopped)` means the mirror is gone (promotion already
    /// took it); `Err` is a failed poll the caller counts against its
    /// promotion timer.
    pub fn follower_step(&self, client: &mut FollowerClient) -> Result<FollowerStep, String> {
        let at = {
            let replica = self.inner.replica.lock().unwrap_or_else(|e| e.into_inner());
            match replica.as_ref() {
                Some(r) => (r.offset(), r.epoch().unwrap_or(0)),
                None => return Ok(FollowerStep::Stopped),
            }
        };
        let chunk = client.poll(at.0, at.1)?;
        // The primary's log length is the replication head the lag gauge
        // measures against.
        self.inner.repl_head.store(chunk.log_len, Ordering::Relaxed);
        let more = chunk.data.len() >= repl::CHUNK_MAX;
        self.apply_chunk(&chunk);
        Ok(FollowerStep::Applied { more })
    }

    /// Spawns the standby's follower thread: polls the primary for log
    /// chunks via [`Server::follower_step`], and self-promotes when the
    /// primary's heartbeat lapses for `promote_after_ms`.
    fn spawn_follower(&self) {
        let weak = Arc::downgrade(&self.inner);
        let poll = Duration::from_millis(self.inner.config.follow_poll_ms.max(10));
        let promote_after = Duration::from_millis(self.inner.config.promote_after_ms.max(100));
        let mut client = self
            .follower_client()
            .expect("spawn_follower requires config.follow");
        let handle = std::thread::Builder::new()
            .name("cr-follower".to_string())
            .spawn(move || {
                let mut last_ok = Instant::now();
                loop {
                    let Some(inner) = weak.upgrade() else {
                        return;
                    };
                    let server = Server { inner };
                    if server.shutdown_requested() || !server.is_standby() {
                        return;
                    }
                    match server.follower_step(&mut client) {
                        Ok(FollowerStep::Stopped) => return,
                        Ok(FollowerStep::Applied { more }) => {
                            last_ok = Instant::now();
                            if more {
                                // Mid-catch-up: more bytes are waiting;
                                // stream them without the poll delay.
                                continue;
                            }
                        }
                        Err(_) => {
                            if last_ok.elapsed() >= promote_after {
                                let _ = server.promote();
                                return;
                            }
                        }
                    }
                    drop(server);
                    std::thread::sleep(poll);
                }
            })
            .expect("spawn follower thread");
        self.inner
            .helpers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(handle);
    }

    /// Binds and spawns the telemetry listener. Bind errors fail `open` —
    /// an operator who asked for `/metrics` and silently got none would
    /// fly blind. The listener is deliberately single-threaded: a scrape
    /// storm queues on the socket instead of spawning threads, and can
    /// never touch the worker pool or the request queue.
    fn spawn_metrics(&self, addr: &str) -> Result<(), String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind metrics {addr}: {e}"))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("metrics listener: {e}"))?;
        let bound = listener
            .local_addr()
            .map_err(|e| format!("metrics listener: {e}"))?;
        *self
            .inner
            .metrics_bound
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = Some(bound);
        let weak = Arc::downgrade(&self.inner);
        let handle = std::thread::Builder::new()
            .name("cr-metrics".to_string())
            .spawn(move || loop {
                let Some(inner) = weak.upgrade() else {
                    return;
                };
                let server = Server { inner };
                if server.shutdown_requested() {
                    return;
                }
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        // Contain scrape faults (injected or real): a
                        // panicking scrape costs that scrape, never the
                        // listener — and never a request.
                        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            server.handle_scrape(stream);
                        }));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        drop(server);
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Err(_) => {
                        drop(server);
                        std::thread::sleep(Duration::from_millis(20));
                    }
                }
            })
            .expect("spawn metrics thread");
        self.inner
            .helpers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(handle);
        Ok(())
    }

    /// One scrape connection: parse the request head, render the asked-for
    /// exposition, write it back, close.
    fn handle_scrape(&self, stream: TcpStream) {
        // Chaos: fault one scrape (panic/stall/error). This site exists
        // only on the scrape path — request handling records telemetry
        // without any failpoint — so injected scrape faults must never
        // perturb a verdict.
        cr_faults::point!("server.metrics.scrape");
        let _ = self.try_scrape(stream);
    }

    fn try_scrape(&self, stream: TcpStream) -> std::io::Result<()> {
        stream.set_read_timeout(Some(Duration::from_millis(500)))?;
        stream.set_write_timeout(Some(Duration::from_millis(500)))?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let Some((method, path)) = metrics::read_request_head(&mut reader)? else {
            return Ok(());
        };
        let response = if method != "GET" {
            metrics::http_response(
                "405 Method Not Allowed",
                "text/plain",
                "only GET is served\n",
            )
        } else {
            match path.as_str() {
                "/metrics" => {
                    let now_ns = self.inner.telemetry.observe_scrape();
                    metrics::http_response(
                        "200 OK",
                        "text/plain; version=0.0.4",
                        &metrics::render_prometheus(&self.view_at(now_ns)),
                    )
                }
                "/statusz" => {
                    let now_ns = self.inner.telemetry.observe_scrape();
                    metrics::http_response(
                        "200 OK",
                        "application/json",
                        &metrics::render_statusz(&self.view_at(now_ns)),
                    )
                }
                _ => metrics::http_response(
                    "404 Not Found",
                    "text/plain",
                    "try /metrics or /statusz\n",
                ),
            }
        };
        let mut stream = stream;
        stream.write_all(response.as_bytes())?;
        stream.flush()
    }

    /// Applies one shipped chunk to the mirror and warms the cache from
    /// every complete record it carried.
    fn apply_chunk(&self, chunk: &ReplChunk) {
        let outcome = {
            let mut replica = self.inner.replica.lock().unwrap_or_else(|e| e.into_inner());
            let Some(rep) = replica.as_mut() else {
                return;
            };
            let outcome = rep.apply(chunk.offset, chunk.epoch, chunk.reset, &chunk.data);
            // An applied chunk only counts once the mirror is durable:
            // while the primary lives a crashed follower refetches from
            // its recovered offset, but after the primary dies — the one
            // case promotion exists for — anything applied but unsynced
            // would be lost for good. (Found by the cr-sim failure swarm:
            // kill-primary followed by a follower crash before promotion.)
            if outcome.is_ok() && !chunk.data.is_empty() && rep.sync().is_err() {
                self.inner.store_errors.fetch_add(1, Ordering::Relaxed);
            }
            outcome
        };
        match outcome {
            Ok(outcome) => {
                if !chunk.data.is_empty() {
                    self.inner.aggregate.add(Counter::ReplChunksApplied, 1);
                }
                for (canonical, question, verdict) in repl::warm_entries(&outcome.payloads) {
                    let shard_hash = cr_core::canonical_text_hash(&canonical);
                    self.inner.cache.insert(
                        shard_hash,
                        CacheKey {
                            canonical,
                            question,
                        },
                        verdict,
                    );
                }
            }
            Err(_) => {
                self.inner.store_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Atomically (re)writes the port file naming the bound address and
    /// role. Promotion calls this again, so a watching client is
    /// redirected by a complete line — never a torn half-write.
    fn write_port_file(&self) {
        let Some(path) = &self.inner.config.port_file else {
            return;
        };
        let addr = *self
            .inner
            .bound_addr
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let Some(addr) = addr else {
            return;
        };
        let line = if self.is_standby() {
            format!("standby {addr}\n")
        } else {
            format!("{addr}\n")
        };
        if cr_store::write_atomic_on(self.inner.config.vfs.as_ref(), path, line.as_bytes()).is_err()
        {
            self.inner.store_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    // ------------------------------------------------------------------
    // Transports
    // ------------------------------------------------------------------

    /// Parses and submits a request line to the pool; the response line
    /// (with trailing newline) is written to `out`. Admission runs here,
    /// before the queue: expired or unfittable deadlines and overload
    /// sheds are answered immediately (on the caller's thread) with a
    /// retryable `shed` response — bounded memory under overload is the
    /// contract.
    fn dispatch(&self, line: String, out: &Arc<Mutex<dyn Write + Send>>) {
        let mut request = match Request::parse(&line) {
            Ok(r) => r,
            Err(msg) => {
                self.inner.aggregate.add(Counter::RequestsServed, 1);
                self.inner.telemetry.record(0, false);
                write_response(out, &Response::error(Request::salvage_id(&line), msg));
                return;
            }
        };
        // Mint the trace id at admission — before the gate — so even a
        // response shed right here carries an id the client can quote.
        if request.trace_id.is_none() {
            request.trace_id = Some(cr_trace::mint_trace_id());
        }
        if matches!(
            request.op,
            Op::Check | Op::Implies | Op::PinBase | Op::CheckDelta
        ) {
            // Delta requests carry their cost in the diff (plus an optional
            // fallback schema); screen on the total payload either way.
            let schema_len = request.schema.as_deref().map_or(0, str::len)
                + request.diff.iter().map(String::len).sum::<usize>();
            if let Admit::Shed { reason, deadline } =
                self.inner
                    .admission
                    .admit(request.deadline_ms, request.priority, schema_len)
            {
                self.count_shed(deadline);
                let mut response = Response::shed(request.id.clone(), reason);
                response.trace_id = request.trace_id.clone();
                write_response(out, &response);
                return;
            }
        }
        let id = request.id.clone();
        let trace_id = request.trace_id.clone();
        let server = self.clone();
        let writer = Arc::clone(out);
        let enqueued = Instant::now();
        let submitted = self.inner.pool.try_submit(Box::new(move || {
            let queue_delay = enqueued.elapsed();
            // Last line of defense: even a panic that escapes the reasoning
            // path's own containment (e.g. in canonicalization, which runs
            // before it) must still cost the client exactly one error
            // response, never a missing reply.
            let work = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                server.process_picked(&request, queue_delay)
            }));
            let response = work.unwrap_or_else(|panic| {
                Response::error(request.id.clone(), format!("panic: {}", panic_text(&panic)))
            });
            write_response(&writer, &response);
        }));
        match submitted {
            Ok(()) => {}
            Err(SubmitError::QueueFull) => {
                self.count_shed(false);
                self.inner.admission.note_overload();
                let mut response = Response::shed(id, "server overloaded: request queue is full");
                response.trace_id = trace_id;
                write_response(out, &response);
            }
            Err(SubmitError::ShuttingDown) => {
                let mut response = Response::error(id, "server is shutting down");
                response.trace_id = trace_id;
                write_response(out, &response);
            }
        }
    }

    /// Counts one shed answered outside `process_picked` (admission gate
    /// or full queue).
    fn count_shed(&self, deadline: bool) {
        self.inner.aggregate.add(Counter::RequestsServed, 1);
        self.inner.aggregate.add(Counter::RequestsShed, 1);
        self.inner.telemetry.record(0, true);
        if deadline {
            self.inner.aggregate.add(Counter::DeadlineRejected, 1);
        }
    }

    /// Serves JSON-lines over stdin/stdout until EOF (ctrl-D), a `shutdown`
    /// request, or `stop` turns true (the SIGTERM flag). Drains before
    /// returning.
    pub fn serve_stdio(&self, stop: &AtomicBool) -> std::io::Result<()> {
        let stdin = std::io::stdin();
        let out: Arc<Mutex<dyn Write + Send>> = Arc::new(Mutex::new(std::io::stdout()));
        let mut lines = stdin.lock().lines();
        loop {
            if self.shutdown_requested() || stop.load(Ordering::SeqCst) {
                break;
            }
            // Blocking read: a quiescent stdio server sits here until the
            // client writes, closes the pipe, or a signal interrupts the
            // read (EINTR surfaces as an Err we treat as a stop check).
            match lines.next() {
                None => break,
                Some(Err(_)) => continue,
                Some(Ok(line)) => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    self.dispatch(line, &out);
                }
            }
        }
        self.finish();
        Ok(())
    }

    /// Binds `addr` (e.g. `127.0.0.1:0`) and serves until shutdown is
    /// requested or `stop` turns true. Writes the port file (when
    /// configured) and returns the bound address through `on_bound` before
    /// entering the accept loop, then blocks; drains before returning.
    pub fn serve_tcp(
        &self,
        addr: &str,
        stop: Arc<AtomicBool>,
        on_bound: impl FnOnce(SocketAddr),
    ) -> std::io::Result<()> {
        let (listener, bound) = crate::transport::TcpListenerSource::bind(addr)?;
        *self
            .inner
            .bound_addr
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = Some(bound);
        self.write_port_file();
        on_bound(bound);
        self.serve_listener(Box::new(listener), stop)
    }

    /// The accept loop over any [`crate::transport::Listener`] (TCP in
    /// production; the
    /// simulation substitutes an in-memory one). Serves until shutdown is
    /// requested or `stop` turns true; drains before returning.
    pub fn serve_listener(
        &self,
        mut listener: Box<dyn crate::transport::Listener>,
        stop: Arc<AtomicBool>,
    ) -> std::io::Result<()> {
        let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            if self.shutdown_requested() || stop.load(Ordering::SeqCst) {
                break;
            }
            match listener.poll_accept() {
                Ok(Some(conn)) => {
                    let server = self.clone();
                    let stop = Arc::clone(&stop);
                    connections.push(std::thread::spawn(move || {
                        let _ = server.handle_connection(conn, &stop);
                    }));
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(20)),
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
            connections.retain(|h| !h.is_finished());
        }
        for h in connections {
            let _ = h.join();
        }
        self.finish();
        Ok(())
    }

    /// One connection: read request lines, dispatch to the pool,
    /// responses go back over the same conn (interleaved, correlated by
    /// id). Returns on client EOF, connection error, or server shutdown.
    fn handle_connection(
        &self,
        mut stream: Box<dyn crate::transport::Conn>,
        stop: &AtomicBool,
    ) -> std::io::Result<()> {
        stream.set_read_timeout(Some(Duration::from_millis(100)))?;
        let out: Arc<Mutex<dyn Write + Send>> = Arc::new(Mutex::new(stream.clone_writer()?));
        let mut reader = BufReader::new(stream);
        let mut buf = String::new();
        loop {
            if self.shutdown_requested() || stop.load(Ordering::SeqCst) {
                break;
            }
            match reader.read_line(&mut buf) {
                Ok(0) => break,
                Ok(_) => {
                    let line = std::mem::take(&mut buf);
                    if !line.trim().is_empty() {
                        self.dispatch(line, &out);
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    // Read timeout: partial data (if any) stays in `buf`;
                    // loop to re-check the shutdown flags.
                    continue;
                }
                Err(_) => break,
            }
        }
        Ok(())
    }
}

/// Drop guard deregistering a request from the in-flight registry even
/// when the reasoning path unwinds.
struct Dereg<'a> {
    registry: &'a InflightRegistry,
    seq: u64,
}

impl Drop for Dereg<'_> {
    fn drop(&mut self) {
        self.registry.deregister(self.seq);
    }
}

/// The unsat classes an answer claims: its detail lines minus the `rel `
/// relationship lines. This is the set certification must agree with
/// before a verdict is trusted (returned to a `--certify` client, or
/// written to the durable store).
fn claimed_unsat_classes(detail: &[String]) -> Vec<String> {
    detail
        .iter()
        .filter(|d| !d.starts_with("rel "))
        .cloned()
        .collect()
}

/// Best-effort text of a caught panic payload.
fn panic_text(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn write_response(out: &Arc<Mutex<dyn Write + Send>>, response: &Response) {
    // Chaos: drop the response on the floor *before* taking the writer
    // lock — the client sees a missing reply (and must time out or retry),
    // but the connection's writer is never poisoned.
    cr_faults::point!("server.response.write", |_| ());
    let mut line = response.to_json();
    line.push('\n');
    let mut w = out.lock().expect("response writer poisoned");
    // A dead client can't be helped; dropping the response is correct.
    let _ = w.write_all(line.as_bytes());
    let _ = w.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    const MEETING: &str = "class Speaker; class Discussant isa Speaker; class Talk; \
         relationship Holds (U1: Speaker, U2: Talk); \
         card Speaker in Holds.U1: 1..*; card Talk in Holds.U2: 1..1;";

    fn check_request(id: &str, schema: &str) -> String {
        let mut r = Request::new(id, Op::Check);
        r.schema = Some(schema.to_string());
        r.to_json()
    }

    fn tmp(tag: &str) -> std::path::PathBuf {
        let h = tag.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        let dir = std::env::temp_dir().join(format!("cr-server-ha-{tag}-{h:x}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn ping_stats_and_shutdown() {
        let server = Server::new(ServerConfig::default());
        let pong = server.process_line(&Request::new("p", Op::Ping).to_json());
        assert_eq!(pong.status, Status::Ok);
        assert_eq!(pong.verdict.as_deref(), Some("pong"));
        let stats = server.process_line(&Request::new("s", Op::Stats).to_json());
        assert!(stats
            .detail
            .iter()
            .any(|d| d.starts_with("requests_served=")));
        assert!(stats.detail.iter().any(|d| d == "role=primary"));
        assert!(stats.detail.iter().any(|d| d.starts_with("uptime_ms=")));
        assert_eq!(
            stats
                .detail
                .iter()
                .find(|d| d.starts_with("build_version="))
                .map(String::as_str),
            Some(concat!("build_version=", env!("CARGO_PKG_VERSION")))
        );
        assert!(!server.shutdown_requested());
        let bye = server.process_line(&Request::new("q", Op::Shutdown).to_json());
        assert_eq!(bye.verdict.as_deref(), Some("shutting-down"));
        assert!(server.shutdown_requested());
        server.finish();
    }

    #[test]
    fn second_identical_check_is_served_from_cache() {
        let server = Server::new(ServerConfig::default());
        let first = server.process_line(&check_request("a", MEETING));
        assert_eq!(first.status, Status::Ok);
        assert!(!first.cached);
        let report = first.report.as_ref().unwrap();
        assert_eq!(report.counter("cache_hits"), Some(0));
        assert_eq!(report.counter("cache_misses"), Some(1));

        // Same constraints, different declaration order and whitespace.
        let reordered = "class Talk; class Speaker;\nclass Discussant isa Speaker;\n\
             relationship Holds (U1: Speaker, U2: Talk);\n\
             card Talk   in Holds.U2: 1..1;\ncard Speaker in Holds.U1: 1..*;";
        let second = server.process_line(&check_request("b", reordered));
        assert_eq!(second.status, Status::Ok);
        assert!(second.cached, "canonicalized repeat must hit the cache");
        let report = second.report.as_ref().unwrap();
        assert_eq!(report.counter("cache_hits"), Some(1));
        assert_eq!(first.schema_hash, second.schema_hash);
        assert_eq!(server.aggregate_counter(Counter::CacheHits), 1);
        assert_eq!(server.aggregate_counter(Counter::CacheMisses), 1);
        server.finish();
    }

    #[test]
    fn budget_exceeded_is_not_cached() {
        let server = Server::new(ServerConfig::default());
        let mut starved = Request::new("x", Op::Check);
        starved.schema = Some(MEETING.to_string());
        starved.max_steps = Some(1);
        let r = server.process_line(&starved.to_json());
        assert_eq!(r.status, Status::BudgetExceeded);
        assert!(r.detail[0].starts_with("budget-exceeded stage="));
        assert_eq!(server.cached_verdicts(), 0);
        // The same schema with a real budget then computes fresh.
        let ok = server.process_line(&check_request("y", MEETING));
        assert!(!ok.cached);
        assert_eq!(ok.status, Status::Ok);
        server.finish();
    }

    // Figure 1 minus the conflicting minc: satisfiable until an edit
    // raises C's minimum back to 2 (the paper's ISA/card interaction).
    const FIG1_RELAXED: &str = "class C; class D isa C; relationship R (U1: C, U2: D); \
         card C in R.U1: 0..*; card D in R.U2: 0..1;";

    fn delta_diff(base_dsl: &str, edited_dsl: &str) -> Vec<String> {
        let base = cr_lang::parse_schema(base_dsl).unwrap().canonical_form();
        let edited = cr_lang::parse_schema(edited_dsl).unwrap().canonical_form();
        cr_lang::diff_canonical(&base, &edited).to_lines()
    }

    #[test]
    fn pin_base_then_check_delta_matches_full_check() {
        let server = Server::new(ServerConfig::default());
        let mut pin = Request::new("p", Op::PinBase);
        pin.schema = Some(FIG1_RELAXED.to_string());
        let pinned = server.process_line(&pin.to_json());
        assert_eq!(pinned.status, Status::Ok);
        assert_eq!(pinned.verdict.as_deref(), Some("pinned"));
        let base_hash = pinned.schema_hash.clone().unwrap();
        assert_eq!(base_hash.len(), 32);

        // Tightening edit: minc 0 -> 2 on C flips the schema to unsat.
        let edited = FIG1_RELAXED.replace("card C in R.U1: 0..*", "card C in R.U1: 2..*");
        let mut delta = Request::new("d", Op::CheckDelta);
        delta.base = Some(base_hash.clone());
        delta.diff = delta_diff(FIG1_RELAXED, &edited);
        let verdict = server.process_line(&delta.to_json());
        assert_eq!(verdict.status, Status::Negative);
        assert_eq!(verdict.verdict.as_deref(), Some("unsatisfiable"));
        assert!(!verdict.cached);

        // The from-scratch path agrees on both status and unsat set.
        let scratch = server.process_line(&check_request("s", &edited));
        assert_eq!(scratch.status, Status::Negative);
        let mut want = scratch.detail.clone();
        want.sort();
        let mut got = verdict.detail.clone();
        got.sort();
        assert_eq!(got, want);

        // The same (base, diff) pair is now a delta cache hit.
        let mut again = Request::new("d2", Op::CheckDelta);
        again.base = Some(base_hash.clone());
        again.diff = delta_diff(FIG1_RELAXED, &edited);
        let hit = server.process_line(&again.to_json());
        assert_eq!(hit.status, Status::Negative);
        assert!(hit.cached);

        // The edited schema was auto-pinned: a follow-up edit can use its
        // hash as the next base without re-pinning.
        let relaxed_again = edited.replace("card C in R.U1: 2..*", "card C in R.U1: 1..*");
        let mut chain = Request::new("d3", Op::CheckDelta);
        chain.base = Some(format!(
            "{:032x}",
            cr_core::canonical_text_hash(&cr_lang::parse_schema(&edited).unwrap().canonical_form())
        ));
        chain.diff = delta_diff(&edited, &relaxed_again);
        let chained = server.process_line(&chain.to_json());
        assert_eq!(chained.status, Status::Ok, "{:?}", chained.detail);
        assert!(!chained
            .detail
            .iter()
            .any(|d| d.starts_with("delta-fallback")));

        let stats = server.process_line(&Request::new("st", Op::Stats).to_json());
        assert!(stats.detail.iter().any(|d| d.starts_with("delta_hits=")));
        assert!(stats.detail.iter().any(|d| d.starts_with("pinned_bases=")));
        server.finish();
    }

    #[test]
    fn check_delta_unknown_base_falls_back_or_errors() {
        let server = Server::new(ServerConfig::default());
        let bogus = "0".repeat(32);
        // With a schema along for the ride the verdict still lands — as a
        // plain full check, flagged in the detail.
        let mut with_schema = Request::new("a", Op::CheckDelta);
        with_schema.base = Some(bogus.clone());
        with_schema.schema = Some(MEETING.to_string());
        let r = server.process_line(&with_schema.to_json());
        assert_eq!(r.status, Status::Ok);
        assert!(r
            .detail
            .iter()
            .any(|d| d.contains("delta-fallback") && d.contains("not pinned")));
        // Without one there is nothing to check.
        let mut bare = Request::new("b", Op::CheckDelta);
        bare.base = Some(bogus);
        let r = server.process_line(&bare.to_json());
        assert_eq!(r.status, Status::Error);
        assert!(r.detail[0].contains("pin_base"));
        assert_eq!(server.aggregate_counter(Counter::DeltaFallbacks), 2);
        server.finish();
    }

    #[test]
    fn structural_diff_falls_back_transparently() {
        let server = Server::new(ServerConfig::default());
        let mut pin = Request::new("p", Op::PinBase);
        pin.schema = Some(MEETING.to_string());
        let pinned = server.process_line(&pin.to_json());
        let base_hash = pinned.schema_hash.clone().unwrap();
        let mut delta = Request::new("d", Op::CheckDelta);
        delta.base = Some(base_hash);
        delta.diff = vec!["+\tclass\tChair".to_string()];
        let r = server.process_line(&delta.to_json());
        assert_eq!(r.status, Status::Ok, "{:?}", r.detail);
        assert!(r
            .detail
            .iter()
            .any(|d| d.contains("delta-fallback") && d.contains("structural")));
        assert_eq!(server.aggregate_counter(Counter::DeltaFallbacks), 1);
        server.finish();
    }

    #[test]
    fn certify_flag_re_validates_the_verdict() {
        let server = Server::new(ServerConfig::default());
        let mut sat = Request::new("c", Op::Check);
        sat.schema = Some(MEETING.to_string());
        sat.certify = true;
        let resp = server.process_line(&sat.to_json());
        assert_eq!(resp.status, Status::Ok);
        let report = resp.report.as_ref().unwrap();
        assert!(report.counter("certify_checks").unwrap() > 0);
        assert_eq!(report.counter("certify_failures"), Some(0));

        // A negative verdict certifies through the Farkas chain.
        let mut unsat = Request::new("u", Op::Check);
        unsat.schema = Some(
            "class C; class D isa C; relationship R (U1: C, U2: D); \
             card C in R.U1: 2..*; card D in R.U2: 0..1;"
                .to_string(),
        );
        unsat.certify = true;
        let resp = server.process_line(&unsat.to_json());
        assert_eq!(resp.status, Status::Negative);
        let report = resp.report.as_ref().unwrap();
        assert_eq!(report.counter("certify_failures"), Some(0));
        assert!(report.counter("certify_farkas_steps").unwrap() > 0);
        server.finish();
    }

    #[test]
    fn certified_cache_hit_agrees_with_fresh_run() {
        let server = Server::new(ServerConfig::default());
        let plain = server.process_line(&check_request("a", MEETING));
        assert_eq!(plain.status, Status::Ok);
        // The repeat is served from cache *and* re-certified from source.
        let mut again = Request::new("b", Op::Check);
        again.schema = Some(MEETING.to_string());
        again.certify = true;
        let resp = server.process_line(&again.to_json());
        assert_eq!(resp.status, Status::Ok);
        assert!(resp.cached);
        assert!(
            resp.report
                .as_ref()
                .unwrap()
                .counter("certify_checks")
                .unwrap()
                > 0
        );
        server.finish();
    }

    #[test]
    fn a_fresh_miss_certifies_the_reasoner_that_answered() {
        let counter = |r: &Response, name: &str| {
            r.report
                .as_ref()
                .and_then(|report| report.counter(name))
                .expect("the report carries every counter")
        };
        let memory = Server::new(ServerConfig::default());
        let plain = memory.process_line(&check_request("m", MEETING));
        assert_eq!(plain.status, Status::Ok);
        memory.finish();

        // A durable miss certifies the reasoner that answered before the
        // verdict is stored, so it reasons exactly once, like the
        // memory-only miss.
        let dir = tmp("certify-once");
        let durable = Server::new(ServerConfig {
            cache_dir: Some(dir.clone()),
            ..ServerConfig::default()
        });
        let stored = durable.process_line(&check_request("d", MEETING));
        assert_eq!(stored.status, Status::Ok);
        assert_eq!(
            counter(&stored, "disequations_emitted"),
            counter(&plain, "disequations_emitted")
        );
        assert_eq!(counter(&stored, "store_writes"), 1);
        assert!(counter(&stored, "certify_checks") > 0);
        durable.finish();

        // A `certify:true` miss hands that same certification to the
        // client instead of certifying a second time.
        let flag_dir = tmp("certify-once-flag");
        let flagged = Server::new(ServerConfig {
            cache_dir: Some(flag_dir.clone()),
            ..ServerConfig::default()
        });
        let mut request = Request::new("c", Op::Check);
        request.schema = Some(MEETING.to_string());
        request.certify = true;
        let certified = flagged.process_line(&request.to_json());
        assert_eq!(certified.status, Status::Ok);
        assert!(!certified.cached);
        assert_eq!(
            counter(&certified, "certify_checks"),
            counter(&stored, "certify_checks")
        );
        assert_eq!(
            counter(&certified, "disequations_emitted"),
            counter(&plain, "disequations_emitted")
        );
        assert_eq!(counter(&certified, "store_writes"), 1);
        flagged.finish();
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&flag_dir);
    }

    #[test]
    fn malformed_and_parse_error_requests_get_error_responses() {
        let server = Server::new(ServerConfig::default());
        let bad = server.process_line("{\"v\":1,\"id\":\"e\",\"op\":\"check\"}");
        assert_eq!(bad.status, Status::Error);
        assert_eq!(bad.id, "e");
        let garbled = server.process_line("][");
        assert_eq!(garbled.status, Status::Error);
        assert_eq!(garbled.id, "");
        let syntax = server.process_line(&check_request("s", "class ;"));
        assert_eq!(syntax.status, Status::Error);
        assert!(syntax.detail[0].starts_with("schema:"));
        server.finish();
    }

    #[test]
    fn standby_requires_cache_dir() {
        let err = match Server::open(ServerConfig {
            follow: Some("127.0.0.1:1".to_string()),
            ..ServerConfig::default()
        }) {
            Err(e) => e,
            Ok(_) => panic!("standby without a cache dir must be refused"),
        };
        assert!(err.contains("cache dir"), "got: {err}");
    }

    #[test]
    fn promote_on_primary_is_a_noop() {
        let server = Server::new(ServerConfig::default());
        assert_eq!(server.promote().unwrap(), "already-primary");
        assert_eq!(server.aggregate_counter(Counter::Promotions), 0);
        let resp = server.process_line(&Request::new("p", Op::Promote).to_json());
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.verdict.as_deref(), Some("already-primary"));
        server.finish();
    }

    #[test]
    fn expired_deadline_is_shed_without_touching_a_worker() {
        let server = Server::new(ServerConfig::default());
        let mut r = Request::new("d", Op::Check);
        r.schema = Some(MEETING.to_string());
        r.deadline_ms = Some(0);
        let resp = server.process_request(&r);
        assert_eq!(resp.status, Status::Shed);
        assert!(resp.detail[0].starts_with("deadline"));
        assert_eq!(
            server.aggregate_counter(Counter::CacheMisses),
            0,
            "expired work must not reach the pipeline"
        );
        assert_eq!(server.aggregate_counter(Counter::RequestsShed), 1);
        assert_eq!(server.aggregate_counter(Counter::DeadlineRejected), 1);
        server.finish();
    }

    #[test]
    fn responses_carry_minted_trace_ids_and_hits_name_their_leader() {
        let server = Server::new(ServerConfig::default());
        let first = server.process_line(&check_request("a", MEETING));
        let first_id = first.trace_id.clone().expect("a trace id is minted");
        assert!(cr_trace::is_trace_id(&first_id));
        let report = first.report.as_ref().unwrap();
        assert_eq!(report.trace_id.as_deref(), Some(first_id.as_str()));
        assert!(
            report.leader_trace_id.is_none(),
            "fresh compute has no leader"
        );

        let second = server.process_line(&check_request("b", MEETING));
        let second_id = second.trace_id.clone().unwrap();
        assert_ne!(first_id, second_id, "every request gets its own id");
        let report = second.report.as_ref().unwrap();
        assert_eq!(report.trace_id.as_deref(), Some(second_id.as_str()));
        assert_eq!(
            report.leader_trace_id.as_deref(),
            Some(first_id.as_str()),
            "a cache hit must name the request whose computation it rode"
        );

        // A client-supplied id is honored, never replaced.
        let mut supplied = Request::new("c", Op::Ping);
        supplied.trace_id = Some("00112233445566778899aabbccddeeff".to_string());
        let resp = server.process_request(&supplied);
        assert_eq!(
            resp.trace_id.as_deref(),
            Some("00112233445566778899aabbccddeeff")
        );
        server.finish();
    }

    fn http_get(addr: SocketAddr, path: &str) -> String {
        use std::io::Read as _;
        let mut stream = TcpStream::connect(addr).expect("connect metrics endpoint");
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
            .expect("send scrape");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read scrape");
        raw
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_and_statusz() {
        let server = Server::new(ServerConfig {
            metrics_addr: Some("127.0.0.1:0".to_string()),
            ..ServerConfig::default()
        });
        let addr = server.metrics_addr().expect("metrics listener bound");
        let ok = server.process_line(&check_request("a", MEETING));
        assert_eq!(ok.status, Status::Ok);

        let raw = http_get(addr, "/metrics");
        assert!(raw.starts_with("HTTP/1.1 200 OK\r\n"), "{raw}");
        let body = raw.split("\r\n\r\n").nth(1).expect("body");
        assert!(body.contains("crsat_requests_served_total 1\n"), "{body}");
        assert!(body.contains("crsat_request_latency_seconds_count 1\n"));

        let raw = http_get(addr, "/statusz");
        let body = raw.split("\r\n\r\n").nth(1).expect("body");
        let v = cr_trace::json::parse(body).expect("statusz is JSON");
        assert_eq!(
            v.get("role").and_then(cr_trace::json::Value::as_str),
            Some("primary")
        );
        assert_eq!(
            v.get("requests")
                .and_then(|r| r.get("served_total"))
                .and_then(cr_trace::json::Value::as_u64),
            Some(1)
        );

        assert!(http_get(addr, "/nope").starts_with("HTTP/1.1 404"));
        server.finish();
    }

    #[test]
    fn standby_serves_replicated_verdicts_and_promotes_to_compute() {
        let dir = tmp("standby");
        {
            let primary = Server::new(ServerConfig {
                cache_dir: Some(dir.clone()),
                ..ServerConfig::default()
            });
            let r = primary.process_line(&check_request("a", MEETING));
            assert_eq!(r.status, Status::Ok);
            primary.finish();
        }
        // A standby over the same directory treats the primary's log as
        // its mirror; point `follow` at a dead address and park the
        // promotion timer so nothing races the assertions.
        let standby = Server::open(ServerConfig {
            cache_dir: Some(dir.clone()),
            follow: Some("127.0.0.1:1".to_string()),
            promote_after_ms: 3_600_000,
            ..ServerConfig::default()
        })
        .expect("standby open");
        assert!(standby.is_standby());
        let hit = standby.process_line(&check_request("b", MEETING));
        assert_eq!(hit.status, Status::Ok, "detail: {:?}", hit.detail);
        assert!(hit.cached, "replicated verdict must be served warm");
        // Novel work is refused honestly, never computed.
        let mut novel = Request::new("c", Op::Check);
        novel.schema = Some("class OnlyHere;".to_string());
        let miss = standby.process_request(&novel);
        assert_eq!(miss.status, Status::Error);
        assert!(miss.detail[0].starts_with("standby:"), "{:?}", miss.detail);
        // Promotion turns the mirror into the store and unlocks compute.
        assert_eq!(standby.promote().unwrap(), "promoted");
        assert!(!standby.is_standby());
        assert_eq!(standby.aggregate_counter(Counter::Promotions), 1);
        let fresh = standby.process_request(&novel);
        assert_eq!(fresh.status, Status::Ok, "detail: {:?}", fresh.detail);
        standby.finish();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
