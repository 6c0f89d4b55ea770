//! Traced replay: calls each layer's public entry point, in the order the
//! server calls them, inside a span of the benchmark's own recorder, and
//! reads the layer's counts from a per-call `Tracer` attached with
//! `Budget::with_tracer`. Nothing inside the program is changed.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cr_core::agg::{maximal_support_agg_governed, AggSystem};
use cr_core::certify::CertifyReport;
use cr_core::expansion::{Expansion, ExpansionConfig};
use cr_core::implication::{implied_minc_governed, BoundVerdict};
use cr_core::{Budget, ClassId, RoleId, Schema};
use cr_server::{CacheKey, CachedVerdict, Request, Response, Status, VerdictCache};
use cr_trace::{Counter, NullSink, Tracer};

use crate::spans::Recorder;
use crate::stats::ratio;

/// Every per-layer metric, in the order `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("lang.parse_us", "us"),
    ("lang.diff_us", "us"),
    ("canon.hash_us", "us"),
    ("protocol.decode_us", "us"),
    ("protocol.encode_us", "us"),
    ("protocol.response_bytes", "bytes"),
    ("cache.hit_share", "ratio"),
    ("cache.lookup_us", "us"),
    ("expansion.self_ms", "ms"),
    ("expansion.compound_classes", "count"),
    ("expansion.compound_rels", "count"),
    ("psi.self_ms", "ms"),
    ("psi.rows", "count"),
    ("psi.unknowns", "count"),
    ("fixpoint.self_ms", "ms"),
    ("fixpoint.iterations", "count"),
    ("simplex.solves", "count"),
    ("simplex.pivots", "count"),
    ("simplex.max_tableau_rows", "count"),
    ("simplex.max_tableau_cols", "count"),
    ("simplex.ms_per_pivot", "ms"),
    ("implication.self_ms", "ms"),
    ("implication.probes", "count"),
    ("certify.self_ms", "ms"),
    ("certify.farkas", "count"),
    ("certify.zenum_subsets", "count"),
    ("store.append_sync_ms", "ms"),
    ("store.writes", "count"),
    ("store.bytes_per_write", "bytes"),
    ("store.recover_ms", "ms"),
    ("repl.bytes_shipped", "bytes"),
    ("repl.chunks_applied", "count"),
    ("repl.catchup_ms", "ms"),
    ("admission.shed", "count"),
    ("admission.queue_delay_ewma_us", "us"),
    ("flight.coalesced", "count"),
    ("delta.self_us", "us"),
    ("delta.zero_lp_share", "ratio"),
    ("delta.fallback_share", "ratio"),
    ("delta.atoms_invalidated", "count"),
    ("server.other_ms", "ms"),
    ("gen.lag_p99_ms", "ms"),
    ("trace.overhead_share", "ratio"),
];

/// What [`paired`] returns: the traced replay and its state, how many
/// requests both replays took, and the wall time of each.
pub struct Paired<S> {
    pub traced: Replay,
    pub state: S,
    pub requests: usize,
    pub untraced_s: f64,
    pub traced_s: f64,
}

impl<S> Paired<S> {
    /// Traced wall time over untraced, minus one.
    pub fn overhead_share(&self) -> f64 {
        self.traced_s / self.untraced_s - 1.0
    }
}

/// Replays requests `0..n` twice in lockstep, once untraced and once
/// traced, each with its own `state`, alternating which goes first, until
/// `budget` has passed. Pairing request by request keeps slow drifts in
/// machine speed out of the tracing overhead.
pub fn paired<S>(
    make: impl Fn() -> S,
    n: usize,
    budget: Duration,
    mut step: impl FnMut(&mut Replay, &mut S, usize),
) -> Paired<S> {
    let mut sides = [
        (Replay::new(false), make(), 0.0),
        (Replay::new(true), make(), 0.0),
    ];
    let started = Instant::now();
    let mut requests = 0;
    while requests < n && started.elapsed() < budget {
        let first = requests % 2;
        for side in [first, 1 - first] {
            let (replay, state, secs) = &mut sides[side];
            let t = Instant::now();
            replay.rec.set_request(requests as u64);
            step(replay, state, requests);
            *secs += t.elapsed().as_secs_f64();
        }
        requests += 1;
    }
    let [(_, _, untraced_s), (traced, state, traced_s)] = sides;
    Paired {
        traced,
        state,
        requests,
        untraced_s,
        traced_s,
    }
}

/// The replay state: the span recorder, counts summed over calls, and the
/// current request's budget.
pub struct Replay {
    pub rec: Recorder,
    counts: BTreeMap<&'static str, f64>,
    /// Every call of one request runs under this budget, as in the daemon,
    /// so its tracer's report is what the daemon embeds in the response.
    budget: Budget,
}

fn request_budget() -> Budget {
    Budget::unlimited().with_tracer(&Tracer::new(Box::new(NullSink)))
}

/// A response with no report yet; [`Replay::encode`] attaches it.
pub fn response(
    id: &str,
    status: Status,
    verdict: Option<&str>,
    detail: Vec<String>,
    cached: bool,
    schema_hash: Option<String>,
) -> Response {
    Response {
        id: id.to_string(),
        status,
        verdict: verdict.map(str::to_string),
        detail,
        cached,
        schema_hash,
        report: None,
        repl: None,
        trace_id: None,
    }
}

impl Replay {
    pub fn new(traced: bool) -> Replay {
        Replay {
            rec: Recorder::new(traced),
            counts: BTreeMap::new(),
            budget: request_budget(),
        }
    }

    /// Opens a request's span with a fresh budget.
    pub fn begin_request(&mut self) {
        self.budget = request_budget();
        self.rec.begin("request");
    }

    /// Closes the request's span and adds its simplex pivots to the total
    /// the cross-check compares.
    pub fn end_request(&mut self) {
        self.rec.end();
        let pivots = self.budget.tracer().counter(Counter::SimplexPivots);
        self.add("pivots", pivots as f64);
    }

    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.counts.entry(key).or_default() += v;
    }

    fn max(&mut self, key: &'static str, v: f64) {
        let e = self.counts.entry(key).or_default();
        *e = e.max(v);
    }

    pub fn count(&self, key: &str) -> f64 {
        self.counts.get(key).copied().unwrap_or(0.0)
    }

    /// Runs `f` under the request's budget inside span `name`, and adds to
    /// each key of `counts` how far `f` moved its counter.
    pub fn governed<T>(
        &mut self,
        name: &'static str,
        counts: &[(Counter, &'static str)],
        f: impl FnOnce(&Budget) -> T,
    ) -> T {
        let tracer = self.budget.tracer().clone();
        let before: Vec<u64> = counts.iter().map(|&(c, _)| tracer.counter(c)).collect();
        let budget = &self.budget;
        let v = self.rec.span(name, |_| f(budget));
        for (&(c, key), b) in counts.iter().zip(before) {
            self.add(key, tracer.counter(c).saturating_sub(b) as f64);
        }
        v
    }

    /// A finite-satisfiability check from scratch: expansion, Ψ_S and the
    /// fixpoint, exactly the steps `eval::check` runs. Returns the names
    /// of the finitely unsatisfiable classes.
    pub fn check(&mut self, schema: &Schema) -> Vec<String> {
        let config = ExpansionConfig::default();
        let exp = self.governed("expansion", &[], |b| {
            Expansion::build_governed(schema, &config, b).expect("unlimited budget")
        });
        let agg = self.rec.span("psi", |_| AggSystem::build(&exp));
        let (support, _) = self.governed(
            "fixpoint",
            &[
                (Counter::FixpointIterations, "fixpoint.iterations"),
                (Counter::SimplexSolves, "simplex.solves"),
                (Counter::SimplexPivots, "check.pivots"),
            ],
            |b| maximal_support_agg_governed(&agg, b).expect("unlimited budget"),
        );
        self.add("expansion.calls", 1.0);
        self.add("compound_classes", exp.compound_classes().len() as f64);
        self.add("compound_rels", exp.compound_rels().len() as f64);
        self.add("psi.rows", agg.num_rows() as f64);
        self.add("psi.unknowns", agg.num_unknowns() as f64);
        let tracer = self.budget.tracer().clone();
        self.max("max_rows", tracer.counter(Counter::MaxTableauRows) as f64);
        self.max("max_cols", tracer.counter(Counter::MaxTableauCols) as f64);
        schema
            .classes()
            .filter(|&c| {
                !exp.compound_classes_containing(c)
                    .iter()
                    .any(|&cc| support[cc])
            })
            .map(|c| schema.class_name(c).to_string())
            .collect()
    }

    /// The tightest implied minimum participation of `class` in `role`.
    pub fn implied_minc(&mut self, schema: &Schema, class: ClassId, role: RoleId) -> BoundVerdict {
        let config = ExpansionConfig::default();
        self.governed(
            "implication",
            &[(Counter::ImplicationProbes, "implication.probes")],
            |b| implied_minc_governed(schema, class, role, &config, b).expect("unlimited budget"),
        )
    }

    /// An `implies` request's question, through the server's own bridge.
    pub fn implies(&mut self, schema: &Schema, query: &[String]) -> cr_server::eval::Answer {
        self.governed(
            "implication",
            &[(Counter::ImplicationProbes, "implication.probes")],
            |b| cr_server::eval::implies(schema, query, b),
        )
    }

    /// Certification of a check verdict.
    pub fn certify(&mut self, schema: &Schema) -> CertifyReport {
        self.governed(
            "certify",
            &[
                (Counter::CertifyFarkasSteps, "certify.farkas"),
                (Counter::ZenumSubsets, "certify.zenum_subsets"),
            ],
            |b| cr_core::certify_check(schema, b).expect("unlimited budget"),
        )
    }

    /// `Request::parse` on a request line.
    pub fn decode(&mut self, line: &str) -> Request {
        self.rec.span("protocol.decode", |_| {
            Request::parse(line).expect("the benchmark sends well-formed requests")
        })
    }

    /// `cr_lang::parse_schema` on schema source text.
    pub fn parse(&mut self, source: &str) -> Schema {
        self.rec.span("lang.parse", |_| {
            cr_lang::parse_schema(source).expect("the benchmark sends valid schemas")
        })
    }

    /// `Schema::canonical_form` and `canonical_hash`.
    pub fn canon(&mut self, schema: &Schema) -> (String, u128) {
        self.rec.span("canon.hash", |_| {
            (schema.canonical_form(), cr_core::canonical_hash(schema))
        })
    }

    /// `VerdictCache::get`; the caller counts `cache.hits` for the path
    /// the daemon took.
    pub fn lookup(
        &mut self,
        cache: &VerdictCache,
        hash: u128,
        key: &CacheKey,
    ) -> Option<CachedVerdict> {
        self.rec.span("cache.lookup", |_| cache.get(hash, key))
    }

    /// `VerdictCache::insert`.
    pub fn insert(&mut self, cache: &VerdictCache, hash: u128, key: CacheKey, v: CachedVerdict) {
        self.rec
            .span("cache.insert", |_| cache.insert(hash, key, v));
    }

    /// `Response::to_json`, on a response carrying the report of the
    /// request's budget as the daemon builds it.
    pub fn encode(&mut self, op: &str, mut response: Response) -> String {
        let mut report = cr_core::run_report(&self.budget, op, response.status.as_str());
        report.target = response.schema_hash.clone().unwrap_or_default();
        response.report = Some(report);
        self.rec.span("protocol.encode", |_| response.to_json())
    }

    /// `Store::put` then `sync`, as the daemon persists one verdict.
    pub fn persist(&mut self, store: &mut cr_store::Store, key: &[u8], value: &[u8]) {
        self.rec.span("store.append_sync", |_| {
            store.put(key, value).expect("scratch store write");
            store.sync().expect("scratch store sync");
        });
        self.add("store.bytes", (key.len() + value.len()) as f64);
    }

    /// Per-layer metrics from the spans and counts, in [`PER_LAYER`]
    /// order; `extra` supplies those a workload measures outside the
    /// replay (stats op, store recovery, reply sizes, generator lag, …). A
    /// layer the workload bypasses reads 0.
    pub fn metrics(
        &self,
        extra: &BTreeMap<&'static str, f64>,
    ) -> Vec<(&'static str, f64, &'static str)> {
        let times = self.rec.layer_times();
        let t = |name: &str| times.get(name).copied().unwrap_or_default();
        let per_call_ms = |name: &str| {
            let l = t(name);
            ratio(l.self_ns as f64 / 1e6, l.calls as f64)
        };
        let checks = t("fixpoint").calls as f64;
        let expansions = self.count("expansion.calls");
        let implications = t("implication").calls as f64;
        let certifies = t("certify").calls as f64;
        let deltas = t("delta").calls as f64;
        let mut computed: BTreeMap<&'static str, f64> = BTreeMap::new();
        computed.insert("lang.parse_us", per_call_ms("lang.parse") * 1e3);
        computed.insert("lang.diff_us", per_call_ms("lang.diff") * 1e3);
        computed.insert("canon.hash_us", per_call_ms("canon.hash") * 1e3);
        computed.insert("protocol.decode_us", per_call_ms("protocol.decode") * 1e3);
        computed.insert("protocol.encode_us", per_call_ms("protocol.encode") * 1e3);
        computed.insert(
            "cache.hit_share",
            ratio(self.count("cache.hits"), t("cache.lookup").calls as f64),
        );
        computed.insert("cache.lookup_us", per_call_ms("cache.lookup") * 1e3);
        computed.insert("expansion.self_ms", per_call_ms("expansion"));
        computed.insert(
            "expansion.compound_classes",
            ratio(self.count("compound_classes"), expansions),
        );
        computed.insert(
            "expansion.compound_rels",
            ratio(self.count("compound_rels"), expansions),
        );
        computed.insert("psi.self_ms", per_call_ms("psi"));
        computed.insert("psi.rows", ratio(self.count("psi.rows"), expansions));
        computed.insert(
            "psi.unknowns",
            ratio(self.count("psi.unknowns"), expansions),
        );
        computed.insert("fixpoint.self_ms", per_call_ms("fixpoint"));
        computed.insert(
            "fixpoint.iterations",
            ratio(self.count("fixpoint.iterations"), checks),
        );
        computed.insert(
            "simplex.solves",
            ratio(self.count("simplex.solves"), checks),
        );
        computed.insert("simplex.pivots", ratio(self.count("check.pivots"), checks));
        computed.insert("simplex.max_tableau_rows", self.count("max_rows"));
        computed.insert("simplex.max_tableau_cols", self.count("max_cols"));
        computed.insert(
            "simplex.ms_per_pivot",
            ratio(
                t("fixpoint").self_ns as f64 / 1e6,
                self.count("check.pivots"),
            ),
        );
        computed.insert("implication.self_ms", per_call_ms("implication"));
        computed.insert(
            "implication.probes",
            ratio(self.count("implication.probes"), implications),
        );
        computed.insert("certify.self_ms", per_call_ms("certify"));
        computed.insert(
            "certify.farkas",
            ratio(self.count("certify.farkas"), certifies),
        );
        computed.insert(
            "certify.zenum_subsets",
            ratio(self.count("certify.zenum_subsets"), certifies),
        );
        computed.insert("store.append_sync_ms", per_call_ms("store.append_sync"));
        computed.insert("store.writes", t("store.append_sync").calls as f64);
        computed.insert(
            "store.bytes_per_write",
            ratio(
                self.count("store.bytes"),
                t("store.append_sync").calls as f64,
            ),
        );
        computed.insert("delta.self_us", per_call_ms("delta") * 1e3);
        computed.insert(
            "delta.zero_lp_share",
            ratio(self.count("delta.zero_lp"), deltas),
        );
        computed.insert(
            "delta.fallback_share",
            ratio(self.count("delta.fallbacks"), deltas),
        );
        computed.insert(
            "delta.atoms_invalidated",
            ratio(self.count("delta.atoms_invalidated"), deltas),
        );
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = extra
                    .get(name)
                    .or_else(|| computed.get(name))
                    .copied()
                    .unwrap_or(0.0);
                (name, v, unit)
            })
            .collect()
    }

    /// Total (not self) milliseconds spent under spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.rec
            .layer_times()
            .get(name)
            .map_or(0.0, |l| l.total_ns as f64 / 1e6)
    }
}
