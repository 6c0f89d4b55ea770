//! The resource governor: deadlines, step budgets, and cooperative
//! cancellation for the reasoning pipeline.
//!
//! Every stage of the decision procedure is worst-case exponential — the
//! expansion in the number of classes (Section 3.1), the Theorem 3.4
//! `Z`-enumeration in the number of compound classes, and even the
//! polynomial fixpoint runs simplex over exact rationals whose pivot count
//! has no useful a-priori bound. A CASE tool (the paper's own motivating
//! deployment, Section 5) cannot simply hang on an adversarial schema, so
//! every potentially-exponential loop in this crate charges work units
//! against a caller-supplied [`Budget`] and stops with
//! [`CrError::BudgetExceeded`] — never a panic, never an unbounded stall —
//! as soon as a limit trips.
//!
//! A [`Budget`] combines four independent guards:
//!
//! * a **deadline** relative to the budget's creation (checked against a
//!   monotonic clock, injectable for tests via [`ManualClock`]);
//! * a **global step limit** over all stages;
//! * **per-stage step limits** (e.g. cap only [`Stage::ZEnumeration`] so the
//!   oracle falls back to the fixpoint while everything else runs free);
//! * a **cooperative [`CancelToken`]** that another thread may trip at any
//!   time.
//!
//! All counters are atomic, so one `Budget` can be shared by reference
//! across threads. The governor composes with `cr-linear`: a budget (or a
//! per-stage [`StageBudget`] view of one) implements
//! [`cr_linear::WorkBudget`], so simplex pivots inside a stage are charged
//! to that stage's account. Exhaustion surfaces from the solver as
//! [`cr_linear::LinearError::Interrupted`] and is converted back to
//! [`CrError::BudgetExceeded`] by the calling stage.
//!
//! The default budget everywhere is [`Budget::unlimited`], so existing
//! entry points keep their behavior; governed variants (`*_governed`,
//! [`Reasoner::with_budget`](crate::sat::Reasoner::with_budget)) accept an
//! explicit budget.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cr_linear::WorkBudget;
use cr_rational::Rational;
use cr_trace::{Counter, RunReport, Tracer};

use crate::error::{CrError, CrResult};

/// Pipeline stages the governor meters separately.
///
/// Each stage charges units of comparable (not identical) magnitude: one
/// unit is one "inner-loop step" — a compound-class candidate visited, a
/// `Z` subset tried, a fixpoint pass, a simplex pivot, an implication
/// probe. The error message reports which stage tripped.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Stage {
    /// Compound-class and compound-relationship enumeration (Section 3.1).
    Expansion = 0,
    /// Greatest-fixpoint support iteration — the polynomial engine
    /// (including its support-maximizing LP solves).
    Fixpoint = 1,
    /// The literal Theorem 3.4 `Z ⊆ V_C` enumeration oracle (including its
    /// per-subset feasibility solves).
    ZEnumeration = 2,
    /// Simplex pivoting attributed to no more specific stage (direct
    /// [`WorkBudget`] use of a [`Budget`]).
    Simplex = 3,
    /// Auxiliary-schema implication checks and implied-bound searches
    /// (Section 4).
    Implication = 4,
    /// Finite-model construction from a witness.
    Model = 5,
}

impl Stage {
    /// Number of stages (size of the per-stage accounting arrays).
    pub const COUNT: usize = 6;

    /// All stages, in metering-array order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Expansion,
        Stage::Fixpoint,
        Stage::ZEnumeration,
        Stage::Simplex,
        Stage::Implication,
        Stage::Model,
    ];

    /// Stable lowercase name (used in CLI diagnostics).
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Expansion => "expansion",
            Stage::Fixpoint => "fixpoint",
            Stage::ZEnumeration => "zenum",
            Stage::Simplex => "simplex",
            Stage::Implication => "implication",
            Stage::Model => "model",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

// Adding a stage without extending `ALL` would silently drop it from every
// report and iteration; fail the build instead.
const _: () = assert!(Stage::ALL.len() == Stage::COUNT);

/// Time source for deadline checks: the real monotonic clock, or a
/// test-controlled counter.
#[derive(Clone)]
enum TimeSource {
    Monotonic(Instant),
    Manual(Arc<AtomicU64>),
}

impl TimeSource {
    fn elapsed(&self) -> Duration {
        match self {
            TimeSource::Monotonic(start) => start.elapsed(),
            TimeSource::Manual(nanos) => Duration::from_nanos(nanos.load(Ordering::Relaxed)),
        }
    }
}

/// A hand-cranked clock for deterministic deadline tests: deadlines of a
/// [`Budget`] built with [`Budget::with_manual_clock`] only advance when
/// [`ManualClock::advance`] is called.
#[derive(Clone, Default)]
pub struct ManualClock {
    nanos: Arc<AtomicU64>,
}

impl ManualClock {
    /// A clock frozen at zero.
    pub fn new() -> ManualClock {
        ManualClock::default()
    }

    /// Advances the clock by `by`.
    pub fn advance(&self, by: Duration) {
        let nanos = u64::try_from(by.as_nanos()).unwrap_or(u64::MAX);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Time shown on the clock.
    pub fn now(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::Relaxed))
    }

    /// The clock's underlying nanosecond counter, shareable with other
    /// consumers of manual time — notably [`cr_trace::Tracer::manual`], so
    /// one hand-cranked clock drives budget deadlines and span durations
    /// in lockstep.
    pub fn shared_nanos(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.nanos)
    }
}

/// A shareable monotonic-or-manual time reading — the injectable-clock
/// convention of [`Budget`] as a standalone handle, for components whose
/// timers must run on virtual time under deterministic simulation (AIMD
/// shedding cooldowns, wedge timers, singleflight waits). Readings are
/// durations since an arbitrary epoch (process start for the monotonic
/// source, zero for a manual one); only differences are meaningful.
#[derive(Clone, Debug)]
pub struct Clock {
    source: ClockSource,
}

#[derive(Clone, Debug)]
enum ClockSource {
    Monotonic(Instant),
    Manual(Arc<AtomicU64>),
}

impl Clock {
    /// The real monotonic clock, anchored at creation.
    pub fn monotonic() -> Clock {
        Clock {
            source: ClockSource::Monotonic(Instant::now()),
        }
    }

    /// A clock driven by a [`ManualClock`]'s nanosecond counter: readings
    /// advance only when the owning harness cranks it.
    pub fn manual(clock: &ManualClock) -> Clock {
        Clock {
            source: ClockSource::Manual(clock.shared_nanos()),
        }
    }

    /// The current reading.
    pub fn now(&self) -> Duration {
        match &self.source {
            ClockSource::Monotonic(start) => start.elapsed(),
            ClockSource::Manual(nanos) => Duration::from_nanos(nanos.load(Ordering::Relaxed)),
        }
    }
}

impl Default for Clock {
    fn default() -> Clock {
        Clock::monotonic()
    }
}

/// A shared cancellation flag. Cloning shares the flag; tripping it makes
/// every [`Budget`] built from it refuse all further work.
#[derive(Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Trips the flag. Irrevocable: reasoning in flight stops at its next
    /// check with [`CrError::BudgetExceeded`].
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether the flag has been tripped.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// The resource governor threaded through the reasoning pipeline.
///
/// See the [module docs](self) for the guard kinds. Construction is by
/// builder methods:
///
/// ```
/// use std::time::Duration;
/// use cr_core::budget::{Budget, Stage};
///
/// let budget = Budget::unlimited()
///     .with_deadline(Duration::from_millis(200))
///     .with_max_steps(1_000_000)
///     .with_stage_limit(Stage::ZEnumeration, 10_000);
/// ```
pub struct Budget {
    time: TimeSource,
    deadline: Option<Duration>,
    max_steps: Option<u64>,
    stage_limits: [Option<u64>; Stage::COUNT],
    steps: AtomicU64,
    stage_steps: [AtomicU64; Stage::COUNT],
    peak_alloc: AtomicU64,
    cancel: CancelToken,
    tracer: Tracer,
    frontier: Mutex<Option<Frontier>>,
    resumed_from: Mutex<Option<u64>>,
}

/// A resumable snapshot of the fixpoint engine's candidate set, offered
/// to the [`Budget`] when a limit trips mid-iteration.
///
/// The greatest-fixpoint support computation only ever *shrinks* its
/// `alive` set from all-`true` toward the final support `P*`, so any
/// intermediate `alive` is a superset of `P*` and restarting from it is
/// sound: the same fixpoint is reached with the already-eliminated
/// candidates pruned up front. `CrError::BudgetExceeded` itself stays
/// payload-free (its exact shape is part of the error contract tested
/// across the workspace); the frontier rides on the `Budget` the caller
/// already holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frontier {
    /// The stage that was interrupted (always [`Stage::Fixpoint`] today).
    pub stage: Stage,
    /// Per-candidate liveness at the moment of interruption.
    pub alive: Vec<bool>,
}

impl Default for Budget {
    fn default() -> Budget {
        Budget::unlimited()
    }
}

impl Budget {
    /// A budget with no limits — the implicit budget of every ungoverned
    /// entry point. Still cancellable via [`Budget::with_cancel_token`].
    pub fn unlimited() -> Budget {
        Budget {
            time: TimeSource::Monotonic(Instant::now()),
            deadline: None,
            max_steps: None,
            stage_limits: [None; Stage::COUNT],
            steps: AtomicU64::new(0),
            stage_steps: std::array::from_fn(|_| AtomicU64::new(0)),
            peak_alloc: AtomicU64::new(0),
            cancel: CancelToken::new(),
            tracer: Tracer::disabled(),
            frontier: Mutex::new(None),
            resumed_from: Mutex::new(None),
        }
    }

    /// Sets a wall-clock deadline measured from the budget's creation (or
    /// from the manual clock's zero).
    pub fn with_deadline(mut self, deadline: Duration) -> Budget {
        self.deadline = Some(deadline);
        self
    }

    /// Caps total work units across all stages.
    pub fn with_max_steps(mut self, max_steps: u64) -> Budget {
        self.max_steps = Some(max_steps);
        self
    }

    /// Caps work units charged to one stage (including simplex pivots the
    /// stage performs through its [`StageBudget`] view). Used by the
    /// satisfiability fallback: cap [`Stage::ZEnumeration`] and the oracle
    /// degrades to the fixpoint instead of failing the whole question.
    pub fn with_stage_limit(mut self, stage: Stage, limit: u64) -> Budget {
        self.stage_limits[stage as usize] = Some(limit);
        self
    }

    /// Replaces the monotonic clock with a test-controlled [`ManualClock`].
    pub fn with_manual_clock(mut self, clock: &ManualClock) -> Budget {
        self.time = TimeSource::Manual(Arc::clone(&clock.nanos));
        self
    }

    /// Shares `token` as this budget's cancellation flag.
    pub fn with_cancel_token(mut self, token: &CancelToken) -> Budget {
        self.cancel = token.clone();
        self
    }

    /// Attaches an observability [`Tracer`]: every stage the budget is
    /// threaded through records spans and domain counters into it. The
    /// default is [`Tracer::disabled`] — a single-branch no-op — so
    /// ungoverned and untraced runs pay nothing.
    pub fn with_tracer(mut self, tracer: &Tracer) -> Budget {
        self.tracer = tracer.clone();
        self
    }

    /// The attached tracer (disabled unless [`Budget::with_tracer`] was
    /// called). Stages open spans and bump counters through this handle.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// A handle to this budget's cancellation flag.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// The configured wall-clock deadline, if any. Service layers use this
    /// to turn one invocation's governor flags into per-request defaults.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// The configured total step cap, if any.
    pub fn max_steps(&self) -> Option<u64> {
        self.max_steps
    }

    /// Total work units charged so far.
    pub fn steps(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// Work units charged to `stage` so far.
    pub fn stage_steps(&self, stage: Stage) -> u64 {
        self.stage_steps[stage as usize].load(Ordering::Relaxed)
    }

    /// Elapsed time per the budget's clock.
    pub fn elapsed(&self) -> Duration {
        self.time.elapsed()
    }

    /// Records a transient allocation estimate (in abstract units; callers
    /// use bytes). The maximum over all recordings is kept — a cheap proxy
    /// for peak memory that needs no allocator hooks.
    pub fn note_allocation(&self, units: u64) {
        self.peak_alloc.fetch_max(units, Ordering::Relaxed);
        self.tracer.record_max(Counter::PeakAllocBytes, units);
    }

    /// The largest allocation estimate recorded so far.
    pub fn peak_allocation_estimate(&self) -> u64 {
        self.peak_alloc.load(Ordering::Relaxed)
    }

    /// Charges `units` of work to `stage`, then checks every guard.
    pub fn charge(&self, stage: Stage, units: u64) -> CrResult<()> {
        self.steps.fetch_add(units, Ordering::Relaxed);
        self.stage_steps[stage as usize].fetch_add(units, Ordering::Relaxed);
        self.check(stage)
    }

    /// Checks every guard without charging. A limit of `n` admits exactly
    /// `n` units; the `n+1`-th charge trips.
    pub fn check(&self, stage: Stage) -> CrResult<()> {
        if self.cancel.is_cancelled() {
            return Err(self.exceeded_err(stage));
        }
        if let Some(limit) = self.stage_limits[stage as usize] {
            if self.stage_steps(stage) > limit {
                return Err(self.exceeded_err(stage));
            }
        }
        if let Some(limit) = self.max_steps {
            if self.steps() > limit {
                return Err(self.exceeded_err(stage));
            }
        }
        if let Some(deadline) = self.deadline {
            if self.elapsed() > deadline {
                return Err(self.exceeded_err(stage));
            }
        }
        Ok(())
    }

    /// Builds the [`CrError::BudgetExceeded`] for the guard that tripped
    /// (also used to convert a solver
    /// [`Interrupted`](cr_linear::LinearError::Interrupted) back into a
    /// stage-attributed error). Cancellation reports `limit: 0`; a missed
    /// deadline reports elapsed/deadline milliseconds; step limits report
    /// work units.
    pub fn exceeded_err(&self, stage: Stage) -> CrError {
        if self.cancel.is_cancelled() {
            return CrError::BudgetExceeded {
                stage,
                spent: self.steps(),
                limit: 0,
            };
        }
        if let Some(limit) = self.stage_limits[stage as usize] {
            if self.stage_steps(stage) > limit {
                return CrError::BudgetExceeded {
                    stage,
                    spent: self.stage_steps(stage),
                    limit,
                };
            }
        }
        if let Some(limit) = self.max_steps {
            if self.steps() > limit {
                return CrError::BudgetExceeded {
                    stage,
                    spent: self.steps(),
                    limit,
                };
            }
        }
        if let Some(deadline) = self.deadline {
            let elapsed_ms = u64::try_from(self.elapsed().as_millis()).unwrap_or(u64::MAX);
            // Clamp to >= 1 so a sub-millisecond deadline cannot collide
            // with the `limit: 0` cancellation sentinel.
            let deadline_ms = u64::try_from(deadline.as_millis())
                .unwrap_or(u64::MAX)
                .max(1);
            if elapsed_ms >= deadline_ms || self.elapsed() > deadline {
                return CrError::BudgetExceeded {
                    stage,
                    spent: elapsed_ms.max(deadline_ms),
                    limit: deadline_ms,
                };
            }
        }
        // No guard is (still) tripped — e.g. the solver was interrupted by
        // a deadline that a coarse millisecond reading rounds away. Report
        // the step account.
        CrError::BudgetExceeded {
            stage,
            spent: self.steps(),
            limit: self.max_steps.unwrap_or_else(|| self.steps()),
        }
    }

    /// Deposits the interrupted stage's resumable state. Called by the
    /// fixpoint engine at every budget-trip exit; the latest offer wins
    /// (when the zenum oracle trips and the fallback fixpoint then trips
    /// too, the fixpoint frontier is the one worth checkpointing).
    pub fn offer_frontier(&self, stage: Stage, alive: &[bool]) {
        let mut slot = self.frontier.lock().unwrap_or_else(|e| e.into_inner());
        *slot = Some(Frontier {
            stage,
            alive: alive.to_vec(),
        });
    }

    /// Takes the resumable state deposited by the interrupted run, if any.
    /// The slot is cleared so a later error cannot be misattributed to a
    /// stale frontier.
    pub fn take_frontier(&self) -> Option<Frontier> {
        self.frontier
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
    }

    /// Records that this run was resumed from a checkpoint taken at
    /// `steps` charged units, and bumps [`Counter::Resumes`]. Surfaces in
    /// [`run_report`] as the `resumed_from_step` field.
    pub fn note_resumed_from(&self, steps: u64) {
        let mut slot = self.resumed_from.lock().unwrap_or_else(|e| e.into_inner());
        *slot = Some(steps);
        self.tracer.add(Counter::Resumes, 1);
    }

    /// The checkpointed step count this run resumed from, if any.
    pub fn resumed_from(&self) -> Option<u64> {
        *self.resumed_from.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A [`WorkBudget`] view that attributes solver work to `stage`, so a
    /// per-stage limit also bounds the LP pivots that stage performs.
    pub fn stage(&self, stage: Stage) -> StageBudget<'_> {
        StageBudget {
            budget: self,
            stage,
        }
    }
}

/// Direct [`WorkBudget`] use of a budget charges [`Stage::Simplex`].
impl WorkBudget for Budget {
    fn consume(&self, units: u64) -> bool {
        self.tracer.add(Counter::SimplexPivots, units);
        self.charge(Stage::Simplex, units).is_ok()
    }

    fn note_tableau(&self, rows: usize, cols: usize) {
        note_tableau_metrics(&self.tracer, rows, cols);
    }

    fn note_peak_entries(&self, entries: usize) {
        self.note_allocation(tableau_bytes(entries));
    }
}

/// A view of a [`Budget`] that books solver work under an enclosing
/// pipeline stage (see [`Budget::stage`]).
pub struct StageBudget<'b> {
    budget: &'b Budget,
    stage: Stage,
}

impl WorkBudget for StageBudget<'_> {
    fn consume(&self, units: u64) -> bool {
        // Units flowing through the solver's WorkBudget are pivots (the
        // pivot loop is the only `consume` caller in cr-linear), whatever
        // stage they are booked to.
        self.budget.tracer.add(Counter::SimplexPivots, units);
        self.budget.charge(self.stage, units).is_ok()
    }

    fn note_tableau(&self, rows: usize, cols: usize) {
        note_tableau_metrics(&self.budget.tracer, rows, cols);
    }

    fn note_peak_entries(&self, entries: usize) {
        self.budget.note_allocation(tableau_bytes(entries));
    }
}

/// One solver entry announces one tableau: count the solve and track peak
/// problem dimensions.
fn note_tableau_metrics(tracer: &Tracer, rows: usize, cols: usize) {
    tracer.add(Counter::SimplexSolves, 1);
    tracer.record_max(Counter::MaxTableauRows, rows as u64);
    tracer.record_max(Counter::MaxTableauCols, cols as u64);
}

/// The allocation estimate for a simplex tableau that stored `entries`
/// `(column, value)` pairs at once: each entry's inline size. The limbs
/// behind each rational live on the heap and are not counted.
fn tableau_bytes(entries: usize) -> u64 {
    (entries * std::mem::size_of::<(usize, Rational)>()) as u64
}

/// A [`WorkBudget`] that never refuses work but meters it into a
/// [`Tracer`] — for solver calls that must stay ungoverned (pure probes
/// outside any budgeted stage) yet should still show up in pivot counts.
pub struct TracerMeter<'t> {
    tracer: &'t Tracer,
}

impl<'t> TracerMeter<'t> {
    /// A meter recording into `tracer`.
    pub fn new(tracer: &'t Tracer) -> TracerMeter<'t> {
        TracerMeter { tracer }
    }
}

impl WorkBudget for TracerMeter<'_> {
    fn consume(&self, units: u64) -> bool {
        self.tracer.add(Counter::SimplexPivots, units);
        true
    }

    fn note_tableau(&self, rows: usize, cols: usize) {
        note_tableau_metrics(self.tracer, rows, cols);
    }

    fn note_peak_entries(&self, entries: usize) {
        self.tracer
            .record_max(Counter::PeakAllocBytes, tableau_bytes(entries));
    }
}

/// Builds a [`RunReport`] joining the tracer's spans/counters with the
/// budget's per-stage step accounts and peak-allocation estimate.
///
/// This is *the* way to snapshot a governed run: [`Tracer::report`] alone
/// knows nothing about budgets, so its `budget_steps` and
/// `budget_charged_units` fields would stay zero. Stages appear in the
/// report if they recorded a span or charged at least one unit.
pub fn run_report(budget: &Budget, command: &str, outcome: &str) -> RunReport {
    let tracer = budget.tracer();
    let mut report = tracer.report(command, outcome);
    for stage in Stage::ALL {
        let steps = budget.stage_steps(stage);
        if steps > 0 || report.stage(stage.as_str()).is_some() {
            report.set_stage_steps(stage.as_str(), steps);
        }
    }
    report.set_counter(Counter::BudgetChargedUnits.as_str(), budget.steps());
    let peak = budget
        .peak_allocation_estimate()
        .max(tracer.counter(Counter::PeakAllocBytes));
    report.set_counter(Counter::PeakAllocBytes.as_str(), peak);
    report.resumed_from_step = budget.resumed_from();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let b = Budget::unlimited();
        for _ in 0..1000 {
            b.charge(Stage::Expansion, 1_000_000).unwrap();
        }
        assert_eq!(b.steps(), 1_000_000_000);
    }

    #[test]
    fn global_step_limit_trips_with_attribution() {
        let b = Budget::unlimited().with_max_steps(10);
        for _ in 0..10 {
            b.charge(Stage::Fixpoint, 1).unwrap();
        }
        let err = b.charge(Stage::Fixpoint, 1).unwrap_err();
        assert_eq!(
            err,
            CrError::BudgetExceeded {
                stage: Stage::Fixpoint,
                spent: 11,
                limit: 10
            }
        );
    }

    #[test]
    fn stage_limits_are_independent() {
        let b = Budget::unlimited().with_stage_limit(Stage::ZEnumeration, 2);
        b.charge(Stage::ZEnumeration, 2).unwrap();
        assert!(b.charge(Stage::ZEnumeration, 1).is_err());
        // Other stages keep working after one stage is exhausted.
        b.charge(Stage::Fixpoint, 1_000).unwrap();
        b.charge(Stage::Expansion, 1_000).unwrap();
    }

    #[test]
    fn manual_clock_deadline() {
        let clock = ManualClock::new();
        let b = Budget::unlimited()
            .with_deadline(Duration::from_millis(50))
            .with_manual_clock(&clock);
        b.charge(Stage::Expansion, 1).unwrap();
        clock.advance(Duration::from_millis(51));
        let err = b.charge(Stage::Expansion, 1).unwrap_err();
        assert_eq!(
            err,
            CrError::BudgetExceeded {
                stage: Stage::Expansion,
                spent: 51,
                limit: 50
            }
        );
    }

    #[test]
    fn cancellation_trips_everything() {
        let token = CancelToken::new();
        let b = Budget::unlimited().with_cancel_token(&token);
        b.charge(Stage::Model, 5).unwrap();
        token.cancel();
        for stage in Stage::ALL {
            let err = b.check(stage).unwrap_err();
            assert!(matches!(err, CrError::BudgetExceeded { limit: 0, .. }));
        }
    }

    #[test]
    fn stage_budget_books_to_stage() {
        let b = Budget::unlimited().with_stage_limit(Stage::Fixpoint, 3);
        let view = b.stage(Stage::Fixpoint);
        assert!(view.consume(3));
        assert!(!view.consume(1));
        assert_eq!(b.stage_steps(Stage::Fixpoint), 4);
        assert_eq!(b.stage_steps(Stage::Simplex), 0);
    }

    #[test]
    fn peak_allocation_keeps_max() {
        let b = Budget::unlimited();
        b.note_allocation(10);
        b.note_allocation(500);
        b.note_allocation(20);
        assert_eq!(b.peak_allocation_estimate(), 500);
    }

    #[test]
    fn allocation_estimate_follows_stored_tableau_entries() {
        use cr_linear::{solve_governed, Cmp, LinExpr, LinSystem};
        // x_i <= 1 for n variables: n structural and n slack columns, but
        // only two stored entries per row, and the slack basis needs no
        // pivot to change that.
        let n = 12;
        let mut sys = LinSystem::new();
        for x in sys.add_nonneg_vars(n) {
            sys.push(LinExpr::var(x), Cmp::Le, Rational::one());
        }
        let b = Budget::unlimited();
        let solved = solve_governed(&sys, &b.stage(Stage::Fixpoint)).unwrap();
        assert!(solved.is_feasible());
        assert_eq!(b.peak_allocation_estimate(), tableau_bytes(2 * n));
        assert!(b.peak_allocation_estimate() < tableau_bytes(n * 2 * n));
    }

    #[test]
    fn run_report_joins_budget_and_tracer() {
        use cr_trace::NullSink;
        let tracer = Tracer::new(Box::new(NullSink));
        let b = Budget::unlimited().with_tracer(&tracer);
        b.charge(Stage::Expansion, 21).unwrap();
        b.note_allocation(4096);
        {
            let _span = b.tracer().span("expansion");
        }
        // Simplex work through the WorkBudget face is metered as pivots.
        assert!(b.stage(Stage::Fixpoint).consume(5));
        b.stage(Stage::Fixpoint).note_tableau(8, 13);
        let report = run_report(&b, "test", "ok");
        let expansion = report.stage("expansion").unwrap();
        assert_eq!(expansion.budget_steps, 21);
        assert_eq!(expansion.calls, 1);
        assert_eq!(report.stage("fixpoint").unwrap().budget_steps, 5);
        assert_eq!(report.stage("model"), None, "idle stages stay out");
        assert_eq!(report.counter("budget_charged_units"), Some(26));
        assert_eq!(report.counter("peak_alloc_bytes"), Some(4096));
        assert_eq!(report.counter("simplex_pivots"), Some(5));
        assert_eq!(report.counter("simplex_solves"), Some(1));
        assert_eq!(report.counter("max_tableau_rows"), Some(8));
        assert_eq!(report.counter("max_tableau_cols"), Some(13));
    }

    #[test]
    fn tracer_meter_counts_but_never_refuses() {
        use cr_trace::NullSink;
        let tracer = Tracer::new(Box::new(NullSink));
        let meter = TracerMeter::new(&tracer);
        assert!(meter.consume(1_000_000_000));
        assert!(meter.consume(1));
        meter.note_tableau(3, 4);
        meter.note_peak_entries(5);
        assert_eq!(tracer.counter(Counter::SimplexPivots), 1_000_000_001);
        assert_eq!(tracer.counter(Counter::SimplexSolves), 1);
        assert_eq!(tracer.counter(Counter::PeakAllocBytes), tableau_bytes(5));
    }

    #[test]
    fn manual_clock_shares_nanos_with_tracer() {
        use cr_trace::NullSink;
        let clock = ManualClock::new();
        let tracer = Tracer::manual(Box::new(NullSink), clock.shared_nanos());
        clock.advance(Duration::from_millis(3));
        assert_eq!(tracer.elapsed(), Duration::from_millis(3));
    }

    #[test]
    fn stage_names_are_stable() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.as_str()).collect();
        assert_eq!(
            names,
            [
                "expansion",
                "fixpoint",
                "zenum",
                "simplex",
                "implication",
                "model"
            ]
        );
    }
}
