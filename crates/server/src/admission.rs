//! Admission control: deadline screening, cost estimation, and adaptive
//! (AIMD) load shedding.
//!
//! Every reasoning request (`check`, `implies`, `pin_base`,
//! `check_delta`) passes through [`Admission::admit`] before it is
//! queued. A request is refused — with the retryable `shed` status, never
//! a wrong answer — when:
//!
//! 1. its `deadline_ms` has already expired (or is zero) on arrival;
//! 2. the current queue delay alone would consume its whole deadline;
//! 3. the *estimated compute cost* for a schema of its size (an EWMA of
//!    recent fresh-compute wall times, bucketed by source length) cannot
//!    fit in what would remain of the deadline after queueing; or
//! 4. its priority falls in the band the overload gate is currently
//!    shedding.
//!
//! The gate is AIMD, driven by observed queue delay: when the EWMA of
//! time-in-queue exceeds the target, the shed threshold drops
//! multiplicatively (9 → 4 → 2 → 1 → 0: each cut halves the admitted
//! priority band, shedding the least-important half first); while the
//! queue stays calm it recovers additively, one priority band per
//! supervisor relax tick. Threshold 9 (= `MAX_PRIORITY`) admits
//! everything; 0 admits only the most important band.
//!
//! Cost screening (rule 3) only engages while the gate is depressed —
//! under no load a mispredicted estimate must not reject work the worker
//! pool could happily attempt, and a budget trip downstream already
//! reports `budget-exceeded` honestly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use cr_core::Clock;

use crate::protocol::MAX_PRIORITY;

/// The daemon's queue-delay target, in milliseconds: sustained delay
/// above it sheds low-priority work.
pub(crate) const SHED_TARGET_MS: u64 = 50;

/// Queue-delay EWMA smoothing factor, in percent (α = 0.2).
const EWMA_ALPHA_PCT: u64 = 20;

/// Minimum spacing between multiplicative cuts, so one burst of queued
/// requests (which all report the same bad delay at pickup) counts as one
/// overload signal, not ten.
const CUT_COOLDOWN: Duration = Duration::from_millis(250);

/// Source-length bucket boundaries (bytes) for the cost model. Schemas in
/// the same bucket are assumed cost-comparable; the reasoner's spiky
/// worst-case EXPTIME behaviour is exactly why this is an *estimate* used
/// only to refuse work that provably cannot fit its deadline.
const COST_BUCKETS: [usize; 6] = [256, 1024, 4096, 16_384, 65_536, usize::MAX];

/// What [`Admission::admit`] decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admit {
    /// Queue it.
    Accept,
    /// Refuse with `shed`.
    Shed {
        /// Client-visible reason line.
        reason: String,
        /// True when the refusal was deadline-driven (expired or cannot
        /// fit) rather than pure overload shedding — the server counts
        /// these separately.
        deadline: bool,
    },
}

impl Admit {
    fn shed(reason: String, deadline: bool) -> Admit {
        Admit::Shed { reason, deadline }
    }
}

/// Shared admission state (one per server).
pub struct Admission {
    /// Highest priority value still admitted; `MAX_PRIORITY` = gate open.
    shed_threshold: AtomicU64,
    /// Queue-delay EWMA, microseconds.
    queue_delay_us: AtomicU64,
    /// Queue delay above which the gate tightens, microseconds.
    target_us: u64,
    /// Caller-supplied time source: the cut cooldown must run on virtual
    /// time under deterministic simulation, not the wall clock.
    clock: Clock,
    /// Clock reading at the last multiplicative cut (rate limiter).
    last_cut: Mutex<Option<Duration>>,
    /// Fresh-compute wall-time EWMA per source-length bucket, µs.
    /// Zero = no observation yet.
    cost_us: [AtomicU64; COST_BUCKETS.len()],
}

impl Admission {
    /// Creates the gate with a queue-delay target (ms) on the real clock.
    pub fn new(shed_target_ms: u64) -> Admission {
        Admission::with_clock(shed_target_ms, Clock::monotonic())
    }

    /// Creates the gate on an explicit time source.
    pub fn with_clock(shed_target_ms: u64, clock: Clock) -> Admission {
        Admission {
            shed_threshold: AtomicU64::new(u64::from(MAX_PRIORITY)),
            queue_delay_us: AtomicU64::new(0),
            target_us: shed_target_ms.saturating_mul(1000),
            clock,
            last_cut: Mutex::new(None),
            cost_us: Default::default(),
        }
    }

    /// Admission decision for a reasoning request.
    ///
    /// `deadline_ms` is the request's declared end-to-end deadline (if
    /// any), `priority` its 0..=9 priority, `schema_len` its payload
    /// length in bytes (schema source plus diff lines).
    pub fn admit(&self, deadline_ms: Option<u64>, priority: u8, schema_len: usize) -> Admit {
        cr_faults::point!("server.admission.shed", |p: Option<String>| Admit::shed(
            p.unwrap_or_else(|| "injected shed".to_string()),
            false
        ));
        let queue_us = self.queue_delay_us.load(Ordering::Relaxed);
        if let Some(d) = deadline_ms {
            let deadline_us = d.saturating_mul(1000);
            if d == 0 {
                return Admit::shed("deadline expired on arrival".to_string(), true);
            }
            if queue_us >= deadline_us {
                return Admit::shed(
                    format!(
                        "deadline {d}ms cannot be met: queue delay is {}ms",
                        queue_us / 1000
                    ),
                    true,
                );
            }
            // Cost screen, only while the gate is already depressed: a
            // request whose *estimated* compute time does not fit in the
            // deadline minus expected queueing is refused up front rather
            // than burning a worker to report budget-exceeded later.
            if self.threshold() < MAX_PRIORITY {
                let est_us = self.cost_us[bucket_of(schema_len)].load(Ordering::Relaxed);
                if est_us > 0 && queue_us.saturating_add(est_us) > deadline_us {
                    return Admit::shed(
                        format!(
                            "deadline {d}ms cannot fit estimated cost {}ms (queue {}ms)",
                            est_us / 1000,
                            queue_us / 1000
                        ),
                        true,
                    );
                }
            }
        }
        let threshold = self.threshold();
        if priority > threshold {
            return Admit::shed(
                format!("overload: shedding priority > {threshold} (request priority {priority})"),
                false,
            );
        }
        Admit::Accept
    }

    /// Feeds one observed time-in-queue sample (measured at job pickup)
    /// and tightens the gate multiplicatively if the smoothed delay is
    /// over target.
    pub fn note_queue_delay(&self, delay: Duration) {
        let sample = u64::try_from(delay.as_micros()).unwrap_or(u64::MAX);
        let prev = self.queue_delay_us.load(Ordering::Relaxed);
        let ewma = if prev == 0 {
            sample
        } else {
            (prev * (100 - EWMA_ALPHA_PCT) + sample * EWMA_ALPHA_PCT) / 100
        };
        self.queue_delay_us.store(ewma, Ordering::Relaxed);
        if ewma > self.target_us {
            self.cut();
        }
    }

    /// A hard overload signal (the bounded queue refused a job): tighten
    /// the gate as if the queue delay were over target. Rate-limited like
    /// every multiplicative cut.
    pub fn note_overload(&self) {
        // Pull the delay estimate up to the target floor too, so the
        // deadline screen reflects that the queue is saturated even if no
        // pickup sample has reported it yet.
        let d = self.queue_delay_us.load(Ordering::Relaxed);
        if d < self.target_us {
            self.queue_delay_us.store(self.target_us, Ordering::Relaxed);
        }
        self.cut();
    }

    /// Additive-increase step, called from each supervisor tick: decay
    /// the queue-delay estimate (an idle queue produces no pickup
    /// samples, and a stale spike must not hold the gate shut — or keep
    /// shedding short-deadline work — forever), and once the smoothed
    /// delay is comfortably under target, re-admit one more priority
    /// band. Under real load the pickup samples keep pushing the EWMA
    /// back up, so the gate stays where the traffic says it should be.
    pub fn maybe_relax(&self) {
        let decayed = self.queue_delay_us.load(Ordering::Relaxed) / 2;
        self.queue_delay_us.store(decayed, Ordering::Relaxed);
        if decayed <= self.target_us / 2 {
            let t = self.shed_threshold.load(Ordering::Relaxed);
            if t < u64::from(MAX_PRIORITY) {
                self.shed_threshold.store(t + 1, Ordering::Relaxed);
            }
        }
    }

    /// Feeds one fresh-compute wall time for a schema of `schema_len`
    /// bytes into the cost model.
    pub fn note_compute_cost(&self, schema_len: usize, wall: Duration) {
        let sample = u64::try_from(wall.as_micros()).unwrap_or(u64::MAX);
        let slot = &self.cost_us[bucket_of(schema_len)];
        let prev = slot.load(Ordering::Relaxed);
        let ewma = if prev == 0 {
            sample
        } else {
            (prev * (100 - EWMA_ALPHA_PCT) + sample * EWMA_ALPHA_PCT) / 100
        };
        slot.store(ewma, Ordering::Relaxed);
    }

    /// Current shed threshold (9 = gate open).
    pub fn threshold(&self) -> u8 {
        u8::try_from(self.shed_threshold.load(Ordering::Relaxed)).unwrap_or(MAX_PRIORITY)
    }

    /// Current queue-delay EWMA, microseconds (stats surface).
    pub fn queue_delay_us(&self) -> u64 {
        self.queue_delay_us.load(Ordering::Relaxed)
    }

    /// Multiplicative decrease, rate-limited to one cut per cooldown.
    fn cut(&self) {
        let mut last = self.last_cut.lock().unwrap_or_else(|e| e.into_inner());
        let now = self.clock.now();
        if let Some(at) = *last {
            if now.saturating_sub(at) < CUT_COOLDOWN {
                return;
            }
        }
        *last = Some(now);
        let t = self.shed_threshold.load(Ordering::Relaxed);
        self.shed_threshold.store(t / 2, Ordering::Relaxed);
    }
}

fn bucket_of(schema_len: usize) -> usize {
    COST_BUCKETS
        .iter()
        .position(|&limit| schema_len <= limit)
        .unwrap_or(COST_BUCKETS.len() - 1)
}

/// Retry backoff for a shed (or queue-full) response, attempt `n` (0-based):
/// a jittered exponential delay in `[B(n), 1.5·B(n)]` with
/// `B(n) = min(10·2ⁿ, 1000)` ms. The jitter source is a tiny seeded
/// xorshift so tests are reproducible; `ci/serve_client.py` implements the
/// *same algorithm* (same base, cap, and jitter band) and a repo test
/// asserts the two stay in agreement.
pub fn backoff_delay(seed: &mut u64, attempt: u32) -> Duration {
    let base = 10u64.saturating_mul(1u64 << attempt.min(16)).min(1000);
    // xorshift64
    let mut x = *seed;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *seed = x;
    Duration::from_millis(base + x % (base / 2 + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_gate_admits_everything_without_deadlines() {
        let a = Admission::new(50);
        assert_eq!(a.admit(None, 0, 10), Admit::Accept);
        assert_eq!(a.admit(None, MAX_PRIORITY, 1 << 20), Admit::Accept);
        assert_eq!(a.threshold(), MAX_PRIORITY);
    }

    #[test]
    fn expired_on_arrival_is_shed() {
        let a = Admission::new(50);
        let Admit::Shed { reason, deadline } = a.admit(Some(0), 0, 10) else {
            panic!("deadline 0 must shed");
        };
        assert!(reason.contains("expired"));
        assert!(deadline, "expiry is a deadline-driven shed");
    }

    #[test]
    fn queue_delay_alone_can_doom_a_deadline() {
        let a = Admission::new(50);
        // Drive the EWMA to ~200ms of queue delay.
        for _ in 0..64 {
            a.note_queue_delay(Duration::from_millis(200));
        }
        assert!(matches!(
            a.admit(Some(100), 0, 10),
            Admit::Shed { deadline: true, .. }
        ));
        assert!(matches!(a.admit(Some(60_000), 0, 10), Admit::Accept));
    }

    #[test]
    fn overload_cuts_multiplicatively_and_recovers_additively() {
        let a = Admission::new(1); // 1ms target: trivially exceeded
        for _ in 0..8 {
            a.note_queue_delay(Duration::from_millis(500));
            std::thread::sleep(Duration::from_millis(260)); // past cooldown
            if a.threshold() == 0 {
                break;
            }
        }
        assert!(a.threshold() < MAX_PRIORITY, "gate must have tightened");
        let tightened = a.threshold();
        // High numbers shed first; an overload shed is not deadline-driven.
        assert!(matches!(
            a.admit(None, MAX_PRIORITY, 10),
            Admit::Shed {
                deadline: false,
                ..
            }
        ));
        assert!(matches!(a.admit(None, 0, 10), Admit::Accept));
        // Calm queue: relax one band per tick, eventually reopening.
        for _ in 0..64 {
            a.maybe_relax();
        }
        assert_eq!(a.threshold(), MAX_PRIORITY);
        assert!(a.threshold() > tightened);
    }

    #[test]
    fn cut_is_rate_limited() {
        let a = Admission::new(1);
        for _ in 0..10 {
            a.note_queue_delay(Duration::from_millis(500));
        }
        // A burst of bad samples within the cooldown = one cut (9 -> 4).
        assert_eq!(a.threshold(), 4);
    }

    #[test]
    fn cost_screen_engages_only_while_gate_is_depressed() {
        let a = Admission::new(1);
        a.note_compute_cost(100, Duration::from_millis(900));
        // Gate open: the 900ms estimate must not shed a 200ms deadline.
        assert!(matches!(a.admit(Some(200), 0, 100), Admit::Accept));
        // Depress the gate (queue delay ~500ms).
        for _ in 0..10 {
            a.note_queue_delay(Duration::from_millis(500));
        }
        assert!(a.threshold() < MAX_PRIORITY);
        // A 1s deadline survives the queue-delay screen (500ms < 1s) but
        // not queue + estimated cost (500ms + 900ms > 1s).
        let Admit::Shed { reason, deadline } = a.admit(Some(1000), 0, 100) else {
            panic!("estimated cost over deadline must shed under load");
        };
        assert!(reason.contains("estimated cost"), "{reason}");
        assert!(deadline);
    }

    #[test]
    fn backoff_delay_respects_documented_bounds() {
        let mut seed = 0x5eed_cafe;
        for attempt in 0..12 {
            let base = 10u64.saturating_mul(1 << attempt.min(16)).min(1000);
            for _ in 0..32 {
                let d = backoff_delay(&mut seed, attempt).as_millis() as u64;
                assert!(d >= base, "attempt {attempt}: {d} < {base}");
                assert!(d <= base + base / 2, "attempt {attempt}: {d} > 1.5x{base}");
            }
        }
    }
}
