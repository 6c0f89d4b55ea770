//! Worker supervision: wedge detection for in-flight requests and
//! quarantine of poison (crash-looping) schemas.
//!
//! Two registries, both consulted by the supervisor thread the server
//! runs alongside its worker pool:
//!
//! * [`InflightRegistry`] — every reasoning request (`check`, `implies`,
//!   `pin_base`, `check_delta`) registers its per-request [`CancelToken`]
//!   on pickup. A request that declared a deadline gets a *wedge time*:
//!   deadline + grace. If it is still running past that, the supervisor
//!   trips its token — the budget governor then surfaces an honest
//!   `budget-exceeded`, never a wrong verdict. Requests without a deadline
//!   are never wedge-tripped: from outside, a legitimate EXPTIME run and a
//!   wedge are indistinguishable, and only the client knows how long it is
//!   willing to wait.
//! * [`PoisonTracker`] — schemas (by canonical hash) whose evaluation has
//!   *panicked* repeatedly are quarantined: further requests for them get
//!   an immediate error instead of crash-looping a worker. Panics, not
//!   budget trips — a slow schema is the workload, a panicking one is a
//!   bug being retried forever.

use std::collections::{HashMap, HashSet};
use std::sync::Mutex;
use std::time::Duration;

use cr_core::budget::CancelToken;
use cr_core::Clock;

/// Pipeline panics for one schema before it is quarantined.
pub const POISON_THRESHOLD: u32 = 3;

/// Extra time past a request's declared deadline before the supervisor
/// calls it wedged and trips its cancel token. Generous on purpose: the
/// budget governor should normally win this race; the supervisor is the
/// backstop for a worker stuck somewhere the governor is not consulted.
pub const WEDGE_GRACE: Duration = Duration::from_millis(1000);

struct InflightEntry {
    cancel: CancelToken,
    /// Clock reading past which the supervisor may declare this request
    /// wedged (requests without a deadline have none and are never
    /// tripped).
    wedge_at: Option<Duration>,
}

/// Registry of currently-executing requests, keyed by a server-assigned
/// sequence number. Wedge timers read the injected [`Clock`] so they run
/// on virtual time under deterministic simulation.
#[derive(Default)]
pub struct InflightRegistry {
    clock: Clock,
    inner: Mutex<HashMap<u64, InflightEntry>>,
}

impl InflightRegistry {
    /// A registry whose wedge timers read `clock`.
    pub fn with_clock(clock: Clock) -> InflightRegistry {
        InflightRegistry {
            clock,
            inner: Mutex::new(HashMap::new()),
        }
    }

    /// Registers a picked-up request. `deadline_left` is what remains of
    /// its declared deadline (None = no deadline, never wedge-tripped).
    pub fn register(&self, seq: u64, cancel: CancelToken, deadline_left: Option<Duration>) {
        let entry = InflightEntry {
            cancel,
            wedge_at: deadline_left.map(|d| self.clock.now().saturating_add(d + WEDGE_GRACE)),
        };
        self.lock().insert(seq, entry);
    }

    /// Removes a finished request.
    pub fn deregister(&self, seq: u64) {
        self.lock().remove(&seq);
    }

    /// Trips the cancel token of every request past its wedge time;
    /// returns how many were tripped. Tripped entries stay registered
    /// (the worker is still on them) but are not tripped twice.
    pub fn trip_wedged(&self) -> u64 {
        let now = self.clock.now();
        let mut tripped = 0;
        for entry in self.lock().values_mut() {
            if let Some(at) = entry.wedge_at {
                if now >= at && !entry.cancel.is_cancelled() {
                    entry.cancel.cancel();
                    tripped += 1;
                }
            }
        }
        tripped
    }

    /// Trips every in-flight request's token (drain/shutdown path).
    pub fn cancel_all(&self) -> u64 {
        let mut tripped = 0;
        for entry in self.lock().values() {
            if !entry.cancel.is_cancelled() {
                entry.cancel.cancel();
                tripped += 1;
            }
        }
        tripped
    }

    /// Currently registered requests (stats surface).
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when no request is executing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, InflightEntry>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Tracks schemas whose evaluation panics, quarantining repeat offenders
/// by canonical hash.
#[derive(Default)]
pub struct PoisonTracker {
    inner: Mutex<PoisonState>,
}

#[derive(Default)]
struct PoisonState {
    crashes: HashMap<u128, u32>,
    quarantined: HashSet<u128>,
}

impl PoisonTracker {
    /// Records one pipeline panic for `schema_hash`; returns true when
    /// this crossing quarantined the schema.
    pub fn note_crash(&self, schema_hash: u128) -> bool {
        let mut state = self.lock();
        let count = state.crashes.entry(schema_hash).or_insert(0);
        *count += 1;
        if *count >= POISON_THRESHOLD && !state.quarantined.contains(&schema_hash) {
            state.quarantined.insert(schema_hash);
            return true;
        }
        false
    }

    /// True when `schema_hash` is quarantined: reject it up front instead
    /// of handing it to a worker again.
    pub fn is_quarantined(&self, schema_hash: u128) -> bool {
        self.lock().quarantined.contains(&schema_hash)
    }

    /// Quarantined schemas so far (stats surface).
    pub fn quarantined_count(&self) -> usize {
        self.lock().quarantined.len()
    }

    /// The quarantined canonical hashes, sorted (the `/statusz`
    /// quarantine list — operators need *which* schemas are poisoned,
    /// not just how many).
    pub fn quarantined_hashes(&self) -> Vec<u128> {
        let mut hashes: Vec<u128> = self.lock().quarantined.iter().copied().collect();
        hashes.sort_unstable();
        hashes
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PoisonState> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wedge_trips_only_past_deadline_plus_grace() {
        let reg = InflightRegistry::default();
        let with_deadline = CancelToken::new();
        let without = CancelToken::new();
        // Already past its wedge time: deadline_left of zero plus a grace
        // we can't wait out in a test — register with a tiny negative-ish
        // remainder by using Duration::ZERO and checking after grace.
        reg.register(1, with_deadline.clone(), Some(Duration::ZERO));
        reg.register(2, without.clone(), None);
        assert_eq!(reg.trip_wedged(), 0, "grace must hold first");
        std::thread::sleep(WEDGE_GRACE + Duration::from_millis(50));
        assert_eq!(reg.trip_wedged(), 1);
        assert!(with_deadline.is_cancelled());
        assert!(
            !without.is_cancelled(),
            "no deadline means never wedge-tripped"
        );
        // Idempotent: an already-tripped entry is not counted again.
        assert_eq!(reg.trip_wedged(), 0);
        reg.deregister(1);
        reg.deregister(2);
        assert!(reg.is_empty());
    }

    #[test]
    fn cancel_all_trips_everything_once() {
        let reg = InflightRegistry::default();
        let a = CancelToken::new();
        let b = CancelToken::new();
        reg.register(1, a.clone(), None);
        reg.register(2, b.clone(), Some(Duration::from_secs(60)));
        assert_eq!(reg.cancel_all(), 2);
        assert!(a.is_cancelled() && b.is_cancelled());
        assert_eq!(reg.cancel_all(), 0);
    }

    #[test]
    fn poison_quarantines_on_the_threshold_crossing() {
        let tracker = PoisonTracker::default();
        let hash = 0xfeed_beefu128;
        for _ in 0..POISON_THRESHOLD - 1 {
            assert!(!tracker.note_crash(hash));
            assert!(!tracker.is_quarantined(hash));
        }
        assert!(tracker.note_crash(hash), "threshold crossing quarantines");
        assert!(tracker.is_quarantined(hash));
        // Further crashes don't re-announce the quarantine.
        assert!(!tracker.note_crash(hash));
        assert_eq!(tracker.quarantined_count(), 1);
        assert_eq!(tracker.quarantined_hashes(), vec![hash]);
        assert!(!tracker.is_quarantined(0x0dd_ba11));
    }
}
