//! Request coalescing (singleflight): concurrent requests for the same
//! (canonical form, question) join one in-flight computation.
//!
//! The first arrival becomes the *leader* and computes; arrivals while
//! the leader runs become *followers* and block on a condvar until the
//! leader publishes its answer. Only conclusive, cacheable verdicts are
//! shared — a leader that errors, trips its budget, or panics publishes
//! "nothing" and every follower falls back to computing for itself, so a
//! follower can never inherit an outcome produced under someone else's
//! budget. Followers always wait under their own deadline; a timed-out
//! follower also computes for itself.
//!
//! Deadlock-free by construction: a follower only ever waits on a leader
//! that is *already running* on another worker (the leader registers
//! before it starts computing and publishes on every exit path,
//! including unwind, via the guard's `Drop`).

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use cr_core::Clock;

use crate::cache::{CacheKey, CachedVerdict};

enum FlightState {
    Running,
    /// The leader's published answer: `Some` only for conclusive,
    /// cacheable verdicts; `None` tells followers to compute themselves.
    Done(Option<CachedVerdict>),
}

/// One in-flight computation: the leader's eventual answer and the
/// condvar followers park on.
pub struct Flight {
    clock: Clock,
    state: Mutex<FlightState>,
    done: Condvar,
}

/// The table of in-flight computations. Follower deadlines read the
/// injected [`Clock`] so they run on virtual time under deterministic
/// simulation (where the single sim thread never actually parks: the
/// leader always publishes synchronously before a follower could wait).
#[derive(Default)]
pub struct Inflight {
    clock: Clock,
    flights: Mutex<HashMap<CacheKey, Arc<Flight>>>,
}

/// What `begin` decided for this request.
pub enum Entry<'a> {
    /// First arrival: compute, then `publish` through the guard.
    Leader(LeaderGuard<'a>),
    /// Another request is already computing this key: `wait` on it.
    Follower(Arc<Flight>),
}

/// Leadership of one in-flight key. Publishes `None` on drop if the
/// leader never published (panic safety: followers are always released).
pub struct LeaderGuard<'a> {
    inflight: &'a Inflight,
    key: CacheKey,
    published: bool,
}

impl Inflight {
    /// A table whose follower waits read `clock`.
    pub fn with_clock(clock: Clock) -> Inflight {
        Inflight {
            clock,
            flights: Mutex::new(HashMap::new()),
        }
    }

    /// Joins or starts the flight for `key`.
    pub fn begin(&self, key: CacheKey) -> Entry<'_> {
        let mut flights = self.lock();
        match flights.get(&key) {
            Some(flight) => Entry::Follower(Arc::clone(flight)),
            None => {
                flights.insert(
                    key.clone(),
                    Arc::new(Flight {
                        clock: self.clock.clone(),
                        state: Mutex::new(FlightState::Running),
                        done: Condvar::new(),
                    }),
                );
                Entry::Leader(LeaderGuard {
                    inflight: self,
                    key,
                    published: false,
                })
            }
        }
    }

    /// Number of in-flight keys (stats/test aid).
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<CacheKey, Arc<Flight>>> {
        self.flights.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn finish(&self, key: &CacheKey, answer: Option<CachedVerdict>) {
        let flight = self.lock().remove(key);
        if let Some(flight) = flight {
            let mut state = flight.state.lock().unwrap_or_else(|e| e.into_inner());
            *state = FlightState::Done(answer);
            flight.done.notify_all();
        }
    }
}

impl LeaderGuard<'_> {
    /// Publishes the leader's answer (pass `None` for outcomes followers
    /// must not inherit) and releases every follower.
    pub fn publish(mut self, answer: Option<CachedVerdict>) {
        self.published = true;
        self.inflight.finish(&self.key, answer);
    }
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        if !self.published {
            // Leader unwound without publishing: release followers with
            // "compute it yourself".
            self.inflight.finish(&self.key, None);
        }
    }
}

impl Flight {
    /// Follower side: waits until the leader publishes or `deadline`
    /// passes. `None` means timed out (or the leader published nothing):
    /// compute for yourself.
    pub fn wait(&self, deadline: Duration) -> Option<CachedVerdict> {
        let until = self.clock.now().saturating_add(deadline);
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let FlightState::Done(answer) = &*state {
                return answer.clone();
            }
            let now = self.clock.now();
            if now >= until {
                return None;
            }
            let remaining = until - now;
            let (next, timeout) = self
                .done
                .wait_timeout(state, remaining)
                .unwrap_or_else(|e| e.into_inner());
            state = next;
            if timeout.timed_out() {
                if let FlightState::Done(answer) = &*state {
                    return answer.clone();
                }
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Status;

    fn key(tag: &str) -> CacheKey {
        CacheKey {
            canonical: format!("schema-{tag}"),
            question: "check".to_string(),
        }
    }

    fn verdict(tag: &str) -> CachedVerdict {
        CachedVerdict {
            status: Status::Ok,
            verdict: format!("satisfiable-{tag}"),
            detail: Vec::new(),
            trace_id: None,
        }
    }

    #[test]
    fn followers_receive_the_leaders_answer() {
        let inflight = Arc::new(Inflight::default());
        let Entry::Leader(leader) = inflight.begin(key("a")) else {
            panic!("first arrival must lead");
        };
        let mut followers = Vec::new();
        for _ in 0..4 {
            let Entry::Follower(flight) = inflight.begin(key("a")) else {
                panic!("second arrival must follow");
            };
            followers.push(std::thread::spawn(move || {
                flight.wait(Duration::from_secs(10))
            }));
        }
        leader.publish(Some(verdict("a")));
        for f in followers {
            assert_eq!(f.join().unwrap(), Some(verdict("a")));
        }
        assert!(inflight.is_empty(), "finished flights must be removed");
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let inflight = Inflight::default();
        let Entry::Leader(a) = inflight.begin(key("a")) else {
            panic!("lead a");
        };
        let Entry::Leader(b) = inflight.begin(key("b")) else {
            panic!("distinct key must lead its own flight");
        };
        a.publish(Some(verdict("a")));
        b.publish(None);
        assert!(inflight.is_empty());
    }

    #[test]
    fn dropped_leader_releases_followers_empty_handed() {
        let inflight = Inflight::default();
        {
            let Entry::Leader(_leader) = inflight.begin(key("x")) else {
                panic!("lead");
            };
            // Simulated panic: the guard drops without publishing.
        }
        assert!(inflight.is_empty());
        // The key is free again: the next arrival leads.
        assert!(matches!(inflight.begin(key("x")), Entry::Leader(_)));
    }

    #[test]
    fn follower_times_out_against_a_stuck_leader() {
        let inflight = Inflight::default();
        let Entry::Leader(_leader) = inflight.begin(key("slow")) else {
            panic!("lead");
        };
        let Entry::Follower(flight) = inflight.begin(key("slow")) else {
            panic!("follow");
        };
        assert_eq!(flight.wait(Duration::from_millis(20)), None);
    }
}
