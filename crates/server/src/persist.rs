//! The durable side of the verdict cache: a [`cr_store::Store`] holding
//! certified verdicts keyed by (canonical form, question).
//!
//! Trust model: **nothing enters the store without a certificate.** The
//! server only persists `check` verdicts that passed certification and
//! that agree with the certified unsat-class set, so a
//! record read back after a crash is as trustworthy as a fresh run —
//! integrity in transit is the log's CRC framing, integrity of *meaning*
//! is the certificate gate at write time. Rehydration therefore does not
//! re-certify; a torn tail is truncated by the log layer before any
//! record reaches us.
//!
//! Record layout (inside one CRC-framed log record):
//!
//! * key: `canonical_len:u32le canonical_bytes question_bytes`
//! * value: JSON `{"status":"ok","verdict":"satisfiable","detail":[…]}`
//!
//! The store is single-writer; this wrapper adds the `Mutex` (poison-
//! recovering, like the cache shards: the store's own state is valid
//! after any panic that unwound through a lock hold).

use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

use cr_store::{PutOutcome, Store, Vfs};
use cr_trace::json::{self, write_escaped, Value};

use crate::cache::CachedVerdict;
use crate::protocol::Status;

/// What recovery found when the store was opened (surfaced by the CLI as
/// a boot diagnostic, and asserted by the crash-recovery CI job).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreRecovery {
    /// Intact records replayed.
    pub recovered_records: u64,
    /// Bytes discarded from a torn/corrupt tail.
    pub truncated_bytes: u64,
    /// Whether the file header was unrecognized and the log rebuilt.
    pub rebuilt: bool,
}

/// A mutex-wrapped verdict store plus its recovery report.
pub(crate) struct PersistentStore {
    store: Mutex<Store>,
    recovery: StoreRecovery,
}

impl PersistentStore {
    /// Opens (creating as needed) `dir/verdicts.log` on the real
    /// filesystem with the default compaction threshold.
    #[cfg(test)]
    pub(crate) fn open(dir: &Path) -> Result<PersistentStore, String> {
        PersistentStore::open_on(cr_store::std_vfs(), dir, None)
    }

    /// Opens against an explicit filesystem and optional compaction
    /// threshold (the simulation injects a virtual disk and a tiny
    /// threshold to force compaction-triggered epoch resets).
    pub(crate) fn open_on(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        compact_threshold: Option<u64>,
    ) -> Result<PersistentStore, String> {
        vfs.create_dir_all(dir)
            .map_err(|e| format!("cache-dir {}: {e}", dir.display()))?;
        let path = dir.join("verdicts.log");
        let threshold = compact_threshold.unwrap_or(cr_store::DEFAULT_COMPACT_THRESHOLD);
        let store = Store::open_on(vfs, &path, threshold)
            .map_err(|e| format!("store {}: {e}", path.display()))?;
        let stats = store.stats();
        Ok(PersistentStore {
            recovery: StoreRecovery {
                recovered_records: stats.recovered_records,
                truncated_bytes: stats.truncated_bytes,
                rebuilt: stats.rebuilt,
            },
            store: Mutex::new(store),
        })
    }

    fn lock(&self) -> MutexGuard<'_, Store> {
        self.store.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The recovery report from this open.
    pub(crate) fn recovery(&self) -> StoreRecovery {
        self.recovery
    }

    /// Live persisted verdicts.
    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }

    /// Looks up a persisted verdict.
    pub(crate) fn lookup(&self, canonical: &str, question: &str) -> Option<CachedVerdict> {
        let key = encode_key(canonical, question);
        let store = self.lock();
        decode_verdict(store.get(&key)?)
    }

    /// Durably records a verdict (append + fsync). The caller has already
    /// certified it — see the module docs.
    pub(crate) fn persist(
        &self,
        canonical: &str,
        question: &str,
        verdict: &CachedVerdict,
    ) -> io::Result<PutOutcome> {
        let key = encode_key(canonical, question);
        let value = encode_verdict(verdict);
        let mut store = self.lock();
        let outcome = store.put(&key, value.as_bytes())?;
        store.sync()?;
        Ok(outcome)
    }

    /// Forces buffered appends to disk (drain-time flush; appends already
    /// sync individually, so this is a belt-and-suspenders no-op unless a
    /// sync failed mid-run).
    pub(crate) fn flush(&self) -> io::Result<()> {
        self.lock().sync()
    }

    /// Forces a compaction regardless of the threshold (admin hook;
    /// the simulation uses it to exercise epoch-reset resyncs).
    pub(crate) fn compact(&self) -> io::Result<()> {
        self.lock().compact()
    }

    /// Current log length in bytes (replication position high-water mark).
    pub(crate) fn log_bytes(&self) -> u64 {
        self.lock().log_bytes()
    }

    /// Current log epoch (compaction count). Replication offsets are only
    /// comparable within one epoch: compaction rewrites the file.
    pub(crate) fn epoch(&self) -> u64 {
        self.lock().epoch()
    }

    /// Reads up to `max_len` raw log bytes starting at `offset` for
    /// shipping to a standby; returns the bytes and the current log length.
    pub(crate) fn read_range(&self, offset: u64, max_len: usize) -> io::Result<(Vec<u8>, u64)> {
        self.lock().read_range(offset, max_len)
    }

    /// Decodes every persisted entry for boot-time cache rehydration.
    /// Entries that fail to decode (future formats) are skipped, not
    /// fatal.
    pub(crate) fn entries(&self) -> Vec<(String, String, CachedVerdict)> {
        let store = self.lock();
        let mut out = Vec::with_capacity(store.len());
        for (key, value) in store.iter() {
            let Some((canonical, question)) = decode_key(key) else {
                continue;
            };
            let Some(verdict) = decode_verdict(value) else {
                continue;
            };
            out.push((canonical.to_string(), question.to_string(), verdict));
        }
        out
    }
}

fn encode_key(canonical: &str, question: &str) -> Vec<u8> {
    let mut key = Vec::with_capacity(4 + canonical.len() + question.len());
    key.extend_from_slice(&(canonical.len() as u32).to_le_bytes());
    key.extend_from_slice(canonical.as_bytes());
    key.extend_from_slice(question.as_bytes());
    key
}

/// Splits a store key back into (canonical, question). Also used by the
/// standby to warm its cache from replicated log records.
pub(crate) fn decode_key(key: &[u8]) -> Option<(&str, &str)> {
    let clen = u32::from_le_bytes(key.get(0..4)?.try_into().ok()?) as usize;
    let canonical = std::str::from_utf8(key.get(4..4 + clen)?).ok()?;
    let question = std::str::from_utf8(key.get(4 + clen..)?).ok()?;
    Some((canonical, question))
}

fn encode_verdict(verdict: &CachedVerdict) -> String {
    let mut out = String::with_capacity(64);
    out.push_str("{\"status\":");
    write_escaped(&mut out, verdict.status.as_str());
    out.push_str(",\"verdict\":");
    write_escaped(&mut out, &verdict.verdict);
    out.push_str(",\"detail\":[");
    for (i, d) in verdict.detail.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_escaped(&mut out, d);
    }
    out.push(']');
    if let Some(id) = &verdict.trace_id {
        out.push_str(",\"trace_id\":");
        write_escaped(&mut out, id);
    }
    out.push('}');
    out
}

/// Decodes a stored verdict value. Also used by the standby to warm its
/// cache from replicated log records.
pub(crate) fn decode_verdict(value: &[u8]) -> Option<CachedVerdict> {
    let text = std::str::from_utf8(value).ok()?;
    let v = json::parse(text).ok()?;
    let status = match v.get("status").and_then(Value::as_str)? {
        "ok" => Status::Ok,
        "negative" => Status::Negative,
        // Only conclusive verdicts are ever persisted; anything else is a
        // future format this build doesn't serve.
        _ => return None,
    };
    let verdict = v.get("verdict").and_then(Value::as_str)?.to_string();
    let mut detail = Vec::new();
    for d in v.get("detail").and_then(Value::as_arr)? {
        detail.push(d.as_str()?.to_string());
    }
    let trace_id = v
        .get("trace_id")
        .and_then(Value::as_str)
        .map(str::to_string);
    Some(CachedVerdict {
        status,
        verdict,
        detail,
        trace_id,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let h = tag.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        let dir = std::env::temp_dir().join(format!("cr-server-persist-{tag}-{h:x}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn verdict(status: Status, verdict: &str, detail: &[&str]) -> CachedVerdict {
        CachedVerdict {
            status,
            verdict: verdict.to_string(),
            detail: detail.iter().map(|s| s.to_string()).collect(),
            trace_id: None,
        }
    }

    #[test]
    fn persisted_verdicts_survive_reopen() {
        let dir = tmp("reopen");
        let canonical = "class\tA\nclass\tB\n";
        {
            let store = PersistentStore::open(&dir).expect("open");
            store
                .persist(canonical, "check", &verdict(Status::Ok, "satisfiable", &[]))
                .expect("persist sat");
            store
                .persist(
                    canonical,
                    "implies q",
                    &verdict(Status::Negative, "unsatisfiable", &["B", "rel R"]),
                )
                .expect("persist unsat");
        }
        let store = PersistentStore::open(&dir).expect("reopen");
        assert_eq!(store.recovery().truncated_bytes, 0);
        assert_eq!(store.len(), 2);
        let sat = store.lookup(canonical, "check").expect("sat survives");
        assert_eq!(sat.status, Status::Ok);
        assert_eq!(sat.verdict, "satisfiable");
        let unsat = store
            .lookup(canonical, "implies q")
            .expect("unsat survives");
        assert_eq!(unsat.detail, vec!["B".to_string(), "rel R".to_string()]);
        assert_eq!(store.lookup(canonical, "other"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_roundtrip_for_rehydration() {
        let dir = tmp("entries");
        let store = PersistentStore::open(&dir).expect("open");
        store
            .persist("c1\n", "check", &verdict(Status::Ok, "satisfiable", &[]))
            .expect("persist");
        store
            .persist(
                "c2\n",
                "check",
                &verdict(Status::Negative, "unsatisfiable", &["X"]),
            )
            .expect("persist");
        let mut entries = store.entries();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].0, "c1\n");
        assert_eq!(entries[0].1, "check");
        assert_eq!(entries[1].2.detail, vec!["X".to_string()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_id_rides_the_persisted_record() {
        let dir = tmp("traceid");
        let canonical = "class A;\n";
        let id = "00112233445566778899aabbccddeeff";
        {
            let store = PersistentStore::open(&dir).expect("open");
            let mut v = verdict(Status::Ok, "satisfiable", &[]);
            v.trace_id = Some(id.to_string());
            store.persist(canonical, "check", &v).expect("persist");
        }
        // Survives a reopen: the id is in the record bytes, not memory.
        let store = PersistentStore::open(&dir).expect("reopen");
        let got = store.lookup(canonical, "check").expect("lookup");
        assert_eq!(got.trace_id.as_deref(), Some(id));
        // Pre-trace records (no trace_id key) still decode.
        assert_eq!(
            decode_verdict(br#"{"status":"ok","verdict":"satisfiable","detail":[]}"#)
                .expect("legacy record decodes")
                .trace_id,
            None
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_drops_only_the_last_verdict() {
        let dir = tmp("torn");
        {
            let store = PersistentStore::open(&dir).expect("open");
            for i in 0..4 {
                store
                    .persist(
                        &format!("schema-{i}\n"),
                        "check",
                        &verdict(Status::Ok, "satisfiable", &[]),
                    )
                    .expect("persist");
            }
        }
        let path = dir.join("verdicts.log");
        let image = std::fs::read(&path).expect("read log");
        std::fs::write(&path, &image[..image.len() - 3]).expect("tear tail");

        let store = PersistentStore::open(&dir).expect("recover");
        assert!(store.recovery().truncated_bytes > 0);
        assert_eq!(store.len(), 3, "exactly the torn record is lost");
        for i in 0..3 {
            assert!(store.lookup(&format!("schema-{i}\n"), "check").is_some());
        }
        assert_eq!(store.lookup("schema-3\n", "check"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
