//! Primary→standby replication: shipping the verdict log and applying it.
//!
//! Replication is *byte-level log shipping* inside the ordinary JSON-lines
//! protocol. The standby polls the primary with
//! `{"op":"replicate","offset":N,"epoch":E}`; the primary answers with a
//! [`ReplChunk`] of raw log bytes starting at `N` (or a `reset` order when
//! `N`/`E` are stale — the log was compacted, which rewrites the file and
//! bumps the epoch). The standby appends the bytes to its own mirror file
//! through [`cr_store::Replica`], which drains complete CRC frames and
//! hands back decoded payloads; those warm the standby's in-memory cache
//! immediately, so promotion serves a *warm* store with no recomputation.
//!
//! Correctness leans on two gates that already exist:
//!
//! * nothing enters the primary's log without passing the certificate
//!   check, so mirrored bytes carry certified verdicts;
//! * every frame is CRC-checked on apply, so a torn or corrupted ship is
//!   detected and answered with a resync, never silently applied.
//!
//! The standby's next poll offset is the position ack: a chunk the
//! standby crashed before applying is simply re-requested.

use std::io::{self, BufRead, BufReader, Write};
use std::sync::Arc;
use std::time::Duration;

use cr_trace::json::{self, Value};

use crate::cache::CachedVerdict;
use crate::persist::{decode_key, decode_verdict, PersistentStore};
use crate::protocol::{Op, ReplChunk, Request};
use crate::transport::{Conn, Connector, TcpConnector};

/// Largest data payload shipped in one replicate response. Bounded so a
/// cold standby syncing a large log neither stalls the primary's reader
/// thread nor produces a pathological response line.
pub const CHUNK_MAX: usize = 256 * 1024;

/// Primary side: builds the chunk answering a standby's poll for
/// `offset` under `epoch`.
pub(crate) fn ship_chunk(
    store: &PersistentStore,
    offset: Option<u64>,
    epoch: Option<u64>,
) -> io::Result<ReplChunk> {
    cr_faults::point!("server.repl.chunk", |p: Option<String>| Err(
        io::Error::other(p.unwrap_or_else(|| "injected replication fault".to_string()))
    ));
    let want_offset = offset.unwrap_or(0);
    let want_epoch = epoch.unwrap_or(0);
    let current_epoch = store.epoch();
    let log_len = store.log_bytes();
    // A fresh standby (offset 0) may name any epoch: there is nothing on
    // its side to invalidate. Otherwise, offsets from another epoch (a
    // compaction happened) or past the end (the standby mirrored a log
    // that has since been rewritten shorter) are meaningless — order a
    // restart from zero instead of shipping bytes that would splice.
    if want_offset > 0 && (want_epoch != current_epoch || want_offset > log_len) {
        return Ok(ReplChunk {
            offset: 0,
            log_len,
            epoch: current_epoch,
            reset: true,
            data: Vec::new(),
        });
    }
    let (data, log_len) = store.read_range(want_offset, CHUNK_MAX)?;
    Ok(ReplChunk {
        offset: want_offset,
        log_len,
        epoch: current_epoch,
        reset: false,
        data,
    })
}

/// Decodes replicated store payloads into cache-warmable verdicts.
/// Payloads that fail to decode are skipped (same tolerance as boot-time
/// rehydration: a future record format must not kill the follower).
pub fn warm_entries(payloads: &[Vec<u8>]) -> Vec<(String, String, CachedVerdict)> {
    let mut out = Vec::with_capacity(payloads.len());
    for payload in payloads {
        let Some((key, value)) = cr_store::decode_entry(payload) else {
            continue;
        };
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

/// Standby side: a persistent JSON-lines client polling the primary for
/// log chunks. Reconnects lazily; any I/O or protocol failure surfaces as
/// an `Err` so the follower loop can count it against the promotion
/// timer.
pub struct FollowerClient {
    addr: String,
    conn: Option<BufReader<Box<dyn Conn>>>,
    seq: u64,
    io_timeout: Duration,
    connector: Arc<dyn Connector>,
}

impl FollowerClient {
    /// A client for the primary at `addr` (host:port), over TCP.
    /// `io_timeout` bounds each connect/read/write so a silently dead
    /// primary cannot wedge the follower past its promotion deadline.
    pub fn new(addr: impl Into<String>, io_timeout: Duration) -> FollowerClient {
        FollowerClient::with_connector(addr, io_timeout, Arc::new(TcpConnector))
    }

    /// A client dialing through an explicit [`Connector`] (the simulation
    /// injects its in-memory network here).
    pub fn with_connector(
        addr: impl Into<String>,
        io_timeout: Duration,
        connector: Arc<dyn Connector>,
    ) -> FollowerClient {
        FollowerClient {
            addr: addr.into(),
            conn: None,
            seq: 0,
            io_timeout,
            connector,
        }
    }

    /// One replicate round trip: asks for `offset` under `epoch`,
    /// returns the primary's chunk. A successful round trip doubles as a
    /// primary heartbeat.
    pub fn poll(&mut self, offset: u64, epoch: u64) -> Result<ReplChunk, String> {
        self.seq += 1;
        let mut req = Request::new(format!("repl-{}", self.seq), Op::Replicate);
        req.offset = Some(offset);
        req.epoch = Some(epoch);
        let line = self.roundtrip(&req.to_json())?;
        let v = json::parse(&line).map_err(|e| format!("primary sent malformed JSON: {e}"))?;
        match v.get("status").and_then(Value::as_str) {
            Some("ok") => {}
            Some(other) => {
                let detail = v
                    .get("detail")
                    .and_then(Value::as_arr)
                    .and_then(|d| d.first())
                    .and_then(Value::as_str)
                    .unwrap_or("");
                return Err(format!("primary refused replicate: {other} {detail}"));
            }
            None => return Err("primary response missing status".to_string()),
        }
        let repl = v.get("repl").ok_or("primary response missing repl chunk")?;
        ReplChunk::from_value(repl).ok_or_else(|| "primary sent malformed repl chunk".to_string())
    }

    /// Sends one request line and reads one response line, reconnecting
    /// once on a broken connection.
    fn roundtrip(&mut self, line: &str) -> Result<String, String> {
        for attempt in 0..2 {
            if self.conn.is_none() {
                self.conn = Some(self.connect()?);
            }
            match self.try_roundtrip(line) {
                Ok(resp) => return Ok(resp),
                Err(e) => {
                    self.conn = None;
                    if attempt == 1 {
                        return Err(format!("primary {}: {e}", self.addr));
                    }
                }
            }
        }
        unreachable!("loop returns on the second attempt");
    }

    fn try_roundtrip(&mut self, line: &str) -> io::Result<String> {
        let conn = self.conn.as_mut().expect("connection established");
        // One write: without TCP_NODELAY a trailing newline sent on its
        // own can wait for the primary's delayed ACK.
        conn.get_mut().write_all(format!("{line}\n").as_bytes())?;
        conn.get_mut().flush()?;
        let mut resp = String::new();
        if conn.read_line(&mut resp)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "primary closed the connection",
            ));
        }
        Ok(resp)
    }

    fn connect(&self) -> Result<BufReader<Box<dyn Conn>>, String> {
        let conn = self
            .connector
            .connect(&self.addr, self.io_timeout)
            .map_err(|e| format!("primary {}: connect: {e}", self.addr))?;
        Ok(BufReader::new(conn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Status;

    fn tmp(tag: &str) -> std::path::PathBuf {
        let h = tag.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        let dir = std::env::temp_dir().join(format!("cr-server-repl-{tag}-{h:x}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_verdict() -> CachedVerdict {
        CachedVerdict {
            status: Status::Ok,
            verdict: "satisfiable".to_string(),
            detail: Vec::new(),
            trace_id: None,
        }
    }

    #[test]
    fn ship_chunk_streams_the_whole_log_and_warms_entries() {
        let dir = tmp("ship");
        let store = PersistentStore::open(&dir).expect("open");
        for i in 0..5 {
            store
                .persist(&format!("schema-{i}\n"), "check", &sample_verdict())
                .expect("persist");
        }
        let epoch = store.epoch();
        // Stream from zero to the end in bounded chunks.
        let mut offset = 0;
        let mirror_dir = tmp("ship-mirror");
        std::fs::create_dir_all(&mirror_dir).expect("mirror dir");
        let mut replica = cr_store::Replica::open(&mirror_dir.join("verdicts.log"))
            .map(|(r, _)| r)
            .expect("replica open");
        loop {
            let chunk = ship_chunk(&store, Some(offset), Some(epoch)).expect("ship");
            assert!(!chunk.reset);
            if chunk.data.is_empty() {
                assert_eq!(offset, chunk.log_len, "caught up means offset == len");
                break;
            }
            let outcome = replica
                .apply(chunk.offset, chunk.epoch, chunk.reset, &chunk.data)
                .expect("apply");
            assert!(!outcome.resynced);
            offset = replica.offset();
        }
        let payloads = {
            let (_, payloads) = cr_store::Replica::open(replica.path()).expect("reopen mirror");
            payloads
        };
        let warmed = warm_entries(&payloads);
        assert_eq!(warmed.len(), 5);
        assert!(warmed
            .iter()
            .any(|(c, q, v)| c == "schema-3\n" && q == "check" && v.verdict == "satisfiable"));
    }

    #[test]
    fn stale_epoch_or_offset_orders_a_reset() {
        let dir = tmp("reset");
        let store = PersistentStore::open(&dir).expect("open");
        store
            .persist("schema\n", "check", &sample_verdict())
            .expect("persist");
        let wrong_epoch = ship_chunk(&store, Some(8), Some(store.epoch() + 1)).expect("ship");
        assert!(wrong_epoch.reset);
        assert!(wrong_epoch.data.is_empty());
        let past_end =
            ship_chunk(&store, Some(store.log_bytes() + 999), Some(store.epoch())).expect("ship");
        assert!(past_end.reset);
        // Offset zero is always acceptable, whatever epoch the standby
        // names: it has nothing to invalidate.
        let fresh = ship_chunk(&store, Some(0), Some(store.epoch() + 7)).expect("ship");
        assert!(!fresh.reset);
        assert!(!fresh.data.is_empty());
    }

    /// A connection that records each write and answers with `reply`.
    struct RecordingConn {
        writes: Arc<std::sync::Mutex<Vec<Vec<u8>>>>,
        reply: io::Cursor<Vec<u8>>,
    }

    impl io::Read for RecordingConn {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reply.read(buf)
        }
    }

    impl Write for RecordingConn {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.lock().expect("writes").push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Conn for RecordingConn {
        fn set_read_timeout(&mut self, _: Option<Duration>) -> io::Result<()> {
            Ok(())
        }

        fn clone_writer(&self) -> io::Result<Box<dyn Write + Send>> {
            Err(io::Error::other("not needed by the follower"))
        }
    }

    #[derive(Debug)]
    struct RecordingConnector(Arc<std::sync::Mutex<Vec<Vec<u8>>>>);

    impl Connector for RecordingConnector {
        fn connect(&self, _: &str, _: Duration) -> io::Result<Box<dyn Conn>> {
            let caught_up = crate::protocol::Response {
                id: "repl-1".to_string(),
                status: Status::Ok,
                verdict: None,
                detail: Vec::new(),
                cached: false,
                schema_hash: None,
                report: None,
                repl: Some(ReplChunk {
                    offset: 0,
                    log_len: 0,
                    epoch: 1,
                    reset: false,
                    data: Vec::new(),
                }),
                trace_id: None,
            };
            Ok(Box::new(RecordingConn {
                writes: Arc::clone(&self.0),
                reply: io::Cursor::new(format!("{}\n", caught_up.to_json()).into_bytes()),
            }))
        }
    }

    #[test]
    fn a_poll_is_one_write_ending_in_its_newline() {
        let writes = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut client = FollowerClient::with_connector(
            "primary:1",
            Duration::from_secs(1),
            Arc::new(RecordingConnector(Arc::clone(&writes))),
        );
        let chunk = client.poll(0, 1).expect("caught-up chunk");
        assert!(!chunk.reset && chunk.data.is_empty());
        let writes = writes.lock().expect("writes");
        assert_eq!(writes.len(), 1, "one write per poll, got {writes:?}");
        assert!(writes[0].ends_with(b"\n"));
        assert_eq!(writes[0].iter().filter(|&&b| b == b'\n').count(), 1);
    }

    #[test]
    fn warm_entries_skips_undecodable_payloads() {
        let good = {
            let dir = tmp("warm");
            let store = PersistentStore::open(&dir).expect("open");
            store
                .persist("c\n", "check", &sample_verdict())
                .expect("persist");
            let (_, payloads) =
                cr_store::Replica::open(&dir.join("verdicts.log")).expect("mirror of own log");
            payloads
        };
        let mut payloads = good;
        payloads.push(b"garbage".to_vec());
        payloads.push(Vec::new());
        assert_eq!(warm_entries(&payloads).len(), 1);
    }
}
