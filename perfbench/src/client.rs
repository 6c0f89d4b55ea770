//! Protocol-v1 client side: an in-process daemon on loopback TCP, a
//! line-oriented connection, and reply parsing.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use cr_server::{Connector, Server, ServerConfig, TcpConn, TcpConnector};
use cr_trace::json::{self, Value};

/// Worker threads of every daemon the benchmark starts.
pub const WORKERS: usize = 2;

/// A daemon serving loopback TCP on its own accept thread.
pub struct Daemon {
    pub server: Server,
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Opens the server (store recovery, rehydration, follower start),
    /// binds a free loopback port, and connects `clients` streams to it
    /// before the accept loop starts.
    ///
    /// The accept loop sleeps 20 ms whenever no connection is pending, so
    /// a connection made after it started waits for the next poll, and a
    /// timed set-up would jump by whole polls from run to run. Connections
    /// already pending when the loop starts are accepted at once.
    pub fn start(config: ServerConfig, clients: usize) -> Result<(Daemon, Vec<TcpStream>), String> {
        let server = Server::open(config)?;
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel();
        let thread = {
            let server = server.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let bound = tx.clone();
                if let Err(e) = server.serve_tcp("127.0.0.1:0", stop, move |a| {
                    let streams = (0..clients)
                        .map(|_| TcpStream::connect(a))
                        .collect::<std::io::Result<Vec<_>>>()
                        .map_err(|e| format!("connect {a}: {e}"));
                    let _ = bound.send(streams.map(|s| (a, s)));
                }) {
                    let _ = tx.send(Err(e.to_string()));
                }
            })
        };
        let (addr, streams) = rx
            .recv()
            .map_err(|_| "daemon thread exited before binding".to_string())??;
        let daemon = Daemon {
            server,
            addr,
            stop,
            thread: Some(thread),
        };
        Ok((daemon, streams))
    }

    /// Stops accepting, drains in-flight work and joins the accept thread.
    pub fn stop(mut self) -> Server {
        self.shutdown();
        self.server.clone()
    }

    fn shutdown(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        self.server.finish();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A follower's dial-out that hands over a stream connected before the
/// primary's accept loop started (see [`Daemon::start`]), then dials TCP
/// as the daemon's own connector does.
#[derive(Debug)]
pub struct Handoff(Mutex<Option<TcpStream>>);

impl Handoff {
    pub fn new(stream: TcpStream) -> Handoff {
        Handoff(Mutex::new(Some(stream)))
    }
}

impl Connector for Handoff {
    fn connect(&self, addr: &str, timeout: Duration) -> std::io::Result<Box<dyn cr_server::Conn>> {
        let pending = self.0.lock().unwrap_or_else(|e| e.into_inner()).take();
        match pending {
            Some(stream) => {
                stream.set_read_timeout(Some(timeout))?;
                stream.set_write_timeout(Some(timeout))?;
                Ok(Box::new(TcpConn(stream)))
            }
            None => TcpConnector.connect(addr, timeout),
        }
    }
}

/// One request/response line connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn new(stream: TcpStream) -> std::io::Result<Conn> {
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// A second handle for a receiver thread.
    pub fn split(self) -> (TcpStream, BufReader<TcpStream>) {
        (self.writer, self.reader)
    }

    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        send_line(&mut self.writer, line)
    }

    pub fn recv(&mut self) -> std::io::Result<String> {
        recv_line(&mut self.reader)
    }

    /// Sends one request and waits for its reply.
    pub fn call(&mut self, line: &str) -> std::io::Result<String> {
        self.send(line)?;
        self.recv()
    }
}

pub fn send_line(w: &mut TcpStream, line: &str) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    w.write_all(&buf)
}

pub fn recv_line(r: &mut BufReader<TcpStream>) -> std::io::Result<String> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "daemon closed the connection",
        ));
    }
    Ok(line)
}

/// The parts of a response the benchmark checks and sums.
#[derive(Clone, Debug, Default)]
pub struct Reply {
    pub id: String,
    pub status: String,
    pub verdict: Option<String>,
    pub detail: Vec<String>,
    pub cached: bool,
    pub schema_hash: Option<String>,
    /// Length of the reply line, without its newline.
    pub bytes: usize,
    /// `duration_ns` of the embedded report's expansion, fixpoint and
    /// implication stages.
    pub stage_ns: [u64; 3],
    /// The embedded report's `simplex_pivots`.
    pub pivots: u64,
}

impl Reply {
    pub fn parse(line: &str) -> Result<Reply, String> {
        let v = json::parse(line.trim_end())?;
        let text = |k: &str| v.get(k).and_then(Value::as_str).map(str::to_string);
        let mut reply = Reply {
            id: text("id").ok_or("reply without id")?,
            status: text("status").ok_or("reply without status")?,
            verdict: text("verdict"),
            detail: v
                .get("detail")
                .and_then(Value::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(Value::as_str)
                .map(str::to_string)
                .collect(),
            cached: v.get("cached") == Some(&Value::Bool(true)),
            schema_hash: text("schema_hash"),
            bytes: line.trim_end().len(),
            ..Reply::default()
        };
        if let Some(report) = v.get("report") {
            for stage in report.get("stages").and_then(Value::as_arr).unwrap_or(&[]) {
                let ns = stage
                    .get("duration_ns")
                    .and_then(Value::as_u64)
                    .unwrap_or(0);
                match stage.get("name").and_then(Value::as_str) {
                    Some("expansion") => reply.stage_ns[0] += ns,
                    Some("fixpoint") => reply.stage_ns[1] += ns,
                    Some("implication") => reply.stage_ns[2] += ns,
                    _ => {}
                }
            }
            reply.pivots = report
                .get("counters")
                .and_then(|c| c.get("simplex_pivots"))
                .and_then(Value::as_u64)
                .unwrap_or(0);
        }
        Ok(reply)
    }

    /// Answered ok or negative (not an error, shed or budget trip).
    pub fn answered(&self) -> bool {
        self.status == "ok" || self.status == "negative"
    }

    /// `key=value` lines of a `stats` reply.
    pub fn stat(&self, key: &str) -> f64 {
        self.detail
            .iter()
            .find_map(|d| d.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    }
}
