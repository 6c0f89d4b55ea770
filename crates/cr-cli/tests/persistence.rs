//! End-to-end persistence tests of the `crsat` binary:
//!
//! * `check --checkpoint` writes a resumable snapshot on a budget trip,
//!   and `resume` reproduces the uninterrupted run's output exactly;
//! * `resume` refuses a checkpoint whose schema no longer matches its
//!   recorded canonical hash;
//! * `resume --certify` refuses a checkpoint whose frontier was corrupted;
//! * a daemon SIGKILLed mid-session loses none of the verdicts it had
//!   already acknowledged: a successor on the same `--cache-dir` serves
//!   every one of them warm, unflipped.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use cr_trace::json::{self, Value};

fn crsat() -> Command {
    Command::new(env!("CARGO_BIN_EXE_crsat"))
}

fn schema_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../schemas")
        .join(name)
}

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("crsat-persist-{name}-{}", std::process::id()))
}

#[test]
fn checkpoint_resume_reproduces_the_uninterrupted_run() {
    let schema = schema_path("meeting.cr");
    let schema = schema.to_str().unwrap();
    let cp = temp("meeting.cp");
    let stats = temp("resume-stats.json");

    // Ground truth: the uninterrupted run.
    let full = crsat().args(["check", schema]).output().unwrap();
    assert!(full.status.success(), "{full:?}");
    let full_stdout = String::from_utf8(full.stdout).unwrap();

    // Interrupt it: budget trips, exit 3, checkpoint lands on disk.
    let tripped = crsat()
        .args([
            "check",
            schema,
            "--max-steps=40",
            "--checkpoint",
            cp.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(tripped.status.code(), Some(3), "{tripped:?}");
    assert!(
        String::from_utf8(tripped.stdout)
            .unwrap()
            .contains("checkpoint written to"),
        "checkpoint confirmation missing"
    );
    let cp_text = std::fs::read_to_string(&cp).unwrap();
    assert!(cp_text.contains("\"command\":\"check\""), "{cp_text}");

    // Resume: exit 0, and after the one-line resume banner the output is
    // byte-identical to the uninterrupted run.
    let resumed = crsat()
        .args([
            "resume",
            cp.to_str().unwrap(),
            &format!("--stats={}", stats.to_str().unwrap()),
        ])
        .output()
        .unwrap();
    assert!(resumed.status.success(), "{resumed:?}");
    let resumed_stdout = String::from_utf8(resumed.stdout).unwrap();
    let (banner, rest) = resumed_stdout.split_once('\n').unwrap();
    assert!(banner.starts_with("resuming check from"), "{banner}");
    assert_eq!(rest, full_stdout, "resumed output diverged");

    // The run report remembers it was a continuation.
    let report = json::parse(std::fs::read_to_string(&stats).unwrap().trim()).unwrap();
    let charged = report
        .get("resumed_from_step")
        .and_then(Value::as_u64)
        .expect("resumed run must record resumed_from_step");
    assert!(charged >= 40, "at least the tripped budget was charged");

    let _ = std::fs::remove_file(&cp);
    let _ = std::fs::remove_file(&stats);
}

#[test]
fn resume_refuses_a_checkpoint_with_a_foreign_hash() {
    let schema = schema_path("shapes.cr");
    let cp = temp("tampered.cp");
    let out = crsat()
        .args([
            "check",
            schema.to_str().unwrap(),
            "--max-steps=10",
            &format!("--checkpoint={}", cp.to_str().unwrap()),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "{out:?}");

    // Corrupt the hash binding: rewrite its first hex digit.
    let text = std::fs::read_to_string(&cp).unwrap();
    let key = "\"canonical_hash\":\"";
    let at = text.find(key).expect("hash field present") + key.len();
    let mut tampered = text.clone();
    let orig = tampered.as_bytes()[at];
    tampered.replace_range(at..at + 1, if orig == b'0' { "1" } else { "0" });
    std::fs::write(&cp, &tampered).unwrap();

    let resumed = crsat()
        .args(["resume", cp.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(resumed.status.code(), Some(2), "{resumed:?}");
    assert!(
        String::from_utf8(resumed.stderr)
            .unwrap()
            .contains("canonical hash mismatch"),
        "tampering must be named"
    );
    let _ = std::fs::remove_file(&cp);
}

/// The canonical hash does not cover the checkpoint's frontier, and the
/// resumed fixpoint only ever removes classes, so a live class flipped to
/// dead resumes into a support that is too small. On university.cr every
/// class verdict survives one such flip; `resume --certify` must still
/// refuse the run, because the Farkas chain cannot exclude the class.
#[test]
fn resume_certify_refutes_a_corrupted_frontier() {
    let schema = schema_path("university.cr");
    let cp = temp("frontier.cp");
    let out = crsat()
        .args([
            "check",
            schema.to_str().unwrap(),
            "--max-steps=400",
            &format!("--checkpoint={}", cp.to_str().unwrap()),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "{out:?}");

    let intact = crsat()
        .args(["resume", cp.to_str().unwrap(), "--certify"])
        .output()
        .unwrap();
    assert!(intact.status.success(), "{intact:?}");

    let text = std::fs::read_to_string(&cp).unwrap();
    let key = "\"frontier\":\"";
    let at = text
        .find(key)
        .expect("the budget tripped inside the fixpoint, which leaves a frontier")
        + key.len();
    let live = at + text[at..].find('1').expect("the frontier has a live class");
    let mut tampered = text.clone();
    tampered.replace_range(live..live + 1, "0");
    std::fs::write(&cp, &tampered).unwrap();

    let resumed = crsat()
        .args(["resume", cp.to_str().unwrap(), "--certify"])
        .output()
        .unwrap();
    assert_eq!(resumed.status.code(), Some(2), "{resumed:?}");
    let stdout = String::from_utf8(resumed.stdout).unwrap();
    assert!(
        !stdout.contains("UNSATISFIABLE"),
        "one flip should leave every verdict right:\n{stdout}"
    );
    assert!(
        stdout.contains("certify: no Farkas certificate for excluded compound class"),
        "{stdout}"
    );
    let _ = std::fs::remove_file(&cp);
}

/// A daemon plus one connected client, for the crash/restart choreography.
struct Daemon {
    child: Child,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

/// Boots `crsat serve` on an ephemeral port with a durable store, waits
/// for the (atomically written) port file, and connects.
fn boot(cache_dir: &Path, port_file: &Path) -> Daemon {
    let _ = std::fs::remove_file(port_file);
    let child = crsat()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--port-file",
            port_file.to_str().unwrap(),
            "--cache-dir",
            cache_dir.to_str().unwrap(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(20);
    let addr = loop {
        if let Ok(text) = std::fs::read_to_string(port_file) {
            if text.ends_with('\n') {
                break text.trim().to_string();
            }
        }
        assert!(
            Instant::now() < deadline,
            "daemon never wrote the port file"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    let stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    Daemon {
        child,
        stream,
        reader,
    }
}

impl Daemon {
    fn request(&mut self, id: &str, schema_source: &str) -> Value {
        let mut quoted = String::with_capacity(schema_source.len() + 2);
        quoted.push('"');
        for c in schema_source.chars() {
            match c {
                '"' => quoted.push_str("\\\""),
                '\\' => quoted.push_str("\\\\"),
                '\n' => quoted.push_str("\\n"),
                '\r' => quoted.push_str("\\r"),
                '\t' => quoted.push_str("\\t"),
                c => quoted.push(c),
            }
        }
        quoted.push('"');
        writeln!(
            self.stream,
            "{{\"v\":1,\"id\":\"{id}\",\"op\":\"check\",\"schema\":{quoted}}}"
        )
        .unwrap();
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        json::parse(&line).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
    }
}

/// Crash-consistency contract, end to end: every verdict the daemon
/// *acknowledged* (a response reached the client) survives SIGKILL,
/// because the store append is synced before the response is written. The
/// successor must serve all of them from memory, unflipped.
#[test]
fn sigkill_loses_no_acknowledged_verdict() {
    let cache_dir = temp("kill-store");
    let port_file = temp("kill-port");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let fixtures: Vec<(String, String)> =
        ["figure1.cr", "meeting.cr", "university.cr", "shapes.cr"]
            .iter()
            .map(|n| {
                (
                    n.to_string(),
                    std::fs::read_to_string(schema_path(n)).unwrap(),
                )
            })
            .collect();

    let mut first = boot(&cache_dir, &port_file);
    let mut acknowledged = Vec::new();
    for (name, source) in &fixtures {
        let resp = first.request(name, source);
        let verdict = resp
            .get("verdict")
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("[{name}] no verdict: {resp:?}"))
            .to_string();
        acknowledged.push((name.clone(), source.clone(), verdict));
    }
    // SIGKILL: no drain, no flush hook, no atexit. What is on disk is
    // exactly what the per-append fsyncs made durable.
    first.child.kill().unwrap();
    first.child.wait().unwrap();

    let mut second = boot(&cache_dir, &port_file);
    for (name, source, verdict) in &acknowledged {
        let resp = second.request(name, source);
        assert_eq!(
            resp.get("cached"),
            Some(&Value::Bool(true)),
            "[{name}] acknowledged verdict must be served warm after the crash"
        );
        assert_eq!(
            resp.get("verdict").and_then(Value::as_str),
            Some(verdict.as_str()),
            "[{name}] verdict flipped across the crash"
        );
    }
    second.child.kill().unwrap();
    second.child.wait().unwrap();
    let _ = std::fs::remove_dir_all(&cache_dir);
    let _ = std::fs::remove_file(&port_file);
}
