//! End-to-end tests of the `crsat` binary.

use std::path::PathBuf;
use std::process::Command;

fn crsat() -> Command {
    Command::new(env!("CARGO_BIN_EXE_crsat"))
}

fn schema_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../schemas")
        .join(name)
}

fn write_temp(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("crsat-test-{name}-{}.cr", std::process::id()));
    std::fs::write(&path, contents).unwrap();
    path
}

#[test]
fn check_satisfiable_schema_exits_zero() {
    let out = crsat()
        .args(["check", schema_path("meeting.cr").to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("Speaker"));
    assert!(stdout.contains("all 3 classes satisfiable"));
}

#[test]
fn check_unsat_schema_exits_one() {
    let out = crsat()
        .args(["check", schema_path("figure1.cr").to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("UNSATISFIABLE"));
}

#[test]
fn explain_names_the_core() {
    let out = crsat()
        .args(["explain", schema_path("figure1.cr").to_str().unwrap(), "C"])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("minimal core (3 constraints)"), "{stdout}");
    assert!(stdout.contains("D ≼ C"));
}

#[test]
fn implies_isa_query() {
    let out = crsat()
        .args([
            "implies",
            schema_path("meeting.cr").to_str().unwrap(),
            "isa",
            "Speaker",
            "Discussant",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("implied"));
}

#[test]
fn bounds_query() {
    let out = crsat()
        .args([
            "bounds",
            schema_path("meeting.cr").to_str().unwrap(),
            "Speaker",
            "Holds.U1",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("(1, 1)"), "{stdout}");
}

#[test]
fn model_verifies() {
    let out = crsat()
        .args(["model", schema_path("meeting.cr").to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("verified against Definition 2.2: ok"));
}

#[test]
fn fmt_is_idempotent() {
    let out = crsat()
        .args(["fmt", schema_path("meeting.cr").to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let once = String::from_utf8(out.stdout).unwrap();
    let tmp = write_temp("fmt", &once);
    let out2 = crsat()
        .args(["fmt", tmp.to_str().unwrap()])
        .output()
        .unwrap();
    let twice = String::from_utf8(out2.stdout).unwrap();
    assert_eq!(once, twice);
    let _ = std::fs::remove_file(tmp);
}

#[test]
fn parse_error_reports_position() {
    let tmp = write_temp("bad", "class A\nclass B;");
    let out = crsat()
        .args(["check", tmp.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("2:1"), "position missing: {stderr}");
    let _ = std::fs::remove_file(tmp);
}

#[test]
fn unknown_command_usage() {
    let out = crsat().args(["frobnicate", "x"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr).unwrap().contains("usage"));
}

#[test]
fn report_on_university_schema() {
    let out = crsat()
        .args(["report", schema_path("university.cr").to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("## Satisfiability"));
    assert!(stdout.contains("TA: satisfiable"));
    // TA inherits Student's minimum 1 under its own declared (0,2).
    assert!(
        stdout.contains("TA in Enrolls.who: declared (0,2), implied (1,"),
        "{stdout}"
    );
}

#[test]
fn check_sealed_hierarchy() {
    let out = crsat()
        .args(["check", schema_path("shapes.cr").to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("all 5 classes satisfiable"), "{stdout}");
}

#[test]
fn stats_file_written_on_success() {
    let stats = std::env::temp_dir().join(format!("crsat-stats-ok-{}.json", std::process::id()));
    let out = crsat()
        .args([
            "check",
            schema_path("meeting.cr").to_str().unwrap(),
            "--stats",
            stats.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let report = cr_trace::json::parse(std::fs::read_to_string(&stats).unwrap().trim()).unwrap();
    assert_eq!(report.get("command").unwrap().as_str(), Some("check"));
    assert_eq!(report.get("outcome").unwrap().as_str(), Some("ok"));
    let counters = report.get("counters").unwrap();
    assert!(
        counters
            .get("compound_classes_considered")
            .unwrap()
            .as_u64()
            .unwrap()
            > 0
    );
    assert!(counters.get("simplex_pivots").unwrap().as_u64().unwrap() > 0);
    let stages = report.get("stages").unwrap().as_arr().unwrap();
    let expansion = stages
        .iter()
        .find(|s| s.get("name").unwrap().as_str() == Some("expansion"))
        .expect("expansion stage present");
    assert_eq!(expansion.get("calls").unwrap().as_u64(), Some(1));
    assert!(expansion.get("duration_ns").unwrap().as_u64().unwrap() > 0);
    let _ = std::fs::remove_file(stats);
}

/// `--certify` certifies the reasoner that answered instead of building a
/// second one, so the reasoning counters match a run without it.
#[test]
fn certify_reuses_the_reasoner_that_answered() {
    let counters = |certify: bool| {
        let stats = std::env::temp_dir().join(format!(
            "crsat-stats-certify-{certify}-{}.json",
            std::process::id()
        ));
        let mut args = vec![
            "check".to_string(),
            schema_path("meeting.cr").to_str().unwrap().to_string(),
            "--stats".to_string(),
            stats.to_str().unwrap().to_string(),
        ];
        if certify {
            args.push("--certify".to_string());
        }
        let out = crsat().args(&args).output().unwrap();
        assert!(out.status.success(), "{out:?}");
        let report =
            cr_trace::json::parse(std::fs::read_to_string(&stats).unwrap().trim()).unwrap();
        let _ = std::fs::remove_file(stats);
        let counters = report.get("counters").unwrap();
        let read = |name: &str| counters.get(name).unwrap().as_u64().unwrap();
        (
            read("disequations_emitted"),
            read("compound_classes_considered"),
            read("certify_checks"),
        )
    };
    let (plain_rows, plain_classes, plain_checks) = counters(false);
    let (rows, classes, checks) = counters(true);
    assert_eq!(plain_checks, 0);
    assert!(checks > 0, "--certify ran no certificate check");
    assert_eq!((rows, classes), (plain_rows, plain_classes));
}

#[test]
fn stats_file_written_on_budget_exceeded() {
    // The stats report must be written even when the process exits 3, and
    // the machine-readable stderr protocol line must keep its exact shape.
    let stats = std::env::temp_dir().join(format!("crsat-stats-be-{}.json", std::process::id()));
    let out = crsat()
        .args([
            "check",
            schema_path("university.cr").to_str().unwrap(),
            "--max-expansion=3",
            "--stats",
            stats.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.starts_with("budget-exceeded stage=expansion spent="),
        "protocol line changed: {stderr:?}"
    );
    assert!(stderr.contains(" limit=3"), "{stderr:?}");
    assert_eq!(stderr.lines().count(), 1, "exactly one stderr line");
    let report = cr_trace::json::parse(std::fs::read_to_string(&stats).unwrap().trim()).unwrap();
    assert_eq!(
        report.get("outcome").unwrap().as_str(),
        Some("budget-exceeded")
    );
    let stages = report.get("stages").unwrap().as_arr().unwrap();
    let expansion = stages
        .iter()
        .find(|s| s.get("name").unwrap().as_str() == Some("expansion"))
        .expect("expansion stage present");
    assert_eq!(expansion.get("budget_steps").unwrap().as_u64(), Some(4));
    let _ = std::fs::remove_file(stats);
}

#[test]
fn stats_outcome_negative_on_exit_one() {
    let stats = std::env::temp_dir().join(format!("crsat-stats-neg-{}.json", std::process::id()));
    let out = crsat()
        .args([
            "check",
            schema_path("figure1.cr").to_str().unwrap(),
            &format!("--stats={}", stats.to_str().unwrap()),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let report = cr_trace::json::parse(std::fs::read_to_string(&stats).unwrap().trim()).unwrap();
    assert_eq!(report.get("outcome").unwrap().as_str(), Some("negative"));
    assert!(report
        .get("target")
        .unwrap()
        .as_str()
        .unwrap()
        .ends_with("figure1.cr"));
    let _ = std::fs::remove_file(stats);
}

#[test]
fn trace_json_lines_all_parse() {
    let out = crsat()
        .args([
            "check",
            schema_path("figure1.cr").to_str().unwrap(),
            "--trace=json",
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(!stderr.is_empty());
    let mut saw_expansion_end = false;
    for line in stderr.lines() {
        let v = cr_trace::json::parse(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
        if v.get("event").and_then(|e| e.as_str()) == Some("span_end")
            && v.get("name").and_then(|n| n.as_str()) == Some("expansion")
        {
            saw_expansion_end = true;
            assert!(v.get("dur_ns").unwrap().as_u64().is_some());
        }
    }
    assert!(saw_expansion_end, "no expansion span_end in: {stderr}");
}

#[test]
fn trace_human_prints_span_lines() {
    let out = crsat()
        .args([
            "check",
            schema_path("meeting.cr").to_str().unwrap(),
            "--trace=human",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("trace: > expansion"), "{stderr}");
    assert!(stderr.contains("trace: < expansion"), "{stderr}");
}

#[test]
fn trace_rejects_unknown_mode() {
    let out = crsat()
        .args([
            "check",
            schema_path("meeting.cr").to_str().unwrap(),
            "--trace=xml",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("--trace accepts human or json"));
}

#[test]
fn batch_directory_reports_every_schema_and_worst_exit_code() {
    let dir = schema_path("");
    let out = crsat()
        .args(["batch", dir.to_str().unwrap()])
        .output()
        .unwrap();
    // figure1.cr is unsatisfiable, everything else is fine → worst code 1.
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 4, "one line per .cr file: {stdout}");
    for name in ["figure1.cr", "meeting.cr", "shapes.cr", "university.cr"] {
        assert!(
            lines.iter().any(|l| l.contains(name)),
            "missing {name}: {stdout}"
        );
    }
    let figure1 = lines.iter().find(|l| l.contains("figure1.cr")).unwrap();
    assert!(figure1.contains("negative unsatisfiable"), "{figure1}");
    assert!(
        lines
            .iter()
            .filter(|l| l.contains("ok satisfiable"))
            .count()
            == 3,
        "{stdout}"
    );
}

#[test]
fn batch_budget_exceeded_exits_three_with_protocol_line() {
    let out = crsat()
        .args([
            "batch",
            schema_path("university.cr").to_str().unwrap(),
            "--max-steps=1",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.starts_with("budget-exceeded stage="),
        "protocol line changed: {stderr:?}"
    );
}

#[test]
fn batch_caches_reordered_duplicate_schemas() {
    // Same constraints as meeting.cr, different declaration order and
    // whitespace — the canonical cache key must collapse them. One worker
    // makes execution order deterministic (sorted file order), and /tmp
    // sorts after this repository's schemas directory.
    let tmp = write_temp(
        "meeting-reordered",
        "class Talk;\nclass Speaker;\nclass Discussant isa Speaker;\n\
         relationship Participates (U3: Discussant, U4: Talk);\n\
         relationship Holds (U1: Speaker, U2: Talk);\n\
         card Talk in Participates.U4: 1..*;\n\
         card Discussant in Participates.U3: 1..1;\n\
         card Talk   in Holds.U2: 1..1;\n\
         card Discussant in Holds.U1: 0..2;\n\
         card Speaker in Holds.U1: 1..*;\n",
    );
    let out = crsat()
        .args([
            "batch",
            schema_path("meeting.cr").to_str().unwrap(),
            tmp.to_str().unwrap(),
            "--workers=1",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let dup = stdout
        .lines()
        .find(|l| l.contains("meeting-reordered"))
        .unwrap_or_else(|| panic!("no line for the duplicate: {stdout}"));
    assert!(dup.contains("ok satisfiable [cached]"), "{dup}");
    let _ = std::fs::remove_file(tmp);
}

#[test]
fn serve_stdio_answers_requests_and_drains_on_eof() {
    use std::io::Write as _;
    let mut child = crsat()
        .args(["serve"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let schema = std::fs::read_to_string(schema_path("figure1.cr")).unwrap();
    let check = format!(
        "{{\"v\":1,\"id\":\"q1\",\"op\":\"check\",\"schema\":{}}}",
        // Reuse the workspace JSON writer's escaping rules by hand: the
        // schema contains no quotes or backslashes, so a plain wrap works.
        serde_free_quote(&schema)
    );
    {
        let stdin = child.stdin.as_mut().unwrap();
        writeln!(stdin, "{{\"v\":1,\"id\":\"p\",\"op\":\"ping\"}}").unwrap();
        writeln!(stdin, "{check}").unwrap();
    }
    drop(child.stdin.take()); // EOF → drain → clean exit
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let mut saw_ping = false;
    let mut saw_check = false;
    for line in stdout.lines() {
        let v = cr_trace::json::parse(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
        match v.get("id").and_then(|i| i.as_str()) {
            Some("p") => {
                assert_eq!(v.get("verdict").and_then(|x| x.as_str()), Some("pong"));
                saw_ping = true;
            }
            Some("q1") => {
                assert_eq!(v.get("status").and_then(|x| x.as_str()), Some("negative"));
                assert_eq!(v.get("exit_code").and_then(|x| x.as_u64()), Some(1));
                assert!(v.get("report").is_some(), "response embeds a RunReport");
                saw_check = true;
            }
            other => panic!("unexpected response id {other:?}: {line}"),
        }
    }
    assert!(saw_ping && saw_check, "{stdout}");
}

/// Quotes a string for JSON, escaping the handful of characters our
/// schemas can contain (newlines from the file).
fn serde_free_quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[test]
fn system_verbatim_matches_figure5_inventory() {
    let out = crsat()
        .args(["system", schema_path("meeting.cr").to_str().unwrap(), "-v"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let vars = stdout
        .lines()
        .filter(|l| l.trim_start().starts_with("Var("))
        .count();
    assert_eq!(vars, 105, "Figure 5 unknown inventory");
}
