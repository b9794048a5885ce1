//! CLI exit-code contract, driven through the real binary
//! (`CARGO_BIN_EXE_cqa`): the not-FO exit 4 for `cqa answer` and `cqa sql`, and
//! `cqa serve`'s strict refusal to start on invalid `CQA_THREADS` /
//! `CQA_EVALUATOR` — via subprocess environments, never in-process
//! `set_var`.

use std::io::Write;
use std::process::{Command, Stdio};

fn cqa() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cqa"))
}

fn write_db(tag: &str, text: &str) -> std::path::PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("cqa-exitcode-{}-{tag}.db", std::process::id()));
    let mut f = std::fs::File::create(&path).unwrap();
    writeln!(f, "{text}").unwrap();
    path
}

const FO: [&str; 6] = [
    "--schema",
    "N[2,1] O[1,1] P[1,1]",
    "--query",
    "N('c',y), O(y), P(y)",
    "--fks",
    "N[2] -> O",
];

const HARD: [&str; 6] = [
    "--schema",
    "N[3,1] O[2,1]",
    "--query",
    "N(x,'c',y), O(y,w)",
    "--fks",
    "N[3] -> O",
];

#[test]
fn answer_distinguishes_certain_no_from_not_fo() {
    let db = write_db("yes", "N(c,a) O(a) P(a)");
    let yes = cqa()
        .arg("answer")
        .args(FO)
        .args(["--db", db.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(yes.status.code(), Some(0), "certain yes exits 0");

    let db_no = write_db("no", "N(c,a) N(c,b) O(a) P(a)");
    let no = cqa()
        .arg("answer")
        .args(FO)
        .args(["--db", db_no.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(no.status.code(), Some(1), "certain no exits 1");

    // The regression: a hard-class problem used to be indistinguishable
    // from those by exit code. It must exit 4 — not 1 (the answer is not
    // "no") and not 2 (the invocation is well-formed).
    let db_hard = write_db("hard", "N(a,c,1) O(1,w)");
    let not_fo = cqa()
        .arg("answer")
        .args(HARD)
        .args(["--db", db_hard.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(not_fo.status.code(), Some(4), "not-FO exits 4");
    let stderr = String::from_utf8_lossy(&not_fo.stderr);
    assert!(stderr.contains("not FO-rewritable"), "{stderr}");
    assert!(stderr.contains("cqa solve"), "points at the right tool: {stderr}");

    for p in [db, db_no, db_hard] {
        let _ = std::fs::remove_file(p);
    }
}

fn problem_file(name: &str) -> String {
    format!(
        "{}/examples/problems/{name}.problem",
        env!("CARGO_MANIFEST_DIR")
    )
}

#[test]
fn sql_distinguishes_fo_from_not_fo() {
    // An FO problem renders its rewriting as SQL and exits 0.
    let fo = cqa()
        .args(["sql", "--problem", &problem_file("nested_lemma45")])
        .output()
        .unwrap();
    assert_eq!(fo.status.code(), Some(0), "FO problem exits 0: {fo:?}");
    let stdout = String::from_utf8_lossy(&fo.stdout);
    assert!(stdout.contains("SELECT CASE WHEN"), "{stdout}");

    // The regression: a valid non-FO problem used to exit 2, the usage
    // error code. Like `answer`, it must exit 4 — whether the problem
    // routes to a poly-time backend or only to the oracle.
    for name in ["reachability", "oracle_only"] {
        let not_fo = cqa()
            .args(["sql", "--problem", &problem_file(name)])
            .output()
            .unwrap();
        assert_eq!(not_fo.status.code(), Some(4), "{name}: not-FO exits 4");
        let stderr = String::from_utf8_lossy(&not_fo.stderr);
        assert!(stderr.contains("not FO-rewritable"), "{name}: {stderr}");
    }
    let hard = cqa().arg("sql").args(HARD).output().unwrap();
    assert_eq!(hard.status.code(), Some(4), "hard flags: not-FO exits 4");
}

#[test]
fn serve_refuses_invalid_env_instead_of_degrading() {
    // `cqa solve` tolerates a typo'd CQA_EVALUATOR (warn once, default to
    // auto) — but a long-lived server must not: `cqa serve` validates
    // strictly and exits 2 before binding anything.
    let refused = cqa()
        .arg("serve")
        .args(["--socket", "/tmp/cqa-never-bound.sock"])
        .env("CQA_EVALUATOR", "semijion")
        .output()
        .unwrap();
    assert_eq!(refused.status.code(), Some(2), "typo'd evaluator refused");
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(stderr.contains("refusing to serve"), "{stderr}");
    assert!(stderr.contains("semijion"), "names the bad value: {stderr}");

    let refused = cqa()
        .arg("serve")
        .args(["--socket", "/tmp/cqa-never-bound.sock"])
        .env("CQA_THREADS", "not-a-number")
        .output()
        .unwrap();
    assert_eq!(refused.status.code(), Some(2), "unparsable threads refused");
    assert!(
        String::from_utf8_lossy(&refused.stderr).contains("CQA_THREADS"),
        "names the variable"
    );

    let refused = cqa()
        .arg("serve")
        .args(["--socket", "/tmp/cqa-never-bound.sock"])
        .env("CQA_THREADS", "0")
        .output()
        .unwrap();
    assert_eq!(refused.status.code(), Some(2), "zero threads refused");
}

#[test]
fn solve_warns_once_on_typod_evaluator_but_still_runs() {
    // The non-serve commands keep the lenient path — but it must WARN
    // instead of silently mapping the typo to `auto` (the old behavior
    // made `CQA_EVALUATOR=semijion` benchmarks silently measure the wrong
    // evaluator).
    let db = write_db("warn", "N(c,a) O(a) P(a)");
    let out = cqa()
        .arg("solve")
        .args(FO)
        .args(["--db", db.to_str().unwrap()])
        .env("CQA_EVALUATOR", "semijion")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "lenient path still answers");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("warning") && stderr.contains("semijion"),
        "one-time warning names the bad value: {stderr}"
    );
    let _ = std::fs::remove_file(db);
}

#[test]
fn request_maps_verdicts_onto_exit_codes() {
    // serve + request round trip over a Unix socket, exercising the exit
    // mapping (0 certain / 1 not certain) through real processes.
    let socket = {
        let mut p = std::env::temp_dir();
        p.push(format!("cqa-exitcode-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    };
    let mut server = cqa()
        .arg("serve")
        .args(["--socket", socket.to_str().unwrap()])
        .stderr(Stdio::null())
        .spawn()
        .unwrap();

    // Wait for the socket to answer a ping.
    let mut up = false;
    for _ in 0..300 {
        let ping = cqa()
            .arg("request")
            .args(["--socket", socket.to_str().unwrap(), "--op", "ping"])
            .output()
            .unwrap();
        if ping.status.code() == Some(0) {
            up = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(up, "server came up");

    let yes = cqa()
        .arg("request")
        .args(["--socket", socket.to_str().unwrap()])
        .args(FO)
        .args(["--db-text", "N(c,a) O(a) P(a)"])
        .output()
        .unwrap();
    assert_eq!(yes.status.code(), Some(0), "certain → 0: {yes:?}");

    let no = cqa()
        .arg("request")
        .args(["--socket", socket.to_str().unwrap()])
        .args(FO)
        .args(["--db-text", "N(c,a) N(c,b) O(a) P(a)"])
        .output()
        .unwrap();
    assert_eq!(no.status.code(), Some(1), "not certain → 1: {no:?}");
    let reply = String::from_utf8_lossy(&no.stdout);
    assert!(reply.contains(r#""cache":"hit""#), "second request hits: {reply}");

    let bye = cqa()
        .arg("request")
        .args(["--socket", socket.to_str().unwrap(), "--op", "shutdown"])
        .output()
        .unwrap();
    assert_eq!(bye.status.code(), Some(0));
    let status = server.wait().unwrap();
    assert_eq!(status.code(), Some(0), "serve exits 0 on clean shutdown");
}
