//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 --cqa PATH`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. Lines
//! before it name every metric with its unit and record the run's
//! metadata. Normally started through `run.sh`, which builds this program
//! and the `cqa` binary first.

use perfbench::{delta, gen, serve, trace, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    cqa: Option<PathBuf>,
    commit: String,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        cqa: None,
        commit: "unknown".to_string(),
        rustc: "unknown".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--cqa" => args.cqa = Some(PathBuf::from(value)),
            "--commit" => args.commit = value,
            "--rustc" => args.rustc = value,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let run_dir = PathBuf::from(".bench_build").join("perfbench-run");
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    // One span file per workload, overwritten by each traced run.
    let spans = run_dir.join(format!("spans-{}.jsonl", args.workload));
    let cqa = || args.cqa.as_deref().ok_or("serve workloads need --cqa PATH");
    let serve_err = |e: std::io::Error| format!("serve: {e}");
    Ok(match (args.workload.as_str(), args.trace) {
        ("serve-ingest", false) => serve::run(
            cqa()?,
            &run_dir,
            &gen::serve_ingest(args.seed),
            args.seconds,
        )
        .map_err(serve_err)?,
        ("serve-ingest", true) => {
            trace::run_serve(&gen::serve_ingest(args.seed), false, args.seconds, &spans)
        }
        ("serve-plan-churn", false) => {
            let wl = perfbench::churn_workload(args.seed)?;
            serve::run(cqa()?, &run_dir, &wl, args.seconds).map_err(serve_err)?
        }
        ("serve-plan-churn", true) => trace::run_serve(
            &perfbench::churn_workload(args.seed)?,
            true,
            args.seconds,
            &spans,
        ),
        ("delta-session", false) => delta::run(args.seed, args.seconds),
        ("delta-session", true) => trace::run_delta(args.seed, args.seconds, &spans),
        (other, _) => {
            return Err(format!(
            "unknown workload {other:?} (expected serve-ingest, serve-plan-churn or delta-session)"
        ))
        }
    })
}

fn main() -> ExitCode {
    // The in-process layers read `CQA_*` once, at their first use; clear
    // them before anything runs so every layer sees the shipped defaults.
    let cleared = serve::cqa_env_names();
    for name in &cleared {
        std::env::remove_var(name);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "meta: workload={} seed={} seconds={} trace={} commit={} nproc={} rustc={:?} cleared_cqa_env=[{}]",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.commit,
        nproc,
        args.rustc,
        cleared.join(",")
    );
    for m in &outcome.metrics {
        println!("metric: {:<34} {:>16.3} {}", m.name, m.value, m.unit);
    }
    println!(
        "checked: attempted={} failed={} correct={}",
        outcome.attempted,
        outcome.failed,
        outcome.correct()
    );
    println!("{}", outcome.to_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
