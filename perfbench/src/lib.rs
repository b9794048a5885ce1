//! # perfbench — the end-to-end request benchmark
//!
//! Three workloads, each run by `run.sh --workload NAME --seed N
//! --seconds S --trace 0|1` (see `../BENCHMARK.json`):
//!
//! * `serve-ingest` — a real `cqa serve` over a Unix socket, two clients in
//!   a closed loop, 300–5000-fact databases against three cached plans:
//!   JSON decode, instance parsing and index build dominate;
//! * `serve-plan-churn` — the same server, tiny databases over 96 distinct
//!   problems (more than the 64-entry plan cache), with `emit` ops and
//!   budgeted fallback solves: plan builds and fixed per-request costs
//!   dominate;
//! * `delta-session` — in-process `IncrementalSolver::reanswer` over a live
//!   2·10⁴-fact instance: the reuse ladder and in-place index patching.
//!
//! With `--trace 0` a run reports the end-to-end metrics; with `--trace 1`
//! it replays the same seeded stream in-process on one thread and reports
//! per-layer spans around the library's public calls ([`trace`]).
//! Every verdict is checked against a reference that does not come from
//! the solver under test ([`gen`]).

pub mod delta;
pub mod gen;
pub mod serve;
pub mod trace;

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// Set-up repetitions before the timed window, at least; after the window
/// one fewer runs. `setup_s` is the median of all of them: set-ups on both
/// sides of the window sample the host at both ends of the run, so a short
/// slow spell on a shared host moves fewer of them.
pub const SETUP_MIN_REPS: usize = 3;
/// Set-up repetitions before the timed window, at most.
pub const SETUP_MAX_REPS: usize = 13;
/// Past this much set-up time on one side of the window no repetitions
/// beyond the minimum are started: quick set-ups repeat more often, so
/// their median steadies.
pub const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// Whether to run another throw-away set-up, given the times of those done
/// so far on this side of the timed window. Before the window one more
/// set-up, the one the window uses, always follows.
pub fn more_setups(done: &[Duration]) -> bool {
    let reps = done.len() + 1;
    reps < SETUP_MIN_REPS
        || (reps < SETUP_MAX_REPS && done.iter().sum::<Duration>() < SETUP_BUDGET)
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Set when a check outside the counted operations failed (warm-up,
    /// set-up).
    pub setup_failed: bool,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && !self.setup_failed && self.attempted > 0
    }

    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() {
                m.value
            } else {
                f64::MAX
            };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// The reference verdict of a plan-churn request, from the exhaustive
/// ⊕-repair oracle (`None` if it is inconclusive or the text does not
/// parse).
pub fn oracle_reference(p: &gen::ChurnProblem, db: &str) -> Option<bool> {
    use cqa_model::parser::{parse_fks, parse_instance, parse_query, parse_schema};
    let text = &p.spellings[0];
    let schema = std::sync::Arc::new(parse_schema(&text.schema).ok()?);
    let q = parse_query(&schema, &text.query).ok()?;
    let fks = parse_fks(&schema, &text.fks).ok()?;
    let db = parse_instance(&schema, db).ok()?;
    cqa_repair::CertaintyOracle::new()
        .is_certain(&db, &q, &fks)
        .as_bool()
}

/// `serve-plan-churn` with oracle references, computed before any timing.
pub fn churn_workload(seed: u64) -> Result<gen::ServeWorkload, String> {
    let mut inconclusive = None;
    let (_, wl) = gen::serve_plan_churn(seed, &mut |p, db| {
        oracle_reference(p, db).unwrap_or_else(|| {
            inconclusive = Some(format!("no oracle reference for {db:?}"));
            false
        })
    });
    match inconclusive {
        Some(e) => Err(e),
        None => Ok(wl),
    }
}

/// Nearest-rank percentile of an ascending slice (`q` in `(0, 1]`).
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Median of durations, in seconds (0 when empty).
pub fn median_secs(samples: &[Duration]) -> f64 {
    let mut v: Vec<f64> = samples.iter().map(Duration::as_secs_f64).collect();
    median(&mut v)
}

/// Median of a sample (0 when empty); sorts in place.
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    percentile(v, 0.5).unwrap_or(0.0)
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Reads a process's `VmHWM` once a fixed number of timed operations has
/// completed, so that memory which grows with the requests served is
/// compared at the same amount of work whatever the run's speed. A run
/// that never gets there reads it at the end of its window.
#[derive(Debug)]
pub struct RssCheckpoint {
    after: u64,
    pid: Option<u32>,
    done: AtomicU64,
    mb: OnceLock<Option<f64>>,
}

impl RssCheckpoint {
    /// Reads process `pid` (this process if `None`) after `after` ops.
    pub fn new(after: u64, pid: Option<u32>) -> RssCheckpoint {
        RssCheckpoint {
            after,
            pid,
            done: AtomicU64::new(0),
            mb: OnceLock::new(),
        }
    }

    /// Counts one completed operation.
    pub fn tick(&self) {
        if self.done.fetch_add(1, Ordering::Relaxed) + 1 == self.after {
            self.mb.get_or_init(|| peak_rss_mb(self.pid));
        }
    }

    /// The reading (taken now if the checkpoint was never reached).
    pub fn value(&self) -> Option<f64> {
        *self.mb.get_or_init(|| peak_rss_mb(self.pid))
    }
}

/// One timed operation: when it completed (ns after the timed window
/// opened) and how long it took (`u64::MAX` if it failed, so it counts as
/// missing any latency limit).
pub type Timed = (u64, u64);

/// Operations per slice, at least, for the sliced p99 and throughput.
const SLICE_MIN_OPS: usize = 1000;
/// Slices per run, at most.
const MAX_SLICES: usize = 10;

/// The end-to-end metrics every timed run reports.
///
/// `latency_p50_us` is the median over the whole window. For
/// `latency_p99_us` and `throughput_ops` the window is cut, in completion
/// order, into up to ten consecutive slices of at least 1000 operations
/// each, and the median over the slices is reported: a burst of host noise
/// confined to a few slices then does not move the run's figure, while a
/// change that slows every slice does.
pub fn end_to_end(
    out: &mut Outcome,
    mut ops: Vec<Timed>,
    window: Duration,
    setups: &[Duration],
    peak_rss: Option<f64>,
) {
    let mut latencies: Vec<u64> = ops.iter().map(|&(_, ns)| ns).collect();
    latencies.sort_unstable();
    let p50 = percentile(&latencies, 0.5).map_or(0.0, |ns| ns as f64 / 1e3);
    ops.sort_unstable();
    let n = ops.len();
    let slices = (n / SLICE_MIN_OPS).clamp(1, MAX_SLICES);
    let (mut p99s, mut rates) = (Vec::new(), Vec::new());
    let mut opened = 0u64;
    for i in 0..slices {
        let slice = &ops[i * n / slices..(i + 1) * n / slices];
        let closed = if i + 1 == slices {
            window.as_nanos() as u64
        } else {
            slice.last().map_or(opened, |&(end, _)| end)
        };
        let mut l: Vec<u64> = slice.iter().map(|&(_, ns)| ns).collect();
        l.sort_unstable();
        p99s.push(percentile(&l, 0.99).map_or(0.0, |ns| ns as f64 / 1e3));
        let ok = slice.iter().filter(|&&(_, ns)| ns != u64::MAX).count();
        rates.push(ok as f64 / ((closed.saturating_sub(opened)) as f64 / 1e9).max(1e-9));
        opened = closed;
    }
    out.push("latency_p50_us", p50, "us");
    out.push("latency_p99_us", median(&mut p99s), "us");
    out.push("throughput_ops", median(&mut rates), "1/s");
    out.push("setup_s", median_secs(setups), "s");
    out.push("peak_rss_mb", peak_rss.unwrap_or(0.0), "MiB");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), Some(50));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile::<u64>(&[], 0.5), None);
    }

    #[test]
    fn a_slow_slice_does_not_move_the_sliced_metrics() {
        let window = Duration::from_secs(10);
        // 10 000 ops of 100 us, one per millisecond; the first 1000 (one
        // slice) take 10 ms instead.
        let ops: Vec<Timed> = (0..10_000u64)
            .map(|i| {
                (
                    (i + 1) * 1_000_000,
                    if i < 1000 { 10_000_000 } else { 100_000 },
                )
            })
            .collect();
        let mut out = Outcome {
            attempted: 10_000,
            ..Outcome::default()
        };
        end_to_end(
            &mut out,
            ops,
            window,
            &[Duration::from_millis(5)],
            Some(1.0),
        );
        let get = |name| out.metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(get("latency_p50_us"), 100.0);
        assert_eq!(get("latency_p99_us"), 100.0);
        assert!((get("throughput_ops") - 1000.0).abs() < 1e-6);
        assert_eq!(get("setup_s"), 0.005);
    }

    #[test]
    fn set_up_repetitions_stay_within_their_limits() {
        let reps = |each: Duration| {
            let mut done = Vec::new();
            while more_setups(&done) {
                done.push(each);
            }
            done.len() + 1
        };
        assert_eq!(reps(Duration::from_secs(1)), SETUP_MIN_REPS);
        assert_eq!(reps(Duration::from_millis(200)), 6);
        assert_eq!(reps(Duration::from_millis(10)), SETUP_MAX_REPS);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 3,
            failed: 0,
            ..Outcome::default()
        };
        o.push("latency_p50_us", 1.25, "us");
        let v = serde_json::from_str(&o.to_json()).unwrap();
        let serde_json::Value::Object(map) = v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(map["correct"].as_bool(), Some(true));
        o.failed = 1;
        assert!(o.to_json().starts_with("{\"correct\": false"));
    }
}
