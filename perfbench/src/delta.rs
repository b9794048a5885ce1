//! The `delta-session` workload, timed: an in-process, single-threaded
//! `IncrementalSolver` over a live nested Lemma 45 instance, fed a seeded
//! stream of small deltas, with a plain `Solver::solve` every tenth step
//! or so.

use crate::gen::{delta_problem, Rung, Step, World};
use crate::{end_to_end, more_setups, Outcome, RssCheckpoint};
use cqa_core::{DeltaOutcome, IncrementalSolver, Problem, Solver, Verdict};
use cqa_model::parser::{parse_fks, parse_query, parse_schema};
use cqa_model::Instance;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Steps generated at a time; generation runs outside the timed window.
const STEP_BATCH: usize = 256;
/// Timed steps after which `peak_rss_mb` is read (see [`RssCheckpoint`]).
const RSS_AFTER: u64 = 10_000;

/// The delta-session problem, parsed.
pub fn problem() -> Problem {
    let text = delta_problem();
    let schema = Arc::new(parse_schema(&text.schema).expect("delta schema parses"));
    let query = parse_query(&schema, &text.query).expect("delta query parses");
    let fks = parse_fks(&schema, &text.fks).expect("delta fks parse");
    Problem::new(query, fks).expect("delta problem is well formed")
}

/// The rung a verdict reports.
pub fn rung_of(v: &Verdict) -> Option<Rung> {
    match v.provenance.delta? {
        DeltaOutcome::Unaffected => Some(Rung::Unaffected),
        DeltaOutcome::Localized { .. } => Some(Rung::Localized),
        DeltaOutcome::Recomputed(_) => Some(Rung::Recomputed),
    }
}

/// Whether a step's verdict matches the generator's reference.
pub fn verdict_matches(step: &Step, verdict: Option<&Verdict>) -> bool {
    let expected = match step {
        Step::Delta { expected, .. } | Step::Solve { expected } => *expected,
    };
    verdict.and_then(Verdict::as_bool) == Some(expected)
}

/// Runs one step on the live session: `reanswer` for a delta, a plain
/// `Solver::solve` otherwise.
pub fn run_step(
    session: &mut IncrementalSolver<'_>,
    db: &mut Instance,
    step: &Step,
) -> Option<Verdict> {
    match step {
        Step::Delta { delta, .. } => session.reanswer(db, delta).ok(),
        Step::Solve { .. } => Some(session.solver().solve(db)),
    }
}

/// Set-up: build the instance with `Instance::insert`, build the solver and
/// run the session's first (cold) solve. Returns the pieces and whether
/// the cold verdict matched the world.
pub fn set_up(world: &World, problem: &Problem) -> (Instance, Solver, bool) {
    let db = world.instance();
    let solver = Solver::new(problem.clone()).expect("nested Lemma 45 is FO");
    let cold = solver.incremental().solve(&db);
    let ok = cold.as_bool() == Some(world.certain());
    (db, solver, ok)
}

/// Runs throw-away set-ups while [`more_setups`] asks for them and returns
/// their times.
fn spare_setups(world: &World, problem: &Problem, out: &mut Outcome) -> Vec<Duration> {
    let mut done = Vec::new();
    while more_setups(&done) {
        let t0 = Instant::now();
        let (db, solver, ok) = set_up(world, problem);
        done.push(t0.elapsed());
        out.setup_failed |= !ok;
        drop((db, solver));
    }
    done
}

/// Runs `delta-session` for `seconds` and reports the end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let problem = problem();
    let world0 = World::new(seed);
    let mut out = Outcome::default();
    let mut setups = spare_setups(&world0, &problem, &mut out);
    let t0 = Instant::now();
    let mut db = world0.instance();
    let solver = Solver::new(problem.clone()).expect("nested Lemma 45 is FO");
    let mut session = solver.incremental();
    let cold = session.solve(&db);
    setups.push(t0.elapsed());
    out.setup_failed |= cold.as_bool() != Some(world0.certain());

    let mut world = world0.clone();
    let mut pending: VecDeque<Step> = VecDeque::new();
    let mut ops = Vec::new();
    let budget = Duration::from_secs_f64(seconds);
    let rss = RssCheckpoint::new(RSS_AFTER, None);
    let mut generating = Duration::ZERO;
    let start = Instant::now();
    while start.elapsed() - generating < budget {
        if pending.is_empty() {
            let g0 = Instant::now();
            pending.extend((0..STEP_BATCH).map(|_| world.step()));
            generating += g0.elapsed();
        }
        let step = pending.pop_front().expect("batch refilled");
        let t0 = Instant::now();
        let verdict = run_step(&mut session, &mut db, &step);
        let t1 = Instant::now();
        let end = ((t1 - start) - generating).as_nanos() as u64;
        out.attempted += 1;
        rss.tick();
        if verdict_matches(&step, verdict.as_ref()) {
            ops.push((end, (t1 - t0).as_nanos() as u64));
        } else {
            out.failed += 1;
            ops.push((end, u64::MAX));
        }
    }
    let window = start.elapsed() - generating;
    let rss = rss.value();
    drop((session, db));
    setups.extend(spare_setups(&world0, &problem, &mut out));
    end_to_end(&mut out, ops, window, &setups, rss);
    out
}
