//! Tests of the benchmark itself: seeded determinism, reference answers
//! that agree with the exhaustive oracle, and a wrong reference that makes
//! a run fail.

use cqa_core::Solver;
use cqa_model::parser::{parse_fks, parse_instance, parse_query, parse_schema};
use cqa_repair::CertaintyOracle;
use perfbench::delta::{problem, run_step, verdict_matches};
use perfbench::gen::{self, ProblemText, Rng, Step, World};
use std::path::Path;
use std::sync::Arc;

fn oracle(p: &ProblemText, db: &str) -> Option<bool> {
    let schema = Arc::new(parse_schema(&p.schema).unwrap());
    let q = parse_query(&schema, &p.query).unwrap();
    let fks = parse_fks(&schema, &p.fks).unwrap();
    let db = parse_instance(&schema, db).unwrap();
    CertaintyOracle::new().is_certain(&db, &q, &fks).as_bool()
}

fn step_text(step: &Step) -> String {
    match step {
        Step::Delta {
            delta,
            rung,
            expected,
        } => format!("{delta} {rung:?} {expected}"),
        Step::Solve { expected } => format!("solve {expected}"),
    }
}

fn delta_stream(seed: u64, n: usize) -> Vec<String> {
    let mut world = World::new(seed);
    (0..n).map(|_| step_text(&world.step())).collect()
}

/// A cheap stand-in reference (the oracle is not the point of this test).
fn stub_reference(_: &gen::ChurnProblem, db: &str) -> bool {
    db.len().is_multiple_of(2)
}

fn lines(wl: &gen::ServeWorkload) -> Vec<&str> {
    wl.requests.iter().map(|r| r.line.as_str()).collect()
}

#[test]
fn same_seed_gives_byte_identical_streams() {
    let (a, b, c) = (
        gen::serve_ingest(7),
        gen::serve_ingest(7),
        gen::serve_ingest(8),
    );
    assert_eq!(lines(&a), lines(&b));
    assert_eq!(a.streams, b.streams);
    assert_ne!(lines(&a), lines(&c));

    let (_, a) = gen::serve_plan_churn(7, &mut stub_reference);
    let (_, b) = gen::serve_plan_churn(7, &mut stub_reference);
    let (_, c) = gen::serve_plan_churn(8, &mut stub_reference);
    assert_eq!(lines(&a), lines(&b));
    assert_eq!(a.streams, b.streams);
    assert_eq!(a.warmup, b.warmup);
    assert_ne!(lines(&a), lines(&c));
    assert_ne!(a.streams, c.streams);

    assert_eq!(delta_stream(7, 400), delta_stream(7, 400));
    assert_ne!(delta_stream(7, 400), delta_stream(8, 400));
}

#[test]
fn ingest_pool_spans_the_size_range_half_yes_half_no() {
    let wl = gen::serve_ingest(3);
    assert_eq!(wl.requests.len(), 48);
    let yes = wl.requests.iter().filter(|r| r.expected).count();
    assert_eq!(yes, 24);
    for family in ["nested", "block_chain", "section8"] {
        let sizes: Vec<usize> = wl
            .requests
            .iter()
            .filter(|r| r.family == family)
            .map(|r| r.facts)
            .collect();
        let (lo, hi) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
        assert!(
            lo <= gen::INGEST_MIN_FACTS + 2 && hi + 2 >= gen::INGEST_MAX_FACTS,
            "{family}: {lo}..{hi}"
        );
    }
}

#[test]
fn plan_churn_overflows_the_plan_cache() {
    let (problems, wl) = gen::serve_plan_churn(5, &mut stub_reference);
    assert_eq!(problems.len(), 96);
    let distinct: std::collections::BTreeSet<&str> = problems
        .iter()
        .map(|p| p.spellings[0].schema.as_str())
        .collect();
    assert_eq!(distinct.len(), 96, "renamed problems must be distinct");
    assert!(wl.requests.iter().all(|r| r.facts <= gen::CHURN_MAX_FACTS));
    let stream = &wl.streams[0];
    let share = |op| {
        stream.iter().filter(|&&i| wl.requests[i].op == op).count() as f64 / stream.len() as f64
    };
    assert!((share(gen::Op::Emit) - gen::CHURN_EMIT_SHARE).abs() < 0.01);
    assert!((share(gen::Op::Fallback) - gen::CHURN_FALLBACK_SHARE).abs() < 0.01);
    // Both spellings of every problem build one plan.
    for p in problems.iter().take(10) {
        let [a, b] = &p.spellings;
        let canon = |t: &ProblemText| {
            let s = Arc::new(parse_schema(&t.schema).unwrap());
            let q = parse_query(&s, &t.query).unwrap();
            let f = parse_fks(&s, &t.fks).unwrap();
            format!("{s} | {}", cqa_core::Problem::new(q, f).unwrap())
        };
        assert_ne!(a, b);
        assert_eq!(canon(a), canon(b));
    }
}

#[test]
fn chain_families_agree_with_the_oracle_at_small_sizes() {
    for seed in 0..6 {
        let mut rng = Rng::new(seed, 99);
        for certain in [true, false] {
            for (nested, p) in [
                (true, gen::nested_problem()),
                (false, gen::section8_problem()),
            ] {
                let (db, _) = gen::chain_db(&mut rng, nested, 9 + seed as usize, certain);
                assert_eq!(oracle(&p, &db), Some(certain), "nested={nested} db={db}");
            }
            let (p, db, facts, expected) =
                gen::block_chain_db(&mut rng, 1 + seed as usize % 4, certain);
            assert_eq!(expected, certain);
            assert_eq!(facts, db.split(' ').count());
            assert_eq!(oracle(&p, &db), Some(expected), "block chain {db}");
        }
    }
}

#[test]
fn delta_stream_verdicts_agree_with_the_oracle_at_small_sizes() {
    let text = gen::delta_problem();
    let schema = Arc::new(parse_schema(&text.schema).unwrap());
    let q = parse_query(&schema, &text.query).unwrap();
    let fks = parse_fks(&schema, &text.fks).unwrap();
    // The oracle is exponential in the number of blocks: keep the world
    // at about ten facts.
    let mut seen = [false, false];
    for seed in 0..4 {
        let mut world = World::sized(seed, 1, 1, 1, 0);
        let mut db = world.instance();
        for _ in 0..30 {
            if let Step::Delta {
                delta, expected, ..
            } = world.step()
            {
                db.apply(&delta).unwrap();
                let truth = CertaintyOracle::new().is_certain(&db, &q, &fks).as_bool();
                assert_eq!(truth, Some(expected), "seed {seed} after {delta}: {db}");
                seen[usize::from(expected)] = true;
            }
        }
    }
    assert_eq!(seen, [true, true], "the streams should visit both verdicts");
}

#[test]
fn delta_stream_reaches_every_rung() {
    let solver = Solver::new(problem()).unwrap();
    let mut world = World::sized(11, 40, 20, 30, 30);
    let mut db = world.instance();
    let mut session = solver.incremental();
    assert_eq!(session.solve(&db).as_bool(), Some(world.certain()));
    let mut rungs = std::collections::BTreeSet::new();
    for _ in 0..300 {
        let step = world.step();
        let v = run_step(&mut session, &mut db, &step);
        assert!(verdict_matches(&step, v.as_ref()));
        if let (Step::Delta { rung, .. }, Some(v)) = (&step, &v) {
            assert_eq!(
                perfbench::delta::rung_of(v),
                Some(*rung),
                "{}",
                step_text(&step)
            );
            rungs.insert(format!("{rung:?}"));
        }
    }
    assert_eq!(rungs.len(), 3, "{rungs:?}");
}

#[test]
fn a_wrong_reference_fails_the_run() {
    // Delta session: a flipped expectation is a failed operation.
    let solver = Solver::new(problem()).unwrap();
    let mut world = World::sized(3, 10, 5, 5, 5);
    let mut db = world.instance();
    let mut session = solver.incremental();
    session.solve(&db);
    let step = world.step();
    let verdict = run_step(&mut session, &mut db, &step);
    assert!(verdict_matches(&step, verdict.as_ref()));
    let flipped = match step {
        Step::Delta {
            delta,
            rung,
            expected,
        } => Step::Delta {
            delta,
            rung,
            expected: !expected,
        },
        Step::Solve { expected } => Step::Solve {
            expected: !expected,
        },
    };
    assert!(!verdict_matches(&flipped, verdict.as_ref()));

    // Serve replay: one flipped reference makes the whole run incorrect.
    let (_, mut wl) =
        gen::serve_plan_churn(4, &mut |p, db| perfbench::oracle_reference(p, db).unwrap());
    let out = perfbench::trace::run_serve(&wl, true, 0.001, Path::new("/dev/null"));
    assert_eq!(out.failed, 0);
    assert!(out.correct());
    let victim = wl.streams[0][0];
    wl.requests[victim].expected = !wl.requests[victim].expected;
    let out = perfbench::trace::run_serve(&wl, true, 0.001, Path::new("/dev/null"));
    assert!(out.failed >= 1);
    assert!(!out.correct());
    assert!(out.to_json().starts_with("{\"correct\": false"));
}
