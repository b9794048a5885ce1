//! Solver-layer concurrency: one `Arc<Solver>` shared across many racing
//! threads must return verdicts identical to the sequential run — the
//! invariant the serve-mode plan cache stands on (`Solver: Send + Sync`
//! is pinned by a compile-time assertion in `cqa-core`; this test pins
//! the *behavioral* half). Extends the model-layer racing-reader tests
//! (`crates/model/tests/concurrency.rs`) to the solver.

use cqa::prelude::*;
use std::sync::Arc;

/// Deterministic pseudo-random instance stream over the given schema: a
/// mix of certain, not-certain and multi-block shapes.
fn instances(s: &Arc<Schema>) -> Vec<Instance> {
    let mut dbs = Vec::new();
    let texts = [
        "N(c,a) O(a) P(a)",
        "N(c,a) N(c,b) O(a) P(a)",
        "N(c,a) N(c,b) O(a) O(b) P(a) P(b)",
        "N(c,a) O(b) P(a)",
        "N(c,a) N(c,b) N(c,d) O(a) O(b) O(d) P(a) P(b) P(d)",
        "N(c,a) N(d,b) O(a) O(b) P(a) P(b)",
        "",
        "O(a) P(a)",
    ];
    for t in texts {
        dbs.push(parse_instance(s, t).unwrap());
    }
    // Widen the stream: shifted copies so each thread's interleaving hits
    // different instances at different times.
    for i in 0..24 {
        dbs.push(dbs[i % texts.len()].clone());
    }
    dbs
}

fn solver_for(s: &Arc<Schema>, query: &str, fks: &str, options: ExecOptions) -> Arc<Solver> {
    let q = parse_query(s, query).unwrap();
    let fks = parse_fks(s, fks).unwrap();
    Arc::new(
        Solver::builder(Problem::new(q, fks).unwrap())
            .options(options)
            .build()
            .unwrap(),
    )
}

/// Runs `solver` over `dbs` from `n_threads` racing threads, each with
/// its own interleaving, and checks every verdict against the sequential
/// baseline.
fn race(solver: &Arc<Solver>, dbs: &[Instance], n_threads: usize) {
    let baseline: Vec<Certainty> = dbs.iter().map(|db| solver.solve(db).certainty).collect();
    std::thread::scope(|scope| {
        for t in 0..n_threads {
            let solver = Arc::clone(solver);
            let baseline = &baseline;
            scope.spawn(move || {
                // A different traversal order per thread: stride by a
                // thread-dependent coprime step.
                let stride = [1, 3, 5, 7, 11, 13, 17, 19][t % 8];
                for i in 0..dbs.len() {
                    let idx = (i * stride + t) % dbs.len();
                    let verdict = solver.solve(&dbs[idx]);
                    assert_eq!(
                        verdict.certainty, baseline[idx],
                        "thread {t} disagrees with the sequential run on instance {idx}"
                    );
                }
            });
        }
    });
}

#[test]
fn shared_fo_solver_is_thread_consistent() {
    let s = Arc::new(parse_schema("N[2,1] O[1,1] P[1,1]").unwrap());
    let solver = solver_for(
        &s,
        "N('c',y), O(y), P(y)",
        "N[2] -> O",
        ExecOptions::sequential(),
    );
    assert_eq!(solver.route().kind(), RouteKind::Fo);
    race(&solver, &instances(&s), 8);
}

#[test]
fn shared_polytime_solver_is_thread_consistent() {
    // Proposition 17 shape → dual-Horn backend.
    let s = Arc::new(parse_schema("N[3,1] O[1,1]").unwrap());
    let q = parse_query(&s, "N(x,'c',y), O(y)").unwrap();
    let fks = parse_fks(&s, "N[3] -> O").unwrap();
    let solver = Arc::new(Solver::new(Problem::new(q, fks).unwrap()).unwrap());
    assert_eq!(solver.route().kind(), RouteKind::PolyTime);
    let dbs: Vec<Instance> = [
        "N(b,c,1) O(1)",
        "N(b,c,1) N(b,c,2) O(1) O(2)",
        "N(b,c,1) N(b,d,2) O(1)",
        "N(a,c,1) N(b,c,1) O(1)",
        "",
    ]
    .iter()
    .map(|t| parse_instance(&s, t).unwrap())
    .collect();
    race(&solver, &dbs, 8);
}

#[test]
fn per_request_options_do_not_leak_across_threads() {
    // Serve-mode shape: racing threads call `solve_with` on ONE shared
    // solver, each pinning different runtime options. Verdicts must match
    // the sequential baseline regardless of which options each thread
    // pins — options are per-call, never process or solver state.
    let s = Arc::new(parse_schema("N[2,1] O[1,1] P[1,1]").unwrap());
    let solver = solver_for(
        &s,
        "N('c',y), O(y), P(y)",
        "N[2] -> O",
        ExecOptions::sequential(),
    );
    let dbs = instances(&s);
    let baseline: Vec<Certainty> = dbs.iter().map(|db| solver.solve(db).certainty).collect();
    std::thread::scope(|scope| {
        for t in 0..8 {
            let solver = Arc::clone(&solver);
            let dbs = &dbs;
            let baseline = &baseline;
            scope.spawn(move || {
                let options = ExecOptions::sequential().with_threads(1 + (t % 4));
                for (idx, db) in dbs.iter().enumerate() {
                    let verdict = solver.solve_with(db, &options);
                    assert_eq!(verdict.certainty, baseline[idx], "thread {t} instance {idx}");
                }
            });
        }
    });
}
