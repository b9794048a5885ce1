//! Inspecting consistent first-order rewritings: the reduction pipeline,
//! the flattened formula, and its SQL rendering.
//!
//! Reproduces the paper's §8 worked example — `q = {N(c,y), O(y), P(y)}`
//! with `FK = {N[2]→O}` rewrites to
//! `∃y (N(c,y) ∧ O(y)) ∧ ∀y (N(c,y) → P(y))` — and walks a larger pipeline
//! featuring every reduction lemma.
//!
//! Run with: `cargo run --example rewriting_inspector`

use cqa::prelude::*;
use std::sync::Arc;

fn main() {
    // ── The §8 example ────────────────────────────────────────────────────
    let schema = Arc::new(parse_schema("N[2,1] O[1,1] P[1,1]").unwrap());
    let q = parse_query(&schema, "N('c',y), O(y), P(y)").unwrap();
    let fks = parse_fks(&schema, "N[2] -> O").unwrap();
    let problem = Problem::new(q, fks).unwrap();
    let solver = Solver::new(problem).unwrap();
    let Route::FoPlan(route) = solver.route() else {
        unreachable!("§8's problem is FO-rewritable");
    };

    println!("━━━ §8 worked example");
    println!("{}", route.plan());
    let formula = flatten(route.plan()).unwrap();
    println!("\nflattened rewriting: {formula}");
    println!("paper's rewriting  : ∃y (N(c,y) ∧ O(y)) ∧ ∀y (N(c,y) → P(y))");

    // The paper's asymmetry note: O is referenced by a strong key, P is not.
    // Its yes-instance flips to no when either P-fact is removed.
    let db = parse_instance(&schema, "N(c,a) N(c,b) O(a) P(a) P(b)").unwrap();
    println!(
        "\ninstance {{N(c,a), N(c,b), O(a), P(a), P(b)}} → {}",
        solver.solve(&db).is_certain()
    );
    for gone in ["P(a)", "P(b)"] {
        let mut smaller = db.clone();
        smaller.remove(&parse_fact(gone).unwrap()).unwrap();
        println!("  … without {gone} → {}", solver.solve(&smaller).is_certain());
    }

    let (ddl, expr) = cqa::fo::to_sql(&schema, &formula).unwrap();
    println!("\nSQL rendering:\n{ddl}\nSELECT CASE WHEN {expr} THEN 'certain' ELSE 'not certain' END;");

    // ── A pipeline featuring several lemmas ──────────────────────────────
    // Weak key (Lemma 36), an o→o key into a leaf (Lemma 37), and a d→d key
    // (Lemma 39) in one problem.
    let schema2 = Arc::new(parse_schema("A[2,1] B[2,1] C[1,1] D[2,1]").unwrap());
    let q2 = parse_query(&schema2, "A(x,y), B(y,z), C(y), D(z,'k')").unwrap();
    let fks2 = parse_fks(&schema2, "A[2] -> B, B[1] -> C, B[2] -> D").unwrap();
    let problem2 = Problem::new(q2, fks2).unwrap();
    println!("\n━━━ multi-lemma pipeline");
    match problem2.classify() {
        Classification::Fo(plan) => {
            println!("{plan}");
            println!("\nflattened: {}", flatten(&plan).unwrap());
        }
        Classification::NotFo(r) => println!("not in FO: {r}"),
    }
}
