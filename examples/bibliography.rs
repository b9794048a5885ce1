//! A production-flavoured walk through the bibliography domain: scale the
//! Figure 1 scenario up, evaluate certain answers through the rewriting, and
//! contrast with the exponential repair-enumeration baseline.
//!
//! Run with: `cargo run --release --example bibliography`

use cqa::prelude::*;
use cqa_gen::bibliography::scaled_bibliography;

fn main() {
    // 200 papers × 3 authors; every 5th author has conflicting first names,
    // every 7th authorship dangles.
    let bib = scaled_bibliography(200, 3, 5, 7);
    println!(
        "scaled bibliography: {} facts ({} papers, {} authorships, {} author tuples)",
        bib.db.len(),
        bib.db.count_of(RelName::new("DOCS")),
        bib.db.count_of(RelName::new("R")),
        bib.db.count_of(RelName::new("AUTHORS")),
    );
    println!(
        "  primary-key violations: {} blocks; dangling authorships: {}",
        bib.db.pk_violations().len(),
        bib.db.dangling_facts(&bib.fks).len()
    );

    let problem = Problem::new(bib.query.clone(), bib.fks.clone()).unwrap();
    let solver = Solver::new(problem).expect("q0 is FO-rewritable");

    let verdict = solver.solve(&bib.db);
    println!(
        "\ncertain answer to \"some 2016 paper has an author named Jeff\": {} ({:?} via {})",
        verdict.is_certain(),
        verdict.provenance.elapsed,
        verdict.provenance.backend,
    );

    // The repair count shows why enumeration is not an option: every
    // conflicting AUTHORS block doubles it.
    let repairs = cqa_repair::count_pk_repairs(&bib.db);
    println!("number of primary-key repairs alone: {repairs} (≈2^{:.0})", (repairs as f64).log2());
    println!("…and ⊕-repairs with foreign keys are more numerous still.");

    // The rewriting as SQL, ready for a relational engine.
    let Route::FoPlan(route) = solver.route() else {
        unreachable!("q0 is FO-rewritable");
    };
    let formula = flatten(route.plan()).unwrap();
    let (ddl, expr) = cqa::fo::to_sql(bib.query.schema(), &formula).unwrap();
    println!("\n-- SQL deployment artifact --------------------------------");
    println!("{ddl}");
    let shown: String = expr.chars().take(240).collect();
    println!("SELECT … WHERE {shown}…");
}
