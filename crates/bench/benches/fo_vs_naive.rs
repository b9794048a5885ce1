//! Bench E13 — the shape of Theorem 12(1): on an FO-classified problem, the
//! constructed rewriting evaluates in polynomial time while the generic
//! ⊕-repair search is exponential in the number of inconsistent blocks.
//!
//! Workload: Example 13's q1 = {N(x,u,y), O(y,w)} with FK = {N[3]→O}, over
//! instances with `n` two-fact blocks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cqa_core::classify::Classification;
use cqa_core::flatten::flatten;
use cqa_core::Problem;
use cqa_fo::eval::eval_closed;
use cqa_fo::CompiledFormula;
use cqa_model::parser::{parse_fks, parse_query, parse_schema};
use cqa_model::{Instance, Schema};
use cqa_repair::CertaintyOracle;
use std::sync::Arc;

fn setup() -> (Arc<Schema>, cqa_core::RewritePlan, cqa_fo::Formula) {
    let s = Arc::new(parse_schema("N[3,1] O[2,1]").unwrap());
    let q = parse_query(&s, "N(x,u,y), O(y,w)").unwrap();
    let fks = parse_fks(&s, "N[3] -> O").unwrap();
    let plan = match Problem::new(q, fks).unwrap().classify() {
        Classification::Fo(p) => *p,
        Classification::NotFo(r) => panic!("{r}"),
    };
    let formula = flatten(&plan).unwrap();
    (s, plan, formula)
}

fn instance(s: &Arc<Schema>, n: usize) -> Instance {
    let mut db = Instance::new(s.clone());
    for i in 0..n {
        db.insert_named("N", &[&format!("k{i}"), "u", &format!("y{i}")]).unwrap();
        db.insert_named("N", &[&format!("k{i}"), "v", &format!("z{i}")]).unwrap();
        db.insert_named("O", &[&format!("y{i}"), "w"]).unwrap();
    }
    db
}

fn bench_rewriting(c: &mut Criterion) {
    let (s, plan, formula) = setup();
    let compiled = CompiledFormula::compile(&formula);
    let mut group = c.benchmark_group("fo_rewriting");
    group.sample_size(20);
    for n in [8usize, 64, 512] {
        let db = instance(&s, n);
        group.bench_with_input(BenchmarkId::new("plan_answer", n), &db, |b, db| {
            b.iter(|| plan.answer(db))
        });
        group.bench_with_input(BenchmarkId::new("flat_formula", n), &db, |b, db| {
            b.iter(|| eval_closed(db, &formula))
        });
        group.bench_with_input(
            BenchmarkId::new("flat_formula_precompiled", n),
            &db,
            |b, db| b.iter(|| compiled.eval_closed(db)),
        );
    }
    group.finish();
}

fn bench_oracle(c: &mut Criterion) {
    let (s, _, _) = setup();
    let schema2 = s.clone();
    let q = parse_query(&schema2, "N(x,u,y), O(y,w)").unwrap();
    let fks = parse_fks(&schema2, "N[3] -> O").unwrap();
    let oracle = CertaintyOracle::new();
    let mut group = c.benchmark_group("naive_repair_search");
    group.sample_size(10);
    for n in [2usize, 4, 5] {
        let db = instance(&s, n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &db, |b, db| {
            b.iter(|| oracle.is_certain(db, &q, &fks))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_rewriting, bench_oracle);
criterion_main!(benches);
