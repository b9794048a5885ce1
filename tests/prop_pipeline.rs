//! Differential property tests for the compiled reduction pipeline: the
//! lazy, view-backed [`CompiledPlan`] must agree with the interpretive,
//! materializing [`RewritePlan::answer`] (the differential-testing oracle,
//! mirroring the `cqa-fo::interp` split) on arbitrary instances.
//!
//! The generators target exactly the shapes where the two executors take
//! maximally different routes:
//!
//! * **nested Lemma 45** (depth ≥ 2) — the interpretive path renames and
//!   materializes a database per block fact *per level*, while the
//!   compiled path rebinds parameter slots over one view stack;
//! * **non-matching block facts** — a block fact failing to unify with
//!   `N(⃗c, ⃗t)` must short-circuit to "not certain" on both paths;
//! * **dangling facts and multi-fact blocks** — exercising the Lemma 37/40
//!   block filters and the non-dangling witness test through the view.

use cqa::core::compiled_plan::CompiledPlan;
use cqa::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// A case: schema, query, foreign keys, and the fact shapes the instance
/// generator may emit (relation, arity).
struct Family {
    schema: &'static str,
    query: &'static str,
    fks: &'static str,
    rels: &'static [(&'static str, usize)],
}

/// Depth-2 nested Lemma 45: `N('c',y)` binds `y`, the frozen residual
/// `M(§y,w)` binds `w` (a parameter in key position at the second level),
/// and the tail is the KW rewriting of `P`.
const NESTED: Family = Family {
    schema: "N[2,1] M[2,1] Q[1,1] P[1,1] O[1,1]",
    query: "N('c',y), M(y,w), Q(w), P(w), O(y)",
    fks: "N[2] -> O, M[2] -> Q",
    rels: &[("N", 2), ("M", 2), ("Q", 1), ("P", 1), ("O", 1)],
};

/// Lemma 45 with a constant non-key term: block facts `N(c, y, ≠d)` do not
/// match the atom and must flip the answer to false on both paths.
const NONMATCHING: Family = Family {
    schema: "N[3,1] O[1,1] P[1,1]",
    query: "N('c',y,'d'), O(y), P(y)",
    fks: "N[2] -> O",
    rels: &[("N", 3), ("O", 1), ("P", 1)],
};

/// Lemma 37 + Lemma 45 composition ("lemma45 followed by a strong key"
/// from the integration corpus): exercises block filtering upstream of the
/// branching tail.
const FILTERED: Family = Family {
    schema: "N[2,1] O[2,1] Q[1,1]",
    query: "N('c',y), O(y,z), Q(z)",
    fks: "N[2] -> O, O[2] -> Q",
    rels: &[("N", 2), ("O", 2), ("Q", 1)],
};

fn build(family: &Family) -> (RewritePlan, CompiledPlan, Arc<Schema>) {
    let schema = Arc::new(parse_schema(family.schema).unwrap());
    let q = parse_query(&schema, family.query).unwrap();
    let fks = parse_fks(&schema, family.fks).unwrap();
    let plan = match Problem::new(q, fks).unwrap().classify() {
        Classification::Fo(plan) => *plan,
        Classification::NotFo(r) => panic!("{}: expected FO, got {r}", family.query),
    };
    let compiled = CompiledPlan::compile(&plan).unwrap();
    (plan, compiled, schema)
}

/// Value pool: the query constants `c`/`d` occur often (so key blocks fill
/// up and non-key constants match and mismatch), plus a handful of others.
const POOL: [&str; 6] = ["c", "d", "a", "b", "e", "1"];

fn instance_for(
    schema: &Arc<Schema>,
    rels: &[(&str, usize)],
    picks: &[(usize, Vec<usize>)],
) -> Instance {
    let mut db = Instance::new(schema.clone());
    for (rel_pick, args) in picks {
        let (rel, arity) = rels[rel_pick % rels.len()];
        let args: Vec<&str> = (0..arity)
            .map(|i| POOL[args.get(i).copied().unwrap_or(0) % POOL.len()])
            .collect();
        db.insert_named(rel, &args).unwrap();
    }
    db
}

fn arb_picks() -> impl Strategy<Value = Vec<(usize, Vec<usize>)>> {
    proptest::collection::vec(
        (0..8usize, proptest::collection::vec(0..POOL.len(), 0..3)),
        0..14,
    )
}

fn check(family: &Family, picks: &[(usize, Vec<usize>)]) -> Result<(), TestCaseError> {
    let (plan, compiled, schema) = build(family);
    let db = instance_for(&schema, family.rels, picks);
    let interpretive = plan.answer(&db);
    let lazy = compiled.answer(&db);
    prop_assert_eq!(
        interpretive,
        lazy,
        "query {}: materializing {} vs compiled {} on {}",
        family.query,
        interpretive,
        lazy,
        db
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 192,
        failure_persistence: Some(FileFailurePersistence::WithSource("proptest-regressions")),
        ..ProptestConfig::default()
    })]

    #[test]
    fn compiled_plan_matches_materializing_on_nested_lemma45(picks in arb_picks()) {
        check(&NESTED, &picks)?;
    }

    #[test]
    fn compiled_plan_matches_materializing_on_nonmatching_blocks(picks in arb_picks()) {
        check(&NONMATCHING, &picks)?;
    }

    #[test]
    fn compiled_plan_matches_materializing_under_block_filters(picks in arb_picks()) {
        check(&FILTERED, &picks)?;
    }

    #[test]
    fn answer_many_matches_per_instance_answers(
        batches in proptest::collection::vec(arb_picks(), 1..4)
    ) {
        // The solver's batch surface over one compiled plan agrees with
        // the materializing executor per instance.
        let schema = Arc::new(parse_schema(NESTED.schema).unwrap());
        let q = parse_query(&schema, NESTED.query).unwrap();
        let fks = parse_fks(&schema, NESTED.fks).unwrap();
        let solver = Solver::new(Problem::new(q, fks).unwrap()).unwrap();
        let Route::FoPlan(route) = solver.route() else {
            panic!("the nested family routes FO, got {}", solver.route());
        };
        prop_assert!(route.compiled().is_some(), "compiles for the nested family");
        let dbs: Vec<Instance> = batches
            .iter()
            .map(|p| instance_for(&schema, NESTED.rels, p))
            .collect();
        let batched: Vec<bool> = solver.solve_many(&dbs).map(|v| v.is_certain()).collect();
        prop_assert_eq!(batched.len(), dbs.len());
        for (db, &got) in dbs.iter().zip(&batched) {
            prop_assert_eq!(got, route.plan().answer(db), "on {}", db);
        }
    }
}

/// The renaming table of a long-lived plan must stop growing once it has
/// seen every (value, expected-term) pair — repeated `answer()` calls may
/// not mint fresh interner symbols per call (the unbounded-growth bug this
/// PR fixes on the interpretive path).
#[test]
fn interpretive_rename_constants_are_recycled() {
    let (plan, _, schema) = build(&NESTED);
    let db = parse_instance(
        &schema,
        "N(c,a) N(c,b) O(a) O(b) M(a,1) M(b,1) Q(1) P(1)",
    )
    .unwrap();
    plan.answer(&db); // warm: the tables now hold every pair
    let tables: Vec<usize> = rename_table_sizes(&plan);
    for _ in 0..50 {
        plan.answer(&db);
    }
    assert_eq!(
        tables,
        rename_table_sizes(&plan),
        "repeated answers must reuse the memoized renaming constants"
    );
}

/// Collects the sizes of every rename table in the plan (nested tails
/// included).
fn rename_table_sizes(plan: &RewritePlan) -> Vec<usize> {
    let mut out = Vec::new();
    let mut cur = plan;
    loop {
        match &cur.tail {
            cqa::core::pipeline::Tail::Kw { .. } => break,
            cqa::core::pipeline::Tail::Lemma45(step) => {
                out.push(step.rename_table.len());
                cur = &step.sub_plan;
            }
        }
    }
    out
}
