//! Property-based tests for the FO engine: the guard-directed compiled
//! evaluator agrees with the naive textbook interpreter on arbitrary
//! formulas (closed, and open under arbitrary bindings — including
//! constants outside the active domain), and simplification preserves
//! semantics.

use cqa::fo::eval::eval_with;
use cqa::fo::{interp, simplify, Formula};
use cqa::prelude::*;
use cqa_model::Valuation;
use proptest::prelude::*;
use std::sync::Arc;

fn schema() -> Arc<Schema> {
    Arc::new(cqa::model::parser::parse_schema("R[2,1] S[1,1]").unwrap())
}

const VARS: [&str; 3] = ["x", "y", "z"];
const CSTS: [&str; 3] = ["a", "b", "c"];

fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0..VARS.len()).prop_map(|i| Term::var(VARS[i])),
        (0..CSTS.len()).prop_map(|i| Term::cst(CSTS[i])),
    ]
}

fn arb_atom() -> impl Strategy<Value = Formula> {
    prop_oneof![
        (arb_term(), arb_term()).prop_map(|(a, b)| {
            Formula::Atom(Atom::new(RelName::new("R"), vec![a, b]))
        }),
        arb_term().prop_map(|a| Formula::Atom(Atom::new(RelName::new("S"), vec![a]))),
        (arb_term(), arb_term()).prop_map(|(a, b)| Formula::Eq(a, b)),
    ]
}

fn arb_formula() -> impl Strategy<Value = Formula> {
    arb_atom().prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(Formula::not),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::and([a, b])),
            // Duplicate conjuncts under one ∧ (raw, bypassing the smart
            // constructor): exercises guard selection with repeated atoms.
            inner
                .clone()
                .prop_map(|f| Formula::And(vec![f.clone(), f])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::or([a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::implies(a, b)),
            (0..VARS.len(), inner.clone())
                .prop_map(|(i, f)| Formula::exists([Var::new(VARS[i])], f)),
            (0..VARS.len(), inner).prop_map(|(i, f)| Formula::forall([Var::new(VARS[i])], f)),
        ]
    })
}

/// Constants a free variable may be bound to: the instance pool *plus*
/// constants that never occur in any generated instance or formula
/// (`out1`, `out2`) — the shapes behind the `eval_with` active-domain
/// soundness fix.
const BINDING_CSTS: [&str; 5] = ["a", "b", "c", "out1", "out2"];

/// Binds every free variable of `f`, drawing constants by the picks.
fn bind_free(f: &Formula, picks: &[usize]) -> Valuation {
    let mut b = Valuation::new();
    for (k, v) in f.free_vars().into_iter().enumerate() {
        let pick = picks.get(k % picks.len().max(1)).copied().unwrap_or(0);
        b.insert(v, Cst::new(BINDING_CSTS[pick % BINDING_CSTS.len()]));
    }
    b
}

/// Closes a formula by existentially quantifying its free variables.
fn close(f: Formula) -> Formula {
    let free: Vec<Var> = f.free_vars().into_iter().collect();
    Formula::exists(free, f)
}

prop_compose! {
    fn arb_instance()(rows in proptest::collection::vec((0..4u8, 0..4u8), 0..8),
                      singles in proptest::collection::vec(0..4u8, 0..4)) -> Instance {
        let mut db = Instance::new(schema());
        let name = |v: u8| ["a", "b", "c", "d"][v as usize];
        for (u, v) in rows {
            db.insert_named("R", &[name(u), name(v)]).unwrap();
        }
        for v in singles {
            db.insert_named("S", &[name(v)]).unwrap();
        }
        db
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 128,
        failure_persistence: Some(FileFailurePersistence::WithSource("proptest-regressions")),
        ..ProptestConfig::default()
    })]

    #[test]
    fn guarded_equals_naive(f in arb_formula(), db in arb_instance()) {
        // On sentences: the guard-directed compiled evaluator against the
        // naive textbook interpreter.
        let f = close(f);
        let guarded = eval_with(&db, &f, &Valuation::new());
        let naive = interp::eval_with(&db, &f, &Valuation::new());
        prop_assert_eq!(guarded, naive, "formula {} on {}", f, db);
    }

    #[test]
    fn engines_agree_on_open_formulas_under_any_binding(
        f in arb_formula(),
        db in arb_instance(),
        picks in proptest::collection::vec(0..BINDING_CSTS.len(), 1..4),
    ) {
        // Open formula, free variables bound to constants that may lie
        // outside adom(db) ∪ const(f): the compiled evaluator and the naive
        // interpreter must agree.
        let binding = bind_free(&f, &picks);
        prop_assert_eq!(
            eval_with(&db, &f, &binding),
            interp::eval_with(&db, &f, &binding),
            "compiled vs interp: {} under {:?} on {}", f, binding, db
        );
    }

    #[test]
    fn simplify_preserves_semantics(f in arb_formula(), db in arb_instance()) {
        let f = close(f);
        let s = simplify(&f);
        let before = eval_with(&db, &f, &Valuation::new());
        let after = eval_with(&db, &s, &Valuation::new());
        prop_assert_eq!(before, after, "{} vs simplified {}", f, s);
    }

    #[test]
    fn simplify_is_idempotent(f in arb_formula()) {
        let once = simplify(&f);
        prop_assert_eq!(once.clone(), simplify(&once));
    }

    #[test]
    fn free_vars_of_closed_is_empty(f in arb_formula()) {
        prop_assert!(close(f).is_closed());
    }

    #[test]
    fn double_negation_preserved(f in arb_formula(), db in arb_instance()) {
        let f = close(f);
        let nn = Formula::not(Formula::not(f.clone()));
        prop_assert_eq!(
            eval_with(&db, &f, &Valuation::new()),
            eval_with(&db, &nn, &Valuation::new())
        );
    }

    #[test]
    fn de_morgan(f in arb_formula(), g in arb_formula(), db in arb_instance()) {
        let (f, g) = (close(f), close(g));
        let lhs = Formula::not(Formula::and([f.clone(), g.clone()]));
        let rhs = Formula::or([Formula::not(f), Formula::not(g)]);
        prop_assert_eq!(
            eval_with(&db, &lhs, &Valuation::new()),
            eval_with(&db, &rhs, &Valuation::new())
        );
    }
}
