//! Formula evaluation over database instances.
//!
//! The entry points below compile the formula
//! ([`crate::compile::CompiledFormula`]) and evaluate the compiled form.
//! Compilation is guard-directed: `∃⃗x (R(…) ∧ ρ)` iterates only over
//! matching `R`-facts (a primary-key block probe when the key prefix is
//! ground), and `∀⃗y (R(…) → ρ)` iterates only over the facts of the
//! guard. Variables not covered by a guard fall back to the active domain
//! `adom(db) ∪ const(φ) ∪ const(θ↾free(φ))`, so evaluation is correct for
//! every formula and fast for the rewritings this workspace generates.
//!
//! Callers that evaluate one formula many times should compile once and
//! reuse. The textbook interpreter [`crate::interp`] is the naive
//! reference these entry points are differentially tested against.

use crate::ast::Formula;
use crate::compile::CompiledFormula;
use cqa_model::{Instance, Valuation};

/// Evaluates a closed formula over `db`.
pub fn eval_closed(db: &Instance, f: &Formula) -> bool {
    debug_assert!(f.is_closed(), "eval_closed requires a sentence: {f}");
    CompiledFormula::compile(f).eval_closed(db)
}

/// Evaluates `f` under a binding of its free variables.
///
/// Quantifiers range over `adom(db) ∪ const(f)` plus every constant the
/// binding assigns to a free variable of `f` — a constant outside the
/// database's active domain is still *active* once a free variable is bound
/// to it.
pub fn eval_with(db: &Instance, f: &Formula, binding: &Valuation) -> bool {
    CompiledFormula::compile(f).eval(db, binding)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp;
    use cqa_model::parser::{parse_instance, parse_query, parse_schema};
    use cqa_model::{Atom, Cst, RelName, Schema, Term, Var};
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Arc::new(parse_schema("R[2,1] S[2,1] T[1,1]").unwrap())
    }

    fn db() -> Instance {
        parse_instance(&schema(), "R(a,b) R(a,c) R(d,b) S(b,e) T(e)").unwrap()
    }

    fn fatom(s: &Arc<Schema>, text: &str) -> Formula {
        let q = parse_query(s, text).unwrap();
        Formula::Atom(q.atoms()[0].clone())
    }

    /// Evaluates with the compiled evaluator and the naive interpreter
    /// under a binding and asserts they agree.
    fn all_engines(db: &Instance, f: &Formula, b: &Valuation) -> bool {
        let compiled = eval_with(db, f, b);
        assert_eq!(compiled, interp::eval_with(db, f, b), "compiled vs interp on {f}");
        compiled
    }

    fn both(db: &Instance, f: &Formula) -> bool {
        all_engines(db, f, &Valuation::new())
    }

    #[test]
    fn ground_atoms() {
        let s = schema();
        let f = fatom(&s, "R('a','b')");
        assert!(both(&db(), &f));
        let g = fatom(&s, "R('a','zzz')");
        assert!(!both(&db(), &g));
    }

    #[test]
    fn exists_guarded() {
        let s = schema();
        // ∃x∃y (R(x,y) ∧ S(y,e-var)) — the classical chain.
        let r = fatom(&s, "R(x,y)");
        let sf = fatom(&s, "S(y,z)");
        let f = Formula::exists(
            [Var::new("x"), Var::new("y"), Var::new("z")],
            Formula::and([r, sf]),
        );
        assert!(f.is_closed());
        assert!(both(&db(), &f));
    }

    #[test]
    fn forall_guarded() {
        let s = schema();
        // ∀x∀y (R(x,y) → y = 'b'): false, because R(a,c) exists.
        let r = fatom(&s, "R(x,y)");
        let f = Formula::forall(
            [Var::new("x"), Var::new("y")],
            Formula::implies(r.clone(), Formula::eq(Term::var("y"), Term::cst("b"))),
        );
        assert!(!both(&db(), &f));

        // ∀x∀y (R(x,y) → ∃z S(y,z)): false because S(c,·) is missing.
        let sf = fatom(&s, "S(y,z)");
        let g = Formula::forall(
            [Var::new("x"), Var::new("y")],
            Formula::implies(r, Formula::exists([Var::new("z")], sf)),
        );
        assert!(!both(&db(), &g));
    }

    #[test]
    fn paper_section8_rewriting_shape() {
        // ∃y (N(c,y) ∧ O(y)) ∧ ∀y (N(c,y) → P(y)) over the paper's instance.
        let s = Arc::new(parse_schema("N[2,1] O[1,1] P[1,1]").unwrap());
        let d = parse_instance(&s, "N(c,a) N(c,b) O(a) P(a) P(b)").unwrap();
        let n = |t: &str| {
            Formula::Atom(Atom::new(
                RelName::new("N"),
                vec![Term::cst("c"), Term::var(t)],
            ))
        };
        let o = Formula::Atom(Atom::new(RelName::new("O"), vec![Term::var("y")]));
        let p = Formula::Atom(Atom::new(RelName::new("P"), vec![Term::var("y")]));
        let f = Formula::and([
            Formula::exists([Var::new("y")], Formula::and([n("y"), o])),
            Formula::forall([Var::new("y")], Formula::implies(n("y"), p)),
        ]);
        assert!(both(&d, &f), "paper says this is a yes-instance");

        // Removing either P-fact turns it into a no-instance.
        for removed in ["a", "b"] {
            let mut d2 = d.clone();
            d2.remove(&cqa_model::Fact::from_names("P", &[removed])).unwrap();
            assert!(!both(&d2, &f), "removing P({removed}) must flip the answer");
        }
    }

    #[test]
    fn quantifier_over_unguarded_var_falls_back() {
        let _s = schema();
        // ∃x (x = 'a'): no guard atom; relies on active-domain fallback.
        let f = Formula::exists(
            [Var::new("x")],
            Formula::Eq(Term::var("x"), Term::cst("a")),
        );
        assert!(both(&db(), &f));
    }

    #[test]
    fn negation_and_implication() {
        let s = schema();
        let f = Formula::not(fatom(&s, "T('zzz')"));
        assert!(both(&db(), &f));
        let g = Formula::implies(fatom(&s, "T('e')"), fatom(&s, "T('zzz')"));
        assert!(!both(&db(), &g));
    }

    #[test]
    fn empty_instance() {
        let s = schema();
        let d = Instance::new(s.clone());
        let f = Formula::exists([Var::new("x"), Var::new("y")], fatom(&s, "R(x,y)"));
        assert!(!both(&d, &f));
        let g = Formula::forall(
            [Var::new("x"), Var::new("y")],
            Formula::implies(fatom(&s, "R(x,y)"), Formula::False),
        );
        assert!(both(&d, &g));
    }

    #[test]
    fn quantifier_shadowing() {
        // Regression (found by proptest): ∃x (¬S(x) ∧ ∃x S(x)) — the inner
        // quantifier must shadow the outer binding of x, in the
        // guard-directed compile too.
        let s = Arc::new(parse_schema("R[2,1] S[1,1]").unwrap());
        let d = parse_instance(&s, "R(a,b) S(a)").unwrap();
        let sx = Formula::Atom(Atom::new(RelName::new("S"), vec![Term::var("x")]));
        let f = Formula::Exists(
            vec![Var::new("x")],
            Box::new(Formula::And(vec![
                Formula::not(sx.clone()),
                Formula::Exists(vec![Var::new("x")], Box::new(sx)),
            ])),
        );
        assert!(both(&d, &f), "x = b satisfies ¬S(x), and S(a) witnesses ∃x S(x)");
    }

    #[test]
    fn free_variable_binding_respected() {
        let s = schema();
        let f = fatom(&s, "R(x,y)"); // free x, y
        let mut b = Valuation::new();
        b.insert(Var::new("x"), Cst::new("a"));
        b.insert(Var::new("y"), Cst::new("b"));
        assert!(eval_with(&db(), &f, &b));
        b.insert(Var::new("y"), Cst::new("zzz"));
        assert!(!eval_with(&db(), &f, &b));
    }

    #[test]
    fn binding_to_constant_outside_adom_is_active() {
        // Regression for the active-domain soundness gap: with the free
        // variable x bound to a constant that occurs in neither the
        // database nor the formula, ∃y (y = x) must hold — the quantifier
        // domain includes the constants of the incoming binding. Before
        // the fix the domain was adom(db) ∪ const(φ) only, so *both*
        // evaluators returned false here.
        let s = schema();
        let d = db();
        let f = Formula::exists(
            [Var::new("y")],
            Formula::Eq(Term::var("y"), Term::var("x")),
        );
        let mut b = Valuation::new();
        b.insert(Var::new("x"), Cst::new("outside-adom"));
        assert!(all_engines(&d, &f, &b), "x's constant must be active");

        // Dually: ∀y (y = x → y = x) stays true, and ∀y (y = x → T(y))
        // must now be *false* — the domain contains x's constant, which is
        // not a T-fact.
        let g = Formula::forall(
            [Var::new("y")],
            Formula::implies(
                Formula::Eq(Term::var("y"), Term::var("x")),
                fatom(&s, "T(y)"),
            ),
        );
        assert!(!all_engines(&d, &g, &b));

        // A binding inside the active domain is unchanged by the fix.
        let mut inside = Valuation::new();
        inside.insert(Var::new("x"), Cst::new("e"));
        assert!(all_engines(&d, &f, &inside));
    }

    #[test]
    fn guard_selection_with_repeated_atoms() {
        // Duplicate conjuncts under the same ∧: the guard is one copy, the
        // duplicate stays a membership test in the continuation; guarded
        // and naive must agree on every such shape.
        let s = schema();
        let r = || fatom(&s, "R(x,y)");
        let dup = Formula::Exists(
            vec![Var::new("x"), Var::new("y")],
            Box::new(Formula::And(vec![r(), r()])),
        );
        assert!(both(&db(), &dup));

        // Duplicated guard covering only part of the prefix plus a chained
        // second guard.
        let chain = Formula::Exists(
            vec![Var::new("x"), Var::new("y"), Var::new("z")],
            Box::new(Formula::And(vec![
                r(),
                r(),
                fatom(&s, "S(y,z)"),
                fatom(&s, "S(y,z)"),
            ])),
        );
        assert!(both(&db(), &chain));

        // Duplicates that cannot be satisfied: still agree.
        let never = Formula::Exists(
            vec![Var::new("x")],
            Box::new(Formula::And(vec![
                fatom(&s, "T(x)"),
                fatom(&s, "T(x)"),
                fatom(&s, "R(x,x)"),
            ])),
        );
        assert!(!both(&db(), &never));
    }

    #[test]
    fn guard_selection_skips_constant_only_atoms() {
        // A conjunct with no variables must never be chosen as the guard —
        // the quantified variable is guarded by T(x), and the ground atom
        // R('a','b') is just a conjunct.
        let s = schema();
        let f = Formula::Exists(
            vec![Var::new("x")],
            Box::new(Formula::And(vec![
                fatom(&s, "R('a','b')"),
                fatom(&s, "T(x)"),
            ])),
        );
        assert!(both(&db(), &f));

        // With a false ground conjunct the whole ∃ is false.
        let g = Formula::Exists(
            vec![Var::new("x")],
            Box::new(Formula::And(vec![
                fatom(&s, "R('a','zzz')"),
                fatom(&s, "T(x)"),
            ])),
        );
        assert!(!both(&db(), &g));

        // Only constant-only atoms: no guard exists, the quantifier falls
        // back to the domain (and the body is variable-free).
        let h = Formula::Exists(
            vec![Var::new("x")],
            Box::new(fatom(&s, "R('a','b')")),
        );
        assert!(both(&db(), &h));
    }

    #[test]
    fn compiled_formula_is_reusable() {
        use crate::compile::CompiledFormula;
        let s = schema();
        let r = fatom(&s, "R(x,y)");
        let f = Formula::exists([Var::new("x"), Var::new("y")], r);
        let compiled = CompiledFormula::compile(&f);
        assert!(compiled.eval_closed(&db()));
        let empty = Instance::new(s);
        assert!(!compiled.eval_closed(&empty));
        // Same compiled value, instance mutated in between.
        let mut d = db();
        for fact in d.facts().collect::<Vec<_>>() {
            d.remove(&fact).unwrap();
        }
        assert!(!compiled.eval_closed(&d));
    }
}
