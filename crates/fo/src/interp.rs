//! The textbook formula interpreter: the naive active-domain reference
//! semantics the compiled evaluator is checked against.
//!
//! This is a plain tree walk. Every quantifier ranges over the whole
//! quantifier domain, one variable at a time, and every step works on a
//! cloned `BTreeMap` valuation. No guard is split, no index is probed and
//! nothing is compiled, so the interpreter shares no code path with
//! [`crate::compile::CompiledFormula`] beyond the AST. That independence is
//! its only job: the property suites and the unit tests of
//! [`crate::eval`] check the compiled, guard-directed evaluator against it
//! on arbitrary formulas and bindings. It is never used to answer a query.
//!
//! The quantifier domain is `adom(db) ∪ const(φ) ∪ const(θ↾free(φ))`, i.e.
//! constants bound to free variables by the caller count as active — the
//! same rule as the compiled path.

use crate::ast::Formula;
use cqa_model::{Cst, Instance, Term, Valuation, Var};

/// Evaluates `f` under a binding of its free variables with naive
/// active-domain semantics.
pub fn eval_with(db: &Instance, f: &Formula, binding: &Valuation) -> bool {
    let domain: Vec<Cst> = {
        let mut d = db.adom().clone();
        d.extend(f.consts());
        for v in f.free_vars() {
            if let Some(&c) = binding.get(&v) {
                d.insert(c);
            }
        }
        d.into_iter().collect()
    };
    let mut binding = binding.clone();
    Evaluator { db, domain }.eval(f, &mut binding)
}

struct Evaluator<'a> {
    db: &'a Instance,
    domain: Vec<Cst>,
}

impl Evaluator<'_> {
    fn resolve(&self, t: Term, binding: &Valuation) -> Option<Cst> {
        match t {
            Term::Cst(c) => Some(c),
            Term::Var(v) => binding.get(&v).copied(),
        }
    }

    fn eval(&self, f: &Formula, binding: &mut Valuation) -> bool {
        match f {
            Formula::True => true,
            Formula::False => false,
            Formula::Atom(a) => {
                let fact = cqa_model::eval::apply_atom(a, binding)
                    .expect("atom variables must be bound during evaluation");
                self.db.contains(&fact)
            }
            Formula::Eq(s, t) => {
                let a = self
                    .resolve(*s, binding)
                    .expect("equality term must be bound");
                let b = self
                    .resolve(*t, binding)
                    .expect("equality term must be bound");
                a == b
            }
            Formula::Not(g) => !self.eval(g, binding),
            Formula::And(gs) => gs.iter().all(|g| self.eval(g, binding)),
            Formula::Or(gs) => gs.iter().any(|g| self.eval(g, binding)),
            Formula::Implies(l, r) => !self.eval(l, binding) || self.eval(r, binding),
            Formula::Exists(vs, g) => {
                // Quantifiers shadow outer bindings of the same variables.
                let mut inner = binding.clone();
                for v in vs {
                    inner.remove(v);
                }
                self.eval_exists(vs, g, &mut inner)
            }
            Formula::Forall(vs, g) => {
                let mut inner = binding.clone();
                for v in vs {
                    inner.remove(v);
                }
                self.eval_forall(vs, g, &mut inner)
            }
        }
    }

    /// `∃vs g`: one active-domain sweep per variable.
    fn eval_exists(&self, vs: &[Var], g: &Formula, binding: &mut Valuation) -> bool {
        match vs.split_first() {
            None => self.eval(g, binding),
            Some((&v, rest)) => self.domain.iter().any(|&c| {
                binding.insert(v, c);
                let ok = self.eval_exists(rest, g, binding);
                binding.remove(&v);
                ok
            }),
        }
    }

    /// `∀vs g`: one active-domain sweep per variable.
    fn eval_forall(&self, vs: &[Var], g: &Formula, binding: &mut Valuation) -> bool {
        match vs.split_first() {
            None => self.eval(g, binding),
            Some((&v, rest)) => self.domain.iter().all(|&c| {
                binding.insert(v, c);
                let ok = self.eval_forall(rest, g, binding);
                binding.remove(&v);
                ok
            }),
        }
    }
}
