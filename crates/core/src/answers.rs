//! Certain answers for non-Boolean queries (paper §1: an answer `⃗a` is
//! *consistent* if `q(⃗a)` holds in every repair).
//!
//! Given a query with designated free variables, the candidate answers are
//! the projections of the satisfying valuations of `q` over `db` — the
//! standard candidate space of CQA prototypes (§2's ConQuer lineage): an
//! answer binding a variable to a value invented by a repair's insertion can
//! never be certain, because fresh values differ between repairs. Each
//! candidate grounds `q` to a Boolean problem, which Theorem 12 classifies
//! and the pipeline answers.
//!
//! **Classify once, answer per tuple.** Although grounding changes the
//! classification relative to the *ungrounded* query (Example 13: `q1` is
//! FO while `q2`, its grounding of `u`, is NL-hard), all groundings of the
//! same free variables share the constant-vs-variable structure the
//! Theorem 12 analyses inspect. The fast path therefore freezes the free
//! variables as distinct parameter constants, classifies that one problem,
//! and compiles one binding-parameterized [`CompiledPlan`] reused across
//! every candidate tuple; a non-FO verdict surfaces before any tuple is
//! evaluated (reported with a representative candidate). When the frozen
//! skeleton cannot be compiled, the per-tuple grounding loop remains as the
//! fallback.
//!
//! The candidate-space choice is validated against the exhaustive oracle
//! over the full `adom^k` tuple space in the integration tests.

use crate::classify::{classify, Classification, NotFoReason};
use crate::compiled_plan::CompiledPlan;
use crate::problem::Problem;
use crate::solver::ExecOptions;
use cqa_model::{all_valuations, Cst, FkSet, Instance, ModelError, Query, Term, Var};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Why certain answers could not be computed.
#[derive(Debug)]
pub enum AnswerError {
    /// A free variable does not occur in the query.
    UnknownFreeVariable(Var),
    /// Some grounding produced an invalid problem (should not happen for
    /// valid inputs).
    Model(ModelError),
    /// Some grounding is not in FO (with the Theorem 12 reason and the
    /// offending tuple).
    NotFo(Vec<Cst>, NotFoReason),
}

impl fmt::Display for AnswerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnswerError::UnknownFreeVariable(v) => {
                write!(f, "free variable {v} does not occur in the query")
            }
            AnswerError::Model(e) => write!(f, "{e}"),
            AnswerError::NotFo(tuple, reason) => write!(
                f,
                "grounding by {tuple:?} is not first-order rewritable: {reason}"
            ),
        }
    }
}

impl std::error::Error for AnswerError {}

/// Computes the certain answers of `q` with free variables `free` on `db`:
/// all tuples `⃗a` (over the candidate space of `db`-answers) such that
/// `CERTAINTY(q[⃗x→⃗a], FK)` holds. Runs under [`ExecOptions::default`]
/// (environment-resolved batch width); see [`certain_answers_with`] for
/// typed control.
pub fn certain_answers(
    q: &Query,
    fks: &FkSet,
    free: &[Var],
    db: &Instance,
) -> Result<BTreeSet<Vec<Cst>>, AnswerError> {
    certain_answers_with(q, fks, free, db, &ExecOptions::default())
}

/// [`certain_answers`] under explicit [`ExecOptions`]: the candidate
/// tuples shard across [`ExecOptions::threads`] workers, resolved once in
/// the options, so `CQA_THREADS` is not re-parsed per candidate batch.
pub fn certain_answers_with(
    q: &Query,
    fks: &FkSet,
    free: &[Var],
    db: &Instance,
    options: &ExecOptions,
) -> Result<BTreeSet<Vec<Cst>>, AnswerError> {
    let vars = q.vars();
    for v in free {
        if !vars.contains(v) {
            return Err(AnswerError::UnknownFreeVariable(*v));
        }
    }

    // Candidate tuples: projections of db-satisfying valuations.
    let mut candidates: BTreeSet<Vec<Cst>> = BTreeSet::new();
    for val in all_valuations(db, q) {
        candidates.insert(free.iter().map(|v| val[v]).collect());
    }
    if candidates.is_empty() {
        return Ok(BTreeSet::new());
    }

    // Fast path: freeze the free variables as parameters, classify ONCE,
    // compile one parameterized plan, and evaluate it per candidate tuple.
    let distinct = free.iter().collect::<BTreeSet<_>>().len() == free.len();
    if distinct {
        let frozen = q.freeze(&free.iter().copied().collect());
        if let Ok(problem) = Problem::new(frozen, fks.clone()) {
            match classify(&problem) {
                Classification::Fo(plan) => {
                    if let Ok(compiled) = CompiledPlan::compile_parameterized(&plan, free) {
                        // Shard the candidate tuples across threads: each
                        // worker rebinds the parameter slots of the shared
                        // plan over read-only views of `db`. The verdict
                        // vector is joined in input order and the output
                        // is a set, so the result is scheduling-invariant.
                        let tuples: Vec<Vec<Cst>> = candidates.into_iter().collect();
                        let verdicts: Vec<bool> = match options.batch_pool(tuples.len()) {
                            Some(pool) => pool.map(&tuples, |t| compiled.answer_with(db, t)),
                            None => tuples.iter().map(|t| compiled.answer_with(db, t)).collect(),
                        };
                        return Ok(tuples
                            .into_iter()
                            .zip(verdicts)
                            .filter_map(|(t, ok)| ok.then_some(t))
                            .collect());
                    }
                }
                Classification::NotFo(reason) => {
                    // Not FO for the frozen skeleton ⟹ not FO for the
                    // groundings; surface it before evaluating any tuple,
                    // with a representative candidate attached.
                    let tuple = candidates.into_iter().next().expect("checked non-empty");
                    return Err(AnswerError::NotFo(tuple, reason));
                }
            }
        }
    }

    // Fallback: the per-tuple grounding loop (repeated free variables, or a
    // frozen skeleton the pipeline cannot rebuild/compile).
    let mut out = BTreeSet::new();
    for tuple in candidates {
        let subst: BTreeMap<Var, Term> = free
            .iter()
            .zip(tuple.iter())
            .map(|(&v, &c)| (v, Term::Cst(c)))
            .collect();
        let grounded = q.substitute(&subst);
        let problem =
            Problem::new(grounded, fks.clone()).map_err(AnswerError::Model)?;
        match classify(&problem) {
            Classification::Fo(plan) => {
                if plan.answer(db) {
                    out.insert(tuple);
                }
            }
            Classification::NotFo(reason) => {
                return Err(AnswerError::NotFo(tuple, reason));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_model::parser::{parse_fks, parse_instance, parse_query, parse_schema};
    use std::sync::Arc;

    #[test]
    fn bibliography_certain_dois() {
        // "Which DOIs certainly have a 2016 paper with an author named
        // Jeff?" — d1 is ambiguous (Jeff/Jeffrey conflict), d2 is clean.
        let s = Arc::new(parse_schema("DOCS[3,1] R[2,2] AUTHORS[3,1]").unwrap());
        let q = parse_query(&s, "DOCS(x, t, 2016), R(x, y), AUTHORS(y, 'Jeff', z)").unwrap();
        let fks = parse_fks(&s, "R[1] -> DOCS, R[2] -> AUTHORS").unwrap();
        let db = parse_instance(
            &s,
            "DOCS(d1,'t1',2016) R(d1,o1)
             AUTHORS(o1,'Jeff','U') AUTHORS(o1,'Jeffrey','U')
             DOCS(d2,'t2',2016) R(d2,o2) AUTHORS(o2,'Jeff','L')",
        )
        .unwrap();
        let answers = certain_answers(&q, &fks, &[Var::new("x")], &db).unwrap();
        assert_eq!(
            answers,
            [vec![Cst::new("d2")]].into_iter().collect(),
            "only d2 is certain"
        );
    }

    #[test]
    fn all_answers_certain_on_consistent_db() {
        let s = Arc::new(parse_schema("R[2,1] S[2,1]").unwrap());
        let q = parse_query(&s, "R(x,y), S(y,z)").unwrap();
        let fks = FkSet::empty(s.clone());
        let db = parse_instance(&s, "R(a,b) S(b,1) R(c,d) S(d,2)").unwrap();
        let answers = certain_answers(&q, &fks, &[Var::new("x")], &db).unwrap();
        assert_eq!(answers.len(), 2);
    }

    #[test]
    fn unknown_free_variable_rejected() {
        let s = Arc::new(parse_schema("R[2,1]").unwrap());
        let q = parse_query(&s, "R(x,y)").unwrap();
        let fks = FkSet::empty(s.clone());
        let db = Instance::new(s);
        assert!(matches!(
            certain_answers(&q, &fks, &[Var::new("zzz")], &db),
            Err(AnswerError::UnknownFreeVariable(_))
        ));
    }

    #[test]
    fn grounding_can_change_classification() {
        // Example 13 in answer form: q1 = {N(x,u,y), O(y,w)} with free u.
        // Grounding u to a constant yields q2's NL-hard problem, so the
        // computation must abort with a NotFo error — unless no candidate
        // exists.
        let s = Arc::new(parse_schema("N[3,1] O[2,1]").unwrap());
        let q = parse_query(&s, "N(x,u,y), O(y,w)").unwrap();
        let fks = parse_fks(&s, "N[3] -> O").unwrap();
        let db = parse_instance(&s, "N(k,1,a) O(a,3)").unwrap();
        match certain_answers(&q, &fks, &[Var::new("u")], &db) {
            Err(AnswerError::NotFo(tuple, reason)) => {
                assert_eq!(tuple, vec![Cst::new("1")]);
                assert!(reason.nl_hard());
            }
            other => panic!("expected NotFo, got {other:?}"),
        }
        // With an empty candidate space the call succeeds vacuously.
        let empty = Instance::new(s.clone());
        assert!(certain_answers(&q, &fks, &[Var::new("u")], &empty)
            .unwrap()
            .is_empty());
    }
}
