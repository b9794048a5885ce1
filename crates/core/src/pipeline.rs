//! The Appendix E reduction pipeline: constructing (and evaluating) the
//! consistent first-order rewriting of `CERTAINTY(q, FK)`.
//!
//! Lemma 18's proof composes first-order many-one reductions, each removing
//! at least one foreign key (paper Fig. 4):
//!
//! 1. drop trivial keys and close `FK` under implication (`FK := FK*`);
//! 2. **Lemma 36** — remove all weak keys referencing a relation
//!    (database reduction: identity);
//! 3. **Lemma 39** — remove strong `d →str d` keys (identity);
//! 4. **Lemma 37** — remove strong `o →str o` keys into leaf atoms, deleting
//!    the target atom (database reduction: delete source blocks irrelevant
//!    for `q^FK_R`, drop the target relation);
//! 5. alternately
//!    **Lemma 45** — if some atom has `key(F) = ∅`, branch on the facts of
//!    its (constant-keyed) block, binding the atom's variables per fact and
//!    recursing on an injectively renamed database; and
//!    **Lemma 40** — otherwise remove one `d →str o` key, deleting the
//!    target atom (database reduction: keep only source blocks with a fact
//!    that is non-dangling w.r.t. `FK[N→]`, drop the target relation);
//! 6. base case `FK = ∅`: the Koutris–Wijsen rewriting (`cqa-attack`).
//!
//! A [`RewritePlan`] is this composition as an explicit, inspectable value:
//! [`RewritePlan::answer`] applies each step's database transformation and
//! evaluates the final formula — a faithful executable rendering of the
//! paper's FO-membership proof. [`crate::flatten`] additionally folds a plan
//! into a single closed first-order sentence.

use crate::depgraph::fk_star;
use crate::fk_types::{fk_type, FkType};
use crate::interference::{block_interference, InterferenceWitness};
use crate::obedience::{nonkey_positions, qfk_atoms};
use crate::problem::Problem;
use cqa_attack::{kw_rewrite, AttackGraph};
use cqa_fo::{CompiledFormula, Formula};
use cqa_model::eval::{block_is_relevant, unify, Valuation};
use cqa_model::{
    Atom, Cst, Fact, FkSet, ForeignKey, Instance, InstanceView, Query, RelName, RenameTable, Term,
    Var,
};
use std::collections::BTreeSet;
use std::fmt;

/// Why a plan could not be built (the problem is not in FO, or an internal
/// invariant was violated).
#[derive(Clone, Debug)]
pub enum BuildError {
    /// The attack graph of `q` is cyclic: L-hard (Theorem 12, case 2).
    CyclicAttackGraph,
    /// `(q, FK)` has block-interference: NL-hard (Theorem 12, case 3).
    BlockInterference(Vec<InterferenceWitness>),
    /// An internal pipeline invariant failed (a bug, not a user error).
    Internal(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::CyclicAttackGraph => write!(f, "cyclic attack graph (L-hard)"),
            BuildError::BlockInterference(ws) => {
                write!(f, "block-interference (NL-hard): ")?;
                for (i, w) in ws.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{w}")?;
                }
                Ok(())
            }
            BuildError::Internal(msg) => write!(f, "internal pipeline error: {msg}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// One reduction step, with the `(q, FK)` state after it.
#[derive(Clone, Debug)]
pub struct PlanStep {
    /// What the step does.
    pub action: StepAction,
    /// The query after the step.
    pub query_after: Query,
    /// The foreign keys after the step.
    pub fks_after: FkSet,
}

/// The reduction actions of the pipeline.
#[derive(Clone, Debug)]
pub enum StepAction {
    /// Drop trivial keys `R[1] → R` (never falsifiable; identity reduction).
    DropTrivial {
        /// The removed keys.
        removed: Vec<ForeignKey>,
    },
    /// Close the set under implication: `FK := FK*` (identity reduction).
    CloseStar {
        /// The implied keys that were added.
        added: Vec<ForeignKey>,
    },
    /// Lemma 36: remove all weak keys referencing `target` (identity).
    DropWeak {
        /// The referenced relation.
        target: RelName,
        /// The removed weak keys.
        removed: Vec<ForeignKey>,
    },
    /// Lemma 39: remove a strong `d →str d` key (identity).
    RemoveDD {
        /// The removed key.
        fk: ForeignKey,
    },
    /// Lemma 37: remove a strong `o →str o` key `R[i] → S` and the `S`-atom.
    RemoveOO {
        /// The removed key.
        fk: ForeignKey,
        /// `q^FK_R` at removal time: blocks of `R` irrelevant for it are
        /// deleted by the database reduction.
        relevance_query: Query,
    },
    /// Lemma 40: remove a strong `d →str o` key `N[i] → O` and the `O`-atom.
    RemoveDO {
        /// The removed key.
        fk: ForeignKey,
        /// `FK[N→]` at removal time: only `N`-blocks with a fact
        /// non-dangling w.r.t. this set survive the database reduction.
        outgoing: Vec<ForeignKey>,
    },
}

impl fmt::Display for StepAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepAction::DropTrivial { removed } => {
                write!(f, "drop trivial keys {removed:?}")
            }
            StepAction::CloseStar { added } => {
                write!(f, "close under implication, adding {added:?}")
            }
            StepAction::DropWeak { target, removed } => {
                write!(f, "Lemma 36: drop weak keys into {target}: {removed:?}")
            }
            StepAction::RemoveDD { fk } => write!(f, "Lemma 39: remove d→d key {fk}"),
            StepAction::RemoveOO { fk, .. } => {
                write!(f, "Lemma 37: remove o→o key {fk} and atom {}", fk.to)
            }
            StepAction::RemoveDO { fk, .. } => {
                write!(f, "Lemma 40: remove d→o key {fk} and atom {}", fk.to)
            }
        }
    }
}

/// The terminal stage of a plan.
#[derive(Clone, Debug)]
pub enum Tail {
    /// `FK = ∅`: the Koutris–Wijsen rewriting of the residual query.
    Kw {
        /// The residual query.
        query: Query,
        /// Its consistent FO rewriting.
        formula: Box<Formula>,
        /// The rewriting compiled (guard-directed) at plan-build time, so
        /// every [`RewritePlan::answer`] call skips straight to slot-based
        /// evaluation (boxed with the formula to keep the enum small).
        compiled: Box<CompiledFormula>,
    },
    /// Lemma 45: branch over the constant-keyed block of `n_atom`.
    Lemma45(Box<Lemma45Step>),
}

/// The Lemma 45 reduction: for an atom `N(⃗c, ⃗t)` with `key(N) = ∅`, the
/// database is a yes-instance iff the block `N(⃗c, ∗)` is non-empty, some
/// fact of it is non-dangling w.r.t. `FK[N→]`, and **every** fact of the
/// block matches `⃗t` and makes the residual problem certain under the
/// induced binding (evaluated over an injectively renamed database so that
/// the residual rewriting, built once with a generic constant `b`, applies
/// to every binding).
#[derive(Clone, Debug)]
pub struct Lemma45Step {
    /// The atom `N(⃗c, ⃗t)`.
    pub n_atom: Atom,
    /// `FK[N→]` (for the non-dangling test).
    pub outgoing: Vec<ForeignKey>,
    /// The relations of `q^FK_N`, all removed from the query.
    pub removed: BTreeSet<RelName>,
    /// `q₀ = q ∖ q^FK_N`, with its original terms (renaming specification).
    pub q0: Query,
    /// `⃗x = vars(N)` in canonical order.
    pub xs: Vec<Var>,
    /// `FK₀ = FK↾q₀`.
    pub fk0: FkSet,
    /// The generic constant `b`.
    pub b: Cst,
    /// The residual plan for `(q₀[⃗x→⃗b, consts→b], FK₀)`.
    pub sub_plan: Box<RewritePlan>,
    /// The injective renaming's invented constants, memoized so repeated
    /// `answer()` calls on a long-lived plan *recycle* them instead of
    /// growing the global interner without bound. Clones share the table.
    pub rename_table: RenameTable,
}

/// A consistent-first-order-rewriting plan: the executable composition of
/// Appendix E reductions ending in a Koutris–Wijsen formula.
#[derive(Clone, Debug)]
pub struct RewritePlan {
    /// The original problem.
    pub problem: Problem,
    /// The reduction steps, in application order.
    pub steps: Vec<PlanStep>,
    /// The terminal stage.
    pub tail: Tail,
}

impl RewritePlan {
    /// Builds the plan for `problem`; fails with the Theorem 12 hardness
    /// reason when `CERTAINTY(q, FK)` is not in FO.
    pub fn build(problem: &Problem) -> Result<RewritePlan, BuildError> {
        check_invariants(problem.query(), problem.fks())?;

        let mut q = problem.query().clone();
        let mut fks = problem.fks().clone();
        let mut steps: Vec<PlanStep> = Vec::new();
        let push = |steps: &mut Vec<PlanStep>, action: StepAction, q: &Query, fks: &FkSet| {
            steps.push(PlanStep {
                action,
                query_after: q.clone(),
                fks_after: fks.clone(),
            });
        };

        // Step 0a: drop trivial keys.
        let trivial: Vec<ForeignKey> = fks
            .iter()
            .filter(|fk| fk.is_trivial(fks.schema()))
            .copied()
            .collect();
        if !trivial.is_empty() {
            fks = fks.without_all(trivial.iter());
            push(&mut steps, StepAction::DropTrivial { removed: trivial }, &q, &fks);
        }

        // Step 0b: FK := FK*.
        let star = fk_star(&fks);
        let added: Vec<ForeignKey> = star.iter().filter(|fk| !fks.contains(fk)).copied().collect();
        if !added.is_empty() {
            fks = star;
            push(&mut steps, StepAction::CloseStar { added }, &q, &fks);
        }

        // Lemma 36: remove weak keys, grouped by referenced relation.
        while let Some(weak) = fks
            .weak()
            .into_iter()
            .find(|fk| !fk.is_trivial(fks.schema()))
        {
            let target = weak.to;
            let removed: Vec<ForeignKey> = fks
                .weak()
                .into_iter()
                .filter(|fk| fk.to == target)
                .collect();
            fks = fks.without_all(removed.iter());
            push(&mut steps, StepAction::DropWeak { target, removed }, &q, &fks);
            debug_assert!(check_invariants(&q, &fks).is_ok());
        }
        if !fks.weak().is_empty() {
            return Err(BuildError::Internal("weak keys remain after Lemma 36".into()));
        }

        // Lemma 39: remove d →str d keys.
        while let Some(fk) = fks
            .strong()
            .into_iter()
            .find(|fk| fk_type(&q, &fks, fk) == FkType::DisobedientDisobedient)
        {
            fks = fks.without(&fk);
            push(&mut steps, StepAction::RemoveDD { fk }, &q, &fks);
            debug_assert!(check_invariants(&q, &fks).is_ok());
        }

        // Lemma 37: remove o →str o keys into leaves.
        loop {
            let oo: Vec<ForeignKey> = fks
                .strong()
                .into_iter()
                .filter(|fk| fk_type(&q, &fks, fk) == FkType::ObedientObedient)
                .collect();
            if oo.is_empty() {
                break;
            }
            let Some(fk) = oo.iter().find(|fk| fks.outgoing(fk.to).is_empty()).copied() else {
                return Err(BuildError::Internal(
                    "o→o keys exist but none has a leaf target (obedience should forbid cycles)"
                        .into(),
                ));
            };
            if !fks.referencing(fk.to).iter().all(|r| *r == fk) {
                return Err(BuildError::Internal(format!(
                    "Lemma 34 violated: {} is referenced by several keys",
                    fk.to
                )));
            }
            let relevance_query = {
                let rels = crate::obedience::qfk_atoms_of(&q, &fks, fk.from);
                q.restrict(&rels)
            };
            q = q.without(fk.to);
            fks = fks.without(&fk);
            push(&mut steps, StepAction::RemoveOO { fk, relevance_query }, &q, &fks);
            debug_assert!(check_invariants(&q, &fks).is_ok());
        }

        // Only d →str o keys may remain.
        for fk in fks.iter() {
            match fk_type(&q, &fks, fk) {
                FkType::DisobedientObedient => {}
                other => {
                    return Err(BuildError::Internal(format!(
                        "unexpected key {fk} of type {other} after Lemmas 36/37/39"
                    )))
                }
            }
        }

        // Alternate Lemma 45 / Lemma 40 until FK = ∅, then Koutris–Wijsen.
        loop {
            if fks.is_empty() {
                let formula = kw_rewrite(&q).map_err(|e| {
                    BuildError::Internal(format!("Koutris–Wijsen base case failed: {e}"))
                })?;
                let compiled = CompiledFormula::compile(&formula);
                return Ok(RewritePlan {
                    problem: problem.clone(),
                    steps,
                    tail: Tail::Kw {
                        query: q,
                        formula: Box::new(formula),
                        compiled: Box::new(compiled),
                    },
                });
            }

            if let Some(n_rel) = q.relations().find(|&r| q.key_vars(r).is_empty()) {
                // Lemma 45.
                let n_atom = q.atom(n_rel).expect("relation from query").clone();
                let outgoing = fks.outgoing(n_rel);
                let mut removed = qfk_atoms(&q, &fks, &nonkey_positions(&q, n_rel));
                removed.insert(n_rel);
                let q0 = {
                    let keep: BTreeSet<RelName> =
                        q.relations().filter(|r| !removed.contains(r)).collect();
                    q.restrict(&keep)
                };
                let fk0 = fks.restrict_to_query(&q0);
                let xs: Vec<Var> = n_atom.vars().into_iter().collect();
                let b = Cst::fresh("b");
                let q0_generic = genericize(&q0, &xs, b);
                let sub_problem = Problem::new(q0_generic, fk0.clone()).map_err(|e| {
                    BuildError::Internal(format!("Lemma 45 residual problem invalid: {e}"))
                })?;
                let sub_plan = RewritePlan::build(&sub_problem).map_err(|e| {
                    BuildError::Internal(format!("Lemma 45 residual plan failed: {e}"))
                })?;
                return Ok(RewritePlan {
                    problem: problem.clone(),
                    steps,
                    tail: Tail::Lemma45(Box::new(Lemma45Step {
                        n_atom,
                        outgoing,
                        removed,
                        q0,
                        xs,
                        fk0,
                        b,
                        sub_plan: Box::new(sub_plan),
                        rename_table: RenameTable::new(b),
                    })),
                });
            }

            // Lemma 40: every atom has key variables; remove one d→o key.
            let fk = *fks.iter().next().expect("non-empty checked");
            if !fks.referencing(fk.to).iter().all(|r| *r == fk) {
                return Err(BuildError::Internal(format!(
                    "Lemma 34 violated: {} is referenced by several keys",
                    fk.to
                )));
            }
            let outgoing = fks.outgoing(fk.from);
            q = q.without(fk.to);
            fks = fks.without(&fk);
            push(&mut steps, StepAction::RemoveDO { fk, outgoing }, &q, &fks);
            debug_assert!(check_invariants(&q, &fks).is_ok());
        }
    }

    /// Evaluates the plan: is `db` a yes-instance of `CERTAINTY(q, FK)`?
    ///
    /// Facts over relations not occurring in `q` cannot influence the answer
    /// (no foreign key of a set *about* `q` touches them) and are ignored.
    pub fn answer(&self, db: &Instance) -> bool {
        let rels: BTreeSet<RelName> = self.problem.query().relations().collect();
        let mut cur = db.restrict(&rels);
        for step in &self.steps {
            cur = apply_step(&step.action, &cur);
        }
        match &self.tail {
            Tail::Kw { compiled, .. } => compiled.eval_closed(&cur),
            Tail::Lemma45(step) => step.answer(&cur),
        }
    }

    /// The residual query of the Koutris–Wijsen base case, if the pipeline
    /// bottoms out there directly.
    pub fn kw_query(&self) -> Option<&Query> {
        match &self.tail {
            Tail::Kw { query, .. } => Some(query),
            Tail::Lemma45(_) => None,
        }
    }

    /// Total number of steps, counting nested Lemma 45 plans.
    pub fn depth(&self) -> usize {
        self.steps.len()
            + match &self.tail {
                Tail::Kw { .. } => 1,
                Tail::Lemma45(s) => 1 + s.sub_plan.depth(),
            }
    }
}

/// Replaces the variables `xs` and **all constants** of `q0` by the generic
/// constant `b` (the paper's final renaming argument in Lemma 45, which
/// reduces to a problem whose only constant is `b`).
fn genericize(q0: &Query, xs: &[Var], b: Cst) -> Query {
    let atoms = q0
        .atoms()
        .iter()
        .map(|a| {
            Atom::new(
                a.rel,
                a.terms
                    .iter()
                    .map(|t| match t {
                        Term::Cst(_) => Term::Cst(b),
                        Term::Var(x) if xs.contains(x) => Term::Cst(b),
                        other => *other,
                    })
                    .collect(),
            )
        })
        .collect();
    Query::new(q0.schema().clone(), atoms).expect("renaming preserves validity")
}

/// Checks Theorem 12's FO conditions.
pub(crate) fn check_invariants(q: &Query, fks: &FkSet) -> Result<(), BuildError> {
    if !AttackGraph::of(q).is_acyclic() {
        return Err(BuildError::CyclicAttackGraph);
    }
    let ws = block_interference(q, fks);
    if !ws.is_empty() {
        return Err(BuildError::BlockInterference(ws));
    }
    Ok(())
}

fn apply_step(action: &StepAction, cur: &Instance) -> Instance {
    match action {
        StepAction::DropTrivial { .. }
        | StepAction::CloseStar { .. }
        | StepAction::DropWeak { .. }
        | StepAction::RemoveDD { .. } => cur.clone(),
        StepAction::RemoveOO { fk, relevance_query } => {
            let mut out = Instance::new(cur.schema().clone());
            for rel in cur.populated_relations() {
                if rel == fk.to {
                    continue; // drop the S-relation
                }
                if rel == fk.from {
                    for (_, facts) in cur.blocks(rel) {
                        if block_is_relevant(cur, relevance_query, &facts[0]) {
                            for f in facts {
                                out.insert(f).expect("same schema");
                            }
                        }
                    }
                } else {
                    for f in cur.facts_of(rel) {
                        out.insert(f).expect("same schema");
                    }
                }
            }
            out
        }
        StepAction::RemoveDO { fk, outgoing } => {
            let mut out = Instance::new(cur.schema().clone());
            for rel in cur.populated_relations() {
                if rel == fk.to {
                    continue; // drop the O-relation
                }
                if rel == fk.from {
                    for (_, facts) in cur.blocks(rel) {
                        let keep = facts
                            .iter()
                            .any(|f| outgoing.iter().all(|o| !cur.is_dangling(f, o)));
                        if keep {
                            for f in facts {
                                out.insert(f).expect("same schema");
                            }
                        }
                    }
                } else {
                    for f in cur.facts_of(rel) {
                        out.insert(f).expect("same schema");
                    }
                }
            }
            out
        }
    }
}

impl Lemma45Step {
    /// Evaluates the Lemma 45 branch on the (already reduced) instance.
    pub fn answer(&self, cur: &Instance) -> bool {
        let sig = cur.sig(self.n_atom.rel);
        let key: Vec<Cst> = self
            .n_atom
            .key_terms(sig)
            .iter()
            .map(|t| t.as_cst().expect("key(N) = ∅ means constant key terms"))
            .collect();
        let block = cur.block(self.n_atom.rel, &key);
        if block.is_empty() {
            return false;
        }
        let non_dangling_exists = block
            .iter()
            .any(|f| self.outgoing.iter().all(|fk| !cur.is_dangling(f, fk)));
        if !non_dangling_exists {
            return false;
        }
        for fact in &block {
            let Some(theta) = unify(&self.n_atom, fact, &Valuation::new()) else {
                // A repair may keep this non-matching fact, falsifying q.
                return false;
            };
            let renamed = self.rename(cur, &theta);
            if !self.sub_plan.answer(&renamed) {
                return false;
            }
        }
        true
    }

    /// The injective renaming `f` of the paper: each database value is
    /// renamed per position according to the term of `q₀[⃗x→θ(⃗x)]` at that
    /// position; a value equal to the expected constant becomes `b`. The
    /// renamed row stream comes lazily from an [`InstanceView`] (restricted
    /// to `q₀`'s relations by construction), and the invented constants are
    /// recycled through the step's [`RenameTable`] across calls; only this
    /// interpretive oracle path still materializes the result, because the
    /// generic residual plan needs a database to recurse on.
    fn rename(&self, db: &Instance, theta: &Valuation) -> Instance {
        let view = InstanceView::new(db);
        let mut out = Instance::new(db.schema().clone());
        for rel in self.q0.relations() {
            let atom = self.q0.atom(rel).expect("relation of q0");
            let spec: Vec<Term> = atom
                .terms
                .iter()
                .map(|t| match t {
                    Term::Var(x) => match theta.get(x) {
                        Some(&c) => Term::Cst(c),
                        None => Term::Var(*x),
                    },
                    t => *t,
                })
                .collect();
            for args in view.renamed_rows(rel, &spec, &self.rename_table) {
                out.insert(Fact::new(rel, args)).expect("same schema");
            }
        }
        out
    }
}

impl fmt::Display for RewritePlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "plan for {}", self.problem)?;
        for (i, step) in self.steps.iter().enumerate() {
            writeln!(
                f,
                "  {}. {}   ⟹   CERTAINTY({}, {})",
                i + 1,
                step.action,
                step.query_after,
                step.fks_after
            )?;
        }
        match &self.tail {
            Tail::Kw { query, formula, .. } => {
                writeln!(f, "  ⊢ Koutris–Wijsen rewriting of {query}:")?;
                write!(f, "    {formula}")
            }
            Tail::Lemma45(s) => {
                writeln!(
                    f,
                    "  ⊢ Lemma 45 on {} (binding {:?}, generic constant {}):",
                    s.n_atom, s.xs, s.b
                )?;
                let sub = s.sub_plan.to_string();
                for line in sub.lines() {
                    writeln!(f, "    {line}")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_model::parser::{parse_fks, parse_instance, parse_query, parse_schema};
    use std::sync::Arc;

    fn plan(schema: &str, query: &str, fks: &str) -> RewritePlan {
        let s = Arc::new(parse_schema(schema).unwrap());
        let q = parse_query(&s, query).unwrap();
        let k = parse_fks(&s, fks).unwrap();
        RewritePlan::build(&Problem::new(q, k).unwrap()).unwrap()
    }

    #[test]
    fn example_13_q1_reduces_via_lemma_37() {
        // q1 = {N(x,u,y), O(y,w)}, FK = {N[3]→O}: o→o, so Lemma 37 removes
        // the O-atom; the residual query is {N(x,u,y)} with no keys.
        let p = plan("N[3,1] O[2,1]", "N(x,u,y), O(y,w)", "N[3] -> O");
        assert_eq!(p.steps.len(), 1);
        assert!(matches!(p.steps[0].action, StepAction::RemoveOO { .. }));
        let kw = p.kw_query().expect("KW tail");
        assert_eq!(kw.len(), 1);
        assert!(kw.contains(RelName::new("N")));
    }

    #[test]
    fn example_13_q1_answer_matches_paper_witness() {
        // The paper's witness: {N(c,1,a), N(c,2,b), O(a,3)} is a
        // yes-instance of CERTAINTY(q1, FK) but a no-instance of
        // CERTAINTY(q1) (without keys).
        let p = plan("N[3,1] O[2,1]", "N(x,u,y), O(y,w)", "N[3] -> O");
        let s = Arc::new(parse_schema("N[3,1] O[2,1]").unwrap());
        let db = parse_instance(&s, "N(c,1,a) N(c,2,b) O(a,3)").unwrap();
        assert!(p.answer(&db), "paper says yes-instance with the FK");

        // Without the foreign key the same db is a no-instance.
        let q1 = parse_query(&s, "N(x,u,y), O(y,w)").unwrap();
        let pk_plan = RewritePlan::build(&Problem::pk_only(q1)).unwrap();
        assert!(!pk_plan.answer(&db), "paper says no-instance without the FK");
    }

    #[test]
    fn example_13_q3_matches_pk_only_rewriting() {
        // q3 = {N(x,'c',y), O(y,'c')}: d→d, removed by Lemma 39; the paper
        // notes CERTAINTY(q3, FK) and CERTAINTY(q3) coincide.
        let p = plan("N[3,1] O[2,1]", "N(x,'c',y), O(y,'c')", "N[3] -> O");
        assert!(matches!(p.steps[0].action, StepAction::RemoveDD { .. }));

        let s = Arc::new(parse_schema("N[3,1] O[2,1]").unwrap());
        let q3 = parse_query(&s, "N(x,'c',y), O(y,'c')").unwrap();
        let pk_plan = RewritePlan::build(&Problem::pk_only(q3)).unwrap();
        for text in [
            "N(a,c,1) O(1,c)",
            "N(a,c,1) O(1,d)",
            "N(a,c,1) N(a,d,2) O(1,c)",
            "N(a,c,1) N(a,c,2) O(1,c) O(2,c)",
            "",
        ] {
            let db = parse_instance(&s, text).unwrap();
            assert_eq!(p.answer(&db), pk_plan.answer(&db), "on {text}");
        }
    }

    #[test]
    fn section8_example_via_lemma_45() {
        // q = {N('c',y), O(y), P(y)}, FK = {N[2]→O}: key(N) = ∅ triggers
        // Lemma 45. Paper's rewriting: ∃y(N(c,y) ∧ O(y)) ∧ ∀y(N(c,y)→P(y)).
        let p = plan("N[2,1] O[1,1] P[1,1]", "N('c',y), O(y), P(y)", "N[2] -> O");
        assert!(matches!(p.tail, Tail::Lemma45(_)));

        let s = Arc::new(parse_schema("N[2,1] O[1,1] P[1,1]").unwrap());
        // The paper's instance: yes; removing either P-fact: no.
        let yes = parse_instance(&s, "N(c,a) N(c,b) O(a) P(a) P(b)").unwrap();
        assert!(p.answer(&yes));
        let no1 = parse_instance(&s, "N(c,a) N(c,b) O(a) P(b)").unwrap();
        assert!(!p.answer(&no1));
        let no2 = parse_instance(&s, "N(c,a) N(c,b) O(a) P(a)").unwrap();
        assert!(!p.answer(&no2));
        // Both N-facts dangling and no O at all: the empty repair falsifies.
        let no3 = parse_instance(&s, "N(c,a) N(c,b) P(a) P(b)").unwrap();
        assert!(!p.answer(&no3));
        // Empty N-block: no.
        let no4 = parse_instance(&s, "O(a) P(a)").unwrap();
        assert!(!p.answer(&no4));
    }

    #[test]
    fn weak_keys_are_dropped_with_identity_reduction() {
        // q = {R(x,y), S(x)} with weak R[1]→S.
        let p = plan("R[2,1] S[1,1]", "R(x,y), S(x)", "R[1] -> S");
        assert!(p
            .steps
            .iter()
            .any(|s| matches!(s.action, StepAction::DropWeak { .. })));

        let s = Arc::new(parse_schema("R[2,1] S[1,1]").unwrap());
        // With the weak key removed this is plain CERTAINTY({R(x,y),S(x)}).
        let yes = parse_instance(&s, "R(a,1) S(a)").unwrap();
        assert!(p.answer(&yes));
        // S(a) missing: a repair dropping nothing still falsifies S(x)∧R(x,y)
        // — wait, with FKs the dangling R(a,1) can be repaired by inserting
        // S(a). {} is ⊕-closer? No: {} deletes R(a,1) while insertion-repair
        // keeps it; both are repairs, and the inserting repair satisfies q,
        // the deleting one does not.
        let no = parse_instance(&s, "R(a,1)").unwrap();
        assert!(!p.answer(&no));
    }

    #[test]
    fn obedient_source_goes_through_lemma_37() {
        // q = {N(x,y), O(y)}, FK = {N[2]→O}: the N-atom is obedient (its
        // only non-key position holds y, which occurs nowhere outside the
        // closure), so the key is o→o and Lemma 37 applies.
        let p = plan("N[2,1] O[1,1]", "N(x,y), O(y)", "N[2] -> O");
        assert!(p
            .steps
            .iter()
            .any(|s| matches!(s.action, StepAction::RemoveOO { .. })));

        let s = Arc::new(parse_schema("N[2,1] O[1,1]").unwrap());
        // Single dangling N-fact: droppable ({} is a repair) → no.
        let no = parse_instance(&s, "N(a,b)").unwrap();
        assert!(!p.answer(&no));
        // Non-dangling N-fact: kept in every repair → yes.
        let yes = parse_instance(&s, "N(a,b) O(b)").unwrap();
        assert!(p.answer(&yes));
        // Block {N(a,b), N(a,z)} with only O(b): the repair choosing N(a,z)
        // inserts O(z) and satisfies q as well → yes.
        let yes2 = parse_instance(&s, "N(a,b) N(a,z) O(b)").unwrap();
        assert!(p.answer(&yes2));
    }

    #[test]
    fn lemma_40_do_removal() {
        // q = {N(x,y), O(y), T(z,y), U(z,y)}, FK = {N[2]→O}: the extra
        // occurrences of y make the N-atom disobedient (condition III), the
        // T/U pair keeps the attack graph acyclic and y determined, N's key
        // variable x is isolated from y in q∖{N} so (3b) fails, and (3a)
        // fails because P_N∖{(N,2)} = ∅. Hence d→o without interference,
        // every key non-empty: Lemma 40.
        let p = plan(
            "N[2,1] O[1,1] T[2,1] U[2,1]",
            "N(x,y), O(y), T(z,y), U(z,y)",
            "N[2] -> O",
        );
        assert!(p
            .steps
            .iter()
            .any(|s| matches!(s.action, StepAction::RemoveDO { .. })));

        let s = Arc::new(parse_schema("N[2,1] O[1,1] T[2,1] U[2,1]").unwrap());
        // Everything consistent and matching: yes.
        let yes = parse_instance(&s, "N(a,b) O(b) T(t,b) U(t,b)").unwrap();
        assert!(p.answer(&yes));
        // Dangling N-fact: a repair drops it → no.
        let no = parse_instance(&s, "N(a,b) T(t,b) U(t,b)").unwrap();
        assert!(!p.answer(&no));
        // T/U disagree on y: q unsatisfiable in the unique repair → no.
        let no2 = parse_instance(&s, "N(a,b) O(b) T(t,b) U(t,zz)").unwrap();
        assert!(!p.answer(&no2));
    }

    #[test]
    fn hard_cases_rejected() {
        let s = Arc::new(parse_schema("N[3,1] O[1,1] R[2,1] S[2,1]").unwrap());
        // Block-interference: §4's q.
        let q = parse_query(&s, "N(x,'c',y), O(y)").unwrap();
        let fks = parse_fks(&s, "N[3] -> O").unwrap();
        match RewritePlan::build(&Problem::new(q, fks).unwrap()) {
            Err(BuildError::BlockInterference(ws)) => assert!(!ws.is_empty()),
            other => panic!("expected block-interference, got {other:?}"),
        }
        // Cyclic attack graph.
        let q2 = parse_query(&s, "R(x,y), S(y,x)").unwrap();
        let p2 = Problem::pk_only(q2);
        assert!(matches!(
            RewritePlan::build(&p2),
            Err(BuildError::CyclicAttackGraph)
        ));
    }

    #[test]
    fn plan_display_mentions_lemmas() {
        let p = plan("N[2,1] O[1,1] P[1,1]", "N('c',y), O(y), P(y)", "N[2] -> O");
        let shown = p.to_string();
        assert!(shown.contains("Lemma 45"));
        assert!(p.depth() >= 2);
    }

    #[test]
    fn fk_star_closure_step_added_when_needed() {
        // R[2]→S, S[1]→T: the closure adds R[2]→T.
        let p = plan(
            "R[2,1] S[2,1] T[1,1]",
            "R(x,y), S(y,z), T(y)",
            "R[2] -> S, S[1] -> T",
        );
        assert!(p
            .steps
            .iter()
            .any(|s| matches!(s.action, StepAction::CloseStar { .. })));
    }

    #[test]
    fn trivial_keys_dropped() {
        let p = plan("S[2,1] R[2,1]", "S(x,y), R(y,z)", "S[1] -> S");
        assert!(matches!(p.steps[0].action, StepAction::DropTrivial { .. }));
        // Residual: plain CERTAINTY over both atoms.
        assert!(p.kw_query().is_some());
    }
}
