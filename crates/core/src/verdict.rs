//! Typed verdicts for the unified [`crate::Solver`] API.
//!
//! Every backend — the compiled FO plan, the polynomial-time Horn and
//! reachability solvers, the budgeted exhaustive oracle — answers through
//! one [`Verdict`]: a three-valued [`Certainty`] plus [`Provenance`]
//! recording which backend ran, how long it took, and (for batched calls)
//! how many verdicts shared the measured wall time. `Inconclusive` is an
//! honest verdict, not an error: the budgeted fallback reports it when its
//! search limits are exhausted rather than guessing.

use cqa_model::JoinStrategy;
use std::fmt;
use std::time::Duration;

/// The three-valued answer to `CERTAINTY(q, FK)` on one instance.
///
/// ```
/// use cqa_core::Certainty;
/// assert_eq!(Certainty::from_bool(true), Certainty::Certain);
/// assert_eq!(Certainty::NotCertain.as_bool(), Some(false));
/// assert_eq!(Certainty::Inconclusive.as_bool(), None);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Certainty {
    /// The query holds in every ⊕-repair.
    Certain,
    /// Some ⊕-repair falsifies the query.
    NotCertain,
    /// The budgeted fallback exhausted its limits before reaching a
    /// verdict (see [`Provenance::detail`] for why). Only the fallback
    /// route can produce this — the FO and polynomial-time backends always
    /// decide.
    Inconclusive,
}

impl Certainty {
    /// Lifts a definite boolean answer.
    pub fn from_bool(certain: bool) -> Certainty {
        if certain {
            Certainty::Certain
        } else {
            Certainty::NotCertain
        }
    }

    /// `Some(bool)` for definite verdicts, `None` when inconclusive.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Certainty::Certain => Some(true),
            Certainty::NotCertain => Some(false),
            Certainty::Inconclusive => None,
        }
    }
}

impl fmt::Display for Certainty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Certainty::Certain => write!(f, "certain"),
            Certainty::NotCertain => write!(f, "not certain"),
            Certainty::Inconclusive => write!(f, "inconclusive"),
        }
    }
}

/// Which concrete evaluator produced a verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// The view-backed [`crate::CompiledPlan`] (FO route, hot path).
    CompiledPlan,
    /// The interpretive, materializing [`crate::RewritePlan`] (FO route,
    /// only for a plan that fails to compile).
    MaterializedPlan,
    /// Dual-Horn SAT with unit propagation (Proposition 17 shape).
    DualHorn,
    /// The cycle-refined reachability criterion (Proposition 16 shape).
    Reachability,
    /// The budgeted exhaustive ⊕-repair oracle (opt-in fallback).
    Oracle,
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendKind::CompiledPlan => write!(f, "compiled plan"),
            BackendKind::MaterializedPlan => write!(f, "materialized plan"),
            BackendKind::DualHorn => write!(f, "dual-Horn"),
            BackendKind::Reachability => write!(f, "reachability"),
            BackendKind::Oracle => write!(f, "budgeted oracle"),
        }
    }
}

/// How an incremental re-answer ([`crate::IncrementalSolver::reanswer`])
/// arrived at its verdict — the observable face of delta-certainty, so
/// tests and benchmarks can assert the incremental path actually engaged
/// rather than silently recomputing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaOutcome {
    /// The delta did not intersect anything the problem reads — judged
    /// against the statically inferred read-set, which is block-precise on
    /// the compiled FO route — so the prior verdict was reused outright.
    Unaffected,
    /// The delta was localized to the blocks it touches: `reused` residual
    /// verdicts were taken from the session cache, `evaluated` were
    /// (re)computed.
    Localized {
        /// Block-fact residuals answered from the cache.
        reused: usize,
        /// Block-fact residuals evaluated this call.
        evaluated: usize,
    },
    /// The delta was not localizable (or the session had no usable prior
    /// state); a full from-scratch solve ran. The reason says why.
    Recomputed(&'static str),
}

impl fmt::Display for DeltaOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaOutcome::Unaffected => write!(f, "Δ unaffected"),
            DeltaOutcome::Localized { reused, evaluated } => {
                write!(f, "Δ localized ({reused} reused, {evaluated} evaluated)")
            }
            DeltaOutcome::Recomputed(why) => write!(f, "Δ recomputed: {why}"),
        }
    }
}

/// How a verdict was produced: backend, timing, batch context and plan
/// statistics.
#[derive(Clone, Debug)]
pub struct Provenance {
    /// The evaluator that ran.
    pub backend: BackendKind,
    /// Wall-clock time of the call that produced this verdict. When
    /// [`Provenance::batch`] is greater than 1 the time covers the whole
    /// sharded batch this verdict was computed in, not this instance
    /// alone.
    pub elapsed: Duration,
    /// Number of verdicts sharing the measured `elapsed` (1 for
    /// [`crate::Solver::solve`]; the chunk width for batched
    /// [`crate::Solver::solve_many`] chunks that fanned out across
    /// threads).
    pub batch: usize,
    /// Nesting depth of the rewrite plan (FO route only).
    pub plan_depth: Option<usize>,
    /// The join strategy the FO evaluator was compiled with — how acyclic
    /// residual conjunctions execute (Yannakakis semijoin passes vs
    /// backtracking search). `None` outside the FO route, where no
    /// relational join runs.
    pub join: Option<JoinStrategy>,
    /// How the incremental path handled the delta; `None` outside
    /// [`crate::IncrementalSolver::reanswer`].
    pub delta: Option<DeltaOutcome>,
    /// Free-form diagnostics — the fallback oracle's reason when the
    /// verdict is [`Certainty::Inconclusive`]. `None` on the hot paths (no
    /// allocation per solve).
    pub detail: Option<String>,
}

/// The unified solver's answer for one instance: a [`Certainty`] plus the
/// [`Provenance`] of how it was reached.
///
/// ```
/// use cqa_core::{Problem, Solver};
/// use cqa_model::parser::{parse_fks, parse_instance, parse_query, parse_schema};
/// use std::sync::Arc;
///
/// let s = Arc::new(parse_schema("N[2,1] O[1,1] P[1,1]").unwrap());
/// let q = parse_query(&s, "N('c',y), O(y), P(y)").unwrap();
/// let fks = parse_fks(&s, "N[2] -> O").unwrap();
/// let solver = Solver::new(Problem::new(q, fks).unwrap()).unwrap();
/// let db = parse_instance(&s, "N(c,a) N(c,b) O(a) P(a) P(b)").unwrap();
///
/// let verdict = solver.solve(&db);
/// assert!(verdict.is_certain());
/// assert_eq!(verdict.as_bool(), Some(true));
/// assert_eq!(verdict.provenance.backend, cqa_core::BackendKind::CompiledPlan);
/// ```
#[derive(Clone, Debug)]
pub struct Verdict {
    /// The three-valued answer.
    pub certainty: Certainty,
    /// How it was reached.
    pub provenance: Provenance,
}

impl Verdict {
    /// `true` iff the verdict is [`Certainty::Certain`].
    pub fn is_certain(&self) -> bool {
        self.certainty == Certainty::Certain
    }

    /// `Some(bool)` for definite verdicts, `None` when inconclusive.
    pub fn as_bool(&self) -> Option<bool> {
        self.certainty.as_bool()
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (via {}", self.certainty, self.provenance.backend)?;
        if let Some(d) = self.provenance.plan_depth {
            write!(f, ", plan depth {d}")?;
        }
        if let Some(j) = self.provenance.join {
            write!(f, ", {j} join")?;
        }
        write!(f, ", {:?}", self.provenance.elapsed)?;
        if self.provenance.batch > 1 {
            write!(f, " over a batch of {}", self.provenance.batch)?;
        }
        if let Some(delta) = &self.provenance.delta {
            write!(f, "; {delta}")?;
        }
        if let Some(why) = &self.provenance.detail {
            write!(f, "; {why}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn certainty_round_trips() {
        assert_eq!(Certainty::from_bool(true).as_bool(), Some(true));
        assert_eq!(Certainty::from_bool(false).as_bool(), Some(false));
        assert_eq!(Certainty::Inconclusive.as_bool(), None);
        assert_eq!(Certainty::Certain.to_string(), "certain");
    }

    #[test]
    fn verdict_display_carries_provenance() {
        let v = Verdict {
            certainty: Certainty::Inconclusive,
            provenance: Provenance {
                backend: BackendKind::Oracle,
                elapsed: Duration::from_millis(3),
                batch: 4,
                plan_depth: None,
                join: None,
                delta: Some(DeltaOutcome::Localized {
                    reused: 7,
                    evaluated: 1,
                }),
                detail: Some("budget exhausted".to_string()),
            },
        };
        let text = v.to_string();
        assert!(text.contains("inconclusive"));
        assert!(text.contains("budgeted oracle"));
        assert!(text.contains("batch of 4"));
        assert!(text.contains("7 reused, 1 evaluated"));
        assert!(text.contains("budget exhausted"));
    }
}
