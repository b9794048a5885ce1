//! The unified, dichotomy-aware solver: one entry point that routes every
//! `CERTAINTY(q, FK)` problem to its best backend.
//!
//! The paper's classification is a *trichotomy* in practice: a problem is
//! FO-rewritable (Theorem 12 case 1), polynomial-time decidable through a
//! combinatorial reduction (the Proposition 16/17 shapes), or hard — and
//! [`Solver`] serves all three: [`SolverBuilder::build`] classifies
//! **once** and compiles a [`Route`]:
//!
//! * [`Route::FoPlan`] — the consistent FO rewriting, executed through the
//!   view-backed [`CompiledPlan`] (or the materializing interpreter when
//!   [`ExecOptions::evaluator`] asks for it);
//! * [`Route::PolyTime`] — a pre-bound dual-Horn / reachability
//!   [`Backend`] for problems isomorphic (up to renaming) to the paper's
//!   Proposition 16 or 17;
//! * [`Route::Fallback`] — the budgeted exhaustive ⊕-repair oracle for the
//!   remaining hard class, **opt-in** via [`ExecOptions::fallback`] and
//!   honest about exhaustion: it answers [`Certainty::Inconclusive`]
//!   instead of silently brute-forcing past its budget.
//!
//! All answering goes through [`Solver::solve`] (one typed [`Verdict`]
//! carrying provenance, evaluated on the calling thread) and
//! [`Solver::solve_many`] (a lazy, input-ordered iterator that internally
//! batches and — on the FO and poly-time routes — shards each chunk across
//! a scoped thread pool; the fallback route stays sequential, since
//! per-instance oracle search dominates and its verdicts carry
//! per-instance diagnostics). Batches are the only parallel grain: a single
//! plan evaluation is too short for a thread fan-out to pay for itself.
//!
//! ```
//! use cqa_core::{BackendKind, Problem, Solver};
//! use cqa_model::parser::{parse_fks, parse_instance, parse_query, parse_schema};
//! use std::sync::Arc;
//!
//! // FO-rewritable (§8's query): routed to the compiled plan.
//! let s = Arc::new(parse_schema("N[2,1] O[1,1] P[1,1]").unwrap());
//! let q = parse_query(&s, "N('c',y), O(y), P(y)").unwrap();
//! let fks = parse_fks(&s, "N[2] -> O").unwrap();
//! let solver = Solver::new(Problem::new(q, fks).unwrap()).unwrap();
//! let db = parse_instance(&s, "N(c,a) N(c,b) O(a) P(a) P(b)").unwrap();
//! let verdict = solver.solve(&db);
//! assert!(verdict.is_certain());
//! assert_eq!(verdict.provenance.backend, BackendKind::CompiledPlan);
//!
//! // NL-complete (Proposition 16, relations renamed): routed to
//! // reachability — the same call site, no per-class plumbing.
//! let s = Arc::new(parse_schema("E[2,1] V[1,1]").unwrap());
//! let q = parse_query(&s, "E(x,x), V(x)").unwrap();
//! let fks = parse_fks(&s, "E[2] -> V").unwrap();
//! let solver = Solver::new(Problem::new(q, fks).unwrap()).unwrap();
//! let db = parse_instance(&s, "E(a,a) V(a)").unwrap();
//! assert_eq!(solver.solve(&db).provenance.backend, BackendKind::Reachability);
//! assert_eq!(solver.solve(&db).as_bool(), Some(true));
//! ```

use crate::classify::{classify, Classification, NotFoReason};
use crate::compiled_plan::{CompiledPlan, ResidualCache};
use crate::flatten::{flatten, FlattenError};
use crate::pipeline::RewritePlan;
use crate::problem::Problem;
use crate::verdict::{BackendKind, Certainty, DeltaOutcome, Provenance, Verdict};
use cqa_analyze::ReadSet;
use cqa_fo::Formula;
use cqa_model::schema::RelName;
use cqa_model::{Cst, Delta, Instance, JoinStrategy, ModelError};
use cqa_repair::{CertaintyOracle, OracleOutcome, SearchLimits};
use cqa_solvers::backend::{Backend, DualHornBackend, ReachabilityBackend};
use rayon_lite::ThreadPool;
use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::time::Instant;

/// Which FO evaluator the solver should execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Evaluator {
    /// The view-backed [`CompiledPlan`] (zero intermediate
    /// materializations; the hot path). Falls back to the interpreter if
    /// the plan does not compile.
    Compiled,
    /// The interpretive, materializing [`RewritePlan`] — the differential
    /// oracle, occasionally useful for debugging.
    Materialized,
}

/// Whether (and with how much budget) the hard class may fall back to the
/// exhaustive ⊕-repair oracle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FallbackBudget {
    /// Hard problems are rejected at [`SolverBuilder::build`] time with
    /// [`SolverError::HardWithoutFallback`] (the default: nobody
    /// brute-forces by accident).
    Deny,
    /// Hard problems route to the oracle under these limits; exhausting
    /// them yields [`Certainty::Inconclusive`].
    Allow(SearchLimits),
}

/// Typed execution options for the unified solver — one struct folding the
/// batch width (the `CQA_THREADS` environment variable), the
/// compiled-vs-materialized evaluator split, the join strategy and the
/// oracle's search limits.
///
/// `CQA_THREADS` and `CQA_EVALUATOR` are consulted exactly **once**, in
/// [`ExecOptions::default`]; every later use of the options reads the
/// resolved [`ExecOptions::threads`] and [`ExecOptions::join`] fields.
/// (The pre-solver surfaces re-parsed the environment on every call.)
///
/// ```
/// use cqa_core::{ExecOptions, FallbackBudget};
/// use cqa_repair::SearchLimits;
///
/// let opts = ExecOptions {
///     threads: 4,
///     fallback: FallbackBudget::Allow(SearchLimits::budgeted(10_000)),
///     ..ExecOptions::default()
/// };
/// assert_eq!(opts.threads, 4);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecOptions {
    /// Worker-thread width for batch sharding ([`Solver::solve_many`] and
    /// [`crate::certain_answers_with`]), clamped to the available
    /// parallelism when a batch fans out. `1` disables fan-out. Resolved
    /// from `CQA_THREADS` (else available parallelism) once at
    /// construction — never `0`. A single [`Solver::solve`] always runs on
    /// the calling thread.
    pub threads: usize,
    /// Which FO evaluator to execute on [`Route::FoPlan`].
    pub evaluator: Evaluator,
    /// How the compiled FO evaluator executes acyclic residual
    /// conjunctions: Yannakakis semijoin passes, backtracking search, or a
    /// per-site cardinality heuristic ([`JoinStrategy::Auto`]). Resolved
    /// from `CQA_EVALUATOR` once at construction, like
    /// [`ExecOptions::threads`].
    pub join: JoinStrategy,
    /// Opt-in budget for the hard-class fallback route.
    pub fallback: FallbackBudget,
}

impl Default for ExecOptions {
    /// Compiled evaluator, no fallback, environment-resolved width — the
    /// one place `CQA_THREADS` is read.
    fn default() -> ExecOptions {
        ExecOptions {
            threads: rayon_lite::current_num_threads(),
            evaluator: Evaluator::Compiled,
            join: JoinStrategy::from_env(),
            fallback: FallbackBudget::Deny,
        }
    }
}

impl ExecOptions {
    /// Fully sequential execution: batches never fan out.
    pub fn sequential() -> ExecOptions {
        ExecOptions {
            threads: 1,
            ..ExecOptions::default()
        }
    }

    /// Replaces the batch width (builder style). `0` re-resolves from the
    /// environment.
    pub fn with_threads(mut self, threads: usize) -> ExecOptions {
        self.threads = match threads {
            0 => rayon_lite::current_num_threads(),
            n => n,
        };
        self
    }

    /// Replaces the join strategy for acyclic residual conjunctions
    /// (builder style).
    pub fn with_join(mut self, join: JoinStrategy) -> ExecOptions {
        self.join = join;
        self
    }

    /// Enables the hard-class fallback under `limits` (builder style).
    pub fn with_fallback(mut self, limits: SearchLimits) -> ExecOptions {
        self.fallback = FallbackBudget::Allow(limits);
        self
    }

    /// Enables the hard-class fallback with default oracle limits.
    pub fn allow_fallback(self) -> ExecOptions {
        self.with_fallback(SearchLimits::default())
    }

    /// The batch width actually used: [`ExecOptions::threads`] clamped to
    /// the available parallelism, so a wide request on a one-core machine
    /// runs inline instead of paying spawns for identical answers.
    fn width(&self) -> usize {
        self.threads.clamp(1, rayon_lite::current_num_threads())
    }

    /// The pool for a batch of `units` independent items, or `None` when
    /// the batch should run inline (one thread, or below [`MIN_FAN_OUT`]).
    pub(crate) fn batch_pool(&self, units: usize) -> Option<ThreadPool> {
        (self.width() > 1 && units >= MIN_FAN_OUT).then(|| ThreadPool::new(self.width()))
    }
}

/// Fewest items a batch must hold before it fans out across threads;
/// smaller batches run inline, where a spawn would cost more than it saves.
const MIN_FAN_OUT: usize = 16;

/// Why a [`Solver`] could not be built.
#[derive(Debug)]
pub enum SolverError {
    /// The problem is in the hard class (not FO-rewritable and not
    /// isomorphic to a known polynomial-time shape), and
    /// [`ExecOptions::fallback`] denies the exhaustive oracle. The
    /// Theorem 12 hardness witnesses are attached; opt in with
    /// [`ExecOptions::with_fallback`] to solve anyway under a budget.
    HardWithoutFallback(NotFoReason),
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::HardWithoutFallback(reason) => write!(
                f,
                "problem is in the hard class ({reason}); enable ExecOptions::fallback \
                 to solve it anyway under an oracle budget"
            ),
        }
    }
}

impl std::error::Error for SolverError {}

/// The FO route: the rewrite plan and (usually) its compiled executor.
#[derive(Clone, Debug)]
pub struct FoRoute {
    plan: RewritePlan,
    compiled: Option<CompiledPlan>,
    depth: usize,
}

impl FoRoute {
    /// The rewrite plan.
    pub fn plan(&self) -> &RewritePlan {
        &self.plan
    }

    /// The compiled executor, when available under the chosen evaluator.
    pub fn compiled(&self) -> Option<&CompiledPlan> {
        self.compiled.as_ref()
    }
}

/// The polynomial-time route: a pre-bound combinatorial backend, plus the
/// renaming it was matched under (which relations play the paper's `N` and
/// `O`, and — for Proposition 17 — which constant plays `c`). The renaming
/// is what artifact emission (`cqa-emit`) re-reads to lower the route into
/// Datalog/SQL without re-deriving the shape match.
pub struct PolyRoute {
    backend: Box<dyn Backend>,
    kind: BackendKind,
    n: RelName,
    o: RelName,
    middle: Option<Cst>,
}

impl PolyRoute {
    /// The backend adapter.
    pub fn backend(&self) -> &dyn Backend {
        self.backend.as_ref()
    }

    /// Which backend family this is.
    pub fn kind(&self) -> BackendKind {
        self.kind
    }

    /// The relation playing the paper's `N` (the FK source).
    pub fn n(&self) -> RelName {
        self.n
    }

    /// The relation playing the paper's `O` (the FK target).
    pub fn o(&self) -> RelName {
        self.o
    }

    /// The constant playing Proposition 17's `'c'` (middle position);
    /// `None` on the reachability route.
    pub fn middle(&self) -> Option<&Cst> {
        self.middle.as_ref()
    }
}

impl fmt::Debug for PolyRoute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PolyRoute")
            .field("backend", &self.backend.name())
            .field("kind", &self.kind)
            .finish()
    }
}

/// The hard-class route: the budgeted exhaustive oracle.
#[derive(Clone, Debug)]
pub struct FallbackRoute {
    oracle: CertaintyOracle,
    reason: NotFoReason,
}

impl FallbackRoute {
    /// The budgeted oracle.
    pub fn oracle(&self) -> &CertaintyOracle {
        &self.oracle
    }

    /// The Theorem 12 hardness witnesses that put the problem here.
    pub fn reason(&self) -> &NotFoReason {
        &self.reason
    }
}

/// The compiled routing decision: which backend answers this problem.
#[derive(Debug)]
pub enum Route {
    /// FO-rewritable (Theorem 12 case 1; boxed — a plan carries its
    /// compiled executor and dwarfs the other variants).
    FoPlan(Box<FoRoute>),
    /// Polynomial-time via a combinatorial reduction (Proposition 16/17
    /// shapes, up to renaming).
    PolyTime(PolyRoute),
    /// Hard class, answered by the budgeted oracle (opt-in).
    Fallback(FallbackRoute),
}

/// A copyable tag for [`Route`] variants (handy in tests and provenance
/// assertions).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteKind {
    /// [`Route::FoPlan`].
    Fo,
    /// [`Route::PolyTime`].
    PolyTime,
    /// [`Route::Fallback`].
    Fallback,
}

/// Everything an external artifact emitter needs to lower a compiled route
/// into a self-contained program (Datalog, SQL, …) — the route's *logical*
/// content, independent of the in-process executors. Produced by
/// [`Solver::emit_spec`]; consumed by `cqa-emit`.
#[derive(Clone, Debug)]
pub enum EmitSpec {
    /// The FO route: the consistent rewriting flattened into one closed
    /// formula (proven equivalent to the plan's answer), plus the plan
    /// depth for provenance.
    Fo {
        /// The flattened closed rewriting.
        formula: Formula,
        /// Lemma 45 nesting depth of the source plan.
        depth: usize,
    },
    /// The Proposition 16 route: certainty is non-escape reachability over
    /// the block graph of `n`, with `o` marking the goal facts.
    Reachability {
        /// The relation playing the paper's `N`.
        n: RelName,
        /// The relation playing the paper's `O`.
        o: RelName,
    },
    /// The Proposition 17 route: certainty is the least model of the
    /// flipped dual-Horn program over `n`'s blocks (middle constant
    /// `middle`), with `o` marking the goal facts.
    DualHorn {
        /// The relation playing the paper's `N`.
        n: RelName,
        /// The relation playing the paper's `O`.
        o: RelName,
        /// The constant playing the paper's `'c'`.
        middle: Cst,
    },
}

/// Why a route has no emittable specification.
#[derive(Debug)]
pub enum EmitSpecError {
    /// The problem routed to the budgeted oracle: the hard class has no
    /// polynomial-size Datalog/SQL rendering (under standard complexity
    /// assumptions), so there is nothing to emit.
    FallbackOnly,
    /// The FO plan could not be flattened into one closed formula.
    Flatten(FlattenError),
}

impl fmt::Display for EmitSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmitSpecError::FallbackOnly => write!(
                f,
                "the problem routed to the budgeted oracle; hard-class \
                 certainty has no emittable Datalog/SQL rendering"
            ),
            EmitSpecError::Flatten(e) => write!(f, "flattening the FO plan failed: {e}"),
        }
    }
}

impl std::error::Error for EmitSpecError {}

impl From<FlattenError> for EmitSpecError {
    fn from(e: FlattenError) -> EmitSpecError {
        EmitSpecError::Flatten(e)
    }
}

impl Route {
    /// This route's tag.
    pub fn kind(&self) -> RouteKind {
        match self {
            Route::FoPlan(_) => RouteKind::Fo,
            Route::PolyTime(_) => RouteKind::PolyTime,
            Route::Fallback(_) => RouteKind::Fallback,
        }
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Route::FoPlan(r) => write!(
                f,
                "FO → {} (plan depth {})",
                if r.compiled.is_some() {
                    "compiled plan"
                } else {
                    "materialized plan"
                },
                r.depth
            ),
            Route::PolyTime(r) => write!(f, "poly-time → {}", r.backend.name()),
            Route::Fallback(r) => write!(f, "hard → budgeted oracle ({})", r.reason),
        }
    }
}

/// Builder for [`Solver`]: attach [`ExecOptions`], then [`build`] to
/// classify the problem once and compile its route.
///
/// [`build`]: SolverBuilder::build
#[derive(Debug)]
pub struct SolverBuilder {
    problem: Problem,
    options: ExecOptions,
}

impl SolverBuilder {
    /// Replaces the execution options (the default is
    /// [`ExecOptions::default`]).
    pub fn options(mut self, options: ExecOptions) -> SolverBuilder {
        self.options = options;
        self
    }

    /// Classifies the problem (Theorem 12), compiles the best route, and
    /// returns the ready solver. Classification, shape matching and plan
    /// compilation all happen here, exactly once; [`Solver::solve`] is
    /// pure dispatch.
    pub fn build(self) -> Result<Solver, SolverError> {
        let route = match classify(&self.problem) {
            Classification::Fo(plan) => {
                let compiled = match self.options.evaluator {
                    Evaluator::Compiled => {
                        CompiledPlan::compile_with(&plan, self.options.join).ok()
                    }
                    Evaluator::Materialized => None,
                };
                let depth = plan.depth();
                Route::FoPlan(Box::new(FoRoute {
                    plan: *plan,
                    compiled,
                    depth,
                }))
            }
            Classification::NotFo(reason) => match poly_backend(&self.problem) {
                Some(route) => Route::PolyTime(route),
                None => match self.options.fallback {
                    FallbackBudget::Allow(limits) => Route::Fallback(FallbackRoute {
                        oracle: CertaintyOracle::with_limits(limits),
                        reason,
                    }),
                    FallbackBudget::Deny => {
                        return Err(SolverError::HardWithoutFallback(reason))
                    }
                },
            },
        };
        Ok(Solver {
            problem: self.problem,
            options: self.options,
            route,
        })
    }
}

/// Matches problems isomorphic (up to renaming of relations, variables and
/// the Proposition 17 middle constant) to the paper's polynomial-time
/// shapes, returning the pre-bound backend.
fn poly_backend(problem: &Problem) -> Option<PolyRoute> {
    let q = problem.query();
    let fks = problem.fks();
    if q.len() != 2 || fks.len() != 1 {
        return None;
    }
    let fk = *fks.iter().next().expect("len checked");
    if fk.from == fk.to {
        return None;
    }
    let o_sig = q.sig(fk.to);
    if o_sig.arity != 1 || o_sig.key_len != 1 {
        return None;
    }
    let n_atom = q.atom(fk.from)?;
    let o_atom = q.atom(fk.to)?;
    let o_var = o_atom.terms[0].as_var()?;
    let n_sig = q.sig(fk.from);
    match (n_sig.arity, n_sig.key_len, fk.pos) {
        // Proposition 16: q = {N(x,x), O(x)}, FK = {N[2]→O}.
        (2, 1, 2) => {
            let x = n_atom.terms[0].as_var()?;
            let y = n_atom.terms[1].as_var()?;
            (x == y && x == o_var).then(|| PolyRoute {
                backend: Box::new(ReachabilityBackend::new(fk.from, fk.to)),
                kind: BackendKind::Reachability,
                n: fk.from,
                o: fk.to,
                middle: None,
            })
        }
        // Proposition 17: q = {N(x,'c',y), O(y)}, FK = {N[3]→O}.
        (3, 1, 3) => {
            let x = n_atom.terms[0].as_var()?;
            let c = n_atom.terms[1].as_cst()?;
            let y = n_atom.terms[2].as_var()?;
            (x != y && y == o_var).then(|| PolyRoute {
                backend: Box::new(DualHornBackend::new(fk.from, fk.to, c)),
                kind: BackendKind::DualHorn,
                n: fk.from,
                o: fk.to,
                middle: Some(c),
            })
        }
        _ => None,
    }
}

/// The unified, dichotomy-aware solver: accepts **any** valid
/// `CERTAINTY(q, FK)` problem, classifies it once at construction, and
/// answers every instance through the fastest sound backend. See the
/// [module docs](self) for the routing table and a cross-class example.
#[derive(Debug)]
pub struct Solver {
    problem: Problem,
    options: ExecOptions,
    route: Route,
}

impl Solver {
    /// Starts a builder with default [`ExecOptions`].
    pub fn builder(problem: Problem) -> SolverBuilder {
        SolverBuilder {
            problem,
            options: ExecOptions::default(),
        }
    }

    /// Builds with default options — shorthand for
    /// `Solver::builder(problem).build()`.
    pub fn new(problem: Problem) -> Result<Solver, SolverError> {
        Solver::builder(problem).build()
    }

    /// The problem this solver answers.
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// The execution options in force.
    pub fn options(&self) -> &ExecOptions {
        &self.options
    }

    /// The compiled routing decision.
    pub fn route(&self) -> &Route {
        &self.route
    }

    /// The route's logical content for external artifact emission: the
    /// flattened rewriting on the FO route, the `(N, O[, c])` renaming on
    /// the poly-time routes. [`EmitSpecError::FallbackOnly`] on the hard
    /// class — the oracle's exhaustive search has no program rendering.
    pub fn emit_spec(&self) -> Result<EmitSpec, EmitSpecError> {
        match &self.route {
            Route::FoPlan(r) => Ok(EmitSpec::Fo {
                formula: flatten(&r.plan)?,
                depth: r.depth,
            }),
            Route::PolyTime(r) => Ok(match r.middle() {
                None => EmitSpec::Reachability { n: r.n(), o: r.o() },
                Some(c) => EmitSpec::DualHorn {
                    n: r.n(),
                    o: r.o(),
                    middle: *c,
                },
            }),
            Route::Fallback(_) => Err(EmitSpecError::FallbackOnly),
        }
    }

    /// Is `db` a yes-instance of `CERTAINTY(q, FK)`? One dispatch on the
    /// pre-compiled route; the verdict carries backend, timing and plan
    /// provenance.
    pub fn solve(&self, db: &Instance) -> Verdict {
        self.solve_with(db, &self.options)
    }

    /// [`Solver::solve`] under **caller-supplied execution options** — the
    /// per-request surface a long-lived service needs: one cached, shared
    /// solver (classification and plan compilation amortized across every
    /// request) while each request pins, on the fallback route, its own
    /// oracle budget. The *compiled* choices — evaluator and join
    /// strategy — are baked into the route at
    /// [`SolverBuilder::build`] time and are **not** re-read from
    /// `options`; a caller that needs a differently compiled route builds
    /// (or cache-keys) a different solver.
    pub fn solve_with(&self, db: &Instance, options: &ExecOptions) -> Verdict {
        let start = Instant::now();
        let (certainty, backend, detail) = self.decide_with(db, options);
        Verdict {
            certainty,
            provenance: Provenance {
                backend,
                elapsed: start.elapsed(),
                batch: 1,
                plan_depth: self.plan_depth(),
                join: self.join_provenance(),
                delta: None,
                detail,
            },
        }
    }

    /// The join strategy recorded in [`Provenance`]: the strategy the
    /// compiled FO plan was built with when that route runs, `None` for
    /// every other backend (no compiled relational join executes there).
    fn join_provenance(&self) -> Option<JoinStrategy> {
        match &self.route {
            Route::FoPlan(r) if r.compiled.is_some() => Some(self.options.join),
            _ => None,
        }
    }

    /// Opens an incremental **delta-certainty** session over this solver:
    /// answer once, then [`IncrementalSolver::reanswer`] after each
    /// [`Delta`] — reusing the prior verdict when the delta provably cannot
    /// change it, re-evaluating only the touched block when the plan is
    /// Δ-localizable, and falling back to a full from-scratch solve
    /// whenever neither holds. Correctness first: a stale verdict is never
    /// returned, and every reuse decision is recorded in
    /// [`Provenance::delta`].
    pub fn incremental(&self) -> IncrementalSolver<'_> {
        let mut reads: BTreeSet<RelName> = self
            .problem
            .query()
            .atoms()
            .iter()
            .map(|a| a.rel)
            .collect();
        for fk in self.problem.fks().iter() {
            reads.insert(fk.from);
            reads.insert(fk.to);
        }
        // Per-block precision is only provable for a compiled,
        // parameter-free FO plan (the static analyzer walks its IR); every
        // other backend reads the raw instance, so its read-set is the
        // whole-relation closure of `reads` — exactly the old rel-level
        // Unaffected condition.
        let read_set = match &self.route {
            Route::FoPlan(r) => match &r.compiled {
                Some(c) if c.n_params() == 0 => c.read_set(),
                _ => ReadSet::whole_over(reads.iter().copied()),
            },
            _ => ReadSet::whole_over(reads.iter().copied()),
        };
        IncrementalSolver {
            solver: self,
            reads,
            read_set,
            state: None,
        }
    }

    /// Answers a batch of instances as a **lazy, input-ordered iterator**:
    /// verdict `i` always corresponds to `dbs[i]`, whatever the shard
    /// completion order. Internally the iterator pulls chunks of the input
    /// and, on the FO-compiled and poly-time routes, shards each chunk
    /// across a scoped thread pool of [`ExecOptions::threads`] workers once
    /// the chunk is large enough to pay for the spawns — the fallback
    /// route stays sequential so each verdict keeps its per-instance
    /// diagnostics. Chunk evaluation
    /// happens on demand, so an early `take(k)` never pays for the tail of
    /// the batch.
    ///
    /// ```
    /// # use cqa_core::{Problem, Solver};
    /// # use cqa_model::parser::{parse_fks, parse_instance, parse_query, parse_schema};
    /// # use std::sync::Arc;
    /// # let s = Arc::new(parse_schema("N[2,1] O[1,1] P[1,1]").unwrap());
    /// # let q = parse_query(&s, "N('c',y), O(y), P(y)").unwrap();
    /// # let fks = parse_fks(&s, "N[2] -> O").unwrap();
    /// # let solver = Solver::new(Problem::new(q, fks).unwrap()).unwrap();
    /// let dbs = vec![
    ///     parse_instance(&s, "N(c,a) O(a) P(a)").unwrap(),
    ///     parse_instance(&s, "N(c,a) N(c,b) O(a) P(a)").unwrap(),
    /// ];
    /// let verdicts: Vec<bool> = solver.solve_many(&dbs).map(|v| v.is_certain()).collect();
    /// assert_eq!(verdicts, vec![true, false]);
    /// ```
    pub fn solve_many<'a>(&'a self, dbs: &'a [Instance]) -> SolveMany<'a> {
        SolveMany {
            solver: self,
            dbs,
            next: 0,
            buffer: VecDeque::new(),
        }
    }

    fn plan_depth(&self) -> Option<usize> {
        match &self.route {
            Route::FoPlan(r) => Some(r.depth),
            _ => None,
        }
    }

    /// One dispatch under `options`: certainty, backend tag, optional
    /// diagnostics. The oracle budget of the fallback route comes from
    /// `options`; everything compiled at build time comes from the route.
    fn decide_with(
        &self,
        db: &Instance,
        options: &ExecOptions,
    ) -> (Certainty, BackendKind, Option<String>) {
        match &self.route {
            Route::FoPlan(r) => match &r.compiled {
                Some(c) => (
                    Certainty::from_bool(c.answer(db)),
                    BackendKind::CompiledPlan,
                    None,
                ),
                None => (
                    Certainty::from_bool(r.plan.answer(db)),
                    BackendKind::MaterializedPlan,
                    None,
                ),
            },
            Route::PolyTime(r) => (
                Certainty::from_bool(r.backend.certain(db)),
                r.kind,
                None,
            ),
            Route::Fallback(r) => {
                // A per-request budget overrides the route's baked-in
                // limits: the oracle is stateless, so re-limiting it per
                // call is free and lets one cached hard-class solver serve
                // requests with different budgets.
                let rebudgeted;
                let oracle = match options.fallback {
                    FallbackBudget::Allow(limits) => {
                        rebudgeted = CertaintyOracle::with_limits(limits);
                        &rebudgeted
                    }
                    FallbackBudget::Deny => &r.oracle,
                };
                match oracle.is_certain(db, self.problem.query(), self.problem.fks()) {
                    OracleOutcome::Certain => (Certainty::Certain, BackendKind::Oracle, None),
                    OracleOutcome::NotCertain(witness) => (
                        Certainty::NotCertain,
                        BackendKind::Oracle,
                        Some(format!("falsifying ⊕-repair: {witness}")),
                    ),
                    OracleOutcome::Inconclusive(why) => {
                        (Certainty::Inconclusive, BackendKind::Oracle, Some(why))
                    }
                }
            }
        }
    }
}

impl fmt::Display for Solver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} routed {}", self.problem, self.route)
    }
}

// A solver is shared behind an `Arc` by the plan cache of `cqa serve`, with
// concurrent requests solving through one compiled route — pin the auto
// traits so a field change that silently drops them is a compile error, not
// a runtime surprise in the service.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Solver>();
    assert_send_sync::<Verdict>();
    assert_send_sync::<ExecOptions>();
};

/// How many instances each lazily evaluated [`SolveMany`] chunk holds per
/// worker thread: wide enough to amortize the scoped-pool spawn, narrow
/// enough that laziness is observable on server-sized batches.
const BATCH_PER_THREAD: usize = 8;

/// The lazy, input-ordered iterator returned by [`Solver::solve_many`].
#[derive(Debug)]
pub struct SolveMany<'a> {
    solver: &'a Solver,
    dbs: &'a [Instance],
    next: usize,
    buffer: VecDeque<Verdict>,
}

impl SolveMany<'_> {
    /// Pulls the next chunk of the input and evaluates it, sharding across
    /// the pool when the route and options allow.
    fn refill(&mut self) {
        let options = &self.solver.options;
        let width = options.width();
        // Only routes that can shard pull wide chunks; the fallback route
        // (and an uncompiled FO plan) stays at width 1 so `take(k)` never
        // pays for oracle searches beyond the pulled prefix.
        let can_shard = match &self.solver.route {
            Route::FoPlan(r) => r.compiled.is_some(),
            Route::PolyTime(_) => true,
            Route::Fallback(_) => false,
        };
        let chunk_len = if width > 1 && can_shard {
            (width * BATCH_PER_THREAD).min(self.dbs.len() - self.next)
        } else {
            1
        };
        let chunk = &self.dbs[self.next..self.next + chunk_len];
        self.next += chunk_len;

        // Sharded fast paths: a decidable backend and a chunk wide enough
        // to clear the fan-out floor. Contiguous shards with a
        // chunk-ordered join keep verdicts in input order by construction.
        // The fallback route never shards: its per-instance oracle search
        // dominates any spawn saving and its verdicts carry per-instance
        // diagnostics (inconclusive reasons, witnesses).
        if let Some(pool) = options.batch_pool(chunk.len()) {
            let start = Instant::now();
            let sharded: Option<(Vec<bool>, BackendKind)> = match &self.solver.route {
                Route::FoPlan(r) => r.compiled.as_ref().map(|c| {
                    (
                        pool.map(chunk, |db| c.answer(db)),
                        BackendKind::CompiledPlan,
                    )
                }),
                Route::PolyTime(r) => Some((
                    pool.map(chunk, |db| r.backend.certain(db)),
                    r.kind,
                )),
                Route::Fallback(_) => None,
            };
            if let Some((answers, backend)) = sharded {
                let elapsed = start.elapsed();
                let depth = self.solver.plan_depth();
                let join = self.solver.join_provenance();
                self.buffer.extend(answers.into_iter().map(|ans| Verdict {
                    certainty: Certainty::from_bool(ans),
                    provenance: Provenance {
                        backend,
                        elapsed,
                        batch: chunk.len(),
                        plan_depth: depth,
                        join,
                        delta: None,
                        detail: None,
                    },
                }));
                return;
            }
        }
        // Sequential path (narrow chunks, uncompiled FO plans, the
        // fallback route): per-instance dispatch with exact per-verdict
        // timing.
        self.buffer
            .extend(chunk.iter().map(|db| self.solver.solve(db)));
    }
}

impl Iterator for SolveMany<'_> {
    type Item = Verdict;

    fn next(&mut self) -> Option<Verdict> {
        while self.buffer.is_empty() && self.next < self.dbs.len() {
            self.refill();
        }
        self.buffer.pop_front()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.buffer.len() + (self.dbs.len() - self.next);
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for SolveMany<'_> {}

/// The memo an incremental session keeps between calls, pinned to exactly
/// one instance mutation history via the `(uid, epoch)` pair — a verdict
/// computed on a different instance (or on this instance at a different
/// epoch) is never reused.
#[derive(Debug)]
struct SessionState {
    uid: u64,
    epoch: u64,
    verdict: Verdict,
    rows: ResidualCache,
}

/// An incremental **delta-certainty** session (from [`Solver::incremental`]):
/// after an initial [`solve`], each [`reanswer`] applies a [`Delta`] to the
/// instance and re-derives the verdict with as little work as soundness
/// allows.
///
/// Three outcomes, recorded in [`Provenance::delta`]:
///
/// * [`DeltaOutcome::Unaffected`] — no fact of the delta lands in a
///   (relation, block) of the statically inferred [`ReadSet`]
///   ([`IncrementalSolver::read_set`]; block-precise on the compiled FO
///   route, whole-relation elsewhere) and the prior verdict was definite,
///   so it is reused outright. Inconclusive verdicts are **never** reused
///   this way: the fallback oracle's budget exhaustion depends on blocks
///   the query does not mention.
/// * [`DeltaOutcome::Localized`] — the compiled plan is Δ-localizable (a
///   parameter-free Lemma 45 tail over one ground-key block, with no
///   self-references; see [`CompiledPlan::localizable_rel`]) and the delta
///   only touches that relation: the plan re-runs through a per-row
///   residual cache, so only block facts whose residual was never computed
///   (or whose content changed) are evaluated.
/// * [`DeltaOutcome::Recomputed`] — anything else. Non-localizable deltas
///   are *detected*, and the session falls back to a full from-scratch
///   solve rather than ever serving a stale verdict.
///
/// The session applies the delta itself (single-writer protocol): staleness
/// is checked against `(uid, epoch)` **before** the mutation, so a caller
/// who mutated the instance out of band simply pays for a recompute.
///
/// ```
/// use cqa_core::{DeltaOutcome, Problem, Solver};
/// use cqa_model::parser::{parse_fact, parse_fks, parse_instance, parse_query, parse_schema};
/// use cqa_model::Delta;
/// use std::sync::Arc;
///
/// let s = Arc::new(parse_schema("N[2,1] O[1,1] P[1,1]").unwrap());
/// let q = parse_query(&s, "N('c',y), O(y), P(y)").unwrap();
/// let fks = parse_fks(&s, "N[2] -> O").unwrap();
/// let solver = Solver::new(Problem::new(q, fks).unwrap()).unwrap();
/// let mut db = parse_instance(&s, "N(c,a) N(c,b) O(a) P(a) P(b)").unwrap();
///
/// let mut session = solver.incremental();
/// assert!(session.solve(&db).is_certain());
///
/// // Dropping P(b) breaks certainty; only the touched block re-evaluates.
/// let mut delta = Delta::new();
/// delta.remove(parse_fact("P(b)").unwrap());
/// let v = session.reanswer(&mut db, &delta).unwrap();
/// assert_eq!(v.as_bool(), Some(false));
/// ```
///
/// [`solve`]: IncrementalSolver::solve
/// [`reanswer`]: IncrementalSolver::reanswer
#[derive(Debug)]
pub struct IncrementalSolver<'s> {
    solver: &'s Solver,
    /// Sound overapproximation of every relation whose content can affect
    /// the verdict: the query's atoms plus each foreign key's source and
    /// target.
    reads: BTreeSet<RelName>,
    /// The statically inferred read-set: on the compiled FO route this is
    /// [`CompiledPlan::read_set`] — per-*block* precise where a Lemma 45
    /// tail probes a ground key — and on every other route the
    /// whole-relation closure of `reads`.
    read_set: ReadSet,
    state: Option<SessionState>,
}

impl<'s> IncrementalSolver<'s> {
    /// The solver this session answers through.
    pub fn solver(&self) -> &'s Solver {
        self.solver
    }

    /// The relations whose content can affect this problem's verdict —
    /// deltas disjoint from this set are [`DeltaOutcome::Unaffected`].
    pub fn reads(&self) -> &BTreeSet<RelName> {
        &self.reads
    }

    /// The statically inferred read-set the *Unaffected* rung fires on: a
    /// delta none of whose facts the set [`ReadSet::may_read`] reuses the
    /// prior definite verdict outright. On the compiled FO route this is
    /// block-precise (a ground-key Lemma 45 probe admits deltas to *other*
    /// blocks of the same relation); elsewhere it is whole-relation.
    pub fn read_set(&self) -> &ReadSet {
        &self.read_set
    }

    /// Whether no fact of `delta` can be read by the plan, per the inferred
    /// [`ReadSet`]. A fact is judged by its key prefix (cut at the
    /// relation's declared key length); an undeclared relation is
    /// conservatively treated as readable.
    fn delta_unread(&self, delta: &Delta) -> bool {
        let schema = self.solver.problem.query().schema();
        delta.ops().iter().all(|op| {
            let fact = op.fact();
            match schema.signature(fact.rel) {
                Some(sig) => {
                    let key = &fact.args[..sig.key_len.min(fact.args.len())];
                    !self.read_set.may_read(fact.rel, key)
                }
                None => false,
            }
        })
    }

    /// The verdict of the most recent [`solve`] / [`reanswer`], if any.
    ///
    /// [`solve`]: IncrementalSolver::solve
    /// [`reanswer`]: IncrementalSolver::reanswer
    pub fn last_verdict(&self) -> Option<&Verdict> {
        self.state.as_ref().map(|s| &s.verdict)
    }

    /// Answers `db` from scratch and primes the session state (and, on
    /// Δ-localizable plans, the residual cache) for subsequent
    /// [`IncrementalSolver::reanswer`] calls.
    pub fn solve(&mut self, db: &Instance) -> Verdict {
        self.recompute(db, None)
    }

    /// Applies `delta` to `db` and re-derives the verdict incrementally.
    ///
    /// Validation is atomic ([`Instance::apply`]): a malformed delta leaves
    /// both the instance and the session state untouched. See the type
    /// docs for the reuse ladder; the chosen rung is in the returned
    /// verdict's [`Provenance::delta`].
    pub fn reanswer(&mut self, db: &mut Instance, delta: &Delta) -> Result<Verdict, ModelError> {
        let start = Instant::now();
        // Staleness is judged BEFORE the delta applies: the session's
        // (uid, epoch) must pin exactly the state the prior verdict was
        // computed on. Out-of-band mutations (or a different instance)
        // show up as an epoch/uid mismatch and force a recompute.
        let prior_valid = self
            .state
            .as_ref()
            .is_some_and(|s| s.uid == db.uid() && s.epoch == db.epoch());
        let touched = delta.rels();
        db.apply(delta)?;
        if !prior_valid {
            return Ok(self.recompute(
                db,
                Some(DeltaOutcome::Recomputed(
                    "no prior verdict for this instance state",
                )),
            ));
        }
        // Rung 1 — Unaffected: no fact of the delta lands in a (relation,
        // block) the inferred read-set says the plan can read, and the
        // prior verdict is definite. (Inconclusive is excluded: whether
        // the oracle's budget suffices depends on blocks the query never
        // mentions.) On the compiled FO route this is per-block — a delta
        // to N(d,·) under a plan probing only the N('c') block reuses the
        // verdict even though N itself is a read relation.
        if self.delta_unread(delta) {
            let state = self.state.as_mut().expect("prior_valid checked");
            if state.verdict.as_bool().is_some() {
                state.epoch = db.epoch();
                let mut verdict = state.verdict.clone();
                verdict.provenance.elapsed = start.elapsed();
                verdict.provenance.batch = 1;
                verdict.provenance.delta = Some(DeltaOutcome::Unaffected);
                return Ok(verdict);
            }
        }
        // Rung 2 — Localized: the compiled plan reads exactly one
        // ground-key block of `rel` (plus residual lookups in *other*
        // relations), and the delta's read-set intersection is confined to
        // `rel`. Cached residuals stay valid because localizability
        // guarantees the residual never reads `rel` itself.
        if let Some(c) = self.localizable_plan() {
            let rel = c.localizable_rel().expect("plan checked localizable");
            if touched.iter().all(|r| *r == rel || !self.reads.contains(r)) {
                let depth = self.solver.plan_depth();
                let state = self.state.as_mut().expect("prior_valid checked");
                let (ans, reused, evaluated) = c.answer_delta(db, &mut state.rows);
                let verdict = Verdict {
                    certainty: Certainty::from_bool(ans),
                    provenance: Provenance {
                        backend: BackendKind::CompiledPlan,
                        elapsed: start.elapsed(),
                        batch: 1,
                        plan_depth: depth,
                        join: self.solver.join_provenance(),
                        delta: Some(DeltaOutcome::Localized { reused, evaluated }),
                        detail: None,
                    },
                };
                state.epoch = db.epoch();
                state.verdict = verdict.clone();
                return Ok(verdict);
            }
        }
        // Rung 3 — detected as non-localizable: full re-answer.
        Ok(self.recompute(db, Some(DeltaOutcome::Recomputed("delta not localizable"))))
    }

    /// The compiled plan, when the route has one and it is Δ-localizable.
    fn localizable_plan(&self) -> Option<&'s CompiledPlan> {
        let solver = self.solver;
        match &solver.route {
            Route::FoPlan(r) => r
                .compiled
                .as_ref()
                .filter(|c| c.localizable_rel().is_some()),
            _ => None,
        }
    }

    /// Full re-answer, replacing the session state. Localizable plans
    /// recompute through the caching evaluator — the plan's single
    /// ground-key block is everything it reads, so the cached run *is* the
    /// full answer and the residual cache comes out warm for the next
    /// delta. Everything else goes through [`Solver::solve`] with a fresh
    /// (empty) cache.
    fn recompute(&mut self, db: &Instance, outcome: Option<DeltaOutcome>) -> Verdict {
        let mut rows = ResidualCache::new();
        let verdict = match self.localizable_plan() {
            Some(c) => {
                let start = Instant::now();
                let (ans, _, _) = c.answer_delta(db, &mut rows);
                Verdict {
                    certainty: Certainty::from_bool(ans),
                    provenance: Provenance {
                        backend: BackendKind::CompiledPlan,
                        elapsed: start.elapsed(),
                        batch: 1,
                        plan_depth: self.solver.plan_depth(),
                        join: self.solver.join_provenance(),
                        delta: outcome,
                        detail: None,
                    },
                }
            }
            None => {
                let mut v = self.solver.solve(db);
                v.provenance.delta = outcome;
                v
            }
        };
        self.state = Some(SessionState {
            uid: db.uid(),
            epoch: db.epoch(),
            verdict: verdict.clone(),
            rows,
        });
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_model::parser::{parse_fks, parse_instance, parse_query, parse_schema};
    use cqa_model::Schema;
    use std::sync::Arc;

    fn problem(schema: &Arc<Schema>, q: &str, fks: &str) -> Problem {
        Problem::new(
            parse_query(schema, q).unwrap(),
            parse_fks(schema, fks).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn fo_problem_routes_to_compiled_plan() {
        let s = Arc::new(parse_schema("N[2,1] O[1,1] P[1,1]").unwrap());
        let solver = Solver::new(problem(&s, "N('c',y), O(y), P(y)", "N[2] -> O")).unwrap();
        assert_eq!(solver.route().kind(), RouteKind::Fo);

        let yes = parse_instance(&s, "N(c,a) N(c,b) O(a) P(a) P(b)").unwrap();
        let v = solver.solve(&yes);
        assert!(v.is_certain());
        assert_eq!(v.provenance.backend, BackendKind::CompiledPlan);
        assert!(v.provenance.plan_depth.is_some());

        let no = parse_instance(&s, "N(c,a) N(c,b) O(a) P(a)").unwrap();
        assert_eq!(solver.solve(&no).as_bool(), Some(false));
    }

    #[test]
    fn materialized_evaluator_is_selectable() {
        let s = Arc::new(parse_schema("N[2,1] O[1,1] P[1,1]").unwrap());
        let solver = Solver::builder(problem(&s, "N('c',y), O(y), P(y)", "N[2] -> O"))
            .options(ExecOptions {
                evaluator: Evaluator::Materialized,
                ..ExecOptions::sequential()
            })
            .build()
            .unwrap();
        let yes = parse_instance(&s, "N(c,a) O(a) P(a)").unwrap();
        let v = solver.solve(&yes);
        assert!(v.is_certain());
        assert_eq!(v.provenance.backend, BackendKind::MaterializedPlan);
    }

    #[test]
    fn prop16_shape_routes_to_reachability_under_renaming() {
        let s = Arc::new(parse_schema("E[2,1] V[1,1]").unwrap());
        let solver = Solver::new(problem(&s, "E(x,x), V(x)", "E[2] -> V")).unwrap();
        assert_eq!(solver.route().kind(), RouteKind::PolyTime);

        let yes = parse_instance(&s, "E(a,a) V(a)").unwrap();
        let v = solver.solve(&yes);
        assert_eq!(v.as_bool(), Some(true));
        assert_eq!(v.provenance.backend, BackendKind::Reachability);

        let no = parse_instance(&s, "E(a,a) E(a,b) V(a)").unwrap();
        assert_eq!(solver.solve(&no).as_bool(), Some(false));
    }

    #[test]
    fn prop17_shape_routes_to_dual_horn_under_renaming() {
        let s = Arc::new(parse_schema("Emp[3,1] Dept[1,1]").unwrap());
        let solver =
            Solver::new(problem(&s, "Emp(x,'hq',y), Dept(y)", "Emp[3] -> Dept")).unwrap();
        assert_eq!(solver.route().kind(), RouteKind::PolyTime);

        let yes = parse_instance(&s, "Emp(b1,hq,1) Dept(1)").unwrap();
        let v = solver.solve(&yes);
        assert_eq!(v.as_bool(), Some(true));
        assert_eq!(v.provenance.backend, BackendKind::DualHorn);

        let no = parse_instance(&s, "Emp(b1,hq,1) Emp(b1,x,2) Dept(1)").unwrap();
        assert_eq!(solver.solve(&no).as_bool(), Some(false));
    }

    #[test]
    fn hard_class_requires_explicit_fallback_opt_in() {
        // Example 13's q2: NL-hard and not a Proposition 16/17 shape
        // (O has arity 2), so only the oracle can answer it.
        let s = Arc::new(parse_schema("N[3,1] O[2,1]").unwrap());
        let p = problem(&s, "N(x,'c',y), O(y,w)", "N[3] -> O");
        match Solver::new(p.clone()) {
            Err(SolverError::HardWithoutFallback(reason)) => assert!(reason.nl_hard()),
            other => panic!("expected HardWithoutFallback, got {other:?}"),
        }

        let solver = Solver::builder(p)
            .options(ExecOptions::default().allow_fallback())
            .build()
            .unwrap();
        assert_eq!(solver.route().kind(), RouteKind::Fallback);
        let yes = parse_instance(&s, "N(k,c,a) O(a,3)").unwrap();
        let v = solver.solve(&yes);
        assert_eq!(v.as_bool(), Some(true));
        assert_eq!(v.provenance.backend, BackendKind::Oracle);
    }

    #[test]
    fn fallback_not_certain_carries_the_witness() {
        let s = Arc::new(parse_schema("N[3,1] O[2,1]").unwrap());
        let solver = Solver::builder(problem(&s, "N(x,'c',y), O(y,w)", "N[3] -> O"))
            .options(ExecOptions::default().allow_fallback())
            .build()
            .unwrap();
        // Dropping the N-block falsifies q: a witness exists and the
        // verdict's provenance re-surfaces it.
        let db = parse_instance(&s, "N(k,d,b)").unwrap();
        let v = solver.solve(&db);
        assert_eq!(v.as_bool(), Some(false));
        let detail = v.provenance.detail.expect("witness attached");
        assert!(detail.contains("falsifying ⊕-repair"), "{detail}");
    }

    #[test]
    fn solve_many_shards_the_poly_route_in_input_order() {
        let s = Arc::new(parse_schema("E[2,1] V[1,1]").unwrap());
        let solver = Solver::builder(problem(&s, "E(x,x), V(x)", "E[2] -> V"))
            .options(ExecOptions::default().with_threads(8))
            .build()
            .unwrap();
        // Instance i certain iff i is even (odd ones get an escape edge).
        let dbs: Vec<Instance> = (0..29)
            .map(|i| {
                let text = if i % 2 == 0 {
                    "E(a,a) V(a)"
                } else {
                    "E(a,a) E(a,b) V(a)"
                };
                parse_instance(&s, text).unwrap()
            })
            .collect();
        let verdicts: Vec<Verdict> = solver.solve_many(&dbs).collect();
        assert_eq!(verdicts.len(), dbs.len());
        for (i, v) in verdicts.iter().enumerate() {
            assert_eq!(v.as_bool(), Some(i % 2 == 0), "verdict {i} out of order");
            assert_eq!(v.provenance.backend, BackendKind::Reachability);
        }
        // Wide chunks fanned out: batch provenance reflects the shard.
        // On a single-core machine the clamp resolves the width to 1 and
        // the sequential path (batch 1) is the *correct* behavior — that
        // is satellite fix for the 0.83× sharding slowdown.
        if rayon_lite::current_num_threads() > 1 {
            assert!(verdicts[0].provenance.batch > 1, "poly route must shard");
        } else {
            assert_eq!(verdicts[0].provenance.batch, 1, "width 1 must not shard");
        }
    }

    #[test]
    fn fallback_solve_many_pulls_one_instance_at_a_time() {
        // Even under a wide batch width the fallback route cannot shard,
        // so chunks stay at width 1: `take(k)` never pays for oracle
        // searches past the pulled prefix.
        let s = Arc::new(parse_schema("N[3,1] O[2,1]").unwrap());
        let solver = Solver::builder(problem(&s, "N(x,'c',y), O(y,w)", "N[3] -> O"))
            .options(ExecOptions::default().with_threads(8).allow_fallback())
            .build()
            .unwrap();
        let dbs: Vec<Instance> = (0..5)
            .map(|_| parse_instance(&s, "N(k,c,a) O(a,3)").unwrap())
            .collect();
        let first = solver.solve_many(&dbs).next().unwrap();
        assert_eq!(first.provenance.batch, 1, "fallback chunks must stay narrow");
        assert_eq!(first.as_bool(), Some(true));
    }

    #[test]
    fn exhausted_budget_is_inconclusive_never_a_guess() {
        let s = Arc::new(parse_schema("N[3,1] O[2,1]").unwrap());
        let solver = Solver::builder(problem(&s, "N(x,'c',y), O(y,w)", "N[3] -> O"))
            .options(ExecOptions::default().with_fallback(SearchLimits::budgeted(1)))
            .build()
            .unwrap();
        // Two 2-fact blocks: candidate space 9 > budget 1.
        let db = parse_instance(&s, "N(k,c,a) N(k,d,b) O(a,3) O(a,4)").unwrap();
        let v = solver.solve(&db);
        assert_eq!(v.certainty, Certainty::Inconclusive);
        assert!(v.provenance.detail.is_some(), "carries the oracle's reason");
        assert_eq!(v.as_bool(), None);
    }

    #[test]
    fn solve_many_is_lazy_and_input_ordered() {
        let s = Arc::new(parse_schema("N[2,1] O[1,1] P[1,1]").unwrap());
        let solver = Solver::builder(problem(&s, "N('c',y), O(y), P(y)", "N[2] -> O"))
            .options(ExecOptions::default().with_threads(8))
            .build()
            .unwrap();
        // Instance i is a yes-instance iff i is even.
        let dbs: Vec<Instance> = (0..37)
            .map(|i| {
                let text = if i % 2 == 0 {
                    "N(c,a) O(a) P(a)"
                } else {
                    "N(c,a) N(c,b) O(a) P(a)"
                };
                parse_instance(&s, text).unwrap()
            })
            .collect();
        let verdicts: Vec<Verdict> = solver.solve_many(&dbs).collect();
        assert_eq!(verdicts.len(), dbs.len());
        for (i, v) in verdicts.iter().enumerate() {
            assert_eq!(v.as_bool(), Some(i % 2 == 0), "verdict {i} out of order");
        }
        // Taking a prefix stays lazy: the iterator reports its exact length
        // up front but only evaluates pulled chunks.
        let mut iter = solver.solve_many(&dbs);
        assert_eq!(iter.len(), 37);
        assert!(iter.next().unwrap().is_certain());
    }

    #[test]
    fn options_fold_the_scattered_knobs() {
        let opts = ExecOptions::default();
        assert!(opts.threads >= 1, "threads resolved, never 0");
        let seq = ExecOptions::sequential();
        assert_eq!(seq.width(), 1);
        assert!(seq.batch_pool(usize::MAX).is_none());
        let wide = ExecOptions::sequential().with_threads(6);
        // The width clamps to availability, so the batch pool is the
        // requested 6 only on machines that wide.
        assert_eq!(wide.width(), 6.min(rayon_lite::current_num_threads()));
        assert!(
            wide.batch_pool(MIN_FAN_OUT - 1).is_none(),
            "small batches run inline"
        );
    }

    #[test]
    fn incremental_fo_session_walks_the_reuse_ladder() {
        use cqa_model::parser::parse_fact;
        let s = Arc::new(parse_schema("N[2,1] O[1,1] P[1,1] Z[1,1]").unwrap());
        let solver = Solver::new(problem(&s, "N('c',y), O(y), P(y)", "N[2] -> O")).unwrap();
        let mut db = parse_instance(&s, "N(c,a) N(c,b) O(a) P(a) P(b)").unwrap();
        let mut session = solver.incremental();
        assert!(session.solve(&db).is_certain());

        // Z is read by nothing: the prior (definite) verdict is reused.
        let mut dz = Delta::new();
        dz.insert(parse_fact("Z(zz)").unwrap());
        let v = session.reanswer(&mut db, &dz).unwrap();
        assert_eq!(v.provenance.delta, Some(DeltaOutcome::Unaffected));
        assert_eq!(v.as_bool(), Some(true));

        // A new block fact localizes: the cached residuals of the two old
        // rows are reused, only the new row is evaluated (and falsifies).
        let mut dn = Delta::new();
        dn.insert(parse_fact("N(c,e)").unwrap());
        let v = session.reanswer(&mut db, &dn).unwrap();
        assert_eq!(v.as_bool(), Some(false));
        assert_eq!(
            v.provenance.delta,
            Some(DeltaOutcome::Localized {
                reused: 2,
                evaluated: 1
            })
        );

        // Removing it flips the verdict back — from cache alone.
        let mut dr = Delta::new();
        dr.remove(parse_fact("N(c,e)").unwrap());
        let v = session.reanswer(&mut db, &dr).unwrap();
        assert_eq!(v.as_bool(), Some(true));
        assert_eq!(
            v.provenance.delta,
            Some(DeltaOutcome::Localized {
                reused: 2,
                evaluated: 0
            })
        );

        // Touching a residual-read relation (P) is NOT localizable: the
        // session detects it and recomputes from scratch.
        let mut dp = Delta::new();
        dp.remove(parse_fact("P(b)").unwrap());
        let v = session.reanswer(&mut db, &dp).unwrap();
        assert_eq!(v.as_bool(), Some(false));
        assert_eq!(
            v.provenance.delta,
            Some(DeltaOutcome::Recomputed("delta not localizable"))
        );

        // Out-of-band mutation bumps the epoch behind the session's back:
        // the stale memo is discarded, never served.
        db.insert(parse_fact("P(b)").unwrap()).unwrap();
        let v = session.reanswer(&mut db, &Delta::new()).unwrap();
        assert_eq!(v.as_bool(), Some(true));
        assert_eq!(
            v.provenance.delta,
            Some(DeltaOutcome::Recomputed(
                "no prior verdict for this instance state"
            ))
        );
    }

    #[test]
    fn incremental_unaffected_rung_is_block_precise_on_the_fo_route() {
        use cqa_model::parser::parse_fact;
        use cqa_model::Cst;
        let s = Arc::new(parse_schema("N[2,1] O[1,1] P[1,1]").unwrap());
        let solver = Solver::new(problem(&s, "N('c',y), O(y), P(y)", "N[2] -> O")).unwrap();
        let mut db = parse_instance(&s, "N(c,a) N(c,b) O(a) P(a) P(b)").unwrap();
        let mut session = solver.incremental();

        // The inferred read-set is strictly tighter than `reads()`: N is a
        // read relation, but only its 'c' block can be probed.
        let n = RelName::new("N");
        assert!(session.reads().contains(&n));
        assert!(session.read_set().may_read(n, &[Cst::new("c")]));
        assert!(!session.read_set().may_read(n, &[Cst::new("d")]));

        assert!(session.solve(&db).is_certain());

        // A delta confined to the N('d') block — same relation, different
        // block — now reuses the verdict outright, where the rel-level
        // condition would have gone to the Localized rung.
        let mut dd = Delta::new();
        dd.insert(parse_fact("N(d,q)").unwrap());
        dd.insert(parse_fact("N(d,r)").unwrap());
        let v = session.reanswer(&mut db, &dd).unwrap();
        assert_eq!(v.provenance.delta, Some(DeltaOutcome::Unaffected));
        assert_eq!(v.as_bool(), Some(true));
        // ... and the reused verdict matches a from-scratch solve.
        assert_eq!(solver.solve(&db).as_bool(), Some(true));

        // Removing one of them again: still unaffected, still correct.
        let mut dr = Delta::new();
        dr.remove(parse_fact("N(d,q)").unwrap());
        let v = session.reanswer(&mut db, &dr).unwrap();
        assert_eq!(v.provenance.delta, Some(DeltaOutcome::Unaffected));
        assert_eq!(v.as_bool(), Some(true));

        // A delta inside the probed block does NOT reuse: it localizes and
        // flips the verdict.
        let mut dc = Delta::new();
        dc.insert(parse_fact("N(c,e)").unwrap());
        let v = session.reanswer(&mut db, &dc).unwrap();
        assert_eq!(v.as_bool(), Some(false));
        assert!(matches!(
            v.provenance.delta,
            Some(DeltaOutcome::Localized { .. })
        ));
    }

    #[test]
    fn incremental_poly_route_reuses_only_unaffected_deltas() {
        use cqa_model::parser::parse_fact;
        let s = Arc::new(parse_schema("E[2,1] V[1,1] Z[1,1]").unwrap());
        let solver = Solver::new(problem(&s, "E(x,x), V(x)", "E[2] -> V")).unwrap();
        let mut db = parse_instance(&s, "E(a,a) V(a)").unwrap();
        let mut session = solver.incremental();
        assert_eq!(session.solve(&db).as_bool(), Some(true));

        let mut dz = Delta::new();
        dz.insert(parse_fact("Z(zz)").unwrap());
        let v = session.reanswer(&mut db, &dz).unwrap();
        assert_eq!(v.provenance.delta, Some(DeltaOutcome::Unaffected));

        // The poly backends have no localizable plan: any delta touching a
        // read relation recomputes — and gets the right answer.
        let mut de = Delta::new();
        de.insert(parse_fact("E(a,b)").unwrap());
        let v = session.reanswer(&mut db, &de).unwrap();
        assert_eq!(v.as_bool(), Some(false));
        assert_eq!(
            v.provenance.delta,
            Some(DeltaOutcome::Recomputed("delta not localizable"))
        );
        assert_eq!(v.provenance.backend, BackendKind::Reachability);
    }

    #[test]
    fn incremental_never_reuses_an_inconclusive_verdict() {
        use cqa_model::parser::parse_fact;
        let s = Arc::new(parse_schema("N[3,1] O[2,1] Z[1,1]").unwrap());
        let solver = Solver::builder(problem(&s, "N(x,'c',y), O(y,w)", "N[3] -> O"))
            .options(ExecOptions::default().with_fallback(SearchLimits::budgeted(1)))
            .build()
            .unwrap();
        let mut db = parse_instance(&s, "N(k,c,a) N(k,d,b) O(a,3) O(a,4)").unwrap();
        let mut session = solver.incremental();
        assert_eq!(session.solve(&db).certainty, Certainty::Inconclusive);

        // Even a fully disjoint delta must NOT resurrect an inconclusive
        // verdict: whether the budget suffices depends on the whole
        // instance, so the oracle runs again.
        let mut dz = Delta::new();
        dz.insert(parse_fact("Z(zz)").unwrap());
        let v = session.reanswer(&mut db, &dz).unwrap();
        assert_eq!(v.certainty, Certainty::Inconclusive);
        assert!(matches!(
            v.provenance.delta,
            Some(DeltaOutcome::Recomputed(_))
        ));
    }

    #[test]
    fn incremental_reanswer_rejects_malformed_deltas_atomically() {
        use cqa_model::parser::parse_fact;
        let s = Arc::new(parse_schema("N[2,1] O[1,1] P[1,1]").unwrap());
        let solver = Solver::new(problem(&s, "N('c',y), O(y), P(y)", "N[2] -> O")).unwrap();
        let mut db = parse_instance(&s, "N(c,a) O(a) P(a)").unwrap();
        let mut session = solver.incremental();
        assert!(session.solve(&db).is_certain());

        let epoch = db.epoch();
        let mut bad = Delta::new();
        bad.insert(parse_fact("N(c,x)").unwrap());
        bad.insert(parse_fact("O(a,b,c)").unwrap()); // arity 3 ≠ 1
        assert!(session.reanswer(&mut db, &bad).is_err());
        assert_eq!(db.epoch(), epoch, "atomic: nothing applied");
        assert_eq!(db.len(), 3);

        // The session state survives the rejected delta: the next good
        // delta still localizes against the cached residuals.
        let mut good = Delta::new();
        good.insert(parse_fact("N(c,b)").unwrap());
        let v = session.reanswer(&mut db, &good).unwrap();
        assert_eq!(v.as_bool(), Some(false));
        assert_eq!(
            v.provenance.delta,
            Some(DeltaOutcome::Localized {
                reused: 1,
                evaluated: 1
            })
        );
    }

    #[test]
    fn solve_with_overrides_the_fallback_budget_per_request() {
        // One cached hard-class solver, built with a starvation budget;
        // a per-request ExecOptions re-budgets the oracle without
        // rebuilding the route.
        let s = Arc::new(parse_schema("N[3,1] O[2,1]").unwrap());
        let solver = Solver::builder(problem(&s, "N(x,'c',y), O(y,w)", "N[3] -> O"))
            .options(ExecOptions::default().with_fallback(SearchLimits::budgeted(1)))
            .build()
            .unwrap();
        let db = parse_instance(&s, "N(k,c,a) N(k,d,b) O(a,3) O(a,4)").unwrap();
        assert_eq!(solver.solve(&db).certainty, Certainty::Inconclusive);

        let generous = ExecOptions::default().with_fallback(SearchLimits::budgeted(100_000));
        let v = solver.solve_with(&db, &generous);
        assert_eq!(v.as_bool(), Some(false), "re-budgeted request decides");
        assert_eq!(v.provenance.backend, BackendKind::Oracle);

        // And the solver's own options are untouched: the next plain solve
        // is inconclusive again.
        assert_eq!(solver.solve(&db).certainty, Certainty::Inconclusive);
    }

    #[test]
    fn solve_with_pins_the_request_options_not_the_built_ones() {
        let s = Arc::new(parse_schema("N[2,1] O[1,1] P[1,1]").unwrap());
        let solver = Solver::builder(problem(&s, "N('c',y), O(y), P(y)", "N[2] -> O"))
            .options(ExecOptions::default().with_threads(8))
            .build()
            .unwrap();
        let db = parse_instance(&s, "N(c,a) O(a) P(a)").unwrap();
        // A sequential per-request override answers identically.
        let v = solver.solve_with(&db, &ExecOptions::sequential());
        assert_eq!(v.as_bool(), Some(true));
        assert_eq!(v.provenance.backend, BackendKind::CompiledPlan);
        assert_eq!(v.as_bool(), solver.solve(&db).as_bool());
    }

    #[test]
    fn display_names_the_route() {
        let s = Arc::new(parse_schema("E[2,1] V[1,1]").unwrap());
        let solver = Solver::new(problem(&s, "E(x,x), V(x)", "E[2] -> V")).unwrap();
        let text = solver.to_string();
        assert!(text.contains("poly-time"), "{text}");
    }
}
