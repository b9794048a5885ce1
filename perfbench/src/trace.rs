//! The traced run: each workload's seeded stream replayed in-process on
//! one thread, with a span around every public call a request crosses.
//!
//! A serve request is replayed the way `Service::handle_line` handles it,
//! one layer at a time — `serde_json::from_str`, `PlanCache::get_or_build`
//! (hit or miss), `parse_instance`, `Instance::index`, then
//! `Solver::solve_with` (labelled by route) or `SolverEmitExt::emit` — and
//! the same line is then timed through `Service::handle_line` itself, on a
//! second service that has seen the same stream. `handle_line` minus the
//! child spans is the dispatch cost (field extraction, admission, reply
//! encode, freeing the request). The tracing overhead compares the traced
//! replay with the same calls made without spans, request by request. A
//! `delta-session` step is one span around `reanswer` (labelled by the
//! rung `Provenance::delta` reports) or `solve`.
//!
//! Passes repeat until `--seconds` is spent; counts (cache hits, misses,
//! evictions, rungs) come from the first pass, so they repeat exactly for
//! a seed. The first pass's spans are written to the run directory as
//! JSON lines.

use crate::delta::{problem as delta_problem, run_step, rung_of, set_up, verdict_matches};
use crate::gen::{
    Op, Request, Rung, ServeWorkload, Step, World, INGEST_MAX_FACTS, INGEST_MIN_FACTS,
};
use crate::serve::{emit_reply_verdict, reply_ok};
use crate::{median, Outcome};
use cqa_core::solver::{ExecOptions, FallbackBudget, RouteKind};
use cqa_core::{DeltaOutcome, Problem, Solver};
use cqa_emit::{Format, SolverEmitExt};
use cqa_model::parser::{parse_fks, parse_instance, parse_query, parse_schema};
use cqa_model::Instance;
use cqa_repair::SearchLimits;
use cqa_serve::{Lookup, PlanCache, RawKey, ServeConfig, Service};
use serde_json::Value;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests per serve pass, per distinct ingest request and overall for
/// plan churn.
const INGEST_PASS_PER_REQUEST: usize = 2;
const CHURN_PASS: usize = 4000;
/// Steps per delta-session pass.
const DELTA_PASS: usize = 600;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// The request (or delta step) the span belongs to.
    pub request: u32,
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub label: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span sink; records only while `keep` is set (the first pass).
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    next_id: u32,
    keep: bool,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            next_id: 0,
            keep: true,
        }
    }

    /// A fresh span id (for a parent recorded after its children).
    fn reserve(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id - 1
    }

    fn record(
        &mut self,
        request: u32,
        parent: Option<u32>,
        name: &'static str,
        label: &'static str,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.reserve();
        self.record_as(id, request, parent, name, label, start, end);
        id
    }

    #[allow(clippy::too_many_arguments)]
    fn record_as(
        &mut self,
        id: u32,
        request: u32,
        parent: Option<u32>,
        name: &'static str,
        label: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if self.keep {
            self.spans.push(Span {
                request,
                id,
                parent,
                name,
                label,
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: (end - self.origin).as_nanos() as u64,
            });
        }
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                f,
                r#"{{"request":{},"id":{},"parent":{},"name":"{}","label":"{}","start_ns":{},"end_ns":{}}}"#,
                s.request,
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.label,
                s.start_ns,
                s.end_ns
            )?;
        }
        f.flush()
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Instant, Instant) {
    let start = Instant::now();
    let r = f();
    (r, start, Instant::now())
}

fn ns(a: Instant, b: Instant) -> u64 {
    (b - a).as_nanos() as u64
}

/// Per-layer samples (nanoseconds) and counters of a traced run.
#[derive(Default)]
struct Layers {
    decode: Vec<f64>,
    decode_ns: u64,
    decode_bytes: u64,
    parse: Vec<f64>,
    parse_ns: u64,
    parse_facts: u64,
    index: Vec<f64>,
    solve_fo: Vec<f64>,
    solve_poly: Vec<f64>,
    solve_fallback: Vec<f64>,
    build: Vec<f64>,
    hit: Vec<f64>,
    miss: Vec<f64>,
    hits: u64,
    misses: u64,
    evictions: u64,
    emit: Vec<f64>,
    handle_line: Vec<f64>,
    dispatch: Vec<f64>,
    /// Tracing overhead, paired per request (traced minus untraced replay
    /// of the same calls) or per delta step (traced minus untraced pass).
    overhead: Vec<f64>,
    /// ns per fact of (decode, parse, index) at the smallest and largest
    /// nested Lemma 45 ingest database.
    small: [Vec<f64>; 3],
    large: [Vec<f64>; 3],
    reanswer: [Vec<f64>; 3],
    rungs: [u64; 3],
    reused: u64,
    evaluated: u64,
    full_solve: Vec<f64>,
}

fn med(v: &[f64]) -> f64 {
    median(&mut v.to_vec())
}

fn us(v: &[f64]) -> f64 {
    med(v) / 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Layers {
    fn report(&self, out: &mut Outcome) {
        let growth = |i: usize| ratio(med(&self.large[i]), med(&self.small[i]));
        out.push("serde_json.decode_us", us(&self.decode), "us");
        out.push(
            "serde_json.decode_ns_per_byte",
            ratio(self.decode_ns as f64, self.decode_bytes as f64),
            "ns/B",
        );
        out.push("serde_json.decode_growth", growth(0), "ratio");
        out.push("model.parse_instance_us", us(&self.parse), "us");
        out.push(
            "model.parse_ns_per_fact",
            ratio(self.parse_ns as f64, self.parse_facts as f64),
            "ns/fact",
        );
        out.push("model.parse_growth", growth(1), "ratio");
        out.push("model.index_build_us", us(&self.index), "us");
        out.push("model.index_growth", growth(2), "ratio");
        out.push("core.solve_fo_us", us(&self.solve_fo), "us");
        out.push("core.solve_poly_us", us(&self.solve_poly), "us");
        out.push("core.solve_fallback_us", us(&self.solve_fallback), "us");
        out.push("core.build_us", us(&self.build), "us");
        out.push("serve.cache.hit_us", us(&self.hit), "us");
        out.push("serve.cache.miss_us", us(&self.miss), "us");
        out.push(
            "serve.cache.hit_ratio",
            ratio(self.hits as f64, (self.hits + self.misses) as f64),
            "ratio",
        );
        out.push("serve.cache.misses", self.misses as f64, "count");
        out.push("serve.cache.evictions", self.evictions as f64, "count");
        out.push("emit.emit_us", us(&self.emit), "us");
        out.push("serve.handle_line_us", us(&self.handle_line), "us");
        out.push("serve.dispatch_us", us(&self.dispatch), "us");
        out.push("core.reanswer_unaffected_us", us(&self.reanswer[0]), "us");
        out.push("core.reanswer_localized_us", us(&self.reanswer[1]), "us");
        out.push("core.reanswer_recomputed_us", us(&self.reanswer[2]), "us");
        out.push(
            "core.reanswer_rungs.unaffected",
            self.rungs[0] as f64,
            "count",
        );
        out.push(
            "core.reanswer_rungs.localized",
            self.rungs[1] as f64,
            "count",
        );
        out.push(
            "core.reanswer_rungs.recomputed",
            self.rungs[2] as f64,
            "count",
        );
        out.push(
            "core.localized_reuse_ratio",
            ratio(self.reused as f64, (self.reused + self.evaluated) as f64),
            "ratio",
        );
        out.push("core.full_solve_us", us(&self.full_solve), "us");
        out.push("trace.overhead_us", us(&self.overhead), "us");
    }
}

fn field<'v>(v: &'v Value, name: &str) -> &'v str {
    v.get(name).and_then(Value::as_str).unwrap_or("")
}

/// The problem a cache key names, parsed outside any span (for timing
/// `Solver::build` on a miss).
fn key_problem(key: &RawKey) -> Option<Problem> {
    let schema = Arc::new(parse_schema(&key.schema).ok()?);
    let q = parse_query(&schema, &key.query).ok()?;
    let fks = parse_fks(&schema, &key.fks).ok()?;
    Problem::new(q, fks).ok()
}

/// The build options `PlanCache::get_or_build` uses for `key`.
fn build_options(key: &RawKey, defaults: &ExecOptions) -> ExecOptions {
    let mut options = *defaults;
    options.evaluator = key.evaluator;
    options = options.with_join(key.join);
    if options.fallback == FallbackBudget::Deny {
        options = options.allow_fallback();
    }
    options
}

/// What one traced replay of a serve request measured.
struct Replayed {
    ok: bool,
    request_ns: f64,
    children_ns: f64,
}

/// Replays one serve request layer by layer. Reports whether the verdict
/// (or the executed artifact) matched the reference.
fn replay_request(
    t: &mut Tracer,
    layers: &mut Layers,
    no: u32,
    req: &Request,
    cache: &PlanCache,
    defaults: &ExecOptions,
    extremes: (bool, bool),
) -> Replayed {
    let req_start = Instant::now();
    let root = t.reserve();
    let mut children = 0u64;

    let (decoded, a, b) = timed(|| serde_json::from_str(&req.line));
    let failed = Replayed {
        ok: false,
        request_ns: 0.0,
        children_ns: 0.0,
    };
    let Ok(request) = decoded else { return failed };
    t.record(no, Some(root), "serde_json::from_str", "", a, b);
    let decode_ns = ns(a, b);
    children += decode_ns;
    layers.decode.push(decode_ns as f64);
    layers.decode_ns += decode_ns;
    layers.decode_bytes += req.line.len() as u64;

    let mut options = *defaults;
    if let Some(budget) = request.get("budget").and_then(Value::as_u64) {
        options = options.with_fallback(SearchLimits::budgeted(budget));
    }
    let key = RawKey {
        schema: field(&request, "schema").to_string(),
        query: field(&request, "query").to_string(),
        fks: field(&request, "fks").to_string(),
        evaluator: options.evaluator,
        join: options.join,
    };
    let (built, a, b) = timed(|| cache.get_or_build(&key, defaults));
    let Ok((plan, lookup)) = built else {
        return failed;
    };
    let hit = lookup == Lookup::Hit;
    t.record(
        no,
        Some(root),
        "PlanCache::get_or_build",
        lookup.label(),
        a,
        b,
    );
    children += ns(a, b);
    if hit {
        layers.hits += 1;
        layers.hit.push(ns(a, b) as f64);
    } else {
        layers.misses += 1;
        layers.miss.push(ns(a, b) as f64);
    }

    let (parsed, a, b) = timed(|| parse_instance(&plan.schema, field(&request, "db")));
    let Ok(db) = parsed else { return failed };
    t.record(no, Some(root), "parse_instance", "", a, b);
    let parse_ns = ns(a, b);
    children += parse_ns;
    layers.parse.push(parse_ns as f64);
    layers.parse_ns += parse_ns;
    layers.parse_facts += db.len() as u64;

    // The FO route's instance view builds the index on entry; the
    // poly-time backends, the oracle and emission read the block store
    // directly and never build it. Time the build where the server pays it.
    let route = plan.solver.route().kind();
    let mut index_ns = 0;
    if route == RouteKind::Fo && req.op == Op::Solve {
        let (_, a, b) = timed(|| {
            db.index();
        });
        t.record(no, Some(root), "Instance::index", "", a, b);
        index_ns = ns(a, b);
        children += index_ns;
        layers.index.push(index_ns as f64);
    }

    let per_fact = [decode_ns, parse_ns, index_ns].map(|n| n as f64 / req.facts.max(1) as f64);
    for ((v, small), large) in per_fact
        .iter()
        .zip(&mut layers.small)
        .zip(&mut layers.large)
    {
        if extremes.0 {
            small.push(*v);
        }
        if extremes.1 {
            large.push(*v);
        }
    }

    let mut artifact = None;
    let mut verdict = None;
    match req.op {
        Op::Emit => {
            let (emitted, a, b) = timed(|| plan.solver.emit(&db, Format::Datalog));
            t.record(no, Some(root), "SolverEmitExt::emit", "datalog", a, b);
            children += ns(a, b);
            layers.emit.push(ns(a, b) as f64);
            artifact = emitted.ok();
        }
        Op::Solve | Op::Fallback => {
            let (verdict_of, a, b) = timed(|| plan.solver.solve_with(&db, &options));
            let label = match route {
                RouteKind::Fo => "fo",
                RouteKind::PolyTime => "poly",
                RouteKind::Fallback => "fallback",
            };
            t.record(no, Some(root), "Solver::solve_with", label, a, b);
            children += ns(a, b);
            let sample = ns(a, b) as f64;
            match route {
                RouteKind::Fo => layers.solve_fo.push(sample),
                RouteKind::PolyTime => layers.solve_poly.push(sample),
                RouteKind::Fallback => layers.solve_fallback.push(sample),
            }
            verdict = verdict_of.as_bool();
        }
    }
    let req_end = Instant::now();
    t.record_as(
        root,
        no,
        None,
        "request",
        lookup.label(),
        req_start,
        req_end,
    );

    // Checks run after the request span closes.
    if let Some(art) = artifact {
        verdict = cqa_emit::datalog::Program::parse(&art.text)
            .ok()
            .and_then(|p| cqa_emit::evaluate(&p).ok())
            .map(|ev| ev.holds(&art.goal));
    }

    if !hit {
        // `Solver::build` on its own (classify + compile), outside the
        // request span.
        if let Some(problem) = key_problem(&key) {
            let opts = build_options(&key, defaults);
            let (_, a, b) = timed(|| Solver::builder(problem).options(opts).build());
            layers.build.push(ns(a, b) as f64);
        }
    }
    Replayed {
        ok: verdict == Some(req.expected),
        request_ns: ns(req_start, req_end) as f64,
        children_ns: children as f64,
    }
}

/// The same calls as [`replay_request`] with no spans: the untraced side
/// of the tracing overhead. Returns the decoded request and the instance
/// so that, as in the traced replay, freeing them is not timed.
fn replay_plain(
    req: &Request,
    cache: &PlanCache,
    defaults: &ExecOptions,
) -> Option<(Value, Instance)> {
    let request = serde_json::from_str(&req.line).ok()?;
    let mut options = *defaults;
    if let Some(budget) = request.get("budget").and_then(Value::as_u64) {
        options = options.with_fallback(SearchLimits::budgeted(budget));
    }
    let key = RawKey {
        schema: field(&request, "schema").to_string(),
        query: field(&request, "query").to_string(),
        fks: field(&request, "fks").to_string(),
        evaluator: options.evaluator,
        join: options.join,
    };
    let (plan, _) = cache.get_or_build(&key, defaults).ok()?;
    let db = parse_instance(&plan.schema, field(&request, "db")).ok()?;
    match req.op {
        Op::Emit => {
            std::hint::black_box(plan.solver.emit(&db, Format::Datalog).ok()?);
        }
        Op::Solve | Op::Fallback => {
            std::hint::black_box(plan.solver.solve_with(&db, &options));
        }
    }
    Some((request, db))
}

/// Replays a serve workload; see the module docs.
pub fn run_serve(wl: &ServeWorkload, churn: bool, seconds: f64, spans_out: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    // What `cqa serve` runs with when given no flags and no `CQA_*`
    // variables.
    let config = ServeConfig::default();
    let pass_len = if churn {
        CHURN_PASS
    } else {
        INGEST_PASS_PER_REQUEST * wl.requests.len()
    };
    let order = wl.interleaved(pass_len);
    // The smallest and largest nested Lemma 45 ingest databases, for the
    // linearity ratios.
    let extreme = |r: &Request| {
        (
            !churn && r.family == "nested" && r.facts <= INGEST_MIN_FACTS,
            !churn && r.family == "nested" && r.facts >= INGEST_MAX_FACTS - 1,
        )
    };
    let mut tracer = Tracer::new();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut pass = 0;
    while pass == 0 || start.elapsed() < budget {
        // Warm both caches with the warm-up problems (the databases are
        // beside the point here, so the service gets them empty).
        let cache = PlanCache::new(config.cache_capacity);
        let plain_cache = PlanCache::new(config.cache_capacity);
        let service = Service::new(config);
        for &i in &wl.warmup {
            let (key, empty) = warm_key(&wl.requests[i], &config.defaults);
            out.setup_failed |= cache.get_or_build(&key, &config.defaults).is_err();
            out.setup_failed |= plain_cache.get_or_build(&key, &config.defaults).is_err();
            out.setup_failed |= !service.handle_line(&empty).contains(r#""ok":true"#);
        }
        let evictions_before = cache.evictions();
        let (hits, misses) = (layers.hits, layers.misses);
        for (no, &i) in order.iter().enumerate() {
            let req = &wl.requests[i];
            // Rotate the order of the three runs of this request, so none
            // always runs on the CPU caches another one warmed.
            let (mut traced, mut plain, mut line) = (None, None, None);
            for k in 0..3 {
                match (no + k) % 3 {
                    0 => {
                        traced = Some(replay_request(
                            &mut tracer,
                            &mut layers,
                            no as u32,
                            req,
                            &cache,
                            &config.defaults,
                            extreme(req),
                        ))
                    }
                    1 => plain = Some(timed(|| replay_plain(req, &plain_cache, &config.defaults))),
                    _ => line = Some(timed(|| service.handle_line(&req.line))),
                }
            }
            let traced = traced.expect("traced replay ran");
            let (plain_ok, a, b) = plain.expect("plain replay ran");
            layers.overhead.push(traced.request_ns - ns(a, b) as f64);
            let (reply, a, b) = line.expect("handle_line ran");
            let handle_line = ns(a, b) as f64;
            layers.handle_line.push(handle_line);
            layers.dispatch.push(handle_line - traced.children_ns);
            let mut ok = traced.ok && plain_ok.is_some();
            ok &= match req.op {
                Op::Emit => emit_reply_verdict(&reply) == Some(req.expected),
                _ => reply_ok(req, &reply),
            };
            out.attempted += 1;
            out.failed += u64::from(!ok);
        }
        if pass == 0 {
            layers.evictions = cache.evictions() - evictions_before;
            tracer.keep = false;
            let _ = tracer.write(spans_out);
        } else {
            // Counts come from the first pass only.
            layers.hits = hits;
            layers.misses = misses;
        }
        pass += 1;
    }
    layers.report(&mut out);
    out
}

/// The cache key a warm-up request fills, and the request with its
/// database emptied.
fn warm_key(req: &Request, defaults: &ExecOptions) -> (RawKey, String) {
    let mut v = serde_json::from_str(&req.line).unwrap_or(Value::Null);
    let key = RawKey {
        schema: field(&v, "schema").to_string(),
        query: field(&v, "query").to_string(),
        fks: field(&v, "fks").to_string(),
        evaluator: defaults.evaluator,
        join: defaults.join,
    };
    if let Value::Object(map) = &mut v {
        map.insert("db".to_string(), Value::String(String::new()));
    }
    let empty = serde_json::to_string(&v).expect("object serialization is infallible");
    (key, empty)
}

/// Replays `delta-session`: passes alternate between traced (a span per
/// step, labelled by rung) and untraced (a bare timer per step); the
/// overhead pairs each untraced step with the same step of the traced pass
/// before it, timing the whole step including the span bookkeeping.
pub fn run_delta(seed: u64, seconds: f64, spans_out: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    let problem = delta_problem();
    let mut tracer = Tracer::new();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut pass = 0usize;
    let mut traced_steps = vec![0.0; DELTA_PASS];
    while pass < 2 || start.elapsed() < budget {
        let traced = pass.is_multiple_of(2);
        let mut world = World::new(seed);
        let (mut db, solver, ok) = set_up(&world, &problem);
        out.setup_failed |= !ok;
        let mut session = solver.incremental();
        session.solve(&db);
        for (no, traced_step) in traced_steps.iter_mut().enumerate() {
            let step = world.step();
            let step_start = Instant::now();
            let (verdict, a, b) = timed(|| run_step(&mut session, &mut db, &step));
            out.attempted += 1;
            out.failed += u64::from(!verdict_matches(&step, verdict.as_ref()));
            let sample = ns(a, b) as f64;
            if !traced {
                layers
                    .overhead
                    .push(*traced_step - ns(step_start, Instant::now()) as f64);
                continue;
            }
            match (&step, verdict.as_ref()) {
                (Step::Solve { .. }, _) => {
                    tracer.record(no as u32, None, "Solver::solve", "full", a, b);
                    layers.full_solve.push(sample);
                }
                (Step::Delta { .. }, Some(v)) => {
                    let rung = rung_of(v);
                    let (slot, label) = match rung {
                        Some(Rung::Unaffected) => (0, "unaffected"),
                        Some(Rung::Localized) => (1, "localized"),
                        _ => (2, "recomputed"),
                    };
                    tracer.record(no as u32, None, "IncrementalSolver::reanswer", label, a, b);
                    layers.reanswer[slot].push(sample);
                    if pass == 0 {
                        layers.rungs[slot] += 1;
                        if let Some(DeltaOutcome::Localized { reused, evaluated }) =
                            v.provenance.delta
                        {
                            layers.reused += reused as u64;
                            layers.evaluated += evaluated as u64;
                        }
                    }
                }
                (Step::Delta { .. }, None) => {}
            }
            *traced_step = ns(step_start, Instant::now()) as f64;
        }
        if pass == 0 {
            tracer.keep = false;
            let _ = tracer.write(spans_out);
        }
        pass += 1;
    }
    layers.report(&mut out);
    out
}
