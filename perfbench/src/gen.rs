//! Seeded input generation for every workload.
//!
//! Everything here is a pure function of the `--seed`: the same seed gives
//! byte-identical request lines, client streams and delta streams. The
//! program under test only ever sees the generated text (serve workloads)
//! or the generated facts and deltas (the incremental session).
//!
//! Reference answers come from two places, never from the `Solver` under
//! test: by construction (the Lemma 45 chain families and
//! [`cqa_gen::block_chain`] know whether they planted a broken chain), or
//! from [`cqa_repair::CertaintyOracle`] on the small plan-churn databases.

use cqa_gen::{block_chain, BlockChainConfig};
use cqa_model::parser::parse_schema;
use cqa_model::{Cst, Delta, Fact, Instance, RelName};
use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// SplitMix64: small, fast and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded from `seed` and a stream tag, so independent
    /// streams drawn from one seed do not overlap.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A `(schema, query, fks)` problem as request text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProblemText {
    pub schema: String,
    pub query: String,
    pub fks: String,
}

/// What a request asks the server to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `solve` on an FO or poly-time route.
    Solve,
    /// `solve` with a `budget` field on the hard class (the ⊕-repair oracle).
    Fallback,
    /// `emit` (Datalog); checked after the timed window by executing it.
    Emit,
}

/// One distinct request line and its reference answer.
#[derive(Clone, Debug)]
pub struct Request {
    pub line: String,
    pub op: Op,
    pub expected: bool,
    /// Facts in the request's database.
    pub facts: usize,
    /// The problem family (ingest) or shape (plan churn).
    pub family: &'static str,
}

/// A serve workload: the distinct request lines, the untimed warm-up pass
/// and one request-index stream per client.
#[derive(Clone, Debug)]
pub struct ServeWorkload {
    pub requests: Vec<Request>,
    pub warmup: Vec<usize>,
    pub streams: [Vec<usize>; 2],
    /// Timed requests after which the server's `peak_rss_mb` is read.
    pub rss_after: u64,
}

impl ServeWorkload {
    /// The first `n` requests of the two client streams interleaved — the
    /// order the single-threaded traced replay uses.
    pub fn interleaved(&self, n: usize) -> Vec<usize> {
        (0..n)
            .map(|i| self.streams[i % 2][(i / 2) % self.streams[i % 2].len()])
            .collect()
    }
}

/// The wire form of a request (the same JSON encoder the server uses).
pub fn request_line(op: &str, p: &ProblemText, db: &str, budget: Option<u64>) -> String {
    let mut map = BTreeMap::new();
    map.insert("op".to_string(), Value::String(op.to_string()));
    map.insert("schema".to_string(), Value::String(p.schema.clone()));
    map.insert("query".to_string(), Value::String(p.query.clone()));
    map.insert("fks".to_string(), Value::String(p.fks.clone()));
    map.insert("db".to_string(), Value::String(db.to_string()));
    if let Some(b) = budget {
        map.insert("budget".to_string(), Value::Number(b as f64));
    }
    serde_json::to_string(&Value::Object(map)).expect("object serialization is infallible")
}

// ---------------------------------------------------------------------------
// Lemma 45 chain families (FO route)
// ---------------------------------------------------------------------------

/// The nested Lemma 45 problem of `examples/problems/nested_lemma45.problem`.
pub fn nested_problem() -> ProblemText {
    ProblemText {
        schema: "N[2,1] M[2,1] Q[1,1] P[1,1] O[1,1]".to_string(),
        query: "N('c',y), M(y,w), Q(w), P(w), O(y)".to_string(),
        fks: "N[2] -> O, M[2] -> Q".to_string(),
    }
}

/// The single-step Lemma 45 problem of `examples/problems/section8.problem`.
pub fn section8_problem() -> ProblemText {
    ProblemText {
        schema: "N[2,1] O[1,1] P[1,1]".to_string(),
        query: "N('c',y), O(y), P(y)".to_string(),
        fks: "N[2] -> O".to_string(),
    }
}

/// A Lemma 45 chain database of about `target` facts, as request text.
///
/// Every `y` of the `N('c',·)` block gets `O(y)` and (nested) a `M(y,·)`
/// block of one or two `w`s, each with `Q(w)` and `P(w)` — or (not nested)
/// `P(y)`. About a fifth of the facts are `N(d_k, y)` blocks the query
/// never reads. The instance is certain unless `certain` is false, in which
/// case exactly one chain loses one `P` fact: the repair that picks that
/// chain falsifies the query, every other repair satisfies it.
pub fn chain_db(rng: &mut Rng, nested: bool, target: usize, certain: bool) -> (String, usize) {
    let mut facts: Vec<String> = Vec::with_capacity(target + 8);
    let chain_share = target * 4 / 5;
    let mut ys = 0usize;
    let mut next_w = 0usize;
    let mut p_positions = Vec::new();
    while facts.len() < chain_share.max(3) {
        let y = ys;
        ys += 1;
        facts.push(format!("N(c,y{y})"));
        facts.push(format!("O(y{y})"));
        if nested {
            for _ in 0..1 + rng.below(2) {
                let w = next_w;
                next_w += 1;
                facts.push(format!("M(y{y},w{w})"));
                facts.push(format!("Q(w{w})"));
                p_positions.push(facts.len());
                facts.push(format!("P(w{w})"));
            }
        } else {
            p_positions.push(facts.len());
            facts.push(format!("P(y{y})"));
        }
    }
    let mut k = 0usize;
    while facts.len() < target {
        facts.push(format!("N(d{k},y{})", rng.below(ys)));
        if rng.chance(0.5) {
            k += 1;
        }
    }
    if !certain {
        facts.swap_remove(p_positions[rng.below(p_positions.len())]);
    }
    rng.shuffle(&mut facts);
    let n = facts.len();
    (facts.join(" "), n)
}

/// The §4 block chain (Proposition 17, dual-Horn route) as request text,
/// with `2n + 2` facts and the generator's own ground truth.
pub fn block_chain_db(
    rng: &mut Rng,
    n: usize,
    certain: bool,
) -> (ProblemText, String, usize, bool) {
    let bc = block_chain(BlockChainConfig {
        n,
        closing_is_c: certain,
        with_anchor: true,
    });
    let mut facts: Vec<String> = bc.db.facts().map(|f| compact_fact(&f)).collect();
    rng.shuffle(&mut facts);
    let problem = ProblemText {
        schema: "N[3,1] O[1,1]".to_string(),
        query: "N(x,'c',y), O(y)".to_string(),
        fks: "N[3] -> O".to_string(),
    };
    let len = facts.len();
    (problem, facts.join(" "), len, bc.expected_certain)
}

fn compact_fact(f: &Fact) -> String {
    let args: Vec<String> = f.args.iter().map(|c| c.to_string()).collect();
    format!("{}({})", f.rel, args.join(","))
}

/// Smallest and largest `serve-ingest` database sizes, in facts.
pub const INGEST_MIN_FACTS: usize = 300;
pub const INGEST_MAX_FACTS: usize = 5000;

/// Log-uniform sizes from `INGEST_MIN_FACTS` to `INGEST_MAX_FACTS`: a
/// fixed geometric grid, so every seed covers the range the same way and
/// hits both ends (the seed decides everything else).
fn ingest_sizes(n: usize) -> Vec<usize> {
    let ratio = INGEST_MAX_FACTS as f64 / INGEST_MIN_FACTS as f64;
    (0..n)
        .map(|i| (INGEST_MIN_FACTS as f64 * ratio.powf(i as f64 / (n - 1) as f64)).round() as usize)
        .collect()
}

/// Pool cycles per `serve-ingest` client stream (the stream wraps if a run
/// outlasts it).
const INGEST_CYCLES: usize = 100;

/// `serve-ingest`: 48 distinct requests over three cached plans — 20 nested
/// Lemma 45, 20 block chain, 8 section 8 — sizes log-uniform over
/// 300–5000 facts, each size once planted yes and once planted no.
pub fn serve_ingest(seed: u64) -> ServeWorkload {
    let mut rng = Rng::new(seed, 1);
    let mut requests = Vec::new();
    for (family, count) in [("nested", 20), ("block_chain", 20), ("section8", 8)] {
        // Every size of the grid comes as a planted yes and a planted no:
        // the two differ in latency, and at the largest sizes that gap
        // would move `latency_p99_us` if the seed chose between them.
        let grid = ingest_sizes(count / 2);
        for (size, certain) in grid.into_iter().flat_map(|s| [(s, true), (s, false)]) {
            let (problem, db, facts, expected) = match family {
                "block_chain" => block_chain_db(&mut rng, (size - 2) / 2, certain),
                "nested" => {
                    let (db, facts) = chain_db(&mut rng, true, size, certain);
                    (nested_problem(), db, facts, certain)
                }
                _ => {
                    let (db, facts) = chain_db(&mut rng, false, size, certain);
                    (section8_problem(), db, facts, certain)
                }
            };
            requests.push(Request {
                line: request_line("solve", &problem, &db, None),
                op: Op::Solve,
                expected,
                facts,
                family,
            });
        }
    }
    let warmup = (0..requests.len()).collect();
    // Each client sends the whole pool in a fresh random order, again and
    // again: the mix is exact in every cycle, and the two clients never
    // lock into one fixed pattern of overlapping large requests.
    let streams = [1u64, 2].map(|c| {
        let mut rng = Rng::new(seed, 10 + c);
        let mut stream = Vec::with_capacity(INGEST_CYCLES * requests.len());
        for _ in 0..INGEST_CYCLES {
            let mut cycle: Vec<usize> = (0..requests.len()).collect();
            rng.shuffle(&mut cycle);
            stream.extend(cycle);
        }
        stream
    });
    ServeWorkload {
        requests,
        warmup,
        streams,
        rss_after: 500,
    }
}

// ---------------------------------------------------------------------------
// Plan churn: many small problems, more than the plan cache holds
// ---------------------------------------------------------------------------

/// The five `examples/problems` shapes, with `{X}` relation placeholders
/// and `{c}` for the query constant, plus a small certain base database.
/// The hard shape instead lists its databases: the ⊕-repair oracle's cost
/// (and the fresh symbols its chase mints) depends on their exact shape,
/// so they are the same for every seed, renaming aside.
struct Shape {
    name: &'static str,
    rels: &'static [&'static str],
    schema: &'static str,
    query: &'static str,
    fks: &'static [&'static str],
    base_db: &'static str,
    fixed_dbs: &'static [&'static str],
    fallback: bool,
}

const SHAPES: [Shape; 5] = [
    Shape {
        name: "filtered_blocks",
        rels: &["N", "O", "Q"],
        schema: "{N}[2,1] {O}[2,1] {Q}[1,1]",
        query: "{N}('{c}',y), {O}(y,z), {Q}(z)",
        fks: &["{N}[2] -> {O}", "{O}[2] -> {Q}"],
        base_db: "{N}({c},a) {N}({c},b) {O}(a,t) {O}(b,t) {Q}(t)",
        fixed_dbs: &[],
        fallback: false,
    },
    Shape {
        name: "nested_lemma45",
        rels: &["N", "M", "Q", "P", "O"],
        schema: "{N}[2,1] {M}[2,1] {Q}[1,1] {P}[1,1] {O}[1,1]",
        query: "{N}('{c}',y), {M}(y,w), {Q}(w), {P}(w), {O}(y)",
        fks: &["{N}[2] -> {O}", "{M}[2] -> {Q}"],
        base_db: "{N}({c},a) {N}({c},b) {M}(a,t) {M}(b,t) {Q}(t) {P}(t) {O}(a) {O}(b)",
        fixed_dbs: &[],
        fallback: false,
    },
    Shape {
        name: "section8",
        rels: &["N", "O", "P"],
        schema: "{N}[2,1] {O}[1,1] {P}[1,1]",
        query: "{N}('{c}',y), {O}(y), {P}(y)",
        fks: &["{N}[2] -> {O}"],
        base_db: "{N}({c},a) {N}({c},b) {O}(a) {O}(b) {P}(a) {P}(b)",
        fixed_dbs: &[],
        fallback: false,
    },
    Shape {
        name: "reachability",
        rels: &["E", "V"],
        schema: "{E}[2,1] {V}[1,1]",
        query: "{E}(x,x), {V}(x)",
        fks: &["{E}[2] -> {V}"],
        base_db: "{E}(a,a) {E}(a,b) {E}(b,b) {V}(a)",
        fixed_dbs: &[],
        fallback: false,
    },
    Shape {
        name: "oracle_only",
        rels: &["N", "O"],
        schema: "{N}[3,1] {O}[2,1]",
        query: "{N}(x,'{c}',y), {O}(y,w)",
        fks: &["{N}[3] -> {O}"],
        base_db: "{N}(k,{c},a) {O}(a,t)",
        fixed_dbs: &[
            "{N}(k,{c},a) {O}(a,t)",
            "{N}(k,{c},a) {N}(k,{c},b) {O}(a,t)",
            "{N}(k,{c},a) {O}(a,t) {N}(j,{c},b) {O}(b,u)",
            "{N}(k,{c},a)",
            "{N}(k,{c},a) {N}(k,d,a) {O}(a,t)",
            "{N}(k,{c},a) {O}(a,t) {O}(a,u)",
        ],
        fallback: true,
    },
];

/// Distinct problems per shape: 22 of each tractable shape and 8 of the
/// hard one, 96 in all — more than the server's 64-entry plan cache.
const CHURN_PER_SHAPE: [usize; 5] = [22, 22, 22, 22, 8];
/// Small databases per problem.
const CHURN_DBS: usize = 6;
/// Largest plan-churn database.
pub const CHURN_MAX_FACTS: usize = 12;
/// Oracle budget sent with every fallback request.
pub const FALLBACK_BUDGET: u64 = 1_000_000;

/// One renamed problem of the plan-churn mix.
#[derive(Clone, Debug)]
pub struct ChurnProblem {
    pub shape: &'static str,
    pub fallback: bool,
    /// Canonical spelling and a re-spelling (relation order, whitespace,
    /// foreign-key order) that maps to the same cached plan.
    pub spellings: [ProblemText; 2],
    /// The small databases, as text.
    pub dbs: Vec<String>,
}

fn fill(template: &str, names: &[(String, String)], c: &str) -> String {
    let mut out = template.replace("{c}", c);
    for (from, to) in names {
        out = out.replace(&format!("{{{from}}}"), to);
    }
    out
}

fn tag(rng: &mut Rng) -> String {
    const ALPHABET: &[u8] = b"abcdefghijkmnpqrstuvwxyz23456789";
    (0..5)
        .map(|_| ALPHABET[rng.below(ALPHABET.len())] as char)
        .collect()
}

/// Generates the 96 plan-churn problems and their small databases. The
/// databases start from the shape's base instance and take up to three
/// random fact insertions or deletions over a four-constant domain, so the
/// mix holds both yes- and no-instances.
pub fn churn_problems(seed: u64) -> Vec<ChurnProblem> {
    let mut rng = Rng::new(seed, 2);
    let mut out = Vec::new();
    let mut tags = std::collections::BTreeSet::new();
    for (shape, &count) in SHAPES.iter().zip(CHURN_PER_SHAPE.iter()) {
        for _ in 0..count {
            let t = std::iter::repeat_with(|| tag(&mut rng))
                .find(|t| tags.insert(t.clone()))
                .expect("an unused tag turns up");
            let names: Vec<(String, String)> = shape
                .rels
                .iter()
                .map(|r| (r.to_string(), format!("{r}_{t}")))
                .collect();
            let c = format!("c_{t}");
            let canonical = ProblemText {
                schema: fill(shape.schema, &names, &c),
                query: fill(shape.query, &names, &c),
                fks: shape
                    .fks
                    .iter()
                    .map(|f| fill(f, &names, &c))
                    .collect::<Vec<_>>()
                    .join(", "),
            };
            let respelled = ProblemText {
                schema: fill(shape.schema, &names, &c)
                    .split(' ')
                    .rev()
                    .collect::<Vec<_>>()
                    .join("   "),
                query: canonical.query.replace(", ", " ,  "),
                fks: shape
                    .fks
                    .iter()
                    .rev()
                    .map(|f| fill(f, &names, &c).replace(" -> ", "->"))
                    .collect::<Vec<_>>()
                    .join(" ; "),
            };
            let schema =
                Arc::new(parse_schema(&canonical.schema).expect("generated schema parses"));
            let dbs = if shape.fixed_dbs.is_empty() {
                (0..CHURN_DBS)
                    .map(|_| churn_db(&mut rng, &schema, &fill(shape.base_db, &names, &c), &c))
                    .collect()
            } else {
                shape
                    .fixed_dbs
                    .iter()
                    .map(|db| fill(db, &names, &c))
                    .collect()
            };
            out.push(ChurnProblem {
                shape: shape.name,
                fallback: shape.fallback,
                spellings: [canonical, respelled],
                dbs,
            });
        }
    }
    out
}

fn churn_db(rng: &mut Rng, schema: &Arc<cqa_model::Schema>, base: &str, c: &str) -> String {
    let mut facts: Vec<String> = base.split(' ').map(str::to_string).collect();
    let domain = [c, "a", "b", "t"];
    let rels: Vec<(RelName, usize)> = schema.relations().map(|(r, sig)| (r, sig.arity)).collect();
    for _ in 0..rng.below(4) {
        if rng.chance(0.5) && facts.len() > 1 {
            let i = rng.below(facts.len());
            facts.remove(i);
        } else if facts.len() < CHURN_MAX_FACTS {
            let (rel, arity) = rels[rng.below(rels.len())];
            let args: Vec<&str> = (0..arity)
                .map(|_| domain[rng.below(domain.len())])
                .collect();
            let fact = format!("{rel}({})", args.join(","));
            if !facts.contains(&fact) {
                facts.push(fact);
            }
        }
    }
    facts.join(" ")
}

/// Share of plan-churn requests that are `emit` ops.
pub const CHURN_EMIT_SHARE: f64 = 0.10;
/// Share of plan-churn requests that are budgeted fallback solves.
pub const CHURN_FALLBACK_SHARE: f64 = 0.05;
/// Share of requests that re-spell their problem.
pub const CHURN_RESPELL_SHARE: f64 = 0.15;
/// Zipf exponent of the problem popularity.
pub const CHURN_ZIPF: f64 = 1.0;
/// Requests per client stream (the stream wraps if a run outlasts it).
const CHURN_STREAM_LEN: usize = 200_000;

/// Zipf sampler over `items`, given in rank order.
struct Zipf {
    cdf: Vec<f64>,
    items: Vec<usize>,
}

impl Zipf {
    fn new(items: Vec<usize>, s: f64) -> Zipf {
        let mut acc = 0.0;
        let cdf = (1..=items.len())
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect::<Vec<_>>();
        let total = acc;
        Zipf {
            cdf: cdf.into_iter().map(|x| x / total).collect(),
            items,
        }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let i = self
            .cdf
            .partition_point(|&x| x < u)
            .min(self.items.len() - 1);
        self.items[i]
    }
}

/// `serve-plan-churn`: every `(problem, spelling, db, op)` combination as a
/// distinct request line, references from `reference` (called once per
/// distinct `(problem, db)` — the oracle in production, a stub in tests),
/// and two Zipf-skewed client streams.
pub fn serve_plan_churn(
    seed: u64,
    reference: &mut dyn FnMut(&ChurnProblem, &str) -> bool,
) -> (Vec<ChurnProblem>, ServeWorkload) {
    let problems = churn_problems(seed);
    let mut requests = Vec::new();
    // index[(problem, spelling, db, op)] → request index; op 0 = solve, 1 = emit.
    let mut index = BTreeMap::new();
    for (pi, p) in problems.iter().enumerate() {
        for (di, db) in p.dbs.iter().enumerate() {
            let expected = reference(p, db);
            let facts = db.split(' ').filter(|f| !f.is_empty()).count();
            for (si, spelling) in p.spellings.iter().enumerate() {
                let ops: &[Op] = if p.fallback {
                    &[Op::Fallback]
                } else {
                    &[Op::Solve, Op::Emit]
                };
                for &op in ops {
                    let line = match op {
                        Op::Solve => request_line("solve", spelling, db, None),
                        Op::Fallback => request_line("solve", spelling, db, Some(FALLBACK_BUDGET)),
                        Op::Emit => request_line("emit", spelling, db, None),
                    };
                    index.insert((pi, si, di, op == Op::Emit), requests.len());
                    requests.push(Request {
                        line,
                        op,
                        expected,
                        facts,
                        family: p.shape,
                    });
                }
            }
        }
    }
    // Popularity ranks: the seed orders the problems within each shape, and
    // the tractable shapes take turns down the ranks, so every seed gives
    // each shape the same share of the traffic.
    let mut rng = Rng::new(seed, 3);
    let mut by_shape: Vec<Vec<usize>> = SHAPES
        .iter()
        .map(|shape| {
            let mut ids: Vec<usize> = (0..problems.len())
                .filter(|&i| problems[i].shape == shape.name)
                .collect();
            rng.shuffle(&mut ids);
            ids
        })
        .collect();
    let hard = by_shape.pop().expect("the hard shape is last");
    let ranked = (0..by_shape[0].len())
        .flat_map(|r| by_shape.iter().map(move |ids| ids[r]))
        .collect();
    let popular = Zipf::new(ranked, CHURN_ZIPF);
    let popular_hard = Zipf::new(hard, CHURN_ZIPF);
    let streams = [1u64, 2].map(|c| {
        let mut rng = Rng::new(seed, 20 + c);
        (0..CHURN_STREAM_LEN)
            .map(|_| {
                let r = rng.unit();
                let (pi, emit) = if r < CHURN_FALLBACK_SHARE {
                    (popular_hard.sample(&mut rng), false)
                } else {
                    (
                        popular.sample(&mut rng),
                        r < CHURN_FALLBACK_SHARE + CHURN_EMIT_SHARE,
                    )
                };
                let si = usize::from(rng.chance(CHURN_RESPELL_SHARE));
                let di = rng.below(CHURN_DBS);
                index[&(pi, si, di, emit)]
            })
            .collect()
    });
    // Warm-up: one canonical solve per problem (every plan built once).
    let warmup = (0..problems.len())
        .map(|pi| index[&(pi, 0, 0, false)])
        .collect();
    (
        problems,
        ServeWorkload {
            requests,
            warmup,
            streams,
            // Mid-way along a flat stretch of the server's memory curve
            // (its interner tables double near 100k and 190k requests),
            // and reached by 4000 requests/s.
            rss_after: 120_000,
        },
    )
}

// ---------------------------------------------------------------------------
// Delta session: a live nested Lemma 45 instance and a stream of edits
// ---------------------------------------------------------------------------

/// The delta-session problem: nested Lemma 45 plus an off-query relation
/// `Z` for edits the plan provably never reads.
pub fn delta_problem() -> ProblemText {
    ProblemText {
        schema: "N[2,1] M[2,1] Q[1,1] P[1,1] O[1,1] Z[2,1]".to_string(),
        ..nested_problem()
    }
}

/// Chains inside the `N('c',·)` block at the start.
const WORLD_BLOCK: usize = 1600;
/// Complete chains outside the block, ready to be inserted into it.
const WORLD_SPARE: usize = 500;
/// Share of spare chains that are broken (one `P` missing).
const WORLD_SPARE_BROKEN: f64 = 0.2;
/// `N(d_k, y)` facts outside the read block.
const WORLD_NOISE: usize = 3500;
/// Off-query `Z` facts.
const WORLD_Z: usize = 3500;

/// Which rung of the reuse ladder a delta is built to reach.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rung {
    Unaffected,
    Localized,
    Recomputed,
}

/// One step of the delta stream.
#[derive(Clone, Debug)]
pub enum Step {
    /// `reanswer` with this delta; the verdict must equal `expected`.
    Delta {
        delta: Delta,
        rung: Rung,
        expected: bool,
    },
    /// A plain `Solver::solve` on the live instance.
    Solve { expected: bool },
}

/// A set of small ids with O(1) insert, remove and uniform pick.
#[derive(Clone, Debug, Default)]
struct IdSet {
    items: Vec<usize>,
    pos: Vec<usize>,
}

impl IdSet {
    fn contains(&self, id: usize) -> bool {
        self.pos.get(id).is_some_and(|&p| p != usize::MAX)
    }

    fn insert(&mut self, id: usize) {
        if self.pos.len() <= id {
            self.pos.resize(id + 1, usize::MAX);
        }
        if self.pos[id] == usize::MAX {
            self.pos[id] = self.items.len();
            self.items.push(id);
        }
    }

    fn remove(&mut self, id: usize) {
        let p = self.pos[id];
        self.items.swap_remove(p);
        if p < self.items.len() {
            self.pos[self.items[p]] = p;
        }
        self.pos[id] = usize::MAX;
    }

    fn pick(&self, rng: &mut Rng) -> usize {
        self.items[rng.below(self.items.len())]
    }

    fn len(&self) -> usize {
        self.items.len()
    }
}

/// The generator's model of the live instance — enough to state the
/// certainty of every state it leads the instance through.
///
/// The instance is certain iff the `N('c',·)` block is non-empty and every
/// `y` in it has a *whole* chain: `O(y)` (always present) and `P(w)` for
/// every `w` of its `M(y,·)` block (`Q(w)` is always present). The model
/// tracks, per chain, how many `P` facts are missing.
#[derive(Clone, Debug)]
pub struct World {
    rng: Rng,
    /// `ws[y]`: the `w`s of `M(y,·)`.
    ws: Vec<Vec<usize>>,
    /// `owner[w]`: the `y` whose `M` block holds `w`.
    owner: Vec<usize>,
    p_present: Vec<bool>,
    missing: Vec<usize>,
    in_block: IdSet,
    broken_in_block: IdSet,
    spare: IdSet,
    noise: IdSet,
    noise_key: Vec<usize>,
    noise_y: Vec<usize>,
    z: IdSet,
    next_z: usize,
    /// The block size localized edits keep returning to.
    block_target: usize,
}

fn fact(rel: &str, args: &[String]) -> Fact {
    Fact::new(
        RelName::new(rel),
        args.iter().map(|a| Cst::new(a)).collect::<Vec<_>>(),
    )
}

fn n_c(y: usize) -> Fact {
    fact("N", &["c".to_string(), format!("y{y}")])
}

fn p_w(w: usize) -> Fact {
    fact("P", &[format!("w{w}")])
}

fn n_noise(k: usize, y: usize) -> Fact {
    fact("N", &[format!("d{k}"), format!("y{y}")])
}

fn m_fact(y: usize, w: usize) -> Fact {
    fact("M", &[format!("y{y}"), format!("w{w}")])
}

fn z_fact(i: usize) -> Fact {
    fact("Z", &[format!("z{i}"), format!("v{}", i % 97)])
}

impl World {
    /// The initial world: certain, with `WORLD_BLOCK` whole chains in the
    /// block and `WORLD_SPARE` chains (a fifth of them broken) outside it.
    pub fn new(seed: u64) -> World {
        World::sized(seed, WORLD_BLOCK, WORLD_SPARE, WORLD_NOISE, WORLD_Z)
    }

    /// A world of the given shape (small ones for the oracle tests).
    pub fn sized(seed: u64, block: usize, spare: usize, noise: usize, z: usize) -> World {
        let mut rng = Rng::new(seed, 4);
        let mut w = World {
            rng: Rng::new(seed, 5),
            ws: Vec::new(),
            owner: Vec::new(),
            p_present: Vec::new(),
            missing: Vec::new(),
            in_block: IdSet::default(),
            broken_in_block: IdSet::default(),
            spare: IdSet::default(),
            noise: IdSet::default(),
            noise_key: Vec::new(),
            noise_y: Vec::new(),
            z: IdSet::default(),
            next_z: z,
            block_target: block,
        };
        for y in 0..block + spare {
            let mut ws = Vec::new();
            for _ in 0..1 + rng.below(2) {
                let id = w.owner.len();
                w.owner.push(y);
                w.p_present.push(true);
                ws.push(id);
            }
            w.ws.push(ws);
            w.missing.push(0);
            if y < block {
                w.in_block.insert(y);
            } else {
                w.spare.insert(y);
                if rng.chance(WORLD_SPARE_BROKEN) {
                    let victim = w.ws[y][0];
                    w.p_present[victim] = false;
                    w.missing[y] = 1;
                }
            }
        }
        for k in 0..noise {
            w.noise_key.push(k / 2);
            w.noise_y.push(rng.below(block + spare));
            w.noise.insert(k);
        }
        for i in 0..z {
            w.z.insert(i);
        }
        w
    }

    /// Certainty of the current state.
    pub fn certain(&self) -> bool {
        self.in_block.len() > 0 && self.broken_in_block.len() == 0
    }

    /// Builds the instance with [`Instance::insert`].
    pub fn instance(&self) -> Instance {
        let schema = Arc::new(parse_schema(&delta_problem().schema).expect("delta schema parses"));
        let mut db = Instance::new(schema);
        for (y, ws) in self.ws.iter().enumerate() {
            let yc = format!("y{y}");
            db.insert(fact("O", std::slice::from_ref(&yc)))
                .expect("O fact");
            if self.in_block.contains(y) {
                db.insert(n_c(y)).expect("N fact");
            }
            for &w in ws {
                let wc = format!("w{w}");
                db.insert(fact("M", &[yc.clone(), wc.clone()]))
                    .expect("M fact");
                db.insert(fact("Q", std::slice::from_ref(&wc)))
                    .expect("Q fact");
                if self.p_present[w] {
                    db.insert(p_w(w)).expect("P fact");
                }
            }
        }
        for &k in &self.noise.items {
            db.insert(n_noise(self.noise_key[k], self.noise_y[k]))
                .expect("noise fact");
        }
        for &i in &self.z.items {
            db.insert(z_fact(i)).expect("Z fact");
        }
        db
    }

    fn set_in_block(&mut self, y: usize, inside: bool) {
        if inside {
            self.spare.remove(y);
            self.in_block.insert(y);
            if self.missing[y] > 0 {
                self.broken_in_block.insert(y);
            }
        } else {
            self.in_block.remove(y);
            self.spare.insert(y);
            if self.broken_in_block.contains(y) {
                self.broken_in_block.remove(y);
            }
        }
    }

    /// Re-files `y` in `broken_in_block` after its `missing` count changed.
    fn refresh(&mut self, y: usize) {
        let broken = self.in_block.contains(y) && self.missing[y] > 0;
        if broken && !self.broken_in_block.contains(y) {
            self.broken_in_block.insert(y);
        } else if !broken && self.broken_in_block.contains(y) {
            self.broken_in_block.remove(y);
        }
    }

    fn toggle_p(&mut self, w: usize) -> Fact {
        let y = self.owner[w];
        self.p_present[w] = !self.p_present[w];
        if self.p_present[w] {
            self.missing[y] -= 1;
        } else {
            self.missing[y] += 1;
        }
        self.refresh(y);
        p_w(w)
    }

    /// The next step: about 10% full solves, 35% unaffected, 40%
    /// localized and 15% recomputed deltas of one to four operations.
    pub fn step(&mut self) -> Step {
        let r = self.rng.unit();
        if r < 0.10 {
            return Step::Solve {
                expected: self.certain(),
            };
        }
        let rung = if r < 0.45 {
            Rung::Unaffected
        } else if r < 0.85 {
            Rung::Localized
        } else {
            Rung::Recomputed
        };
        let ops = 1 + self.rng.below(4);
        let mut delta = Delta::new();
        while delta.len() < ops {
            let room = ops - delta.len();
            match rung {
                Rung::Unaffected => self.unaffected_op(&mut delta),
                Rung::Localized => self.localized_op(&mut delta),
                Rung::Recomputed => self.recomputed_op(&mut delta, room),
            }
        }
        Step::Delta {
            delta,
            rung,
            expected: self.certain(),
        }
    }

    /// Replaces a `Z` fact or an `N(d_k, ·)` fact with a fresh one: edits
    /// nothing the plan reads, and keeps the instance size steady.
    fn unaffected_op(&mut self, delta: &mut Delta) {
        if self.rng.chance(0.5) && self.z.len() > 0 {
            let old = self.z.pick(&mut self.rng);
            self.z.remove(old);
            delta.remove(z_fact(old));
            let new = self.next_z;
            self.next_z += 1;
            self.z.insert(new);
            delta.insert(z_fact(new));
        } else if self.noise.len() > 0 {
            let old = self.noise.pick(&mut self.rng);
            self.noise.remove(old);
            delta.remove(n_noise(self.noise_key[old], self.noise_y[old]));
            let new = self.noise_key.len();
            self.noise_key.push(self.noise_key[old]);
            self.noise_y.push(self.rng.below(self.ws.len()));
            self.noise.insert(new);
            delta.insert(n_noise(self.noise_key[new], self.noise_y[new]));
        } else {
            let new = self.next_z;
            self.next_z += 1;
            self.z.insert(new);
            delta.insert(z_fact(new));
        }
    }

    /// Moves a chain into or out of the `N('c',·)` block, towards the
    /// initial block size, so the cost of a full solve does not drift over
    /// a run. While the instance is not certain, half of the removals take
    /// a broken chain out, so the verdict keeps changing in both
    /// directions.
    fn localized_op(&mut self, delta: &mut Delta) {
        let remove = if self.spare.len() == 0 {
            true
        } else if self.in_block.len() <= 1 {
            false
        } else {
            match self.in_block.len().cmp(&self.block_target) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Less => false,
                std::cmp::Ordering::Equal => self.rng.chance(0.5),
            }
        };
        if remove {
            let y = if self.broken_in_block.len() > 0 && self.rng.chance(0.5) {
                self.broken_in_block.pick(&mut self.rng)
            } else {
                self.in_block.pick(&mut self.rng)
            };
            self.set_in_block(y, false);
            delta.remove(n_c(y));
        } else {
            let y = self.spare.pick(&mut self.rng);
            self.set_in_block(y, true);
            delta.insert(n_c(y));
        }
    }

    /// Edits the `M`/`P`/`Q` side of a chain in the block, which forces a
    /// full re-answer: adds a whole `w` (`M`, `Q` and `P` facts, when `room`
    /// allows three operations), drops one `M` fact from a block of two, or
    /// — most often — toggles a `P(w)`. While broken chains exist, most
    /// toggles repair one.
    fn recomputed_op(&mut self, delta: &mut Delta, room: usize) {
        let r = self.rng.unit();
        if r < 0.2 && room >= 3 {
            let y = self.in_block.pick(&mut self.rng);
            let w = self.owner.len();
            self.owner.push(y);
            self.p_present.push(true);
            self.ws[y].push(w);
            delta.insert(m_fact(y, w));
            delta.insert(fact("Q", &[format!("w{w}")]));
            delta.insert(p_w(w));
            return;
        }
        if r < 0.4 {
            let y = self.in_block.pick(&mut self.rng);
            if self.ws[y].len() >= 2 {
                let i = self.rng.below(self.ws[y].len());
                let w = self.ws[y].swap_remove(i);
                if !self.p_present[w] {
                    self.missing[y] -= 1;
                    self.refresh(y);
                }
                delta.remove(m_fact(y, w));
                return;
            }
        }
        let w = if self.broken_in_block.len() > 0 && self.rng.chance(0.6) {
            let y = self.broken_in_block.pick(&mut self.rng);
            *self.ws[y]
                .iter()
                .find(|&&w| !self.p_present[w])
                .expect("a broken chain misses a P fact")
        } else {
            let y = self.in_block.pick(&mut self.rng);
            self.ws[y][self.rng.below(self.ws[y].len())]
        };
        let f = self.toggle_p(w);
        if self.p_present[w] {
            delta.insert(f);
        } else {
            delta.remove(f);
        }
    }
}
