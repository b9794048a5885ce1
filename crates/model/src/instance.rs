//! Database instances with primary-key *block* indexes.
//!
//! A *block* (paper §3.1) is a maximal set of key-equal facts; repairs with
//! respect to primary keys choose at most one fact per block. The instance
//! keeps, per relation, a map from key prefix to the facts of that block, so
//! block enumeration — the primitive of every CQA algorithm — is direct.

use crate::binding::{Binding, CompiledAtom};
use crate::columnar::ColumnarRelation;
use crate::delta::{Delta, DeltaOp};
use crate::error::ModelError;
use crate::fact::Fact;
use crate::fk::{FkSet, ForeignKey};
use crate::intern::Cst;
use crate::schema::{RelName, Schema, Signature};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Source of per-object instance identities (see [`Instance::uid`]).
static NEXT_UID: AtomicU64 = AtomicU64::new(1);

fn next_uid() -> u64 {
    NEXT_UID.fetch_add(1, Ordering::Relaxed)
}

/// Per-relation fact store with a block index.
#[derive(Clone, Debug, Default)]
struct RelStore {
    rows: BTreeSet<Box<[Cst]>>,
    /// key prefix → rows of the block (kept sorted for determinism).
    blocks: BTreeMap<Box<[Cst]>, BTreeSet<Box<[Cst]>>>,
}

/// A finite set of facts over a schema.
pub struct Instance {
    schema: Arc<Schema>,
    rels: BTreeMap<RelName, RelStore>,
    len: usize,
    /// Generation counter: bumped by every *effective* mutation (an insert
    /// that added a row, a remove that deleted one). Together with
    /// [`Instance::uid`] this lets long-lived consumers (incremental
    /// solvers, cached plans) detect staleness with two integer compares.
    epoch: u64,
    /// Process-unique object identity. A [`Clone`] gets a **fresh** uid, so
    /// `(uid, epoch)` pins one mutation history of one object: equal pairs
    /// guarantee the observer has seen every mutation.
    uid: u64,
    /// Lazily built secondary indexes ([`InstanceIndex`]); **patched in
    /// place** by [`Instance::insert`]/[`Instance::remove`] once built
    /// (O(1) amortized per fact), never discarded wholesale. Cloning an
    /// instance clones the cache — it is a pure function of the rows, so a
    /// clone's cache is equally valid.
    cache: OnceLock<InstanceIndex>,
}

impl Clone for Instance {
    fn clone(&self) -> Instance {
        Instance {
            schema: self.schema.clone(),
            rels: self.rels.clone(),
            len: self.len,
            epoch: self.epoch,
            uid: next_uid(),
            cache: self.cache.clone(),
        }
    }
}

impl Instance {
    /// Creates an empty instance.
    pub fn new(schema: Arc<Schema>) -> Instance {
        Instance {
            schema,
            rels: BTreeMap::new(),
            len: 0,
            epoch: 0,
            uid: next_uid(),
            cache: OnceLock::new(),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The mutation generation: strictly increases with every effective
    /// [`Instance::insert`]/[`Instance::remove`]. No-op mutations (duplicate
    /// insert, absent remove) leave it unchanged.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// This object's process-unique identity; a clone gets a fresh one.
    /// `(uid(), epoch())` together identify one state of one object.
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// Inserts a fact; returns `Ok(true)` if it was new.
    pub fn insert(&mut self, fact: Fact) -> Result<bool, ModelError> {
        let sig = self.schema.expect(fact.rel)?;
        if fact.arity() != sig.arity {
            return Err(ModelError::ArityMismatch {
                rel: fact.rel,
                expected: sig.arity,
                got: fact.arity(),
            });
        }
        let store = self.rels.entry(fact.rel).or_default();
        let key: Box<[Cst]> = fact.key(sig).into();
        if store.rows.insert(fact.args.clone()) {
            store.blocks.entry(key).or_default().insert(fact.args.clone());
            self.len += 1;
            self.epoch += 1;
            if let Some(idx) = self.cache.get_mut() {
                idx.apply_insert(fact.rel, sig, fact.args);
            }
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Convenience: inserts `rel(args…)` by name.
    pub fn insert_named(&mut self, rel: &str, args: &[&str]) -> Result<bool, ModelError> {
        self.insert(Fact::from_names(rel, args))
    }

    /// Removes a fact; returns `Ok(true)` if it was present. Validation is
    /// symmetric with [`Instance::insert`]: an unknown relation or a
    /// wrong-arity fact for a known relation is an error, not a silent
    /// `false` (which would be indistinguishable from "not present").
    pub fn remove(&mut self, fact: &Fact) -> Result<bool, ModelError> {
        let sig = self.schema.expect(fact.rel)?;
        if fact.arity() != sig.arity {
            return Err(ModelError::ArityMismatch {
                rel: fact.rel,
                expected: sig.arity,
                got: fact.arity(),
            });
        }
        let Some(store) = self.rels.get_mut(&fact.rel) else {
            return Ok(false);
        };
        if store.rows.remove(&fact.args) {
            let key: Box<[Cst]> = fact.key(sig).into();
            if let Some(block) = store.blocks.get_mut(&key) {
                block.remove(&fact.args);
                if block.is_empty() {
                    store.blocks.remove(&key);
                }
            }
            self.len -= 1;
            self.epoch += 1;
            if let Some(idx) = self.cache.get_mut() {
                idx.apply_remove(fact.rel, &fact.args);
            }
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Applies an ordered batch of mutations. Every operation is validated
    /// against the schema (known relation, matching arity) **before** any is
    /// applied, so a malformed batch leaves the instance untouched. Returns
    /// the number of *effective* operations (inserts that added a row,
    /// removes that deleted one); the epoch advances by exactly that many.
    pub fn apply(&mut self, delta: &Delta) -> Result<usize, ModelError> {
        for op in delta.ops() {
            let fact = op.fact();
            let sig = self.schema.expect(fact.rel)?;
            if fact.arity() != sig.arity {
                return Err(ModelError::ArityMismatch {
                    rel: fact.rel,
                    expected: sig.arity,
                    got: fact.arity(),
                });
            }
        }
        let mut effective = 0;
        for op in delta.ops() {
            let changed = match op {
                DeltaOp::Insert(f) => self.insert(f.clone())?,
                DeltaOp::Remove(f) => self.remove(f)?,
            };
            effective += usize::from(changed);
        }
        Ok(effective)
    }

    /// Whether the instance contains `fact`.
    pub fn contains(&self, fact: &Fact) -> bool {
        self.rels
            .get(&fact.rel)
            .map(|s| s.rows.contains(&fact.args))
            .unwrap_or(false)
    }

    /// Total number of facts.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the instance has no facts.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// All facts, in canonical order.
    pub fn facts(&self) -> impl Iterator<Item = Fact> + '_ {
        self.rels.iter().flat_map(|(rel, store)| {
            store.rows.iter().map(move |row| Fact::new(*rel, row.clone()))
        })
    }

    /// Facts of one relation, in canonical order.
    pub fn facts_of(&self, rel: RelName) -> impl Iterator<Item = Fact> + '_ {
        self.rels
            .get(&rel)
            .into_iter()
            .flat_map(move |store| store.rows.iter().map(move |row| Fact::new(rel, row.clone())))
    }

    /// Number of facts of one relation.
    pub fn count_of(&self, rel: RelName) -> usize {
        self.rels.get(&rel).map(|s| s.rows.len()).unwrap_or(0)
    }

    /// The block `R(⃗a, ∗)`: all facts of `rel` with key prefix `key`.
    pub fn block(&self, rel: RelName, key: &[Cst]) -> Vec<Fact> {
        match self.rels.get(&rel) {
            Some(store) => store
                .blocks
                .get(key)
                .map(|rows| rows.iter().map(|r| Fact::new(rel, r.clone())).collect())
                .unwrap_or_default(),
            None => Vec::new(),
        }
    }

    /// `block(A, db)`: the block containing `fact` (empty if absent relation).
    pub fn block_of(&self, fact: &Fact) -> Vec<Fact> {
        match self.schema.signature(fact.rel) {
            Some(sig) => self.block(fact.rel, fact.key(sig)),
            None => Vec::new(),
        }
    }

    /// All blocks of `rel` as `(key, facts)` pairs, in canonical order.
    pub fn blocks(&self, rel: RelName) -> Vec<(Box<[Cst]>, Vec<Fact>)> {
        match self.rels.get(&rel) {
            Some(store) => store
                .blocks
                .iter()
                .map(|(k, rows)| {
                    (
                        k.clone(),
                        rows.iter().map(|r| Fact::new(rel, r.clone())).collect(),
                    )
                })
                .collect(),
            None => Vec::new(),
        }
    }

    /// Relations with at least one fact.
    pub fn populated_relations(&self) -> impl Iterator<Item = RelName> + '_ {
        self.rels
            .iter()
            .filter(|(_, s)| !s.rows.is_empty())
            .map(|(r, _)| *r)
    }

    /// The lazily built secondary indexes over this instance: cached active
    /// domain, key constants, and per-relation hash indexes for block
    /// lookups and full-fact membership. Built on first use; once built,
    /// every successful [`Instance::insert`]/[`Instance::remove`] patches it
    /// in place (O(1) amortized per fact) instead of discarding it.
    pub fn index(&self) -> &InstanceIndex {
        self.cache.get_or_init(|| InstanceIndex::build(self))
    }

    /// Builds a fresh [`InstanceIndex`] from scratch, bypassing (and not
    /// touching) the cached one. This is the differential-testing oracle for
    /// the incremental maintenance in [`Instance::insert`]/
    /// [`Instance::remove`]: after any mutation trace,
    /// `*db.index() == db.rebuild_index()` must hold.
    pub fn rebuild_index(&self) -> InstanceIndex {
        InstanceIndex::build(self)
    }

    /// `adom(db)`: the active domain, as a cached handle (allocation-free
    /// after the first call; maintained in place across mutations).
    pub fn adom(&self) -> &BTreeSet<Cst> {
        &self.index().adom.set
    }

    /// `keyconst(db)`: constants appearing at some primary-key position
    /// (paper Appendix B). Cached alongside [`Instance::adom`].
    pub fn key_consts(&self) -> &BTreeSet<Cst> {
        &self.index().key_consts.set
    }

    /// A constant is *orphan* in `db` if it occurs exactly once, at a
    /// non-primary-key position (paper Appendix A).
    pub fn is_orphan_const(&self, c: Cst) -> bool {
        let mut occurrences = 0usize;
        let mut at_nonkey = false;
        for (rel, store) in &self.rels {
            let sig = self.schema.signature(*rel).expect("validated on insert");
            for row in &store.rows {
                for (i, &a) in row.iter().enumerate() {
                    if a == c {
                        occurrences += 1;
                        if occurrences > 1 {
                            return false;
                        }
                        at_nonkey = i + 1 > sig.key_len;
                    }
                }
            }
        }
        occurrences == 1 && at_nonkey
    }

    /// Whether the instance satisfies all primary keys (no two distinct
    /// key-equal facts).
    pub fn satisfies_pk(&self) -> bool {
        self.rels
            .values()
            .all(|s| s.blocks.values().all(|b| b.len() <= 1))
    }

    /// The blocks violating a primary key, as `(rel, key)` pairs.
    pub fn pk_violations(&self) -> Vec<(RelName, Box<[Cst]>)> {
        let mut out = Vec::new();
        for (rel, store) in &self.rels {
            for (key, rows) in &store.blocks {
                if rows.len() > 1 {
                    out.push((*rel, key.clone()));
                }
            }
        }
        out
    }

    /// Whether `fact` is dangling in this instance with respect to `fk`
    /// (paper §3.2): no `S`-fact whose key equals the fact's `i`-th value.
    pub fn is_dangling(&self, fact: &Fact, fk: &ForeignKey) -> bool {
        if fact.rel != fk.from {
            return false;
        }
        let Some(v) = fact.arg_at(fk.pos) else {
            return true;
        };
        self.block(fk.to, &[v]).is_empty()
    }

    /// Whether `fact` is dangling with respect to *some* key of `fks`.
    pub fn is_dangling_any(&self, fact: &Fact, fks: &FkSet) -> bool {
        fks.iter().any(|fk| self.is_dangling(fact, fk))
    }

    /// All dangling facts with respect to `fks`.
    pub fn dangling_facts(&self, fks: &FkSet) -> Vec<Fact> {
        self.facts()
            .filter(|f| self.is_dangling_any(f, fks))
            .collect()
    }

    /// Whether the instance satisfies all foreign keys of `fks`.
    pub fn satisfies_fks(&self, fks: &FkSet) -> bool {
        self.facts().all(|f| !self.is_dangling_any(&f, fks))
    }

    /// Whether the instance is consistent with respect to `PK ∪ FK`.
    pub fn is_consistent(&self, fks: &FkSet) -> bool {
        self.satisfies_pk() && self.satisfies_fks(fks)
    }

    /// `db ∪ other`.
    pub fn union(&self, other: &Instance) -> Instance {
        let mut out = self.clone();
        for f in other.facts() {
            out.insert(f).expect("schemas compatible");
        }
        out
    }

    /// `db ∖ other` as a new instance.
    pub fn difference(&self, other: &Instance) -> Instance {
        let mut out = Instance::new(self.schema.clone());
        for f in self.facts() {
            if !other.contains(&f) {
                out.insert(f).expect("same schema");
            }
        }
        out
    }

    /// `db ⊕ other`: symmetric difference as a fact set.
    pub fn symmetric_difference(&self, other: &Instance) -> BTreeSet<Fact> {
        let mut out: BTreeSet<Fact> = self.facts().filter(|f| !other.contains(f)).collect();
        out.extend(other.facts().filter(|f| !self.contains(f)));
        out
    }

    /// Intersection `db ∩ other` as a new instance.
    pub fn intersection(&self, other: &Instance) -> Instance {
        let mut out = Instance::new(self.schema.clone());
        for f in self.facts() {
            if other.contains(&f) {
                out.insert(f).expect("same schema");
            }
        }
        out
    }

    /// Whether `self ⊆ other` as fact sets.
    pub fn subset_of(&self, other: &Instance) -> bool {
        self.facts().all(|f| other.contains(&f))
    }

    /// `db↾rels`: restriction to facts whose relation is in `keep`.
    pub fn restrict(&self, keep: &BTreeSet<RelName>) -> Instance {
        let mut out = Instance::new(self.schema.clone());
        for f in self.facts() {
            if keep.contains(&f.rel) {
                out.insert(f).expect("same schema");
            }
        }
        out
    }

    /// Builds an instance from facts.
    pub fn from_facts(
        schema: Arc<Schema>,
        facts: impl IntoIterator<Item = Fact>,
    ) -> Result<Instance, ModelError> {
        let mut out = Instance::new(schema);
        for f in facts {
            out.insert(f)?;
        }
        Ok(out)
    }

    /// The signature of `rel` (panics if absent; instances validate inserts).
    pub fn sig(&self, rel: RelName) -> Signature {
        self.schema.signature(rel).expect("validated on insert")
    }
}

/// Per-relation hash indexes: a dense row table plus a key-prefix hash map
/// from block key to row indices. Shared with [`crate::view`], which layers
/// lazy restriction/filtering on top of these handles.
///
/// Row order in `all` (and id order within a block's index list) is
/// **arbitrary**: inserts push at the end and removes swap-remove, so
/// incremental maintenance is O(1) per fact. Consumers that need a
/// deterministic order read the key-sorted columnar projection instead.
#[derive(Clone, Debug)]
pub(crate) struct RelIndex {
    pub(crate) key_len: usize,
    pub(crate) arity: usize,
    /// All rows of the relation, arbitrary order.
    pub(crate) all: Vec<Box<[Cst]>>,
    /// key prefix → indices into `all` (arbitrary order).
    pub(crate) blocks: HashMap<Box<[Cst]>, Vec<u32>>,
    /// Lazily built read-optimized projection of `all`: one column per
    /// position, rows key-sorted so blocks are contiguous ranges. Any
    /// mutation of the relation discards it; the next reader rebuilds.
    columnar: OnceLock<ColumnarRelation>,
}

impl RelIndex {
    /// The columnar projection, built on first demand after a mutation.
    pub(crate) fn columnar(&self) -> &ColumnarRelation {
        self.columnar
            .get_or_init(|| ColumnarRelation::from_rows(self.key_len, self.arity, &self.all))
    }
}

/// A refcounted constant set: the materialized [`BTreeSet`] tracks the keys
/// of the occurrence-count map, so membership survives removes until the
/// *last* occurrence of a constant disappears.
#[derive(Clone, Debug, Default, PartialEq)]
struct CountedSet {
    set: BTreeSet<Cst>,
    counts: HashMap<Cst, u32>,
}

impl CountedSet {
    fn count(&mut self, c: Cst) {
        let n = self.counts.entry(c).or_insert(0);
        *n += 1;
        if *n == 1 {
            self.set.insert(c);
        }
    }

    fn uncount(&mut self, c: Cst) {
        let n = self.counts.get_mut(&c).expect("uncount of counted constant");
        *n -= 1;
        if *n == 0 {
            self.counts.remove(&c);
            self.set.remove(&c);
        }
    }
}

/// Secondary indexes over an [`Instance`], built lazily by
/// [`Instance::index`] and shared by the compiled evaluators:
///
/// * the active domain and key-constant sets, refcounted per occurrence so
///   mutations maintain them exactly (a constant leaves the set only when
///   its last occurrence does);
/// * per-relation row tables with hash-indexed key-prefix blocks, so
///   guarded lookups with a ground key and full-fact membership checks are
///   O(1) hash probes instead of ordered-map walks that clone rows.
///
/// Once built, the index is **patched in place** by every mutation
/// (`apply_insert`/`apply_remove`); `==` compares *structural content*
/// (domains, occurrence counts, blocks as row sets), deliberately ignoring
/// physical row order, which is history-dependent under swap-remove.
#[derive(Clone, Debug)]
pub struct InstanceIndex {
    adom: CountedSet,
    key_consts: CountedSet,
    rels: HashMap<RelName, RelIndex>,
}

impl InstanceIndex {
    fn build(db: &Instance) -> InstanceIndex {
        let mut adom = CountedSet::default();
        let mut key_consts = CountedSet::default();
        let mut rels = HashMap::with_capacity(db.rels.len());
        for (rel, store) in &db.rels {
            let sig = db.schema.signature(*rel).expect("validated on insert");
            let all: Vec<Box<[Cst]>> = store.rows.iter().cloned().collect();
            let mut blocks: HashMap<Box<[Cst]>, Vec<u32>> =
                HashMap::with_capacity(store.blocks.len());
            for (i, row) in all.iter().enumerate() {
                for &c in row.iter() {
                    adom.count(c);
                }
                for &c in &row[..sig.key_len] {
                    key_consts.count(c);
                }
                blocks
                    .entry(row[..sig.key_len].into())
                    .or_default()
                    .push(u32::try_from(i).expect("row count fits in u32"));
            }
            rels.insert(
                *rel,
                RelIndex {
                    key_len: sig.key_len,
                    arity: sig.arity,
                    all,
                    blocks,
                    columnar: OnceLock::new(),
                },
            );
        }
        InstanceIndex {
            adom,
            key_consts,
            rels,
        }
    }

    /// Patches the index for a row that was just added to the instance
    /// (caller guarantees it was not present): push to the dense table,
    /// append its id to the block, count its constants.
    fn apply_insert(&mut self, rel: RelName, sig: Signature, row: Box<[Cst]>) {
        for &c in row.iter() {
            self.adom.count(c);
        }
        for &c in &row[..sig.key_len] {
            self.key_consts.count(c);
        }
        let r = self.rels.entry(rel).or_insert_with(|| RelIndex {
            key_len: sig.key_len,
            arity: sig.arity,
            all: Vec::new(),
            blocks: HashMap::new(),
            columnar: OnceLock::new(),
        });
        r.columnar.take();
        let id = u32::try_from(r.all.len()).expect("row count fits in u32");
        r.blocks.entry(row[..sig.key_len].into()).or_default().push(id);
        r.all.push(row);
    }

    /// Patches the index for a row that was just removed from the instance
    /// (caller guarantees it was present): uncount its constants, drop its
    /// id from the block (erasing an emptied block), swap-remove it from the
    /// dense table and re-point the row that moved into its slot.
    fn apply_remove(&mut self, rel: RelName, row: &[Cst]) {
        for &c in row {
            self.adom.uncount(c);
        }
        let r = self.rels.get_mut(&rel).expect("indexed relation");
        r.columnar.take();
        for &c in &row[..r.key_len] {
            self.key_consts.uncount(c);
        }
        let ids = r.blocks.get_mut(&row[..r.key_len]).expect("row's block indexed");
        let pos = ids
            .iter()
            .position(|&i| &*r.all[i as usize] == row)
            .expect("removed row indexed");
        let id = ids.swap_remove(pos) as usize;
        if ids.is_empty() {
            r.blocks.remove(&row[..r.key_len]);
        }
        let last = r.all.len() - 1;
        r.all.swap_remove(id);
        if id != last {
            // The former last row now lives in slot `id`; re-point the one
            // stale id in its block's index list.
            let moved_key: Box<[Cst]> = r.all[id][..r.key_len].into();
            let ids = r.blocks.get_mut(&moved_key).expect("moved row's block indexed");
            let slot = ids
                .iter_mut()
                .find(|i| **i == u32::try_from(last).expect("row count fits in u32"))
                .expect("moved row's id indexed");
            *slot = u32::try_from(id).expect("row count fits in u32");
        }
    }

    /// Candidate rows for a slot-compiled guard atom under `binding`: the
    /// hash-indexed block when the primary-key prefix is ground, the full
    /// relation otherwise, and nothing when the relation is unpopulated or
    /// the arity cannot match. `scratch` is a reusable key buffer (cleared
    /// here). Shared by the compiled CQ join and the compiled formula
    /// evaluator — the single place that resolves ground key prefixes.
    pub fn guarded_candidates(
        &self,
        atom: &CompiledAtom,
        binding: &Binding,
        scratch: &mut Vec<Cst>,
    ) -> Candidates<'_> {
        const NONE: Candidates<'static> = Candidates {
            all: &[],
            idxs: Some(&[]),
        };
        let Some(r) = self.rels.get(&atom.rel) else {
            return NONE;
        };
        if r.arity != atom.terms.len() {
            return NONE;
        }
        scratch.clear();
        for &t in &atom.terms[..r.key_len] {
            match binding.resolve(t) {
                Some(c) => scratch.push(c),
                None => {
                    return Candidates {
                        all: &r.all,
                        idxs: None,
                    }
                }
            }
        }
        Candidates {
            all: &r.all,
            idxs: Some(
                r.blocks
                    .get(scratch.as_slice())
                    .map(|v| v.as_slice())
                    .unwrap_or(&[]),
            ),
        }
    }

    /// The cached active domain.
    pub fn adom_set(&self) -> &BTreeSet<Cst> {
        &self.adom.set
    }

    /// The cached set of constants occurring in key positions.
    pub fn key_consts_set(&self) -> &BTreeSet<Cst> {
        &self.key_consts.set
    }

    /// The per-relation index handles (for [`crate::view::InstanceView`]).
    pub(crate) fn rel(&self, rel: RelName) -> Option<&RelIndex> {
        self.rels.get(&rel)
    }

    /// The key-sorted columnar projection of `rel`, built lazily from the
    /// row table on first demand (and rebuilt after any mutation of the
    /// relation, which invalidates the cached projection). `None` when the
    /// relation has never held a row.
    pub fn columnar(&self, rel: RelName) -> Option<&ColumnarRelation> {
        self.rels.get(&rel).map(RelIndex::columnar)
    }

    /// Hash-indexed full-fact membership: probes the block of the row's key
    /// prefix, then compares within the (small) block.
    pub fn contains(&self, rel: RelName, args: &[Cst]) -> bool {
        let Some(r) = self.rels.get(&rel) else {
            return false;
        };
        if args.len() != r.arity {
            return false;
        }
        match r.blocks.get(&args[..r.key_len]) {
            Some(idxs) => idxs.iter().any(|&i| &*r.all[i as usize] == args),
            None => false,
        }
    }

    /// Canonical per-relation content: `(key_len, arity, sorted rows,
    /// block key → sorted rows)`, skipping relations with no rows (an empty
    /// [`RelIndex`] entry is an artifact of mutation history, not content).
    #[allow(clippy::type_complexity)]
    fn canonical_rels(
        &self,
    ) -> BTreeMap<RelName, (usize, usize, Vec<Box<[Cst]>>, BTreeMap<Box<[Cst]>, Vec<Box<[Cst]>>>)>
    {
        self.rels
            .iter()
            .filter(|(_, r)| !r.all.is_empty())
            .map(|(rel, r)| {
                let mut rows = r.all.clone();
                rows.sort_unstable();
                let blocks = r
                    .blocks
                    .iter()
                    .map(|(k, ids)| {
                        let mut b: Vec<Box<[Cst]>> =
                            ids.iter().map(|&i| r.all[i as usize].clone()).collect();
                        b.sort_unstable();
                        (k.clone(), b)
                    })
                    .collect();
                (*rel, (r.key_len, r.arity, rows, blocks))
            })
            .collect()
    }
}

/// Structural equality: domains, occurrence counts, and per-relation block
/// content must match; physical row order (which is history-dependent under
/// swap-remove maintenance) is canonicalized away. This is what the
/// incremental-vs-rebuild differential tests compare.
impl PartialEq for InstanceIndex {
    fn eq(&self, other: &Self) -> bool {
        self.adom == other.adom
            && self.key_consts == other.key_consts
            && self.canonical_rels() == other.canonical_rels()
    }
}

impl Eq for InstanceIndex {}

/// A candidate row set from `InstanceIndex::candidates`: either one block
/// or a whole relation, borrowed — no rows are cloned.
#[derive(Clone, Copy, Debug)]
pub struct Candidates<'a> {
    all: &'a [Box<[Cst]>],
    /// `Some(indices into all)` for a block, `None` for the full relation.
    idxs: Option<&'a [u32]>,
}

impl<'a> Candidates<'a> {
    /// A candidate set over `all`, optionally narrowed to the given row
    /// indices (used by [`crate::view::InstanceView`] to present filtered
    /// row sets without copying rows).
    pub(crate) fn from_parts(all: &'a [Box<[Cst]>], idxs: Option<&'a [u32]>) -> Candidates<'a> {
        Candidates { all, idxs }
    }

    /// The empty candidate set.
    pub(crate) fn none() -> Candidates<'static> {
        Candidates {
            all: &[],
            idxs: Some(&[]),
        }
    }
    /// Number of candidate rows.
    pub fn len(&self) -> usize {
        match self.idxs {
            Some(ix) => ix.len(),
            None => self.all.len(),
        }
    }

    /// Whether there are no candidates.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates the candidate rows.
    pub fn iter(&self) -> CandidateIter<'a> {
        CandidateIter {
            cands: *self,
            pos: 0,
        }
    }
}

impl<'a> IntoIterator for Candidates<'a> {
    type Item = &'a [Cst];
    type IntoIter = CandidateIter<'a>;

    fn into_iter(self) -> CandidateIter<'a> {
        CandidateIter {
            cands: self,
            pos: 0,
        }
    }
}

/// Iterator over [`Candidates`].
#[derive(Clone, Debug)]
pub struct CandidateIter<'a> {
    cands: Candidates<'a>,
    pos: usize,
}

impl<'a> Iterator for CandidateIter<'a> {
    type Item = &'a [Cst];

    fn next(&mut self) -> Option<&'a [Cst]> {
        let row = match self.cands.idxs {
            Some(ix) => &*self.cands.all[*ix.get(self.pos)? as usize],
            None => &**self.cands.all.get(self.pos)?,
        };
        self.pos += 1;
        Some(row)
    }
}

impl PartialEq for Instance {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.subset_of(other)
    }
}

impl Eq for Instance {}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, fact) in self.facts().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{fact}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Arc<Schema> {
        let mut s = Schema::new();
        s.add("R", 2, 1).unwrap();
        s.add("S", 2, 1).unwrap();
        Arc::new(s)
    }

    fn db() -> Instance {
        let mut db = Instance::new(schema());
        db.insert_named("R", &["a", "1"]).unwrap();
        db.insert_named("R", &["a", "2"]).unwrap();
        db.insert_named("R", &["b", "1"]).unwrap();
        db.insert_named("S", &["1", "x"]).unwrap();
        db
    }

    #[test]
    fn insert_dedup_and_len() {
        let mut db = db();
        assert_eq!(db.len(), 4);
        assert!(!db.insert_named("R", &["a", "1"]).unwrap());
        assert_eq!(db.len(), 4);
        assert!(db.contains(&Fact::from_names("R", &["a", "1"])));
    }

    #[test]
    fn arity_validated() {
        let mut db = db();
        assert!(matches!(
            db.insert_named("R", &["a"]),
            Err(ModelError::ArityMismatch { .. })
        ));
        assert!(db.insert_named("Zzz", &["a"]).is_err());
    }

    #[test]
    fn blocks_and_block_of() {
        let db = db();
        let block = db.block(RelName::new("R"), &[Cst::new("a")]);
        assert_eq!(block.len(), 2);
        let blocks = db.blocks(RelName::new("R"));
        assert_eq!(blocks.len(), 2);
        let b = db.block_of(&Fact::from_names("R", &["a", "1"]));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn pk_violation_detection() {
        let db = db();
        assert!(!db.satisfies_pk());
        let v = db.pk_violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].0, RelName::new("R"));

        let mut clean = Instance::new(schema());
        clean.insert_named("R", &["a", "1"]).unwrap();
        clean.insert_named("R", &["b", "1"]).unwrap();
        assert!(clean.satisfies_pk());
    }

    #[test]
    fn dangling_detection() {
        let db = db();
        let fk = ForeignKey::from_names("R", 2, "S");
        // R(a,1) references S(1,·) which exists; R(a,2) dangles.
        assert!(!db.is_dangling(&Fact::from_names("R", &["a", "1"]), &fk));
        assert!(db.is_dangling(&Fact::from_names("R", &["a", "2"]), &fk));
        let fks = FkSet::new(schema(), vec![fk]).unwrap();
        let dangling = db.dangling_facts(&fks);
        assert_eq!(dangling.len(), 1);
        assert!(!db.satisfies_fks(&fks));
    }

    #[test]
    fn set_operations() {
        let db = db();
        let mut other = Instance::new(schema());
        other.insert_named("R", &["a", "1"]).unwrap();
        other.insert_named("S", &["9", "z"]).unwrap();

        let inter = db.intersection(&other);
        assert_eq!(inter.len(), 1);

        let diff = db.difference(&other);
        assert_eq!(diff.len(), 3);

        let sym = db.symmetric_difference(&other);
        assert_eq!(sym.len(), 4); // 3 only-in-db + 1 only-in-other

        let uni = db.union(&other);
        assert_eq!(uni.len(), 5);
        assert!(db.subset_of(&uni));
        assert!(!uni.subset_of(&db));
    }

    #[test]
    fn adom_and_key_consts() {
        let db = db();
        assert!(db.adom().contains(&Cst::new("x")));
        let kc = db.key_consts();
        assert!(kc.contains(&Cst::new("a")));
        assert!(kc.contains(&Cst::new("1"))); // S's key
        assert!(!kc.contains(&Cst::new("x")));
    }

    #[test]
    fn orphan_constants() {
        let db = db();
        // "x" occurs once at a non-key position of S.
        assert!(db.is_orphan_const(Cst::new("x")));
        // "1" occurs three times.
        assert!(!db.is_orphan_const(Cst::new("1")));
        // "b" occurs once but at a key position.
        assert!(!db.is_orphan_const(Cst::new("b")));
    }

    #[test]
    fn restriction() {
        let db = db();
        let r = db.restrict(&[RelName::new("S")].into_iter().collect());
        assert_eq!(r.len(), 1);
        assert_eq!(r.count_of(RelName::new("R")), 0);
    }

    #[test]
    fn remove() {
        let mut db = db();
        assert!(db.remove(&Fact::from_names("R", &["a", "2"])).unwrap());
        assert!(!db.remove(&Fact::from_names("R", &["a", "2"])).unwrap());
        assert_eq!(db.len(), 3);
        assert_eq!(db.block(RelName::new("R"), &[Cst::new("a")]).len(), 1);
        assert!(db.satisfies_pk());
    }

    #[test]
    fn remove_arity_validated_like_insert() {
        // Regression: remove used to silently return false on a wrong-arity
        // fact for a known relation, asymmetric with insert.
        let mut db = db();
        assert!(matches!(
            db.remove(&Fact::from_names("R", &["a"])),
            Err(ModelError::ArityMismatch { .. })
        ));
        assert!(db.remove(&Fact::from_names("Zzz", &["a"])).is_err());
        assert_eq!(db.len(), 4, "failed removes must not mutate");
    }

    #[test]
    fn epoch_counts_effective_mutations() {
        let mut db = db();
        let e0 = db.epoch();
        assert!(!db.insert_named("R", &["a", "1"]).unwrap());
        assert!(!db.remove(&Fact::from_names("R", &["zz", "zz"])).unwrap());
        assert_eq!(db.epoch(), e0, "no-ops leave the epoch unchanged");
        db.insert_named("R", &["c", "9"]).unwrap();
        assert_eq!(db.epoch(), e0 + 1);
        db.remove(&Fact::from_names("R", &["c", "9"])).unwrap();
        assert_eq!(db.epoch(), e0 + 2);
        // A clone keeps the epoch but gets a fresh identity.
        let twin = db.clone();
        assert_eq!(twin.epoch(), db.epoch());
        assert_ne!(twin.uid(), db.uid());
    }

    #[test]
    fn index_is_patched_in_place() {
        let mut db = db();
        db.index(); // force the build, then mutate through the patch path
        db.insert_named("S", &["7", "q"]).unwrap();
        db.remove(&Fact::from_names("R", &["a", "1"])).unwrap();
        db.remove(&Fact::from_names("S", &["1", "x"])).unwrap();
        db.insert_named("R", &["a", "1"]).unwrap();
        assert_eq!(*db.index(), db.rebuild_index());
        assert!(db.adom().contains(&Cst::new("q")));
        assert!(!db.adom().contains(&Cst::new("x")), "adom must shrink");
        // Emptied relation: the S-block of key 1 is gone.
        assert!(db.block(RelName::new("S"), &[Cst::new("1")]).is_empty());
    }

    #[test]
    fn columnar_projection_tracks_mutations() {
        let mut db = db();
        let r = RelName::new("R");
        let col = db.index().columnar(r).unwrap();
        assert_eq!(col.n_rows(), 3);
        assert_eq!(col.block_count(), 2);
        // Key column is sorted; blocks cover every row exactly once.
        assert!(col.column(0).windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(col.blocks().map(|(_, r)| r.len()).sum::<usize>(), 3);

        // A mutation through the in-place patch path invalidates the
        // projection; the rebuilt one reflects the new rows.
        db.insert_named("R", &["c", "5"]).unwrap();
        let col = db.index().columnar(r).unwrap();
        assert_eq!(col.n_rows(), 4);
        assert_eq!(col.block_count(), 3);
        db.remove(&Fact::from_names("R", &["a", "1"])).unwrap();
        db.remove(&Fact::from_names("R", &["a", "2"])).unwrap();
        let col = db.index().columnar(r).unwrap();
        assert_eq!(col.n_rows(), 2);
        assert!(col.block_range(&[Cst::new("a")]).is_none());
        // The projection is canonical: equal to one built from scratch.
        let rebuilt = db.rebuild_index();
        assert_eq!(*col, *rebuilt.columnar(r).unwrap());
    }

    #[test]
    fn apply_delta_is_validated_and_counted() {
        use crate::delta::Delta;
        let mut db = db();
        let mut delta = Delta::new();
        delta
            .remove(Fact::from_names("R", &["a", "2"]))
            .insert(Fact::from_names("S", &["2", "y"]))
            .insert(Fact::from_names("S", &["2", "y"])); // duplicate: no-op
        let e0 = db.epoch();
        assert_eq!(db.apply(&delta).unwrap(), 2);
        assert_eq!(db.epoch(), e0 + 2);
        assert!(db.contains(&Fact::from_names("S", &["2", "y"])));

        // A malformed op anywhere aborts the whole batch untouched.
        let mut bad = Delta::new();
        bad.insert(Fact::from_names("S", &["3", "z"]))
            .remove(Fact::from_names("R", &["only-one"]));
        let before = db.clone();
        assert!(db.apply(&bad).is_err());
        assert_eq!(db, before);
        assert_eq!(db.epoch(), e0 + 2);
    }

    #[test]
    fn equality_is_setwise() {
        let a = db();
        let mut b = Instance::new(schema());
        // insert in a different order
        b.insert_named("S", &["1", "x"]).unwrap();
        b.insert_named("R", &["b", "1"]).unwrap();
        b.insert_named("R", &["a", "2"]).unwrap();
        b.insert_named("R", &["a", "1"]).unwrap();
        assert_eq!(a, b);
    }
}
