//! Concurrency stress tests for the lazily built [`Instance::index`]:
//! batch workers and serve connections share `&Instance` across threads
//! that may all take the *first* look at a fresh instance simultaneously, so the
//! `OnceLock` cache behind `index()` must be safe (and stable) under
//! concurrent first-touch, and the index-backed read paths
//! (`guarded_candidates`, `adom`, `contains`) must agree with a
//! sequentially warmed twin.

use cqa_model::{
    Binding, CompiledAtom, Cst, FactSource, Instance, RelName, SlotTerm,
};
use cqa_model::parser::parse_schema;
use std::collections::BTreeSet;
use std::sync::Arc;

const THREADS: usize = 8;
const ROUNDS: usize = 32;

fn fresh_db(round: usize) -> Instance {
    let schema = Arc::new(parse_schema("R[2,1] S[2,1]").unwrap());
    let mut db = Instance::new(schema);
    for i in 0..(8 + round % 5) {
        db.insert_named("R", &[&format!("k{}", i % 4), &format!("v{i}")])
            .unwrap();
        db.insert_named("S", &[&format!("v{i}"), &format!("w{i}")])
            .unwrap();
    }
    db
}

/// What a worker observes through the index: the identity of the cached
/// `InstanceIndex` plus the results of the read paths it backs.
fn probe(db: &Instance) -> (usize, usize, usize, bool) {
    let idx = db.index();
    let identity = idx as *const _ as usize;
    let atom = CompiledAtom {
        rel: RelName::new("R"),
        terms: vec![SlotTerm::Cst(Cst::new("k1")), SlotTerm::Slot(0)],
    };
    let binding = Binding::new(1);
    let mut scratch = Vec::new();
    let block = idx
        .guarded_candidates(&atom, &binding, &mut scratch)
        .len();
    let adom_len = db.adom().len();
    let member = idx.contains(RelName::new("S"), &[Cst::new("v0"), Cst::new("w0")]);
    (identity, block, adom_len, member)
}

#[test]
fn first_touch_of_the_index_is_safe_under_racing_threads() {
    for round in 0..ROUNDS {
        let db = fresh_db(round);
        // A sequentially warmed twin provides the expected observations.
        let twin = db.clone();
        let (_, expected_block, expected_adom, expected_member) = probe(&twin);

        // All threads race the *first* index build of `db`.
        let observations: Vec<(usize, usize, usize, bool)> =
            std::thread::scope(|s| {
                let handles: Vec<_> =
                    (0..THREADS).map(|_| s.spawn(|| probe(&db))).collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });

        let identities: BTreeSet<usize> =
            observations.iter().map(|&(id, ..)| id).collect();
        assert_eq!(
            identities.len(),
            1,
            "round {round}: racing threads must all see the same cached index"
        );
        for (i, &(_, block, adom_len, member)) in observations.iter().enumerate() {
            assert_eq!(block, expected_block, "round {round}, thread {i}: block");
            assert_eq!(adom_len, expected_adom, "round {round}, thread {i}: adom");
            assert_eq!(member, expected_member, "round {round}, thread {i}: contains");
        }
        // The winner's index stayed installed: a later sequential call
        // observes the same cache, not a rebuild.
        assert!(identities.contains(&(db.index() as *const _ as usize)));
    }
}

#[test]
fn racing_view_readers_agree_with_a_sequential_reader() {
    // Workers build per-thread views over one shared instance and read
    // through the FactSource surface while others are doing the same;
    // every observation must match the sequential one.
    let db = fresh_db(0);
    let view = cqa_model::InstanceView::new(&db);
    let atom = CompiledAtom {
        rel: RelName::new("R"),
        terms: vec![SlotTerm::Slot(0), SlotTerm::Slot(1)],
    };
    let binding = Binding::new(2);
    let mut scratch = Vec::new();
    let expected = FactSource::guarded_candidates(&view, &atom, &binding, &mut scratch).len();
    let mut expected_adom = BTreeSet::new();
    view.extend_adom(&mut expected_adom);

    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                let local = view.clone();
                let binding = Binding::new(2);
                let mut scratch = Vec::new();
                assert_eq!(
                    FactSource::guarded_candidates(&local, &atom, &binding, &mut scratch)
                        .len(),
                    expected
                );
                let mut adom = BTreeSet::new();
                local.extend_adom(&mut adom);
                assert_eq!(adom, expected_adom);
            });
        }
    });
}
