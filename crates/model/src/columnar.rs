//! Columnar relation storage: a read-optimized projection of one
//! relation's rows.
//!
//! The write side of the fact store stays row-oriented — [`crate::instance`]
//! maintains a dense row table plus a key→rows hash map with O(1)
//! insert/remove patching (PR 6's epoch protocol). A [`ColumnarRelation`] is
//! the *read-optimized* projection of that table: one contiguous `Vec<Cst>`
//! per attribute position, with the rows globally key-sorted so every
//! primary-key block is a contiguous range. It is built lazily on first
//! demand and invalidated by any mutation of its relation, so steady-state
//! read workloads (scans, semijoin builds) pay the sort once.
//!
//! What the layout buys:
//!
//! * **column scans** — predicate evaluation over one position touches a
//!   single contiguous slice instead of striding across boxed row
//!   allocations ([`ColumnarRelation::column`]);
//! * **blocks as ranges** — a block is `rows[start..end]` of the sorted
//!   order, so a block scan reads contiguous column ranges and a key probe
//!   is a binary search ([`ColumnarRelation::block_range`]);
//! * **deterministic order** — the sorted projection is canonical
//!   regardless of the mutation history that produced the row table, which
//!   makes two projections comparable with `==`.

use crate::intern::Cst;
use std::ops::Range;

/// A key-sorted, column-major projection of one relation's rows. See the
/// module docs for the storage contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnarRelation {
    key_len: usize,
    arity: usize,
    n_rows: usize,
    /// One column per attribute position; `cols[p][i]` is position `p` of
    /// the `i`-th row in key-sorted order.
    cols: Vec<Vec<Cst>>,
    /// `(block key, start row)` in ascending key order; a block's rows are
    /// `start..next start` (or `..n_rows` for the last block).
    blocks: Vec<(Box<[Cst]>, u32)>,
}

impl ColumnarRelation {
    /// Builds the projection from a row table in arbitrary order. Rows are
    /// sorted lexicographically (the key is a prefix, so blocks come out
    /// contiguous and internally sorted); duplicate rows are kept as-is —
    /// the row store already deduplicates.
    pub fn from_rows(key_len: usize, arity: usize, rows: &[Box<[Cst]>]) -> ColumnarRelation {
        debug_assert!(key_len <= arity, "key is a prefix of the row");
        let mut order: Vec<u32> = (0..u32::try_from(rows.len()).expect("row count fits in u32"))
            .collect();
        order.sort_unstable_by(|&a, &b| rows[a as usize].cmp(&rows[b as usize]));
        let mut cols: Vec<Vec<Cst>> = vec![Vec::with_capacity(rows.len()); arity];
        let mut blocks: Vec<(Box<[Cst]>, u32)> = Vec::new();
        for (i, &src) in order.iter().enumerate() {
            let row = &rows[src as usize];
            debug_assert_eq!(row.len(), arity, "uniform arity");
            for (p, &c) in row.iter().enumerate() {
                cols[p].push(c);
            }
            let key = &row[..key_len];
            if blocks.last().is_none_or(|(k, _)| &**k != key) {
                blocks.push((key.into(), i as u32));
            }
        }
        ColumnarRelation {
            key_len,
            arity,
            n_rows: rows.len(),
            cols,
            blocks,
        }
    }

    /// The primary-key length.
    pub fn key_len(&self) -> usize {
        self.key_len
    }

    /// The relation's arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Whether the projection holds no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// The number of (non-empty) blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The contiguous column of attribute position `p` — the borrowed
    /// column slice served through [`crate::view::FactSource::columnar`].
    pub fn column(&self, p: usize) -> &[Cst] {
        &self.cols[p]
    }

    /// The value at attribute position `p` of the `i`-th row in key-sorted
    /// order.
    pub fn value(&self, p: usize, i: usize) -> Cst {
        self.cols[p][i]
    }

    /// The blocks as `(key, row range)` pairs in ascending key order; each
    /// range indexes the sorted row order shared by every column.
    pub fn blocks(&self) -> impl Iterator<Item = (&[Cst], Range<usize>)> + '_ {
        self.blocks.iter().enumerate().map(|(b, (key, start))| {
            let end = self
                .blocks
                .get(b + 1)
                .map_or(self.n_rows, |&(_, s)| s as usize);
            (&**key, *start as usize..end)
        })
    }

    /// The row range of the block with this key — a binary search over the
    /// sorted block directory. `None` when no row has the key.
    pub fn block_range(&self, key: &[Cst]) -> Option<Range<usize>> {
        let b = self
            .blocks
            .binary_search_by(|(k, _)| (**k).cmp(key))
            .ok()?;
        let start = self.blocks[b].1 as usize;
        let end = self
            .blocks
            .get(b + 1)
            .map_or(self.n_rows, |&(_, s)| s as usize);
        Some(start..end)
    }

    /// Copies the `i`-th row (in key-sorted order) into `buf`.
    pub fn copy_row_into(&self, i: usize, buf: &mut Vec<Cst>) {
        buf.clear();
        buf.extend(self.cols.iter().map(|c| c[i]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(names: &[&str]) -> Box<[Cst]> {
        names.iter().map(|n| Cst::new(n)).collect()
    }

    fn sample() -> ColumnarRelation {
        // Arbitrary physical order; key_len = 1.
        let rows = vec![
            row(&["b", "1"]),
            row(&["a", "2"]),
            row(&["c", "9"]),
            row(&["a", "1"]),
            row(&["b", "7"]),
        ];
        ColumnarRelation::from_rows(1, 2, &rows)
    }

    #[test]
    fn columns_are_key_sorted_and_aligned() {
        let c = sample();
        assert_eq!(c.n_rows(), 5);
        assert_eq!(c.arity(), 2);
        assert_eq!(c.column(0).len(), 5);
        assert_eq!(c.column(1).len(), 5);
        // Rows are sorted, so column 0 is non-decreasing.
        let keys = c.column(0);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        // Row reassembly matches a sorted copy of the input.
        let mut buf = Vec::new();
        c.copy_row_into(0, &mut buf);
        assert_eq!(buf.len(), 2);
        assert_eq!(buf[0], c.value(0, 0));
        assert_eq!(buf[1], c.value(1, 0));
    }

    #[test]
    fn blocks_are_contiguous_ranges_covering_all_rows() {
        let c = sample();
        assert_eq!(c.block_count(), 3);
        let mut covered = 0;
        let mut prev_key: Option<Vec<Cst>> = None;
        for (key, range) in c.blocks() {
            assert_eq!(range.start, covered, "blocks are contiguous");
            assert!(!range.is_empty());
            covered = range.end;
            for i in range {
                assert_eq!(&c.column(0)[i..=i], key, "key column matches block key");
            }
            if let Some(p) = &prev_key {
                assert!(p.as_slice() < key, "ascending key order");
            }
            prev_key = Some(key.to_vec());
        }
        assert_eq!(covered, c.n_rows(), "blocks form an exact cover");
    }

    #[test]
    fn block_range_probes() {
        let c = sample();
        let a = c.block_range(&[Cst::new("a")]).unwrap();
        assert_eq!(a.len(), 2);
        let b = c.block_range(&[Cst::new("b")]).unwrap();
        assert_eq!(b.len(), 2);
        let z = c.block_range(&[Cst::new("c")]).unwrap();
        assert_eq!(z.len(), 1);
        assert!(c.block_range(&[Cst::new("missing")]).is_none());
    }

    #[test]
    fn canonical_regardless_of_input_order() {
        let rows1 = vec![row(&["a", "1"]), row(&["b", "2"]), row(&["a", "3"])];
        let mut rows2 = rows1.clone();
        rows2.reverse();
        assert_eq!(
            ColumnarRelation::from_rows(1, 2, &rows1),
            ColumnarRelation::from_rows(1, 2, &rows2)
        );
    }

    #[test]
    fn empty_relation() {
        let c = ColumnarRelation::from_rows(1, 2, &[]);
        assert!(c.is_empty());
        assert_eq!(c.block_count(), 0);
        assert_eq!(c.blocks().count(), 0);
        assert!(c.block_range(&[Cst::new("a")]).is_none());
    }
}
