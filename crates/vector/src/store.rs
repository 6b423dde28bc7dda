//! [`VecStore`]: a contiguous, row-major store of equal-dimension vectors.
//!
//! A `VecStore` is AlayaDB's in-memory representation of one attention head's
//! key (or value) matrix: row `i` is the vector of token `i`. The storage is
//! a single flat `Vec<f32>`, which gives sequential scans (flat index) their
//! cache-friendly access pattern and makes it trivial to hand rows out as
//! slices to the index builders and attention kernels.

use crate::ops::{dot, dot_many, dot_many_multi, dot_tile, TILE};

/// A growable, row-major matrix of `f32` vectors with fixed dimensionality.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VecStore {
    dim: usize,
    data: Vec<f32>,
}

impl VecStore {
    /// Creates an empty store for vectors of dimensionality `dim`.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "vector dimensionality must be positive");
        Self {
            dim,
            data: Vec::new(),
        }
    }

    /// Creates an empty store pre-allocating room for `capacity` vectors.
    pub fn with_capacity(dim: usize, capacity: usize) -> Self {
        assert!(dim > 0, "vector dimensionality must be positive");
        Self {
            dim,
            data: Vec::with_capacity(dim * capacity),
        }
    }

    /// Builds a store from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of `dim`.
    pub fn from_flat(dim: usize, data: Vec<f32>) -> Self {
        assert!(dim > 0, "vector dimensionality must be positive");
        assert_eq!(
            data.len() % dim,
            0,
            "flat buffer length must be a multiple of dim"
        );
        Self { dim, data }
    }

    /// Vector dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of vectors stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Whether the store holds no vectors.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends one vector; returns its row id.
    ///
    /// # Panics
    /// Panics if `v.len() != self.dim()`.
    #[inline]
    pub fn push(&mut self, v: &[f32]) -> usize {
        assert_eq!(v.len(), self.dim, "pushed vector has wrong dimensionality");
        let id = self.len();
        self.data.extend_from_slice(v);
        id
    }

    /// Appends every row of `other`. Dimensions must match.
    pub fn extend_from(&mut self, other: &VecStore) {
        assert_eq!(self.dim, other.dim, "dimensionality mismatch");
        self.data.extend_from_slice(&other.data);
    }

    /// Borrows row `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        let start = i * self.dim;
        &self.data[start..start + self.dim]
    }

    /// Mutably borrows row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        let start = i * self.dim;
        &mut self.data[start..start + self.dim]
    }

    /// Iterates over all rows in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[f32]> + '_ {
        self.data.chunks_exact(self.dim)
    }

    /// The underlying flat row-major buffer.
    #[inline]
    pub fn as_flat(&self) -> &[f32] {
        &self.data
    }

    /// Inner product of `q` against row `i`.
    #[inline]
    pub fn dot_row(&self, q: &[f32], i: usize) -> f32 {
        dot(q, self.row(i))
    }

    /// Scores `q` against the contiguous row block `[start, start+out.len())`,
    /// one inner product per row. Bitwise-identical to per-row
    /// [`VecStore::dot_row`] calls (see [`dot_many`]); exists so hot scans
    /// score a cache-resident block per call instead of paying per-key row
    /// arithmetic and dispatch.
    ///
    /// # Panics
    /// Panics if `start + out.len() > self.len()`.
    #[inline]
    pub fn dot_block(&self, q: &[f32], start: usize, out: &mut [f32]) {
        let end = start + out.len();
        assert!(end <= self.len(), "row block out of bounds");
        dot_many(q, &self.data[start * self.dim..end * self.dim], out);
    }

    /// Scores `q` against an arbitrary gather of rows: `out[i] = q · row(ids[i])`.
    /// Bitwise-identical to per-row [`VecStore::dot_row`] calls; the batched
    /// entry point for traversals whose frontier is not contiguous. Runs the
    /// same tile kernel as [`dot_many`] over the gathered rows (ids may
    /// repeat and come in any order).
    ///
    /// # Panics
    /// Panics if `ids.len() != out.len()` or any id is out of range.
    #[inline]
    pub fn dot_ids(&self, q: &[f32], ids: &[u32], out: &mut [f32]) {
        assert_eq!(ids.len(), out.len(), "one score slot per id required");
        let mut outs = out.chunks_exact_mut(TILE);
        let mut tiles = ids.chunks_exact(TILE);
        for (o, t) in (&mut outs).zip(&mut tiles) {
            dot_tile(q, core::array::from_fn(|r| self.row(t[r] as usize)), o);
        }
        for (o, &id) in outs.into_remainder().iter_mut().zip(tiles.remainder()) {
            *o = dot(q, self.row(id as usize));
        }
    }

    /// Scores `q` against every row: `out[i] = q · row(i)`.
    ///
    /// # Panics
    /// Panics if `out.len() != self.len()`.
    #[inline]
    pub fn dot_rows(&self, q: &[f32], out: &mut [f32]) {
        assert_eq!(out.len(), self.len(), "one score slot per row required");
        dot_many(q, &self.data, out);
    }

    /// Scores every row of `queries` against every row of `self` in one
    /// pass over `self` per query tile: `out[j * self.len() + i] =
    /// queries.row(j) · self.row(i)`, each bitwise the per-row
    /// [`VecStore::dot_row`] (see [`dot_many_multi`]).
    ///
    /// # Panics
    /// Panics if dimensionalities differ or `out.len() != queries.len() *
    /// self.len()`.
    #[inline]
    pub fn dot_rows_multi(&self, queries: &[f32], out: &mut [f32]) {
        dot_many_multi(self.dim, queries, &self.data, out);
    }

    /// Truncates the store to the first `n` vectors.
    pub fn truncate(&mut self, n: usize) {
        self.data.truncate(n * self.dim);
    }

    /// Returns a new store holding rows `[0, n)` (a context prefix).
    pub fn prefix(&self, n: usize) -> VecStore {
        assert!(n <= self.len(), "prefix longer than store");
        VecStore {
            dim: self.dim,
            data: self.data[..n * self.dim].to_vec(),
        }
    }

    /// Approximate heap footprint in bytes (used by the memory tracker).
    pub fn bytes(&self) -> usize {
        self.data.capacity() * core::mem::size_of::<f32>()
    }
}

impl<'a> IntoIterator for &'a VecStore {
    type Item = &'a [f32];
    type IntoIter = core::slice::ChunksExact<'a, f32>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.chunks_exact(self.dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_row_round_trip() {
        let mut s = VecStore::new(3);
        assert!(s.is_empty());
        let a = s.push(&[1.0, 2.0, 3.0]);
        let b = s.push(&[4.0, 5.0, 6.0]);
        assert_eq!((a, b), (0, 1));
        assert_eq!(s.len(), 2);
        assert_eq!(s.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(s.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "wrong dimensionality")]
    fn push_wrong_dim_panics() {
        let mut s = VecStore::new(3);
        s.push(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_dim_panics() {
        VecStore::new(0);
    }

    #[test]
    fn from_flat_and_iter() {
        let s = VecStore::from_flat(2, vec![1.0, 2.0, 3.0, 4.0]);
        let rows: Vec<&[f32]> = s.iter().collect();
        assert_eq!(rows, vec![&[1.0, 2.0][..], &[3.0, 4.0][..]]);
    }

    #[test]
    fn dot_row_matches_manual() {
        let s = VecStore::from_flat(2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.dot_row(&[2.0, 1.0], 0), 4.0);
        assert_eq!(s.dot_row(&[2.0, 1.0], 1), 10.0);
    }

    #[test]
    fn dot_block_and_rows_match_dot_row_bitwise() {
        let dim = 5;
        let data: Vec<f32> = (0..dim * 7).map(|i| (i as f32 * 0.31).sin()).collect();
        let s = VecStore::from_flat(dim, data);
        let q: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.77).cos()).collect();

        let mut all = vec![0.0f32; s.len()];
        s.dot_rows(&q, &mut all);
        for (i, &a) in all.iter().enumerate() {
            assert_eq!(a.to_bits(), s.dot_row(&q, i).to_bits(), "row {i}");
        }

        let mut block = vec![0.0f32; 3];
        s.dot_block(&q, 2, &mut block);
        for (j, &b) in block.iter().enumerate() {
            assert_eq!(b.to_bits(), s.dot_row(&q, 2 + j).to_bits());
        }

        let ids = [6u32, 0, 4, 4];
        let mut gathered = vec![0.0f32; ids.len()];
        s.dot_ids(&q, &ids, &mut gathered);
        for (&id, &g) in ids.iter().zip(&gathered) {
            assert_eq!(g.to_bits(), s.dot_row(&q, id as usize).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn dot_block_out_of_bounds_panics() {
        let s = VecStore::from_flat(2, vec![1.0, 2.0, 3.0, 4.0]);
        let mut out = vec![0.0f32; 2];
        s.dot_block(&[1.0, 1.0], 1, &mut out);
    }

    #[test]
    fn prefix_and_truncate() {
        let mut s = VecStore::from_flat(1, vec![1.0, 2.0, 3.0, 4.0]);
        let p = s.prefix(2);
        assert_eq!(p.len(), 2);
        assert_eq!(p.row(1), &[2.0]);
        s.truncate(3);
        assert_eq!(s.len(), 3);
        assert_eq!(s.row(2), &[3.0]);
    }

    #[test]
    fn extend_from_concatenates() {
        let mut a = VecStore::from_flat(2, vec![1.0, 2.0]);
        let b = VecStore::from_flat(2, vec![3.0, 4.0]);
        a.extend_from(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn row_mut_mutates_in_place() {
        let mut s = VecStore::from_flat(2, vec![1.0, 2.0]);
        s.row_mut(0)[1] = 9.0;
        assert_eq!(s.row(0), &[1.0, 9.0]);
    }
}
