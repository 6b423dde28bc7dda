//! Abstraction over where key vectors physically live.
//!
//! Index traversal only needs two operations — "score this id against the
//! query" and "copy this vector out" — so the search algorithms are generic
//! over [`VectorSource`]. The in-memory implementation is
//! [`alaya_vector::VecStore`]; `alaya-storage` provides a buffer-manager-
//! backed implementation so the same DIPRS code runs over disk-resident KV
//! caches (§7.3).

use alaya_vector::{dot, VecStore};

/// Read access to a collection of fixed-dimension vectors addressed by id.
pub trait VectorSource {
    /// Vector dimensionality.
    fn dim(&self) -> usize;

    /// Number of addressable vectors (ids are `0..len`).
    fn len(&self) -> usize;

    /// Whether the source is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies vector `id` into `out` (`out.len() == dim()`).
    fn load(&self, id: u32, out: &mut [f32]);

    /// Inner product `q · vec[id]` — the hot path. In-memory sources score
    /// without copying; the default copies the vector out and applies
    /// [`dot`].
    fn score(&self, q: &[f32], id: u32) -> f32 {
        let mut buf = vec![0.0f32; self.dim()];
        self.load(id, &mut buf);
        dot(q, &buf)
    }

    /// Scores `q` against the contiguous id range `[start, start + out.len())`,
    /// one score per slot. Callers use this so sequential scans pay one call
    /// per block instead of one (possibly virtual) dispatch per key.
    ///
    /// Implementations must return results **bitwise identical** to per-id
    /// [`VectorSource::score`] calls. The default is the default `score`
    /// (`load` + [`dot`]) over one `dim()`-sized buffer per call, so a source
    /// that only implements `load` pays one allocation per block, not one per
    /// key; a source that overrides `score` with its own reduction must
    /// override this and [`VectorSource::score_block`] as well. Contiguous
    /// in-memory sources override it with a blocked kernel that preserves
    /// the per-row reduction order.
    fn score_range(&self, q: &[f32], start: u32, out: &mut [f32]) {
        let mut buf = vec![0.0f32; self.dim()];
        for (j, o) in out.iter_mut().enumerate() {
            self.load(start + j as u32, &mut buf);
            *o = dot(q, &buf);
        }
    }

    /// Scores `q` against an arbitrary block of ids (`out[i]` receives the
    /// score of `ids[i]`). Same bitwise contract and default as
    /// [`VectorSource::score_range`]; used by graph traversals to score a
    /// whole frontier of candidate neighbors per call.
    fn score_block(&self, q: &[f32], ids: &[u32], out: &mut [f32]) {
        debug_assert_eq!(ids.len(), out.len());
        let mut buf = vec![0.0f32; self.dim()];
        for (o, &id) in out.iter_mut().zip(ids) {
            self.load(id, &mut buf);
            *o = dot(q, &buf);
        }
    }
}

impl VectorSource for VecStore {
    fn dim(&self) -> usize {
        VecStore::dim(self)
    }

    fn len(&self) -> usize {
        VecStore::len(self)
    }

    fn load(&self, id: u32, out: &mut [f32]) {
        out.copy_from_slice(self.row(id as usize));
    }

    fn score(&self, q: &[f32], id: u32) -> f32 {
        self.dot_row(q, id as usize)
    }

    fn score_range(&self, q: &[f32], start: u32, out: &mut [f32]) {
        self.dot_block(q, start as usize, out);
    }

    fn score_block(&self, q: &[f32], ids: &[u32], out: &mut [f32]) {
        self.dot_ids(q, ids, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vecstore_source_round_trip() {
        let s = VecStore::from_flat(2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(VectorSource::dim(&s), 2);
        assert_eq!(VectorSource::len(&s), 2);
        let mut buf = [0.0f32; 2];
        s.load(1, &mut buf);
        assert_eq!(buf, [3.0, 4.0]);
        assert_eq!(s.score(&[1.0, 1.0], 0), 3.0);
    }

    /// A minimal custom source that only implements `load`, exercising the
    /// trait's default scoring paths.
    struct Doubler;
    impl VectorSource for Doubler {
        fn dim(&self) -> usize {
            2
        }
        fn len(&self) -> usize {
            3
        }
        fn load(&self, id: u32, out: &mut [f32]) {
            out[0] = id as f32 * 2.0;
            out[1] = 1.0;
        }
    }

    #[test]
    fn default_score_uses_load() {
        assert_eq!(Doubler.score(&[1.0, 10.0], 2), 14.0);
    }

    #[test]
    fn default_block_scoring_matches_per_id_score_for_a_load_only_source() {
        let q = [0.5f32, -3.0];
        let mut range = [0.0f32; 3];
        Doubler.score_range(&q, 0, &mut range);
        let ids = [2u32, 0, 2, 1];
        let mut block = [0.0f32; 4];
        Doubler.score_block(&q, &ids, &mut block);
        for id in 0..3u32 {
            assert_eq!(
                range[id as usize].to_bits(),
                Doubler.score(&q, id).to_bits()
            );
        }
        for (&id, &got) in ids.iter().zip(&block) {
            assert_eq!(got.to_bits(), Doubler.score(&q, id).to_bits());
        }
    }

    #[test]
    fn vecstore_block_scoring_matches_per_id_score_bitwise() {
        use alaya_vector::rng::{gaussian_store, gaussian_vec, seeded};
        let mut rng = seeded(23);
        let s = gaussian_store(&mut rng, 50, 32, 1.0);
        let q = gaussian_vec(&mut rng, 32, 1.0);
        // Every tile-remainder class of the gathered kernel, ids unordered
        // and repeating.
        for n in 0..=13usize {
            let ids: Vec<u32> = (0..n).map(|i| (i * 31 % 17) as u32).collect();
            let mut block = vec![0.0f32; n];
            s.score_block(&q, &ids, &mut block);
            let mut range = vec![0.0f32; n];
            s.score_range(&q, 7, &mut range);
            for i in 0..n {
                assert_eq!(block[i].to_bits(), s.score(&q, ids[i]).to_bits());
                assert_eq!(range[i].to_bits(), s.score(&q, 7 + i as u32).to_bits());
            }
        }
    }

    #[test]
    fn score_range_and_block_match_per_id_score() {
        let data: Vec<f32> = (0..3 * 6).map(|i| (i as f32 * 0.4).sin()).collect();
        let s = VecStore::from_flat(3, data);
        let q = [0.3f32, -1.2, 0.8];

        let mut range = vec![0.0f32; 4];
        s.score_range(&q, 1, &mut range);
        for (j, &got) in range.iter().enumerate() {
            assert_eq!(got.to_bits(), s.score(&q, 1 + j as u32).to_bits());
        }

        let ids = [5u32, 0, 3];
        let mut block = vec![0.0f32; ids.len()];
        s.score_block(&q, &ids, &mut block);
        for (&id, &got) in ids.iter().zip(&block) {
            assert_eq!(got.to_bits(), s.score(&q, id).to_bits());
        }
    }
}
