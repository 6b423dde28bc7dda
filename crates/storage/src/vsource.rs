//! Buffer-pool-backed [`VectorSource`]: DIPRS over disk-resident vectors.
//!
//! Wraps a [`VectorFile`] so the search algorithms in `alaya-index` /
//! `alaya-query` — which are generic over [`VectorSource`] — run unchanged
//! whether a head's key matrix lives in DRAM or behind the buffer manager.
//! Scores are computed *inside* the pinned block (the data-centric
//! principle: compute where the data resides, §7.2).

use std::sync::Arc;

use alaya_index::source::VectorSource;

use crate::file::VectorFile;

/// [`VectorSource`] over a [`VectorFile`].
///
/// I/O errors are unrecoverable mid-search (the trait is infallible by
/// design — the hot path cannot thread `Result` through every score), so
/// they panic; the storage engine surfaces recoverable errors at file-open
/// and import time instead.
#[derive(Clone)]
pub struct BufferedVectorSource {
    file: Arc<VectorFile>,
}

impl BufferedVectorSource {
    /// Wraps a vector file.
    pub fn new(file: Arc<VectorFile>) -> Self {
        Self { file }
    }

    /// The underlying file.
    pub fn file(&self) -> &Arc<VectorFile> {
        &self.file
    }
}

impl VectorSource for BufferedVectorSource {
    fn dim(&self) -> usize {
        self.file.dim()
    }

    fn len(&self) -> usize {
        self.file.n_vectors()
    }

    fn load(&self, id: u32, out: &mut [f32]) {
        self.file
            .read_vector(id, out)
            .expect("vector read failed mid-search");
    }

    fn score(&self, q: &[f32], id: u32) -> f32 {
        self.file
            .score(q, id)
            .expect("vector score failed mid-search")
    }

    // `score` reduces inside the pinned block with its own (scalar) order,
    // so the block calls go through it rather than the `load` + `dot`
    // defaults: the trait contract is "bitwise the per-id `score`".
    fn score_range(&self, q: &[f32], start: u32, out: &mut [f32]) {
        for (j, o) in out.iter_mut().enumerate() {
            *o = self.score(q, start + j as u32);
        }
    }

    fn score_block(&self, q: &[f32], ids: &[u32], out: &mut [f32]) {
        for (o, &id) in out.iter_mut().zip(ids) {
            *o = self.score(q, id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferManager;
    use crate::device::MemDevice;
    use alaya_index::flat::FlatIndex;
    use alaya_vector::rng::{gaussian_store, seeded};
    use alaya_vector::VecStore;

    fn stored_copy(vectors: &VecStore, pool_frames: usize) -> BufferedVectorSource {
        let mgr = BufferManager::new(pool_frames);
        let dev = Arc::new(MemDevice::new(512));
        let file = VectorFile::create(mgr, dev, vectors.dim()).unwrap();
        for row in vectors.iter() {
            file.append(row).unwrap();
        }
        BufferedVectorSource::new(Arc::new(file))
    }

    #[test]
    fn scores_match_in_memory_source() {
        let mut rng = seeded(55);
        let vectors = gaussian_store(&mut rng, 100, 8, 1.0);
        let src = stored_copy(&vectors, 64);
        assert_eq!(src.len(), 100);
        assert_eq!(VectorSource::dim(&src), 8);
        let q = vectors.row(3);
        for id in [0u32, 17, 50, 99] {
            let want = vectors.dot_row(q, id as usize);
            let got = src.score(q, id);
            assert!((want - got).abs() < 1e-5, "id {id}: {want} vs {got}");
        }
    }

    #[test]
    fn block_scoring_is_bitwise_the_per_id_score() {
        let mut rng = seeded(57);
        let vectors = gaussian_store(&mut rng, 40, 8, 1.0);
        let src = stored_copy(&vectors, 4);
        let q = vectors.row(9);
        let mut range = vec![0.0f32; 11];
        src.score_range(q, 20, &mut range);
        let ids = [39u32, 0, 17, 17, 3];
        let mut block = vec![0.0f32; ids.len()];
        src.score_block(q, &ids, &mut block);
        for (j, &got) in range.iter().enumerate() {
            assert_eq!(got.to_bits(), src.score(q, 20 + j as u32).to_bits());
        }
        for (&id, &got) in ids.iter().zip(&block) {
            assert_eq!(got.to_bits(), src.score(q, id).to_bits());
        }
    }

    #[test]
    fn flat_search_identical_on_disk_and_memory() {
        let mut rng = seeded(56);
        let vectors = gaussian_store(&mut rng, 200, 8, 1.0);
        // Tiny pool: search must survive constant eviction.
        let src = stored_copy(&vectors, 3);
        let q = vectors.row(42);
        let mem = FlatIndex.search_topk(&vectors, q, 10);
        let disk = FlatIndex.search_topk(&src, q, 10);
        let mem_ids: Vec<usize> = mem.iter().map(|s| s.idx).collect();
        let disk_ids: Vec<usize> = disk.iter().map(|s| s.idx).collect();
        assert_eq!(mem_ids, disk_ids);
    }

    #[test]
    fn load_round_trip() {
        let mut rng = seeded(57);
        let vectors = gaussian_store(&mut rng, 30, 6, 1.0);
        let src = stored_copy(&vectors, 16);
        let mut buf = vec![0.0f32; 6];
        src.load(21, &mut buf);
        assert_eq!(buf.as_slice(), vectors.row(21));
    }
}
