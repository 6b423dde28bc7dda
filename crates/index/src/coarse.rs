//! Coarse-grained block index (InfLLM / Quest style).
//!
//! Groups adjacent tokens into fixed-size blocks and scores whole blocks
//! against the query via a small number of per-block summary vectors
//! (Table 4's "coarse" index). Two summary schemes are implemented:
//!
//! * [`BlockScoring::Representatives`] — InfLLM-style: each block is
//!   represented by `r` concrete key vectors; the block score is the highest
//!   inner product among them. (InfLLM picks representatives by local
//!   attention mass; without build-time queries we select the highest-norm
//!   keys, which are the IP-dominant ones.)
//! * [`BlockScoring::MinMaxBounds`] — Quest-style: per-dimension min/max
//!   envelopes give an upper bound on any key's inner product with the
//!   query; no key can beat the bound, so top-scoring blocks are a superset
//!   guarantee.
//!
//! Coarse indexes answer in microseconds but require the blocks (full KV)
//! to stay in fast memory — the GPU-budget trade-off the query optimizer
//! weighs (Figure 8).

use alaya_vector::topk::{top_k_indices, ScoredIdx};
use alaya_vector::VecStore;

/// Block summary/scoring scheme.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockScoring {
    /// InfLLM-style representative key vectors (`reps` per block).
    Representatives {
        /// Representatives kept per block.
        reps: usize,
    },
    /// Quest-style per-dimension min/max bounds.
    MinMaxBounds,
}

/// A built coarse index over one head's key matrix.
pub struct CoarseIndex {
    block_size: usize,
    n_tokens: usize,
    dim: usize,
    scoring: BlockScoring,
    /// Representatives: `reps_per_block` rows per block (Representatives mode).
    reps: VecStore,
    reps_per_block: usize,
    /// Per-dim minima, one row per block (MinMaxBounds mode).
    mins: VecStore,
    /// Per-dim maxima, one row per block (MinMaxBounds mode).
    maxs: VecStore,
}

impl CoarseIndex {
    /// Builds the index over `keys` with blocks of `block_size` tokens.
    ///
    /// # Panics
    /// Panics if `keys` is empty or `block_size == 0`.
    pub fn build(keys: &VecStore, block_size: usize, scoring: BlockScoring) -> Self {
        assert!(block_size > 0, "block size must be positive");
        assert!(!keys.is_empty(), "cannot build a coarse index over no keys");
        let dim = keys.dim();
        let n_tokens = keys.len();
        let n_blocks = n_tokens.div_ceil(block_size);

        let mut reps = VecStore::new(dim);
        let mut mins = VecStore::new(dim);
        let mut maxs = VecStore::new(dim);
        let mut reps_per_block = 0;

        match scoring {
            BlockScoring::Representatives { reps: r } => {
                assert!(r > 0, "at least one representative per block required");
                reps_per_block = r;
                for b in 0..n_blocks {
                    let start = b * block_size;
                    let end = (start + block_size).min(n_tokens);
                    // Highest-norm keys in the block are its IP-dominant
                    // members; they serve as representatives.
                    let norms: Vec<f32> = (start..end)
                        .map(|i| alaya_vector::dot(keys.row(i), keys.row(i)))
                        .collect();
                    let chosen = top_k_indices(&norms, r);
                    for c in &chosen {
                        reps.push(keys.row(start + c.idx));
                    }
                    // Short blocks repeat their best key to keep the layout
                    // rectangular.
                    for _ in chosen.len()..r {
                        reps.push(keys.row(start + chosen[0].idx));
                    }
                }
            }
            BlockScoring::MinMaxBounds => {
                for b in 0..n_blocks {
                    let start = b * block_size;
                    let end = (start + block_size).min(n_tokens);
                    let mut lo = keys.row(start).to_vec();
                    let mut hi = keys.row(start).to_vec();
                    for i in start + 1..end {
                        for (d, &v) in keys.row(i).iter().enumerate() {
                            lo[d] = lo[d].min(v);
                            hi[d] = hi[d].max(v);
                        }
                    }
                    mins.push(&lo);
                    maxs.push(&hi);
                }
            }
        }

        Self {
            block_size,
            n_tokens,
            dim,
            scoring,
            reps,
            reps_per_block,
            mins,
            maxs,
        }
    }

    /// Number of blocks.
    pub fn n_blocks(&self) -> usize {
        self.n_tokens.div_ceil(self.block_size)
    }

    /// Tokens per block.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Total indexed tokens.
    pub fn n_tokens(&self) -> usize {
        self.n_tokens
    }

    /// Score of one block against `q` under the configured scheme.
    pub fn block_score(&self, q: &[f32], block: usize) -> f32 {
        debug_assert_eq!(q.len(), self.dim);
        match self.scoring {
            BlockScoring::Representatives { .. } => {
                let start = block * self.reps_per_block;
                (start..start + self.reps_per_block)
                    .map(|r| self.reps.dot_row(q, r))
                    .fold(f32::NEG_INFINITY, f32::max)
            }
            BlockScoring::MinMaxBounds => {
                // max over the box: pick per-dim whichever corner maximizes.
                let lo = self.mins.row(block);
                let hi = self.maxs.row(block);
                q.iter()
                    .zip(lo.iter().zip(hi))
                    .map(|(&qd, (&l, &h))| (qd * l).max(qd * h))
                    .sum()
            }
        }
    }

    /// The `n_blocks` highest-scoring blocks, best first.
    ///
    /// Representatives are scored in one block-kernel call over the whole
    /// summary matrix and maxed per block — bitwise the per-block
    /// [`CoarseIndex::block_score`].
    pub fn select_blocks(&self, q: &[f32], n_blocks: usize) -> Vec<ScoredIdx> {
        let block_scores: Vec<f32> = match self.scoring {
            BlockScoring::Representatives { .. } => {
                let mut scores = vec![0.0f32; self.reps.len()];
                self.reps.dot_rows(q, &mut scores);
                scores
                    .chunks_exact(self.reps_per_block)
                    .map(|b| b.iter().copied().fold(f32::NEG_INFINITY, f32::max))
                    .collect()
            }
            BlockScoring::MinMaxBounds => (0..self.n_blocks())
                .map(|b| self.block_score(q, b))
                .collect(),
        };
        top_k_indices(&block_scores, n_blocks)
    }

    /// Token-id range covered by `block`.
    pub fn block_tokens(&self, block: usize) -> std::ops::Range<usize> {
        let start = block * self.block_size;
        start..(start + self.block_size).min(self.n_tokens)
    }

    /// All token ids in the top `n_blocks` blocks, ascending.
    pub fn select_tokens(&self, q: &[f32], n_blocks: usize) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .select_blocks(q, n_blocks)
            .into_iter()
            .flat_map(|b| self.block_tokens(b.idx))
            .map(|t| t as u32)
            .collect();
        out.sort_unstable();
        out
    }

    /// Summary-structure bytes (representatives or bounds — the part that
    /// must live in fast memory alongside the block data).
    pub fn summary_bytes(&self) -> usize {
        (self.reps.bytes() + self.mins.bytes() + self.maxs.bytes()).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alaya_vector::rng::{gaussian_store, seeded};

    fn keys_with_hot_block() -> VecStore {
        // 4 blocks of 4 tokens, dim 2; block 2 (tokens 8..12) has big values.
        let mut keys = VecStore::new(2);
        for i in 0..16 {
            if (8..12).contains(&i) {
                keys.push(&[5.0, 5.0]);
            } else {
                keys.push(&[0.1, 0.1]);
            }
        }
        keys
    }

    #[test]
    fn representatives_find_hot_block() {
        let keys = keys_with_hot_block();
        let idx = CoarseIndex::build(&keys, 4, BlockScoring::Representatives { reps: 2 });
        assert_eq!(idx.n_blocks(), 4);
        let best = idx.select_blocks(&[1.0, 1.0], 1);
        assert_eq!(best[0].idx, 2);
        let tokens = idx.select_tokens(&[1.0, 1.0], 1);
        assert_eq!(tokens, vec![8, 9, 10, 11]);
    }

    #[test]
    fn minmax_finds_hot_block() {
        let keys = keys_with_hot_block();
        let idx = CoarseIndex::build(&keys, 4, BlockScoring::MinMaxBounds);
        let best = idx.select_blocks(&[1.0, 1.0], 1);
        assert_eq!(best[0].idx, 2);
    }

    #[test]
    fn minmax_is_upper_bound() {
        let mut rng = seeded(17);
        let keys = gaussian_store(&mut rng, 64, 8, 1.0);
        let idx = CoarseIndex::build(&keys, 8, BlockScoring::MinMaxBounds);
        let q = keys.row(3).to_vec();
        for b in 0..idx.n_blocks() {
            let bound = idx.block_score(&q, b);
            for t in idx.block_tokens(b) {
                let ip = keys.dot_row(&q, t);
                assert!(ip <= bound + 1e-4, "block {b}: ip {ip} > bound {bound}");
            }
        }
    }

    #[test]
    fn select_blocks_equals_top_k_over_block_score_bitwise() {
        let mut rng = seeded(29);
        // 203 tokens in blocks of 16: a ragged last block (short blocks
        // repeat their best representative).
        let keys = gaussian_store(&mut rng, 203, 32, 1.0);
        for scoring in [
            BlockScoring::Representatives { reps: 1 },
            BlockScoring::Representatives { reps: 3 },
            BlockScoring::MinMaxBounds,
        ] {
            let idx = CoarseIndex::build(&keys, 16, scoring);
            for qi in [0usize, 57, 202] {
                let q = keys.row(qi);
                for n in [0usize, 1, 4, 100] {
                    let per_block: Vec<f32> =
                        (0..idx.n_blocks()).map(|b| idx.block_score(q, b)).collect();
                    let want = top_k_indices(&per_block, n);
                    let got = idx.select_blocks(q, n);
                    let key = |v: &[ScoredIdx]| -> Vec<(usize, u32)> {
                        v.iter().map(|s| (s.idx, s.score.to_bits())).collect()
                    };
                    assert_eq!(key(&got), key(&want), "{scoring:?} q={qi} n={n}");
                }
            }
        }
    }

    #[test]
    fn ragged_final_block() {
        let mut rng = seeded(4);
        let keys = gaussian_store(&mut rng, 10, 4, 1.0); // 3 blocks of 4,4,2
        let idx = CoarseIndex::build(&keys, 4, BlockScoring::Representatives { reps: 3 });
        assert_eq!(idx.n_blocks(), 3);
        assert_eq!(idx.block_tokens(2), 8..10);
        // Selecting all blocks yields every token exactly once.
        let toks = idx.select_tokens(keys.row(0), 3);
        assert_eq!(toks, (0..10u32).collect::<Vec<_>>());
    }

    #[test]
    fn selecting_more_blocks_than_exist() {
        let keys = keys_with_hot_block();
        let idx = CoarseIndex::build(&keys, 4, BlockScoring::MinMaxBounds);
        assert_eq!(idx.select_blocks(&[1.0, 0.0], 100).len(), 4);
    }

    #[test]
    fn summary_bytes_positive() {
        let keys = keys_with_hot_block();
        let a = CoarseIndex::build(&keys, 4, BlockScoring::Representatives { reps: 1 });
        let b = CoarseIndex::build(&keys, 4, BlockScoring::MinMaxBounds);
        assert!(a.summary_bytes() > 0);
        assert!(b.summary_bytes() > 0);
    }
}
