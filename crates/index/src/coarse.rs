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
//!   keys, which are the IP-dominant ones.) `DbConfig::paper_defaults`
//!   serves `Representatives { reps: 4 }`.
//! * [`BlockScoring::MinMaxBounds`] — Quest-style: per-dimension min/max
//!   envelopes give an upper bound on any key's inner product with the
//!   query; no key can beat the bound, so top-scoring blocks are a superset
//!   guarantee. `DbConfig::for_tests` serves it, and so does the repo
//!   benchmark, which inherits that configuration.
//!
//! The bounds live in one **block-transposed table**: blocks are taken in
//! groups of [`BOUND_LANES`], and a group stores, for each dimension in
//! order, its `BOUND_LANES` minima followed by its `BOUND_LANES` maxima (the
//! last group is padded with zeros). [`CoarseIndex::select_blocks`] scores a
//! whole group per vector step, one block per lane; each lane accumulates
//! exactly [`CoarseIndex::block_score`]'s left-to-right sum from the same
//! start value, so the two agree bit for bit. Blocks starting below a
//! prefix are a prefix of the table, which is what filtered retrieval ranks.
//!
//! Coarse indexes answer in microseconds but require the blocks (full KV)
//! to stay in fast memory — the GPU-budget trade-off the query optimizer
//! weighs (Figure 8).

use alaya_vector::topk::{top_k_indices, ScoredIdx};
use alaya_vector::VecStore;

/// Blocks per group of the bound table: [`CoarseIndex::select_blocks`]
/// scores this many blocks per vector step (the `coarse` group of the
/// `kernels` bench picked it).
pub const BOUND_LANES: usize = 16;

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
    /// The block-transposed bound table of the module docs (MinMaxBounds
    /// mode): `2 * BOUND_LANES * dim` values per group.
    bounds: Vec<f32>,
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
        let mut bounds = Vec::new();
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
                bounds = vec![0.0f32; n_blocks.div_ceil(BOUND_LANES) * group_len(dim)];
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
                    let (group, lane) = (b / BOUND_LANES, b % BOUND_LANES);
                    let cells = &mut bounds[group * group_len(dim)..][..group_len(dim)];
                    for ((cell, l), h) in cells.chunks_exact_mut(2 * BOUND_LANES).zip(lo).zip(hi) {
                        cell[lane] = l;
                        cell[BOUND_LANES + lane] = h;
                    }
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
            bounds,
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
                let (group, lane) = (block / BOUND_LANES, block % BOUND_LANES);
                let len = group_len(self.dim);
                self.bounds[group * len..][..len]
                    .chunks_exact(2 * BOUND_LANES)
                    .zip(q)
                    .map(|(cell, &qd)| (qd * cell[lane]).max(qd * cell[BOUND_LANES + lane]))
                    .sum()
            }
        }
    }

    /// The `n_blocks` highest-scoring blocks, best first.
    ///
    /// Bitwise the top `n_blocks` of the per-block
    /// [`CoarseIndex::block_score`]s: representatives are scored in one
    /// block-kernel call over the summary matrix and maxed per block, bounds
    /// a table group per vector step (module docs).
    pub fn select_blocks(&self, q: &[f32], n_blocks: usize) -> Vec<ScoredIdx> {
        self.rank_blocks(q, n_blocks, self.n_blocks())
    }

    /// Token-id range covered by `block`.
    pub fn block_tokens(&self, block: usize) -> std::ops::Range<usize> {
        let start = block * self.block_size;
        start..(start + self.block_size).min(self.n_tokens)
    }

    /// All token ids in the top `n_blocks` blocks, ascending.
    pub fn select_tokens(&self, q: &[f32], n_blocks: usize) -> Vec<u32> {
        self.select_tokens_below(q, n_blocks, self.n_tokens)
    }

    /// [`CoarseIndex::select_tokens`] ranking only the blocks that start
    /// below `prefix_len` (a partially reused context's attribute filter).
    /// A block straddling the prefix contributes all its tokens; the caller
    /// drops those past the prefix.
    pub fn select_tokens_below(&self, q: &[f32], n_blocks: usize, prefix_len: usize) -> Vec<u32> {
        let ranked = prefix_len.div_ceil(self.block_size).min(self.n_blocks());
        let mut blocks: Vec<usize> = self
            .rank_blocks(q, n_blocks, ranked)
            .into_iter()
            .map(|b| b.idx)
            .collect();
        // Blocks are disjoint token ranges: ascending blocks emit ascending
        // tokens, without sorting the tokens themselves.
        blocks.sort_unstable();
        let mut out = Vec::with_capacity(blocks.len() * self.block_size);
        for b in blocks {
            out.extend(self.block_tokens(b).map(|t| t as u32));
        }
        out
    }

    /// The `n_blocks` best of the first `ranked` blocks, best first.
    fn rank_blocks(&self, q: &[f32], n_blocks: usize, ranked: usize) -> Vec<ScoredIdx> {
        debug_assert_eq!(q.len(), self.dim);
        let block_scores: Vec<f32> = match self.scoring {
            BlockScoring::Representatives { .. } => {
                let mut scores = vec![0.0f32; ranked * self.reps_per_block];
                self.reps.dot_block(q, 0, &mut scores);
                scores
                    .chunks_exact(self.reps_per_block)
                    .map(|b| b.iter().copied().fold(f32::NEG_INFINITY, f32::max))
                    .collect()
            }
            BlockScoring::MinMaxBounds => {
                let mut scores = Vec::with_capacity(ranked.next_multiple_of(BOUND_LANES));
                let groups = self.bounds.chunks_exact(group_len(self.dim));
                for group in groups.take(ranked.div_ceil(BOUND_LANES)) {
                    // Lane `l` is `block_score`'s sum for block `l` of the
                    // group: `Iterator::sum`'s start value (-0.0), then the
                    // dimensions left to right.
                    let mut acc = [-0.0f32; BOUND_LANES];
                    for (cell, &qd) in group.chunks_exact(2 * BOUND_LANES).zip(q) {
                        let (lo, hi) = cell.split_at(BOUND_LANES);
                        for ((a, &l), &h) in acc.iter_mut().zip(lo).zip(hi) {
                            *a += (qd * l).max(qd * h);
                        }
                    }
                    scores.extend_from_slice(&acc);
                }
                scores.truncate(ranked);
                scores
            }
        };
        top_k_indices(&block_scores, n_blocks)
    }

    /// Summary-structure bytes (representatives or bounds — the part that
    /// must live in fast memory alongside the block data).
    pub fn summary_bytes(&self) -> usize {
        let bounds = self.bounds.capacity() * std::mem::size_of::<f32>();
        (self.reps.bytes() + bounds).max(1)
    }
}

/// Values per group of the bound table at dimensionality `dim`.
fn group_len(dim: usize) -> usize {
    2 * BOUND_LANES * dim
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
    fn tokens_below_a_prefix_come_from_blocks_starting_below_it() {
        let mut rng = seeded(31);
        // 13 blocks of 16 (one ragged): more than one table group.
        let keys = gaussian_store(&mut rng, 203, 8, 1.0);
        for scoring in [
            BlockScoring::Representatives { reps: 2 },
            BlockScoring::MinMaxBounds,
        ] {
            let idx = CoarseIndex::build(&keys, 16, scoring);
            let q = keys.row(5);
            for prefix in [0usize, 1, 16, 17, 40, 203, 500] {
                let ranked = prefix.div_ceil(16).min(idx.n_blocks());
                let per_block: Vec<f32> = (0..ranked).map(|b| idx.block_score(q, b)).collect();
                let mut blocks: Vec<usize> =
                    top_k_indices(&per_block, 2).iter().map(|s| s.idx).collect();
                blocks.sort_unstable();
                let want: Vec<u32> = blocks
                    .into_iter()
                    .flat_map(|b| idx.block_tokens(b))
                    .map(|t| t as u32)
                    .collect();
                let got = idx.select_tokens_below(q, 2, prefix);
                assert_eq!(got, want, "{scoring:?} prefix={prefix}");
                assert_eq!(got.is_empty(), prefix == 0, "a block starts below {prefix}");
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
        assert_eq!(a.summary_bytes(), a.reps.bytes());
        // 4 blocks pad to one group of `BOUND_LANES`, dim 2, min and max.
        assert_eq!(b.summary_bytes(), BOUND_LANES * 2 * 2 * 4);
    }
}
