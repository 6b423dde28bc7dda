//! Figure 11: GQA-based index sharing (§7.2) cuts the index count and
//! index memory by the group size.
//!
//! Builds real RoarGraphs for one transformer layer with the Llama GQA
//! ratio (4 query heads per KV head; 2 KV heads so the serial build stays
//! tractable), once with one index per *query* head (the
//! RetrievalAttention baseline) and once with one shared index per *KV*
//! head, and records index count, bytes and measured build time. The
//! paper's other half of the figure — the stage-1 kNN offloaded to a GPU —
//! is not reproduced: there is no GPU here.

use alaya_index::roargraph::RoarGraphParams;
use alaya_index::sharing::{build_shared_indexes, SharingConfig};
use alaya_vector::rng::{gaussian_store, seeded};
use alaya_vector::VecStore;

use crate::{min_max, Verdict, DIM};

/// KV heads of the layer.
pub const N_KV: usize = 2;
/// Query heads per KV head.
pub const GROUP: usize = 4;
/// Training queries as a fraction of the key count (§9.2.1).
const SAMPLE_RATIO: f64 = 0.4;
/// The claim: shared index bytes are 1/[`GROUP`] of per-query-head bytes
/// within this relative tolerance.
pub const BYTES_TOLERANCE: f64 = 0.05;

/// One layer's index build.
#[derive(Clone, Debug)]
pub struct BuildRow {
    /// Keys per head.
    pub context_len: usize,
    /// One index per KV head (`true`) or per query head (`false`).
    pub shared: bool,
    /// Measured wall-clock build time (serial).
    pub seconds: f64,
    /// Total graph bytes.
    pub bytes: usize,
    /// Indexes built.
    pub n_indexes: usize,
}

/// Builds the layer unshared and shared at each context length.
pub fn measure(sizes: &[usize]) -> Vec<BuildRow> {
    let mut rows = Vec::new();
    for &n in sizes {
        let mut rng = seeded(n as u64 ^ 0xF11);
        let keys: Vec<VecStore> = (0..N_KV)
            .map(|_| gaussian_store(&mut rng, n, DIM, 1.0))
            .collect();
        let key_refs: Vec<&VecStore> = keys.iter().collect();
        let queries: Vec<VecStore> = (0..N_KV * GROUP)
            .map(|_| gaussian_store(&mut rng, n, DIM, 1.1))
            .collect();
        for shared in [false, true] {
            let cfg = SharingConfig {
                group_size: GROUP,
                sample_ratio: SAMPLE_RATIO,
                params: RoarGraphParams {
                    threads: 1,
                    ..Default::default()
                },
                share: shared,
            };
            let res = build_shared_indexes(&key_refs, &queries, &cfg);
            rows.push(BuildRow {
                context_len: n,
                shared,
                seconds: res.build_seconds,
                bytes: res.bytes(),
                n_indexes: res.indexes.len(),
            });
        }
    }
    rows
}

/// At every context length, sharing builds `N_KV` instead of
/// `N_KV · GROUP` indexes and index bytes fall by `GROUP` within
/// [`BYTES_TOLERANCE`].
pub fn check(rows: &[BuildRow]) -> Verdict {
    let mut ratios = Vec::new();
    for unshared in rows.iter().filter(|r| !r.shared) {
        let n = unshared.context_len;
        let shared = rows
            .iter()
            .find(|r| r.shared && r.context_len == n)
            .ok_or_else(|| format!("{n} keys: no shared build"))?;
        if (unshared.n_indexes, shared.n_indexes) != (N_KV * GROUP, N_KV) {
            return Err(format!(
                "{n} keys: {} -> {} indexes, expected {} -> {N_KV}",
                unshared.n_indexes,
                shared.n_indexes,
                N_KV * GROUP
            ));
        }
        let ratio = unshared.bytes as f64 / shared.bytes.max(1) as f64;
        if (ratio / GROUP as f64 - 1.0).abs() > BYTES_TOLERANCE {
            return Err(format!(
                "{n} keys: sharing cuts index bytes {ratio:.3}x, not the group size {GROUP} \
                 within {:.0} %",
                BYTES_TOLERANCE * 100.0
            ));
        }
        ratios.push(ratio);
    }
    let (lo, hi) = min_max(ratios).ok_or("no builds measured")?;
    Ok(format!(
        "sharing builds {N_KV} instead of {} indexes and cuts index bytes {lo:.3}x..{hi:.3}x \
         (group size {GROUP})",
        N_KV * GROUP
    ))
}
