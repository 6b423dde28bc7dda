//! Figure 5: the number of critical tokens varies by orders of magnitude
//! across heads, and one fixed β tracks it where one fixed k cannot.
//!
//! For five sampled heads per layer of a Llama-3-8B-shaped model (32
//! layers), this measures the tokens needed for a 90 % recovery ratio (the
//! paper's red curve) and the result size of an exact DIPR query at one β
//! for every head (the blue curve).

use alaya_index::flat::FlatIndex;
use alaya_workloads::{head_profile, synth_head, tokens_for_recovery};

use crate::{min_max, Verdict, DIM};

/// Layers of the modelled transformer.
const N_LAYERS: usize = 32;
/// Heads sampled per layer.
const HEADS_PER_LAYER: usize = 5;
/// The claim: recovery-90 token counts span at least this factor.
pub const MIN_SPREAD: f64 = 10.0;
/// The claim: DIPR size / recovery-90 varies across heads by less than this
/// factor.
pub const MAX_RATIO_VARIATION: f64 = 2.0;

/// One sampled head.
#[derive(Clone, Debug)]
pub struct HeadPoint {
    /// Layer index.
    pub layer: usize,
    /// Head index within the layer.
    pub head: usize,
    /// Critical tokens planted by the head's profile.
    pub profile_n_critical: usize,
    /// Tokens needed to recover 90 % of the attention mass.
    pub recovery90_tokens: usize,
    /// Result size of exact DIPR at the fixed β.
    pub dipr_tokens: usize,
}

/// β in inner-product units: the paper uses 110 at head dim 128 (~9.7
/// logits); the synthetic bands span ~4 logits, so 4.5 logits captures them
/// without swallowing background.
pub fn beta() -> f32 {
    4.5 * (DIM as f32).sqrt()
}

/// Measures every `layer_step`-th layer at context length `ctx`.
pub fn measure(ctx: usize, layer_step: usize) -> Vec<HeadPoint> {
    let scale_attn = 1.0 / (DIM as f32).sqrt();
    let mut points = Vec::new();
    for layer in (0..N_LAYERS).step_by(layer_step) {
        for head in 0..HEADS_PER_LAYER {
            let profile = head_profile(layer, N_LAYERS, head, ctx);
            let (keys, q, _) = synth_head(&profile, ctx, DIM, (layer * 100 + head) as u64 ^ 0xF16);
            points.push(HeadPoint {
                layer,
                head,
                profile_n_critical: profile.n_critical,
                recovery90_tokens: tokens_for_recovery(&keys, &q, scale_attn, 0.90),
                dipr_tokens: FlatIndex.search_dipr(&keys, &q, beta()).len(),
            });
        }
    }
    points
}

/// Recovery-90 counts span ≥ [`MIN_SPREAD`] across heads (one fixed k
/// cannot fit them all), and DIPR size / recovery-90 varies by less than
/// [`MAX_RATIO_VARIATION`] (one fixed β does).
pub fn check(points: &[HeadPoint]) -> Verdict {
    let (min, max) =
        min_max(points.iter().map(|p| p.recovery90_tokens as f64)).ok_or("no heads measured")?;
    let spread = max / min.max(1.0);
    if spread < MIN_SPREAD {
        return Err(format!(
            "recovery-90 token counts span only {min}..{max} ({spread:.1}x < {MIN_SPREAD}x): \
             one fixed k would fit every head"
        ));
    }
    let (lo, hi) = min_max(
        points
            .iter()
            .map(|p| p.dipr_tokens as f64 / p.recovery90_tokens.max(1) as f64),
    )
    .ok_or("no heads measured")?;
    if hi >= MAX_RATIO_VARIATION * lo {
        return Err(format!(
            "DIPR size / recovery-90 ranges {lo:.2}..{hi:.2} across heads (>= {MAX_RATIO_VARIATION}x): \
             one fixed beta does not track the per-head need"
        ));
    }
    Ok(format!(
        "recovery-90 spans {min}..{max} tokens ({spread:.0}x) across heads, while DIPR size / \
         recovery-90 stays within {lo:.2}..{hi:.2} at one beta"
    ))
}
