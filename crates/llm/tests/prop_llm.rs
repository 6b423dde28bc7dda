//! Property tests for the transformer substrate.

use alaya_llm::{
    AttentionBackend, FullKvBackend, Model, ModelConfig, Rope, Tokenizer, PREFILL_CHUNK,
};
use alaya_vector::dot;
use proptest::prelude::*;

/// Strings of at most 200 chars, mostly printable ASCII with an arbitrary
/// Unicode scalar one time in five, never a newline.
fn text() -> impl Strategy<Value = String> {
    prop::collection::vec((0u32..10, 0x20u32..0x7f, 0u32..0x11_0000), 0..=200).prop_map(|draws| {
        draws
            .into_iter()
            .filter_map(|(pick, ascii, any)| char::from_u32(if pick < 8 { ascii } else { any }))
            .filter(|&c| c != '\n')
            .collect()
    })
}

proptest! {
    /// Byte-level tokenizer round-trips arbitrary strings.
    #[test]
    fn tokenizer_round_trip(s in text()) {
        let t = Tokenizer::new();
        prop_assert_eq!(t.decode(&t.encode(&s)), s);
    }

    /// RoPE preserves norms and depends only on relative position, for
    /// arbitrary vectors and positions.
    #[test]
    fn rope_properties(
        x in prop::collection::vec(-3.0f32..3.0, 8),
        y in prop::collection::vec(-3.0f32..3.0, 8),
        p in 0usize..2000,
        s in 0usize..2000,
        shift in 0usize..500,
    ) {
        let rope = Rope::new(8, 10_000.0);
        let norm = |v: &[f32]| dot(v, v).sqrt();

        let mut xr = x.clone();
        rope.apply(&mut xr, p);
        prop_assert!((norm(&xr) - norm(&x)).abs() < 1e-3);

        // <R_p x, R_s y> == <R_{p+shift} x, R_{s+shift} y>
        let ip = |a_pos: usize, b_pos: usize| {
            let mut a = x.clone();
            let mut b = y.clone();
            rope.apply(&mut a, a_pos);
            rope.apply(&mut b, b_pos);
            dot(&a, &b)
        };
        let base = ip(p, s);
        let shifted = ip(p + shift, s + shift);
        prop_assert!((base - shifted).abs() < 2e-2, "{base} vs {shifted}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Prefilling token-by-token is exactly equivalent to one prefill call
    /// (the cache fully captures sequence state), for prompts of up to
    /// three chunks: the same logits and the same K/V bits in every layer.
    #[test]
    fn incremental_prefill_equals_batch(
        tokens in prop::collection::vec(0u32..255, 2..(2 * PREFILL_CHUNK + 20)),
    ) {
        let cfg = ModelConfig::tiny();
        let model = Model::new(cfg.clone());

        let mut all_at_once = FullKvBackend::new(&cfg);
        let a = model.prefill(&tokens, 0, &mut all_at_once);

        let mut stepwise = FullKvBackend::new(&cfg);
        let mut b = Vec::new();
        for (i, &t) in tokens.iter().enumerate() {
            b = model.forward_token(t, i, &mut stepwise);
        }
        prop_assert_eq!(a, b);
        for layer in 0..cfg.n_layers {
            prop_assert_eq!(all_at_once.seq_len(layer), tokens.len());
            for h in 0..cfg.n_kv_heads {
                let (x, y) = (all_at_once.cache().head(layer, h), stepwise.cache().head(layer, h));
                prop_assert_eq!(x.keys.as_flat(), y.keys.as_flat());
                prop_assert_eq!(x.values.as_flat(), y.values.as_flat());
            }
        }
    }

    /// Logits are always finite regardless of input tokens.
    #[test]
    fn logits_always_finite(tokens in prop::collection::vec(0u32..260, 1..10)) {
        let cfg = ModelConfig::tiny();
        let model = Model::new(cfg.clone());
        let mut backend = FullKvBackend::new(&cfg);
        let logits = model.prefill(&tokens, 0, &mut backend);
        prop_assert!(logits.iter().all(|v| v.is_finite()));
    }
}
