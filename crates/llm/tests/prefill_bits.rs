//! `Model::prefill` against the token-major reference in
//! `support/token_major.rs`, bit for bit: the logits and every (layer, KV
//! head) K/V row, on both configs, at lengths around one chunk, from
//! position 0 and after a prefix. Also the mix of `attend` and `append`
//! calls a prefill and a decode step make, and that a backend left on the
//! default `append` ends where `FullKvBackend` does.

#[path = "support/token_major.rs"]
mod token_major;

use alaya_llm::{
    AttentionBackend, FullKvBackend, KvCache, Model, ModelConfig, StepInput, PREFILL_CHUNK,
};
use token_major::TokenMajor;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every key and value row of `layer`'s KV heads up to `rows`, as bits.
fn cache_bits(kv: &KvCache, rows: usize) -> Vec<Vec<u32>> {
    (0..kv.n_layers())
        .flat_map(|layer| (0..kv.n_kv_heads()).map(move |h| (layer, h)))
        .flat_map(|(layer, h)| {
            let head = kv.head(layer, h);
            let d = head.keys.dim();
            [
                bits(&head.keys.as_flat()[..rows * d]),
                bits(&head.values.as_flat()[..rows * d]),
            ]
        })
        .collect()
}

/// `n` token ids spread over the byte vocabulary.
fn tokens(n: usize, salt: usize) -> Vec<u32> {
    (0..n)
        .map(|i| ((i * 7919 + salt * 104_729) % 256) as u32)
        .collect()
}

/// For each prompt length, a chunked prefill of the first `len` tokens
/// (after a `start`-token prefix, from position `start`) equals the
/// reference run over the longest prompt, cut at `len`: the logits it had
/// after that token, and the K/V rows up to it.
fn chunked_prefill_matches_the_reference(cfg: ModelConfig, start: usize) {
    assert_eq!(PREFILL_CHUNK, 64, "the lengths below straddle one chunk");
    let lens = [1, 63, 64, 65, 200];
    let (model, reference) = (Model::new(cfg.clone()), TokenMajor::new(&cfg));
    let (prefix, prompt) = (tokens(start, 1), tokens(lens[lens.len() - 1], 2));
    let mut after_prefix = FullKvBackend::new(&cfg);
    reference.prefill(&prefix, 0, &mut after_prefix);

    let mut want_kv = after_prefix.clone();
    let want: Vec<Vec<u32>> = (prompt.iter().enumerate())
        .map(|(i, &t)| bits(&reference.forward_token(t, start + i, &mut want_kv)))
        .collect();
    for len in lens {
        let mut got_kv = after_prefix.clone();
        let got = model.prefill(&prompt[..len], start, &mut got_kv);

        let at = format!("{} layers, {len} tokens from {start}", cfg.n_layers);
        assert_eq!(bits(&got), want[len - 1], "logits, {at}");
        let rows = start + len;
        assert_eq!(got_kv.seq_len(cfg.n_layers - 1), rows, "{at}");
        assert_eq!(
            cache_bits(got_kv.cache(), rows),
            cache_bits(want_kv.cache(), rows),
            "K/V, {at}"
        );
    }
}

#[test]
fn tiny_chunked_prefill_is_the_token_major_loop_bit_for_bit() {
    chunked_prefill_matches_the_reference(ModelConfig::tiny(), 0);
    chunked_prefill_matches_the_reference(ModelConfig::tiny(), 37);
}

// The small model costs ~70 ms a token in an unoptimised build, so its two
// starting positions are separate tests and run in parallel.

#[test]
fn small_chunked_prefill_from_zero_is_the_token_major_loop_bit_for_bit() {
    chunked_prefill_matches_the_reference(ModelConfig::small(), 0);
}

#[test]
fn small_chunked_prefill_after_a_prefix_is_the_token_major_loop_bit_for_bit() {
    chunked_prefill_matches_the_reference(ModelConfig::small(), 37);
}

/// A decode step is the one-token chunk: `forward_token` after a chunked
/// prefill equals the reference's.
#[test]
fn forward_token_is_the_token_major_step() {
    let cfg = ModelConfig::tiny();
    let (model, reference) = (Model::new(cfg.clone()), TokenMajor::new(&cfg));
    let prompt = tokens(70, 3);
    let mut got_kv = FullKvBackend::new(&cfg);
    let mut want_kv = FullKvBackend::new(&cfg);
    model.prefill(&prompt, 0, &mut got_kv);
    reference.prefill(&prompt, 0, &mut want_kv);
    for (i, t) in [5u32, 200, 17].into_iter().enumerate() {
        let got = model.forward_token(t, prompt.len() + i, &mut got_kv);
        let want = reference.forward_token(t, prompt.len() + i, &mut want_kv);
        assert_eq!(bits(&got), bits(&want), "step {i}");
    }
    let rows = prompt.len() + 3;
    assert_eq!(
        cache_bits(got_kv.cache(), rows),
        cache_bits(want_kv.cache(), rows)
    );
}

/// The prompt lengths of the call-mix tests, straddling one chunk.
const LENS: [usize; 5] = [1, 63, 64, 65, 200];

/// `FullKvBackend` counting its `attend` and `append` calls per layer.
struct Counting {
    inner: FullKvBackend,
    attends: Vec<usize>,
    appends: Vec<usize>,
}

impl Counting {
    fn new(inner: FullKvBackend, n_layers: usize) -> Self {
        Self {
            inner,
            attends: vec![0; n_layers],
            appends: vec![0; n_layers],
        }
    }
}

impl AttentionBackend for Counting {
    fn attend(&mut self, layer: usize, input: StepInput) -> Vec<Vec<f32>> {
        self.attends[layer] += 1;
        self.inner.attend(layer, input)
    }

    fn append(&mut self, layer: usize, input: StepInput) {
        self.appends[layer] += 1;
        self.inner.append(layer, input);
    }

    fn seq_len(&self, layer: usize) -> usize {
        self.inner.seq_len(layer)
    }
}

/// `FullKvBackend` behind the default `append`, which attends and
/// discards, as a backend written before `append` existed does.
struct AttendOnly(FullKvBackend);

impl AttentionBackend for AttendOnly {
    fn attend(&mut self, layer: usize, input: StepInput) -> Vec<Vec<f32>> {
        self.0.attend(layer, input)
    }

    fn seq_len(&self, layer: usize) -> usize {
        self.0.seq_len(layer)
    }
}

/// A backend holding `start` prefix tokens, prefilled by `model`.
fn after_prefix(model: &Model, cfg: &ModelConfig, start: usize) -> FullKvBackend {
    let mut kv = FullKvBackend::new(cfg);
    if start > 0 {
        model.prefill(&tokens(start, 1), 0, &mut kv);
    }
    kv
}

/// A prefill of `N` tokens over `L` layers attends all `N` rows at every
/// layer but the last, where only the final row attends and the other
/// `N − 1` append: `(L − 1)·N + 1` attends, `N − 1` appends. A decode step
/// then attends once per layer and appends nowhere.
#[test]
fn prefill_appends_all_but_the_final_row_at_the_last_layer() {
    let cfg = ModelConfig::tiny();
    let (model, l) = (Model::new(cfg.clone()), cfg.n_layers);
    for start in [0, 37] {
        for n in LENS {
            let at = format!("{n} tokens from {start}");
            let mut b = Counting::new(after_prefix(&model, &cfg, start), l);
            model.prefill(&tokens(n, 2), start, &mut b);
            assert_eq!(b.attends.iter().sum::<usize>(), (l - 1) * n + 1, "{at}");
            assert_eq!(b.appends.iter().sum::<usize>(), n - 1, "{at}");
            assert_eq!(
                b.appends[l - 1],
                n - 1,
                "every append at the last layer, {at}"
            );
            assert!((0..l).all(|layer| b.seq_len(layer) == start + n), "{at}");

            b.attends.fill(0);
            model.forward_token(9, start + n, &mut b);
            assert_eq!(b.attends, vec![1; l], "decode step after {at}");
            assert_eq!(b.appends[l - 1], n - 1, "decode step after {at}");
        }
    }
}

/// A backend that leaves `append` on its default ends a prefill, and a
/// decode step after it, with `FullKvBackend`'s logits and K/V bits.
#[test]
fn the_default_append_leaves_the_overriding_backends_state() {
    let cfg = ModelConfig::tiny();
    let model = Model::new(cfg.clone());
    for start in [0, 37] {
        for n in LENS {
            let at = format!("{n} tokens from {start}");
            let mut want = after_prefix(&model, &cfg, start);
            let mut got = AttendOnly(want.clone());
            let prompt = tokens(n, 2);
            let want_logits = model.prefill(&prompt, start, &mut want);
            let got_logits = model.prefill(&prompt, start, &mut got);
            assert_eq!(bits(&got_logits), bits(&want_logits), "logits, {at}");
            let want_step = model.forward_token(9, start + n, &mut want);
            let got_step = model.forward_token(9, start + n, &mut got);
            assert_eq!(bits(&got_step), bits(&want_step), "decode step, {at}");
            let rows = start + n + 1;
            assert_eq!(
                cache_bits(got.0.cache(), rows),
                cache_bits(want.cache(), rows),
                "K/V, {at}"
            );
        }
    }
}
