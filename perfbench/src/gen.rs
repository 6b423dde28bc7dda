//! Seeded input generation. `--seed` drives context tokens, prompt
//! lengths, suffixes and branch points; the program under test only ever
//! sees the generated token ids.

use crate::workload::{Shape, Spec};

/// SplitMix64 — tiny, seedable, and independent of the repo's RNG shims so
/// the benchmark's inputs cannot drift with them.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// One stream per `(seed, purpose, client)`, decorrelated by mixing.
    pub fn stream(seed: u64, purpose: u64, client: u64) -> Self {
        let mut r = Rng(seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r.0 ^= client.wrapping_mul(0xD1B5_4A32_D192_ED03);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// An ordinary (byte) token id; the tokenizer's specials start at 256.
    pub fn token(&mut self) -> u32 {
        (self.next_u64() % 256) as u32
    }

    pub fn tokens(&mut self, n: usize) -> Vec<u32> {
        (0..n).map(|_| self.token()).collect()
    }
}

/// Stream purposes (the second argument of [`Rng::stream`]).
pub const CONTEXTS: u64 = 1;
pub const WARMUP: u64 = 2;
pub const MEASURED: u64 = 3;
pub const CHECK: u64 = 4;
pub const TRACED: u64 = 5;

/// The stored contexts of a workload, identical for every stream purpose.
pub fn contexts(spec: &Spec, seed: u64) -> Vec<Vec<u32>> {
    (0..spec.n_contexts)
        .map(|i| Rng::stream(seed, CONTEXTS, i as u64).tokens(spec.context_len))
        .collect()
}

/// One request as the engine sees it.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    pub prompt: Vec<u32>,
    /// `note_tokens` + blocking `ServeEngine::store` after the last token.
    pub store: bool,
}

/// A client's request stream. `next` may depend on the previous request's
/// output tokens (conversations extend what the model said).
pub struct Script {
    shape: Shape,
    rng: Rng,
    client: usize,
    purpose: u64,
    issued: usize,
    contexts: Vec<Vec<u32>>,
    /// `store_reuse`: the running conversation's tokens (prompt + outputs).
    history: Vec<u32>,
    turn: usize,
    conversation: usize,
}

impl Script {
    pub fn new(spec: &Spec, seed: u64, purpose: u64, client: usize, contexts: &[Vec<u32>]) -> Self {
        Self {
            shape: spec.shape,
            rng: Rng::stream(seed, purpose, client as u64),
            client,
            purpose,
            issued: 0,
            contexts: contexts.to_vec(),
            history: Vec::new(),
            turn: 0,
            conversation: 0,
        }
    }

    /// The next request; `prev_output` is the previous request's output
    /// tokens (empty before the first request).
    pub fn next(&mut self, prev_output: &[u32]) -> Request {
        let i = self.issued;
        self.issued += 1;
        match self.shape {
            Shape::Chat {
                prompt_min,
                prompt_max,
            } => {
                let n = self.rng.range(prompt_min, prompt_max);
                Request {
                    prompt: self.rng.tokens(n),
                    store: false,
                }
            }
            Shape::Long { suffix } => {
                // Clients alternate contexts, offset by client, so some
                // batches hold two requests on one context (shared plan).
                let mut prompt = self.contexts[(self.client + i) % self.contexts.len()].clone();
                prompt.extend(self.rng.tokens(suffix));
                Request {
                    prompt,
                    store: false,
                }
            }
            Shape::Reuse {
                turns,
                new_tokens,
                branch_every,
                branch_at_pct,
            } => {
                self.history.extend_from_slice(prev_output);
                if self.turn == turns {
                    self.turn = 0;
                    self.history.clear();
                    self.conversation += 1;
                }
                let fresh = self.rng.tokens(new_tokens);
                if self.turn == 0 {
                    // Three leading tokens spell an id unique to this
                    // (conversation, purpose, client), so two conversations
                    // never share more than two tokens.
                    let id = (self.conversation * 8 + self.purpose as usize) * 2 + self.client;
                    self.history = fresh;
                    for (i, t) in self.history.iter_mut().take(3).enumerate() {
                        *t = (id >> (8 * i) & 0xff) as u32;
                    }
                } else if (self.turn + 1).is_multiple_of(branch_every) {
                    // Partial reuse: keep a prefix of the stored context and
                    // diverge from it at the cut.
                    let cut = self.history.len() * branch_at_pct / 100;
                    let was = self.history[cut];
                    self.history.truncate(cut);
                    self.history.extend(fresh);
                    if self.history[cut] == was {
                        self.history[cut] = (was + 1) % 256;
                    }
                } else {
                    self.history.extend(fresh);
                }
                self.turn += 1;
                Request {
                    prompt: self.history.clone(),
                    store: true,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::spec;

    fn first_requests(name: &str, seed: u64, client: usize) -> Vec<Request> {
        let spec = spec(name, true).unwrap();
        let ctx = contexts(&spec, seed);
        let mut script = Script::new(&spec, seed, MEASURED, client, &ctx);
        let mut out = Vec::new();
        let mut prev: Vec<u32> = Vec::new();
        for i in 0..12 {
            let r = script.next(&prev);
            // Stand-in for model output: deterministic, prompt-dependent.
            prev = (0..4)
                .map(|j| (r.prompt.len() as u32 + i + j) % 256)
                .collect();
            out.push(r);
        }
        out
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for name in crate::workload::names() {
            assert_eq!(first_requests(name, 7, 0), first_requests(name, 7, 0));
            assert_ne!(first_requests(name, 7, 0), first_requests(name, 8, 0));
            assert_ne!(first_requests(name, 7, 0), first_requests(name, 7, 1));
        }
        let spec = spec("long_dipr", true).unwrap();
        assert_eq!(contexts(&spec, 3), contexts(&spec, 3));
        assert_ne!(contexts(&spec, 3), contexts(&spec, 4));
    }

    #[test]
    fn long_workloads_share_inputs_byte_for_byte() {
        assert_eq!(
            first_requests("long_dipr", 5, 1),
            first_requests("long_coarse", 5, 1)
        );
    }

    #[test]
    fn reuse_conversations_extend_then_branch() {
        let reqs = first_requests("store_reuse", 11, 0);
        let Shape::Reuse {
            turns, new_tokens, ..
        } = spec("store_reuse", true).unwrap().shape
        else {
            panic!("store_reuse is a Reuse shape");
        };
        assert_eq!(reqs[0].prompt.len(), new_tokens);
        // Turn 2 extends turn 1's prompt + output.
        assert!(reqs[1].prompt.starts_with(&reqs[0].prompt));
        assert_eq!(reqs[1].prompt.len(), 2 * new_tokens + 4);
        // Turn 3 branches: shares a strict prefix with turn 2's history,
        // then diverges exactly at the cut.
        let cut = (reqs[1].prompt.len() + 4) * 60 / 100;
        assert_eq!(reqs[2].prompt[..cut], reqs[1].prompt[..cut]);
        assert_ne!(reqs[2].prompt.get(cut), reqs[1].prompt.get(cut));
        assert_eq!(reqs[2].prompt.len(), cut + new_tokens);
        // A new conversation starts after `turns` turns.
        assert_eq!(reqs[turns].prompt.len(), new_tokens);
        assert_ne!(reqs[turns].prompt[..3], reqs[0].prompt[..3]);
    }
}
