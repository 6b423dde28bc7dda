//! The scalar reference of `OnlineSoftmax`'s tile: the association the
//! `alaya_vector::softmax` module docs document, written out one element at
//! a time with no lane arrays, no slices of the accumulator and no helper
//! from the crate but `exp_approx`. `push_rows` and `push_ids` must equal it
//! bit for bit (`crates/vector/tests/softmax_bits.rs`), and the root
//! `tests/attention_paths.rs` builds its attention reference on it.

use alaya_vector::exp_approx;

const LANES: usize = 8;
/// Scores per tile: `push_rows` and `push_ids` cut their rows into tiles of
/// this many, starting at the first row of the call.
pub const TILE_ROWS: usize = 64;

/// A running `(max, sum, acc)` triple updated the way one tile updates it.
pub struct TileReference {
    pub max: f32,
    pub sum: f32,
    pub acc: Vec<f32>,
}

impl TileReference {
    pub fn new(dim: usize) -> Self {
        Self {
            max: f32::NEG_INFINITY,
            sum: 0.0,
            acc: vec![0.0; dim],
        }
    }

    /// Whether anything carried weight yet.
    pub fn is_empty(&self) -> bool {
        self.sum == 0.0
    }

    /// Absorbs one call's rows: `raw[j]` is `q · key_j` (bitwise `dot`) and
    /// `rows[j]` its value row, cut into tiles of [`TILE_ROWS`] from the
    /// start. Scores here never overflow to `+inf`.
    pub fn absorb_call(&mut self, raw: &[f32], scale: f32, rows: &[&[f32]]) {
        assert_eq!(raw.len(), rows.len());
        for (raw, rows) in raw.chunks(TILE_ROWS).zip(rows.chunks(TILE_ROWS)) {
            self.absorb_tile(raw, scale, rows);
        }
    }

    fn absorb_tile(&mut self, raw: &[f32], scale: f32, rows: &[&[f32]]) {
        let n = raw.len();
        let body = n - n % LANES;
        // 1. Scale, then the lane max: lane `i % 8` over the 8-aligned body,
        //    the lane maxima folded pairwise, then the tail left to right.
        let z: Vec<f32> = raw.iter().map(|&s| s * scale).collect();
        let mut lane = [f32::NEG_INFINITY; LANES];
        for i in 0..body {
            lane[i % LANES] = lane[i % LANES].max(z[i]);
        }
        let mut m = (lane[0].max(lane[1])).max(lane[2].max(lane[3]));
        m = m.max((lane[4].max(lane[5])).max(lane[6].max(lane[7])));
        for &zi in &z[body..] {
            m = m.max(zi);
        }
        if m == f32::NEG_INFINITY {
            return;
        }
        // 2. At most one rescale, by libm `exp(old − new)`.
        if m > self.max {
            let c = if self.max == f32::NEG_INFINITY {
                0.0
            } else {
                (self.max - m).exp()
            };
            self.sum *= c;
            for a in self.acc.iter_mut() {
                *a *= c;
            }
            self.max = m;
        }
        assert!(self.max.is_finite(), "the reference covers finite maxima");
        // 3. Polynomial weights, summed lane-wise like the max.
        let w: Vec<f32> = z.iter().map(|&zi| exp_approx(zi - self.max)).collect();
        let mut lane = [0.0f32; LANES];
        for i in 0..body {
            lane[i % LANES] += w[i];
        }
        let mut s = ((lane[0] + lane[1]) + (lane[2] + lane[3]))
            + ((lane[4] + lane[5]) + (lane[6] + lane[7]));
        for &wi in &w[body..] {
            s += wi;
        }
        self.sum += s;
        // 4. The weighted rows, one after another, into each element.
        for (k, a) in self.acc.iter_mut().enumerate() {
            for (wj, row) in w.iter().zip(rows) {
                *a += wj * row[k];
            }
        }
    }

    /// `acc / sum`, or zeros when nothing carried weight.
    pub fn output(&self) -> Vec<f32> {
        if self.sum == 0.0 {
            return vec![0.0; self.acc.len()];
        }
        self.acc.iter().map(|&a| a / self.sum).collect()
    }
}
