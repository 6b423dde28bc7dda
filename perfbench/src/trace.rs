//! The benchmark's own span recorder.
//!
//! Spans are recorded from outside the program, around the calls into each
//! layer: `request → admit | prefill | decode | store | close`,
//! `prefill/decode → forward`, `forward → attend(layer)`. Each client
//! thread owns one [`Tracer`] (no sharing, no locks); spans stay in memory
//! until the run ends. A span's self time is its duration minus the time
//! its direct children cover.

use std::io::Write;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Request,
    Admit,
    Prefill,
    Decode,
    Forward,
    Attend,
    Store,
    Close,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Request => "request",
            Kind::Admit => "admit",
            Kind::Prefill => "prefill",
            Kind::Decode => "decode",
            Kind::Forward => "forward_token",
            Kind::Attend => "attend",
            Kind::Store => "store",
            Kind::Close => "close",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: Kind,
    /// Transformer layer for `Attend`, 0 otherwise.
    pub layer: u8,
    /// Request number within the client; spans of one request share it.
    pub request: u32,
    /// Index of the causing span in the same tracer, or `NO_PARENT`.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::open`]; `None` inside when tracing is off.
#[derive(Clone, Copy)]
pub struct Open(Option<u32>);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    request: u32,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    /// `epoch` is shared by all clients so dumped timestamps line up.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Self {
            enabled,
            epoch,
            request: 0,
            stack: Vec::new(),
            // Reserved up front so growth never lands inside a timed span.
            spans: Vec::with_capacity(if enabled { 1 << 20 } else { 0 }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn set_request(&mut self, request: u32) {
        self.request = request;
    }

    pub fn open(&mut self, kind: Kind, layer: usize) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            kind,
            layer: layer as u8,
            request: self.request,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn close(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end_ns = self.now_ns();
        self.spans[idx as usize].end_ns = end_ns;
        // A failed request unwinds past its inner spans; closing an outer
        // span closes whatever is still open inside it.
        while let Some(top) = self.stack.pop() {
            if top == idx {
                break;
            }
            self.spans[top as usize].end_ns = end_ns;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: duration minus the duration of its direct
/// children. Children are recorded after their parent, so one pass does it.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Per request: the share of the request span covered by named leaf work
/// (admit, forward_token incl. attend, store, close) — one minus the self
/// time of the `request`, `prefill` and `decode` spans.
pub fn accounted_ratios(spans: &[Span]) -> Vec<f64> {
    let own = self_times_ns(spans);
    let mut out = Vec::new();
    let mut i = 0;
    while i < spans.len() {
        if spans[i].kind != Kind::Request {
            i += 1;
            continue;
        }
        let total = spans[i].dur_ns();
        let request = spans[i].request;
        let mut unaccounted = own[i];
        i += 1;
        while i < spans.len() && spans[i].kind != Kind::Request && spans[i].request == request {
            if matches!(spans[i].kind, Kind::Prefill | Kind::Decode) {
                unaccounted += own[i];
            }
            i += 1;
        }
        if total > 0 {
            out.push(1.0 - unaccounted as f64 / total as f64);
        }
    }
    out
}

/// Writes spans as tab-separated lines:
/// `client span parent request name layer start_ns end_ns`.
pub fn dump(path: &std::path::Path, tracers: &[Tracer], limit: usize) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "client\tspan\tparent\trequest\tname\tlayer\tstart_ns\tend_ns"
    )?;
    for (client, t) in tracers.iter().enumerate() {
        for (idx, s) in t.spans().iter().enumerate().take(limit) {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{client}\t{idx}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.request,
                s.kind.name(),
                s.layer,
                s.start_ns,
                s.end_ns
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            kind,
            layer: 0,
            request: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        // request[0,100] { admit[0,10], decode[10,90] { forward[12,50] {
        // attend[20,40] }, forward[50,88] }, close[90,95] }
        let spans = vec![
            span(Kind::Request, NO_PARENT, 0, 100),
            span(Kind::Admit, 0, 0, 10),
            span(Kind::Decode, 0, 10, 90),
            span(Kind::Forward, 2, 12, 50),
            span(Kind::Attend, 3, 20, 40),
            span(Kind::Forward, 2, 50, 88),
            span(Kind::Close, 0, 90, 95),
        ];
        assert_eq!(self_times_ns(&spans), vec![5, 10, 4, 18, 20, 38, 5]);
        // Unaccounted: request self 5 + decode self 4 of 100.
        let ratios = accounted_ratios(&spans);
        assert_eq!(ratios.len(), 1);
        assert!((ratios[0] - 0.91).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_closes_through_an_unwound_child() {
        let mut t = Tracer::new(true, Instant::now());
        t.set_request(3);
        let r = t.open(Kind::Request, 0);
        let f = t.open(Kind::Forward, 0);
        let a = t.open(Kind::Attend, 2);
        t.close(a);
        t.close(f);
        let _lost = t.open(Kind::Decode, 0);
        t.close(r);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, NO_PARENT);
        assert_eq!(s[1].parent, 0);
        assert_eq!((s[2].parent, s[2].layer, s[2].request), (1, 2, 3));
        assert_eq!(s[3].parent, 0);
        assert_eq!(s[3].end_ns, s[0].end_ns);
        assert!(t.stack.is_empty());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let r = t.open(Kind::Request, 0);
        t.close(r);
        assert!(t.spans().is_empty());
    }
}
