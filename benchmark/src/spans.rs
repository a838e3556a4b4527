//! In-memory spans recorded by the benchmark around each public call into
//! a layer: `{name, start_ns, end_ns, parent, rep}`. A layer's self time
//! is its span's duration minus the part its child spans cover.
//!
//! A disabled recorder reads no clock, so the timed pass pays nothing.

use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder was made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name (module path plus call), e.g. `sim.engine.run`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns (`0` while the span is open).
    pub end_ns: u64,
    /// Index of the span that caused this one, `None` for a root.
    pub parent: Option<usize>,
    /// The repetition the span belongs to: spans of one repetition share it.
    pub rep: u32,
}

/// Records spans into memory; written out when the benchmark ends.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    rep: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder; when `enabled` is false every call is a no-op.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            rep: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Sets the repetition id stamped on spans opened from now on.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = end_ns;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, index-aligned with [`Self::spans`]:
    /// duration minus the durations of its direct children.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns.saturating_sub(s.start_ns));
            }
        }
        own
    }

    /// Self time in seconds of the spans called `name` in repetition
    /// `rep`, summed; `0` if it recorded none.
    pub fn self_secs(&self, name: &str, rep: u32) -> f64 {
        let own = self.self_times_ns();
        let ns: u64 = self
            .spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name && s.rep == rep)
            .map(|(_, ns)| ns)
            .sum();
        ns as f64 / 1e9
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"rep\":{}}}",
                s.name, s.start_ns, s.end_ns, s.rep
            ));
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built fixture, so the arithmetic is exact.
    fn fixture() -> Spans {
        let span = |name, start_ns, end_ns, parent, rep| Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep,
        };
        Spans {
            enabled: true,
            origin: Instant::now(),
            rep: 0,
            open: Vec::new(),
            spans: vec![
                span("root", 0, 1_000, None, 1),
                span("a", 100, 400, Some(0), 1),
                span("a.inner", 150, 250, Some(1), 1),
                span("b", 500, 900, Some(0), 1),
                span("root", 2_000, 2_600, None, 2),
                span("a", 2_100, 2_200, Some(4), 2),
            ],
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let s = fixture();
        assert_eq!(s.self_times_ns(), vec![300, 200, 100, 400, 500, 100]);
    }

    #[test]
    fn nested_self_times_sum_to_their_root() {
        let s = fixture();
        let own = s.self_times_ns();
        for rep in [1, 2] {
            let total: u64 = s
                .spans()
                .iter()
                .zip(&own)
                .filter(|(sp, _)| sp.rep == rep)
                .map(|(_, ns)| ns)
                .sum();
            let root = s
                .spans()
                .iter()
                .find(|sp| sp.rep == rep && sp.parent.is_none())
                .expect("one root per rep");
            assert_eq!(total, root.end_ns - root.start_ns);
        }
        assert_eq!(
            (
                s.self_secs("a", 1),
                s.self_secs("a", 2),
                s.self_secs("b", 2)
            ),
            (200e-9, 100e-9, 0.0)
        );
    }

    #[test]
    fn enter_exit_nest_and_a_disabled_recorder_records_nothing() {
        let mut s = Spans::new(true);
        s.set_rep(7);
        s.enter("outer");
        s.enter("inner");
        s.exit();
        s.exit();
        let [outer, inner] = s.spans() else {
            panic!("two spans")
        };
        assert_eq!((outer.parent, inner.parent), (None, Some(0)));
        assert_eq!((outer.rep, inner.rep), (7, 7));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        serde_json::parse(&s.to_json()).expect("spans render as valid JSON");

        let mut off = Spans::new(false);
        off.enter("x");
        off.exit();
        assert!(off.spans().is_empty());
    }
}
