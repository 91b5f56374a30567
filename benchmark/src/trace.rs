//! The harness's own span recorder: spans are taken around the calls into
//! each layer, kept in memory, and written out in Chrome-trace format
//! when the run ends. (Spans inside the program are a later issue.)

use std::collections::BTreeMap;

/// One recorded interval. Times are seconds since the run's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`request`, `llm.prefill`, `sched.step`, ...).
    pub name: &'static str,
    /// Identifier shared by all spans of one request.
    pub req: u64,
    /// Start time.
    pub start: f64,
    /// End time.
    pub end: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

/// An append-only list of spans (one per recording thread; merged with
/// [`Recorder::absorb`]).
#[derive(Debug, Default)]
pub struct Recorder {
    /// The spans, parents before children.
    pub spans: Vec<Span>,
}

impl Recorder {
    /// Records a span and returns its index (the `parent` of children).
    pub fn add(
        &mut self,
        name: &'static str,
        req: u64,
        start: f64,
        end: f64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            req,
            start,
            end,
            parent,
        });
        self.spans.len() - 1
    }

    /// Appends another recorder's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span: its duration minus the part of it that its
    /// direct children cover (children are clipped to the parent and, being
    /// sequential stages, do not overlap each other).
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let covered = s.end.min(parent.end) - s.start.max(parent.start);
                own[p] -= covered.max(0.0);
            }
        }
        own
    }

    /// Self times in milliseconds grouped by span name.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            by.entry(s.name).or_default().push(own * 1e3);
        }
        by
    }

    /// Chrome Trace Event Format (complete events, µs; one track per
    /// request), loadable in Perfetto or `chrome://tracing`.
    pub fn chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"benchmark\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
                    s.name,
                    s.req,
                    s.start * 1e6,
                    (s.end - s.start) * 1e6
                )
            })
            .collect();
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut r = Recorder::default();
        let root = r.add("request", 1, 0.0, 10.0, None);
        let wait = r.add("wait_first_token", 1, 1.0, 5.0, Some(root));
        r.add("llm.queue", 1, 1.0, 2.0, Some(wait));
        r.add("llm.prefill", 1, 2.0, 4.5, Some(wait));
        r.add("stream", 1, 5.0, 9.0, Some(root));
        let own = r.self_times();
        assert_eq!(own, vec![2.0, 0.5, 1.0, 2.5, 4.0]);
        // Grandchildren are charged to their parent only.
        assert_eq!(own.iter().sum::<f64>(), 10.0);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let mut r = Recorder::default();
        let root = r.add("stream", 2, 2.0, 4.0, None);
        r.add("llm.decode", 2, 1.0, 3.0, Some(root)); // starts before the parent
        r.add("late", 2, 5.0, 6.0, Some(root)); // wholly outside
        assert_eq!(r.self_times()[0], 1.0);
    }

    #[test]
    fn absorb_rebases_parent_links_and_groups_by_name() {
        let mut a = Recorder::default();
        a.add("request", 1, 0.0, 1.0, None);
        let mut b = Recorder::default();
        let root = b.add("request", 2, 0.0, 3.0, None);
        b.add("stream", 2, 1.0, 3.0, Some(root));
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
        let by = a.self_ms_by_name();
        assert_eq!(by["request"], vec![1000.0, 1000.0]);
        assert_eq!(by["stream"], vec![2000.0]);
        let json = a.chrome_json();
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        assert!(tmac_serve::Json::parse(&json).is_ok());
    }
}
