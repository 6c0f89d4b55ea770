//! The benchmark's own span recorder, used only by traced runs. Spans are
//! opened and closed around calls into each layer's public entry point,
//! kept in memory, and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// Per-name totals derived from the recorded spans.
#[derive(Clone, Copy, Default)]
pub struct LayerTime {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
    enabled: bool,
}

impl Recorder {
    /// A recorder; a disabled one records nothing (the untraced replay).
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            enabled,
        }
    }

    /// Tags the spans opened from now on with a request id.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Opens a span named `name` under the innermost open one; close it
    /// with [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(index);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if let Some(index) = self.open.pop() {
            self.spans[index].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        self.begin(name);
        let out = f(self);
        self.end();
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Calls, total and self time per span name. Self time is a span's
    /// duration minus the durations of its direct children.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Writes every span as a tab-separated line:
    /// `request  name  start_ns  end_ns  parent_index`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "request\tname\tstart_ns\tend_ns\tparent")?;
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{parent}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new(true);
        rec.span("outer", |rec| {
            rec.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let t = rec.layer_times();
        let (outer, inner) = (t["outer"], t["inner"]);
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.span("x", |_| 3), 3);
        assert!(rec.layer_times().is_empty());
    }
}
