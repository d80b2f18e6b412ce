//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files around its calls into
//! each layer, never from inside the library. Each span carries the id of
//! the request (or sweep operation) it belongs to, so every span of one
//! replayed request shares an identifier. Spans stay in memory and are
//! written out once, when the run ends. A span's self time is its duration
//! minus the time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed span; times are nanoseconds from the tracer's epoch.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    pub name: &'static str,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time covered by direct children.
    pub child_ns: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn self_ns(&self) -> u64 {
        self.dur_ns().saturating_sub(self.child_ns)
    }
}

/// A single-threaded span stack. Threads each own one and are merged
/// with [`Tracer::absorb`] after they join. A disabled tracer records
/// nothing, so traced and untraced passes run the same code.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    recs: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant, on: bool) -> Tracer {
        Tracer {
            epoch,
            on,
            recs: Vec::new(),
            open: Vec::new(),
        }
    }

    /// An empty tracer with the same epoch and switch, for another thread.
    pub fn child(&self) -> Tracer {
        Tracer::new(self.epoch, self.on)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; returns its handle.
    pub fn open(&mut self, id: u64, name: &'static str) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let start_ns = self.now_ns();
        let idx = self.recs.len();
        self.recs.push(SpanRec {
            id,
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            child_ns: 0,
        });
        self.open.push(idx);
        idx
    }

    /// Close the innermost span (which must be `idx`); returns its
    /// duration in nanoseconds.
    pub fn close(&mut self, idx: usize) -> u64 {
        if !self.on {
            return 0;
        }
        assert_eq!(self.open.pop(), Some(idx), "spans close innermost first");
        let end = self.now_ns();
        let rec = &mut self.recs[idx];
        rec.end_ns = end;
        let dur = rec.dur_ns();
        if let Some(p) = rec.parent {
            self.recs[p].child_ns += dur;
        }
        dur
    }

    /// Time `f` as one span.
    pub fn time<R>(&mut self, id: u64, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let s = self.open(id, name);
        let r = f();
        (r, self.close(s))
    }

    /// Move another tracer's closed spans into this one.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbed tracer has open spans");
        let off = self.recs.len();
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.recs.extend(other.recs.into_iter().map(|mut r| {
            r.parent = r.parent.map(|p| p + off);
            r.start_ns += shift;
            r.end_ns += shift;
            r
        }));
    }

    pub fn recs(&self) -> &[SpanRec] {
        &self.recs
    }

    /// Self time of every span called `name`, summed per id.
    pub fn self_by_id(&self, name: &str) -> BTreeMap<u64, u64> {
        let mut out = BTreeMap::new();
        for r in self.recs.iter().filter(|r| r.name == name) {
            *out.entry(r.id).or_insert(0) += r.self_ns();
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, r) in self.recs.iter().enumerate() {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"id\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                r.id,
                r.name,
                r.start_ns,
                r.end_ns,
                r.self_ns()
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
        let mut t = Tracer::new(Instant::now(), true);
        let outer = t.open(7, "outer");
        let inner = t.open(7, "inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let d_in = t.close(inner);
        let d_out = t.close(outer);
        let recs = t.recs();
        assert_eq!(recs[1].parent, Some(0));
        assert_eq!(recs[0].child_ns, d_in);
        assert_eq!(recs[0].self_ns(), d_out - d_in);
        assert!(t.self_by_id("inner")[&7] >= 2_000_000);
        assert_eq!(
            t.self_by_id("outer").keys().copied().collect::<Vec<_>>(),
            vec![7]
        );
    }

    #[test]
    fn absorb_keeps_parent_links() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, true);
        let s = a.open(1, "a");
        a.close(s);
        let mut b = Tracer::new(epoch, true);
        let p = b.open(2, "b");
        let c = b.open(2, "c");
        b.close(c);
        b.close(p);
        a.absorb(b);
        assert_eq!(a.recs()[2].parent, Some(1));
    }
}
