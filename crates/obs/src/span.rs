//! Scoped wall-clock span timers for the `taskbench profile` front door.
//!
//! Disabled by default: [`span`] costs one atomic load and returns an
//! inert guard. When [`enable`]d, spans nest via a thread-local stack and
//! record `(name, depth, start, total, self)` tuples; [`drain`] takes the
//! calling thread's records for rendering as a flat top-N self-time table
//! ([`self_time_table`]) or a Chrome-trace timeline.
//!
//! This module is the **only** place in the workspace where wall-clock
//! time enters observability output; see the crate docs for the
//! determinism contract.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn span recording on (process-wide) for the calling thread's
/// subsequently opened spans.
pub fn enable() {
    // relaxed-ok: a lone on/off flag guarding thread-local state; no
    // cross-thread data is published through it.
    ENABLED.store(true, Relaxed);
}

/// Turn span recording off.
pub fn disable() {
    // relaxed-ok: same lone-flag contract as enable().
    ENABLED.store(false, Relaxed);
}

/// One closed span, times in nanoseconds relative to the thread's first
/// recorded span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    pub name: &'static str,
    /// Nesting depth at open time (0 = top level).
    pub depth: u16,
    pub start_ns: u64,
    /// Inclusive duration.
    pub total_ns: u64,
    /// Duration minus time spent in child spans.
    pub self_ns: u64,
}

struct OpenSpan {
    name: &'static str,
    depth: u16,
    start: Instant,
    child_ns: u64,
}

#[derive(Default)]
struct ProfState {
    epoch: Option<Instant>,
    stack: Vec<OpenSpan>,
    recs: Vec<SpanRec>,
}

thread_local! {
    static PROF: RefCell<ProfState> = RefCell::default();
}

/// RAII guard for one timed scope; records on drop when profiling was
/// enabled at open time.
pub struct Span {
    active: bool,
}

/// Open a timed scope. Inert (a single atomic load) unless [`enable`]d.
pub fn span(name: &'static str) -> Span {
    // relaxed-ok: reading the lone on/off flag; spans it gates are
    // recorded into thread-local state only.
    if !ENABLED.load(Relaxed) {
        return Span { active: false };
    }
    PROF.with(|p| {
        let mut p = p.borrow_mut();
        let now = Instant::now();
        p.epoch.get_or_insert(now);
        let depth = p.stack.len() as u16;
        p.stack.push(OpenSpan {
            name,
            depth,
            start: now,
            child_ns: 0,
        });
    });
    Span { active: true }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        PROF.with(|p| {
            let mut p = p.borrow_mut();
            let Some(open) = p.stack.pop() else { return };
            let total_ns = open.start.elapsed().as_nanos() as u64;
            let epoch = p.epoch.expect("epoch set when first span opened");
            let start_ns = open.start.duration_since(epoch).as_nanos() as u64;
            if let Some(parent) = p.stack.last_mut() {
                parent.child_ns += total_ns;
            }
            p.recs.push(SpanRec {
                name: open.name,
                depth: open.depth,
                start_ns,
                total_ns,
                self_ns: total_ns.saturating_sub(open.child_ns),
            });
        });
    }
}

/// Take (and clear) the calling thread's closed spans, in close order.
pub fn drain() -> Vec<SpanRec> {
    PROF.with(|p| {
        let mut p = p.borrow_mut();
        p.epoch = None;
        std::mem::take(&mut p.recs)
    })
}

/// One row of the flat profile: a span name aggregated over all its
/// occurrences.
#[derive(Debug, Clone, Copy)]
pub struct SelfTime {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Aggregate records by name and sort by descending self time (name as
/// the tie-break so equal-self rows render stably).
pub fn self_time_table(recs: &[SpanRec]) -> Vec<SelfTime> {
    let mut rows: Vec<SelfTime> = Vec::new();
    for r in recs {
        match rows.iter_mut().find(|row| row.name == r.name) {
            Some(row) => {
                row.count += 1;
                row.total_ns += r.total_ns;
                row.self_ns += r.self_ns;
            }
            None => rows.push(SelfTime {
                name: r.name,
                count: 1,
                total_ns: r.total_ns,
                self_ns: r.self_ns,
            }),
        }
    }
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `ENABLED` is process-wide: the tests that flip it must not overlap.
    static FLAG: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disabled_spans_record_nothing() {
        let _flag = FLAG.lock().unwrap_or_else(|e| e.into_inner());
        disable();
        drain();
        {
            let _s = span("outer");
        }
        assert!(drain().is_empty());
    }

    #[test]
    fn nested_spans_attribute_self_time() {
        let _flag = FLAG.lock().unwrap_or_else(|e| e.into_inner());
        enable();
        drain();
        {
            let _a = span("outer");
            {
                let _b = span("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        disable();
        let recs = drain();
        assert_eq!(recs.len(), 2);
        // Close order: inner first.
        assert_eq!(recs[0].name, "inner");
        assert_eq!(recs[0].depth, 1);
        assert_eq!(recs[1].name, "outer");
        assert_eq!(recs[1].depth, 0);
        assert!(recs[1].total_ns >= recs[0].total_ns);
        assert!(recs[1].self_ns <= recs[1].total_ns - recs[0].total_ns);
        let table = self_time_table(&recs);
        assert_eq!(table.len(), 2);
        assert_eq!(table[0].name, "inner", "inner dominates self time");
    }
}
