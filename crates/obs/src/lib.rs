#![forbid(unsafe_code)]
//! `dagsched-obs` — observability primitives for the scheduler stack.
//!
//! Bottom-of-stack and std-only (like `dagsched-ws`): every other crate may
//! depend on this one, and this one depends on nothing. Three layers:
//!
//! 1. **Event tracing** ([`Sink`], [`Event`]) — schedulers emit typed
//!    per-decision events (task selected, placement committed, cluster
//!    merged, message routed, BSA trial verdict, B&B expand/prune, cone
//!    repair extent). The sink is a *generic* parameter on each scheduler's
//!    internal run function, so with the [`NullSink`] — whose `enabled()`
//!    is an `#[inline(always)] false` — the event construction is dead code
//!    the optimizer removes entirely. Events carry **logical step stamps
//!    only** (the sink's own event index), never wall-clock time, so a
//!    recorded trace is byte-deterministic across runs and thread counts.
//! 2. **Chrome-trace export** ([`chrome::ChromeTrace`]) — renders a
//!    recorded event stream and a schedule's Gantt timeline as Trace Event
//!    JSON (loadable in `chrome://tracing` or Perfetto) for
//!    `taskbench trace`. Timestamps are logical, so the file is as
//!    deterministic as the events.
//! 3. **Counter/histogram registry** ([`registry::Registry`]) — a fixed
//!    enum of process-wide metrics backed by sharded relaxed atomics plus
//!    fixed-bucket log₂ histograms ([`hist::LogHist`]). Hot paths
//!    accumulate in plain locals and flush once per run/teardown; the
//!    registry itself is only touched at flush points or for coarse
//!    (per-placement and slower) happenings. `taskbench profile` prints
//!    its counter delta and histograms beside the two stage timings it
//!    measures itself.
//!
//! This crate never reads the wall clock.

pub mod chrome;
pub mod env;
pub mod event;
pub mod hist;
pub mod registry;

pub use chrome::{ArgVal, ChromeTrace};
pub use event::{Event, PruneBound, TrialVerdict};
pub use hist::LogHist;
pub use registry::{global, Counter, HistId, Metric, Registry, Snapshot};

/// Receiver for scheduler trace events.
///
/// Implementations must keep `enabled()` trivially inlinable: instrumented
/// code guards every emission with it (via [`emit!`]) so that payload
/// construction is skipped — and for [`NullSink`], statically removed —
/// when tracing is off.
pub trait Sink {
    /// Whether events should be constructed and delivered at all.
    fn enabled(&self) -> bool;
    /// Deliver one event. The sink assigns the logical step stamp
    /// (its own running event count); callers never pass time.
    fn emit(&mut self, ev: Event);
}

/// Forwarding impl so a `&mut dyn Sink` (the object-safe
/// `schedule_traced` entry point) can flow into the monomorphized
/// `run<S: Sink>` internals.
impl<S: Sink + ?Sized> Sink for &mut S {
    #[inline(always)]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }
    #[inline(always)]
    fn emit(&mut self, ev: Event) {
        (**self).emit(ev)
    }
}

/// The disabled sink: `enabled()` is a compile-time `false`, so every
/// `emit!` guarded by it is dead code after monomorphization. This is the
/// "zero-cost" in zero-cost tracing, and it holds by construction: the
/// `sink-via-emit` lint rule forbids calling [`Sink::emit`] directly
/// outside this crate, so every delivery sits behind the guard.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl Sink for NullSink {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }
    #[inline(always)]
    fn emit(&mut self, _ev: Event) {}
}

/// In-memory sink: records every event in order. The index of an event in
/// [`MemSink::events`] *is* its logical step stamp.
#[derive(Debug, Default)]
pub struct MemSink {
    pub events: Vec<Event>,
}

impl MemSink {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Sink for MemSink {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }
    #[inline]
    fn emit(&mut self, ev: Event) {
        self.events.push(ev);
    }
}

/// Guarded event emission: evaluates the event expression only when the
/// sink is enabled. With [`NullSink`] the whole statement compiles away.
///
/// ```
/// use dagsched_obs::{emit, Event, MemSink, NullSink, Sink};
/// let mut mem = MemSink::new();
/// emit!(&mut mem, Event::BnbExpanded { depth: 3 });
/// assert_eq!(mem.events.len(), 1);
/// let mut off = NullSink;
/// emit!(&mut off, Event::BnbExpanded { depth: panic!("never built") });
/// ```
#[macro_export]
macro_rules! emit {
    ($sink:expr, $ev:expr) => {
        if $crate::Sink::enabled(&*$sink) {
            $crate::Sink::emit($sink, $ev);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_never_evaluates_payload() {
        let mut s = NullSink;
        let mut evaluated = false;
        emit!(&mut s, {
            evaluated = true;
            Event::BnbExpanded { depth: 0 }
        });
        assert!(!evaluated);
    }

    #[test]
    fn mem_sink_records_in_order() {
        let mut s = MemSink::new();
        emit!(&mut s, Event::BnbExpanded { depth: 1 });
        emit!(&mut s, Event::BnbExpanded { depth: 2 });
        assert_eq!(
            s.events,
            vec![
                Event::BnbExpanded { depth: 1 },
                Event::BnbExpanded { depth: 2 }
            ]
        );
    }

    #[test]
    fn dyn_sink_forwards_through_the_blanket_impl() {
        fn run<S: Sink>(sink: &mut S) {
            emit!(sink, Event::BnbExpanded { depth: 7 });
        }
        let mut mem = MemSink::new();
        {
            let mut dyn_sink: &mut dyn Sink = &mut mem;
            run(&mut dyn_sink);
        }
        assert_eq!(mem.events.len(), 1);
    }
}
