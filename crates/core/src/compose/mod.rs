//! # Composable list schedulers — the §3 taxonomy as a component library
//!
//! The paper describes its six BNP algorithms as points in a small design
//! space: a priority attribute, a list dynamism, a slot policy and a
//! selection rule. This module makes that literal. A [`Spec`] picks one
//! value per axis, and [`ComposedScheduler`] runs a single driver
//! (the private `driver` submodule) generic over the tuple — reusing the
//! existing
//! [`ReadyQueue`](crate::common::ReadyQueue) /
//! [`ReadySet`](crate::common::ReadySet) / cached-[`Levels`] /
//! [`est_on`](crate::common::est_on) machinery as the component
//! implementations.
//!
//! The axes:
//!
//! | Axis | Grammar key | Values |
//! |------|-------------|--------|
//! | Priority attribute | `PRIO` | `sl`, `blevel`, `tlevel`, `alap`, `bt`, `dl`, `est`, `dnode` |
//! | List dynamism | `LIST` | `static`, `dynamic` |
//! | Slot policy | `SLOT` | `append`, `insert` |
//! | Selection rule | `SEL` | `ready`, `pair` |
//! | Hole filling | `FILL` | `none`, `holes` |
//!
//! A variant is addressed by the grammar string
//! `compose:PRIO=blevel,LIST=dynamic,SLOT=insert,SEL=ready` (keys in any
//! order, case- and whitespace-insensitive, omitted keys default to the
//! [`Spec::default`] values) — [`crate::registry::by_name`] resolves it,
//! and [`enumerate`] yields the full combinatorial space for the
//! adversary/dominance machinery.
//!
//! The six paper algorithms are named *presets* of the same driver
//! ([`preset`]), proven placement-identical to the monolith
//! implementations they replaced across a multi-thousand-instance RGNOS
//! sweep, whose placements the workspace's `tests/placement_digests.rs`
//! pins as committed digests:
//!
//! | Preset | `PRIO` | `LIST` | `SLOT` | `SEL` | `FILL` |
//! |--------|--------|--------|--------|-------|--------|
//! | HLFET | `sl` | `static` | `append` | `ready` | `none` |
//! | ISH | `sl` | `static` | `append` | `ready` | `holes` |
//! | MCP | `alap` | `static` | `insert` | `ready` | `none` |
//! | ETF | `est` | `dynamic` | `append` | `pair` | `none` |
//! | DLS | `dl` | `dynamic` | `append` | `pair` | `none` |
//! | LAST | `dnode` | `dynamic` | `append` | `ready` | `none` |
//!
//! Under `LIST=static` the task order is fixed up front (descending
//! schedule-independent priority, except `PRIO=alap` which uses MCP's
//! lexicographic ALAP lists), so the `SEL` axis is inert there — the
//! driver only chooses the processor. Variants are still enumerated with
//! both `SEL` values for a uniform grammar.
//!
//! [`Levels`]: dagsched_graph::levels::Levels

mod driver;
pub(crate) mod priority;

use crate::{AlgoClass, Env, Outcome, SchedError, Scheduler};
use dagsched_graph::TaskGraph;
use dagsched_obs::{NullSink, Sink};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

pub use crate::common::SlotPolicy;

/// The priority-attribute axis (`PRIO=`): what makes a task urgent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Prio {
    /// Static level — computation-only b-level (HLFET/ISH; DLS's static
    /// term).
    Sl,
    /// b-level including communication costs.
    BLevel,
    /// t-level, smaller first (top-down urgency).
    TLevel,
    /// ALAP time = CP − b-level, smaller first; under `LIST=static` this
    /// is MCP's lexicographic ALAP-lists order.
    Alap,
    /// b-level + t-level: a node's path length through the graph — CP
    /// nodes maximize it.
    Bt,
    /// Dynamic level `SL − EST` (DLS).
    Dl,
    /// Earliest start time, smaller first (ETF); ties by static level.
    Est,
    /// LAST's `D_NODE`: the fraction of incident edge weight already
    /// "defined" (connecting to scheduled nodes).
    Dnode,
}

/// The list-dynamism axis (`LIST=`): when priorities are evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ListPolicy {
    /// One ordering decided before scheduling starts, consumed
    /// ready-first.
    Static,
    /// Priorities re-evaluated against the partial schedule every step.
    Dynamic,
}

/// The selection axis (`SEL=`): what the per-step argmax ranges over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Selection {
    /// Rank ready tasks (each at its own best processor), then place.
    Ready,
    /// Rank every (ready task, processor) pair — the ETF/DLS scan.
    Pair,
}

/// The hole-filling axis (`FILL=`): ISH's post-placement insertion pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fill {
    /// No filling.
    None,
    /// Fill the idle window each placement opens with ready tasks that
    /// fit and are not themselves delayed (ISH).
    Holes,
}

/// A point in the composed-scheduler design space: one value per axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Spec {
    pub prio: Prio,
    pub list: ListPolicy,
    pub slot: SlotPolicy,
    pub sel: Selection,
    pub fill: Fill,
}

impl Default for Spec {
    /// The HLFET point: `PRIO=sl,LIST=static,SLOT=append,SEL=ready,FILL=none`.
    fn default() -> Spec {
        Spec {
            prio: Prio::Sl,
            list: ListPolicy::Static,
            slot: SlotPolicy::Append,
            sel: Selection::Ready,
            fill: Fill::None,
        }
    }
}

/// Every `(key, value, setter)` of the grammar, the single source of truth
/// for [`Spec::parse`], [`Spec::grammar`] and canonical formatting.
const PRIO_VALUES: &[(&str, Prio)] = &[
    ("sl", Prio::Sl),
    ("blevel", Prio::BLevel),
    ("tlevel", Prio::TLevel),
    ("alap", Prio::Alap),
    ("bt", Prio::Bt),
    ("dl", Prio::Dl),
    ("est", Prio::Est),
    ("dnode", Prio::Dnode),
];
const LIST_VALUES: &[(&str, ListPolicy)] = &[
    ("static", ListPolicy::Static),
    ("dynamic", ListPolicy::Dynamic),
];
const SLOT_VALUES: &[(&str, SlotPolicy)] = &[
    ("append", SlotPolicy::Append),
    ("insert", SlotPolicy::Insertion),
];
const SEL_VALUES: &[(&str, Selection)] = &[("ready", Selection::Ready), ("pair", Selection::Pair)];
const FILL_VALUES: &[(&str, Fill)] = &[("none", Fill::None), ("holes", Fill::Holes)];

fn value_name<T: Copy + PartialEq>(table: &[(&'static str, T)], v: T) -> &'static str {
    table
        .iter()
        .find(|&&(_, t)| t == v)
        .map(|&(n, _)| n)
        .expect("every axis value is in its table")
}

fn parse_value<T: Copy>(table: &[(&'static str, T)], key: &str, value: &str) -> Result<T, String> {
    table
        .iter()
        .find(|&&(n, _)| n == value)
        .map(|&(_, t)| t)
        .ok_or_else(|| {
            let valid: Vec<&str> = table.iter().map(|&(n, _)| n).collect();
            format!(
                "unknown value `{value}` for {key} (valid: {})",
                valid.join(", ")
            )
        })
}

impl Spec {
    /// The grammar prefix every composed-variant name starts with.
    pub const PREFIX: &'static str = "compose:";

    /// One-line summary of the grammar, for CLI miss messages.
    pub fn grammar() -> String {
        format!(
            "{}PRIO=<{}>,LIST=<{}>,SLOT=<{}>,SEL=<{}>,FILL=<{}> \
             (keys optional & case-insensitive; defaults: {})",
            Spec::PREFIX,
            PRIO_VALUES
                .iter()
                .map(|&(n, _)| n)
                .collect::<Vec<_>>()
                .join("|"),
            LIST_VALUES
                .iter()
                .map(|&(n, _)| n)
                .collect::<Vec<_>>()
                .join("|"),
            SLOT_VALUES
                .iter()
                .map(|&(n, _)| n)
                .collect::<Vec<_>>()
                .join("|"),
            SEL_VALUES
                .iter()
                .map(|&(n, _)| n)
                .collect::<Vec<_>>()
                .join("|"),
            FILL_VALUES
                .iter()
                .map(|&(n, _)| n)
                .collect::<Vec<_>>()
                .join("|"),
            Spec::default().canonical_name(),
        )
    }

    /// Whether `name` addresses the composed space (has the `compose:`
    /// prefix, any case, surrounding whitespace ignored).
    pub fn is_composed_name(name: &str) -> bool {
        let t = name.trim();
        t.len() >= Spec::PREFIX.len() && t[..Spec::PREFIX.len()].eq_ignore_ascii_case(Spec::PREFIX)
    }

    /// Parse a grammar string. Keys may appear in any order and any case,
    /// with arbitrary whitespace around tokens; omitted keys take the
    /// [`Spec::default`] values. Errors (unknown key, unknown value,
    /// duplicate key, missing `=`) are returned as messages — this never
    /// panics.
    pub fn parse(name: &str) -> Result<Spec, String> {
        let t = name.trim();
        if !Spec::is_composed_name(t) {
            return Err(format!(
                "not a composed-variant name (expected the `{}` prefix)",
                Spec::PREFIX
            ));
        }
        let body = t[Spec::PREFIX.len()..].trim();
        let mut spec = Spec::default();
        let mut seen: Vec<String> = Vec::new();
        for part in body.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue; // tolerate trailing/double commas
            }
            let Some((key, value)) = part.split_once('=') else {
                return Err(format!("expected KEY=value, got `{part}`"));
            };
            let key = key.trim().to_ascii_uppercase();
            let value = value.trim().to_ascii_lowercase();
            if seen.contains(&key) {
                return Err(format!("duplicate key {key}"));
            }
            match key.as_str() {
                "PRIO" => spec.prio = parse_value(PRIO_VALUES, "PRIO", &value)?,
                "LIST" => spec.list = parse_value(LIST_VALUES, "LIST", &value)?,
                "SLOT" => spec.slot = parse_value(SLOT_VALUES, "SLOT", &value)?,
                "SEL" => spec.sel = parse_value(SEL_VALUES, "SEL", &value)?,
                "FILL" => spec.fill = parse_value(FILL_VALUES, "FILL", &value)?,
                _ => {
                    return Err(format!(
                        "unknown key `{key}` (valid: PRIO, LIST, SLOT, SEL, FILL)"
                    ))
                }
            }
            seen.push(key);
        }
        Ok(spec)
    }

    /// The canonical grammar string for this spec: every key, fixed order,
    /// lowercase values. `Spec::parse(s.canonical_name()) == Ok(s)`.
    pub fn canonical_name(&self) -> String {
        format!(
            "{}PRIO={},LIST={},SLOT={},SEL={},FILL={}",
            Spec::PREFIX,
            value_name(PRIO_VALUES, self.prio),
            value_name(LIST_VALUES, self.list),
            value_name(SLOT_VALUES, self.slot),
            value_name(SEL_VALUES, self.sel),
            value_name(FILL_VALUES, self.fill),
        )
    }
}

impl fmt::Display for Spec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical_name())
    }
}

/// The six paper BNP algorithms as (name, spec) preset pairs, in the
/// paper's listing order (§4).
pub const PRESETS: &[(&str, Spec)] = &[
    (
        "HLFET",
        Spec {
            prio: Prio::Sl,
            list: ListPolicy::Static,
            slot: SlotPolicy::Append,
            sel: Selection::Ready,
            fill: Fill::None,
        },
    ),
    (
        "ISH",
        Spec {
            prio: Prio::Sl,
            list: ListPolicy::Static,
            slot: SlotPolicy::Append,
            sel: Selection::Ready,
            fill: Fill::Holes,
        },
    ),
    (
        "MCP",
        Spec {
            prio: Prio::Alap,
            list: ListPolicy::Static,
            slot: SlotPolicy::Insertion,
            sel: Selection::Ready,
            fill: Fill::None,
        },
    ),
    (
        "ETF",
        Spec {
            prio: Prio::Est,
            list: ListPolicy::Dynamic,
            slot: SlotPolicy::Append,
            sel: Selection::Pair,
            fill: Fill::None,
        },
    ),
    (
        "DLS",
        Spec {
            prio: Prio::Dl,
            list: ListPolicy::Dynamic,
            slot: SlotPolicy::Append,
            sel: Selection::Pair,
            fill: Fill::None,
        },
    ),
    (
        "LAST",
        Spec {
            prio: Prio::Dnode,
            list: ListPolicy::Dynamic,
            slot: SlotPolicy::Append,
            sel: Selection::Ready,
            fill: Fill::None,
        },
    ),
];

/// The preset spec behind a paper acronym (`"HLFET"` … `"LAST"`), if any.
pub fn preset_spec(name: &str) -> Option<Spec> {
    let upper = name.trim().to_ascii_uppercase();
    PRESETS.iter().find(|&&(n, _)| n == upper).map(|&(_, s)| s)
}

/// A preset scheduler carrying its paper acronym as its name.
pub fn preset(name: &str) -> Option<ComposedScheduler> {
    let upper = name.trim().to_ascii_uppercase();
    PRESETS
        .iter()
        .find(|&&(n, _)| n == upper)
        .map(|&(n, s)| ComposedScheduler { spec: s, name: n })
}

/// Every point of the composed design space, in a fixed deterministic
/// order (priority outermost). 8 × 2 × 2 × 2 × 2 = 128 variants.
pub fn enumerate() -> Vec<Spec> {
    let mut out = Vec::with_capacity(
        PRIO_VALUES.len()
            * LIST_VALUES.len()
            * SLOT_VALUES.len()
            * SEL_VALUES.len()
            * FILL_VALUES.len(),
    );
    for &(_, prio) in PRIO_VALUES {
        for &(_, list) in LIST_VALUES {
            for &(_, slot) in SLOT_VALUES {
                for &(_, sel) in SEL_VALUES {
                    for &(_, fill) in FILL_VALUES {
                        out.push(Spec {
                            prio,
                            list,
                            slot,
                            sel,
                            fill,
                        });
                    }
                }
            }
        }
    }
    out
}

/// Intern a spec's canonical name. [`crate::Scheduler::name`] returns
/// `&'static str` (harness records borrow algorithm names for the length
/// of a run), so composed names are leaked once each — bounded by the 128
/// points of the space, however often callers construct schedulers.
fn interned_name(spec: Spec) -> &'static str {
    static NAMES: OnceLock<Mutex<HashMap<Spec, &'static str>>> = OnceLock::new();
    let map = NAMES.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = map.lock().expect("name intern table poisoned");
    map.entry(spec)
        .or_insert_with(|| Box::leak(spec.canonical_name().into_boxed_str()))
}

/// A list scheduler assembled from one value per taxonomy axis. Presets
/// ([`preset`]) answer to their paper acronym; grammar-built variants
/// ([`ComposedScheduler::new`]) to their canonical `compose:` name. Always
/// [`AlgoClass::Bnp`].
#[derive(Debug, Clone, Copy)]
pub struct ComposedScheduler {
    spec: Spec,
    name: &'static str,
}

impl ComposedScheduler {
    /// A scheduler for an arbitrary spec, named canonically.
    pub fn new(spec: Spec) -> ComposedScheduler {
        ComposedScheduler {
            spec,
            name: interned_name(spec),
        }
    }

    /// A spec under a fixed roster name — for ablation variants (e.g. the
    /// append-only MCP) that keep their table label whatever the knob.
    pub(crate) fn named(name: &'static str, spec: Spec) -> ComposedScheduler {
        ComposedScheduler { spec, name }
    }

    /// The component tuple this scheduler runs.
    pub fn spec(&self) -> Spec {
        self.spec
    }
}

impl Scheduler for ComposedScheduler {
    fn name(&self) -> &'static str {
        self.name
    }

    fn class(&self) -> AlgoClass {
        AlgoClass::Bnp
    }

    fn schedule(&self, g: &TaskGraph, env: &Env) -> Result<Outcome, SchedError> {
        Ok(driver::run(g, env, self.spec, &mut NullSink))
    }

    fn schedule_traced(
        &self,
        g: &TaskGraph,
        env: &Env,
        mut sink: &mut dyn Sink,
    ) -> Result<Outcome, SchedError> {
        Ok(driver::run(g, env, self.spec, &mut sink))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_round_trips_every_variant() {
        for spec in enumerate() {
            let name = spec.canonical_name();
            assert_eq!(Spec::parse(&name), Ok(spec), "{name}");
            assert!(Spec::is_composed_name(&name));
        }
    }

    #[test]
    fn space_has_128_distinct_points() {
        let specs = enumerate();
        assert_eq!(specs.len(), 128);
        let names: std::collections::HashSet<String> =
            specs.iter().map(|s| s.canonical_name()).collect();
        assert_eq!(names.len(), 128, "canonical names are unique");
    }

    #[test]
    fn parse_tolerates_case_whitespace_and_key_order() {
        let a = Spec::parse("compose:PRIO=blevel,LIST=dynamic,SLOT=insert,SEL=ready").unwrap();
        let b = Spec::parse("  Compose:  list = DYNAMIC , slot=Insert, PRIO=BLevel ").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.prio, Prio::BLevel);
        assert_eq!(a.slot, SlotPolicy::Insertion);
        assert_eq!(a.sel, Selection::Ready, "omitted key takes the default");
        assert_eq!(a.fill, Fill::None);
    }

    #[test]
    fn parse_defaults_on_empty_body() {
        assert_eq!(Spec::parse("compose:"), Ok(Spec::default()));
        assert_eq!(Spec::parse("compose: ,, "), Ok(Spec::default()));
    }

    #[test]
    fn parse_rejects_bad_key() {
        let e = Spec::parse("compose:PRIORITY=sl").unwrap_err();
        assert!(e.contains("unknown key"), "{e}");
        assert!(e.contains("PRIO"), "lists the valid keys: {e}");
    }

    #[test]
    fn parse_rejects_bad_value() {
        let e = Spec::parse("compose:PRIO=bogus").unwrap_err();
        assert!(e.contains("unknown value"), "{e}");
        assert!(e.contains("blevel"), "lists the valid values: {e}");
    }

    #[test]
    fn parse_rejects_duplicate_key() {
        let e = Spec::parse("compose:PRIO=sl,prio=blevel").unwrap_err();
        assert!(e.contains("duplicate key PRIO"), "{e}");
    }

    #[test]
    fn parse_rejects_missing_equals() {
        let e = Spec::parse("compose:sl").unwrap_err();
        assert!(e.contains("KEY=value"), "{e}");
    }

    #[test]
    fn parse_rejects_foreign_prefix() {
        assert!(Spec::parse("MCP").is_err());
        assert!(!Spec::is_composed_name("MCP"));
    }

    #[test]
    fn presets_cover_the_six_bnp_algorithms() {
        let names: Vec<&str> = PRESETS.iter().map(|&(n, _)| n).collect();
        assert_eq!(names, ["HLFET", "ISH", "MCP", "ETF", "DLS", "LAST"]);
        for &(name, spec) in PRESETS {
            let p = preset(name).unwrap();
            assert_eq!(p.name(), name);
            assert_eq!(p.spec(), spec);
            assert_eq!(p.class(), AlgoClass::Bnp);
            // Every preset's spec is a point of the enumerated space.
            assert!(enumerate().contains(&spec), "{name}");
        }
        assert!(preset("hlfet").is_some(), "preset lookup is case-tolerant");
        assert!(preset("DSC").is_none());
    }

    #[test]
    fn interned_names_are_stable() {
        let spec = Spec::parse("compose:PRIO=bt,LIST=dynamic").unwrap();
        let a = ComposedScheduler::new(spec);
        let b = ComposedScheduler::new(spec);
        assert_eq!(a.name(), b.name());
        assert!(std::ptr::eq(a.name(), b.name()), "same interned &'static");
        assert_eq!(a.name(), spec.canonical_name());
    }

    #[test]
    fn grammar_summary_mentions_every_axis() {
        let g = Spec::grammar();
        for key in ["PRIO", "LIST", "SLOT", "SEL", "FILL"] {
            assert!(g.contains(key), "{key} missing from {g}");
        }
    }
}
