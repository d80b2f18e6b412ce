//! Plain-text serialization of task graphs.
//!
//! Two formats:
//!
//! * **TGF** (task graph format) — a line-oriented format this crate both
//!   reads and writes. Deliberately dependency-free (no serde): benchmark
//!   graphs must be easy to diff, hand-edit and archive alongside
//!   EXPERIMENTS.md.
//! * **DOT** — write-only export for Graphviz visualization.
//!
//! ## TGF grammar
//!
//! ```text
//! # comment (blank lines ignored)
//! graph <name>            (optional, at most once)
//! task <id> <weight> [label …]   (ids must be dense and ascending from 0)
//! edge <src> <dst> <cost>
//! ```
//!
//! `<id>`, `<weight>`, `<src>`, `<dst>` and `<cost>` are unsigned decimal
//! integers as `str::parse` reads them: an optional leading `+`, then
//! ASCII digits (leading zeros allowed); a value past `u32::MAX` (ids) or
//! `u64::MAX` (costs) is an error. Tokens are separated, and lines
//! trimmed, by any Unicode whitespace (tab, U+00A0, U+2028, …); only `\n`
//! ends a line, and a `\r` before it is trimmed like any other space.
//! `tests/tgf_golden.rs` pins the language one edge case per row.
//!
//! [`from_tgf`] is a single byte-level scanner: it splits lines on `\n`,
//! decides ASCII whitespace on the byte, decodes a character only where a
//! non-ASCII byte starts one, and reads numbers digit by digit in place.
//!
//! Graph names and task labels are written with a minimal backslash escape
//! so any string round-trips exactly: `\\` (backslash), `\n`, `\r`, `\t`,
//! `\_` for the leading/trailing spaces the line-oriented parser would
//! otherwise trim, and `\u{…}` for every other Unicode whitespace character
//! (U+00A0, U+2028, vertical tab, …) which line trimming and token
//! splitting would likewise eat. Interior spaces stay literal, keeping
//! files readable.

use crate::builder::GraphBuilder;
use crate::error::GraphError;
use crate::graph::{TaskGraph, TaskId};
use std::fmt::Write as _;

/// Serialize `g` to TGF text.
pub fn to_tgf(g: &TaskGraph) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# taskbench TGF v1: {} tasks, {} edges",
        g.num_tasks(),
        g.num_edges()
    );
    if !g.name().is_empty() {
        let _ = writeln!(out, "graph {}", escape_text(g.name()));
    }
    for n in g.tasks() {
        let label = g.label(n);
        if label.is_empty() {
            let _ = writeln!(out, "task {} {}", n.0, g.weight(n));
        } else {
            let _ = writeln!(out, "task {} {} {}", n.0, g.weight(n), escape_text(label));
        }
    }
    for e in g.edges() {
        let _ = writeln!(out, "edge {} {} {}", e.src.0, e.dst.0, e.cost);
    }
    out
}

/// Escape a graph name or task label for one TGF line: backslash and the
/// whitespace the parser cannot represent literally (newlines, carriage
/// returns, tabs) get backslash escapes, and leading/trailing spaces —
/// which line trimming would eat — become `\_`. Interior spaces are
/// untouched.
fn escape_text(s: &str) -> String {
    let first = s.find(|c| c != ' ');
    let last = s.rfind(|c| c != ' ');
    let mut out = String::with_capacity(s.len());
    for (i, c) in s.char_indices() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            ' ' if first.is_none_or(|f| i < f) || last.is_none_or(|l| i > l) => {
                out.push_str("\\_");
            }
            // Any other Unicode whitespace (U+00A0, U+2028, U+000B, …)
            // would be eaten by line trimming / token splitting on read.
            c if c.is_whitespace() && c != ' ' => {
                let _ = write!(out, "\\u{{{:x}}}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Invert [`escape_text`]; unknown escapes are a parse error.
fn unescape_text(s: &str, line: usize) -> Result<String, GraphError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('_') => out.push(' '),
            Some('u') => {
                let err = |why: &str| GraphError::Parse {
                    line,
                    reason: format!("bad \\u escape: {why}"),
                };
                if chars.next() != Some('{') {
                    return Err(err("expected `{`"));
                }
                let mut hex = String::new();
                let mut closed = false;
                for c in chars.by_ref() {
                    if c == '}' {
                        closed = true;
                        break;
                    }
                    hex.push(c);
                }
                if !closed {
                    return Err(err("missing `}`"));
                }
                let code = u32::from_str_radix(&hex, 16)
                    .map_err(|_| err(&format!("invalid hex `{hex}`")))?;
                out.push(char::from_u32(code).ok_or_else(|| err("not a scalar value"))?);
            }
            other => {
                return Err(GraphError::Parse {
                    line,
                    reason: match other {
                        Some(c) => format!("unknown escape `\\{c}`"),
                        None => "dangling backslash".to_string(),
                    },
                });
            }
        }
    }
    Ok(out)
}

/// The ASCII characters with the Unicode `White_Space` property: `\t`,
/// `\n`, vertical tab, form feed, `\r` and space. (`u8::is_ascii_whitespace`
/// omits the vertical tab.)
#[inline]
fn is_ascii_ws(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | 0x0b | 0x0c | b'\r')
}

/// A cursor over TGF text that never crosses a line break except in
/// [`Scanner::next_line`]. Whitespace is the Unicode `White_Space` set:
/// ASCII bytes are classified directly, and a character is decoded only
/// where a non-ASCII byte starts one.
struct Scanner<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// The non-ASCII character at the cursor.
    fn wide_char(&self) -> char {
        self.text[self.pos..]
            .chars()
            .next()
            .expect("a non-ASCII byte starts a char here")
    }

    /// Byte length of the blank at the cursor: whitespace other than the
    /// line break, 0 when there is none.
    #[inline]
    fn blank_len(&self) -> usize {
        match self.peek() {
            None => 0,
            Some(b) if b.is_ascii() => usize::from(b != b'\n' && is_ascii_ws(b)),
            Some(_) => {
                let c = self.wide_char();
                if c.is_whitespace() {
                    c.len_utf8()
                } else {
                    0
                }
            }
        }
    }

    fn skip_blanks(&mut self) {
        loop {
            match self.blank_len() {
                0 => return,
                n => self.pos += n,
            }
        }
    }

    /// The token at the cursor (empty at the line end); the cursor moves
    /// past it and the blanks after it.
    fn token(&mut self) -> &'a str {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii() {
                if is_ascii_ws(b) {
                    break;
                }
                self.pos += 1;
            } else {
                let c = self.wide_char();
                if c.is_whitespace() {
                    break;
                }
                self.pos += c.len_utf8();
            }
        }
        let tok = &self.text[start..self.pos];
        self.skip_blanks();
        tok
    }

    /// The directive opening a line. `edge` and `task` open nearly every
    /// line, so those two followed by a space are matched on the bytes;
    /// anything else is read as a token.
    fn directive(&mut self) -> &'a str {
        let kw = match self.text.as_bytes().get(self.pos..self.pos + 5) {
            Some(b"edge ") => "edge",
            Some(b"task ") => "task",
            _ => return self.token(),
        };
        self.pos += 5;
        self.skip_blanks();
        kw
    }

    /// The token at the cursor read as a number at most `max` (see
    /// [`parse_num`]). Digits accumulate as they are scanned; a token
    /// that is not a plain run of at most 19 digits ending in ASCII
    /// whitespace takes the general path.
    fn number(&mut self, max: u64, what: &str) -> Result<u64, String> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let (mut i, mut n) = (start, 0u64);
        while i - start < 19 && i < bytes.len() && bytes[i].is_ascii_digit() {
            n = n * 10 + u64::from(bytes[i] - b'0');
            i += 1;
        }
        if i > start && n <= max && bytes.get(i).is_none_or(|&b| is_ascii_ws(b)) {
            self.pos = i;
            self.skip_blanks();
            return Ok(n);
        }
        parse_num(self.token(), max, what)
    }

    /// The rest of the line without its trailing whitespace.
    fn rest_of_line(&mut self) -> &'a str {
        let rest = &self.text.as_bytes()[self.pos..];
        let len = rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
        let line = &self.text[self.pos..self.pos + len];
        self.pos += len;
        line.trim_end()
    }

    fn at_line_end(&self) -> bool {
        matches!(self.peek(), None | Some(b'\n'))
    }

    /// Step over the line break the cursor stands at; `false` once the
    /// text is used up (a final `\n` does not open another line).
    fn next_line(&mut self) -> bool {
        self.pos += 1;
        self.pos < self.text.len()
    }
}

/// Parse TGF text into a validated [`TaskGraph`].
///
/// One pass over the bytes, line by line: blanks and tokens are found
/// byte by byte and numbers are read digit by digit in place.
pub fn from_tgf(text: &str) -> Result<TaskGraph, GraphError> {
    // Edge lines dominate and run ~16 bytes each, so this capacity
    // usually spares the edge list its regrowth copies.
    let mut b = GraphBuilder::with_capacity(0, text.len() / 16);
    let mut name: Option<String> = None;
    let mut sc = Scanner { text, pos: 0 };
    let mut lineno = 0;
    let mut more = !text.is_empty();
    while more {
        lineno += 1;
        let err = |reason: String| GraphError::Parse {
            line: lineno,
            reason,
        };
        sc.skip_blanks();
        match sc.peek() {
            None | Some(b'\n') => {}
            Some(b'#') => {
                sc.rest_of_line();
            }
            Some(_) => match sc.directive() {
                "graph" => {
                    if name.is_some() {
                        return Err(err("duplicate `graph` directive".into()));
                    }
                    let rest = sc.rest_of_line();
                    if rest.is_empty() {
                        return Err(err("`graph` needs a name".into()));
                    }
                    name = Some(unescape_text(rest, lineno)?);
                }
                "task" => {
                    // The label is the raw remainder, so it keeps its
                    // interior spacing verbatim.
                    let id = sc.number(u32::MAX.into(), "task id").map_err(err)?;
                    let weight = sc.number(u64::MAX, "task weight").map_err(err)?;
                    let label_raw = sc.rest_of_line();
                    if id as usize != b.num_tasks() {
                        return Err(err(format!(
                            "task ids must be dense and ascending: expected {}, got {}",
                            b.num_tasks(),
                            id
                        )));
                    }
                    b.add_labeled_task(weight, unescape_text(label_raw, lineno)?);
                }
                "edge" => {
                    let src = sc.number(u32::MAX.into(), "edge src").map_err(err)?;
                    let dst = sc.number(u32::MAX.into(), "edge dst").map_err(err)?;
                    let cost = sc.number(u64::MAX, "edge cost").map_err(err)?;
                    if !sc.at_line_end() {
                        return Err(err("trailing tokens after edge cost".into()));
                    }
                    b.add_edge(TaskId(src as u32), TaskId(dst as u32), cost)
                        .map_err(|e| err(e.to_string()))?;
                }
                other => return Err(err(format!("unknown directive `{other}`"))),
            },
        }
        more = sc.next_line();
    }
    let g = b.build()?;
    Ok(match name {
        Some(n) => g.with_name(n),
        None => g,
    })
}

/// Read a decimal token as `str::parse` would for an unsigned type at
/// most `max`: an optional leading `+`, then one or more ASCII digits.
fn parse_num(tok: &str, max: u64, what: &str) -> Result<u64, String> {
    if tok.is_empty() {
        return Err(format!("missing {what}"));
    }
    let digits = match tok.as_bytes() {
        [b'+', rest @ ..] if !rest.is_empty() => rest,
        all => all,
    };
    let mut n = 0u64;
    for &c in digits {
        let d = c.wrapping_sub(b'0');
        match n.checked_mul(10).and_then(|n| n.checked_add(u64::from(d))) {
            Some(m) if d <= 9 && m <= max => n = m,
            _ => return Err(format!("invalid {what}: `{tok}`")),
        }
    }
    Ok(n)
}

/// Export to Graphviz DOT. Node labels show `id / w`; edge labels show `c`.
pub fn to_dot(g: &TaskGraph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", sanitize(g.name()));
    let _ = writeln!(out, "  rankdir=TB;");
    let _ = writeln!(out, "  node [shape=circle, fontsize=10];");
    for n in g.tasks() {
        let label = if g.label(n).is_empty() {
            format!("n{}\\nw={}", n.0, g.weight(n))
        } else {
            format!("{}\\nw={}", sanitize(g.label(n)), g.weight(n))
        };
        let _ = writeln!(out, "  n{} [label=\"{}\"];", n.0, label);
    }
    for e in g.edges() {
        let _ = writeln!(
            out,
            "  n{} -> n{} [label=\"{}\"];",
            e.src.0, e.dst.0, e.cost
        );
    }
    out.push_str("}\n");
    out
}

fn sanitize(s: &str) -> String {
    s.replace('"', "'")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn sample() -> TaskGraph {
        let mut b = GraphBuilder::named("sample graph");
        let n0 = b.add_labeled_task(4, "source");
        let n1 = b.add_task(3);
        let n2 = b.add_task(5);
        b.add_edge(n0, n1, 2).unwrap();
        b.add_edge(n0, n2, 0).unwrap();
        b.add_edge(n1, n2, 9).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn tgf_round_trip_preserves_everything() {
        let g = sample();
        let text = to_tgf(&g);
        let h = from_tgf(&text).unwrap();
        assert_eq!(h.name(), g.name());
        assert_eq!(h.num_tasks(), g.num_tasks());
        assert_eq!(h.num_edges(), g.num_edges());
        for n in g.tasks() {
            assert_eq!(h.weight(n), g.weight(n));
            assert_eq!(h.label(n), g.label(n));
        }
        for e in g.edges() {
            assert_eq!(h.edge_cost(e.src, e.dst), Some(e.cost));
        }
    }

    #[test]
    fn parses_comments_and_blanks() {
        let text = "# hello\n\n  \ntask 0 5\ntask 1 6\nedge 0 1 3\n# bye\n";
        let g = from_tgf(text).unwrap();
        assert_eq!(g.num_tasks(), 2);
        assert_eq!(g.edge_cost(TaskId(0), TaskId(1)), Some(3));
    }

    #[test]
    fn rejects_sparse_ids() {
        let err = from_tgf("task 1 5\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }), "{err}");
    }

    #[test]
    fn rejects_unknown_directive() {
        let err = from_tgf("node 0 5\n").unwrap_err();
        assert!(err.to_string().contains("unknown directive"));
    }

    #[test]
    fn rejects_bad_numbers() {
        let err = from_tgf("task 0 banana\n").unwrap_err();
        assert!(err.to_string().contains("invalid task weight"));
        let err = from_tgf("task 0 5\ntask 1 5\nedge 0 1\n").unwrap_err();
        assert!(err.to_string().contains("missing edge cost"));
    }

    #[test]
    fn rejects_trailing_edge_tokens() {
        let err = from_tgf("task 0 5\ntask 1 5\nedge 0 1 2 3\n").unwrap_err();
        assert!(err.to_string().contains("trailing"));
    }

    #[test]
    fn rejects_cyclic_file() {
        let text = "task 0 1\ntask 1 1\nedge 0 1 0\nedge 1 0 0\n";
        assert!(matches!(
            from_tgf(text).unwrap_err(),
            GraphError::Cycle { .. }
        ));
    }

    #[test]
    fn labels_with_spaces_survive() {
        let text = "task 0 5 big bang task\n";
        let g = from_tgf(text).unwrap();
        assert_eq!(g.label(TaskId(0)), "big bang task");
    }

    #[test]
    fn labels_with_interior_space_runs_round_trip_exactly() {
        // `split_whitespace` + join used to collapse "a  b" to "a b".
        let mut b = GraphBuilder::new();
        b.add_labeled_task(1, "a  b   c");
        let g = b.build().unwrap();
        let h = from_tgf(&to_tgf(&g)).unwrap();
        assert_eq!(h.label(TaskId(0)), "a  b   c");
    }

    #[test]
    fn hostile_labels_and_names_round_trip_exactly() {
        for label in [
            " leading",
            "trailing ",
            "  both  ",
            "tab\tinside",
            "line\nbreak",
            "back\\slash",
            "\r\n\t\\",
            "   ",
            "mixed \\n literal",
            "nbsp\u{a0}tail",
            "x\u{a0}",
            "\u{2028}line sep",
            "vt\u{b}ff\u{c}",
        ] {
            let mut b = GraphBuilder::named(format!("name-{label}"));
            b.add_labeled_task(1, label);
            let g = b.build().unwrap();
            let h = from_tgf(&to_tgf(&g)).unwrap();
            assert_eq!(h.label(TaskId(0)), label, "label {label:?}");
            assert_eq!(h.name(), g.name(), "name for {label:?}");
        }
    }

    #[test]
    fn unknown_escape_is_a_parse_error() {
        let err = from_tgf("task 0 5 bad\\q\n").unwrap_err();
        assert!(err.to_string().contains("unknown escape"), "{err}");
        let err = from_tgf("task 0 5 dangling\\\n").unwrap_err();
        assert!(err.to_string().contains("dangling backslash"), "{err}");
        for bad in ["\\u00a0", "\\u{00a0", "\\u{zz}", "\\u{110000}"] {
            let err = from_tgf(&format!("task 0 5 {bad}\n")).unwrap_err();
            assert!(err.to_string().contains("bad \\u escape"), "{bad}: {err}");
        }
    }

    #[test]
    fn dot_export_mentions_all_parts() {
        let g = sample();
        let dot = to_dot(&g);
        assert!(dot.contains("digraph"));
        assert!(dot.contains("n0 -> n1"));
        assert!(dot.contains("label=\"9\""));
        assert!(dot.contains("source"));
    }
}
