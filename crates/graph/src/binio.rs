//! Compact binary serialization of task graphs, plus structural hashing.
//!
//! The serve protocol ships DAGs over a socket on every request; TGF text
//! is convenient but costs a tokenizing parse and ~3–5× the bytes. This
//! module provides the wire alternative: a little-endian, length-prefixed
//! binary frame, and a 128-bit structural hash used as the schedule-cache
//! key. A frame decodes through the [`GraphBuilder`], so every model
//! invariant — positive weights, no self loops, no duplicates, acyclicity,
//! the cost bound — is enforced exactly as for TGF. Its edges arrive in
//! `(src, dst)` order, so [`GraphBuilder::build`] lays them out as CSR rows
//! without sorting and writes each shared array once.
//!
//! ## Frame layout (all integers little-endian)
//!
//! ```text
//! magic   4 bytes  "DGB1"
//! v       u32      task count
//! e       u32      edge count
//! name    u32 len + UTF-8 bytes
//! tasks   v × { weight u64, label u32 len + UTF-8 bytes }
//! edges   e × { src u32, dst u32, cost u64 }
//! ```
//!
//! Edges are written in [`TaskGraph::edges`] order (grouped by source id
//! ascending, destinations ascending within a row), which makes encoding
//! canonical: one graph, one byte sequence.
//!
//! ## Structural hash
//!
//! [`structural_hash`] digests exactly the inputs a scheduler reads —
//! task count, computation costs, and the edge set with communication
//! costs — two 64-bit words at a time, through the [`WordHasher`] that
//! `WireKey::of` in the serve crate runs on raw request bytes. The graph
//! *name and task labels are excluded*: two graphs that
//! differ only in labels produce identical schedules, and the cache is
//! allowed (expected) to serve one's entry for the other. Equality of the
//! 128-bit hash is the cache's notion of graph identity; the codec
//! proptests check hash equality ⇔ structural equality over generated
//! corpora.

use crate::builder::GraphBuilder;
use crate::error::GraphError;
use crate::graph::{TaskGraph, TaskId};

/// Magic bytes opening every binary graph frame.
pub const MAGIC: [u8; 4] = *b"DGB1";

/// Serialize `g` to a canonical binary frame.
pub fn to_bin(g: &TaskGraph) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + 16 * g.num_tasks() + 16 * g.num_edges());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&(g.num_tasks() as u32).to_le_bytes());
    out.extend_from_slice(&(g.num_edges() as u32).to_le_bytes());
    put_str(&mut out, g.name());
    for n in g.tasks() {
        out.extend_from_slice(&g.weight(n).to_le_bytes());
        put_str(&mut out, g.label(n));
    }
    for e in g.edges() {
        out.extend_from_slice(&e.src.0.to_le_bytes());
        out.extend_from_slice(&e.dst.0.to_le_bytes());
        out.extend_from_slice(&e.cost.to_le_bytes());
    }
    out
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Decode a binary frame into a validated [`TaskGraph`].
///
/// Decoding funnels through [`GraphBuilder`], so hostile frames fail with
/// the same typed [`GraphError`]s as hostile TGF text (`Cycle`,
/// `DuplicateEdge`, `ZeroWeightTask`, …); malformations of the framing
/// itself (bad magic, truncation, length fields larger than the buffer,
/// trailing garbage) come back as [`GraphError::Bin`].
pub fn from_bin(bytes: &[u8]) -> Result<TaskGraph, GraphError> {
    let mut cur = Cursor { buf: bytes, pos: 0 };
    let magic = cur.take(4)?;
    if magic != MAGIC {
        return Err(bin_err(format!("bad magic {magic:02x?} (want \"DGB1\")")));
    }
    let v = cur.take_u32()? as usize;
    let e = cur.take_u32()? as usize;
    // Every task occupies ≥ 12 bytes and every edge exactly 16, so a count
    // the remaining buffer cannot possibly hold is rejected before any
    // allocation sized from attacker-controlled fields.
    let floor = v
        .checked_mul(12)
        .and_then(|t| t.checked_add(e.checked_mul(16)?))
        .ok_or_else(|| bin_err("task/edge counts overflow".into()))?;
    if cur.remaining() < floor.saturating_add(4) {
        return Err(bin_err(format!(
            "counts (v={v}, e={e}) exceed frame size ({} bytes left)",
            cur.remaining()
        )));
    }
    let name = cur.take_str(|| "graph name".into())?;
    let mut b = GraphBuilder::with_capacity(v, e);
    for i in 0..v {
        let weight = cur.take_u64()?;
        let label = cur.take_str(|| format!("label of task {i}"))?;
        b.add_labeled_task(weight, label);
    }
    for _ in 0..e {
        let src = cur.take_u32()?;
        let dst = cur.take_u32()?;
        let cost = cur.take_u64()?;
        b.add_edge(TaskId(src), TaskId(dst), cost)?;
    }
    if cur.remaining() != 0 {
        return Err(bin_err(format!(
            "{} trailing bytes after the edge section",
            cur.remaining()
        )));
    }
    let g = b.build()?;
    Ok(if name.is_empty() {
        g
    } else {
        g.with_name(name)
    })
}

/// 128-bit structural digest of `(v, weights, edges)` — the cache key for
/// schedule memoization. Labels and the graph name are deliberately
/// excluded (see the module docs).
///
/// The digest feeds [`WordHasher`] pairs of 64-bit words: `(v, e)`, the
/// weights two at a time (an odd last one paired with 0, which `v`
/// makes unambiguous), then per edge `(src | dst << 32, cost)`.
pub fn structural_hash(g: &TaskGraph) -> [u64; 2] {
    let mut h = WordHasher::new(0);
    h.pair([g.num_tasks() as u64, g.num_edges() as u64]);
    for w in g.weights().chunks(2) {
        h.pair([w[0], w.get(1).copied().unwrap_or(0)]);
    }
    for src in g.tasks() {
        for &(dst, cost) in g.succs(src) {
            h.pair([u64::from(src.0) | u64::from(dst.0) << 32, cost]);
        }
    }
    h.finish()
}

/// The 128-bit word hasher behind both content keys: [`structural_hash`]
/// here and `WireKey::of` in the serve crate, which hashes raw request
/// bytes.
///
/// Two multiply-rotate streams with distinct constants eat every word
/// (the second sees it rotated). Each stream runs as two lanes, one for
/// the first and one for the second word of each pair, so the four
/// multiply chains overlap. [`WordHasher::finish`] folds each stream's
/// lanes into one word and closes it with the splitmix64 finalizer. For
/// a fixed word each lane step is a bijection of the lane state, so two
/// equally long inputs that differ in a single word never collide.
#[derive(Debug, Clone)]
pub struct WordHasher {
    a: [u64; 2],
    b: [u64; 2],
}

impl WordHasher {
    /// A hasher with `seed` (`WireKey::of` passes the input length)
    /// mixed into every lane.
    #[inline]
    pub fn new(seed: u64) -> Self {
        WordHasher {
            a: [0xcbf2_9ce4_8422_2325 ^ seed, 0x8422_2325_cbf2_9ce4 ^ seed],
            b: [0x6c62_272e_07bb_0142 ^ seed, 0x07bb_0142_6c62_272e ^ seed],
        }
    }

    /// Eat two words, one per lane.
    #[inline(always)]
    pub fn pair(&mut self, words: [u64; 2]) {
        const K: [u64; 2] = [0x9e37_79b9_7f4a_7c15, 0xc2b2_ae3d_27d4_eb4f];
        for (i, w) in words.into_iter().enumerate() {
            self.a[i] = (self.a[i] ^ w).wrapping_mul(K[0]).rotate_left(29);
            self.b[i] = (self.b[i] ^ w.rotate_left(32))
                .wrapping_mul(K[1])
                .rotate_left(23);
        }
    }

    /// The two output words, one per stream.
    #[inline]
    pub fn finish(self) -> [u64; 2] {
        [
            avalanche(self.a[0] ^ self.a[1].rotate_left(32)),
            avalanche(self.b[0] ^ self.b[1].rotate_left(32)),
        ]
    }
}

/// The splitmix64 finalizer.
#[inline]
fn avalanche(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn bin_err(reason: String) -> GraphError {
    GraphError::Bin { reason }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], GraphError> {
        if self.remaining() < n {
            return Err(bin_err(format!(
                "truncated frame: need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn take_u32(&mut self) -> Result<u32, GraphError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn take_u64(&mut self) -> Result<u64, GraphError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A length-prefixed UTF-8 string; `what` names it in an error and is
    /// only built when there is one.
    fn take_str(&mut self, what: impl FnOnce() -> String) -> Result<String, GraphError> {
        let len = self.take_u32()? as usize;
        if len > self.remaining() {
            return Err(bin_err(format!(
                "{}: length {len} exceeds {} remaining bytes",
                what(),
                self.remaining()
            )));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bin_err(format!("{}: invalid UTF-8", what())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> TaskGraph {
        let mut b = GraphBuilder::named("diamond");
        let n0 = b.add_labeled_task(10, "src");
        let n1 = b.add_task(20);
        let n2 = b.add_labeled_task(30, "a  b\tc\n");
        let n3 = b.add_task(40);
        b.add_edge(n0, n1, 5).unwrap();
        b.add_edge(n0, n2, 6).unwrap();
        b.add_edge(n1, n3, 7).unwrap();
        b.add_edge(n2, n3, 8).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let g = diamond();
        let h = from_bin(&to_bin(&g)).unwrap();
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
    fn encoding_is_canonical() {
        let g = diamond();
        assert_eq!(to_bin(&g), to_bin(&from_bin(&to_bin(&g)).unwrap()));
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = to_bin(&diamond());
        bytes[0] = b'X';
        let err = from_bin(&bytes).unwrap_err();
        assert_eq!(err.code(), "E_GRAPH_BIN");
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn rejects_every_truncation_point() {
        let bytes = to_bin(&diamond());
        for cut in 0..bytes.len() {
            let err = from_bin(&bytes[..cut]).unwrap_err();
            assert_eq!(err.code(), "E_GRAPH_BIN", "cut at {cut}: {err}");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = to_bin(&diamond());
        bytes.push(0);
        let err = from_bin(&bytes).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn rejects_hostile_counts_before_allocating() {
        // v = u32::MAX with a tiny buffer must fail on the size floor,
        // not attempt a 4-billion-task builder.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let err = from_bin(&bytes).unwrap_err();
        assert!(err.to_string().contains("exceed"), "{err}");
    }

    #[test]
    fn a_bad_label_names_its_task() {
        let mut bytes = to_bin(&diamond());
        // Task 2's label "a  b\tc\n" starts after the header, the name and
        // tasks 0 and 1; corrupt its first byte.
        let at = 16 + "diamond".len() + (12 + 3) + 12 + 12;
        assert_eq!(bytes[at], b'a');
        bytes[at] = 0xff;
        let err = from_bin(&bytes).unwrap_err();
        assert_eq!(
            err.to_string(),
            "binary frame error: label of task 2: invalid UTF-8"
        );
    }

    #[test]
    fn rejects_oversized_string_length() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&1u32.to_le_bytes()); // v = 1
        bytes.extend_from_slice(&0u32.to_le_bytes()); // e = 0
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // name len: hostile
        bytes.extend_from_slice(&[0u8; 32]);
        let err = from_bin(&bytes).unwrap_err();
        assert_eq!(err.code(), "E_GRAPH_BIN");
    }

    #[test]
    fn model_violations_surface_as_typed_errors() {
        // A cyclic edge set must come back as Cycle, exactly like TGF.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes()); // empty name
        for _ in 0..2 {
            bytes.extend_from_slice(&1u64.to_le_bytes()); // weight
            bytes.extend_from_slice(&0u32.to_le_bytes()); // empty label
        }
        for (s, d) in [(0u32, 1u32), (1, 0)] {
            bytes.extend_from_slice(&s.to_le_bytes());
            bytes.extend_from_slice(&d.to_le_bytes());
            bytes.extend_from_slice(&1u64.to_le_bytes());
        }
        assert!(matches!(
            from_bin(&bytes).unwrap_err(),
            GraphError::Cycle { .. }
        ));
    }

    #[test]
    fn hash_ignores_labels_and_name_but_not_structure() {
        let g = diamond();
        let mut b = GraphBuilder::named("other name");
        let n0 = b.add_labeled_task(10, "different");
        let n1 = b.add_task(20);
        let n2 = b.add_task(30);
        let n3 = b.add_labeled_task(40, "labels");
        b.add_edge(n0, n1, 5).unwrap();
        b.add_edge(n0, n2, 6).unwrap();
        b.add_edge(n1, n3, 7).unwrap();
        b.add_edge(n2, n3, 8).unwrap();
        let same_structure = b.build().unwrap();
        assert_eq!(structural_hash(&g), structural_hash(&same_structure));

        // One changed weight, one changed edge cost: both must move the hash.
        let mut b = GraphBuilder::new();
        let n0 = b.add_task(11);
        let n1 = b.add_task(20);
        let n2 = b.add_task(30);
        let n3 = b.add_task(40);
        b.add_edge(n0, n1, 5).unwrap();
        b.add_edge(n0, n2, 6).unwrap();
        b.add_edge(n1, n3, 7).unwrap();
        b.add_edge(n2, n3, 8).unwrap();
        assert_ne!(structural_hash(&g), structural_hash(&b.build().unwrap()));
    }
}
