//! Processor interconnect topologies with deterministic shortest-path routing.
//!
//! The APN (arbitrary processor network) class of algorithms schedules
//! messages onto point-to-point links (§4 of the paper). This module models
//! the network as an undirected graph of processors and precomputes
//! deterministic BFS shortest-path routes.
//!
//! The BNP/UNC classes use [`Topology::fully_connected`], whose links are
//! never contended (they exist so that the same `Schedule` machinery can
//! describe all three classes).
//!
//! A link is a single full-duplex-shared resource: at most one message
//! occupies it at a time, regardless of direction. This matches the
//! contention model assumed by the MH/BSA publications.

use crate::error::TopologyError;
use std::fmt;

/// The largest processor count a textual platform spec may ask for
/// ([`Topology::parse_spec`] and `Env::parse_spec`).
///
/// Construction materializes all `p²` routes, and a chain's route table
/// holds Σ dist ≈ p³/3 links, so an unchecked spec from a client could
/// abort the process on one allocation. Measured on a 2-core x86-64
/// container (release build, MH on a 200-task RGNOS graph): at 256
/// processors the costliest family, `chain`, runs in 0.25 s at a 47 MB
/// peak, and `full` in 0.05 s; at 512, `chain` takes 1.2 s at 349 MB and
/// `full:1024` takes 5 s. Every experiment in the paper uses at most 9.
pub const MAX_PROCS: usize = 256;

/// Identifier of a processor (a.k.a. processing element, PE).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub u32);

impl ProcId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Identifier of an undirected link between two processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

impl LinkId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The family a [`Topology`] was built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// Every pair of processors directly linked (contention-free in the
    /// BNP/UNC experiments).
    FullyConnected,
    /// `P0 – P1 – … – P(p−1) – P0`.
    Ring,
    /// `P0 – P1 – … – P(p−1)` (a ring minus one link).
    Chain,
    /// `P0` linked to every other processor.
    Star,
    /// `rows × cols` 2-D mesh, row-major processor ids, no wraparound.
    Mesh2D { rows: usize, cols: usize },
    /// `rows × cols` 2-D torus (mesh with wraparound in both dimensions).
    Torus { rows: usize, cols: usize },
    /// `2^dim` processors, links between ids differing in one bit.
    Hypercube { dim: usize },
    /// User-supplied link list.
    Custom,
}

/// An undirected processor interconnect with precomputed BFS routing.
///
/// Routing is deterministic: among the shortest paths from `a` to `b`, the
/// route always steps to the smallest-id neighbour that stays on a shortest
/// path. Benchmarks therefore reproduce exactly across runs.
///
/// All `p²` routes are materialized once at construction into one flat CSR
/// array of link sequences, so [`Topology::route`] is an O(1) slice view —
/// the APN message layer walks routes on every probe and must not allocate
/// or chase per-hop `next_hop` lookups.
#[derive(Debug, Clone)]
pub struct Topology {
    kind: TopologyKind,
    num_procs: usize,
    /// Canonical endpoints (lo, hi) per link id.
    links: Vec<(ProcId, ProcId)>,
    /// Per processor: `(neighbour, connecting link)`, sorted by neighbour id.
    adj: Vec<Vec<(ProcId, LinkId)>>,
    /// Flattened `p × p` hop distances.
    dist: Vec<u32>,
    /// CSR offsets into `route_links`: the route `src → dst` occupies
    /// `route_links[route_off[src*p + dst] .. route_off[src*p + dst + 1]]`.
    route_off: Vec<u32>,
    /// All `p²` deterministic shortest routes as link sequences, flattened.
    route_links: Vec<LinkId>,
}

impl Topology {
    /// Fully connected machine with `p` processors.
    pub fn fully_connected(p: usize) -> Result<Topology, TopologyError> {
        let mut links = Vec::with_capacity(p * p.saturating_sub(1) / 2);
        for a in 0..p {
            for b in (a + 1)..p {
                links.push((a as u32, b as u32));
            }
        }
        Self::from_links(TopologyKind::FullyConnected, p, &links)
    }

    /// Ring of `p ≥ 3` processors (`p ∈ {1, 2}` degenerate cases are built as
    /// a chain to avoid duplicate links).
    pub fn ring(p: usize) -> Result<Topology, TopologyError> {
        if p <= 2 {
            let mut t = Self::chain(p)?;
            t.kind = TopologyKind::Ring;
            return Ok(t);
        }
        let mut links: Vec<(u32, u32)> = (0..p as u32 - 1).map(|i| (i, i + 1)).collect();
        links.push((0, p as u32 - 1));
        Self::from_links(TopologyKind::Ring, p, &links)
    }

    /// Linear chain of `p` processors.
    pub fn chain(p: usize) -> Result<Topology, TopologyError> {
        let links: Vec<(u32, u32)> = (0..p.saturating_sub(1) as u32)
            .map(|i| (i, i + 1))
            .collect();
        Self::from_links(TopologyKind::Chain, p, &links)
    }

    /// Star: `P0` is the hub.
    pub fn star(p: usize) -> Result<Topology, TopologyError> {
        let links: Vec<(u32, u32)> = (1..p as u32).map(|i| (0, i)).collect();
        Self::from_links(TopologyKind::Star, p, &links)
    }

    /// `rows × cols` mesh without wraparound; processor `(r, c)` has id
    /// `r*cols + c`.
    pub fn mesh(rows: usize, cols: usize) -> Result<Topology, TopologyError> {
        if rows == 0 || cols == 0 {
            return Err(TopologyError::BadParameter(
                "mesh needs rows, cols ≥ 1".into(),
            ));
        }
        let id = |r: usize, c: usize| (r * cols + c) as u32;
        let mut links = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    links.push((id(r, c), id(r, c + 1)));
                }
                if r + 1 < rows {
                    links.push((id(r, c), id(r + 1, c)));
                }
            }
        }
        Self::from_links(TopologyKind::Mesh2D { rows, cols }, rows * cols, &links)
    }

    /// `rows × cols` torus: a mesh with wraparound links in both
    /// dimensions. Requires `rows, cols ≥ 3` (smaller extents would
    /// duplicate the wraparound and nearest-neighbour links); use
    /// [`Topology::mesh`] or [`Topology::ring`] below that.
    pub fn torus(rows: usize, cols: usize) -> Result<Topology, TopologyError> {
        if rows < 3 || cols < 3 {
            return Err(TopologyError::BadParameter(
                "torus needs rows, cols ≥ 3".into(),
            ));
        }
        let id = |r: usize, c: usize| (r * cols + c) as u32;
        let mut links = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                links.push((id(r, c), id(r, (c + 1) % cols)));
                links.push((id(r, c), id((r + 1) % rows, c)));
            }
        }
        Self::from_links(TopologyKind::Torus { rows, cols }, rows * cols, &links)
    }

    /// Hypercube of dimension `dim` (`2^dim` processors).
    pub fn hypercube(dim: usize) -> Result<Topology, TopologyError> {
        if dim > 16 {
            return Err(TopologyError::BadParameter("hypercube dim > 16".into()));
        }
        let p = 1usize << dim;
        let mut links = Vec::new();
        for a in 0..p as u32 {
            for bit in 0..dim {
                let b = a ^ (1 << bit);
                if a < b {
                    links.push((a, b));
                }
            }
        }
        Self::from_links(TopologyKind::Hypercube { dim }, p, &links)
    }

    /// Arbitrary connected link list.
    pub fn custom(p: usize, links: &[(u32, u32)]) -> Result<Topology, TopologyError> {
        Self::from_links(TopologyKind::Custom, p, links)
    }

    /// Parse a textual topology spec: `full:N`, `ring:N`, `chain:N`,
    /// `star:N`, `hypercube:D`, `mesh:RxC`, `torus:RxC`. One parser shared
    /// by the CLI's `--topology` flag and the serve protocol's platform
    /// field, so the two surfaces can never drift apart. A spec of more
    /// than [`MAX_PROCS`] processors is rejected before anything is built.
    pub fn parse_spec(spec: &str) -> Result<Topology, String> {
        let (kind, rest) = spec
            .split_once(':')
            .ok_or("topology must look like kind:N")?;
        let n = |what: &str| -> Result<usize, String> {
            rest.parse().map_err(|_| format!("bad {what} `{rest}`"))
        };
        // `None` is a processor count that overflowed `usize`.
        let capped = |procs: Option<usize>| -> Result<usize, String> {
            procs
                .filter(|&p| p <= MAX_PROCS)
                .ok_or_else(|| format!("`{spec}` has more than {MAX_PROCS} processors"))
        };
        let rc = |what: &str| -> Result<(usize, usize), String> {
            let (r, c) = rest.split_once('x').ok_or(format!("{what} needs RxC"))?;
            let (r, c): (usize, usize) = (
                r.parse().map_err(|_| "bad rows".to_string())?,
                c.parse().map_err(|_| "bad cols".to_string())?,
            );
            capped(r.checked_mul(c))?;
            Ok((r, c))
        };
        let procs = || capped(Some(n("N")?));
        let t = match kind {
            "full" => Topology::fully_connected(procs()?),
            "ring" => Topology::ring(procs()?),
            "chain" => Topology::chain(procs()?),
            "star" => Topology::star(procs()?),
            "hypercube" => {
                let d = n("D")?;
                capped(u32::try_from(d).ok().and_then(|d| 1usize.checked_shl(d)))?;
                Topology::hypercube(d)
            }
            "mesh" => {
                let (r, c) = rc("mesh")?;
                Topology::mesh(r, c)
            }
            "torus" => {
                let (r, c) = rc("torus")?;
                Topology::torus(r, c)
            }
            other => return Err(format!("unknown topology `{other}`")),
        };
        t.map_err(|e| e.to_string())
    }

    fn from_links(
        kind: TopologyKind,
        p: usize,
        raw: &[(u32, u32)],
    ) -> Result<Topology, TopologyError> {
        if p == 0 {
            return Err(TopologyError::Empty);
        }
        let mut canon: Vec<(u32, u32)> = Vec::with_capacity(raw.len());
        for &(a, b) in raw {
            if a as usize >= p {
                return Err(TopologyError::BadEndpoint { proc: a });
            }
            if b as usize >= p {
                return Err(TopologyError::BadEndpoint { proc: b });
            }
            if a == b {
                return Err(TopologyError::SelfLink { proc: a });
            }
            canon.push((a.min(b), a.max(b)));
        }
        canon.sort_unstable();
        for w in canon.windows(2) {
            if w[0] == w[1] {
                return Err(TopologyError::DuplicateLink {
                    a: w[0].0,
                    b: w[0].1,
                });
            }
        }
        let links: Vec<(ProcId, ProcId)> =
            canon.iter().map(|&(a, b)| (ProcId(a), ProcId(b))).collect();
        let mut adj: Vec<Vec<(ProcId, LinkId)>> = vec![Vec::new(); p];
        for (i, &(a, b)) in links.iter().enumerate() {
            adj[a.index()].push((b, LinkId(i as u32)));
            adj[b.index()].push((a, LinkId(i as u32)));
        }
        for row in &mut adj {
            row.sort_unstable_by_key(|&(n, _)| n);
        }

        // All-pairs BFS (p is small: ≤ a few dozen in every experiment).
        let mut dist = vec![u32::MAX; p * p];
        let mut next_hop = vec![u32::MAX; p * p];
        for dst in 0..p {
            let d = &mut dist[dst * p..(dst + 1) * p]; // temporarily row = from-dst distances
            let mut queue = std::collections::VecDeque::new();
            d[dst] = 0;
            queue.push_back(dst);
            while let Some(x) = queue.pop_front() {
                for &(n, _) in &adj[x] {
                    if d[n.index()] == u32::MAX {
                        d[n.index()] = d[x] + 1;
                        queue.push_back(n.index());
                    }
                }
            }
        }
        // dist[dst*p + x] currently holds hop distance from x to dst (the
        // graph is undirected, so BFS-from-dst distances are symmetric in
        // meaning). Reshape into dist[src*p + dst].
        let mut dist_sd = vec![u32::MAX; p * p];
        for dst in 0..p {
            for src in 0..p {
                dist_sd[src * p + dst] = dist[dst * p + src];
            }
        }
        for src in 0..p {
            for dst in 0..p {
                if src == dst {
                    continue;
                }
                let dsd = dist_sd[src * p + dst];
                if dsd == u32::MAX {
                    return Err(TopologyError::Disconnected);
                }
                // Smallest-id neighbour strictly closer to dst.
                let hop = adj[src]
                    .iter()
                    .map(|&(n, _)| n)
                    .find(|n| dist_sd[n.index() * p + dst] == dsd - 1)
                    .expect("finite distance implies a closer neighbour");
                next_hop[src * p + dst] = hop.0;
            }
        }

        // Flatten every route into CSR form: total link-hop count is
        // Σ dist(src, dst), so sizes are exact and built in one pass by
        // following `next_hop` (links found via the sorted adjacency rows).
        let total_hops: usize = dist_sd.iter().map(|&d| d as usize).sum();
        let mut route_off = Vec::with_capacity(p * p + 1);
        let mut route_links = Vec::with_capacity(total_hops);
        route_off.push(0u32);
        for src in 0..p {
            for dst in 0..p {
                let mut cur = src;
                while cur != dst {
                    let next = next_hop[cur * p + dst] as usize;
                    let row = &adj[cur];
                    let link = row[row
                        .binary_search_by_key(&ProcId(next as u32), |&(n, _)| n)
                        .expect("next hop must be adjacent")]
                    .1;
                    route_links.push(link);
                    cur = next;
                }
                route_off.push(route_links.len() as u32);
            }
        }

        Ok(Topology {
            kind,
            num_procs: p,
            links,
            adj,
            dist: dist_sd,
            route_off,
            route_links,
        })
    }

    /// Which family this topology belongs to.
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// Number of processors.
    #[inline]
    pub fn num_procs(&self) -> usize {
        self.num_procs
    }

    /// Number of undirected links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Iterator over all processor ids.
    pub fn procs(&self) -> impl Iterator<Item = ProcId> + '_ {
        (0..self.num_procs as u32).map(ProcId)
    }

    /// Endpoints of a link (canonical `lo < hi` order).
    pub fn link_ends(&self, l: LinkId) -> (ProcId, ProcId) {
        self.links[l.index()]
    }

    /// Neighbours of `p` with their connecting links, sorted by id.
    pub fn neighbors(&self, p: ProcId) -> &[(ProcId, LinkId)] {
        &self.adj[p.index()]
    }

    /// Hop distances from `a` to every processor, indexed by processor.
    pub fn distances_from(&self, a: ProcId) -> &[u32] {
        &self.dist[a.index() * self.num_procs..(a.index() + 1) * self.num_procs]
    }

    /// Hop distance between two processors.
    pub fn distance(&self, a: ProcId, b: ProcId) -> u32 {
        if a == b {
            0
        } else {
            self.dist[a.index() * self.num_procs + b.index()]
        }
    }

    /// The deterministic shortest route from `a` to `b` as a link sequence
    /// (empty when `a == b`). A precomputed slice view: no allocation, no
    /// per-hop lookups.
    pub fn route(&self, a: ProcId, b: ProcId) -> &[LinkId] {
        let k = a.index() * self.num_procs + b.index();
        &self.route_links[self.route_off[k] as usize..self.route_off[k + 1] as usize]
    }

    /// Breadth-first processor order from `start` (neighbours visited in
    /// ascending id order). BSA processes processors in this order.
    pub fn bfs_order(&self, start: ProcId) -> Vec<ProcId> {
        let mut seen = vec![false; self.num_procs];
        let mut queue = std::collections::VecDeque::new();
        let mut out = Vec::with_capacity(self.num_procs);
        seen[start.index()] = true;
        queue.push_back(start);
        while let Some(x) = queue.pop_front() {
            out.push(x);
            for &(n, _) in self.neighbors(x) {
                if !seen[n.index()] {
                    seen[n.index()] = true;
                    queue.push_back(n);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_connected_counts() {
        let t = Topology::fully_connected(5).unwrap();
        assert_eq!(t.num_procs(), 5);
        assert_eq!(t.num_links(), 10);
        assert_eq!(t.distance(ProcId(0), ProcId(4)), 1);
        assert_eq!(t.route(ProcId(0), ProcId(4)).len(), 1);
    }

    #[test]
    fn ring_distances_wrap() {
        let t = Topology::ring(6).unwrap();
        assert_eq!(t.num_links(), 6);
        assert_eq!(t.distance(ProcId(0), ProcId(3)), 3);
        assert_eq!(t.distance(ProcId(0), ProcId(5)), 1);
        assert_eq!(t.distance(ProcId(1), ProcId(5)), 2);
    }

    #[test]
    fn chain_is_a_path() {
        let t = Topology::chain(4).unwrap();
        assert_eq!(t.num_links(), 3);
        assert_eq!(t.distance(ProcId(0), ProcId(3)), 3);
        let r = t.route(ProcId(0), ProcId(3));
        assert_eq!(r.len(), 3);
    }

    /// Walk `route(a, b)` from `a` by link endpoints, checking that each
    /// link touches the current processor and that the walk ends at `b`.
    /// Returns the processors visited, both ends included.
    fn walk(t: &Topology, a: ProcId, b: ProcId) -> Vec<ProcId> {
        let mut procs = vec![a];
        let mut cur = a;
        for &link in t.route(a, b) {
            let (lo, hi) = t.link_ends(link);
            assert!(cur == lo || cur == hi, "{a}->{b}: {link:?} misses {cur}");
            cur = if cur == lo { hi } else { lo };
            procs.push(cur);
        }
        assert_eq!(cur, b, "{a}->{b}: route ends elsewhere");
        procs
    }

    #[test]
    fn star_routes_through_hub() {
        let t = Topology::star(5).unwrap();
        assert_eq!(t.num_links(), 4);
        assert_eq!(t.distance(ProcId(1), ProcId(4)), 2);
        assert_eq!(
            walk(&t, ProcId(1), ProcId(4)),
            vec![ProcId(1), ProcId(0), ProcId(4)]
        );
    }

    #[test]
    fn mesh_shape() {
        let t = Topology::mesh(2, 3).unwrap();
        assert_eq!(t.num_procs(), 6);
        // 2 rows × 2 horizontal links + 3 vertical links = 4 + 3.
        assert_eq!(t.num_links(), 7);
        // Corner to corner: manhattan distance.
        assert_eq!(t.distance(ProcId(0), ProcId(5)), 3);
    }

    #[test]
    fn hypercube_shape() {
        let t = Topology::hypercube(3).unwrap();
        assert_eq!(t.num_procs(), 8);
        assert_eq!(t.num_links(), 12);
        assert_eq!(t.distance(ProcId(0), ProcId(7)), 3); // 0b000 → 0b111
        assert_eq!(t.distance(ProcId(0), ProcId(5)), 2);
    }

    #[test]
    fn routes_are_shortest_and_consistent() {
        for t in [
            Topology::ring(7).unwrap(),
            Topology::mesh(3, 3).unwrap(),
            Topology::hypercube(3).unwrap(),
            Topology::star(6).unwrap(),
        ] {
            for a in t.procs() {
                for b in t.procs() {
                    let hops = walk(&t, a, b).len() - 1;
                    assert_eq!(hops as u32, t.distance(a, b), "{a}->{b}");
                    assert_eq!(hops as u32, t.distances_from(a)[b.index()], "{a}->{b}");
                }
            }
        }
    }

    #[test]
    fn custom_rejects_bad_input() {
        assert!(matches!(
            Topology::custom(0, &[]),
            Err(TopologyError::Empty)
        ));
        assert!(matches!(
            Topology::custom(2, &[(0, 5)]),
            Err(TopologyError::BadEndpoint { proc: 5 })
        ));
        assert!(matches!(
            Topology::custom(2, &[(1, 1)]),
            Err(TopologyError::SelfLink { proc: 1 })
        ));
        assert!(matches!(
            Topology::custom(2, &[(0, 1), (1, 0)]),
            Err(TopologyError::DuplicateLink { .. })
        ));
        assert!(matches!(
            Topology::custom(3, &[(0, 1)]),
            Err(TopologyError::Disconnected)
        ));
    }

    #[test]
    fn single_proc_topologies() {
        for t in [
            Topology::fully_connected(1).unwrap(),
            Topology::ring(1).unwrap(),
            Topology::chain(1).unwrap(),
            Topology::star(1).unwrap(),
        ] {
            assert_eq!(t.num_procs(), 1);
            assert_eq!(t.num_links(), 0);
            assert!(t.route(ProcId(0), ProcId(0)).is_empty());
        }
    }

    #[test]
    fn bfs_order_covers_all_procs_nearest_first() {
        let t = Topology::chain(5).unwrap();
        assert_eq!(
            t.bfs_order(ProcId(2)),
            vec![ProcId(2), ProcId(1), ProcId(3), ProcId(0), ProcId(4)]
        );
        let t = Topology::mesh(2, 2).unwrap();
        let order = t.bfs_order(ProcId(0));
        assert_eq!(order.len(), 4);
        assert_eq!(order[0], ProcId(0));
    }

    #[test]
    fn two_proc_ring_degenerates_to_single_link() {
        let t = Topology::ring(2).unwrap();
        assert_eq!(t.num_links(), 1);
        assert_eq!(t.kind(), TopologyKind::Ring);
    }

    #[test]
    fn torus_shape_and_distances() {
        let t = Topology::torus(3, 4).unwrap();
        assert_eq!(t.num_procs(), 12);
        // 2 links per node in a torus: rows·cols·2 undirected links.
        assert_eq!(t.num_links(), 24);
        // Wraparound shortens paths: corner (0,0) to (0,3) is 1 hop.
        assert_eq!(t.distance(ProcId(0), ProcId(3)), 1);
        // (0,0) to (2,2): min(2,1) rows + min(2,2) cols = 1 + 2 = 3.
        assert_eq!(t.distance(ProcId(0), ProcId(10)), 3);
        // Strictly better connected than the same-size mesh.
        let mesh = Topology::mesh(3, 4).unwrap();
        for a in t.procs() {
            for b in t.procs() {
                assert!(t.distance(a, b) <= mesh.distance(a, b));
            }
        }
    }

    #[test]
    fn parse_spec_round_trips_every_family() {
        let cases: [(&str, usize); 10] = [
            ("full:5", 5),
            ("ring:6", 6),
            ("chain:4", 4),
            ("star:5", 5),
            ("hypercube:3", 8),
            ("mesh:2x3", 6),
            ("torus:3x4", 12),
            ("full:256", MAX_PROCS),
            ("mesh:16x16", MAX_PROCS),
            ("hypercube:8", MAX_PROCS),
        ];
        for (spec, procs) in cases {
            let t = Topology::parse_spec(spec).unwrap();
            assert_eq!(t.num_procs(), procs, "{spec}");
        }
        for bad in ["full", "full:x", "mesh:3", "warp:9", "torus:1x9"] {
            assert!(Topology::parse_spec(bad).is_err(), "{bad}");
        }
        // Oversize specs are refused before any link or route is built.
        for huge in [
            "full:257",
            "full:60000",
            "ring:3000000",
            "chain:18446744073709551615",
            "star:1000",
            "mesh:100000x100000",
            "torus:4294967296x4294967296",
            "hypercube:9",
            "hypercube:16",
            "hypercube:64",
            "hypercube:4294967296",
        ] {
            let err = Topology::parse_spec(huge).unwrap_err();
            assert!(err.contains("more than 256 processors"), "{huge}: {err}");
        }
    }

    #[test]
    fn torus_rejects_small_extents() {
        assert!(matches!(
            Topology::torus(2, 5),
            Err(TopologyError::BadParameter(_))
        ));
        assert!(matches!(
            Topology::torus(3, 2),
            Err(TopologyError::BadParameter(_))
        ));
    }
}
