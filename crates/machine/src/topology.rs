//! Interconnection network topologies (paper Figure 2).
//!
//! A [`Topology`] is an undirected graph over processors. Constructors are
//! provided for every family the paper lists — hypercube, mesh, tree, star,
//! fully-connected — plus rings, tori, linear arrays and arbitrary edge
//! lists. A compact spec syntax (`"hypercube:3"`, `"mesh:4x4"`, ...) lets
//! command-line tools describe machines the way Banger's dialog did.

use std::fmt;

/// Identifier of a processor; a dense index into the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub u32);

impl ProcId {
    /// Dense index of the processor.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for ProcId {
    fn from(v: u32) -> Self {
        ProcId(v)
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// The most processors a machine may have. [`Topology::parse`] refuses
/// more before building the topology, [`crate::Machine::try_new`] before
/// building its routing table: the routes of `linear:256` alone hold
/// about 5.6 M hops (22 MB).
pub const MAX_PROCESSORS: usize = 256;

/// Errors from topology construction or spec parsing.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyError {
    /// A parameter was out of range (e.g. zero processors).
    BadParameter(String),
    /// An edge referenced a processor outside the machine.
    UnknownProcessor(u32),
    /// The spec string could not be parsed.
    BadSpec(String),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::BadParameter(m) => write!(f, "bad topology parameter: {m}"),
            TopologyError::UnknownProcessor(p) => write!(f, "unknown processor {p}"),
            TopologyError::BadSpec(m) => write!(f, "bad topology spec: {m}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// An undirected interconnection network over `n` processors.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    name: String,
    n: usize,
    /// Sorted adjacency lists.
    adj: Vec<Vec<ProcId>>,
}

impl Topology {
    /// Builds a topology from an explicit undirected edge list.
    pub fn from_edges(
        name: impl Into<String>,
        n: usize,
        edges: &[(u32, u32)],
    ) -> Result<Self, TopologyError> {
        if n == 0 {
            return Err(TopologyError::BadParameter(
                "a machine needs at least one processor".into(),
            ));
        }
        let mut adj: Vec<Vec<ProcId>> = vec![Vec::new(); n];
        for &(a, b) in edges {
            if a as usize >= n {
                return Err(TopologyError::UnknownProcessor(a));
            }
            if b as usize >= n {
                return Err(TopologyError::UnknownProcessor(b));
            }
            if a == b {
                return Err(TopologyError::BadParameter(format!(
                    "self-link on processor {a}"
                )));
            }
            if !adj[a as usize].contains(&ProcId(b)) {
                adj[a as usize].push(ProcId(b));
                adj[b as usize].push(ProcId(a));
            }
        }
        for l in &mut adj {
            l.sort_unstable();
        }
        Ok(Topology {
            name: name.into(),
            n,
            adj,
        })
    }

    /// A single processor with no links (the sequential baseline machine).
    pub fn single() -> Self {
        Topology::from_edges("single", 1, &[]).unwrap()
    }

    /// A `dim`-dimensional binary hypercube with `2^dim` processors;
    /// processors are adjacent iff their ids differ in exactly one bit.
    /// The degenerate 0-dimensional cube is one linkless processor, and
    /// canonicalizes to [`Topology::single`] so its name (and thus its
    /// printed spec) stays parseable — the spec syntax spells one
    /// processor `single`, never `hypercube:0`.
    pub fn hypercube(dim: u32) -> Self {
        if dim == 0 {
            return Topology::single();
        }
        let n = 1usize << dim;
        let mut edges = Vec::with_capacity(n * dim as usize / 2);
        for p in 0..n as u32 {
            for b in 0..dim {
                let q = p ^ (1 << b);
                if p < q {
                    edges.push((p, q));
                }
            }
        }
        Topology::from_edges(format!("hypercube-{dim}"), n, &edges).unwrap()
    }

    /// A `rows x cols` 2-D mesh (no wraparound).
    pub fn mesh(rows: usize, cols: usize) -> Self {
        assert!(rows >= 1 && cols >= 1);
        let idx = |r: usize, c: usize| (r * cols + c) as u32;
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if r + 1 < rows {
                    edges.push((idx(r, c), idx(r + 1, c)));
                }
                if c + 1 < cols {
                    edges.push((idx(r, c), idx(r, c + 1)));
                }
            }
        }
        Topology::from_edges(format!("mesh-{rows}x{cols}"), rows * cols, &edges).unwrap()
    }

    /// A `rows x cols` 2-D torus (mesh with wraparound links).
    pub fn torus(rows: usize, cols: usize) -> Self {
        assert!(rows >= 2 && cols >= 2);
        let idx = |r: usize, c: usize| (r * cols + c) as u32;
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                edges.push((idx(r, c), idx((r + 1) % rows, c)));
                edges.push((idx(r, c), idx(r, (c + 1) % cols)));
            }
        }
        Topology::from_edges(format!("torus-{rows}x{cols}"), rows * cols, &edges).unwrap()
    }

    /// A ring of `n` processors.
    pub fn ring(n: usize) -> Self {
        assert!(n >= 2);
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        Topology::from_edges(format!("ring-{n}"), n, &edges).unwrap()
    }

    /// A linear array of `n` processors.
    pub fn linear(n: usize) -> Self {
        assert!(n >= 1);
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        Topology::from_edges(format!("linear-{n}"), n, &edges).unwrap()
    }

    /// A star: processor 0 is the hub, all others connect only to it.
    pub fn star(n: usize) -> Self {
        assert!(n >= 2);
        let edges: Vec<(u32, u32)> = (1..n as u32).map(|i| (0, i)).collect();
        Topology::from_edges(format!("star-{n}"), n, &edges).unwrap()
    }

    /// A complete `arity`-ary tree of the given `depth` (depth 0 is a
    /// single root).
    pub fn tree(arity: usize, depth: u32) -> Self {
        assert!(arity >= 2);
        // n = (arity^(depth+1) - 1) / (arity - 1)
        let n: usize = (0..=depth).map(|d| arity.pow(d)).sum();
        let mut edges = Vec::new();
        // Children of node i are arity*i + 1 ..= arity*i + arity.
        for i in 0..n {
            for k in 1..=arity {
                let child = arity * i + k;
                if child < n {
                    edges.push((i as u32, child as u32));
                }
            }
        }
        Topology::from_edges(format!("tree-{arity}x{depth}"), n, &edges).unwrap()
    }

    /// A fully-connected machine: every processor pair has a direct link.
    pub fn fully_connected(n: usize) -> Self {
        assert!(n >= 1);
        let mut edges = Vec::with_capacity(n * (n - 1) / 2);
        for a in 0..n as u32 {
            for b in a + 1..n as u32 {
                edges.push((a, b));
            }
        }
        Topology::from_edges(format!("full-{n}"), n, &edges).unwrap()
    }

    /// Parses a compact spec: `hypercube:3`, `mesh:4x4`, `torus:4x4`,
    /// `ring:8`, `linear:8`, `star:8`, `tree:2x3` (arity x depth),
    /// `full:8`, `single`.
    ///
    /// ```
    /// use banger_machine::Topology;
    /// let t = Topology::parse("mesh:3x4").unwrap();
    /// assert_eq!(t.processors(), 12);
    /// assert!(Topology::parse("klein-bottle:7").is_err());
    /// ```
    pub fn parse(spec: &str) -> Result<Self, TopologyError> {
        let bad = |m: &str| TopologyError::BadSpec(format!("{m} (in {spec:?})"));
        let (kind, args) = match spec.split_once(':') {
            Some((k, a)) => (k.trim(), a.trim()),
            None => (spec.trim(), ""),
        };
        let one = |args: &str| -> Result<usize, TopologyError> {
            args.parse().map_err(|_| bad("expected one integer"))
        };
        let two = |args: &str| -> Result<(usize, usize), TopologyError> {
            let (a, b) = args.split_once('x').ok_or_else(|| bad("expected AxB"))?;
            Ok((
                a.trim().parse().map_err(|_| bad("bad first integer"))?,
                b.trim().parse().map_err(|_| bad("bad second integer"))?,
            ))
        };
        let check = |cond: bool, m: &str| if cond { Ok(()) } else { Err(bad(m)) };
        // Counted with saturating arithmetic, so an overflow is refused too.
        let capped = |n: usize| {
            let too_many = format!("more than {MAX_PROCESSORS} processors");
            check(n <= MAX_PROCESSORS, &too_many)
        };
        match kind {
            "single" => Ok(Topology::single()),
            "hypercube" => {
                let d = one(args)?;
                check(
                    d >= 1,
                    "hypercube dimension must be >= 1 (one processor is spelled `single`)",
                )?;
                capped(if d < 64 { 1 << d } else { usize::MAX })?;
                Ok(Topology::hypercube(d as u32))
            }
            "mesh" => {
                let (r, c) = two(args)?;
                check(r >= 1 && c >= 1, "mesh needs positive extents")?;
                capped(r.saturating_mul(c))?;
                Ok(Topology::mesh(r, c))
            }
            "torus" => {
                let (r, c) = two(args)?;
                check(r >= 2 && c >= 2, "torus needs extents >= 2")?;
                capped(r.saturating_mul(c))?;
                Ok(Topology::torus(r, c))
            }
            "ring" => {
                let n = one(args)?;
                check(n >= 2, "ring needs >= 2 processors")?;
                capped(n)?;
                Ok(Topology::ring(n))
            }
            "linear" => {
                let n = one(args)?;
                check(n >= 1, "linear needs >= 1 processor")?;
                capped(n)?;
                Ok(Topology::linear(n))
            }
            "star" => {
                let n = one(args)?;
                check(n >= 2, "star needs >= 2 processors")?;
                capped(n)?;
                Ok(Topology::star(n))
            }
            "tree" => {
                let (a, d) = two(args)?;
                check(a >= 2, "tree arity must be >= 2")?;
                let levels = (0..=d.min(64) as u32).map(|i| a.saturating_pow(i));
                capped(levels.fold(0, usize::saturating_add))?;
                Ok(Topology::tree(a, d as u32))
            }
            "full" => {
                let n = one(args)?;
                check(n >= 1, "full needs >= 1 processor")?;
                capped(n)?;
                Ok(Topology::fully_connected(n))
            }
            other => Err(bad(&format!("unknown topology kind {other:?}"))),
        }
    }

    /// The topology's name (e.g. `hypercube-3`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of processors.
    #[inline]
    pub fn processors(&self) -> usize {
        self.n
    }

    /// Neighbours of processor `p` in ascending id order.
    #[inline]
    pub fn neighbors(&self, p: ProcId) -> &[ProcId] {
        &self.adj[p.index()]
    }

    /// Degree of processor `p`.
    pub fn degree(&self, p: ProcId) -> usize {
        self.adj[p.index()].len()
    }

    /// Total number of (undirected) links.
    pub fn link_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Iterates over processor ids.
    pub fn proc_ids(&self) -> impl Iterator<Item = ProcId> {
        (0..self.n as u32).map(ProcId)
    }

    /// True when every processor can reach every other.
    pub fn is_connected(&self) -> bool {
        if self.n == 0 {
            return true;
        }
        let mut seen = vec![false; self.n];
        let mut stack = vec![ProcId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(p) = stack.pop() {
            for &q in self.neighbors(p) {
                if !seen[q.index()] {
                    seen[q.index()] = true;
                    count += 1;
                    stack.push(q);
                }
            }
        }
        count == self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hypercube_distance_is_hamming() {
        let t = Topology::hypercube(4);
        assert_eq!(t.processors(), 16);
        for p in 0..16u32 {
            assert_eq!(t.degree(ProcId(p)), 4);
            for &q in t.neighbors(ProcId(p)) {
                assert_eq!((p ^ q.0).count_ones(), 1);
            }
        }
        assert_eq!(t.link_count(), 16 * 4 / 2);
        assert!(t.is_connected());
    }

    #[test]
    fn mesh_shape() {
        let t = Topology::mesh(3, 4);
        assert_eq!(t.processors(), 12);
        // links: 2*4 vertical + 3*3 horizontal = 17
        assert_eq!(t.link_count(), 17);
        // corner degree 2, edge 3, centre 4
        assert_eq!(t.degree(ProcId(0)), 2);
        assert_eq!(t.degree(ProcId(1)), 3);
        assert_eq!(t.degree(ProcId(5)), 4);
        assert!(t.is_connected());
    }

    #[test]
    fn torus_regular_degree_4() {
        let t = Topology::torus(3, 3);
        for p in t.proc_ids() {
            assert_eq!(t.degree(p), 4);
        }
        assert_eq!(t.link_count(), 18);
    }

    #[test]
    fn ring_and_linear() {
        let r = Topology::ring(5);
        assert_eq!(r.link_count(), 5);
        for p in r.proc_ids() {
            assert_eq!(r.degree(p), 2);
        }
        let l = Topology::linear(5);
        assert_eq!(l.link_count(), 4);
        assert_eq!(l.degree(ProcId(0)), 1);
        assert_eq!(l.degree(ProcId(2)), 2);
    }

    #[test]
    fn star_hub() {
        let t = Topology::star(6);
        assert_eq!(t.degree(ProcId(0)), 5);
        for p in 1..6u32 {
            assert_eq!(t.degree(ProcId(p)), 1);
        }
        assert_eq!(t.link_count(), 5);
    }

    #[test]
    fn tree_sizes() {
        let t = Topology::tree(2, 3);
        assert_eq!(t.processors(), 15);
        assert_eq!(t.link_count(), 14);
        assert_eq!(t.degree(ProcId(0)), 2); // root
        assert_eq!(t.degree(ProcId(1)), 3); // internal
        assert_eq!(t.degree(ProcId(14)), 1); // leaf
        let t3 = Topology::tree(3, 2);
        assert_eq!(t3.processors(), 13);
    }

    #[test]
    fn fully_connected_complete() {
        let t = Topology::fully_connected(6);
        assert_eq!(t.link_count(), 15);
        for p in t.proc_ids() {
            assert_eq!(t.degree(p), 5);
        }
    }

    #[test]
    fn single_machine() {
        let t = Topology::single();
        assert_eq!(t.processors(), 1);
        assert_eq!(t.link_count(), 0);
        assert!(t.is_connected());
    }

    #[test]
    fn from_edges_validation() {
        assert!(Topology::from_edges("x", 0, &[]).is_err());
        assert!(matches!(
            Topology::from_edges("x", 2, &[(0, 5)]),
            Err(TopologyError::UnknownProcessor(5))
        ));
        assert!(Topology::from_edges("x", 2, &[(1, 1)]).is_err());
        // duplicate edges collapse
        let t = Topology::from_edges("x", 2, &[(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(t.link_count(), 1);
    }

    #[test]
    fn disconnected_detected() {
        let t = Topology::from_edges("x", 4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!t.is_connected());
    }

    #[test]
    fn parse_specs() {
        assert_eq!(Topology::parse("hypercube:3").unwrap().processors(), 8);
        assert_eq!(Topology::parse("mesh:2x3").unwrap().processors(), 6);
        assert_eq!(Topology::parse("torus:3x3").unwrap().processors(), 9);
        assert_eq!(Topology::parse("ring:7").unwrap().processors(), 7);
        assert_eq!(Topology::parse("linear:4").unwrap().processors(), 4);
        assert_eq!(Topology::parse("star:5").unwrap().processors(), 5);
        assert_eq!(Topology::parse("tree:2x2").unwrap().processors(), 7);
        assert_eq!(Topology::parse("full:5").unwrap().processors(), 5);
        assert_eq!(Topology::parse("single").unwrap().processors(), 1);
        assert_eq!(Topology::parse(" mesh : 2x2 ").unwrap().processors(), 4);
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "",
            "frobnicate:3",
            "hypercube:x",
            "hypercube:99",
            "mesh:4",
            "mesh:0x3",
            "ring:1",
            "tree:1x2",
            "star:1",
        ] {
            assert!(Topology::parse(bad).is_err(), "spec {bad:?} should fail");
        }
    }

    #[test]
    fn parse_refuses_more_processors_than_the_cap() {
        for spec in [
            "hypercube:8",
            "mesh:16x16",
            "torus:2x128",
            "linear:256",
            "tree:2x7",
        ] {
            let t = Topology::parse(spec).unwrap();
            assert!(t.processors() <= MAX_PROCESSORS, "{spec}");
        }
        for bad in [
            "hypercube:9",
            "hypercube:20",
            "hypercube:64",
            "hypercube:18446744073709551615",
            "mesh:300x300",
            "mesh:18446744073709551615x2",
            "torus:17x16",
            "ring:257",
            "linear:257",
            "star:100000",
            "full:257",
            "tree:2x8",
            "tree:1000x10",
            "tree:2x18446744073709551615",
        ] {
            let err = Topology::parse(bad).unwrap_err().to_string();
            assert!(err.contains("more than 256 processors"), "{bad}: {err}");
        }
    }

    #[test]
    fn parse_rejects_zero_dimensions() {
        // Every zero-extent spec must fail at parse time — a degenerate
        // machine here would only surface as confusing scheduler errors
        // (or an accidental 1-processor "hypercube") downstream.
        for bad in [
            "hypercube:0",
            "mesh:0x3",
            "mesh:3x0",
            "torus:0x4",
            "ring:0",
            "linear:0",
            "star:0",
            "tree:0x2",
            "full:0",
        ] {
            let err = Topology::parse(bad).unwrap_err();
            let TopologyError::BadSpec(msg) = &err else {
                panic!("spec {bad:?}: unexpected error {err:?}");
            };
            assert!(msg.contains(&format!("{bad:?}")), "spec {bad:?}: {msg}");
        }
    }
}
