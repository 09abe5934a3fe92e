//! Policy-aware shortest-path routing.
//!
//! Probe packets follow the network's actual forwarding paths, which are
//! not geographic shortest paths: interdomain hops are comparatively
//! expensive (BGP prefers staying inside a domain — a coarse model of
//! policy path inflation). We run Dijkstra per source with integer costs:
//! intradomain hop = 10, interdomain hop = 30.
//!
//! # Hot-path implementation
//!
//! With only two edge weights the frontier spans at most `INTER_COST`
//! cost units, so the priority queue is a ring of
//! `INTER_COST / INTRA_COST + 1 = 4` buckets (Dial's algorithm) instead
//! of a `BinaryHeap`: pushes and pops are O(1), and each drained bucket
//! is sorted by router index so routers settle in exactly the
//! `(dist, router)` order the heap produced — the `dist`/`parent`
//! arrays are bit-identical to [`reference::solve`], which the property
//! suite asserts. Edge weights come precomputed from the topology's CSR
//! adjacency ([`geotopo_topology::AdjEntry::is_interdomain`] is a bit
//! test, not a link-table lookup). A [`RoutingScratch`] carries the
//! bucket ring, a memo of already-solved sources, and solver counters
//! across sources so per-vantage loops stop reallocating.
//!
//! The solve also records, for every router it reaches, the interface
//! it was reached on — its end of the link from its parent. That is the
//! address a traceroute hop reports, so trace walks read one array slot
//! per hop instead of scanning the hop router's adjacency list for the
//! previous router. The three per-router arrays are `u32`: a cost is at
//! most `INTER_COST` per hop over at most `n - 1` hops, which
//! [`RoutingOracle::new_in`] checks fits.

pub mod reference;

use geotopo_topology::{InterfaceId, LinkId, RouterId, Topology};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Per-hop cost of an intradomain link.
const INTRA_COST: u64 = 10;
/// Per-hop cost of an interdomain link.
const INTER_COST: u64 = 30;

/// Bucket-ring size: an entry pushed while settling distance `d` lands
/// at most `INTER_COST` past it, which spans
/// `INTER_COST / INTRA_COST + 1` distinct `INTRA_COST`-granular values.
const NUM_BUCKETS: usize = (INTER_COST / INTRA_COST) as usize + 1;

/// "No such router / interface / distance" in the oracle's `u32` arrays:
/// the parent and incoming interface of the source and of unreachable
/// routers, and the distance of unreachable routers.
const NONE: u32 = u32::MAX;

/// Solver counters, accumulated on the owning [`RoutingScratch`] and
/// absorbed into telemetry as `routing.*` by the collection stages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoutingStats {
    /// Shortest-path trees actually computed (memo hits excluded).
    pub sources_solved: u64,
    /// Edges examined across all relaxation loops.
    pub edges_relaxed: u64,
    /// Entries pushed into the bucket ring.
    pub bucket_pushes: u64,
    /// Solves that reused an already-warm bucket ring (every solve on a
    /// scratch after its first).
    pub bucket_reuses: u64,
    /// Sources served from the scratch memo without re-solving.
    pub memo_hits: u64,
}

impl RoutingStats {
    /// Adds `other` into `self` (used to merge per-monitor tallies in
    /// monitor-index order, keeping totals thread-count invariant).
    pub fn absorb(&mut self, other: &RoutingStats) {
        self.sources_solved += other.sources_solved;
        self.edges_relaxed += other.edges_relaxed;
        self.bucket_pushes += other.bucket_pushes;
        self.bucket_reuses += other.bucket_reuses;
        self.memo_hits += other.memo_hits;
    }
}

/// Reusable solver state: the bucket ring, a memo of solved sources,
/// and the accumulated [`RoutingStats`]. One scratch per independent
/// unit of work (one per Skitter monitor job, one per Mercator
/// collection) keeps the counters deterministic at any thread count.
#[derive(Debug, Default)]
pub struct RoutingScratch {
    solved: HashMap<u32, RoutingOracle>,
    core: SolveState,
    /// Solver counters accumulated across every solve on this scratch.
    pub stats: RoutingStats,
}

/// The bucket ring and warm flag — the solver state the Dijkstra kernel
/// mutates, split from the memo map so [`RoutingScratch::oracle`] can
/// hold a map entry open while solving into it.
#[derive(Debug, Default)]
struct SolveState {
    buckets: [Vec<u32>; NUM_BUCKETS],
    warm: bool,
}

impl RoutingScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// The oracle for `source`, memoized: the first request solves and
    /// caches, repeats are served from the memo and counted as hits.
    pub fn oracle(&mut self, topology: &Topology, source: RouterId) -> &RoutingOracle {
        match self.solved.entry(source.0) {
            Entry::Occupied(e) => {
                self.stats.memo_hits += 1;
                e.into_mut()
            }
            Entry::Vacant(e) => e.insert(RoutingOracle::solve(
                topology,
                source,
                &mut self.core,
                &mut self.stats,
            )),
        }
    }
}

/// A shortest-path forest from one source over a topology.
#[derive(Debug, Clone)]
pub struct RoutingOracle {
    source: RouterId,
    /// Parent of each router on its path from the source ([`NONE`] for
    /// the source itself and for unreachable routers).
    parent: Vec<u32>,
    /// Distance in cost units ([`NONE`] = unreachable).
    dist: Vec<u32>,
    /// The interface each router was reached on: its endpoint of the
    /// link from its parent ([`NONE`] for the source and unreachable
    /// routers).
    via: Vec<u32>,
}

impl RoutingOracle {
    /// Runs the bucket-queue Dijkstra from `source` with a throwaway
    /// scratch. Hot loops should share one via [`RoutingOracle::new_in`]
    /// or [`RoutingScratch::oracle`].
    pub fn new(topology: &Topology, source: RouterId) -> Self {
        let mut scratch = RoutingScratch::new();
        Self::new_in(topology, source, &mut scratch)
    }

    /// Runs the bucket-queue Dijkstra from `source`, reusing the
    /// scratch's bucket ring and accumulating its counters.
    ///
    /// The settle order — and therefore the `dist`/`parent` output —
    /// is identical to a `BinaryHeap` over `(dist, router)`: a drained
    /// bucket holds every live entry at its distance (weights are
    /// strictly positive, so settling one entry cannot improve another
    /// in the same bucket) and is sorted by router index before
    /// relaxation.
    ///
    /// # Panics
    ///
    /// Panics if the topology has so many routers that a path cost
    /// could overflow `u32` (more than `u32::MAX / INTER_COST`).
    pub fn new_in(topology: &Topology, source: RouterId, scratch: &mut RoutingScratch) -> Self {
        Self::solve(topology, source, &mut scratch.core, &mut scratch.stats)
    }

    /// The Dijkstra kernel behind [`RoutingOracle::new_in`] and
    /// [`RoutingScratch::oracle`], taking the scratch's parts separately
    /// so the memo map can stay borrowed while a miss solves.
    // analyze: hot-path-root
    fn solve(
        topology: &Topology,
        source: RouterId,
        core: &mut SolveState,
        stats: &mut RoutingStats,
    ) -> Self {
        const INTRA: u32 = INTRA_COST as u32;
        const WEIGHT: [u32; 2] = [INTRA, INTER_COST as u32];
        let n = topology.num_routers();
        assert!(
            (n as u64).saturating_mul(INTER_COST) < u64::from(NONE),
            "{n} routers: path costs could overflow u32"
        );
        // analyze: allow(alloc): the oracle's owned distance array, one per solved source
        let mut dist = vec![NONE; n];
        // analyze: allow(alloc): the oracle's owned parent array, one per solved source
        let mut parent = vec![NONE; n];
        // analyze: allow(alloc): the oracle's owned incoming-interface array, one per solved source
        let mut via = vec![NONE; n];
        stats.sources_solved += 1;
        if core.warm {
            stats.bucket_reuses += 1;
        } else {
            core.warm = true;
        }
        let buckets = &mut core.buckets;
        let (mut edges, mut pushes) = (0u64, 1u64);

        dist[source.0 as usize] = 0;
        buckets[0].push(source.0);
        let mut pending = 1usize;
        let mut cur = 0u32; // frontier distance, in INTRA_COST units
        while pending > 0 {
            let slot = (cur as usize) % NUM_BUCKETS;
            if buckets[slot].is_empty() {
                cur += 1;
                continue;
            }
            // Relaxations out of this bucket land at cur+1 or cur+3
            // (mod 4), never back in slot cur — taking the vec and
            // restoring it after the drain keeps its capacity warm.
            let mut batch = std::mem::take(&mut buckets[slot]);
            pending -= batch.len();
            batch.sort_unstable();
            let d = cur * INTRA;
            for &u in &batch {
                if dist[u as usize] != d {
                    continue; // stale: improved after this entry was pushed
                }
                for e in topology.neighbors(RouterId(u)) {
                    edges += 1;
                    let nd = d + WEIGHT[e.is_interdomain() as usize];
                    let vi = e.neighbor().0 as usize;
                    if nd < dist[vi] {
                        dist[vi] = nd;
                        parent[vi] = u;
                        // The relaxing link for now; resolved to the
                        // child's interface once the tree is final.
                        via[vi] = e.link().0;
                        buckets[(nd / INTRA) as usize % NUM_BUCKETS].push(vi as u32);
                        pushes += 1;
                        pending += 1;
                    }
                }
            }
            batch.clear();
            buckets[slot] = batch;
            cur += 1;
        }
        // Each reached router's incoming interface is its end of the
        // link it was last relaxed over. `TopologyBuilder` rejects
        // parallel links, so this is `interface_between(v, parent(v))`.
        for (v, slot) in via.iter_mut().enumerate() {
            if *slot != NONE {
                let link = topology.link(LinkId(*slot));
                *slot = if topology.interface(link.a).router.0 as usize == v {
                    link.a.0
                } else {
                    link.b.0
                };
            }
        }
        stats.edges_relaxed += edges;
        stats.bucket_pushes += pushes;
        RoutingOracle {
            source,
            parent,
            dist,
            via,
        }
    }

    /// The source router.
    pub fn source(&self) -> RouterId {
        self.source
    }

    /// Whether `dst` is reachable from the source.
    pub fn reachable(&self, dst: RouterId) -> bool {
        self.dist[dst.0 as usize] != NONE
    }

    /// Path cost to `dst`, if reachable.
    pub fn cost(&self, dst: RouterId) -> Option<u64> {
        match self.dist[dst.0 as usize] {
            NONE => None,
            d => Some(u64::from(d)),
        }
    }

    /// The router before `r` on its path from the source: `None` for the
    /// source itself and for unreachable routers.
    #[inline]
    pub fn parent(&self, r: RouterId) -> Option<RouterId> {
        match self.parent[r.0 as usize] {
            NONE => None,
            p => Some(RouterId(p)),
        }
    }

    /// The interface `r` was reached on — its end of the link from
    /// [`parent`](Self::parent), the address a traceroute probe
    /// expiring at `r` reports. `None` for the source and unreachable
    /// routers.
    #[inline]
    pub fn incoming_interface(&self, r: RouterId) -> Option<InterfaceId> {
        match self.via[r.0 as usize] {
            NONE => None,
            i => Some(InterfaceId(i)),
        }
    }

    /// Iterator over the routers from `dst` up the parent pointers to
    /// the source (inclusive, `dst` first); empty if unreachable.
    /// Allocation-free — the reusable-buffer trace walks build on it.
    pub fn walk_up(&self, dst: RouterId) -> WalkUp<'_> {
        WalkUp {
            oracle: self,
            cur: if self.reachable(dst) { Some(dst) } else { None },
        }
    }

    /// Fills `buf` with the router path source → `dst` inclusive,
    /// reusing the buffer's capacity. Returns `false` (leaving `buf`
    /// empty) if `dst` is unreachable.
    pub fn path_into(&self, dst: RouterId, buf: &mut Vec<RouterId>) -> bool {
        buf.clear();
        if !self.reachable(dst) {
            return false;
        }
        buf.extend(self.walk_up(dst));
        buf.reverse();
        debug_assert_eq!(buf[0], self.source);
        true
    }

    /// The router path source → `dst` inclusive, or `None` if
    /// unreachable.
    pub fn path(&self, dst: RouterId) -> Option<Vec<RouterId>> {
        let mut path = Vec::new();
        if self.path_into(dst, &mut path) {
            Some(path)
        } else {
            None
        }
    }
}

/// Iterator over parent pointers from a destination to the source; see
/// [`RoutingOracle::walk_up`].
#[derive(Debug, Clone)]
pub struct WalkUp<'a> {
    oracle: &'a RoutingOracle,
    cur: Option<RouterId>,
}

impl Iterator for WalkUp<'_> {
    type Item = RouterId;

    fn next(&mut self) -> Option<RouterId> {
        let here = self.cur?;
        self.cur = self.oracle.parent(here);
        Some(here)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geotopo_bgp::AsId;
    use geotopo_geo::GeoPoint;
    use geotopo_topology::TopologyBuilder;

    fn loc(i: usize) -> GeoPoint {
        GeoPoint::new(10.0 + i as f64 * 0.1, 10.0).unwrap()
    }

    #[test]
    fn path_on_a_line() {
        let mut b = TopologyBuilder::new();
        let r: Vec<_> = (0..5).map(|i| b.add_router(loc(i), AsId(1))).collect();
        for w in r.windows(2) {
            b.add_link_auto(w[0], w[1]).unwrap();
        }
        let t = b.build();
        let oracle = RoutingOracle::new(&t, r[0]);
        assert_eq!(oracle.path(r[4]).unwrap(), r);
        assert_eq!(oracle.cost(r[4]), Some(4 * INTRA_COST));
        assert_eq!(oracle.path(r[0]).unwrap(), vec![r[0]]);
    }

    #[test]
    fn unreachable_is_none() {
        let mut b = TopologyBuilder::new();
        let a = b.add_router(loc(0), AsId(1));
        let c = b.add_router(loc(1), AsId(1));
        let t = b.build();
        let oracle = RoutingOracle::new(&t, a);
        assert!(!oracle.reachable(c));
        assert_eq!(oracle.path(c), None);
        assert_eq!(oracle.cost(c), None);
        assert_eq!(oracle.walk_up(c).count(), 0);
    }

    #[test]
    fn avoids_interdomain_detour() {
        // a -(intra)- b -(intra)- d   versus   a -(inter)- c -(inter)- d:
        // the intra path has cost 20, the inter path 60.
        let mut b = TopologyBuilder::new();
        let a = b.add_router(loc(0), AsId(1));
        let bb = b.add_router(loc(1), AsId(1));
        let c = b.add_router(loc(2), AsId(2));
        let d = b.add_router(loc(3), AsId(1));
        b.add_link_auto(a, bb).unwrap();
        b.add_link_auto(bb, d).unwrap();
        b.add_link_auto(a, c).unwrap();
        b.add_link_auto(c, d).unwrap();
        let t = b.build();
        let oracle = RoutingOracle::new(&t, a);
        assert_eq!(oracle.path(d).unwrap(), vec![a, bb, d]);
    }

    #[test]
    fn interdomain_taken_when_shorter_overall() {
        // Direct interdomain link (cost 30) vs 5-hop intra detour (50).
        let mut b = TopologyBuilder::new();
        let a = b.add_router(loc(0), AsId(1));
        let z = b.add_router(loc(9), AsId(2));
        b.add_link_auto(a, z).unwrap();
        let mut chain = vec![a];
        for i in 1..5 {
            let r = b.add_router(loc(i), AsId(1));
            b.add_link_auto(*chain.last().unwrap(), r).unwrap();
            chain.push(r);
        }
        // Chain tail links interdomain to z as well (longer).
        b.add_link_auto(*chain.last().unwrap(), z).unwrap();
        let t = b.build();
        let oracle = RoutingOracle::new(&t, a);
        assert_eq!(oracle.path(z).unwrap(), vec![a, z]);
        assert_eq!(oracle.cost(z), Some(INTER_COST));
    }

    #[test]
    fn paths_form_a_tree() {
        // Every path is a prefix-consistent tree walk: parent pointers
        // never cycle.
        let mut b = TopologyBuilder::new();
        let r: Vec<_> = (0..30).map(|i| b.add_router(loc(i), AsId(1))).collect();
        for i in 1..30 {
            b.add_link_auto(r[i], r[i / 2]).unwrap();
        }
        let t = b.build();
        let oracle = RoutingOracle::new(&t, r[0]);
        for &dst in &r {
            let p = oracle.path(dst).unwrap();
            assert_eq!(p[0], r[0]);
            assert_eq!(*p.last().unwrap(), dst);
            assert!(p.len() <= 30);
        }
    }

    #[test]
    fn matches_reference_heap_solver() {
        // Mixed intra/interdomain mesh: dist and parent must agree with
        // the BinaryHeap reference bit-for-bit (the property suite
        // fuzzes this over random topologies; this pins a known shape).
        let mut b = TopologyBuilder::new();
        let r: Vec<_> = (0..12)
            .map(|i| b.add_router(loc(i), AsId((i % 3) as u32 + 1)))
            .collect();
        for i in 0..12usize {
            let _ = b.add_link_auto(r[i], r[(i + 1) % 12]);
            let _ = b.add_link_auto(r[i], r[(i + 5) % 12]);
        }
        let t = b.build();
        for src in 0..12u32 {
            let fast = RoutingOracle::new(&t, RouterId(src));
            let (dist, parent) = reference::solve(&t, RouterId(src));
            let fast_dist: Vec<u64> = (0..12)
                .map(|v| fast.cost(RouterId(v)).unwrap_or(u64::MAX))
                .collect();
            let fast_parent: Vec<_> = (0..12).map(|v| fast.parent(RouterId(v))).collect();
            assert_eq!(fast_dist, dist, "dist diverged from source {src}");
            assert_eq!(fast_parent, parent, "parent diverged from source {src}");
            for v in (0..12).map(RouterId) {
                let expect = fast.parent(v).and_then(|p| t.interface_between(v, p));
                assert_eq!(fast.incoming_interface(v), expect, "interface of {v:?}");
            }
        }
    }

    #[test]
    fn scratch_memoizes_and_counts() {
        let mut b = TopologyBuilder::new();
        let r: Vec<_> = (0..6).map(|i| b.add_router(loc(i), AsId(1))).collect();
        for w in r.windows(2) {
            b.add_link_auto(w[0], w[1]).unwrap();
        }
        let t = b.build();
        let mut scratch = RoutingScratch::new();
        let c1 = scratch.oracle(&t, r[0]).cost(r[5]);
        assert_eq!(scratch.stats.sources_solved, 1);
        assert_eq!(scratch.stats.memo_hits, 0);
        assert_eq!(scratch.stats.bucket_reuses, 0);
        let c2 = scratch.oracle(&t, r[0]).cost(r[5]);
        assert_eq!(c1, c2);
        assert_eq!(scratch.stats.sources_solved, 1, "memo hit re-solved");
        assert_eq!(scratch.stats.memo_hits, 1);
        scratch.oracle(&t, r[3]);
        assert_eq!(scratch.stats.sources_solved, 2);
        assert_eq!(scratch.stats.bucket_reuses, 1);
        assert!(scratch.stats.edges_relaxed > 0);
        assert!(scratch.stats.bucket_pushes >= scratch.stats.sources_solved);
    }

    #[test]
    fn path_into_reuses_buffer() {
        let mut b = TopologyBuilder::new();
        let r: Vec<_> = (0..5).map(|i| b.add_router(loc(i), AsId(1))).collect();
        for w in r.windows(2) {
            b.add_link_auto(w[0], w[1]).unwrap();
        }
        let t = b.build();
        let oracle = RoutingOracle::new(&t, r[0]);
        let mut buf = Vec::new();
        assert!(oracle.path_into(r[4], &mut buf));
        assert_eq!(buf, r);
        let cap = buf.capacity();
        assert!(oracle.path_into(r[2], &mut buf));
        assert_eq!(buf, &r[..3]);
        assert_eq!(buf.capacity(), cap, "buffer was reallocated");
        // Walk-up order is dst-first.
        let up: Vec<_> = oracle.walk_up(r[2]).collect();
        assert_eq!(up, vec![r[2], r[1], r[0]]);
    }
}
