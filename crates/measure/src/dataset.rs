//! Measured-graph representation.
//!
//! Both collectors emit a [`MeasuredDataset`]: nodes identified by IP
//! address and undirected links between node indices. Skitter's nodes
//! are interfaces ("we treat interfaces as virtual nodes, and define a
//! link to mean a connection between two adjacent interfaces"); Mercator's
//! nodes are routers (canonical IP plus resolved aliases).

use geotopo_topology::Topology;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// A violated [`MeasuredDataset`] invariant, found by
/// [`MeasuredDataset::validate`] or [`MeasuredDataset::validate_against`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeasureInvariant {
    /// A link references a node index past the end of the node list.
    LinkOutOfRange {
        /// The offending link, as stored.
        link: (u32, u32),
    },
    /// A self-loop survived collection (the paper discards these).
    SelfLoopLink {
        /// The node linked to itself.
        node: u32,
    },
    /// A link is stored with endpoints out of canonical (low, high) order,
    /// or the same undirected link appears twice.
    DuplicateOrUnordered {
        /// The offending link, as stored.
        link: (u32, u32),
    },
    /// The IP→node index disagrees with the node list.
    IndexDesync {
        /// Address whose index entry is wrong, stale, or missing.
        ip: Ipv4Addr,
    },
    /// A node address (canonical or alias) does not exist as an interface
    /// in the topology the dataset was supposedly measured from.
    UnknownAddress {
        /// The fabricated address.
        ip: Ipv4Addr,
    },
}

impl std::fmt::Display for MeasureInvariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeasureInvariant::LinkOutOfRange { link } => {
                write!(f, "link ({}, {}) references a missing node", link.0, link.1)
            }
            MeasureInvariant::SelfLoopLink { node } => {
                write!(f, "self-loop link on node {node} survived collection")
            }
            MeasureInvariant::DuplicateOrUnordered { link } => write!(
                f,
                "link ({}, {}) is duplicated or not in canonical order",
                link.0, link.1
            ),
            MeasureInvariant::IndexDesync { ip } => {
                write!(f, "ip index entry for {ip} disagrees with the node list")
            }
            MeasureInvariant::UnknownAddress { ip } => {
                write!(f, "node address {ip} is not an interface of the topology")
            }
        }
    }
}

impl std::error::Error for MeasureInvariant {}

/// What a dataset's nodes represent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// Interface-level map (Skitter).
    Interface,
    /// Router-level map after alias resolution (Mercator).
    Router,
}

/// One measured node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MeasuredNode {
    /// Canonical address (for routers: the lowest resolved alias).
    pub ip: Ipv4Addr,
    /// All addresses resolved to this node (empty for interface-level
    /// datasets; includes the canonical address for router-level ones).
    pub aliases: Vec<Ipv4Addr>,
}

/// One monitor's collection record: what it sent, what it skipped, and
/// where it landed in the dataset.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MonitorRecord {
    /// Ground-truth router id of the monitor.
    pub router: u32,
    /// Dataset node index of the monitor's first observed interface,
    /// `None` if nothing it owns survived into the dataset. Kept in sync
    /// by [`MeasuredDataset::remove_nodes`].
    pub node: Option<u32>,
    /// Probes this monitor launched.
    pub probes: u64,
    /// Traces skipped because the monitor was in outage.
    pub skipped: u64,
}

impl MonitorRecord {
    /// A monitor counts as failed when the outage swallowed more of its
    /// campaign than it completed.
    pub fn failed(&self) -> bool {
        self.skipped > self.probes
    }
}

/// Collection anomaly counters (the paper "discarded anomalies such as
/// self-loops"). One struct reports every pathology a collector survived:
/// structural discards, alias-resolution artifacts, injected faults, and
/// per-monitor outage accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnomalyStats {
    /// Self-loop link observations discarded.
    pub self_loops: u64,
    /// Duplicate link observations collapsed.
    pub duplicate_links: u64,
    /// Self-loops induced by alias resolution collapsing both endpoints
    /// of a raw link onto one router (Mercator).
    pub alias_self_loops: u64,
    /// Injected-fault pathologies survived during collection.
    pub faults: crate::faults::FaultStats,
    /// Per-monitor collection records (multi-monitor collectors only;
    /// `node` values index into this dataset's node list).
    pub monitors: Vec<MonitorRecord>,
}

impl AnomalyStats {
    /// Accumulates another collection's counters (monitor records are
    /// appended; their node indices must already refer to this dataset).
    pub fn absorb(&mut self, other: &AnomalyStats) {
        self.self_loops += other.self_loops;
        self.duplicate_links += other.duplicate_links;
        self.alias_self_loops += other.alias_self_loops;
        self.faults.absorb(&other.faults);
        self.monitors.extend(other.monitors.iter().cloned());
    }

    /// A compact one-line summary for trace output; `None` when nothing
    /// anomalous happened.
    pub fn summary(&self) -> Option<String> {
        let failed = self.monitors.iter().filter(|m| m.failed()).count();
        if self.self_loops == 0
            && self.duplicate_links == 0
            && self.alias_self_loops == 0
            && self.faults.is_zero()
            && failed == 0
        {
            return None;
        }
        let mut parts = Vec::new();
        if self.self_loops > 0 {
            parts.push(format!("loops={}", self.self_loops));
        }
        if self.duplicate_links > 0 {
            parts.push(format!("dups={}", self.duplicate_links));
        }
        if self.alias_self_loops > 0 {
            parts.push(format!("alias-loops={}", self.alias_self_loops));
        }
        let f = &self.faults;
        if f.probes_lost > 0 {
            parts.push(format!("lost={}", f.probes_lost));
        }
        if f.rate_limited > 0 {
            parts.push(format!("rate-limited={}", f.rate_limited));
        }
        if f.flap_breaks > 0 {
            parts.push(format!("flaps={}", f.flap_breaks));
        }
        if f.retries > 0 {
            parts.push(format!("retries={}/{}", f.retry_successes, f.retries));
        }
        if f.outage_skips > 0 {
            parts.push(format!("outage-skips={}", f.outage_skips));
        }
        if failed > 0 {
            parts.push(format!("monitors-lost={failed}"));
        }
        Some(parts.join(" "))
    }
}

/// An undirected measured graph.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MeasuredDataset {
    /// Node semantics.
    pub kind: NodeKind,
    nodes: Vec<MeasuredNode>,
    links: Vec<(u32, u32)>,
    #[serde(skip)]
    node_index: HashMap<Ipv4Addr, u32>,
    #[serde(skip)]
    link_set: std::collections::HashSet<(u32, u32)>,
    /// Anomalies encountered during collection.
    pub anomalies: AnomalyStats,
}

impl MeasuredDataset {
    /// Creates an empty dataset.
    pub fn new(kind: NodeKind) -> Self {
        MeasuredDataset {
            kind,
            nodes: Vec::new(),
            links: Vec::new(),
            node_index: HashMap::new(),
            link_set: std::collections::HashSet::new(),
            anomalies: AnomalyStats::default(),
        }
    }

    /// Interns a node by canonical IP, returning its index.
    pub fn intern(&mut self, ip: Ipv4Addr) -> u32 {
        if let Some(&i) = self.node_index.get(&ip) {
            return i;
        }
        let i = self.nodes.len() as u32;
        self.nodes.push(MeasuredNode {
            ip,
            aliases: Vec::new(),
        });
        self.node_index.insert(ip, i);
        i
    }

    /// Registers an alias for a router-level node.
    pub fn add_alias(&mut self, node: u32, alias: Ipv4Addr) {
        let entry = &mut self.nodes[node as usize];
        if !entry.aliases.contains(&alias) {
            entry.aliases.push(alias);
        }
        self.node_index.insert(alias, node);
    }

    /// Records an observed adjacency between two nodes. Self-loops and
    /// duplicates are counted as anomalies and dropped, as in the paper.
    pub fn observe_link(&mut self, a: u32, b: u32) {
        if a == b {
            self.anomalies.self_loops += 1;
            return;
        }
        let key = if a < b { (a, b) } else { (b, a) };
        if self.link_set.insert(key) {
            self.links.push(key);
        } else {
            self.anomalies.duplicate_links += 1;
        }
    }

    /// Node count.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Link count.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Approximate heap footprint in bytes: nodes, their alias lists,
    /// links, and the rebuildable lookup indexes. Feeds the engine's
    /// resident-artifact accounting.
    pub fn mem_bytes(&self) -> usize {
        use std::mem::size_of;
        let alias_bytes: usize = self
            .nodes
            .iter()
            .map(|n| n.aliases.len() * size_of::<Ipv4Addr>())
            .sum();
        self.nodes.len() * size_of::<MeasuredNode>()
            + alias_bytes
            + self.links.len() * size_of::<(u32, u32)>()
            + self.node_index.len() * size_of::<(Ipv4Addr, u32)>()
            + self.link_set.len() * size_of::<(u32, u32)>()
    }

    /// Nodes slice.
    pub fn nodes(&self) -> &[MeasuredNode] {
        &self.nodes
    }

    /// Links slice (indices into `nodes`).
    pub fn links(&self) -> &[(u32, u32)] {
        &self.links
    }

    /// Looks a node up by any of its addresses.
    pub fn node_by_ip(&self, ip: Ipv4Addr) -> Option<u32> {
        self.node_index.get(&ip).copied()
    }

    /// Checks the dataset's internal invariants: every link references
    /// two distinct, in-range nodes and is stored exactly once in
    /// canonical (low, high) order, and the IP→node index agrees with
    /// the node list. (The index is rebuilt lazily after deserialization,
    /// so an entirely empty index alongside a non-empty node list is
    /// accepted; a *partially* wrong index is not.)
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), MeasureInvariant> {
        let n = self.nodes.len() as u32;
        let mut seen = std::collections::HashSet::with_capacity(self.links.len());
        for &(a, b) in &self.links {
            if a >= n || b >= n {
                return Err(MeasureInvariant::LinkOutOfRange { link: (a, b) });
            }
            if a == b {
                return Err(MeasureInvariant::SelfLoopLink { node: a });
            }
            if a > b || !seen.insert((a, b)) {
                return Err(MeasureInvariant::DuplicateOrUnordered { link: (a, b) });
            }
        }
        for (&ip, &idx) in &self.node_index {
            let node = self
                .nodes
                .get(idx as usize)
                .ok_or(MeasureInvariant::IndexDesync { ip })?;
            if node.ip != ip && !node.aliases.contains(&ip) {
                return Err(MeasureInvariant::IndexDesync { ip });
            }
        }
        if !self.node_index.is_empty() {
            for node in &self.nodes {
                if !self.node_index.contains_key(&node.ip) {
                    return Err(MeasureInvariant::IndexDesync { ip: node.ip });
                }
            }
        }
        Ok(())
    }

    /// Checks internal invariants plus provenance: every node address —
    /// canonical IP and every alias — must exist as an interface of the
    /// ground-truth `topology` the collector probed. A collector can miss
    /// interfaces, but it can never observe an address the world does not
    /// contain.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate_against(&self, topology: &Topology) -> Result<(), MeasureInvariant> {
        self.validate()?;
        for node in &self.nodes {
            if topology.interface_by_ip(node.ip).is_none() {
                return Err(MeasureInvariant::UnknownAddress { ip: node.ip });
            }
            for &alias in &node.aliases {
                if topology.interface_by_ip(alias).is_none() {
                    return Err(MeasureInvariant::UnknownAddress { ip: alias });
                }
            }
        }
        Ok(())
    }

    /// Removes the given node indices (e.g. destination-list interfaces),
    /// dropping their incident links and compacting indices — including
    /// the node indices held by `anomalies.monitors`, which would
    /// otherwise dangle or silently point at the wrong node. Returns the
    /// number of links removed.
    pub fn remove_nodes(&mut self, remove: &std::collections::HashSet<u32>) -> usize {
        let mut remap: Vec<Option<u32>> = vec![None; self.nodes.len()];
        let mut kept_nodes = Vec::with_capacity(self.nodes.len());
        for (i, node) in self.nodes.drain(..).enumerate() {
            if !remove.contains(&(i as u32)) {
                remap[i] = Some(kept_nodes.len() as u32);
                kept_nodes.push(node);
            }
        }
        self.nodes = kept_nodes;
        let before = self.links.len();
        let mut kept_links = Vec::with_capacity(self.links.len());
        for (a, b) in self.links.drain(..) {
            if let (Some(na), Some(nb)) = (remap[a as usize], remap[b as usize]) {
                kept_links.push((na, nb));
            }
        }
        self.links = kept_links;
        // Monitor records reference nodes by index too; remap them the
        // same way (a removed monitor node becomes None, not a stale id).
        for m in &mut self.anomalies.monitors {
            m.node = m
                .node
                .and_then(|n| remap.get(n as usize).copied().flatten());
        }
        // Rebuild indices.
        self.node_index.clear();
        self.link_set.clear();
        for (i, node) in self.nodes.iter().enumerate() {
            self.node_index.insert(node.ip, i as u32);
            for &a in &node.aliases {
                self.node_index.insert(a, i as u32);
            }
        }
        for &(a, b) in &self.links {
            self.link_set.insert((a, b));
        }
        before - self.links.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn intern_is_idempotent() {
        let mut d = MeasuredDataset::new(NodeKind::Interface);
        let a = d.intern(ip("1.1.1.1"));
        let b = d.intern(ip("1.1.1.1"));
        assert_eq!(a, b);
        assert_eq!(d.num_nodes(), 1);
    }

    #[test]
    fn self_loops_counted_and_dropped() {
        let mut d = MeasuredDataset::new(NodeKind::Interface);
        let a = d.intern(ip("1.1.1.1"));
        d.observe_link(a, a);
        assert_eq!(d.num_links(), 0);
        assert_eq!(d.anomalies.self_loops, 1);
    }

    #[test]
    fn duplicate_links_collapsed() {
        let mut d = MeasuredDataset::new(NodeKind::Interface);
        let a = d.intern(ip("1.1.1.1"));
        let b = d.intern(ip("2.2.2.2"));
        d.observe_link(a, b);
        d.observe_link(b, a);
        d.observe_link(a, b);
        assert_eq!(d.num_links(), 1);
        assert_eq!(d.anomalies.duplicate_links, 2);
    }

    #[test]
    fn alias_lookup() {
        let mut d = MeasuredDataset::new(NodeKind::Router);
        let r = d.intern(ip("3.3.3.3"));
        d.add_alias(r, ip("3.3.3.3"));
        d.add_alias(r, ip("4.4.4.4"));
        assert_eq!(d.node_by_ip(ip("4.4.4.4")), Some(r));
        assert_eq!(d.nodes()[r as usize].aliases.len(), 2);
    }

    #[test]
    fn remove_nodes_compacts_and_drops_links() {
        let mut d = MeasuredDataset::new(NodeKind::Interface);
        let a = d.intern(ip("1.0.0.1"));
        let b = d.intern(ip("1.0.0.2"));
        let c = d.intern(ip("1.0.0.3"));
        d.observe_link(a, b);
        d.observe_link(b, c);
        d.observe_link(a, c);
        let mut rm = std::collections::HashSet::new();
        rm.insert(b);
        let dropped = d.remove_nodes(&rm);
        assert_eq!(dropped, 2);
        assert_eq!(d.num_nodes(), 2);
        assert_eq!(d.num_links(), 1);
        assert!(d.node_by_ip(ip("1.0.0.2")).is_none());
        // Remaining link connects the surviving nodes.
        let (x, y) = d.links()[0];
        let ips: Vec<_> = vec![d.nodes()[x as usize].ip, d.nodes()[y as usize].ip];
        assert!(ips.contains(&ip("1.0.0.1")) && ips.contains(&ip("1.0.0.3")));
    }

    #[test]
    fn remove_nodes_compacts_monitor_records() {
        let mut d = MeasuredDataset::new(NodeKind::Interface);
        let a = d.intern(ip("1.0.0.1"));
        let b = d.intern(ip("1.0.0.2"));
        let c = d.intern(ip("1.0.0.3"));
        d.observe_link(a, b);
        d.observe_link(b, c);
        d.anomalies.monitors = vec![
            MonitorRecord {
                router: 10,
                node: Some(a),
                probes: 5,
                skipped: 0,
            },
            MonitorRecord {
                router: 11,
                node: Some(b),
                probes: 5,
                skipped: 0,
            },
            MonitorRecord {
                router: 12,
                node: Some(c),
                probes: 5,
                skipped: 0,
            },
        ];
        let mut rm = std::collections::HashSet::new();
        rm.insert(b);
        d.remove_nodes(&rm);
        // Monitor at the removed node loses its reference; the monitor
        // past it is remapped to the compacted index, not left dangling.
        assert_eq!(d.anomalies.monitors[0].node, Some(0));
        assert_eq!(d.anomalies.monitors[1].node, None);
        let c_new = d.anomalies.monitors[2].node.unwrap();
        assert_eq!(d.nodes()[c_new as usize].ip, ip("1.0.0.3"));
    }

    #[test]
    fn absorb_accumulates_and_summary_reports() {
        let mut a = AnomalyStats::default();
        assert_eq!(a.summary(), None);
        let mut b = AnomalyStats {
            self_loops: 2,
            alias_self_loops: 3,
            ..AnomalyStats::default()
        };
        b.faults.retries = 4;
        b.faults.retry_successes = 1;
        b.monitors.push(MonitorRecord {
            router: 1,
            node: None,
            probes: 1,
            skipped: 9,
        });
        a.absorb(&b);
        a.absorb(&b);
        assert_eq!(a.self_loops, 4);
        assert_eq!(a.alias_self_loops, 6);
        assert_eq!(a.faults.retries, 8);
        assert_eq!(a.monitors.len(), 2);
        let s = a.summary().unwrap();
        assert!(s.contains("loops=4"), "{s}");
        assert!(s.contains("alias-loops=6"), "{s}");
        assert!(s.contains("retries=2/8"), "{s}");
        assert!(s.contains("monitors-lost=2"), "{s}");
    }

    fn tiny_topology() -> Topology {
        use geotopo_bgp::AsId;
        use geotopo_geo::GeoPoint;
        use geotopo_topology::TopologyBuilder;
        let mut b = TopologyBuilder::new();
        let origin = GeoPoint::new(0.0, 0.0).unwrap();
        let r0 = b.add_router(origin, AsId(1));
        let r1 = b.add_router(origin, AsId(1));
        b.add_link(r0, r1, ip("10.0.0.1"), ip("10.0.0.2")).unwrap();
        b.build()
    }

    #[test]
    fn validate_accepts_collected_dataset() {
        let mut d = MeasuredDataset::new(NodeKind::Router);
        let a = d.intern(ip("10.0.0.1"));
        let b = d.intern(ip("10.0.0.2"));
        d.add_alias(a, ip("10.0.0.1"));
        d.observe_link(a, b);
        d.observe_link(b, a); // duplicate: collapsed, stays valid
        assert_eq!(d.validate(), Ok(()));
        assert_eq!(d.validate_against(&tiny_topology()), Ok(()));
    }

    #[test]
    fn validate_rejects_corrupt_links() {
        let mut d = MeasuredDataset::new(NodeKind::Interface);
        let a = d.intern(ip("10.0.0.1"));
        let b = d.intern(ip("10.0.0.2"));
        d.observe_link(a, b);
        // Out-of-range endpoint.
        let mut bad = d.clone();
        bad.links.push((0, 9));
        assert_eq!(
            bad.validate(),
            Err(MeasureInvariant::LinkOutOfRange { link: (0, 9) })
        );
        // Self-loop smuggled past observe_link().
        let mut bad = d.clone();
        bad.links.push((1, 1));
        assert_eq!(
            bad.validate(),
            Err(MeasureInvariant::SelfLoopLink { node: 1 })
        );
        // Duplicate of an existing link.
        let mut bad = d.clone();
        bad.links.push((0, 1));
        assert_eq!(
            bad.validate(),
            Err(MeasureInvariant::DuplicateOrUnordered { link: (0, 1) })
        );
        // Endpoints out of canonical order.
        let mut bad = MeasuredDataset::new(NodeKind::Interface);
        bad.intern(ip("10.0.0.1"));
        bad.intern(ip("10.0.0.2"));
        bad.links.push((1, 0));
        assert_eq!(
            bad.validate(),
            Err(MeasureInvariant::DuplicateOrUnordered { link: (1, 0) })
        );
    }

    #[test]
    fn validate_rejects_index_desync() {
        let mut d = MeasuredDataset::new(NodeKind::Interface);
        d.intern(ip("10.0.0.1"));
        d.intern(ip("10.0.0.2"));
        // Stale entry pointing at the wrong node.
        let mut bad = d.clone();
        bad.node_index.insert(ip("10.0.0.1"), 1);
        assert_eq!(
            bad.validate(),
            Err(MeasureInvariant::IndexDesync { ip: ip("10.0.0.1") })
        );
        // A node missing from a non-empty index.
        let mut bad = d.clone();
        bad.node_index.remove(&ip("10.0.0.2"));
        assert_eq!(
            bad.validate(),
            Err(MeasureInvariant::IndexDesync { ip: ip("10.0.0.2") })
        );
        // An entirely empty index models the post-deserialization state
        // and is fine.
        let mut fresh = d.clone();
        fresh.node_index.clear();
        assert_eq!(fresh.validate(), Ok(()));
    }

    #[test]
    fn validate_against_rejects_fabricated_addresses() {
        let topo = tiny_topology();
        // A node whose canonical IP the world never assigned.
        let mut d = MeasuredDataset::new(NodeKind::Interface);
        d.intern(ip("10.0.0.1"));
        d.intern(ip("172.16.0.9"));
        assert_eq!(
            d.validate_against(&topo),
            Err(MeasureInvariant::UnknownAddress {
                ip: ip("172.16.0.9")
            })
        );
        // A fabricated alias on an otherwise real router.
        let mut d = MeasuredDataset::new(NodeKind::Router);
        let a = d.intern(ip("10.0.0.1"));
        d.add_alias(a, ip("172.16.0.9"));
        assert_eq!(
            d.validate_against(&topo),
            Err(MeasureInvariant::UnknownAddress {
                ip: ip("172.16.0.9")
            })
        );
    }

    #[test]
    fn remove_nothing_is_noop() {
        let mut d = MeasuredDataset::new(NodeKind::Interface);
        let a = d.intern(ip("1.0.0.1"));
        let b = d.intern(ip("1.0.0.2"));
        d.observe_link(a, b);
        let dropped = d.remove_nodes(&std::collections::HashSet::new());
        assert_eq!(dropped, 0);
        assert_eq!(d.num_nodes(), 2);
        assert_eq!(d.num_links(), 1);
    }
}
