//! Read-side query service over the pipeline's artifacts.
//!
//! The pipeline produces its artifacts for batch experiments; this crate
//! freezes them into a [`QuerySnapshot`] that answers the interactive
//! question the paper's tooling keeps needing: *for this address, where
//! does the tool place it, which city is that, who originates it, and
//! how specific was the route?*
//!
//! A snapshot is built once ([`QuerySnapshot::freeze`]) while the mapper
//! is still in scope — every per-address mapping outcome (which may
//! allocate: hostname synthesis builds strings) is resolved eagerly and
//! stored in a flat table sorted by address. After the freeze,
//! [`QuerySnapshot::lookup`] is allocation-free: a binary search over
//! the frozen records plus a longest-prefix walk of the shared route
//! table. That makes the snapshot safe to share across threads
//! (everything is immutable behind `Arc`s) and cheap enough to sit on a
//! hot serving path.
//!
//! Bulk resolution ([`QuerySnapshot::lookup_hitlist_with`]) splits the
//! hitlist into fixed-size chunks and hands the chunk jobs to a
//! caller-supplied executor, then re-merges results in input order. The
//! chunk size is a constant — never derived from the worker count — so
//! the merged output is byte-identical at any thread count.

use geotopo_bgp::{AsId, RouteTable};
use geotopo_geo::GeoPoint;
use geotopo_geomap::{Gazetteer, GeoMapper, MapContext};
use serde::Serialize;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Chunk size for bulk hitlist resolution. A constant (not a function of
/// the worker count) so chunk boundaries — and therefore every chunk's
/// output — are identical no matter how the chunks are scheduled.
pub const HITLIST_CHUNK: usize = 256;

/// One frozen per-address mapping record: the tool's outcome for this
/// address, resolved at freeze time.
#[derive(Debug, Clone, Copy)]
struct AddressRecord {
    /// Address bits (the sort key).
    ip: u32,
    /// The tool's estimated coordinates, if it resolved the address.
    location: Option<GeoPoint>,
    /// Gazetteer index of the city nearest the estimate.
    city: Option<u32>,
    /// Distance from the estimate to that city, in miles.
    city_miles: f64,
    /// Which source in the tool's fallback chain answered.
    source: &'static str,
    /// Whether the tool fell back past the head of its chain.
    fallback: bool,
}

/// One query answer: location estimate, nearest gazetteer city, BGP
/// origin, and full provenance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct QueryAnswer {
    /// The queried address (as raw bits, so answers serialize compactly
    /// and deterministically).
    pub ip: u32,
    /// Whether the address was part of the frozen world (an interface
    /// the pipeline mapped). Unknown addresses still get a BGP origin
    /// but carry no mapping outcome.
    pub known: bool,
    /// The mapping tool's estimated coordinates.
    pub location: Option<GeoPoint>,
    /// Gazetteer index of the city nearest the estimate (resolve with
    /// [`QuerySnapshot::city`]).
    pub city: Option<u32>,
    /// Distance from the estimate to that city, in miles (0 when there
    /// is no city).
    pub city_miles: f64,
    /// Originating AS per the route table ([`AsId::UNMAPPED`] when no
    /// prefix covers the address).
    pub origin: AsId,
    /// Length of the longest matching prefix, when one exists.
    pub matched_len: Option<u8>,
    /// Which source in the tool's fallback chain answered (`"none"` for
    /// unknown or unresolved addresses).
    pub source: &'static str,
    /// Whether the tool fell back past the head of its chain.
    pub fallback: bool,
}

/// Aggregate counts over a snapshot's frozen records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct QueryStats {
    /// Total frozen addresses.
    pub addresses: usize,
    /// Addresses the tool resolved to coordinates.
    pub resolved: usize,
    /// Resolved addresses that needed a fallback source.
    pub fallbacks: usize,
}

/// An immutable, thread-safe view of one (mapper, route table,
/// gazetteer) artifact triple, frozen for serving.
pub struct QuerySnapshot {
    /// Per-address outcomes, sorted by `ip` for binary search.
    records: Vec<AddressRecord>,
    /// Tool name the records were frozen from ("IxMapper"/"EdgeScape").
    mapper: &'static str,
    table: Arc<RouteTable>,
    gazetteer: Arc<Gazetteer>,
}

impl std::fmt::Debug for QuerySnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuerySnapshot")
            .field("mapper", &self.mapper)
            .field("records", &self.records.len())
            .field("routes", &self.table.len())
            .field("cities", &self.gazetteer.len())
            .finish()
    }
}

impl QuerySnapshot {
    /// Freezes one snapshot: maps every address through `mapper` (the
    /// only step that may allocate), resolves each estimate to its
    /// nearest gazetteer city, and stores the outcomes sorted by
    /// address. Duplicate addresses keep their first occurrence.
    pub fn freeze(
        addresses: impl IntoIterator<Item = (Ipv4Addr, MapContext)>,
        mapper: &dyn GeoMapper,
        table: Arc<RouteTable>,
        gazetteer: Arc<Gazetteer>,
    ) -> Self {
        // Freeze-time memo for the nearest-city search: estimates are
        // overwhelmingly city centres (hostname and feed answers), so
        // keying on the estimate's exact coordinate bits collapses the
        // dominant per-address cost to one search per distinct estimate
        // — bit-identical to searching every time, because only exact
        // key matches are served from the memo.
        let mut near_memo: std::collections::HashMap<(u64, u64), Option<(u32, f64)>> =
            std::collections::HashMap::new();
        let mut records: Vec<AddressRecord> = addresses
            .into_iter()
            .map(|(ip, ctx)| {
                let outcome = mapper.map_resolved(ip, &ctx);
                let near = outcome.location.as_ref().and_then(|loc| {
                    *near_memo
                        .entry((loc.lat().to_bits(), loc.lon().to_bits()))
                        .or_insert_with(|| gazetteer.nearest_idx(loc))
                });
                AddressRecord {
                    ip: u32::from(ip),
                    location: outcome.location,
                    city: near.map(|(i, _)| i),
                    city_miles: near.map_or(0.0, |(_, d)| d),
                    source: outcome.source,
                    fallback: outcome.fallback,
                }
            })
            .collect();
        records.sort_by_key(|r| r.ip);
        records.dedup_by_key(|r| r.ip);
        QuerySnapshot {
            records,
            mapper: mapper.name(),
            table,
            gazetteer,
        }
    }

    /// Answers one address. Allocation-free: a binary search over the
    /// frozen records plus a longest-prefix walk of the route table.
    // analyze: hot-path-root
    pub fn lookup(&self, ip: Ipv4Addr) -> QueryAnswer {
        let bits = u32::from(ip);
        let (origin, matched_len) = match self.table.origin_with_len(ip) {
            Some((asn, len)) => (asn, Some(len)),
            None => (AsId::UNMAPPED, None),
        };
        match self.records.binary_search_by_key(&bits, |r| r.ip) {
            Ok(i) => {
                let r = &self.records[i];
                QueryAnswer {
                    ip: bits,
                    known: true,
                    location: r.location,
                    city: r.city,
                    city_miles: r.city_miles,
                    origin,
                    matched_len,
                    source: r.source,
                    fallback: r.fallback,
                }
            }
            Err(_) => QueryAnswer {
                ip: bits,
                known: false,
                location: None,
                city: None,
                city_miles: 0.0,
                origin,
                matched_len,
                source: "none",
                fallback: false,
            },
        }
    }

    /// Resolves a batch sequentially, in input order.
    pub fn lookup_batch(&self, addrs: &[Ipv4Addr]) -> Vec<QueryAnswer> {
        addrs.iter().map(|&ip| self.lookup(ip)).collect()
    }

    /// Resolves a hitlist through a caller-supplied chunk executor and
    /// merges the chunk outputs back in input order.
    ///
    /// The executor receives the chunk count and a job closure; it must
    /// return one output per chunk index, in index order (the engine's
    /// `parallel_map` contract). Because chunk boundaries come from the
    /// fixed [`HITLIST_CHUNK`] and the merge is a flatten in index
    /// order, the result is byte-identical at any thread count.
    pub fn lookup_hitlist_with<E>(&self, addrs: &[Ipv4Addr], exec: E) -> Vec<QueryAnswer>
    where
        E: FnOnce(
            usize,
            &(dyn Fn(usize) -> Vec<QueryAnswer> + Send + Sync),
        ) -> Vec<Vec<QueryAnswer>>,
    {
        if addrs.is_empty() {
            return Vec::new();
        }
        let n_chunks = addrs.len().div_ceil(HITLIST_CHUNK);
        let job = move |c: usize| {
            let lo = c * HITLIST_CHUNK;
            let hi = usize::min(lo + HITLIST_CHUNK, addrs.len());
            self.lookup_batch(&addrs[lo..hi])
        };
        let chunks = exec(n_chunks, &job);
        debug_assert_eq!(chunks.len(), n_chunks, "executor dropped chunks");
        let mut out = Vec::with_capacity(addrs.len());
        for chunk in chunks {
            out.extend(chunk);
        }
        out
    }

    /// The tool the records were frozen from.
    pub fn mapper(&self) -> &'static str {
        self.mapper
    }

    /// The gazetteer city behind an answer's `city` index.
    pub fn city(&self, answer: &QueryAnswer) -> Option<&geotopo_geomap::City> {
        answer
            .city
            .and_then(|i| self.gazetteer.cities().get(i as usize))
    }

    /// Number of frozen addresses.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the snapshot holds no addresses.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Approximate resident size of the frozen record table (the shared
    /// route table and gazetteer are counted by their own stages).
    pub fn mem_bytes(&self) -> usize {
        self.records.len() * std::mem::size_of::<AddressRecord>()
    }

    /// Aggregate counts over the frozen records.
    pub fn stats(&self) -> QueryStats {
        QueryStats {
            addresses: self.records.len(),
            resolved: self.records.iter().filter(|r| r.location.is_some()).count(),
            fallbacks: self
                .records
                .iter()
                .filter(|r| r.location.is_some() && r.fallback)
                .count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geotopo_bgp::alloc::{AsAllocation, PrefixAllocator};
    use geotopo_bgp::{RouteTable, RouteTableConfig};
    use geotopo_geo::haversine_miles;

    /// A deterministic stub tool: resolves even host octets to the true
    /// location, drops odd ones.
    struct EvenMapper;

    impl GeoMapper for EvenMapper {
        fn name(&self) -> &'static str {
            "EvenMapper"
        }

        fn map(&self, ip: Ipv4Addr, ctx: &MapContext) -> Option<GeoPoint> {
            (u32::from(ip) % 2 == 0).then_some(ctx.true_location)
        }
    }

    fn test_world() -> (Vec<(Ipv4Addr, MapContext)>, Arc<RouteTable>, Arc<Gazetteer>) {
        let mut a = PrefixAllocator::new();
        let allocs: Vec<AsAllocation> = (1..=3)
            .map(|i| AsAllocation::for_as(&mut a, AsId(i), 500).expect("alloc"))
            .collect();
        let table = RouteTable::synthesize(
            &allocs,
            &RouteTableConfig {
                coverage: 1.0,
                more_specific_prob: 0.2,
                seed: 11,
            },
        );
        let gazetteer = Arc::new(Gazetteer::builtin());
        let cities = gazetteer.cities();
        let addrs: Vec<(Ipv4Addr, MapContext)> = allocs
            .iter()
            .enumerate()
            .flat_map(|(i, al)| {
                let asn = al.asn;
                let home = cities[i % cities.len()].location;
                al.prefixes
                    .iter()
                    .filter_map(move |p| p.nth(1))
                    .map(move |ip| (ip, MapContext::new(home, asn)))
            })
            .collect();
        (addrs, Arc::new(table), gazetteer)
    }

    #[test]
    fn lookup_reports_mapping_origin_and_city() {
        let (addrs, table, gazetteer) = test_world();
        let snap =
            QuerySnapshot::freeze(addrs.clone(), &EvenMapper, table.clone(), gazetteer.clone());
        assert_eq!(snap.mapper(), "EvenMapper");
        assert_eq!(snap.len(), addrs.len());
        assert!(snap.mem_bytes() > 0);
        for (ip, ctx) in &addrs {
            let ans = snap.lookup(*ip);
            assert!(ans.known);
            assert_eq!(ans.origin, table.origin(*ip));
            assert_eq!(ans.origin, ctx.asn, "synthesized table covers every prefix");
            assert!(ans.matched_len.is_some());
            if u32::from(*ip) % 2 == 0 {
                let loc = ans.location.expect("even hosts resolve");
                #[allow(clippy::float_cmp)]
                {
                    assert!(loc.lat() == ctx.true_location.lat());
                }
                let city = snap.city(&ans).expect("estimate has a nearest city");
                let d = haversine_miles(&loc, &city.location);
                assert!((d - ans.city_miles).abs() < 1e-9);
            } else {
                assert_eq!(ans.location, None);
                assert_eq!(ans.city, None);
                assert_eq!(ans.source, "none");
            }
        }
    }

    #[test]
    fn unknown_addresses_still_get_an_origin() {
        let (addrs, table, gazetteer) = test_world();
        let snap = QuerySnapshot::freeze(addrs, &EvenMapper, table.clone(), gazetteer);
        let stranger = Ipv4Addr::new(203, 0, 113, 77);
        let ans = snap.lookup(stranger);
        assert!(!ans.known);
        assert_eq!(ans.location, None);
        assert_eq!(ans.origin, table.origin(stranger));
        assert_eq!(ans.source, "none");
    }

    #[test]
    fn stats_count_resolutions_and_fallbacks() {
        let (addrs, table, gazetteer) = test_world();
        let snap = QuerySnapshot::freeze(addrs.clone(), &EvenMapper, table, gazetteer);
        let stats = snap.stats();
        assert_eq!(stats.addresses, addrs.len());
        let evens = addrs
            .iter()
            .filter(|(ip, _)| u32::from(*ip) % 2 == 0)
            .count();
        assert_eq!(stats.resolved, evens);
        assert_eq!(
            stats.fallbacks, 0,
            "the default map_resolved never falls back"
        );
    }

    #[test]
    fn duplicate_addresses_freeze_once() {
        let (mut addrs, table, gazetteer) = test_world();
        let n = addrs.len();
        let dup = addrs[0];
        addrs.push(dup);
        let snap = QuerySnapshot::freeze(addrs, &EvenMapper, table, gazetteer);
        assert_eq!(snap.len(), n);
    }

    #[test]
    fn hitlist_merge_preserves_input_order_across_executors() {
        let (addrs, table, gazetteer) = test_world();
        let snap = QuerySnapshot::freeze(addrs.clone(), &EvenMapper, table, gazetteer);
        // A hitlist longer than one chunk, deliberately unsorted.
        let mut hitlist: Vec<Ipv4Addr> = addrs
            .iter()
            .map(|(ip, _)| *ip)
            .cycle()
            .take(3 * HITLIST_CHUNK + 17)
            .collect();
        hitlist.reverse();

        let sequential = snap.lookup_batch(&hitlist);
        // In-order executor (what a single-threaded run does).
        let merged = snap.lookup_hitlist_with(&hitlist, |n, job| (0..n).map(job).collect());
        assert_eq!(merged, sequential);
        // Reversed completion order: the merge must still be in input
        // order because slots are indexed, not appended.
        let scrambled = snap.lookup_hitlist_with(&hitlist, |n, job| {
            let mut slots: Vec<Option<Vec<QueryAnswer>>> = (0..n).map(|_| None).collect();
            for c in (0..n).rev() {
                slots[c] = Some(job(c));
            }
            slots.into_iter().map(|s| s.expect("filled")).collect()
        });
        assert_eq!(scrambled, sequential);
        assert_eq!(
            snap.lookup_hitlist_with(&[], |n, job| (0..n).map(job).collect()),
            vec![]
        );
    }
}
