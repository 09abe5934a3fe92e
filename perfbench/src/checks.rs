//! Output checks and digests. Everything here runs outside the timed
//! windows.

use geotopo::core::experiments::ExperimentResult;
use geotopo::core::pipeline::{GeoDataset, PipelineOutput};
use geotopo::measure::FaultConfig;
use geotopo::query::QueryAnswer;
use std::net::Ipv4Addr;

/// FNV-1a over a canonical byte stream of the values fed to it.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Any serializable value, through its compact JSON form.
    pub fn json<T: serde::Serialize + ?Sized>(&mut self, v: &T) {
        let text = serde_json::to_string(v).expect("benchmark values serialize");
        self.str(&text);
    }

    pub fn finish(&self) -> u64 {
        self.0
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

fn digest_geo(d: &mut Digest, ds: &GeoDataset) {
    d.json(&ds.kind);
    d.u64(ds.nodes.len() as u64);
    for n in &ds.nodes {
        d.u64(u64::from(u32::from(n.ip)));
        d.f64(n.location.lat());
        d.f64(n.location.lon());
        d.u64(u64::from(n.asn.0));
    }
    d.u64(ds.links.len() as u64);
    for &(a, b) in &ds.links {
        d.u64(u64::from(a) << 32 | u64::from(b));
    }
    d.json(&ds.stats);
}

fn digest_measured(d: &mut Digest, ds: &geotopo::measure::MeasuredDataset) {
    d.json(&ds.kind);
    d.u64(ds.nodes().len() as u64);
    for n in ds.nodes() {
        d.u64(u64::from(u32::from(n.ip)));
        d.u64(n.aliases.len() as u64);
        for a in &n.aliases {
            d.u64(u64::from(u32::from(*a)));
        }
    }
    d.u64(ds.links().len() as u64);
    for &(a, b) in ds.links() {
        d.u64(u64::from(a) << 32 | u64::from(b));
    }
    d.json(&ds.anomalies);
}

pub fn digest_answer(d: &mut Digest, a: &QueryAnswer) {
    d.u64(u64::from(a.ip));
    d.u64(u64::from(a.known));
    match a.location {
        Some(p) => {
            d.f64(p.lat());
            d.f64(p.lon());
        }
        None => d.u64(u64::MAX),
    }
    d.u64(a.city.map_or(u64::MAX, u64::from));
    d.f64(a.city_miles);
    d.u64(u64::from(a.origin.0));
    d.u64(a.matched_len.map_or(u64::MAX, u64::from));
    d.str(a.source);
    d.u64(u64::from(a.fallback));
}

/// Digest of everything a pipeline run produces: the world, the route
/// table, both raw collections (with their anomaly and work counters),
/// the four processed datasets, and the query snapshot (its aggregate
/// counts plus the answers for every 16th interface).
pub fn digest_output(out: &PipelineOutput) -> String {
    let mut d = Digest::new();
    let topo = &out.ground_truth.topology;
    d.u64(topo.num_routers() as u64);
    for (_, r) in topo.routers() {
        d.f64(r.location.lat());
        d.f64(r.location.lon());
        d.u64(u64::from(r.asn.0));
    }
    d.u64(topo.num_interfaces() as u64);
    for (_, i) in topo.interfaces() {
        d.u64(u64::from(u32::from(i.ip)));
        d.u64(u64::from(i.router.0));
    }
    d.u64(topo.num_links() as u64);
    for (_, l) in topo.links() {
        d.u64(u64::from(l.a.0) << 32 | u64::from(l.b.0));
    }
    d.json(out.route_table.entries());

    for (ds, probes, ticks, routing) in [
        (
            &out.skitter.dataset,
            out.skitter.probes_sent,
            out.skitter.virtual_ticks,
            &out.skitter.routing,
        ),
        (
            &out.mercator.dataset,
            out.mercator.probes_sent,
            out.mercator.virtual_ticks,
            &out.mercator.routing,
        ),
    ] {
        digest_measured(&mut d, ds);
        d.u64(probes);
        d.u64(ticks);
        d.json(routing);
    }
    d.u64(out.skitter.raw_nodes as u64);
    d.u64(out.skitter.discarded_destinations as u64);
    d.u64(out.skitter.failed_monitors as u64);
    d.u64(out.mercator.raw_interfaces as u64);

    for p in &out.datasets {
        d.str(&format!("{}/{}", p.mapper, p.collector));
        digest_geo(&mut d, &p.dataset);
    }

    d.json(&out.query.stats());
    d.u64(out.query.len() as u64);
    d.str(out.query.mapper());
    for (_, i) in topo.interfaces().step_by(16) {
        digest_answer(&mut d, &out.query.lookup(i.ip));
    }
    d.hex()
}

/// Digest of the experiment results, in paper order.
pub fn digest_results(results: &[ExperimentResult]) -> String {
    let mut d = Digest::new();
    for r in results {
        d.str(&r.id);
        d.str(&r.title);
        d.str(&r.text);
        d.json(&r.json);
    }
    d.hex()
}

/// The structural validators of every layer the pipeline output spans;
/// one message per failure.
pub fn check_output(out: &PipelineOutput) -> Vec<String> {
    let mut failures = Vec::new();
    let topo = &out.ground_truth.topology;
    if let Err(e) = topo.validate() {
        failures.push(format!("topology invalid: {e:?}"));
    }
    for (name, ds) in [
        ("skitter", &out.skitter.dataset),
        ("mercator", &out.mercator.dataset),
    ] {
        if let Err(e) = ds.validate_against(topo) {
            failures.push(format!("{name} dataset invalid: {e:?}"));
        }
    }
    if out.datasets.len() != 4 {
        failures.push(format!("{} processed datasets, want 4", out.datasets.len()));
    }
    for p in &out.datasets {
        if let Err(e) = p.dataset.validate(&[]) {
            failures.push(format!(
                "{}/{} dataset invalid: {e:?}",
                p.mapper, p.collector
            ));
        }
        if p.dataset.num_nodes() == 0 || p.dataset.num_links() == 0 {
            failures.push(format!("{}/{} dataset is empty", p.mapper, p.collector));
        }
    }
    if out.query.len() != topo.num_interfaces() {
        failures.push(format!(
            "query snapshot holds {} records for {} interfaces",
            out.query.len(),
            topo.num_interfaces()
        ));
    }
    failures
}

/// Skitter's monitor quorum under the run's fault plan.
pub fn check_quorum(out: &PipelineOutput, faults: &FaultConfig) -> Vec<String> {
    let planned = out.skitter.monitors.len();
    let need = faults.quorum_monitors(planned);
    let active = out.skitter.active_monitors();
    if active < need {
        vec![format!(
            "skitter quorum lost: {active}/{planned} active, need {need}"
        )]
    } else {
        Vec::new()
    }
}

/// The ids `experiments::run_all` returns, in paper order.
pub const RESULT_IDS: [&str; 25] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "fig1",
    "fig2",
    "fig4",
    "fig5",
    "fig6",
    "table5",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "table6",
    "fractal",
    "robustness",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "table5es",
    "fig15",
    "fig16",
    "fig17",
];

/// Every paper result is present and non-empty, and three of the paper's
/// headline shapes hold (the same predicates `tests/pipeline_shapes.rs`
/// asserts at `small`).
pub fn check_results(results: &[ExperimentResult]) -> Vec<String> {
    let mut failures = Vec::new();
    let ids: Vec<&str> = results.iter().map(|r| r.id.as_str()).collect();
    if ids != RESULT_IDS {
        failures.push(format!("result ids {ids:?}"));
    }
    for r in results {
        if r.title.is_empty() || r.text.trim().is_empty() {
            failures.push(format!("result {} is empty", r.id));
        }
    }
    let by_id = |id: &str| results.iter().find(|r| r.id == id);

    // Table V: a majority of links fall below the sensitivity limit.
    for id in ["table5", "table5es"] {
        let rows = by_id(id)
            .and_then(|r| r.json.get("rows"))
            .and_then(|v| v.as_array().cloned())
            .unwrap_or_default();
        if rows.len() < 3 {
            failures.push(format!("{id}: only {} regions produced limits", rows.len()));
        }
        for row in &rows {
            let frac = row["row"]["frac_below"].as_f64().unwrap_or(f64::NAN);
            if !(0.6..=1.0).contains(&frac) {
                failures.push(format!("{id}: below-limit fraction {frac}"));
            }
        }
    }

    // Figure 9: most ASes have zero-area hulls.
    let zero = by_id("fig9")
        .and_then(|r| r.json.get("zero_hull_fraction"))
        .and_then(|v| v.as_f64())
        .unwrap_or(f64::NAN);
    if !(0.5..=0.95).contains(&zero) {
        failures.push(format!("fig9: zero-hull fraction {zero}"));
    }

    // Table VI: intradomain links are the majority, interdomain longer.
    let world = by_id("table6")
        .and_then(|r| r.json.get("rows"))
        .and_then(|v| v.as_array())
        .and_then(|rows| rows.first().cloned());
    match world {
        Some(w) => {
            let inter = w["inter_count"].as_f64().unwrap_or(f64::NAN);
            let intra = w["intra_count"].as_f64().unwrap_or(f64::NAN);
            let share = intra / (inter + intra);
            if share.is_nan() || share <= 0.75 {
                failures.push(format!("table6: intradomain share {share}"));
            }
            let inter_len = w["inter_mean_miles"].as_f64().unwrap_or(f64::NAN);
            let intra_len = w["intra_mean_miles"].as_f64().unwrap_or(f64::NAN);
            if inter_len.is_nan() || inter_len <= 1.3 * intra_len {
                failures.push(format!(
                    "table6: interdomain {inter_len} mi vs intradomain {intra_len} mi"
                ));
            }
        }
        None => failures.push("table6: no world row".into()),
    }
    failures
}

/// Addresses of every ground-truth interface, in topology order.
pub fn interface_ips(out: &PipelineOutput) -> Vec<Ipv4Addr> {
    out.ground_truth
        .topology
        .interfaces()
        .map(|(_, i)| i.ip)
        .collect()
}
