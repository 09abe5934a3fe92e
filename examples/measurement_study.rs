//! Measurement-bias study: what Skitter and Mercator each see of the
//! same ground-truth Internet.
//!
//! ```sh
//! cargo run --release --example measurement_study [routers] [seed]
//! ```
//!
//! Quantifies the collection artifacts the paper has to reason about:
//! interface-vs-router counting, forward-path tree bias, destination-list
//! discards, lateral discovery, and alias-resolution failure.

use geotopo::measure::{FaultConfig, Mercator, MercatorConfig, Skitter, SkitterConfig};
use geotopo::stats::SerialExec;
use geotopo::topology::generate::{GroundTruth, GroundTruthConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let routers: usize = args.get(1).map(|s| s.parse()).transpose()?.unwrap_or(5000);
    let seed: u64 = args.get(2).map(|s| s.parse()).transpose()?.unwrap_or(42);

    let mut cfg = GroundTruthConfig::at_scale(routers, seed);
    cfg.pop_resolution_arcmin = 30.0;
    let gt = GroundTruth::generate(cfg)?;
    println!(
        "ground truth: {} routers, {} interfaces, {} links, {} ASes\n",
        gt.topology.num_routers(),
        gt.topology.num_interfaces(),
        gt.topology.num_links(),
        gt.as_records.len()
    );

    // Skitter: multi-monitor interface-level collection.
    let sk_cfg = SkitterConfig::scaled(&gt, seed ^ 0x51);
    let none = FaultConfig::none();
    let sk = Skitter::collect_with_faults_exec(&gt, &sk_cfg, &none, &SerialExec);
    println!(
        "Skitter ({} monitors, {} destinations):",
        sk_cfg.n_monitors, sk_cfg.destinations
    );
    println!(
        "  raw nodes {}, destination discards {} ({:.1}%), final: {} interfaces, {} links",
        sk.raw_nodes,
        sk.discarded_destinations,
        100.0 * sk.discarded_destinations as f64 / sk.raw_nodes as f64,
        sk.dataset.num_nodes(),
        sk.dataset.num_links()
    );
    println!(
        "  interface coverage: {:.1}% of ground truth; links/node = {:.2}",
        100.0 * sk.dataset.num_nodes() as f64 / gt.topology.num_interfaces() as f64,
        sk.dataset.num_links() as f64 / sk.dataset.num_nodes() as f64
    );
    println!(
        "  anomalies discarded: {} self-loops, {} duplicate observations",
        sk.dataset.anomalies.self_loops, sk.dataset.anomalies.duplicate_links
    );

    // Monitor-count sensitivity: the marginal utility of extra monitors
    // (cf. Barford et al., the paper's reference [3]).
    println!("\n  marginal utility of monitors:");
    for n_monitors in [1, 2, 4, 8, 19] {
        let cfg = SkitterConfig {
            n_monitors,
            ..sk_cfg.clone()
        };
        let out = Skitter::collect_with_faults_exec(&gt, &cfg, &none, &SerialExec);
        println!(
            "    {:>2} monitors -> {:>7} interfaces, {:>7} links",
            n_monitors,
            out.dataset.num_nodes(),
            out.dataset.num_links()
        );
    }

    // Mercator: single-source router-level collection.
    let me_cfg = MercatorConfig::scaled(&gt, seed ^ 0x3E);
    let me = Mercator::collect_with_faults(&gt, &me_cfg, &none);
    println!(
        "\nMercator (single source + {} lateral vantages):",
        me_cfg.lateral_sources
    );
    println!(
        "  raw interfaces {}, resolved to {} routers ({:.1}% collapse)",
        me.raw_interfaces,
        me.dataset.num_nodes(),
        100.0 * (1.0 - me.dataset.num_nodes() as f64 / me.raw_interfaces as f64)
    );
    println!(
        "  router coverage: {:.1}% of ground truth; links/node = {:.2}",
        100.0 * me.dataset.num_nodes() as f64 / gt.topology.num_routers() as f64,
        me.dataset.num_links() as f64 / me.dataset.num_nodes() as f64
    );

    // Alias-resolution sensitivity.
    println!("\n  alias-resolution success sweep:");
    for alias_success in [1.0, 0.85, 0.5, 0.0] {
        let cfg = MercatorConfig {
            alias_success,
            ..me_cfg.clone()
        };
        let out = Mercator::collect_with_faults(&gt, &cfg, &none);
        println!(
            "    p = {:>4.2} -> {:>7} nodes from {:>7} raw interfaces",
            alias_success,
            out.dataset.num_nodes(),
            out.raw_interfaces
        );
    }

    println!(
        "\nSkitter counts interfaces, Mercator counts routers — the two snapshots differ \
         by design, yet (as the paper shows) every geographic conclusion holds on both."
    );
    Ok(())
}
