//! The serving client: a seeded hitlist resolved in fixed batches by one
//! closed-loop client through `core::query::bulk_lookup` on one worker.

use crate::checks::{digest_answer, Digest};
use crate::sys::Clock;
use crate::trace::Tracer;
use geotopo::core::query::bulk_lookup;
use geotopo::core::telemetry::Telemetry;
use geotopo::query::QuerySnapshot;
use std::net::Ipv4Addr;

/// Addresses per request.
pub const BATCH: usize = 4096;
/// Distinct batches in the hitlist; the client cycles through them.
pub const HITLIST_BATCHES: usize = 256;

/// splitmix64: the benchmark's own seeded generator, so the program
/// under test never sees how its inputs were drawn.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The seeded hitlist, drawn before the world exists: one 64-bit draw
/// per slot, resolved to an address once the interface list is known.
#[derive(Debug)]
pub struct HitlistPlan(Vec<u64>);

impl HitlistPlan {
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix(seed ^ 0x4849_544C_4953_5421);
        HitlistPlan((0..BATCH * HITLIST_BATCHES).map(|_| rng.next()).collect())
    }

    /// 80 % of slots pick a ground-truth interface uniformly, 20 % a
    /// uniform random IPv4 address (answered by longest-prefix match
    /// only, unless it happens to hit an interface).
    pub fn resolve(&self, interfaces: &[Ipv4Addr]) -> Vec<Ipv4Addr> {
        let n = interfaces.len() as u64;
        self.0
            .iter()
            .map(|&draw| {
                let value = draw >> 32;
                if draw % 5 == 0 {
                    Ipv4Addr::from(value as u32)
                } else {
                    interfaces[((value * n) >> 32) as usize]
                }
            })
            .collect()
    }
}

/// What one serving window did.
#[derive(Debug, Default)]
pub struct Served {
    pub lookups: u64,
    /// Summed wall time inside `bulk_lookup` calls.
    pub busy_s: f64,
    /// Summed process CPU time inside `bulk_lookup` calls.
    pub cpu_s: f64,
    /// Per-batch latency, ms, in request order.
    pub batch_ms: Vec<f64>,
    /// Answers that differ from a per-address `QuerySnapshot::lookup`.
    pub wrong: u64,
    pub known: u64,
    pub resolved: u64,
}

/// One closed-loop client on one worker. It cycles through the hitlist
/// across calls to [`Client::serve`], so a serving window can be split
/// into segments at different moments of a run and still count as one
/// window.
pub struct Client<'a> {
    snapshot: &'a QuerySnapshot,
    hitlist: &'a [Ipv4Addr],
    telemetry: Telemetry,
    /// Digest of each batch's answers once they passed the per-address
    /// check.
    checked: Vec<Option<u64>>,
    /// Requests sent so far.
    sent: usize,
    pub served: Served,
}

impl<'a> Client<'a> {
    pub fn new(snapshot: &'a QuerySnapshot, hitlist: &'a [Ipv4Addr]) -> Self {
        Client {
            snapshot,
            hitlist,
            telemetry: Telemetry::new(),
            checked: vec![None; hitlist.len() / BATCH],
            sent: 0,
            served: Served::default(),
        }
    }

    /// Serves the next `batches` requests of [`BATCH`] addresses. Only
    /// the `bulk_lookup` call is timed. Between requests the client
    /// checks the answer against a per-address `QuerySnapshot::lookup`,
    /// counting wrong answers; once a batch has come back fully correct,
    /// later answers to it are compared by digest, and a mismatch falls
    /// back to the per-address check. With a tracer, every request gets
    /// its own `query.batch` span.
    pub fn serve(&mut self, batches: usize, mut tracer: Option<&mut Tracer>) {
        let s = &mut self.served;
        for _ in 0..batches {
            let slot = self.sent % self.checked.len();
            self.sent += 1;
            let batch = &self.hitlist[slot * BATCH..(slot + 1) * BATCH];
            let span = tracer.as_mut().map(|t| t.begin("query", "query.batch"));
            let clock = Clock::start();
            let answers = bulk_lookup(self.snapshot, batch, 1, &self.telemetry);
            let (wall, cpu) = clock.stop();
            if let (Some(t), Some(id)) = (tracer.as_mut(), span) {
                t.end(id);
            }
            s.busy_s += wall;
            s.cpu_s += cpu;
            s.batch_ms.push(wall * 1e3);
            s.lookups += answers.len() as u64;

            let check = tracer.as_mut().map(|t| t.begin("client", "client.check"));
            let mut d = Digest::new();
            for a in &answers {
                digest_answer(&mut d, a);
                s.known += u64::from(a.known);
                s.resolved += u64::from(a.location.is_some());
            }
            if self.checked[slot] != Some(d.finish()) {
                let wrong = (BATCH - answers.len().min(BATCH)) as u64
                    + batch
                        .iter()
                        .zip(&answers)
                        .filter(|&(&ip, a)| {
                            self.snapshot.lookup(ip) != *a || a.ip != u32::from(ip)
                        })
                        .count() as u64;
                if wrong == 0 {
                    self.checked[slot] = Some(d.finish());
                }
                s.wrong += wrong;
            }
            if let (Some(t), Some(id)) = (tracer.as_mut(), check) {
                t.end(id);
            }
        }
    }
}
