//! Deterministic fault injection in virtual probe-tick time.
//!
//! Real measurement campaigns are shaped by pathologies the paper could
//! only observe after the fact: ICMP rate-limiting, packet loss, route
//! flaps, and monitors that die mid-campaign. This module makes those
//! pathologies first-class and *reproducible*: every fault decision is a
//! hash of `(fault seed, virtual tick, router)` — never a draw from the
//! collectors' RNG streams — so an inert plan leaves collection
//! byte-identical to a fault-free build, and an active plan produces the
//! same bytes at any thread count.
//!
//! Time is counted in **probe ticks**: the virtual clock advances by one
//! for every probe a collector sends, and retry backoff advances it
//! further without sending. There is no wall clock anywhere; flap windows
//! and outage onsets are expressed in ticks against the campaign's
//! expected probe budget.
//!
//! A [`FaultSession`] keeps an ICMP token bucket only for the routers it
//! has let a probe through to; every other router reads as a full bucket
//! refilled at the session's base tick. Opening a session therefore
//! costs nothing per router, which matters because Skitter opens one per
//! trace chunk.

use serde::{Deserialize, Serialize};

/// splitmix64 finalizer: a well-mixed 64-bit hash.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` keyed by `(seed, a, b)`. Decisions derived
/// from this never perturb collector RNG state.
fn unit(seed: u64, a: u64, b: u64) -> f64 {
    let h = mix(seed ^ mix(a ^ mix(b)));
    // 53 high bits → exactly representable in f64.
    (h >> 11) as f64 / (1u64 << 53) as f64
}

const LOSS_SALT: u64 = 0x10_55;
const FLAP_SALT: u64 = 0xF1_A9;
const OUTAGE_SALT: u64 = 0x0D_1E;

/// An engine-level injected failure: the named stage fails transiently on
/// its first `failures` execution attempts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageFailure {
    /// Stage name, as reported in `StageReport`.
    pub stage: String,
    /// How many leading attempts fail before the stage succeeds.
    pub failures: u32,
}

/// The fault profile for a run.
///
/// Probe-level fields are serialized — they change the measured output,
/// so they must feed the config fingerprint. `stage_failures` is
/// deliberately `#[serde(skip)]`: a retried stage is pure, so injected
/// engine failures are output-neutral and must *not* change the
/// fingerprint — that is exactly what lets a killed run resume from the
/// artifacts its healthy stages already produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Per-probe packet loss probability.
    pub packet_loss: f64,
    /// Per-router ICMP token-bucket capacity (0 disables rate-limiting).
    pub rate_limit_burst: u32,
    /// Tokens refilled per virtual tick.
    pub rate_limit_refill: f64,
    /// Fraction of routers that suffer one transient route flap.
    pub flap_fraction: f64,
    /// Flap window length, as a fraction of the campaign's probe budget.
    pub flap_duration: f64,
    /// Fraction of monitors that go dark mid-campaign and stay dark.
    pub outage_fraction: f64,
    /// Minimum fraction of planned monitors that must stay healthy for a
    /// collection to count; below this the stage reports quorum loss.
    pub quorum: f64,
    /// Probe retransmissions attempted when a probe goes unanswered.
    pub max_retries: u32,
    /// Base retry backoff in virtual ticks (doubles per attempt).
    pub retry_backoff: u64,
    /// Seed for all hash-derived fault decisions.
    pub seed: u64,
    /// Engine-level injected stage failures (output-neutral; see above).
    #[serde(skip)]
    pub stage_failures: Vec<StageFailure>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

impl FaultConfig {
    /// The inert plan: no faults, no retries — byte-identical to a build
    /// without the fault substrate.
    pub fn none() -> Self {
        FaultConfig {
            packet_loss: 0.0,
            rate_limit_burst: 0,
            rate_limit_refill: 0.0,
            flap_fraction: 0.0,
            flap_duration: 0.0,
            outage_fraction: 0.0,
            quorum: 0.5,
            max_retries: 0,
            retry_backoff: 4,
            seed: 0,
            stage_failures: Vec::new(),
        }
    }

    /// A profile scaled by `severity` in `[0, 1]`: 0 is inert, 1 is a
    /// badly-behaved internet. Outage stays below the default quorum so
    /// severity sweeps complete instead of aborting.
    pub fn at_severity(severity: f64, seed: u64) -> Self {
        let s = severity.clamp(0.0, 1.0);
        FaultConfig {
            packet_loss: 0.10 * s,
            rate_limit_burst: if s > 0.0 {
                (30.0 - 26.0 * s).round() as u32
            } else {
                0
            },
            rate_limit_refill: if s > 0.0 {
                0.25 * (1.0 - s) + 0.01
            } else {
                0.0
            },
            flap_fraction: 0.15 * s,
            flap_duration: 0.20 * s,
            outage_fraction: 0.40 * s,
            quorum: 0.5,
            max_retries: if s > 0.0 { 2 } else { 0 },
            retry_backoff: 4,
            seed,
            stage_failures: Vec::new(),
        }
    }

    /// Looks a named profile up (`none`, `light`, `moderate`, `heavy`).
    pub fn profile(name: &str, seed: u64) -> Option<Self> {
        match name {
            "none" => Some(Self::none()),
            "light" => Some(Self::at_severity(0.25, seed)),
            "moderate" => Some(Self::at_severity(0.5, seed)),
            "heavy" => Some(Self::at_severity(0.8, seed)),
            _ => None,
        }
    }

    /// Whether the probe-level plan injects nothing (engine-level
    /// `stage_failures` do not affect probing).
    pub fn is_inert(&self) -> bool {
        self.packet_loss <= 0.0
            && self.rate_limit_burst == 0
            && self.flap_fraction <= 0.0
            && self.outage_fraction <= 0.0
    }

    /// How many leading attempts of `stage` are set to fail.
    pub fn failing_attempts(&self, stage: &str) -> u32 {
        self.stage_failures
            .iter()
            .filter(|f| f.stage == stage)
            .map(|f| f.failures)
            .sum()
    }

    /// Minimum healthy monitors out of `planned` for quorum (at least 1).
    pub fn quorum_monitors(&self, planned: usize) -> usize {
        ((self.quorum * planned as f64).ceil() as usize).max(1)
    }
}

/// What happened to one probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeFate {
    /// The probe reached the router and an answer came back.
    Answered,
    /// The probe (or its answer) was dropped in transit.
    Lost,
    /// The router's ICMP token bucket was empty.
    RateLimited,
    /// The route through this router was flapping; no answer.
    Flapped,
}

/// Counters for every injected-and-survived pathology. All zero on a
/// fault-free run; folded into `AnomalyStats` by the collectors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Probes lost in transit.
    pub probes_lost: u64,
    /// Probes swallowed by ICMP rate-limiting.
    pub rate_limited: u64,
    /// Probes that hit a flapping route.
    pub flap_breaks: u64,
    /// Retransmissions sent.
    pub retries: u64,
    /// Retransmissions that recovered an answer a fault had swallowed.
    pub retry_successes: u64,
    /// Probes never sent because the monitor was in outage.
    pub outage_skips: u64,
}

impl FaultStats {
    /// Accumulates `other` into `self`.
    pub fn absorb(&mut self, other: &FaultStats) {
        self.probes_lost += other.probes_lost;
        self.rate_limited += other.rate_limited;
        self.flap_breaks += other.flap_breaks;
        self.retries += other.retries;
        self.retry_successes += other.retry_successes;
        self.outage_skips += other.outage_skips;
    }

    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == FaultStats::default()
    }
}

/// A compiled fault plan for one collection campaign: which routers flap
/// (and when), and which monitors go dark (and when), all precomputed so
/// per-probe decisions are O(1) lookups plus one hash.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    cfg: FaultConfig,
    inert: bool,
    /// Per-router flap window `[start, end)` in ticks, if any.
    flaps: Vec<Option<(u64, u64)>>,
    /// Per-monitor permanent outage onset tick, if any.
    outages: Vec<Option<u64>>,
}

impl FaultPlan {
    /// Compiles a plan for a campaign over `n_routers` routers and
    /// `n_monitors` monitors expected to send about `expected_probes`
    /// probes in total. Window placement scales with the probe budget;
    /// the estimate only has to be the right order of magnitude.
    pub fn compile(
        cfg: &FaultConfig,
        n_routers: usize,
        n_monitors: usize,
        expected_probes: u64,
    ) -> Self {
        let inert = cfg.is_inert();
        let budget = expected_probes.max(1) as f64;
        let flaps = (0..n_routers as u64)
            .map(|r| {
                if cfg.flap_fraction > 0.0 && unit(cfg.seed ^ FLAP_SALT, r, 0) < cfg.flap_fraction {
                    let start = (unit(cfg.seed ^ FLAP_SALT, r, 1) * budget) as u64;
                    let len = ((cfg.flap_duration * budget) as u64).max(1);
                    Some((start, start.saturating_add(len)))
                } else {
                    None
                }
            })
            .collect();
        let outages = (0..n_monitors as u64)
            .map(|m| {
                if cfg.outage_fraction > 0.0
                    && unit(cfg.seed ^ OUTAGE_SALT, m, 0) < cfg.outage_fraction
                {
                    // Mid-campaign: somewhere in the first 10–60% of the
                    // probe budget, so even early monitors can be caught.
                    let frac = 0.10 + 0.50 * unit(cfg.seed ^ OUTAGE_SALT, m, 1);
                    Some((frac * budget) as u64)
                } else {
                    None
                }
            })
            .collect();
        FaultPlan {
            cfg: cfg.clone(),
            inert,
            flaps,
            outages,
        }
    }

    /// The config this plan was compiled from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }
}

/// One router's ICMP token bucket.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    /// Remaining tokens, refilled lazily by elapsed ticks.
    tokens: f64,
    /// Tick of the last refill.
    refilled_at: u64,
}

/// The router of an empty [`Buckets`] slot. Router ids stay below it: a
/// topology never holds `u32::MAX` routers.
const FREE: u32 = u32::MAX;

/// Most slots a table's first allocation takes: room for 4,096 buckets
/// at half load. No Skitter trace chunk of the seed-2002 worlds probes
/// that many routers (at most 3,427 at `paper` under `moderate`, 3,103
/// at `large` under `light`), so a chunk's session allocates once.
const FIRST_SLOTS_MAX: usize = 8192;

/// The token buckets a session holds: an open-addressed table keyed by
/// router id (Fibonacci hashing, linear probing) over the buckets in
/// first-use order. A router without a slot holds the session's initial
/// bucket, so a new table allocates nothing. The first bucket allocates
/// twice the plan's router count in slots, rounded up to a power of two
/// and capped at [`FIRST_SLOTS_MAX`]; the table doubles whenever it
/// would pass half full after that, which only a campaign-long session
/// such as Mercator's reaches.
#[derive(Debug)]
struct Buckets {
    /// `(router, index into buckets)` per slot, [`FREE`] when empty; a
    /// power of two in length once allocated.
    slots: Vec<(u32, u32)>,
    buckets: Vec<Bucket>,
    /// Slots of the first allocation.
    first_slots: usize,
}

impl Buckets {
    /// An empty table for a plan over `routers` routers.
    fn new(routers: usize) -> Self {
        Buckets {
            slots: Vec::new(),
            buckets: Vec::new(),
            first_slots: (2 * routers).next_power_of_two().clamp(2, FIRST_SLOTS_MAX),
        }
    }

    /// The slot a probe sequence for `router` starts at, in a table of
    /// `cap` (a power of two ≥ 2) slots: the top bits of a Fibonacci
    /// product.
    fn home(router: u32, cap: usize) -> usize {
        let bits = cap.trailing_zeros();
        (u64::from(router).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    /// `router`'s bucket, created as `initial` on its first use.
    fn get_or_insert(&mut self, router: u32, initial: Bucket) -> &mut Bucket {
        if 2 * (self.buckets.len() + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = Self::home(router, self.slots.len());
        loop {
            let (r, at) = self.slots[i];
            if r == router {
                return &mut self.buckets[at as usize];
            }
            if r == FREE {
                self.slots[i] = (router, self.buckets.len() as u32);
                self.buckets.push(initial);
                let last = self.buckets.len() - 1;
                return &mut self.buckets[last];
            }
            i = (i + 1) & mask;
        }
    }

    /// Allocates the first table or doubles it, re-homing every slot.
    fn grow(&mut self) {
        let cap = (2 * self.slots.len()).max(self.first_slots);
        // analyze: allow(alloc): the first bucket of a session allocates, and the table doubles when it would pass half full, so a session allocates once per doubling of the routers it probes, not per probe
        let old = std::mem::replace(&mut self.slots, vec![(FREE, 0); cap]);
        for (router, at) in old.into_iter().filter(|&(r, _)| r != FREE) {
            let mut i = Self::home(router, cap);
            while self.slots[i].0 != FREE {
                i = (i + 1) & (cap - 1);
            }
            self.slots[i] = (router, at);
        }
    }
}

/// Mutable campaign state: the virtual clock, the token buckets of the
/// routers probed so far, and the pathology counters.
#[derive(Debug)]
pub struct FaultSession<'p> {
    plan: &'p FaultPlan,
    /// The tick the session started at; every bucket was last refilled
    /// there until its router is first probed.
    base: u64,
    tick: u64,
    /// Probes actually sent (first transmissions and retries alike).
    probes_sent: u64,
    /// Token buckets of the routers a probe has reached the rate limiter
    /// of; every other router's bucket is full.
    buckets: Buckets,
    /// Pathology counters for this campaign.
    pub stats: FaultStats,
}

impl<'p> FaultSession<'p> {
    /// Starts a session at tick 0 with every token bucket full.
    pub fn new(plan: &'p FaultPlan) -> Self {
        Self::at_tick(plan, 0)
    }

    /// Starts a session at an arbitrary `base` tick with every token
    /// bucket full: `rate_limit_burst` tokens, last refilled at `base`.
    /// A bucket takes memory only once a probe reaches its router's rate
    /// limiter, so opening a session costs nothing per router.
    /// Monitor-parallel collection carves the virtual clock
    /// into per-monitor slices (monitor `m` starts at `m × slice_len`):
    /// loss hashes, flap windows, and outage onsets all key off the
    /// absolute tick, so a monitor's fate stream depends only on its own
    /// slice — never on thread interleaving.
    pub fn at_tick(plan: &'p FaultPlan, base: u64) -> Self {
        FaultSession {
            plan,
            base,
            tick: base,
            probes_sent: 0,
            buckets: Buckets::new(plan.flaps.len()),
            stats: FaultStats::default(),
        }
    }

    /// The current virtual time.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Probes sent so far (retransmissions included).
    pub fn probes_sent(&self) -> u64 {
        self.probes_sent
    }

    /// Retransmissions allowed per silent probe.
    pub fn max_retries(&self) -> u32 {
        self.plan.cfg.max_retries
    }

    /// Sends one probe toward `router`, advancing the clock one tick and
    /// deciding its fate. The inert fast path answers unconditionally.
    pub fn probe(&mut self, router: u32) -> ProbeFate {
        self.tick += 1;
        self.probes_sent += 1;
        if self.plan.inert {
            return ProbeFate::Answered;
        }
        if let Some(&Some((start, end))) = self.plan.flaps.get(router as usize) {
            if start <= self.tick && self.tick < end {
                self.stats.flap_breaks += 1;
                return ProbeFate::Flapped;
            }
        }
        let cfg = &self.plan.cfg;
        if cfg.packet_loss > 0.0
            && unit(cfg.seed ^ LOSS_SALT, self.tick, u64::from(router)) < cfg.packet_loss
        {
            self.stats.probes_lost += 1;
            return ProbeFate::Lost;
        }
        if cfg.rate_limit_burst > 0 {
            let burst = f64::from(cfg.rate_limit_burst);
            let tick = self.tick;
            let initial = Bucket {
                tokens: burst,
                refilled_at: self.base,
            };
            let b = self.buckets.get_or_insert(router, initial);
            let elapsed = (tick - b.refilled_at) as f64;
            b.tokens = (b.tokens + elapsed * cfg.rate_limit_refill).min(burst);
            b.refilled_at = tick;
            if b.tokens < 1.0 {
                self.stats.rate_limited += 1;
                return ProbeFate::RateLimited;
            }
            b.tokens -= 1.0;
        }
        ProbeFate::Answered
    }

    /// Waits out the backoff before retry `attempt` (1-based), advancing
    /// virtual time without sending anything.
    pub fn backoff(&mut self, attempt: u32) {
        let shift = attempt.saturating_sub(1).min(6);
        self.tick += self.plan.cfg.retry_backoff << shift;
    }

    /// Whether monitor `m` is in outage at the current tick.
    pub fn monitor_down(&self, m: usize) -> bool {
        matches!(
            self.plan.outages.get(m),
            Some(&Some(onset)) if self.tick >= onset
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    // Exact equality is the property under test: the hash is a pure
    // function of its integer inputs, bit-for-bit.
    #[allow(clippy::float_cmp)]
    fn unit_is_deterministic_and_uniformish() {
        assert_eq!(unit(1, 2, 3), unit(1, 2, 3));
        assert_ne!(unit(1, 2, 3), unit(1, 2, 4));
        let mean: f64 = (0..1000).map(|i| unit(9, i, 0)).sum::<f64>() / 1000.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean} far from uniform");
        assert!((0..1000).all(|i| (0.0..1.0).contains(&unit(9, i, 1))));
    }

    #[test]
    fn inert_plan_always_answers() {
        let plan = FaultPlan::compile(&FaultConfig::none(), 8, 4, 1000);
        let mut s = FaultSession::new(&plan);
        for r in 0..8u32 {
            assert_eq!(s.probe(r), ProbeFate::Answered);
        }
        assert_eq!(s.tick(), 8);
        assert_eq!(s.probes_sent(), 8);
        assert!(s.stats.is_zero());
        assert!(!s.monitor_down(0));
    }

    #[test]
    fn token_bucket_exhausts_and_refills() {
        let mut cfg = FaultConfig::none();
        cfg.rate_limit_burst = 2;
        cfg.rate_limit_refill = 0.5;
        let plan = FaultPlan::compile(&cfg, 1, 1, 100);
        let mut s = FaultSession::new(&plan);
        // Each probe advances one tick and refills 0.5, so the bucket
        // drains by 0.5/probe: answers until tokens dip below 1.
        assert_eq!(s.probe(0), ProbeFate::Answered); // 2.5 - 1 = 1.5
        assert_eq!(s.probe(0), ProbeFate::Answered); // 2.0 - 1 = 1.0
        assert_eq!(s.probe(0), ProbeFate::Answered); // 1.5 - 1 = 0.5
        assert_eq!(s.probe(0), ProbeFate::RateLimited); // 1.0 > tokens
        assert!(s.stats.rate_limited >= 1);
        // Backoff gives the bucket time to refill.
        s.backoff(1);
        assert_eq!(s.probe(0), ProbeFate::Answered);
    }

    #[test]
    fn flap_window_silences_only_its_router_and_ticks() {
        let mut cfg = FaultConfig::none();
        cfg.flap_fraction = 1.0; // every router flaps
        cfg.flap_duration = 0.5;
        cfg.seed = 7;
        let plan = FaultPlan::compile(&cfg, 4, 1, 100);
        let mut s = FaultSession::new(&plan);
        let mut flapped = 0;
        let mut answered = 0;
        for t in 0..200u32 {
            match s.probe(t % 4) {
                ProbeFate::Flapped => flapped += 1,
                ProbeFate::Answered => answered += 1,
                other => panic!("unexpected fate {other:?}"),
            }
        }
        assert!(flapped > 0, "no probe hit a flap window");
        assert!(answered > 0, "flaps must be transient, not permanent");
        assert_eq!(s.stats.flap_breaks, flapped);
    }

    #[test]
    fn outage_onset_is_permanent() {
        let mut cfg = FaultConfig::none();
        cfg.outage_fraction = 1.0;
        cfg.seed = 3;
        let plan = FaultPlan::compile(&cfg, 2, 3, 100);
        let mut s = FaultSession::new(&plan);
        assert!(!s.monitor_down(0), "outage must not start at tick 0");
        for _ in 0..200 {
            s.probe(0);
        }
        for m in 0..3 {
            assert!(s.monitor_down(m), "monitor {m} should be dark by now");
        }
    }

    #[test]
    fn base_tick_sessions_replay_the_absolute_clock() {
        let mut cfg = FaultConfig::none();
        cfg.packet_loss = 0.3;
        cfg.flap_fraction = 0.5;
        cfg.flap_duration = 0.2;
        cfg.seed = 21;
        let plan = FaultPlan::compile(&cfg, 6, 2, 400);
        // A session probing straight through [0, 200) must agree with a
        // session started mid-stream at tick 100 on every fate in
        // [100, 200): loss hashes and flap windows key off the absolute
        // tick, so slicing the clock never changes what a tick holds.
        // (Token buckets are the exception — they restart full at the
        // base — so this config leaves rate-limiting off.)
        let mut whole = FaultSession::new(&plan);
        let mut sliced = FaultSession::at_tick(&plan, 100);
        assert_eq!(sliced.tick(), 100);
        for t in 0..200u32 {
            let w = whole.probe(t % 6);
            if t >= 100 {
                assert_eq!(w, sliced.probe(t % 6), "fate diverged at tick {t}");
            }
        }
        assert_eq!(sliced.probes_sent(), 100);
    }

    /// A reference session with one dense bucket per router of the plan,
    /// all filled when the session opens. Fates, ticks and counters of
    /// the table-backed session must match it probe for probe.
    struct DenseSession<'p> {
        plan: &'p FaultPlan,
        tick: u64,
        probes_sent: u64,
        tokens: Vec<f64>,
        refilled_at: Vec<u64>,
        stats: FaultStats,
    }

    impl<'p> DenseSession<'p> {
        fn at_tick(plan: &'p FaultPlan, base: u64) -> Self {
            let n = plan.flaps.len();
            DenseSession {
                plan,
                tick: base,
                probes_sent: 0,
                tokens: vec![f64::from(plan.cfg.rate_limit_burst); n],
                refilled_at: vec![base; n],
                stats: FaultStats::default(),
            }
        }

        fn probe(&mut self, router: u32) -> ProbeFate {
            self.tick += 1;
            self.probes_sent += 1;
            if self.plan.inert {
                return ProbeFate::Answered;
            }
            let r = router as usize;
            if let Some(&Some((start, end))) = self.plan.flaps.get(r) {
                if start <= self.tick && self.tick < end {
                    self.stats.flap_breaks += 1;
                    return ProbeFate::Flapped;
                }
            }
            let cfg = &self.plan.cfg;
            if cfg.packet_loss > 0.0
                && unit(cfg.seed ^ LOSS_SALT, self.tick, u64::from(router)) < cfg.packet_loss
            {
                self.stats.probes_lost += 1;
                return ProbeFate::Lost;
            }
            if cfg.rate_limit_burst > 0 {
                let elapsed = (self.tick - self.refilled_at[r]) as f64;
                let burst = f64::from(cfg.rate_limit_burst);
                self.tokens[r] = (self.tokens[r] + elapsed * cfg.rate_limit_refill).min(burst);
                self.refilled_at[r] = self.tick;
                if self.tokens[r] < 1.0 {
                    self.stats.rate_limited += 1;
                    return ProbeFate::RateLimited;
                }
                self.tokens[r] -= 1.0;
            }
            ProbeFate::Answered
        }

        fn backoff(&mut self, attempt: u32) {
            let shift = attempt.saturating_sub(1).min(6);
            self.tick += self.plan.cfg.retry_backoff << shift;
        }
    }

    /// Drives both sessions through `ops` — `(0, x)` backs off for
    /// attempt `x % 8 + 1`, `(k, x)` probes router `x % spread` with
    /// `spread = hot` for `k < 12` (so buckets drain) and `routers`
    /// otherwise (so the table fills) — and compares every fate and
    /// tick, then the counters.
    fn check_against_dense(plan: &FaultPlan, base: u64, hot: u32, ops: &[(u8, u32)]) {
        let routers = plan.flaps.len() as u32;
        let mut table = FaultSession::at_tick(plan, base);
        let mut dense = DenseSession::at_tick(plan, base);
        for &(op, x) in ops {
            if op == 0 {
                table.backoff(x % 8 + 1);
                dense.backoff(x % 8 + 1);
            } else {
                let router = x % if op < 12 { hot.min(routers) } else { routers };
                assert_eq!(table.probe(router), dense.probe(router), "router {router}");
            }
            assert_eq!(table.tick(), dense.tick);
        }
        assert_eq!(table.probes_sent(), dense.probes_sent);
        assert_eq!(table.stats, dense.stats);
    }

    proptest! {
        #[test]
        fn bucket_table_matches_a_dense_bucket_per_router(
            // The three named profiles, and a plan whose buckets never
            // refill, so every bucket keeps a count of its probes and a
            // bucket read for the wrong router changes a fate.
            profile in 0usize..4,
            seed in any::<u64>(),
            // Half the worlds have at most 64 routers, which keeps the
            // table near half full and its probe sequences long.
            small in any::<bool>(),
            routers in 1usize..20_000,
            base in 0u64..1_000_000,
            hot in 1u32..5,
            ops in prop::collection::vec((0u8..16, any::<u32>()), 1..2_000),
        ) {
            let cfg = match ["light", "moderate", "heavy"].get(profile) {
                Some(name) => FaultConfig::profile(name, seed).unwrap(),
                None => FaultConfig {
                    rate_limit_burst: 1 + (seed % 8) as u32,
                    ..FaultConfig::none()
                },
            };
            let routers = if small { routers % 64 + 1 } else { routers };
            let plan = FaultPlan::compile(&cfg, routers, 1, 20_000);
            check_against_dense(&plan, base, hot, &ops);
        }
    }

    #[test]
    fn bucket_table_grows_past_its_first_allocation() {
        // Without refill a drained bucket stays drained, so a bucket lost
        // or mixed up while the table doubles shows as a changed fate.
        // 12,000 distinct routers, drawn at random so that their slots
        // collide, are each probed four times, a pass at a time: the
        // first pass doubles the table past its first 8,192 slots twice
        // while the buckets hold part of their 3 tokens, and the fourth
        // pass finds every bucket empty.
        let mut cfg = FaultConfig::none();
        cfg.rate_limit_burst = 3;
        let plan = FaultPlan::compile(&cfg, 50_000, 1, 100_000);
        let mut routers: Vec<u32> = (0..30_000u64)
            .map(|i| (unit(1, i, 0) * 50_000.0) as u32)
            .collect();
        routers.sort_unstable();
        routers.dedup();
        routers.truncate(12_000);
        let ops: Vec<(u8, u32)> = (0..4)
            .flat_map(|_| routers.iter().map(|&r| (12, r)))
            .collect();
        check_against_dense(&plan, 77, 1, &ops);
        let mut s = FaultSession::at_tick(&plan, 77);
        for &(_, router) in &ops {
            s.probe(router);
        }
        assert_eq!(s.stats.rate_limited, 12_000);
        assert!(
            s.buckets.slots.len() > 2 * FIRST_SLOTS_MAX,
            "the table grew once at most"
        );
    }

    #[test]
    fn packet_loss_rate_tracks_probability() {
        let mut cfg = FaultConfig::none();
        cfg.packet_loss = 0.2;
        cfg.seed = 11;
        let plan = FaultPlan::compile(&cfg, 1, 1, 10_000);
        let mut s = FaultSession::new(&plan);
        for _ in 0..10_000 {
            s.probe(0);
        }
        let rate = s.stats.probes_lost as f64 / 10_000.0;
        assert!((rate - 0.2).abs() < 0.03, "loss rate {rate} far from 0.2");
    }

    #[test]
    fn severity_zero_is_inert_and_profiles_resolve() {
        assert!(FaultConfig::at_severity(0.0, 1).is_inert());
        assert!(!FaultConfig::at_severity(0.5, 1).is_inert());
        assert!(FaultConfig::profile("none", 1).is_some_and(|c| c.is_inert()));
        for name in ["light", "moderate", "heavy"] {
            assert!(
                FaultConfig::profile(name, 1).is_some_and(|c| !c.is_inert()),
                "{name} should be an active profile"
            );
        }
        assert!(FaultConfig::profile("bogus", 1).is_none());
    }

    #[test]
    fn stage_failures_do_not_serialize() {
        let mut cfg = FaultConfig::at_severity(0.3, 5);
        let clean = serde_json::to_string(&cfg).expect("serializes");
        cfg.stage_failures.push(StageFailure {
            stage: "collect-skitter".into(),
            failures: 2,
        });
        let faulty = serde_json::to_string(&cfg).expect("serializes");
        assert_eq!(
            clean, faulty,
            "stage failures are output-neutral and must be fingerprint-neutral"
        );
        assert_eq!(cfg.failing_attempts("collect-skitter"), 2);
        assert_eq!(cfg.failing_attempts("route-table"), 0);
    }

    #[test]
    fn quorum_counts_round_up() {
        let cfg = FaultConfig::none();
        assert_eq!(cfg.quorum_monitors(19), 10);
        assert_eq!(cfg.quorum_monitors(1), 1);
        assert_eq!(cfg.quorum_monitors(0), 1);
    }
}
