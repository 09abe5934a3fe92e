// Seeded-violation fixture: one deliberate violation per lint rule, each
// on a known line, so the integration test can assert that `xtask check`
// exits non-zero and reports every rule ID with a file:line diagnostic.
// This file is never compiled (it lives under tests/fixtures/).

pub fn entropy() -> u64 {
    let mut r = rand::thread_rng();
    r.random()
}

pub fn clocked() -> std::time::Instant {
    std::time::Instant::now()
}

pub fn aborts(v: Option<u32>) -> u32 {
    v.unwrap()
}

pub fn exact(x: f64) -> bool {
    x == 0.5
}

pub fn sidecar_worker() {
    std::thread::spawn(|| {});
}

pub fn heapy() -> std::collections::BinaryHeap<u32> {
    std::collections::BinaryHeap::new()
}

pub fn tears(p: &std::path::Path) {
    std::fs::write(p, b"raw, unfenced, invisible to chaos injection").unwrap();
}
