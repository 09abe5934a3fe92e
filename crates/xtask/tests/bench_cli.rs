//! End-to-end test of the `cargo xtask bench` binary's usage errors: each
//! exits 2 before any `cargo bench` is spawned, so these runs finish at
//! once instead of building and timing a bench.

use std::process::Command;

#[test]
fn usage_errors_exit_2_without_spawning_a_bench() {
    for (args, message) in [
        (&["--bogus"][..], "unknown option `--bogus`"),
        (&["--scale"][..], "--scale needs a name"),
        (&["--bench", "nope"][..], "unknown bench `nope`"),
        // `check`'s flags are not `bench`'s.
        (&["--root", "."][..], "unknown option `--root`"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
            .arg("bench")
            .args(args)
            .output()
            .expect("spawn xtask");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "bench {args:?}: {stderr}");
        assert!(stderr.contains(message), "bench {args:?}: {stderr}");
    }
}
