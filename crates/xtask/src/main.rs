//! `cargo xtask` — project automation entry point.
//!
//! ```text
//! cargo xtask check [--root PATH] [--rule GT-LINT-00x] [--list] [--all]
//! cargo xtask analyze [--root PATH] [--rule GT-AN-00x] [--list] [--explain ID]
//! cargo xtask bench [--bench NAME] [--check] [--update] [--scale NAME] [--threads LIST] [--json PATH]
//! ```
//!
//! `check` runs the token-level lint catalog; `analyze` runs the
//! semantic analyzer (call-graph panic reachability, hot-path
//! allocation, dead workspace-pub); `check --all` runs both over a
//! single workspace parse, interleaving the findings in one sorted
//! stream.
//!
//! Exit codes: `0` clean, `1` findings reported, `2` usage or I/O error —
//! so CI can gate on the exit status directly.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use xtask::analyze::{all_analyzers, AnalyzeRule};
use xtask::rules::{all_rules, run, Finding};
use xtask::workspace::WorkspaceSrc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check(&args[1..]).unwrap_or_else(|code| code),
        Some("analyze") => analyze(&args[1..]).unwrap_or_else(|code| code),
        Some("bench") => bench(&args[1..]).unwrap_or_else(|code| code),
        Some("--help") | Some("-h") | None => {
            print_usage();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("error: unknown task `{other}`");
            print_usage();
            ExitCode::from(2)
        }
    }
}

fn print_usage() {
    eprintln!("usage: cargo xtask check [--root PATH] [--rule ID] [--list] [--all]");
    eprintln!("       cargo xtask analyze [--root PATH] [--rule ID] [--list] [--explain ID]");
    eprintln!(
        "       cargo xtask bench [--bench NAME] [--check] [--update] [--scale NAME] \
         [--threads LIST] [--json PATH]"
    );
    eprintln!();
    eprintln!("tasks:");
    eprintln!("  check    run the geotopo lint pass over the workspace sources");
    eprintln!("  analyze  run the call-graph analyzer (GT-AN rules) over the workspace");
    eprintln!("  bench    run a plain-harness bench (pipeline_stages or query)");
    eprintln!();
    eprintln!("check options:");
    eprintln!("  --root PATH   workspace root to scan (default: cwd, else the repo root)");
    eprintln!("  --rule ID     run a single rule (repeatable), e.g. --rule GT-LINT-003");
    eprintln!("  --list        list the rule catalog and exit");
    eprintln!("  --all         also run the GT-AN analyzer rules on the same parse");
    eprintln!();
    eprintln!("analyze options:");
    eprintln!("  --root PATH   workspace root to scan (default: cwd, else the repo root)");
    eprintln!("  --rule ID     run a single rule (repeatable), e.g. --rule GT-AN-001");
    eprintln!("  --list        list the analyzer catalog and exit");
    eprintln!("  --explain ID  print the long-form documentation for one rule");
    eprintln!();
    eprintln!("bench options:");
    eprintln!("  --bench NAME    which bench: pipeline_stages (default) or query");
    eprintln!("  --check         gate against the bench's committed baseline");
    eprintln!("                  (BENCH_measure.json / BENCH_query.json)");
    eprintln!("  --update        merge this run's entry into the committed baseline");
    eprintln!("  --scale NAME    world size: tiny|small|default|large|paper (default small)");
    eprintln!("  --threads LIST  worker counts to measure (default 1,4)");
    eprintln!("  --json PATH     also write results to PATH (default target/<bench>.json)");
}

/// Baseline file committed at the repo root for the `pipeline_stages`
/// bench; `bench --check` gates the fresh run against it and
/// `bench --update` rewrites it.
const BENCH_BASELINE: &str = "BENCH_measure.json";

/// Committed baseline for the `query` serving bench.
const BENCH_QUERY_BASELINE: &str = "BENCH_query.json";

/// `cargo xtask bench` — thin orchestrator around the plain-harness
/// bench binaries (`pipeline_stages` by default, `query` via `--bench`),
/// which own the JSON handling (this crate is deliberately
/// dependency-free, see Cargo.toml). Exit status is the bench's own, so
/// CI gates on it directly; `Err` carries a usage-error exit code, before
/// any bench is spawned.
fn bench(args: &[String]) -> Result<ExitCode, ExitCode> {
    let opts = Opts::parse(args, "--bench --check --update --scale --threads --json")?;
    let which = opts.bench.as_deref().unwrap_or("pipeline_stages");
    let (baseline_name, default_json) = match which {
        "pipeline_stages" => (BENCH_BASELINE, "target/pipeline_stages.json"),
        "query" => (BENCH_QUERY_BASELINE, "target/query.json"),
        other => {
            eprintln!("error: unknown bench `{other}` (pipeline_stages|query)");
            return Err(ExitCode::from(2));
        }
    };
    let root = default_root();
    // Cargo runs bench binaries with the *package* directory as cwd,
    // so every path handed over must be absolute against the root.
    let abs = |p: &str| {
        let p = Path::new(p);
        if p.is_absolute() {
            p.to_path_buf()
        } else {
            root.join(p)
        }
    };
    let baseline = abs(baseline_name);
    // The bench writes its JSON wherever it is told: pointing it at
    // the baseline makes the run the new reference.
    let json = if opts.update {
        baseline.clone()
    } else {
        abs(opts.json.as_deref().unwrap_or(default_json))
    };
    let scale = opts.scale.as_deref().unwrap_or("small");
    let threads = opts.threads.as_deref().unwrap_or("1,4");
    let mut cmd = std::process::Command::new(env!("CARGO"));
    cmd.current_dir(&root)
        .args(["bench", "-p", "geotopo-bench", "--bench", which])
        .args(["--", "--scale", scale, "--threads", threads])
        .arg("--json")
        .arg(&json);
    if opts.check {
        cmd.arg("--check").arg(&baseline);
    }
    Ok(match cmd.status() {
        Ok(status) if status.success() => ExitCode::SUCCESS,
        Ok(status) => ExitCode::from(status.code().unwrap_or(1).clamp(0, 255) as u8),
        Err(e) => {
            eprintln!("error: failed to run cargo bench: {e}");
            ExitCode::from(2)
        }
    })
}

/// The parsed flags of one command; a flag the command does not accept
/// is never set.
#[derive(Default)]
struct Opts {
    root: Option<PathBuf>,
    only: Vec<String>,
    list: bool,
    all: bool,
    explain: Option<String>,
    bench: Option<String>,
    check: bool,
    update: bool,
    scale: Option<String>,
    threads: Option<String>,
    json: Option<String>,
}

impl Opts {
    /// Parses `args`, accepting only the space-separated flags in
    /// `accepted`. Any other flag, or a flag missing its value, is a
    /// usage error (exit 2).
    fn parse(args: &[String], accepted: &str) -> Result<Self, ExitCode> {
        let mut opts = Opts::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |what: &str| {
                it.next().cloned().ok_or_else(|| {
                    eprintln!("error: {arg} needs {what}");
                    ExitCode::from(2)
                })
            };
            match accepted.split(' ').find(|f| f == arg) {
                Some("--root") => opts.root = Some(PathBuf::from(value("a path")?)),
                Some("--rule") => opts.only.push(value("a rule ID")?),
                Some("--list") => opts.list = true,
                Some("--all") => opts.all = true,
                Some("--explain") => opts.explain = Some(value("a rule ID")?),
                Some("--bench") => opts.bench = Some(value("a name (pipeline_stages|query)")?),
                Some("--check") => opts.check = true,
                Some("--update") => opts.update = true,
                Some("--scale") => {
                    opts.scale = Some(value("a name (tiny|small|default|large|paper)")?)
                }
                Some("--threads") => opts.threads = Some(value("a list, e.g. 1,4")?),
                Some("--json") => opts.json = Some(value("a path")?),
                _ => {
                    eprintln!("error: unknown option `{arg}`");
                    return Err(ExitCode::from(2));
                }
            }
        }
        Ok(opts)
    }

    /// Keeps the `--rule` selection of `rules`; an unknown ID is a usage
    /// error.
    fn select<R: ?Sized>(
        &self,
        rules: &mut Vec<Box<R>>,
        id: impl Fn(&R) -> &str,
    ) -> Result<(), ExitCode> {
        if let Some(bad) = self
            .only
            .iter()
            .find(|o| !rules.iter().any(|r| id(r) == *o))
        {
            eprintln!("error: unknown rule `{bad}` (see --list)");
            return Err(ExitCode::from(2));
        }
        if !self.only.is_empty() {
            rules.retain(|r| self.only.iter().any(|o| id(r) == o));
        }
        Ok(())
    }

    /// The workspace under `--root`, or the default root.
    fn workspace(&self) -> Result<WorkspaceSrc, ExitCode> {
        load_workspace(&self.root.clone().unwrap_or_else(default_root))
    }
}

/// `cargo xtask check`; `Err` carries a usage-error exit code.
fn check(args: &[String]) -> Result<ExitCode, ExitCode> {
    let opts = Opts::parse(args, "--root --rule --list --all")?;
    let mut rules = all_rules();
    let analyzers = if opts.all {
        all_analyzers()
    } else {
        Vec::new()
    };
    if opts.list {
        for r in &rules {
            println!("{}  {}", r.id(), r.describe());
        }
        for r in &analyzers {
            println!("{}   {}", r.id(), r.describe());
        }
        return Ok(ExitCode::SUCCESS);
    }
    opts.select(&mut rules, |r| r.id())?;
    let ws = opts.workspace()?;
    // One workspace parse serves both catalogs: `SourceFile` carries
    // the tokens and item tree both the lint rules and the analyzer
    // read, so `--all` costs one extra model build, not a re-read.
    let mut findings = run(&rules, &ws);
    if !analyzers.is_empty() {
        findings.extend(xtask::analyze::run(&analyzers, &ws));
        findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    }
    Ok(report(
        "check",
        &ws,
        rules.len() + analyzers.len(),
        &findings,
    ))
}

/// `cargo xtask analyze`; `Err` carries a usage-error exit code.
fn analyze(args: &[String]) -> Result<ExitCode, ExitCode> {
    let opts = Opts::parse(args, "--root --rule --list --explain")?;
    let mut analyzers: Vec<Box<dyn AnalyzeRule>> = all_analyzers();
    if let Some(id) = &opts.explain {
        let Some(r) = analyzers.iter().find(|r| r.id() == id) else {
            eprintln!("error: unknown rule `{id}` (see --list)");
            return Err(ExitCode::from(2));
        };
        println!("{}", r.explain());
        return Ok(ExitCode::SUCCESS);
    }
    if opts.list {
        for r in &analyzers {
            println!("{}  {}", r.id(), r.describe());
        }
        return Ok(ExitCode::SUCCESS);
    }
    opts.select(&mut analyzers, |r| r.id())?;
    let ws = opts.workspace()?;
    let findings = xtask::analyze::run(&analyzers, &ws);
    Ok(report("analyze", &ws, analyzers.len(), &findings))
}

/// Loads the workspace or reports the usage/IO error (exit 2).
fn load_workspace(root: &Path) -> Result<WorkspaceSrc, ExitCode> {
    let ws = match WorkspaceSrc::load(root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("error: failed to load workspace at {}: {e}", root.display());
            return Err(ExitCode::from(2));
        }
    };
    if ws.crates.is_empty() {
        eprintln!("error: no crates found under {}", root.display());
        return Err(ExitCode::from(2));
    }
    Ok(ws)
}

/// Prints findings plus the one-line summary; exit 0 clean, 1 findings.
fn report(task: &str, ws: &WorkspaceSrc, nrules: usize, findings: &[Finding]) -> ExitCode {
    for f in findings {
        println!("{f}");
    }
    let nfiles = ws.num_files();
    let ncrates = ws.crates.len();
    if findings.is_empty() {
        println!("xtask {task}: {ncrates} crates, {nfiles} files, {nrules} rules — clean");
        ExitCode::SUCCESS
    } else {
        println!(
            "xtask {task}: {ncrates} crates, {nfiles} files, {nrules} rules — {} finding(s)",
            findings.len()
        );
        ExitCode::from(1)
    }
}

/// Workspace root when `--root` is absent: the current directory if it
/// holds a `Cargo.toml`, else walk up from this crate's manifest dir
/// (crates/xtask -> crates -> workspace root) so the alias also works
/// from subdirectories.
fn default_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    if cwd.join("Cargo.toml").exists() {
        return cwd;
    }
    let manifest_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest_dir
        .parent()
        .and_then(|p| p.parent())
        .map(Path::to_path_buf)
        .unwrap_or(cwd)
}
