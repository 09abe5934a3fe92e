//! GT-AN-001: no panic site transitively reachable from a supervised
//! entry point.
//!
//! Roots are every `fn run` inside an `impl Stage for ...` (enumerated
//! from the item model, so new stages are covered automatically) and
//! every public method of `FaultSession` — the two surfaces the
//! supervisor in `geotopo-core` drives during a campaign. A panic
//! anywhere under them aborts the campaign mid-flight, which is exactly
//! what the fault-injection substrate exists to prevent.
//!
//! Panic sites: `.unwrap()` / `.expect()` calls, `panic!` /
//! `unreachable!` / `todo!` / `unimplemented!` macros, and `x[i]`
//! indexing inside fns flagged `// analyze: strict-indexing`. Waive a
//! site with `// analyze: allow(panic)` (or the existing
//! `// lint: allow(unwrap)` for unwrap/expect) plus a comment saying
//! why it cannot fire.

use super::AnalyzeRule;
use crate::graph::{CallKind, Model};
use crate::items::Vis;
use crate::rules::Finding;

/// See module docs.
#[derive(Debug)]
pub struct PanicReach;

/// Macros whose expansion aborts the thread.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Fn indices of every supervised root: `Stage::run` impls and public
/// `FaultSession` methods. Public so the root-coverage test can assert
/// every `impl Stage` in the workspace is in the set.
pub fn supervised_roots(model: &Model<'_>) -> Vec<u32> {
    let mut roots = Vec::new();
    for (i, f) in model.fns.iter().enumerate() {
        if f.is_test || f.body.is_none() {
            continue;
        }
        let stage_run = f.name == "run" && f.trait_name.as_deref() == Some("Stage");
        let fault_entry = f.self_ty.as_deref() == Some("FaultSession") && f.vis == Vis::Pub;
        if stage_run || fault_entry {
            roots.push(i as u32);
        }
    }
    roots
}

impl AnalyzeRule for PanicReach {
    fn id(&self) -> &'static str {
        "GT-AN-001"
    }

    fn describe(&self) -> &'static str {
        "no panic site reachable from Stage::run or FaultSession entry points"
    }

    fn explain(&self) -> &'static str {
        "GT-AN-001 panic reachability\n\
         \n\
         The engine's supervisor assumes stages fail by returning errors, not by\n\
         panicking: a panic unwinds through the scheduler, poisons the campaign,\n\
         and loses every in-flight measurement. This rule walks the workspace\n\
         call graph from every supervised entry point and reports any panic site\n\
         that is transitively reachable.\n\
         \n\
         Roots (enumerated from the item model, not a path list):\n\
           - every `fn run` in an `impl Stage for ...`\n\
           - every `pub fn` on `FaultSession`\n\
         \n\
         Panic sites:\n\
           - `.unwrap()` and `.expect(..)` calls\n\
           - `panic!`, `unreachable!`, `todo!`, `unimplemented!` macros\n\
           - `x[i]` indexing, only inside fns marked `// analyze: strict-indexing`\n\
         \n\
         Each finding carries a witness call path from a root to the offending\n\
         function. Call resolution is name-based and deliberately\n\
         over-approximate: a reported path may not be feasible, but an\n\
         unreported one is guaranteed panic-free modulo resolution gaps\n\
         (calls into std/vendored code produce no edges).\n\
         \n\
         Waiving: add `// analyze: allow(panic)` on the site line, the line\n\
         above, or the enclosing fn header (item-scoped), with a comment saying\n\
         why the panic cannot fire. `// lint: allow(unwrap)` also waives\n\
         unwrap/expect sites so existing GT-LINT-003 markers keep working.\n\
         \n\
         GT-LINT-003 bans unwrap/expect textually in the substrate crates\n\
         and core's engine, reachable or not; this rule follows calls into\n\
         every crate and also catches panic macros and strict indexing."
    }

    fn check(&self, model: &Model<'_>) -> Vec<Finding> {
        let roots = supervised_roots(model);
        let parents = model.reachable(&roots);
        let mut out = Vec::new();
        for (i, f) in model.fns.iter().enumerate() {
            if parents[i].is_none() {
                continue;
            }
            let sf = model.file(f.file);
            let strict = sf.strict_indexing.contains(&f.line);
            let witness = || model.witness_path(&parents, i as u32);
            for call in &f.calls {
                let is_unwrap = matches!(call.kind, CallKind::Method { .. })
                    && (call.name == "unwrap" || call.name == "expect");
                if !is_unwrap {
                    continue;
                }
                if sf.is_allowed(call.line, "panic") || sf.is_allowed(call.line, "unwrap") {
                    continue;
                }
                out.push(Finding {
                    file: sf.path.clone(),
                    line: call.line,
                    rule: self.id(),
                    message: format!(
                        "`.{}()` reachable from supervised root via {}",
                        call.name,
                        witness()
                    ),
                });
            }
            for m in &f.macros {
                if !PANIC_MACROS.contains(&m.name.as_str()) {
                    continue;
                }
                if sf.is_allowed(m.line, "panic") {
                    continue;
                }
                out.push(Finding {
                    file: sf.path.clone(),
                    line: m.line,
                    rule: self.id(),
                    message: format!(
                        "`{}!` reachable from supervised root via {}",
                        m.name,
                        witness()
                    ),
                });
            }
            if strict {
                for &line in &f.index_lines {
                    if sf.is_allowed(line, "panic") {
                        continue;
                    }
                    out.push(Finding {
                        file: sf.path.clone(),
                        line,
                        rule: self.id(),
                        message: format!(
                            "indexing in strict-indexing fn `{}` reachable from supervised \
                             root via {}",
                            f.qual_name(),
                            witness()
                        ),
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Model;
    use crate::rules::ws_of;

    #[test]
    fn unwrap_behind_helper_is_reached_from_stage_run() {
        let ws = ws_of(
            "geotopo-core",
            &[(
                "crates/core/src/lib.rs",
                "struct S;\nimpl Stage for S {\n    fn run(&self) { helper(); }\n}\nfn helper() { x().unwrap(); }\nfn x() -> Option<u32> { None }\n",
            )],
        );
        let model = Model::build(&ws);
        let f = PanicReach.check(&model);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 5);
        assert!(f[0].message.contains("S::run -> helper"));
    }

    #[test]
    fn unreachable_code_is_not_flagged() {
        let ws = ws_of(
            "geotopo-core",
            &[(
                "crates/core/src/lib.rs",
                "struct S;\nimpl Stage for S {\n    fn run(&self) {}\n}\nfn lonely() { x.unwrap(); }\n",
            )],
        );
        let model = Model::build(&ws);
        assert!(PanicReach.check(&model).is_empty());
    }

    #[test]
    fn allow_marker_waives_site() {
        let ws = ws_of(
            "geotopo-core",
            &[(
                "crates/core/src/lib.rs",
                "struct S;\nimpl Stage for S {\n    fn run(&self) {\n        x.unwrap(); // analyze: allow(panic): cannot fail, seeded above\n    }\n}\n",
            )],
        );
        let model = Model::build(&ws);
        assert!(PanicReach.check(&model).is_empty());
    }

    #[test]
    fn panic_macro_reachable_from_fault_session() {
        let ws = ws_of(
            "geotopo-measure",
            &[(
                "crates/measure/src/lib.rs",
                "struct FaultSession;\nimpl FaultSession {\n    pub fn tick(&mut self) { boom(); }\n}\nfn boom() { panic!(\"no\"); }\n",
            )],
        );
        let model = Model::build(&ws);
        let f = PanicReach.check(&model);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("`panic!`"));
    }

    #[test]
    fn strict_indexing_flags_only_marked_fns() {
        let ws = ws_of(
            "geotopo-core",
            &[(
                "crates/core/src/lib.rs",
                "struct S;\nimpl Stage for S {\n    fn run(&self) { a(); b(); }\n}\n// analyze: strict-indexing\nfn a() { let _ = v[0]; }\nfn b() { let _ = v[0]; }\n",
            )],
        );
        let model = Model::build(&ws);
        let f = PanicReach.check(&model);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 6);
    }

    #[test]
    fn roots_cover_every_stage_impl() {
        let ws = ws_of(
            "geotopo-core",
            &[(
                "crates/core/src/lib.rs",
                "struct A;\nstruct B;\nimpl Stage for A {\n    fn run(&self) {}\n}\nimpl Stage for B {\n    fn run(&self) {}\n}\nimpl B {\n    fn run_helper(&self) {}\n}\n",
            )],
        );
        let model = Model::build(&ws);
        let roots = supervised_roots(&model);
        assert_eq!(roots.len(), 2);
        for r in roots {
            assert_eq!(model.fns[r as usize].trait_name.as_deref(), Some("Stage"));
        }
    }
}
