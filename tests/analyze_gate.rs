//! Repository lint gate: the workspace must be clean under
//! `autolearn-analyze` — every finding either fixed or deliberately
//! allowlisted (with a reason) in `crates/analyze/allow.toml`.
//!
//! This is the same check `scripts/analyze.sh` and
//! `cargo run -p autolearn-analyze -- --workspace` perform, wired into
//! `cargo test` so a new unwrap/expect/panic/undocumented item fails CI
//! even when nobody runs the binary.

use std::path::Path;

use autolearn_analyze::Linter;

#[test]
fn workspace_has_no_active_lint_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let outcome = Linter::new()
        .with_allowlist_file(&root.join("crates/analyze/allow.toml"))
        .expect("allow.toml parses")
        .run_workspace(root)
        .expect("workspace scan succeeds");

    assert!(outcome.files_scanned > 50, "suspiciously few files scanned");
    assert!(
        outcome.active.is_empty(),
        "active lint findings (fix them or allowlist with a reason):\n{}",
        outcome
            .active
            .iter()
            .map(|f| format!("  [{}] {}:{} {}", f.rule, f.path, f.line, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn allowlist_entries_all_still_match_something() {
    // A stale allowlist entry (covering zero findings) means the underlying
    // code was fixed: delete the entry so it cannot mask a regression
    // elsewhere under the same path.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let linter = Linter::new()
        .with_allowlist_file(&root.join("crates/analyze/allow.toml"))
        .expect("allow.toml parses");
    let outcome = linter.run_workspace(root).expect("workspace scan succeeds");

    for entry in linter.allow_entries() {
        let used = outcome.allowlisted.iter().any(|f| entry.matches(f));
        assert!(
            used,
            "stale allowlist entry (matches nothing): rule={} path={}",
            entry.rule, entry.path
        );
    }
}
