//! CLI for the workspace lint engine.
//!
//! ```text
//! cargo run -p autolearn-analyze -- --workspace [--root DIR] [--json] [--list-rules]
//!                                   [--baseline FILE | --write-baseline FILE]
//! ```
//!
//! Exit status: 0 when no active (non-allowlisted) findings, 1 when
//! findings remain, 2 on usage / IO errors. With `--baseline`, 0/1 instead
//! reflect the ratchet: 0 when no count grew past the committed snapshot
//! (the snapshot is rewritten in place when counts shrink), 1 otherwise.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use autolearn_analyze::lint::baseline::{compare, Baseline};
use autolearn_analyze::lint::{report, Linter};

struct Args {
    workspace: bool,
    root: PathBuf,
    json: bool,
    list_rules: bool,
    baseline: Option<PathBuf>,
    write_baseline: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workspace: false,
        root: PathBuf::from("."),
        json: false,
        list_rules: false,
        baseline: None,
        write_baseline: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => args.workspace = true,
            "--json" => args.json = true,
            "--list-rules" => args.list_rules = true,
            "--root" => {
                let dir = it.next().ok_or("--root needs a directory argument")?;
                args.root = PathBuf::from(dir);
            }
            "--baseline" => {
                let file = it.next().ok_or("--baseline needs a file argument")?;
                args.baseline = Some(PathBuf::from(file));
            }
            "--write-baseline" => {
                let file = it.next().ok_or("--write-baseline needs a file argument")?;
                args.write_baseline = Some(PathBuf::from(file));
            }
            "--help" | "-h" => {
                return Err(
                    "usage: autolearn-analyze --workspace [--root DIR] [--json] \
                            [--list-rules] [--baseline FILE | --write-baseline FILE]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    if args.baseline.is_some() && args.write_baseline.is_some() {
        return Err("--baseline and --write-baseline are mutually exclusive".to_string());
    }
    Ok(args)
}

/// Walk up from `start` to the manifest that declares `[workspace]`.
fn find_workspace_root(start: &Path) -> PathBuf {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return dir;
                }
            }
        }
        if !dir.pop() {
            return start.to_path_buf();
        }
    }
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let root = find_workspace_root(&args.root);

    let linter = Linter::new().with_allowlist_file(&root.join("crates/analyze/allow.toml"))?;

    if args.list_rules {
        for (id, description) in linter.rule_catalog() {
            println!("{id:<24} {description}");
        }
        return Ok(true);
    }
    if !args.workspace {
        return Err("nothing to do: pass --workspace (and see --help)".to_string());
    }

    let outcome = linter.run_workspace(&root)?;

    if let Some(path) = &args.write_baseline {
        let json = report::render_json(&outcome);
        std::fs::write(path, json)
            .map_err(|e| format!("cannot write baseline {}: {e}", path.display()))?;
        println!(
            "autolearn-analyze: wrote baseline ({} active, {} allowlisted) to {}",
            outcome.active.len(),
            outcome.allowlisted.len(),
            path.display()
        );
        return Ok(true);
    }

    if let Some(path) = &args.baseline {
        let text = std::fs::read_to_string(path).map_err(|e| {
            format!(
                "cannot read baseline {}: {e} (generate one with --write-baseline)",
                path.display()
            )
        })?;
        let snapshot = Baseline::parse(&text)?;
        let current = Baseline::from_outcome(&outcome);
        let cmp = compare(&current, &snapshot);
        if !cmp.regressions.is_empty() {
            for regression in &cmp.regressions {
                eprintln!("autolearn-analyze: baseline regression: {regression}");
            }
            return Ok(false);
        }
        if cmp.improved {
            std::fs::write(path, report::render_json(&outcome))
                .map_err(|e| format!("cannot rewrite baseline {}: {e}", path.display()))?;
            println!(
                "autolearn-analyze: findings shrank — baseline ratcheted down at {}",
                path.display()
            );
        } else {
            println!(
                "autolearn-analyze: baseline ratchet clean ({} active, {} allowlisted)",
                outcome.active.len(),
                outcome.allowlisted.len()
            );
        }
        return Ok(true);
    }

    if args.json {
        print!("{}", report::render_json(&outcome));
    } else {
        print!("{}", report::render_human(&outcome));
    }
    Ok(outcome.active.is_empty())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("autolearn-analyze: {message}");
            ExitCode::from(2)
        }
    }
}
