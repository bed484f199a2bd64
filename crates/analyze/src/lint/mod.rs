//! Workspace lint engine.
//!
//! Discovers workspace members from the root `Cargo.toml`, walks their
//! `src/` trees (skipping `tests/` and `benches/` directories — and
//! `#[cfg(test)]` blocks inside files, handled per-line by the rules),
//! runs every [`Rule`](rules::Rule) and partitions findings into active
//! vs allowlisted.

/// Allowlist file format and matching.
pub mod allow;
/// Baseline ratchet: compare a run against a committed snapshot.
pub mod baseline;
/// Human and JSON report rendering.
pub mod report;
/// The `Rule` trait and built-in rules.
pub mod rules;
/// Preprocessed per-file source views.
pub mod source;

use std::fs;
use std::path::{Path, PathBuf};

use allow::{AllowEntry, Allowlist};
use rules::{Finding, Rule};
use source::SourceFile;

/// Result of one lint run.
#[derive(Debug)]
pub struct LintOutcome {
    /// Findings not covered by any allowlist entry or inline suppression.
    pub active: Vec<Finding>,
    /// Findings silenced by the allowlist or an inline
    /// `analyze::allow(...)` comment.
    pub allowlisted: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Package names that contributed files, in scan order.
    pub crates: Vec<String>,
}

/// Engine configuration.
pub struct Linter {
    rules: Vec<Box<dyn Rule>>,
    allowlist: Allowlist,
}

impl Default for Linter {
    fn default() -> Self {
        Self::new()
    }
}

impl Linter {
    /// Engine with the built-in rule set and an empty allowlist.
    pub fn new() -> Linter {
        Linter {
            rules: rules::builtin_rules(),
            allowlist: Allowlist::default(),
        }
    }

    /// Replace the rule set (tests plug in single rules).
    pub fn with_rules(mut self, rules: Vec<Box<dyn Rule>>) -> Linter {
        self.rules = rules;
        self
    }

    /// Attach a parsed allowlist.
    pub fn with_allowlist(mut self, allowlist: Allowlist) -> Linter {
        self.allowlist = allowlist;
        self
    }

    /// Load the allowlist from `path` (missing file = empty list).
    pub fn with_allowlist_file(self, path: &Path) -> Result<Linter, String> {
        match fs::read_to_string(path) {
            Ok(text) => Ok(self.with_allowlist(Allowlist::parse(&text)?)),
            Err(_) => Ok(self),
        }
    }

    /// The attached allowlist entries (for report rendering).
    pub fn allow_entries(&self) -> &[AllowEntry] {
        &self.allowlist.entries
    }

    /// Ids and descriptions of the attached rules.
    pub fn rule_catalog(&self) -> Vec<(&'static str, &'static str)> {
        self.rules
            .iter()
            .map(|r| (r.id(), r.description()))
            .collect()
    }

    /// Lint every workspace member found under `root`.
    pub fn run_workspace(&self, root: &Path) -> Result<LintOutcome, String> {
        let members = discover_members(root)?;
        let mut files = Vec::new();
        for m in &members {
            collect_member_sources(root, m, &mut files)?;
        }
        Ok(self.run_files(files))
    }

    /// Lint a prepared set of files (unit tests feed synthetic sources).
    pub fn run_files(&self, files: Vec<SourceFile>) -> LintOutcome {
        let mut active = Vec::new();
        let mut allowlisted = Vec::new();
        let mut crates = Vec::new();
        for file in &files {
            if !crates.contains(&file.crate_name) {
                crates.push(file.crate_name.clone());
            }
            for rule in &self.rules {
                if !rule.applies_to(file) {
                    continue;
                }
                for f in rule.check(file) {
                    if inline_suppressed(file, &f) || self.allowlist.covering(&f).is_some() {
                        allowlisted.push(f);
                    } else {
                        active.push(f);
                    }
                }
            }
        }
        LintOutcome {
            active,
            allowlisted,
            files_scanned: files.len(),
            crates,
        }
    }
}

/// An inline `analyze::allow(<rule>)` comment on the finding's line or the
/// line above silences it.
fn inline_suppressed(file: &SourceFile, f: &Finding) -> bool {
    let needle = format!("analyze::allow({})", f.rule);
    file.comment_near(f.line - 1, 1).contains(&needle)
}

/// One workspace member: package name + directory.
#[derive(Debug, Clone, PartialEq)]
pub struct Member {
    pub name: String,
    pub dir: PathBuf,
}

/// Parse `members = [...]` from the root manifest and expand `dir/*`
/// globs. The root package itself (if the manifest has one) is included.
pub fn discover_members(root: &Path) -> Result<Vec<Member>, String> {
    let manifest_path = root.join("Cargo.toml");
    let manifest = fs::read_to_string(&manifest_path)
        .map_err(|e| format!("cannot read {}: {e}", manifest_path.display()))?;

    let mut dirs: Vec<PathBuf> = Vec::new();
    if package_name(&manifest).is_some() {
        dirs.push(root.to_path_buf());
    }
    for pattern in member_patterns(&manifest)? {
        if let Some(prefix) = pattern.strip_suffix("/*") {
            let base = root.join(prefix);
            let mut expanded: Vec<PathBuf> = fs::read_dir(&base)
                .map_err(|e| format!("cannot expand member glob {pattern}: {e}"))?
                .filter_map(|entry| entry.ok().map(|e| e.path()))
                .filter(|p| p.join("Cargo.toml").is_file())
                .collect();
            expanded.sort();
            dirs.extend(expanded);
        } else {
            dirs.push(root.join(&pattern));
        }
    }

    let mut members = Vec::new();
    for dir in dirs {
        let text = fs::read_to_string(dir.join("Cargo.toml"))
            .map_err(|e| format!("cannot read {}: {e}", dir.join("Cargo.toml").display()))?;
        let Some(name) = package_name(&text) else {
            continue; // virtual manifest
        };
        members.push(Member { name, dir });
    }
    Ok(members)
}

/// Extract the `members = [ ... ]` string list (possibly multi-line).
fn member_patterns(manifest: &str) -> Result<Vec<String>, String> {
    let Some(start) = manifest.find("members") else {
        return Ok(Vec::new());
    };
    let after = &manifest[start..];
    let open = after
        .find('[')
        .ok_or_else(|| "members key without a [ list".to_string())?;
    let close = after[open..]
        .find(']')
        .ok_or_else(|| "unterminated members list".to_string())?;
    let body = &after[open + 1..open + close];
    Ok(body
        .split(',')
        .map(|s| s.trim().trim_matches('"').to_string())
        .filter(|s| !s.is_empty())
        .collect())
}

/// `name = "..."` out of a manifest's `[package]` table.
fn package_name(manifest: &str) -> Option<String> {
    let pkg = manifest.find("[package]")?;
    for line in manifest[pkg..].lines().skip(1) {
        let t = line.trim();
        if t.starts_with('[') {
            return None; // next table before a name key
        }
        if let Some(rest) = t.strip_prefix("name") {
            let rest = rest.trim_start();
            if let Some(v) = rest.strip_prefix('=') {
                return Some(v.trim().trim_matches('"').to_string());
            }
        }
    }
    None
}

/// Gather the member's `src/**/*.rs`, skipping `tests`/`benches` dirs.
fn collect_member_sources(
    root: &Path,
    member: &Member,
    out: &mut Vec<SourceFile>,
) -> Result<(), String> {
    let src = member.dir.join("src");
    if !src.is_dir() {
        return Ok(());
    }
    let mut paths = Vec::new();
    walk_rs(&src, &mut paths)?;
    paths.sort();
    for p in paths {
        let text =
            fs::read_to_string(&p).map_err(|e| format!("cannot read {}: {e}", p.display()))?;
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .to_string_lossy()
            .replace('\\', "/");
        out.push(SourceFile::parse(&rel, &member.name, &text));
    }
    Ok(())
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        fs::read_dir(dir).map_err(|e| format!("cannot read dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir entry failed: {e}"))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "tests" || name == "benches" {
                continue;
            }
            walk_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_patterns_parse_globs() {
        let manifest = "[workspace]\nmembers = [\"crates/*\", \"tools/one\"]\n";
        assert_eq!(
            member_patterns(manifest).unwrap(),
            vec!["crates/*".to_string(), "tools/one".to_string()]
        );
    }

    #[test]
    fn package_name_is_extracted() {
        let manifest = "[package]\nname = \"autolearn-nn\"\nversion = \"0.1.0\"\n";
        assert_eq!(package_name(manifest).as_deref(), Some("autolearn-nn"));
        assert_eq!(package_name("[workspace]\nmembers = []\n"), None);
    }

    #[test]
    fn inline_suppression_marks_finding_allowlisted() {
        let src = "pub fn f() { x.unwrap() } // analyze::allow(no-unwrap-in-lib): startup only\n";
        let file = SourceFile::parse("crates/x/src/lib.rs", "x", src);
        let outcome = Linter::new().run_files(vec![file]);
        assert!(outcome.active.iter().all(|f| f.rule != "no-unwrap-in-lib"));
        assert!(outcome
            .allowlisted
            .iter()
            .any(|f| f.rule == "no-unwrap-in-lib"));
    }

    #[test]
    fn allowlist_partitions_findings() {
        let src = "pub fn f() { x.unwrap(); }\n";
        let file = SourceFile::parse("crates/x/src/lib.rs", "x", src);
        let allow = Allowlist::parse(
            "[[allow]]\nrule = \"*\"\npath = \"crates/x/*\"\nreason = \"legacy\"\n",
        )
        .unwrap();
        let outcome = Linter::new().with_allowlist(allow).run_files(vec![file]);
        assert!(outcome.active.is_empty(), "{:?}", outcome.active);
        assert!(!outcome.allowlisted.is_empty());
    }

    #[test]
    fn discovers_this_workspace() {
        // The crate sits at <root>/crates/analyze.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        let members = discover_members(root).expect("discovery works");
        assert!(members.iter().any(|m| m.name == "autolearn-analyze"));
        assert!(members.iter().any(|m| m.name == "autolearn-nn"));
        assert!(members.iter().any(|m| m.name == "autolearn-repro"));
    }
}
