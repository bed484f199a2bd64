//! Report rendering: human-readable text and a machine-readable JSON
//! summary (counts per rule per crate). JSON is emitted by hand — this
//! crate is dependency-free by design, so it cannot use the serde shims.

use std::collections::BTreeMap;

use super::rules::Finding;
use super::LintOutcome;

/// Human-readable report: findings grouped by rule, then `file:line`.
pub fn render_human(outcome: &LintOutcome) -> String {
    let mut out = String::new();
    if outcome.active.is_empty() {
        out.push_str(&format!(
            "analyze: clean — {} files across {} crates, 0 active findings ({} allowlisted)\n",
            outcome.files_scanned,
            outcome.crates.len(),
            outcome.allowlisted.len()
        ));
        return out;
    }

    let mut by_rule: BTreeMap<&str, Vec<&Finding>> = BTreeMap::new();
    for f in &outcome.active {
        by_rule.entry(f.rule).or_default().push(f);
    }
    for (rule, findings) in &by_rule {
        out.push_str(&format!("{rule} ({} findings)\n", findings.len()));
        for f in findings {
            out.push_str(&format!("  {}:{}  {}\n", f.path, f.line, f.message));
            if !f.excerpt.is_empty() {
                out.push_str(&format!("      > {}\n", truncate(&f.excerpt, 100)));
            }
        }
    }
    out.push_str(&format!(
        "analyze: {} active findings across {} rules ({} files scanned, {} allowlisted)\n",
        outcome.active.len(),
        by_rule.len(),
        outcome.files_scanned,
        outcome.allowlisted.len()
    ));
    out
}

fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_string()
    } else {
        let cut: String = s.chars().take(max).collect();
        format!("{cut}...")
    }
}

/// Machine-readable JSON summary:
///
/// ```json
/// {
///   "files_scanned": 120,
///   "active": 3,
///   "allowlisted": 41,
///   "rules": { "no-unwrap-in-lib": { "autolearn-tub": 2, "autolearn-net": 1 } }
/// }
/// ```
pub fn render_json(outcome: &LintOutcome) -> String {
    let mut rules: BTreeMap<&str, BTreeMap<&str, usize>> = BTreeMap::new();
    for f in &outcome.active {
        *rules
            .entry(f.rule)
            .or_default()
            .entry(f.crate_name.as_str())
            .or_default() += 1;
    }
    let mut allow_rules: BTreeMap<&str, usize> = BTreeMap::new();
    for f in &outcome.allowlisted {
        *allow_rules.entry(f.rule).or_default() += 1;
    }

    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"files_scanned\": {},\n",
        outcome.files_scanned
    ));
    out.push_str(&format!("  \"active\": {},\n", outcome.active.len()));
    out.push_str(&format!(
        "  \"allowlisted\": {},\n",
        outcome.allowlisted.len()
    ));

    out.push_str("  \"rules\": {");
    let mut first_rule = true;
    for (rule, crates) in &rules {
        if !first_rule {
            out.push(',');
        }
        first_rule = false;
        out.push_str(&format!("\n    {}: {{", json_string(rule)));
        let mut first_crate = true;
        for (krate, count) in crates {
            if !first_crate {
                out.push(',');
            }
            first_crate = false;
            out.push_str(&format!("\n      {}: {count}", json_string(krate)));
        }
        out.push_str("\n    }");
    }
    out.push_str(if rules.is_empty() { "},\n" } else { "\n  },\n" });

    out.push_str("  \"allowlisted_by_rule\": {");
    let mut first = true;
    for (rule, count) in &allow_rules {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\n    {}: {count}", json_string(rule)));
    }
    out.push_str(if allow_rules.is_empty() {
        "}\n"
    } else {
        "\n  }\n"
    });
    out.push_str("}\n");
    out
}

/// Minimal JSON string escaping (rule ids / crate names / paths are
/// ASCII, but escape defensively anyway).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::super::source::SourceFile;
    use super::super::Linter;
    use super::*;

    fn outcome_with_finding() -> LintOutcome {
        let src = "pub fn f() { x.unwrap(); }\n";
        let file = SourceFile::parse("crates/x/src/lib.rs", "autolearn-x", src);
        Linter::new().run_files(vec![file])
    }

    #[test]
    fn human_report_groups_by_rule() {
        let text = render_human(&outcome_with_finding());
        assert!(text.contains("no-unwrap-in-lib"));
        assert!(text.contains("crates/x/src/lib.rs:1"));
    }

    #[test]
    fn json_summary_counts_per_rule_per_crate() {
        let json = render_json(&outcome_with_finding());
        assert!(json.contains("\"no-unwrap-in-lib\""));
        assert!(json.contains("\"autolearn-x\": 1"));
        assert!(json.contains("\"files_scanned\": 1"));
    }

    #[test]
    fn clean_outcome_renders_clean() {
        let outcome = Linter::new().run_files(Vec::new());
        assert!(render_human(&outcome).contains("clean"));
        assert!(render_json(&outcome).contains("\"active\": 0"));
    }
}
