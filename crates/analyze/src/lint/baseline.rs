//! Baseline ratchet: compare a lint run against a committed snapshot.
//!
//! CI commits the analyzer's `--json` output as `analyze-baseline.json`.
//! A later run *regresses* when any `(rule, crate)` active-finding count —
//! or any per-rule allowlisted count — exceeds the snapshot: new debt is
//! rejected even while old, allowlisted debt is tolerated. When counts
//! shrink the caller rewrites the snapshot, so the baseline only ever
//! ratchets downward.
//!
//! The JSON parser here is hand-rolled: this crate sits at the bottom of
//! the dependency graph and deliberately uses no serde (see crate docs).

use std::collections::BTreeMap;

use super::LintOutcome;

/// Counts extracted from one lint run or one committed snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Baseline {
    /// Active findings: rule id → crate name → count.
    pub rules: BTreeMap<String, BTreeMap<String, usize>>,
    /// Allowlisted findings: rule id → count.
    pub allowlisted_by_rule: BTreeMap<String, usize>,
}

impl Baseline {
    /// Snapshot the counts of a finished lint run.
    pub fn from_outcome(outcome: &LintOutcome) -> Baseline {
        let mut rules: BTreeMap<String, BTreeMap<String, usize>> = BTreeMap::new();
        for f in &outcome.active {
            *rules
                .entry(f.rule.to_string())
                .or_default()
                .entry(f.crate_name.clone())
                .or_default() += 1;
        }
        let mut allowlisted_by_rule: BTreeMap<String, usize> = BTreeMap::new();
        for f in &outcome.allowlisted {
            *allowlisted_by_rule.entry(f.rule.to_string()).or_default() += 1;
        }
        Baseline {
            rules,
            allowlisted_by_rule,
        }
    }

    /// Parse a committed snapshot (the analyzer's own `--json` output).
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let value = Json::parse(text)?;
        let Json::Object(top) = value else {
            return Err("baseline: top-level value must be an object".to_string());
        };

        let mut baseline = Baseline::default();
        if let Some(Json::Object(rules)) = top.get("rules") {
            for (rule, crates) in rules {
                let Json::Object(crates) = crates else {
                    return Err(format!("baseline: rules.{rule} must be an object"));
                };
                let entry = baseline.rules.entry(rule.clone()).or_default();
                for (krate, count) in crates {
                    entry.insert(krate.clone(), count.as_count(rule)?);
                }
            }
        }
        if let Some(Json::Object(allow)) = top.get("allowlisted_by_rule") {
            for (rule, count) in allow {
                baseline
                    .allowlisted_by_rule
                    .insert(rule.clone(), count.as_count(rule)?);
            }
        }
        Ok(baseline)
    }
}

/// Outcome of a current-vs-baseline comparison.
#[derive(Debug, Default)]
pub struct Comparison {
    /// Human-readable descriptions of every count that grew. Empty means
    /// the run is no worse than the snapshot.
    pub regressions: Vec<String>,
    /// True when at least one count shrank (or a key vanished) — the
    /// caller should rewrite the snapshot to lock in the improvement.
    pub improved: bool,
}

/// Compare a fresh run against the committed snapshot.
pub fn compare(current: &Baseline, baseline: &Baseline) -> Comparison {
    let mut cmp = Comparison::default();

    for (rule, crates) in &current.rules {
        for (krate, &count) in crates {
            let base = baseline
                .rules
                .get(rule)
                .and_then(|c| c.get(krate))
                .copied()
                .unwrap_or(0);
            if count > base {
                cmp.regressions.push(format!(
                    "rule `{rule}` in crate `{krate}`: {count} active findings (baseline {base})"
                ));
            }
        }
    }
    for (rule, &count) in &current.allowlisted_by_rule {
        let base = baseline.allowlisted_by_rule.get(rule).copied().unwrap_or(0);
        if count > base {
            cmp.regressions.push(format!(
                "rule `{rule}`: {count} allowlisted findings (baseline {base}) — \
                 fix the code instead of growing the allowlist"
            ));
        }
    }

    let current_count = |rule: &str, krate: &str| {
        current
            .rules
            .get(rule)
            .and_then(|c| c.get(krate))
            .copied()
            .unwrap_or(0)
    };
    cmp.improved = baseline.rules.iter().any(|(rule, crates)| {
        crates
            .iter()
            .any(|(krate, &base)| current_count(rule, krate) < base)
    }) || baseline
        .allowlisted_by_rule
        .iter()
        .any(|(rule, &base)| current.allowlisted_by_rule.get(rule).copied().unwrap_or(0) < base);
    cmp
}

/// Minimal JSON value — just enough to read the analyzer's own output.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Object(BTreeMap<String, Json>),
    Array(Vec<Json>),
    String(String),
    Number(f64),
    Bool(bool),
    Null,
}

impl Json {
    fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("baseline: trailing data at byte {pos}"));
        }
        Ok(value)
    }

    /// This value as a non-negative finding count.
    fn as_count(&self, key: &str) -> Result<usize, String> {
        match self {
            Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as usize),
            other => Err(format!(
                "baseline: count for `{key}` must be a non-negative integer, got {other:?}"
            )),
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(format!(
            "baseline: unexpected byte {:?} at {}",
            *c as char, *pos
        )),
        None => Err("baseline: unexpected end of input".to_string()),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("baseline: invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while let Some(c) = bytes.get(*pos) {
        if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
            *pos += 1;
        } else {
            break;
        }
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Number)
        .ok_or_else(|| format!("baseline: invalid number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    *pos += 1; // opening quote
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("baseline: unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| "baseline: invalid \\u escape".to_string())?;
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err("baseline: invalid escape".to_string()),
                }
                *pos += 1;
            }
            Some(&c) => {
                // The analyzer only emits ASCII, but read UTF-8 correctly
                // anyway: collect the full multi-byte sequence.
                let len = match c {
                    c if c < 0x80 => 1,
                    c if c >= 0xF0 => 4,
                    c if c >= 0xE0 => 3,
                    _ => 2,
                };
                let chunk = bytes
                    .get(*pos..*pos + len)
                    .and_then(|b| std::str::from_utf8(b).ok())
                    .ok_or_else(|| "baseline: invalid UTF-8 in string".to_string())?;
                out.push_str(chunk);
                *pos += len;
            }
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(map));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("baseline: expected object key at byte {}", *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("baseline: expected `:` at byte {}", *pos));
        }
        *pos += 1;
        map.insert(key, parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(map));
            }
            _ => return Err(format!("baseline: expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(format!("baseline: expected `,` or `]` at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::report::render_json;
    use super::super::source::SourceFile;
    use super::super::Linter;
    use super::*;

    fn outcome_with_finding() -> LintOutcome {
        let src = "pub fn f() { x.unwrap(); }\n";
        let file = SourceFile::parse("crates/x/src/lib.rs", "autolearn-x", src);
        Linter::new().run_files(vec![file])
    }

    #[test]
    fn round_trips_through_render_json() {
        let outcome = outcome_with_finding();
        let parsed = Baseline::parse(&render_json(&outcome)).expect("own JSON parses");
        assert_eq!(parsed, Baseline::from_outcome(&outcome));
        assert!(parsed.rules.contains_key("no-unwrap-in-lib"));
    }

    #[test]
    fn equal_counts_are_neither_regression_nor_improvement() {
        let snapshot = Baseline::from_outcome(&outcome_with_finding());
        let cmp = compare(&snapshot, &snapshot);
        assert!(cmp.regressions.is_empty(), "{:?}", cmp.regressions);
        assert!(!cmp.improved);
    }

    #[test]
    fn count_above_baseline_is_a_regression() {
        let current = Baseline::from_outcome(&outcome_with_finding());
        let cmp = compare(&current, &Baseline::default());
        assert!(
            cmp.regressions
                .iter()
                .any(|r| r.contains("no-unwrap-in-lib")),
            "{:?}",
            cmp.regressions
        );
        assert!(!cmp.improved);
    }

    #[test]
    fn count_below_baseline_shrinks_the_snapshot() {
        let snapshot = Baseline::from_outcome(&outcome_with_finding());
        let cmp = compare(&Baseline::default(), &snapshot);
        assert!(cmp.regressions.is_empty(), "{:?}", cmp.regressions);
        assert!(cmp.improved);
    }

    #[test]
    fn allowlist_growth_is_a_regression() {
        let mut current = Baseline::default();
        current
            .allowlisted_by_rule
            .insert("no-unwrap-in-lib".to_string(), 3);
        let mut snapshot = Baseline::default();
        snapshot
            .allowlisted_by_rule
            .insert("no-unwrap-in-lib".to_string(), 2);
        let cmp = compare(&current, &snapshot);
        assert_eq!(cmp.regressions.len(), 1);
        assert!(cmp.regressions[0].contains("allowlist"));
    }

    #[test]
    fn malformed_snapshots_are_rejected() {
        assert!(Baseline::parse("not json").is_err());
        assert!(Baseline::parse("{\"rules\": {\"r\": {\"c\": -1}}}").is_err());
        assert!(Baseline::parse("{\"rules\": 7}").is_ok_and(|b| b.rules.is_empty()));
        assert!(Baseline::parse("{} trailing").is_err());
    }

    #[test]
    fn parser_handles_escapes_arrays_and_literals() {
        let v = Json::parse(r#"{"a\n\"b": [1, true, null, "x"], "n": -2.5e1}"#).unwrap();
        let Json::Object(map) = v else {
            panic!("object")
        };
        assert!(map.contains_key("a\n\"b"));
        assert_eq!(map.get("n"), Some(&Json::Number(-25.0)));
    }
}
