//! Built-in lint rules.
//!
//! Every rule implements [`Rule`] and works on the preprocessed
//! [`SourceFile`] views, so none of them can fire inside comments, string
//! literals or `#[cfg(test)]` blocks (unless a rule opts in). A finding
//! can be suppressed inline with a comment containing
//! `analyze::allow(<rule-id>)` on the same line or the line above, or via
//! the checked-in allowlist (`crates/analyze/allow.toml`).

use super::source::SourceFile;

/// One reported defect.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Rule identifier (e.g. `no-unwrap-in-lib`).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub path: String,
    /// Cargo package the file belongs to.
    pub crate_name: String,
    /// 1-based line number.
    pub line: usize,
    /// What is wrong.
    pub message: String,
    /// The offending raw source line, trimmed.
    pub excerpt: String,
}

/// A pluggable lint rule.
pub trait Rule {
    /// Stable identifier used in reports, allowlists and inline
    /// suppressions.
    fn id(&self) -> &'static str;

    /// One-line description for `--list-rules`.
    fn description(&self) -> &'static str;

    /// Whether the rule runs on this file at all (path-based scoping).
    fn applies_to(&self, file: &SourceFile) -> bool {
        let _ = file;
        true
    }

    /// Scan one file and report findings.
    fn check(&self, file: &SourceFile) -> Vec<Finding>;
}

/// The built-in rule set, in reporting order.
pub fn builtin_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(NoUnwrapInLib),
        Box::new(NoExpectInLib),
        Box::new(NoPrintlnInLib),
        Box::new(PanicAudit),
        Box::new(PubItemNeedsDoc),
        Box::new(NoSleepInHotPath),
        Box::new(FloatCastTruncation),
        Box::new(NoUnboundedRetry),
        Box::new(NoWallclockInSim),
        Box::new(NoUnorderedIteration),
        Box::new(NoUnannotatedNarrowing),
        Box::new(NoAllocInKernelLoop),
    ]
}

fn finding(rule: &'static str, file: &SourceFile, line: usize, message: String) -> Finding {
    Finding {
        rule,
        path: file.rel_path.clone(),
        crate_name: file.crate_name.clone(),
        line: line + 1,
        message,
        excerpt: file
            .lines
            .get(line)
            .map(|l| l.trim().to_string())
            .unwrap_or_default(),
    }
}

/// Scan non-test code lines for a needle, with a per-line veto.
fn scan_code<F>(rule: &'static str, file: &SourceFile, needles: &[&str], message: F) -> Vec<Finding>
where
    F: Fn(&str) -> String,
{
    let mut out = Vec::new();
    for (i, code) in file.code.iter().enumerate() {
        if file.in_test[i] {
            continue;
        }
        for needle in needles {
            if code.contains(needle) {
                out.push(finding(rule, file, i, message(needle)));
                break;
            }
        }
    }
    out
}

/// `Result::unwrap()` / `Option::unwrap()` outside tests turns a
/// recoverable condition into a process abort — on the car for library
/// code, mid-experiment for the bench binaries. Both are in scope; only
/// `#[cfg(test)]` code is exempt.
pub struct NoUnwrapInLib;

impl Rule for NoUnwrapInLib {
    fn id(&self) -> &'static str {
        "no-unwrap-in-lib"
    }

    fn description(&self) -> &'static str {
        "non-test code must not call .unwrap(); propagate errors or document the invariant"
    }

    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        scan_code(self.id(), file, &[".unwrap()"], |_| {
            "`.unwrap()` in non-test code; return a Result, handle the None, or use \
             unwrap_or_else with a documented invariant"
                .to_string()
        })
    }
}

/// Like unwrap, but `.expect(...)`: still an abort, just with a message.
pub struct NoExpectInLib;

impl Rule for NoExpectInLib {
    fn id(&self) -> &'static str {
        "no-expect-in-lib"
    }

    fn description(&self) -> &'static str {
        "library code must not call .expect(); propagate errors instead of aborting"
    }

    fn applies_to(&self, file: &SourceFile) -> bool {
        !file.is_bin
    }

    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        let mut out = Vec::new();
        for (i, code) in file.code.iter().enumerate() {
            if file.in_test[i] {
                continue;
            }
            // `.expect(` but not `.expect_err(` and not our own lint-name
            // strings (those live in string literals and are blanked).
            let mut search = code.as_str();
            while let Some(pos) = search.find(".expect") {
                let after = &search[pos + ".expect".len()..];
                if after.starts_with('(') {
                    out.push(finding(
                        self.id(),
                        file,
                        i,
                        "`.expect()` in library code; return a Result instead of aborting"
                            .to_string(),
                    ));
                    break;
                }
                search = after;
            }
        }
        out
    }
}

/// Library code writing straight to stdout/stderr bypasses the telemetry
/// layer: the output is invisible to the trace, the flight recorder and
/// the exporters, and it interleaves nondeterministically with whatever
/// the caller prints. Libraries must route run-time observations through
/// `autolearn-obs` (spans, events, metrics) and leave printing to the
/// binaries. Bins are exempt (stdout is their interface), as are the
/// analyzer's own reporting code and the bench crate's human-readable
/// tables.
pub struct NoPrintlnInLib;

const PRINT_NEEDLES: &[&str] = &["println!(", "eprintln!(", "print!(", "eprint!("];

impl Rule for NoPrintlnInLib {
    fn id(&self) -> &'static str {
        "no-println-in-lib"
    }

    fn description(&self) -> &'static str {
        "library code must not print to stdout/stderr; emit obs events/metrics instead"
    }

    fn applies_to(&self, file: &SourceFile) -> bool {
        !file.is_bin
            && !file.rel_path.starts_with("crates/analyze/")
            && !file.rel_path.starts_with("crates/bench/")
    }

    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        scan_code(self.id(), file, PRINT_NEEDLES, |needle| {
            format!(
                "`{}...)` in library code; record an obs event or metric instead of printing",
                needle.trim_end_matches('(')
            )
        })
    }
}

/// `panic!` / `todo!` / `unimplemented!` must carry an
/// `INVARIANT:` comment explaining why the condition is impossible or the
/// stub acceptable.
pub struct PanicAudit;

impl Rule for PanicAudit {
    fn id(&self) -> &'static str {
        "panic-audit"
    }

    fn description(&self) -> &'static str {
        "panic!/todo!/unimplemented! need an adjacent `INVARIANT:` comment"
    }

    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        let mut out = Vec::new();
        for (i, code) in file.code.iter().enumerate() {
            if file.in_test[i] {
                continue;
            }
            for mac in ["panic!(", "todo!(", "unimplemented!("] {
                if code.contains(mac) && !file.comment_near(i, 2).contains("INVARIANT:") {
                    out.push(finding(
                        self.id(),
                        file,
                        i,
                        format!(
                            "`{}...)` without an `INVARIANT:` comment within 2 lines",
                            mac.trim_end_matches('(')
                        ),
                    ));
                    break;
                }
            }
        }
        out
    }
}

/// Every `pub` item that is part of a crate's API surface needs a doc
/// comment. `pub(crate)` / `pub(super)` items and re-exports are exempt.
pub struct PubItemNeedsDoc;

const PUB_ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "unsafe",
];

impl Rule for PubItemNeedsDoc {
    fn id(&self) -> &'static str {
        "pub-item-needs-doc"
    }

    fn description(&self) -> &'static str {
        "public items (pub fn/struct/enum/trait/type/const/static/mod) need /// docs"
    }

    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        let mut out = Vec::new();
        for (i, code) in file.code.iter().enumerate() {
            if file.in_test[i] {
                continue;
            }
            let trimmed = code.trim_start();
            let Some(rest) = trimmed.strip_prefix("pub ") else {
                continue;
            };
            let keyword = rest.split_whitespace().next().unwrap_or("");
            if !PUB_ITEM_KEYWORDS.contains(&keyword) {
                continue;
            }
            if is_documented(file, i) {
                continue;
            }
            out.push(finding(
                self.id(),
                file,
                i,
                format!("undocumented public item `pub {keyword} ...`"),
            ));
        }
        out
    }
}

/// Walk upward over attribute lines; the item is documented if the first
/// non-attribute line above carries a `///` or `//!` comment.
fn is_documented(file: &SourceFile, item_line: usize) -> bool {
    let mut i = item_line;
    while i > 0 {
        i -= 1;
        let code = file.code[i].trim();
        let comment = file.comments[i].trim();
        if code.starts_with("#[") || code.ends_with(']') && code.starts_with('#') {
            continue; // attribute
        }
        if code == ")]" || code == "]" {
            // Closer of a multi-line attribute (e.g. a rustfmt-split
            // `#[derive(...)]`): skip up to its opening line.
            while i > 0 && !file.code[i].trim().starts_with("#[") {
                i -= 1;
            }
            continue;
        }
        if code.is_empty() && comment.is_empty() {
            return false; // blank line: doc block (if any) is detached
        }
        if code.is_empty() {
            return comment.starts_with("///") || comment.starts_with("//!");
        }
        return false; // previous line is other code
    }
    false
}

/// `thread::sleep` inside the kernels that run per-frame on the car
/// (nn / sim / tub) stalls the control loop.
pub struct NoSleepInHotPath;

impl Rule for NoSleepInHotPath {
    fn id(&self) -> &'static str {
        "no-sleep-in-hot-path"
    }

    fn description(&self) -> &'static str {
        "no thread::sleep in nn/sim/tub kernels (per-frame control path)"
    }

    fn applies_to(&self, file: &SourceFile) -> bool {
        ["crates/nn/src/", "crates/sim/src/", "crates/tub/src/"]
            .iter()
            .any(|p| file.rel_path.starts_with(p))
    }

    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        scan_code(self.id(), file, &["thread::sleep"], |_| {
            "thread::sleep in a hot-path crate; drive timing from the simulation clock".to_string()
        })
    }
}

/// Narrowing `as` casts in the nn kernels silently truncate; each one
/// must carry a `cast:` comment stating why the value fits.
pub struct FloatCastTruncation;

impl Rule for FloatCastTruncation {
    fn id(&self) -> &'static str {
        "float-cast-truncation"
    }

    fn description(&self) -> &'static str {
        "`as usize` / `as f32` in crates/nn kernels need a `cast:` comment"
    }

    fn applies_to(&self, file: &SourceFile) -> bool {
        file.rel_path.starts_with("crates/nn/src/")
    }

    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        let mut out = Vec::new();
        for (i, code) in file.code.iter().enumerate() {
            if file.in_test[i] {
                continue;
            }
            let has_cast = [" as usize", " as f32"]
                .iter()
                .any(|n| contains_token_cast(code, n));
            if has_cast && !file.comment_near(i, 1).contains("cast:") {
                out.push(finding(
                    self.id(),
                    file,
                    i,
                    "narrowing `as` cast without a `cast:` comment on this or the previous line"
                        .to_string(),
                ));
            }
        }
        out
    }
}

/// A bare `loop` that drives retries or backoff must be bounded: its body
/// has to consult an attempt cap or a deadline, or the retry storm never
/// ends when the fault never clears.
pub struct NoUnboundedRetry;

const RETRY_TOKENS: &[&str] = &["retry", "backoff"];
const CAP_TOKENS: &[&str] = &["max_attempts", "deadline", ".allows("];

impl Rule for NoUnboundedRetry {
    fn id(&self) -> &'static str {
        "no-unbounded-retry"
    }

    fn description(&self) -> &'static str {
        "`loop` bodies doing retry/backoff must check an attempt cap or deadline"
    }

    fn applies_to(&self, file: &SourceFile) -> bool {
        !file.is_bin
    }

    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        let mut out = Vec::new();
        for (i, code) in file.code.iter().enumerate() {
            if file.in_test[i] || !contains_keyword(code, "loop") {
                continue;
            }
            let Some(end) = block_end(file, i) else {
                continue;
            };
            let body = file.code[i..=end].join("\n").to_lowercase();
            let retries = RETRY_TOKENS.iter().any(|t| body.contains(t));
            let bounded = CAP_TOKENS.iter().any(|t| body.contains(t));
            if retries && !bounded {
                out.push(finding(
                    self.id(),
                    file,
                    i,
                    "retry/backoff inside a `loop` with no attempt cap or deadline check"
                        .to_string(),
                ));
            }
        }
        out
    }
}

/// Reading the host's wall clock inside simulated code breaks replay: two
/// runs of the same seed would observe different times. Simulated
/// components must derive every timestamp from `SimClock` / `SimTime`.
/// Only `crates/bench` (which measures real host performance) may touch
/// the wall clock.
pub struct NoWallclockInSim;

impl Rule for NoWallclockInSim {
    fn id(&self) -> &'static str {
        "no-wallclock-in-sim"
    }

    fn description(&self) -> &'static str {
        "no SystemTime::now/Instant::now outside crates/bench; use the simulation clock"
    }

    fn applies_to(&self, file: &SourceFile) -> bool {
        !file.rel_path.starts_with("crates/bench/")
    }

    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        scan_code(
            self.id(),
            file,
            &["SystemTime::now", "Instant::now"],
            |needle| {
                format!(
                    "`{needle}` in simulated code; wall-clock reads break seeded replay — \
                     derive time from SimClock/SimTime"
                )
            },
        )
    }
}

/// Iterating a `HashMap`/`HashSet` in a block that feeds a report, log,
/// or RNG makes the output depend on hasher state, which varies across
/// runs and platforms. Such iterations must be sorted first or use a
/// BTree container.
pub struct NoUnorderedIteration;

/// Iteration forms that surface a hash container's arbitrary order.
const HASH_ITER_HINTS: &[&str] = &[
    ".iter()",
    ".keys()",
    ".values()",
    ".into_iter()",
    ".drain()",
];
/// Order-sensitive destinations: anything a human or a seeded RNG reads.
const ORDER_SINKS: &[&str] = &[
    "println!", "writeln!", "write!", "format!", "push_str", "report", "log", "seed", "rng",
];
/// Order restorers / order-insensitive folds that make the iteration safe.
const ORDER_VETOES: &[&str] = &[
    "sort",
    "BTreeMap",
    "BTreeSet",
    ".sum(",
    ".count(",
    ".len(",
    ".min(",
    ".max(",
    ".all(",
    ".any(",
    ".product(",
];

impl Rule for NoUnorderedIteration {
    fn id(&self) -> &'static str {
        "no-unordered-iteration"
    }

    fn description(&self) -> &'static str {
        "HashMap/HashSet iteration feeding reports/logs/RNG must be sorted or use BTree"
    }

    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        let vars = hash_container_vars(file);
        if vars.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (i, code) in file.code.iter().enumerate() {
            if file.in_test[i] {
                continue;
            }
            let iterates = vars.iter().any(|v| {
                HASH_ITER_HINTS
                    .iter()
                    .any(|h| code.contains(&format!("{v}{h}")))
                    || code.contains(&format!("in &{v}"))
                    || code.contains(&format!("in {v} "))
            });
            if !iterates {
                continue;
            }
            // The span the iteration flows through: the brace block it
            // opens, or the statement it belongs to.
            let end = if code.contains('{') {
                block_end(file, i).unwrap_or(i)
            } else {
                statement_end(file, i)
            };
            let span = file.code[i..=end].join("\n");
            let sinks = ORDER_SINKS.iter().any(|s| span.contains(s));
            let ordered = ORDER_VETOES.iter().any(|v| span.contains(v));
            if sinks && !ordered {
                out.push(finding(
                    self.id(),
                    file,
                    i,
                    "hash-container iteration feeds an order-sensitive sink; sort the keys \
                     or use a BTree container"
                        .to_string(),
                ));
            }
        }
        out
    }
}

/// Names of local bindings declared as `HashMap` / `HashSet` in this file
/// (a cheap, type-free approximation: `let [mut] name ... Hash{Map,Set}`
/// declarations and `name: Hash{Map,Set}<...>` fields).
fn hash_container_vars(file: &SourceFile) -> Vec<String> {
    let mut vars = Vec::new();
    for code in &file.code {
        if !code.contains("HashMap") && !code.contains("HashSet") {
            continue;
        }
        let name = if let Some(rest) = code.trim_start().strip_prefix("let ") {
            let rest = rest.trim_start().trim_start_matches("mut ");
            rest.split(|c: char| !c.is_alphanumeric() && c != '_')
                .next()
                .map(str::to_string)
        } else {
            // `name: HashMap<..>` field or param declarations.
            code.split_once(": Hash").and_then(|(before, _)| {
                before
                    .rsplit(|c: char| !c.is_alphanumeric() && c != '_')
                    .next()
                    .map(str::to_string)
            })
        };
        if let Some(n) = name {
            if !n.is_empty() && !vars.contains(&n) {
                vars.push(n);
            }
        }
    }
    vars
}

/// Last line of the statement starting at `start`: scan until a line ends
/// with `;` (or the file runs out).
fn statement_end(file: &SourceFile, start: usize) -> usize {
    for (i, code) in file.code.iter().enumerate().skip(start) {
        if code.trim_end().ends_with(';') {
            return i;
        }
    }
    file.code.len() - 1
}

/// Bare narrowing `as` casts (`as u8/u16/u32/i8/i16/i32`) on the nn hot
/// paths silently wrap or truncate out-of-range values. Each one needs an
/// inline `analyze::allow(no-unannotated-narrowing)` comment justifying
/// why the value fits. Widening casts (`as u64`) and the float/index
/// casts owned by `float-cast-truncation` are out of scope.
pub struct NoUnannotatedNarrowing;

const NARROWING_CASTS: &[&str] = &[
    " as u8", " as u16", " as u32", " as i8", " as i16", " as i32",
];

impl Rule for NoUnannotatedNarrowing {
    fn id(&self) -> &'static str {
        "no-unannotated-narrowing"
    }

    fn description(&self) -> &'static str {
        "bare narrowing `as` casts in crates/nn need an inline analyze::allow justification"
    }

    fn applies_to(&self, file: &SourceFile) -> bool {
        file.rel_path.starts_with("crates/nn/src/")
    }

    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        let mut out = Vec::new();
        for (i, code) in file.code.iter().enumerate() {
            if file.in_test[i] {
                continue;
            }
            if let Some(needle) = NARROWING_CASTS
                .iter()
                .find(|n| contains_token_cast(code, n))
            {
                out.push(finding(
                    self.id(),
                    file,
                    i,
                    format!(
                        "bare `{}` narrowing cast; justify with an inline \
                         analyze::allow(no-unannotated-narrowing) comment",
                        needle.trim_start()
                    ),
                ));
            }
        }
        out
    }
}

/// The numeric kernels in `crates/nn` mark their steady-state inner loops
/// with `// hot-kernel: begin` / `// hot-kernel: end` comment fences. The
/// zero-realloc contract says everything inside those fences runs against
/// pre-sized `Scratch`/pack buffers — any allocating call there
/// (`Vec::new`, `vec![]`, `to_vec`, `with_capacity`, `Tensor::zeros`,
/// `.clone()`) re-introduces per-step heap traffic the GEMM rewrite
/// removed, and it usually happens silently during a refactor. This rule
/// turns the contract into a ratcheted gate.
pub struct NoAllocInKernelLoop;

const KERNEL_ALLOC_NEEDLES: &[&str] = &[
    "Vec::new(",
    "vec![",
    ".to_vec()",
    "Vec::with_capacity(",
    "Tensor::zeros(",
    "Tensor::from_vec(",
    "Box::new(",
    ".clone()",
];

impl Rule for NoAllocInKernelLoop {
    fn id(&self) -> &'static str {
        "no-alloc-in-kernel-loop"
    }

    fn description(&self) -> &'static str {
        "hot-kernel regions (between `hot-kernel: begin/end` comments) in crates/nn must not allocate"
    }

    fn applies_to(&self, file: &SourceFile) -> bool {
        file.rel_path.starts_with("crates/nn/src/")
    }

    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        let mut out = Vec::new();
        let mut in_kernel = false;
        for (i, code) in file.code.iter().enumerate() {
            let comment = &file.comments[i];
            if comment.contains("hot-kernel: begin") {
                in_kernel = true;
                continue;
            }
            if comment.contains("hot-kernel: end") {
                in_kernel = false;
                continue;
            }
            if !in_kernel || file.in_test[i] {
                continue;
            }
            if let Some(needle) = KERNEL_ALLOC_NEEDLES.iter().find(|n| code.contains(**n)) {
                out.push(finding(
                    self.id(),
                    file,
                    i,
                    format!(
                        "`{}` allocates inside a hot-kernel region; stage the buffer in the \
                         layer's Scratch arena (or move it above the `hot-kernel: begin` fence)",
                        needle.trim_end_matches('(')
                    ),
                ));
            }
        }
        out
    }
}

/// Whether `code` contains `keyword` as a standalone word (not part of an
/// identifier like `driveloop` or `loop_count`).
fn contains_keyword(code: &str, keyword: &str) -> bool {
    let mut search = code;
    let mut consumed = 0usize;
    while let Some(pos) = search.find(keyword) {
        let before_ok = code[..consumed + pos]
            .chars()
            .next_back()
            .map(|c| !c.is_alphanumeric() && c != '_')
            .unwrap_or(true);
        let after = &search[pos + keyword.len()..];
        let after_ok = after
            .chars()
            .next()
            .map(|c| !c.is_alphanumeric() && c != '_')
            .unwrap_or(true);
        if before_ok && after_ok {
            return true;
        }
        consumed += pos + keyword.len();
        search = after;
    }
    false
}

/// Line index where the brace block opened on `start` closes, by brace
/// counting over the comment-stripped code view. `None` for an unclosed
/// block (malformed source).
fn block_end(file: &SourceFile, start: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut opened = false;
    for (i, code) in file.code.iter().enumerate().skip(start) {
        for c in code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        if opened && depth <= 0 {
            return Some(i);
        }
    }
    None
}

/// Match ` as usize` / ` as f32` as a cast, not as part of an identifier
/// (the needle's leading space plus a following non-ident char).
fn contains_token_cast(code: &str, needle: &str) -> bool {
    let mut search = code;
    while let Some(pos) = search.find(needle) {
        let after = &search[pos + needle.len()..];
        let boundary = after
            .chars()
            .next()
            .map(|c| !c.is_alphanumeric() && c != '_')
            .unwrap_or(true);
        if boundary {
            return true;
        }
        search = after;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, src: &str) -> SourceFile {
        SourceFile::parse(path, "test-crate", src)
    }

    #[test]
    fn unwrap_fires_in_lib_and_bins_not_in_tests() {
        let src = "pub fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn g() { y.unwrap(); }\n}\n";
        let lib = file("crates/x/src/lib.rs", src);
        let found = NoUnwrapInLib.check(&lib);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 1);
        // Bins abort mid-experiment just as badly: in scope since PR 3.
        let bin = file("crates/x/src/bin/tool.rs", src);
        assert!(NoUnwrapInLib.applies_to(&bin));
        assert_eq!(NoUnwrapInLib.check(&bin).len(), 1);
    }

    #[test]
    fn expect_fires_but_expect_err_does_not() {
        let src = "fn f() { a.expect(\"boom\"); b.expect_err(\"fine\"); }\n";
        let found = NoExpectInLib.check(&file("crates/x/src/lib.rs", src));
        assert_eq!(found.len(), 1, "{found:?}");
    }

    #[test]
    fn println_fires_in_lib_but_not_bins_tests_or_reporters() {
        let src = "fn f() { println!(\"x\"); }\n#[cfg(test)]\nmod tests {\n    fn g() { println!(\"y\"); }\n}\n";
        let lib = file("crates/x/src/lib.rs", src);
        assert!(NoPrintlnInLib.applies_to(&lib));
        let found = NoPrintlnInLib.check(&lib);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 1);
        // All four print macros are covered.
        for mac in ["eprintln!(\"x\")", "print!(\"x\")", "eprint!(\"x\")"] {
            let src = format!("fn f() {{ {mac}; }}\n");
            assert_eq!(
                NoPrintlnInLib
                    .check(&file("crates/x/src/lib.rs", &src))
                    .len(),
                1,
                "{mac} should fire"
            );
        }
        // Bins print by design; the analyzer and bench report to humans.
        assert!(!NoPrintlnInLib.applies_to(&file("crates/x/src/bin/tool.rs", src)));
        assert!(!NoPrintlnInLib.applies_to(&file("crates/analyze/src/lint/mod.rs", src)));
        assert!(!NoPrintlnInLib.applies_to(&file("crates/bench/src/report.rs", src)));
        // Mentions inside string literals are blanked out of the code view.
        let in_str = "fn f() { let s = \"println!(oops)\"; }\n";
        assert!(NoPrintlnInLib
            .check(&file("crates/x/src/lib.rs", in_str))
            .is_empty());
    }

    #[test]
    fn panic_audit_accepts_invariant_comment() {
        let bad = "fn f() { panic!(\"no\"); }\n";
        assert_eq!(PanicAudit.check(&file("crates/x/src/a.rs", bad)).len(), 1);
        let good = "// INVARIANT: checked by caller\nfn f() { panic!(\"no\"); }\n";
        assert!(PanicAudit
            .check(&file("crates/x/src/a.rs", good))
            .is_empty());
    }

    #[test]
    fn pub_doc_rule_sees_docs_through_attributes() {
        let good = "/// Documented.\n#[derive(Debug)]\npub struct A;\n";
        assert!(PubItemNeedsDoc
            .check(&file("crates/x/src/a.rs", good))
            .is_empty());
        // rustfmt-split multi-line derive between the doc and the item.
        let split = "/// Documented.\n#[derive(\n    Debug, Clone,\n)]\npub struct B;\n";
        assert!(PubItemNeedsDoc
            .check(&file("crates/x/src/a.rs", split))
            .is_empty());
        let split_undoc = "#[derive(\n    Debug, Clone,\n)]\npub struct C;\n";
        assert_eq!(
            PubItemNeedsDoc
                .check(&file("crates/x/src/a.rs", split_undoc))
                .len(),
            1
        );
        let bad = "pub fn undocd() {}\n";
        assert_eq!(
            PubItemNeedsDoc.check(&file("crates/x/src/a.rs", bad)).len(),
            1
        );
        let scoped = "pub(crate) fn internal() {}\n";
        assert!(PubItemNeedsDoc
            .check(&file("crates/x/src/a.rs", scoped))
            .is_empty());
    }

    #[test]
    fn sleep_rule_is_path_scoped() {
        let src = "fn f() { std::thread::sleep(d); }\n";
        let hot = file("crates/nn/src/tensor.rs", src);
        assert!(NoSleepInHotPath.applies_to(&hot));
        assert_eq!(NoSleepInHotPath.check(&hot).len(), 1);
        let cold = file("crates/cloud/src/lib.rs", src);
        assert!(!NoSleepInHotPath.applies_to(&cold));
    }

    #[test]
    fn unbounded_retry_loop_fires() {
        let bad = "fn f() {\n    loop {\n        if try_once().is_ok() { break; }\n        charge(policy.backoff(n, seed));\n    }\n}\n";
        let found = NoUnboundedRetry.check(&file("crates/x/src/a.rs", bad));
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 2);
    }

    #[test]
    fn capped_retry_loop_passes() {
        for cap in [
            "if !policy.allows(n, elapsed) { return Err(e); }",
            "if n > max_attempts { break; }",
            "if elapsed > deadline { break; }",
        ] {
            let src = format!(
                "fn f() {{\n    loop {{\n        {cap}\n        charge(policy.backoff(n, seed));\n    }}\n}}\n"
            );
            let found = NoUnboundedRetry.check(&file("crates/x/src/a.rs", &src));
            assert!(found.is_empty(), "cap `{cap}` still fired: {found:?}");
        }
    }

    #[test]
    fn retry_rule_ignores_identifiers_and_nonretry_loops() {
        // `driveloop` is an identifier, not the keyword.
        let ident = "fn f() { let driveloop = retry_count; }\n";
        assert!(NoUnboundedRetry
            .check(&file("crates/x/src/a.rs", ident))
            .is_empty());
        // A loop with no retry semantics is out of scope.
        let plain = "fn f() {\n    loop {\n        if done() { break; }\n    }\n}\n";
        assert!(NoUnboundedRetry
            .check(&file("crates/x/src/a.rs", plain))
            .is_empty());
        // Bins are exempt, like the other abort-class rules.
        let bin = file("crates/x/src/bin/tool.rs", "fn main() {}");
        assert!(!NoUnboundedRetry.applies_to(&bin));
    }

    #[test]
    fn wallclock_fires_outside_bench_only() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        let sim = file("crates/core/src/pipeline.rs", src);
        assert!(NoWallclockInSim.applies_to(&sim));
        let found = NoWallclockInSim.check(&sim);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("Instant::now"));
        let bench = file("crates/bench/src/bin/exp.rs", src);
        assert!(!NoWallclockInSim.applies_to(&bench));
        let sys = "fn f() { let t = SystemTime::now(); }\n";
        assert_eq!(
            NoWallclockInSim
                .check(&file("crates/x/src/a.rs", sys))
                .len(),
            1
        );
    }

    #[test]
    fn unordered_iteration_into_report_fires() {
        let bad = "use std::collections::HashMap;\nfn f(m: HashMap<String, u32>) {\n    for k in m.keys() {\n        report.push_str(k);\n    }\n}\n";
        let found = NoUnorderedIteration.check(&file("crates/x/src/a.rs", bad));
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 3);
    }

    #[test]
    fn sorted_or_aggregated_iteration_passes() {
        // Sorting before the sink restores determinism.
        let sorted = "fn f(m: HashMap<String, u32>) {\n    let mut ks: Vec<_> = m.keys().collect();\n    ks.sort();\n}\n";
        assert!(NoUnorderedIteration
            .check(&file("crates/x/src/a.rs", sorted))
            .is_empty());
        // Order-insensitive folds are safe even unsorted.
        let sum = "fn f(m: HashMap<String, u32>) {\n    let total: u32 = m.values().sum();\n    log(total);\n}\n";
        assert!(NoUnorderedIteration
            .check(&file("crates/x/src/a.rs", sum))
            .is_empty());
        // Iteration with no order-sensitive sink is out of scope.
        let plain =
            "fn f(s: HashSet<u32>) {\n    for v in s.iter() {\n        touch(v);\n    }\n}\n";
        assert!(NoUnorderedIteration
            .check(&file("crates/x/src/a.rs", plain))
            .is_empty());
    }

    #[test]
    fn unordered_iteration_into_rng_seed_fires() {
        let bad =
            "fn f(s: HashSet<u64>) {\n    for v in s.iter() {\n        seed ^= v;\n    }\n}\n";
        let found = NoUnorderedIteration.check(&file("crates/x/src/a.rs", bad));
        assert_eq!(found.len(), 1, "{found:?}");
    }

    #[test]
    fn narrowing_cast_in_nn_requires_justification() {
        let bad = "fn f(t: u64) -> i32 { t as i32 }\n";
        let hot = file("crates/nn/src/optim.rs", bad);
        assert!(NoUnannotatedNarrowing.applies_to(&hot));
        let found = NoUnannotatedNarrowing.check(&hot);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("as i32"));
        // Widening and float/index casts belong to other rules.
        let wide = "fn f(t: usize) -> u64 { t as u64 }\nfn g(x: f64) -> f32 { x as f32 }\n";
        assert!(NoUnannotatedNarrowing
            .check(&file("crates/nn/src/a.rs", wide))
            .is_empty());
        // Out of crates/nn the rule does not apply.
        assert!(!NoUnannotatedNarrowing.applies_to(&file("crates/cloud/src/perf.rs", bad)));
    }

    #[test]
    fn alloc_in_kernel_region_fires() {
        let bad = "fn f() {\n    // hot-kernel: begin\n    let v = vec![0.0; n];\n    // hot-kernel: end\n}\n";
        let f = file("crates/nn/src/layers/conv2d.rs", bad);
        assert!(NoAllocInKernelLoop.applies_to(&f));
        let found = NoAllocInKernelLoop.check(&f);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 3);
        assert!(found[0].message.contains("Scratch"));
    }

    #[test]
    fn alloc_outside_kernel_region_is_fine() {
        // Output-tensor allocation before the fence is the sanctioned
        // pattern; allocations after `end` are also out of scope.
        let good = "fn f() {\n    let out = Tensor::zeros(&s);\n    // hot-kernel: begin\n    gemm(o, a, b);\n    // hot-kernel: end\n    let c = x.clone();\n}\n";
        assert!(NoAllocInKernelLoop
            .check(&file("crates/nn/src/layers/conv2d.rs", good))
            .is_empty());
        // Rule is scoped to crates/nn.
        let bad = "fn f() {\n    // hot-kernel: begin\n    let v = Vec::new();\n    // hot-kernel: end\n}\n";
        assert!(!NoAllocInKernelLoop.applies_to(&file("crates/cloud/src/perf.rs", bad)));
    }

    #[test]
    fn kernel_alloc_needles_cover_the_common_apis() {
        for needle in [
            "let a = Vec::new();",
            "let b = x.to_vec();",
            "let c = Vec::with_capacity(9);",
            "let d = Tensor::from_vec(&s, v);",
            "let e = t.clone();",
        ] {
            let src = format!(
                "fn f() {{\n    // hot-kernel: begin\n    {needle}\n    // hot-kernel: end\n}}\n"
            );
            let found = NoAllocInKernelLoop.check(&file("crates/nn/src/tensor.rs", &src));
            assert_eq!(found.len(), 1, "needle {needle:?} should fire: {found:?}");
        }
    }

    #[test]
    fn cast_rule_requires_annotation() {
        let bad = "fn f(x: f64) -> usize { x as usize }\n";
        let f = file("crates/nn/src/tensor.rs", bad);
        assert_eq!(FloatCastTruncation.check(&f).len(), 1);
        let good = "// cast: index already bounds-checked\nfn f(x: f64) -> usize { x as usize }\n";
        assert!(FloatCastTruncation
            .check(&file("crates/nn/src/tensor.rs", good))
            .is_empty());
        let ident = "fn f() { let y_as_f32_ish = 1; }\n";
        assert!(FloatCastTruncation
            .check(&file("crates/nn/src/tensor.rs", ident))
            .is_empty());
    }
}
