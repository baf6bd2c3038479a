//! mc-analyze: the workspace checker.
//!
//! Lexes every source file, parses the token stream into a nested item
//! tree ([`tree`]) plus a workspace symbol index ([`index`]), and runs
//! these passes:
//!
//! - **[`rules`]** — the six per-token bans (`no-unwrap`, `no-println`,
//!   `no-wallclock`, `no-direct-sync`, `no-unbounded-queue`,
//!   `no-adhoc-bench`) over non-test tokens, plus the two
//!   scope-sensitive rules that need the tree: `no-direct-fit` (the
//!   `fit_context` fn body is the one recognized seam) and
//!   `single-construction`.
//! - **[`locks`]** — extracts every `mc-sync` lock acquisition site,
//!   approximates held-while-acquiring pairs from guard scopes, builds
//!   the acquisition graph and fails on cycles, same-lock reacquisition,
//!   unresolvable receivers, and locks acquired outside the shim seam.
//! - **[`drift`]** — cross-file exhaustiveness contracts: every
//!   `DefectClass` variant mirrored into the mc-obs defect counters,
//!   every `EventKind` variant handled by canonical export and metrics
//!   recording, every `.spec` grammar key consumed by the builder, every
//!   `ScenarioKind` backed by a committed golden spec (and a BENCH
//!   baseline when its runner emits one).
//! - **[`stale`]** — cross-references `mc-lint.allow` entries against
//!   the symbol index so entries naming moved or renamed paths/symbols
//!   fail loudly at their allowlist line.
//!
//! Deny-by-default: a finding fails the run unless a justified entry in
//! the allowlist ([`crate::allow`]) covers it. `cargo xtask analyze`
//! drives it; DESIGN.md §13 describes the architecture and the
//! analyze/clippy/loom division of labor.

pub mod drift;
pub mod index;
pub mod locks;
pub mod rules;
pub mod stale;
pub mod tree;

use std::fmt;
use std::fs;
use std::path::Path;

use crate::allow::Allowlist;
use crate::lexer::{lex, Token};

/// Every rule name a finding can carry; allowlist entries must name one.
pub const RULE_NAMES: [&str; 16] = [
    "lock-order",
    "lock-seam",
    "counter-drift",
    "event-drift",
    "span-drift",
    "spec-drift",
    "scenario-drift",
    "stale-allow",
    "no-direct-fit",
    "single-construction",
    "no-unwrap",
    "no-println",
    "no-wallclock",
    "no-direct-sync",
    "no-unbounded-queue",
    "no-adhoc-bench",
];

/// One analysis finding: a span-accurate diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (or `<workspace>` for global findings).
    pub path: String,
    pub line: usize,
    pub col: usize,
    /// One of [`RULE_NAMES`].
    pub rule: &'static str,
    /// The symbol the finding is about (variant, key, lock, entry, ...).
    pub symbol: String,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}: [{}] {}", self.path, self.line, self.col, self.rule, self.message)
    }
}

/// One loaded, lexed and tree-parsed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Token stream ([`lex`]: literal text kept).
    pub tokens: Vec<Token>,
    /// Structural item tree.
    pub tree: Vec<tree::Item>,
    /// Per-token test-only mask, from the tree's `cfg_test` flags.
    pub test_mask: Vec<bool>,
}

/// The loaded workspace the passes run over.
#[derive(Debug, Default)]
pub struct Workspace {
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Loads every checked source file under `root`
    /// ([`crate::collect_sources`]).
    ///
    /// # Errors
    /// On filesystem errors.
    pub fn load(root: &Path) -> Result<Workspace, String> {
        let mut sources = Vec::new();
        for path in crate::collect_sources(root)? {
            let rel = path.strip_prefix(root).unwrap_or(&path);
            let rel = rel.to_string_lossy().replace('\\', "/");
            let src =
                fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
            sources.push((rel, src));
        }
        Ok(Workspace::from_sources(sources))
    }

    /// Builds a workspace from in-memory `(path, source)` pairs — the
    /// fixture seam: tests mimic the real layout with synthetic files.
    pub fn from_sources(sources: Vec<(String, String)>) -> Workspace {
        let files = sources
            .into_iter()
            .map(|(path, src)| {
                let tokens = lex(&src);
                let tree = tree::parse(&tokens);
                let test_mask = tree::test_mask(&tree, tokens.len());
                SourceFile { path, tokens, tree, test_mask }
            })
            .collect();
        Workspace { files }
    }

    /// The file at exactly `path`, if loaded.
    pub fn file(&self, path: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.path == path)
    }
}

/// Everything one analyze run produced.
#[derive(Debug)]
pub struct AnalysisReport {
    /// Files analyzed.
    pub files: usize,
    /// Lock acquisition sites the lock-order pass covered.
    pub lock_sites: usize,
    /// Findings that survived the allowlist, sorted by path then line.
    pub findings: Vec<Finding>,
    /// Configuration errors: allowlist entries that suppress nothing.
    /// These fail the run just like findings.
    pub errors: Vec<String>,
    /// Allowlist entries that suppressed something (for the summary).
    pub suppressions_in_use: usize,
}

impl AnalysisReport {
    /// Whether the run passed.
    pub fn clean(&self) -> bool {
        self.findings.is_empty() && self.errors.is_empty()
    }

    /// Machine-readable report (JSON), stable field order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"files\":{},", self.files));
        out.push_str(&format!("\"lock_sites\":{},", self.lock_sites));
        out.push_str("\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"path\":{},\"line\":{},\"col\":{},\"rule\":{},\"symbol\":{},\"message\":{}}}",
                json_str(&f.path),
                f.line,
                f.col,
                json_str(f.rule),
                json_str(&f.symbol),
                json_str(&f.message),
            ));
        }
        out.push_str("],\"errors\":[");
        for (i, e) in self.errors.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_str(e));
        }
        out.push_str(&format!("],\"suppressions_in_use\":{}}}", self.suppressions_in_use));
        out
    }
}

/// Minimal JSON string encoder (the report has no exotic content).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Runs every pass over an already-loaded workspace.
///
/// Returns the raw findings (allowlist not yet applied) plus the
/// lock-site count. Split out so tests can drive synthetic workspaces.
pub fn run_passes(
    ws: &Workspace,
    artifacts: &drift::ScenarioArtifacts,
    allowlist: &Allowlist,
) -> (Vec<Finding>, usize) {
    let idx = index::SymbolIndex::build(ws);
    let lock_report = locks::check(ws);
    let mut findings = lock_report.findings;
    findings.extend(drift::counter_drift(ws));
    findings.extend(drift::event_drift(ws));
    findings.extend(drift::span_drift(ws));
    findings.extend(drift::spec_drift(ws));
    findings.extend(drift::scenario_drift(ws, artifacts));
    findings.extend(stale::check(&idx, allowlist));
    findings.extend(rules::token_rules(ws));
    findings.extend(rules::no_direct_fit(ws));
    findings.extend(rules::single_construction(ws));
    (findings, lock_report.sites.len())
}

/// Analyzes the workspace rooted at `root` against `allowlist_text`.
///
/// # Errors
/// On a malformed allowlist, unreadable sources, or missing artifact
/// directories — configuration problems, as opposed to the findings
/// reported in the result.
pub fn run_analyze(root: &Path, allowlist_text: &str) -> Result<AnalysisReport, String> {
    let allowlist = Allowlist::parse(allowlist_text)?;
    let ws = Workspace::load(root)?;
    let artifacts = drift::ScenarioArtifacts::load(root)?;
    let (findings, lock_sites) = run_passes(&ws, &artifacts, &allowlist);
    let (mut kept, errors) = allowlist.apply(findings);
    kept.sort_by(|a, b| (&a.path, a.line, a.col).cmp(&(&b.path, b.line, b.col)));
    let suppressions_in_use = allowlist.entries.len() - errors.len();
    Ok(AnalysisReport {
        files: ws.files.len(),
        lock_sites,
        findings: kept,
        errors,
        suppressions_in_use,
    })
}
