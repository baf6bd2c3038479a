//! The mc-analyze allowlist: explicit, justified suppressions.
//!
//! The checker is deny-by-default; the only way to keep a finding is an
//! entry here, and every entry must carry a written justification. The
//! committed allowlist lives at the workspace root (`mc-lint.allow`).
//!
//! Format, one entry per line (blank lines and `#` comments ignored):
//!
//! ```text
//! <rule> <path-prefix> <symbol|*> -- <justification>
//! ```
//!
//! - `rule`: a rule name from [`crate::analyze::RULE_NAMES`].
//! - `path-prefix`: workspace-relative; the entry covers every checked
//!   file under it (a file path covers exactly that file).
//! - `symbol`: the matched symbol (`expect`, `Instant::now`, ...) or `*`.
//! - The justification is mandatory — an entry without `--` text is a
//!   parse error, and an entry that suppresses nothing is itself an
//!   error, so the allowlist can only shrink stale.
//!   By convention the justification ends with `-- since PR<n>`
//!   provenance (the first `--` still delimits the justification).

use crate::analyze::{Finding, RULE_NAMES};

/// One parsed allowlist line.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Rule name, validated against [`RULE_NAMES`] at parse time.
    pub rule: String,
    pub path_prefix: String,
    /// Symbol to match, or `None` for `*`.
    pub symbol: Option<String>,
    pub justification: String,
    /// Source line in the allowlist file, for error reporting.
    pub line: usize,
}

impl Entry {
    fn covers(&self, f: &Finding) -> bool {
        self.rule == f.rule
            && f.path.starts_with(&self.path_prefix)
            && self.symbol.as_ref().is_none_or(|s| *s == f.symbol)
    }
}

/// A parsed allowlist.
#[derive(Debug, Default)]
pub struct Allowlist {
    pub entries: Vec<Entry>,
}

impl Allowlist {
    /// Parses the allowlist text, validating rule names against
    /// [`RULE_NAMES`].
    ///
    /// # Errors
    /// On an unknown rule name, a malformed line, or a missing
    /// justification — a suppression nobody can read the reason for is
    /// worse than the finding it hides.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let content = raw.trim();
            if content.is_empty() || content.starts_with('#') {
                continue;
            }
            let (spec, justification) = content
                .split_once("--")
                .ok_or_else(|| format!("allowlist line {line}: missing `-- justification`"))?;
            let justification = justification.trim();
            if justification.is_empty() {
                return Err(format!("allowlist line {line}: empty justification"));
            }
            let fields: Vec<&str> = spec.split_whitespace().collect();
            let [rule, path_prefix, symbol] = fields[..] else {
                return Err(format!(
                    "allowlist line {line}: expected `<rule> <path-prefix> <symbol|*>`, got {} fields",
                    fields.len()
                ));
            };
            if !RULE_NAMES.contains(&rule) {
                return Err(format!("allowlist line {line}: unknown rule `{rule}`"));
            }
            entries.push(Entry {
                rule: rule.to_string(),
                path_prefix: path_prefix.to_string(),
                symbol: (symbol != "*").then(|| symbol.to_string()),
                justification: justification.to_string(),
                line,
            });
        }
        Ok(Allowlist { entries })
    }

    /// Splits `findings` into kept ones and a list of unused-entry
    /// errors. Every finding covered by an entry is suppressed; every
    /// entry that covered nothing is reported.
    pub fn apply(&self, findings: Vec<Finding>) -> (Vec<Finding>, Vec<String>) {
        let mut used = vec![false; self.entries.len()];
        let mut kept = Vec::new();
        for f in findings {
            let mut suppressed = false;
            for (e, flag) in self.entries.iter().zip(used.iter_mut()) {
                if e.covers(&f) {
                    *flag = true;
                    suppressed = true;
                }
            }
            if !suppressed {
                kept.push(f);
            }
        }
        let stale = self
            .entries
            .iter()
            .zip(&used)
            .filter(|(_, used)| !**used)
            .map(|(e, _)| {
                format!(
                    "allowlist line {}: entry `{} {} {}` suppresses nothing — remove it",
                    e.line,
                    e.rule,
                    e.path_prefix,
                    e.symbol.as_deref().unwrap_or("*"),
                )
            })
            .collect();
        (kept, stale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, path: &str, symbol: &str) -> Finding {
        Finding {
            path: path.into(),
            line: 1,
            col: 1,
            rule,
            symbol: symbol.into(),
            message: String::new(),
        }
    }

    #[test]
    fn parse_rejects_missing_justification_and_unknown_rule_names() {
        assert!(Allowlist::parse("no-unwrap crates/x expect").is_err());
        assert!(Allowlist::parse("no-unwrap crates/x expect --   ").is_err());
        assert!(Allowlist::parse("no-such-rule crates/x * -- why").is_err());
        assert!(Allowlist::parse("no-unwrap crates/x -- too few fields").is_err());
        let ok = Allowlist::parse("# comment\n\nno-unwrap crates/x expect -- reason\n");
        assert_eq!(ok.expect("parses").entries.len(), 1);
    }

    #[test]
    fn provenance_suffix_stays_inside_the_justification() {
        let allow =
            Allowlist::parse("no-unwrap crates/x expect -- reason -- since PR4\n").expect("parses");
        assert_eq!(allow.entries[0].justification, "reason -- since PR4");
    }

    #[test]
    fn apply_suppresses_by_prefix_and_symbol_and_reports_stale() {
        let allow = Allowlist::parse(
            "no-unwrap crates/demo/src expect -- demo reason\n\
             no-wallclock crates/never * -- never matches\n",
        )
        .expect("parses");
        let (kept, stale) = allow.apply(vec![
            finding("no-unwrap", "crates/demo/src/lib.rs", "expect"),
            finding("no-unwrap", "crates/demo/src/lib.rs", "unwrap"),
            finding("no-unwrap", "crates/other/src/lib.rs", "expect"),
        ]);
        let kept: Vec<&str> = kept.iter().map(|f| f.path.as_str()).collect();
        assert_eq!(kept, vec!["crates/demo/src/lib.rs", "crates/other/src/lib.rs"]);
        assert_eq!(stale.len(), 1);
        assert!(stale[0].contains("no-wallclock"), "{stale:?}");
    }
}
