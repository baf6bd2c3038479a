//! Allowlist-staleness pass.
//!
//! Applying the allowlist already rejects entries that suppress nothing
//! *this run* — but an entry can also rot structurally: the file it
//! names was moved, or the symbol it names was renamed, and the entry
//! now pins a justification to code that no longer exists. Use-counting
//! only says the entry matched nothing; this pass cross-references every
//! entry against the workspace symbol index and says which path or
//! symbol segment is gone, at the entry's own allowlist line.

use super::index::SymbolIndex;
use super::Finding;
use crate::allow::Allowlist;

/// Checks every allowlist entry against the symbol index.
///
/// Two structural conditions per entry, independent of whether it
/// suppressed a finding this run:
///
/// - its path prefix must still cover at least one linted source file;
/// - its symbol (when not `*`) must still occur — each `::` segment as
///   an identifier — in some file under that prefix.
pub fn check(idx: &SymbolIndex, allowlist: &Allowlist) -> Vec<Finding> {
    let mut out = Vec::new();
    for e in &allowlist.entries {
        if !idx.any_file_under(&e.path_prefix) {
            out.push(Finding {
                path: "mc-lint.allow".to_string(),
                line: e.line,
                col: 1,
                rule: "stale-allow",
                symbol: e.path_prefix.clone(),
                message: format!(
                    "entry `{} {} {}` names path prefix `{}` which covers no linted source \
                     file — the file was moved or removed; update or delete the entry",
                    e.rule,
                    e.path_prefix,
                    e.symbol.as_deref().unwrap_or("*"),
                    e.path_prefix,
                ),
            });
            continue;
        }
        if let Some(symbol) = &e.symbol {
            let missing: Vec<&str> = symbol
                .split("::")
                .filter(|seg| !seg.is_empty() && !idx.ident_occurs_under(&e.path_prefix, seg))
                .collect();
            if !missing.is_empty() {
                out.push(Finding {
                    path: "mc-lint.allow".to_string(),
                    line: e.line,
                    col: 1,
                    rule: "stale-allow",
                    symbol: symbol.clone(),
                    message: format!(
                        "entry `{} {} {}` names symbol `{}` but `{}` no longer occurs under \
                         `{}` — the symbol was renamed or removed; update or delete the entry",
                        e.rule,
                        e.path_prefix,
                        symbol,
                        symbol,
                        missing.join("::"),
                        e.path_prefix,
                    ),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::Workspace;

    fn ws() -> Workspace {
        Workspace::from_sources(vec![(
            "crates/demo/src/lib.rs".to_string(),
            "pub fn real_symbol() { helper(); }".to_string(),
        )])
    }

    #[test]
    fn live_entries_pass_and_stale_paths_and_symbols_fail_at_their_line() {
        let allow = Allowlist::parse(
            "# header\n\
             no-unwrap crates/demo/src real_symbol -- still here\n\
             no-unwrap crates/gone/src * -- moved away\n\
             no-unwrap crates/demo/src Renamed::old_name -- renamed\n",
        )
        .expect("parses");
        let idx = SymbolIndex::build(&ws());
        let findings = check(&idx, &allow);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert_eq!((findings[0].line, findings[0].col), (3, 1));
        assert_eq!(findings[0].path, "mc-lint.allow");
        assert!(findings[0].message.contains("crates/gone/src"), "{}", findings[0].message);
        assert_eq!((findings[1].line, findings[1].col), (4, 1));
        assert!(findings[1].message.contains("Renamed::old_name"), "{}", findings[1].message);
        assert!(findings.iter().all(|f| f.rule == "stale-allow"));
    }

    #[test]
    fn partially_live_qualified_symbols_report_only_the_dead_segment() {
        let allow =
            Allowlist::parse("no-unwrap crates/demo/src real_symbol::vanished -- half stale\n")
                .expect("parses");
        let idx = SymbolIndex::build(&ws());
        let findings = check(&idx, &allow);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0].message.contains("`vanished` no longer occurs"),
            "{}",
            findings[0].message
        );
    }
}
