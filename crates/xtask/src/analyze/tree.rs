//! Structural item tree over the lexed token stream.
//!
//! Parses a token stream into a nested tree of items (functions,
//! structs, enums, impls, modules, ...) with name, span, token range and
//! body range. This is deliberately a *shape* parser, not a grammar: it
//! recognizes item headers and matches their braces, which is exactly
//! what the analysis passes need — "which function body am I in",
//! "where does this enum's variant list live" — without a syntax-tree
//! dependency. Expression-level code inside `fn` bodies is left as raw
//! tokens (the passes scan it themselves); items nested in `mod`,
//! `impl` and `trait` bodies are parsed recursively.

use crate::lexer::{Kind, Token};

/// The item families the passes care to distinguish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    Fn,
    Struct,
    Enum,
    Union,
    Trait,
    Impl,
    Mod,
    Const,
    Static,
    TypeAlias,
    Use,
    Macro,
}

/// One parsed item.
#[derive(Debug, Clone)]
pub struct Item {
    pub kind: ItemKind,
    /// Item name; for `impl` blocks the implemented type's name, empty
    /// for `use` declarations.
    pub name: String,
    /// 1-based line/column of the name (or keyword when unnamed).
    pub line: usize,
    pub col: usize,
    /// Token range of the whole item, visibility/modifiers included,
    /// attributes excluded: `[start, end)`.
    pub start: usize,
    pub end: usize,
    /// Token range strictly inside the item's braces, if it has a body.
    pub body: Option<(usize, usize)>,
    /// Whether the item (or an enclosing one) is test-only:
    /// `#[cfg(test)]`, `#[test]` or `#[bench]`.
    pub cfg_test: bool,
    /// Nested items, parsed for `mod`, `impl` and `trait` bodies.
    pub children: Vec<Item>,
}

impl Item {
    /// This item and every descendant, depth-first.
    pub fn walk<'a>(&'a self, out: &mut Vec<&'a Item>) {
        out.push(self);
        for c in &self.children {
            c.walk(out);
        }
    }
}

/// Flattens a parsed tree into all items, depth-first.
pub fn all_items(tree: &[Item]) -> Vec<&Item> {
    let mut out = Vec::new();
    for item in tree {
        item.walk(&mut out);
    }
    out
}

/// Finds the first item of `kind` named `name`, anywhere in the tree.
pub fn find<'a>(tree: &'a [Item], kind: ItemKind, name: &str) -> Option<&'a Item> {
    all_items(tree).into_iter().find(|i| i.kind == kind && i.name == name)
}

/// Parses a whole token stream into a top-level item list.
pub fn parse(tokens: &[Token]) -> Vec<Item> {
    let mut out = Vec::new();
    parse_range(tokens, 0, tokens.len(), false, &mut out);
    out
}

/// Per-token flags over a file of `len` tokens marking test-only code:
/// every token of an item the tree flags [`Item::cfg_test`]. The
/// test-only attributes themselves stay unmarked.
pub fn test_mask(tree: &[Item], len: usize) -> Vec<bool> {
    let mut mask = vec![false; len];
    for item in all_items(tree).into_iter().filter(|i| i.cfg_test) {
        mask[item.start..item.end].fill(true);
    }
    mask
}

/// Index of the `close` matching the `open` at `start`, within `[.., end)`.
pub(crate) fn matching_in(
    tokens: &[Token],
    start: usize,
    end: usize,
    open: char,
    close: char,
) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().take(end).skip(start) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth = depth.checked_sub(1)?;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Does this attribute body mark test-only code? Bare `#[test]` /
/// `#[bench]`, or a `#[cfg(..)]` mentioning `test` without a negation:
/// `not(test)` guards production-only code, the opposite of test code.
fn attr_is_test(body: &[Token]) -> bool {
    match body.first() {
        Some(t) if t.is_ident("test") || t.is_ident("bench") => body.len() == 1,
        Some(t) if t.is_ident("cfg") => {
            body.iter().any(|t| t.is_ident("test")) && !body.iter().any(|t| t.is_ident("not"))
        }
        _ => false,
    }
}

fn parse_range(
    tokens: &[Token],
    mut i: usize,
    end: usize,
    inherited_test: bool,
    out: &mut Vec<Item>,
) {
    while i < end {
        // Attributes (outer and inner); accumulate test-only marks.
        let mut cfg_test = inherited_test;
        let mut progressed = true;
        while progressed && i < end && tokens[i].is_punct('#') {
            progressed = false;
            let mut j = i + 1;
            if j < end && tokens[j].is_punct('!') {
                j += 1; // inner attribute #![..]
            }
            if j < end && tokens[j].is_punct('[') {
                if let Some(close) = matching_in(tokens, j, end, '[', ']') {
                    if attr_is_test(&tokens[j + 1..close]) {
                        cfg_test = true;
                    }
                    i = close + 1;
                    progressed = true;
                }
            }
        }
        if i >= end {
            break;
        }
        match parse_item(tokens, i, end, cfg_test) {
            Some(item) => {
                i = item.end;
                out.push(item);
            }
            None => {
                // Not an item start: skip the token, jumping over any
                // bracketed group so stray expression code cannot
                // desynchronize the scan.
                let t = &tokens[i];
                i = if t.is_punct('{') {
                    matching_in(tokens, i, end, '{', '}').map_or(end, |c| c + 1)
                } else if t.is_punct('(') {
                    matching_in(tokens, i, end, '(', ')').map_or(end, |c| c + 1)
                } else if t.is_punct('[') {
                    matching_in(tokens, i, end, '[', ']').map_or(end, |c| c + 1)
                } else {
                    i + 1
                };
            }
        }
    }
}

/// Tries to parse one item starting at `start` (attributes already
/// consumed). Returns `None` if `start` is not an item header.
fn parse_item(tokens: &[Token], start: usize, end: usize, cfg_test: bool) -> Option<Item> {
    let mut i = start;
    // Visibility and modifiers.
    loop {
        let t = tokens.get(i).filter(|t| t.kind == Kind::Ident)?;
        match t.text.as_str() {
            "pub" => {
                i += 1;
                if tokens.get(i).is_some_and(|t| t.is_punct('(')) {
                    i = matching_in(tokens, i, end, '(', ')')? + 1;
                }
            }
            "default" | "async" | "unsafe" => i += 1,
            // `const` is a modifier only when a function follows
            // (`const fn`, `const unsafe fn`); otherwise it is the
            // `const ITEM` keyword handled below.
            "const"
                if tokens.get(i + 1).is_some_and(|t| {
                    t.is_ident("fn") || t.is_ident("unsafe") || t.is_ident("extern")
                }) =>
            {
                i += 1;
            }
            // `extern "C" fn` — skip the ABI string.
            "extern" if tokens.get(i + 1).is_some_and(|t| t.kind == Kind::Literal) => i += 2,
            _ => break,
        }
    }
    let kw = tokens.get(i)?;
    let (kind, named) = match kw.text.as_str() {
        "fn" => (ItemKind::Fn, true),
        "struct" => (ItemKind::Struct, true),
        "enum" => (ItemKind::Enum, true),
        "union" if tokens.get(i + 1).is_some_and(|t| t.kind == Kind::Ident) => {
            (ItemKind::Union, true)
        }
        "trait" => (ItemKind::Trait, true),
        "impl" => (ItemKind::Impl, false),
        "mod" => (ItemKind::Mod, true),
        "const" => (ItemKind::Const, true),
        "static" => (ItemKind::Static, true),
        "type" => (ItemKind::TypeAlias, true),
        "use" | "extern" => (ItemKind::Use, false),
        "macro_rules" => (ItemKind::Macro, false),
        _ => return None,
    };
    let (name, name_tok) = match kind {
        ItemKind::Impl => (String::new(), i), // resolved after the header scan
        ItemKind::Use => (String::new(), i),
        ItemKind::Macro => {
            let j = i + 1; // `!`
            let t = tokens.get(j + 1).filter(|t| t.kind == Kind::Ident)?;
            (t.text.clone(), j + 1)
        }
        ItemKind::Static | ItemKind::Const => {
            let mut j = i + 1;
            if tokens.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            let t = tokens.get(j).filter(|t| t.kind == Kind::Ident)?;
            (t.text.clone(), j)
        }
        _ if named => {
            let t = tokens.get(i + 1).filter(|t| t.kind == Kind::Ident)?;
            (t.text.clone(), i + 1)
        }
        _ => (String::new(), i),
    };

    // Semicolon-terminated items: run to the `;` at bracket depth zero.
    if matches!(kind, ItemKind::Const | ItemKind::Static | ItemKind::TypeAlias | ItemKind::Use) {
        let mut j = i + 1;
        let mut depth = 0i32;
        while j < end {
            let t = &tokens[j];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
            } else if t.is_punct(';') && depth == 0 {
                return Some(Item {
                    kind,
                    name,
                    line: tokens[name_tok].line,
                    col: tokens[name_tok].col,
                    start,
                    end: j + 1,
                    body: None,
                    cfg_test,
                    children: Vec::new(),
                });
            }
            j += 1;
        }
        return None;
    }

    // Brace-or-semicolon items: scan the header (at paren/bracket depth
    // zero) for the body `{` or a terminating `;` (tuple struct, trait
    // fn declaration, `mod x;`).
    let mut j = i + 1;
    let mut depth = 0i32;
    let item_end;
    let mut body = None;
    loop {
        let t = tokens.get(j).filter(|_| j < end)?;
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 0 && t.is_punct(';') {
            item_end = j + 1;
            break;
        } else if depth == 0 && t.is_punct('{') {
            let close = matching_in(tokens, j, end, '{', '}')?;
            body = Some((j + 1, close));
            item_end = close + 1;
            break;
        }
        j += 1;
    }

    let (name, name_tok) = if kind == ItemKind::Impl {
        resolve_impl_name(tokens, i + 1, body.map_or(item_end, |(open, _)| open - 1))
            .unwrap_or((String::new(), i))
    } else {
        (name, name_tok)
    };

    let mut children = Vec::new();
    if matches!(kind, ItemKind::Mod | ItemKind::Impl | ItemKind::Trait) {
        if let Some((b0, b1)) = body {
            parse_range(tokens, b0, b1, cfg_test, &mut children);
        }
    }
    Some(Item {
        kind,
        name,
        line: tokens[name_tok].line,
        col: tokens[name_tok].col,
        start,
        end: item_end,
        body,
        cfg_test,
        children,
    })
}

/// The implemented type's name from an `impl` header: the first
/// identifier after `for` when present (`impl Trait for Type`), else
/// the first identifier after the generics (`impl<T> Type<T>`).
fn resolve_impl_name(tokens: &[Token], mut i: usize, header_end: usize) -> Option<(String, usize)> {
    // Skip the generic parameter list, guarding against the `>` of a
    // `->` inside e.g. `impl<F: Fn(u32) -> u32>`.
    if tokens.get(i).is_some_and(|t| t.is_punct('<')) {
        let mut depth = 0i32;
        while i < header_end {
            let t = &tokens[i];
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') && !(i > 0 && tokens[i - 1].is_punct('-')) {
                depth -= 1;
                if depth == 0 {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
    }
    let header = &tokens[i..header_end];
    let for_pos = header.iter().position(|t| t.is_ident("for"));
    let scan = match for_pos {
        Some(p) => &header[p + 1..],
        None => header,
    };
    scan.iter()
        .enumerate()
        .find(|(_, t)| t.kind == Kind::Ident && !t.is_ident("dyn") && !t.is_ident("mut"))
        .map(|(off, t)| {
            let abs = i + for_pos.map_or(0, |p| p + 1) + off;
            (t.text.clone(), abs)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn names(items: &[Item]) -> Vec<(ItemKind, String)> {
        items.iter().map(|i| (i.kind, i.name.clone())).collect()
    }

    #[test]
    fn parses_top_level_items_with_bodies() {
        let src = r#"
            pub struct Foo { a: u32 }
            struct Tuple(u8);
            pub(crate) enum Bar { A, B(u32) }
            const N: usize = 3;
            static mut S: [u8; 2] = [0; 2];
            pub fn f(x: u32) -> u32 { x }
            mod inner { pub fn g() {} }
            use std::fmt;
        "#;
        let tree = parse(&lex(src));
        assert_eq!(
            names(&tree),
            vec![
                (ItemKind::Struct, "Foo".into()),
                (ItemKind::Struct, "Tuple".into()),
                (ItemKind::Enum, "Bar".into()),
                (ItemKind::Const, "N".into()),
                (ItemKind::Static, "S".into()),
                (ItemKind::Fn, "f".into()),
                (ItemKind::Mod, "inner".into()),
                (ItemKind::Use, String::new()),
            ]
        );
        assert!(tree[0].body.is_some() && tree[3].body.is_none());
        assert_eq!(names(&tree[6].children), vec![(ItemKind::Fn, "g".into())]);
    }

    #[test]
    fn impl_blocks_name_the_implemented_type_and_nest_methods() {
        let src = r#"
            impl Foo { fn a(&self) {} }
            impl<T: Fn(u32) -> u32> Wrapper<T> { fn b(&self) {} }
            impl Display for Foo { fn fmt(&self) {} }
        "#;
        let tree = parse(&lex(src));
        let got: Vec<(String, Vec<(ItemKind, String)>)> =
            tree.iter().map(|i| (i.name.clone(), names(&i.children))).collect();
        assert_eq!(
            got,
            vec![
                ("Foo".into(), vec![(ItemKind::Fn, "a".into())]),
                ("Wrapper".into(), vec![(ItemKind::Fn, "b".into())]),
                ("Foo".into(), vec![(ItemKind::Fn, "fmt".into())]),
            ]
        );
    }

    #[test]
    fn cfg_test_marks_propagate_into_nested_items() {
        let src = r#"
            fn prod() {}
            #[cfg(test)]
            mod tests {
                fn helper() {}
                #[test]
                fn t() {}
            }
        "#;
        let tree = parse(&lex(src));
        assert!(!tree[0].cfg_test);
        assert!(tree[1].cfg_test);
        assert!(tree[1].children.iter().all(|c| c.cfg_test));
    }

    #[test]
    fn const_fn_is_a_fn_and_const_item_with_struct_literal_ends_at_semicolon() {
        let src = "const fn f() -> u32 { 1 }\nconst X: Foo = Foo { a: [1; 2] };\nfn after() {}";
        let tree = parse(&lex(src));
        assert_eq!(
            names(&tree),
            vec![
                (ItemKind::Fn, "f".into()),
                (ItemKind::Const, "X".into()),
                (ItemKind::Fn, "after".into()),
            ]
        );
    }

    #[test]
    fn spans_point_at_the_item_name() {
        let tree = parse(&lex("fn alpha() {}\n  pub fn beta() {}"));
        assert_eq!((tree[0].line, tree[0].col), (1, 4));
        assert_eq!((tree[1].line, tree[1].col), (2, 10));
    }
}
