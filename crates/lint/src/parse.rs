//! Item-level parse on top of the token stream — just enough structure
//! for the cross-file passes: `const` items, `enum` declarations, `fn`
//! items with their call expressions, and `match` expressions with their
//! arms.
//!
//! This is a *recognizer*, not a grammar: it walks the flat token stream
//! with delimiter matching and a handful of shape rules (documented on
//! each collector). It never fails — unrecognizable constructs are simply
//! not collected, which keeps the analyzer robust against code it has
//! never seen (the same posture as the lexer). The known approximations
//! and their consequences are written up in DESIGN.md §15.

use crate::lexer::{Tok, TokKind};

/// Index of the token matching the `open` delimiter at `i`, honoring
/// nesting. Returns `None` if unbalanced.
pub(crate) fn matching(toks: &[Tok], i: usize, open: &str, close: &str) -> Option<usize> {
    debug_assert_eq!(toks[i].text, open);
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(i) {
        if t.kind == TokKind::Punct {
            if t.text == open {
                depth += 1;
            } else if t.text == close {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
        }
    }
    None
}

/// A `const NAME: Ty = value;` item.
#[derive(Debug, Clone)]
pub struct ConstItem {
    /// The constant's name.
    pub name: String,
    /// 1-indexed declaration line.
    pub line: usize,
    /// Token index of the name (for test-region queries).
    pub name_tok: usize,
    /// The value when the initializer is a single integer literal
    /// (`0x51C3_0000_0000_0007u64` and friends); `None` for computed
    /// initializers.
    pub value: Option<u128>,
}

/// An `enum NAME { Variant, ... }` declaration.
#[derive(Debug, Clone)]
pub struct EnumItem {
    /// The enum's name.
    pub name: String,
    /// 1-indexed declaration line.
    pub line: usize,
    /// Token index of the name.
    pub name_tok: usize,
    /// Variant names, in declaration order.
    pub variants: Vec<String>,
}

/// One call expression inside a function body: `name(...)`,
/// `Qualifier::name(...)`, or `.name(...)` — each also through a turbofish
/// (`name::<T>(...)`).
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The called name.
    pub name: String,
    /// The `Qualifier` of a `Qualifier::name(...)` path call.
    pub qualifier: Option<String>,
    /// Whether this is a `.name(...)` method call.
    pub is_method: bool,
    /// 1-indexed call line.
    pub line: usize,
    /// Token index of the called name.
    pub name_tok: usize,
    /// Token index of the `(` opening the argument list.
    pub open_paren: usize,
}

/// A `fn` item: name, owning `impl` type (if any), body token range, and
/// the call expressions inside the body.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// 1-indexed declaration line.
    pub line: usize,
    /// Token index of the name.
    pub name_tok: usize,
    /// The surrounding `impl` block's type name, when the fn is a method
    /// or associated fn (`impl Foo { fn bar ... }` → `Some("Foo")`). A fn
    /// nested in another fn's body is never a method, whatever `impl` the
    /// outer fn sits in.
    pub impl_type: Option<String>,
    /// For a fn nested in another fn's body, that body's token range: the
    /// only place the nested fn can be called from (and where it shadows
    /// every same-named item outside). `None` for items.
    pub scope: Option<(usize, usize)>,
    /// Half-open token range of the body braces (`{` .. `}` inclusive of
    /// both delimiters); `None` for bodyless trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// Calls inside the body, attributed to the *innermost* enclosing fn.
    pub calls: Vec<CallSite>,
    /// Argument token ranges (exclusive of the parens) of the
    /// `.get_or_init(..)` calls in the body: a memo's initializer, which
    /// runs once per memo rather than once per call.
    pub once_inits: Vec<(usize, usize)>,
}

impl FnItem {
    /// Whether token index `k` lies inside one of this fn's
    /// `.get_or_init(..)` initializers.
    pub fn in_once_init(&self, k: usize) -> bool {
        self.once_inits.iter().any(|&(o, c)| (o..c).contains(&k))
    }
}

/// One arm of a `match`: the pattern's token range (guard included).
#[derive(Debug, Clone)]
pub struct MatchArm {
    /// 1-indexed line of the first pattern token.
    pub line: usize,
    /// Half-open token range `[start, end)` of the pattern, up to the
    /// `=>` (guard included when present).
    pub pat: (usize, usize),
}

/// A `match` expression and its arms.
#[derive(Debug, Clone)]
pub struct MatchExpr {
    /// 1-indexed line of the `match` keyword.
    pub line: usize,
    /// Token index of the `match` keyword.
    pub match_tok: usize,
    /// The arms, in source order.
    pub arms: Vec<MatchArm>,
}

/// Everything the cross-file passes need from one file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// `const` items.
    pub consts: Vec<ConstItem>,
    /// `enum` declarations.
    pub enums: Vec<EnumItem>,
    /// `fn` items with their calls.
    pub fns: Vec<FnItem>,
    /// `match` expressions with their arms.
    pub matches: Vec<MatchExpr>,
}

/// Keywords that look like `name(` but are never call expressions.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "loop", "return", "fn", "let", "else", "in", "as", "move",
    "break", "continue", "where", "impl", "pub", "use", "mod", "struct", "enum", "trait", "type",
    "const", "static", "ref", "mut", "dyn", "unsafe", "async", "await", "yield", "box",
];

/// Parses the token stream into items. Infallible by design: see the
/// module docs.
pub fn parse(toks: &[Tok]) -> ParsedFile {
    let impls = collect_impls(toks);
    let mut parsed = ParsedFile {
        consts: collect_consts(toks),
        enums: collect_enums(toks),
        fns: collect_fns(toks, &impls),
        matches: collect_matches(toks),
    };
    attach_calls(toks, &mut parsed.fns);
    parsed
}

/// `impl` blocks as `(open_brace, close_brace, type_name)`. The type name
/// is the last path segment of the implementing type (`impl fmt::Display
/// for FrameError` → `FrameError`; `impl<T> Session<T>` → `Session`).
fn collect_impls(toks: &[Tok]) -> Vec<(usize, usize, String)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].kind == TokKind::Ident && toks[i].text == "impl") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        // Skip the generic parameter list right after `impl`.
        if toks.get(j).is_some_and(|t| t.text == "<") {
            let mut angle = 0isize;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "<" => angle += 1,
                    ">" => {
                        angle -= 1;
                        if angle == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        // The header runs to the block `{` at delimiter depth 0.
        let header_start = j;
        let mut depth = 0usize;
        let mut open = None;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "{" if depth == 0 => {
                    open = Some(j);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let Some(open) = open else {
            i += 1;
            continue;
        };
        let Some(close) = matching(toks, open, "{", "}") else {
            i += 1;
            continue;
        };
        // `impl Trait for Type`: the type follows the last `for` that is
        // not an HRTB (`for<'a>`). Then: last ident before the first `<`
        // (generic args), `where`, or the block.
        let header = &toks[header_start..open];
        let mut region_start = 0;
        for (k, t) in header.iter().enumerate() {
            if t.kind == TokKind::Ident
                && t.text == "for"
                && header.get(k + 1).is_none_or(|n| n.text != "<")
            {
                region_start = k + 1;
            }
        }
        let mut name = None;
        for t in &header[region_start..] {
            if t.text == "<" || (t.kind == TokKind::Ident && t.text == "where") {
                break;
            }
            if t.kind == TokKind::Ident && t.text != "mut" && t.text != "dyn" {
                name = Some(t.text.clone());
            }
        }
        if let Some(name) = name {
            out.push((open, close, name));
        }
        i = open + 1;
    }
    out
}

/// `const NAME: Ty = init;` items. Excluded shapes: `const fn`, raw
/// pointers (`*const T`), and generic const params (`<const N: usize>`,
/// recognized by the preceding `<` / `,` / `(`).
fn collect_consts(toks: &[Tok]) -> Vec<ConstItem> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !(toks[i].kind == TokKind::Ident && toks[i].text == "const") {
            continue;
        }
        if i > 0 && matches!(toks[i - 1].text.as_str(), "<" | "," | "(" | "*") {
            continue;
        }
        let Some(name_t) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            continue;
        };
        if toks.get(i + 2).is_none_or(|t| t.text != ":") {
            continue;
        }
        // Initializer: the tokens between the `=` and the `;`, both at
        // delimiter depth 0.
        let mut depth = 0usize;
        let mut eq = None;
        let mut semi = None;
        for (j, t) in toks.iter().enumerate().skip(i + 3) {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth = depth.saturating_sub(1),
                "=" if depth == 0 && eq.is_none() => eq = Some(j),
                ";" if depth == 0 => {
                    semi = Some(j);
                    break;
                }
                _ => {}
            }
        }
        let value = match (eq, semi) {
            (Some(e), Some(s)) if s == e + 2 && toks[e + 1].kind == TokKind::Int => {
                parse_int(&toks[e + 1].text)
            }
            _ => None,
        };
        out.push(ConstItem {
            name: name_t.text.clone(),
            line: name_t.line,
            name_tok: i + 1,
            value,
        });
    }
    out
}

/// Parses an integer literal's text (`0x51C3_0000_0000_0007u64`,
/// `1_000`, `0b1010usize`) to its value.
fn parse_int(text: &str) -> Option<u128> {
    let clean: String = text.chars().filter(|&c| c != '_').collect();
    let (radix, digits) = match clean.as_bytes() {
        [b'0', b'x' | b'X', ..] => (16, &clean[2..]),
        [b'0', b'o' | b'O', ..] => (8, &clean[2..]),
        [b'0', b'b' | b'B', ..] => (2, &clean[2..]),
        _ => (10, clean.as_str()),
    };
    // Strip a type suffix (`u64`, `usize`, `i32`, ...).
    let end = digits
        .find(|c: char| !c.is_digit(radix))
        .unwrap_or(digits.len());
    u128::from_str_radix(&digits[..end], radix).ok()
}

/// `enum Name { Variant, Variant(..), Variant { .. } }` declarations.
fn collect_enums(toks: &[Tok]) -> Vec<EnumItem> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !(toks[i].kind == TokKind::Ident && toks[i].text == "enum") {
            continue;
        }
        let Some(name_t) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            continue;
        };
        // The body `{` at delimiter depth 0 (skipping generics/where).
        let mut open = None;
        let mut depth = 0usize;
        for (j, t) in toks.iter().enumerate().skip(i + 2) {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "{" if depth == 0 => {
                    open = Some(j);
                    break;
                }
                ";" if depth == 0 => break,
                _ => {}
            }
        }
        let Some(open) = open else { continue };
        let Some(close) = matching(toks, open, "{", "}") else {
            continue;
        };
        let mut variants = Vec::new();
        let mut k = open + 1;
        while k < close {
            // Skip variant attributes.
            if toks[k].text == "#" && toks.get(k + 1).is_some_and(|t| t.text == "[") {
                match matching(toks, k + 1, "[", "]") {
                    Some(c) => {
                        k = c + 1;
                        continue;
                    }
                    None => break,
                }
            }
            if toks[k].kind == TokKind::Ident {
                variants.push(toks[k].text.clone());
                // Skip the payload / discriminant to the `,` at variant
                // depth.
                let mut depth = 0usize;
                k += 1;
                while k < close {
                    match toks[k].text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth = depth.saturating_sub(1),
                        "," if depth == 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
            }
            k += 1;
        }
        out.push(EnumItem {
            name: name_t.text.clone(),
            line: name_t.line,
            name_tok: i + 1,
            variants,
        });
    }
    out
}

/// `fn name(...) { ... }` items (free fns, methods, nested fns). The body
/// is the first `{` after the signature at paren/bracket depth 0; a `;`
/// first means a bodyless trait declaration. A fn's innermost container —
/// an `impl` block or another fn's body — decides what it is: a method of
/// that `impl`, or a nested fn scoped to that body.
fn collect_fns(toks: &[Tok], impls: &[(usize, usize, String)]) -> Vec<FnItem> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !(toks[i].kind == TokKind::Ident && toks[i].text == "fn") {
            continue;
        }
        let Some(name_t) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            continue; // `fn(..)` pointer type
        };
        let mut depth = 0usize;
        let mut body = None;
        let mut j = i + 2;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "{" if depth == 0 => {
                    body = matching(toks, j, "{", "}").map(|c| (j, c));
                    break;
                }
                ";" if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        out.push(FnItem {
            name: name_t.text.clone(),
            line: name_t.line,
            name_tok: i + 1,
            impl_type: None,
            scope: None,
            body,
            calls: Vec::new(),
            once_inits: Vec::new(),
        });
    }
    let bodies: Vec<(usize, usize)> = out.iter().filter_map(|f| f.body).collect();
    for f in &mut out {
        let k = f.name_tok;
        let imp = impls
            .iter()
            .filter(|(o, c, _)| (*o..*c).contains(&k))
            .min_by_key(|(o, c, _)| c - o);
        let outer = bodies
            .iter()
            .copied()
            .filter(|&(o, c)| (o..c).contains(&k))
            .min_by_key(|(o, c)| c - o);
        match (imp, outer) {
            (Some((o, c, _)), Some((bo, bc))) if bc - bo < c - o => f.scope = outer,
            (Some((_, _, name)), _) => f.impl_type = Some(name.clone()),
            (None, outer) => f.scope = outer,
        }
    }
    out
}

/// `match scrutinee { pat => body, ... }` expressions. Arm patterns run
/// to the `=>` at delimiter depth 0; arm bodies are either a brace block
/// or everything up to the `,` at depth 0.
fn collect_matches(toks: &[Tok]) -> Vec<MatchExpr> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !(toks[i].kind == TokKind::Ident && toks[i].text == "match") {
            continue;
        }
        // The block `{` at depth 0 after the scrutinee.
        let mut depth = 0usize;
        let mut open = None;
        for (j, t) in toks.iter().enumerate().skip(i + 1) {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "{" if depth == 0 => {
                    open = Some(j);
                    break;
                }
                ";" if depth == 0 => break,
                _ => {}
            }
        }
        let Some(open) = open else { continue };
        let Some(close) = matching(toks, open, "{", "}") else {
            continue;
        };
        let mut arms = Vec::new();
        let mut k = open + 1;
        while k < close {
            // Skip arm attributes.
            if toks[k].text == "#" && toks.get(k + 1).is_some_and(|t| t.text == "[") {
                match matching(toks, k + 1, "[", "]") {
                    Some(c) => {
                        k = c + 1;
                        continue;
                    }
                    None => break,
                }
            }
            let pat_start = k;
            let line = toks[k].line;
            // Pattern: to the `=>` at delimiter depth 0.
            let mut depth = 0usize;
            let mut arrow = None;
            while k < close {
                match toks[k].text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth = depth.saturating_sub(1),
                    "=>" if depth == 0 => {
                        arrow = Some(k);
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
            let Some(arrow) = arrow else { break };
            arms.push(MatchArm {
                line,
                pat: (pat_start, arrow),
            });
            // Body: brace block, or to the `,` at depth 0.
            k = arrow + 1;
            if toks.get(k).is_some_and(|t| t.text == "{") {
                match matching(toks, k, "{", "}") {
                    Some(c) => k = c + 1,
                    None => break,
                }
                if toks.get(k).is_some_and(|t| t.text == ",") {
                    k += 1;
                }
            } else {
                let mut depth = 0usize;
                while k < close {
                    match toks[k].text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth = depth.saturating_sub(1),
                        "," if depth == 0 => {
                            k += 1;
                            break;
                        }
                        _ => {}
                    }
                    k += 1;
                }
            }
        }
        out.push(MatchExpr {
            line: toks[i].line,
            match_tok: i,
            arms,
        });
    }
    out
}

/// The `(` opening the argument list when the ident at `k` is called:
/// `name(`, or `name::<..>(` through a turbofish.
fn call_paren(toks: &[Tok], k: usize) -> Option<usize> {
    match toks.get(k + 1)?.text.as_str() {
        "(" => Some(k + 1),
        "::" if toks.get(k + 2)?.text == "<" => {
            let close = matching(toks, k + 2, "<", ">")?;
            (toks.get(close + 1)?.text == "(").then_some(close + 1)
        }
        _ => None,
    }
}

/// Finds every call expression (`name(` or `name::<..>(` with a
/// non-keyword name that is not a declaration or macro) and attributes it
/// to the innermost enclosing fn body, recording the argument range of
/// each `.get_or_init(..)` there too.
fn attach_calls(toks: &[Tok], fns: &mut [FnItem]) {
    for k in 0..toks.len() {
        let t = &toks[k];
        if t.kind != TokKind::Ident || NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        let Some(open_paren) = call_paren(toks, k) else {
            continue;
        };
        if k > 0 && toks[k - 1].text == "fn" {
            continue; // the declaration itself
        }
        let qualifier = if k >= 2 && toks[k - 1].text == "::" && toks[k - 2].kind == TokKind::Ident
        {
            Some(toks[k - 2].text.clone())
        } else {
            None
        };
        let is_method = k > 0 && toks[k - 1].text == ".";
        let Some(owner) = fns
            .iter_mut()
            .filter(|f| f.body.is_some_and(|(o, c)| (o..=c).contains(&k)))
            .min_by_key(|f| {
                let (o, c) = f.body.unwrap_or((0, usize::MAX));
                c - o
            })
        else {
            continue; // top-level const/static initializer etc.
        };
        if is_method && t.text == "get_or_init" {
            if let Some(close) = matching(toks, open_paren, "(", ")") {
                owner.once_inits.push((open_paren + 1, close));
            }
        }
        owner.calls.push(CallSite {
            name: t.text.clone(),
            qualifier,
            is_method,
            line: t.line,
            name_tok: k,
            open_paren,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parsed(src: &str) -> ParsedFile {
        parse(&lex(src).0)
    }

    #[test]
    fn const_items_with_int_values() {
        let p = parsed(
            "const A: u64 = 0x51C3_0000_0000_0007;\n\
             pub const B: usize = 1_000usize;\n\
             const C: u64 = 1 << 3;\n\
             fn f<const N: usize>(x: *const u8) {}\n\
             const fn g() {}",
        );
        let names: Vec<&str> = p.consts.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["A", "B", "C"]);
        assert_eq!(p.consts[0].value, Some(0x51C3_0000_0000_0007));
        assert_eq!(p.consts[1].value, Some(1_000));
        assert_eq!(p.consts[2].value, None, "computed initializer");
    }

    #[test]
    fn enum_variants_with_payloads_and_attrs() {
        let p = parsed(
            "pub enum WireMsg {\n\
               Hello { version: u32, ra: u64 },\n\
               #[allow(dead_code)]\n\
               Round(RoundInfo),\n\
               Down { ra: u64, round: u64, cause: String },\n\
             }",
        );
        assert_eq!(p.enums.len(), 1);
        assert_eq!(p.enums[0].name, "WireMsg");
        assert_eq!(p.enums[0].variants, ["Hello", "Round", "Down"]);
    }

    #[test]
    fn fn_items_capture_impl_type_and_body() {
        let p = parsed(
            "fn free() {}\n\
             impl<T: Clone> Session<T> {\n\
               fn method(&self) { helper(); }\n\
             }\n\
             impl fmt::Display for FrameError {\n\
               fn fmt(&self) {}\n\
             }\n\
             trait X { fn bodyless(); }",
        );
        let by_name = |n: &str| p.fns.iter().find(|f| f.name == n).expect("fn parsed");
        assert_eq!(by_name("free").impl_type, None);
        assert_eq!(by_name("method").impl_type.as_deref(), Some("Session"));
        assert_eq!(by_name("fmt").impl_type.as_deref(), Some("FrameError"));
        assert!(by_name("bodyless").body.is_none());
        assert_eq!(by_name("method").calls.len(), 1);
        assert_eq!(by_name("method").calls[0].name, "helper");
    }

    #[test]
    fn calls_distinguish_methods_paths_and_macros() {
        let p = parsed(
            "fn f(v: &[u8]) {\n\
               free_call();\n\
               v.method_call();\n\
               Qual::assoc_call();\n\
               not_a_macro!(arg);\n\
               if cond(x) { vec![1] }\n\
             }",
        );
        let calls = &p.fns[0].calls;
        let find = |n: &str| calls.iter().find(|c| c.name == n);
        assert!(find("free_call").is_some_and(|c| !c.is_method && c.qualifier.is_none()));
        assert!(find("method_call").is_some_and(|c| c.is_method));
        assert!(
            find("assoc_call").is_some_and(|c| c.qualifier.as_deref() == Some("Qual")),
            "{calls:?}"
        );
        assert!(find("not_a_macro").is_none(), "macros are not calls");
        assert!(find("if").is_none(), "keywords are not calls");
        assert!(find("cond").is_some());
    }

    #[test]
    fn nested_fn_calls_attribute_to_innermost() {
        let p = parsed("fn outer() {\n  fn inner() { deep(); }\n  shallow();\n}");
        let outer = p.fns.iter().find(|f| f.name == "outer").expect("outer");
        let inner = p.fns.iter().find(|f| f.name == "inner").expect("inner");
        assert_eq!(
            outer.calls.iter().map(|c| &c.name).collect::<Vec<_>>(),
            ["shallow"]
        );
        assert_eq!(
            inner.calls.iter().map(|c| &c.name).collect::<Vec<_>>(),
            ["deep"]
        );
    }

    #[test]
    fn a_fn_nested_in_a_method_is_scoped_not_a_method() {
        let p = parsed(
            "impl Act {\n  fn apply(&self) {\n    fn run() {}\n    run();\n  }\n}\n\
             fn outer() { struct S; impl S { fn m(&self) {} } }",
        );
        let by_name = |n: &str| p.fns.iter().find(|f| f.name == n).expect("fn parsed");
        let (apply, run) = (by_name("apply"), by_name("run"));
        assert_eq!(apply.impl_type.as_deref(), Some("Act"));
        assert_eq!(apply.scope, None);
        assert_eq!(run.impl_type, None, "a nested fn is not a method");
        assert_eq!(run.scope, apply.body);
        // An `impl` inside a body is the innermost container of its fns.
        assert_eq!(by_name("m").impl_type.as_deref(), Some("S"));
        assert_eq!(by_name("m").scope, None);
    }

    #[test]
    fn turbofish_calls_are_calls() {
        let p = parsed(
            "fn f(a: &[f64]) { tile::<8>(a); Self::g::<u8, Vec<u8>>(a); let x: T = y::<T>; }",
        );
        let calls = &p.fns[0].calls;
        let names: Vec<&str> = calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["tile", "g"], "{calls:?}");
        assert_eq!(calls[1].qualifier.as_deref(), Some("Self"));
        let toks = lex("fn f(a: &[f64]) { tile::<8>(a); }").0;
        let call = &parse(&toks).fns[0].calls[0];
        assert_eq!(toks[call.open_paren].text, "(");
        assert_eq!(call.open_paren, call.name_tok + 5);
    }

    #[test]
    fn get_or_init_arguments_are_once_inits() {
        let p = parsed("fn f(&self) -> &[u8] { let n = len(); self.m.get_or_init(|| build()) }");
        let f = &p.fns[0];
        let tok = |name: &str| {
            f.calls
                .iter()
                .find(|c| c.name == name)
                .expect("call")
                .name_tok
        };
        assert!(f.in_once_init(tok("build")));
        assert!(!f.in_once_init(tok("len")));
        assert!(!f.in_once_init(tok("get_or_init")));
    }

    #[test]
    fn match_arms_with_guards_blocks_and_nesting() {
        let p = parsed(
            "fn f(m: M) {\n\
               match m {\n\
                 M::A { x } if x > 0 => handle(x),\n\
                 M::B(inner) => match inner { 0 => {} _ => other() },\n\
                 _ => {\n   fallback();\n }\n\
               }\n\
             }",
        );
        assert_eq!(p.matches.len(), 2, "outer and nested");
        let outer = &p.matches[0];
        assert_eq!(outer.arms.len(), 3, "{outer:?}");
        let nested = &p.matches[1];
        assert_eq!(nested.arms.len(), 2, "{nested:?}");
    }

    #[test]
    fn range_patterns_and_or_patterns_parse() {
        let p = parsed("fn f(x: u8) { match x { 0..=9 | 20 => a(), _ => b(), } }");
        assert_eq!(p.matches[0].arms.len(), 2);
    }
}
