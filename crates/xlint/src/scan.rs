//! Token-level structural scan of one cleaned source file.
//!
//! Produces everything the lints consume: a token stream with line
//! numbers, the enclosing-item symbol of every token (`Type::method`,
//! `tests::case`, …), loop extents, `unsafe` occurrences, `Ordering::*`
//! sites, `.suspend(` closure extents, and locally-defined function
//! bodies (for the one-level call expansion of the suspend-purity lint).

use crate::lexer::{clean_lines, CleanLine};

/// One lexical token of cleaned code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// An identifier / keyword / number.
    Ident(String),
    /// Any single non-identifier, non-space character.
    Punct(char),
}

/// A token plus its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// The token.
    pub tok: Tok,
    /// 1-based source line.
    pub line: usize,
}

impl Token {
    fn ident(&self) -> Option<&str> {
        match &self.tok {
            Tok::Ident(s) => Some(s.as_str()),
            Tok::Punct(_) => None,
        }
    }

    fn punct(&self) -> Option<char> {
        match &self.tok {
            Tok::Ident(_) => None,
            Tok::Punct(c) => Some(*c),
        }
    }
}

/// A `while`/`loop` extent (token indices, inclusive start / exclusive
/// end of the body; the condition range is empty for `loop`).
#[derive(Debug, Clone)]
pub struct LoopExtent {
    /// Line of the `while`/`loop` keyword.
    pub line: usize,
    /// Token range of the `while` condition (empty for `loop`).
    pub cond: (usize, usize),
    /// Token range of the body (inside the braces).
    pub body: (usize, usize),
}

/// A `.suspend(…)` call: the token range of its argument list (the
/// closure), and the closure's parameter name when one could be parsed.
#[derive(Debug, Clone)]
pub struct SuspendCall {
    /// Line of the `.suspend(` call.
    pub line: usize,
    /// Token range inside the parentheses.
    pub args: (usize, usize),
    /// The closure's parameter name (`nt`, `_nt`, …), if parseable.
    pub param: Option<String>,
}

/// One `Ordering::X` occurrence.
#[derive(Debug, Clone)]
pub struct OrderingSite {
    /// 1-based source line.
    pub line: usize,
    /// `SeqCst`, `AcqRel`, `Acquire`, `Release`, or `Relaxed`.
    pub ordering: String,
    /// Enclosing item path (`Type::method`, `tests::case`, …).
    pub symbol: String,
}

/// The full structural scan of one file.
pub struct FileScan {
    /// Cleaned lines (code + comment split).
    pub lines: Vec<CleanLine>,
    /// Token stream.
    pub tokens: Vec<Token>,
    /// Enclosing symbol per token (index-parallel with `tokens`).
    pub symbols: Vec<String>,
    /// All `Ordering::X` occurrences.
    pub ordering_sites: Vec<OrderingSite>,
    /// Lines holding an `unsafe` keyword (block, fn, impl, or trait).
    pub unsafe_lines: Vec<usize>,
    /// `while`/`loop` extents.
    pub loops: Vec<LoopExtent>,
    /// `.suspend(…)` calls.
    pub suspends: Vec<SuspendCall>,
    /// Token ranges of the bodies of functions defined in this file,
    /// keyed by bare function name (last definition wins).
    pub fn_bodies: Vec<(String, (usize, usize))>,
}

const ORDERINGS: [&str; 5] = ["SeqCst", "AcqRel", "Acquire", "Release", "Relaxed"];

/// Tokenizes cleaned code lines.
fn tokenize(lines: &[CleanLine]) -> Vec<Token> {
    let mut out = Vec::new();
    for (li, l) in lines.iter().enumerate() {
        let line = li + 1;
        let mut ident = String::new();
        for c in l.code.chars() {
            if c.is_alphanumeric() || c == '_' {
                ident.push(c);
            } else {
                if !ident.is_empty() {
                    out.push(Token {
                        tok: Tok::Ident(std::mem::take(&mut ident)),
                        line,
                    });
                }
                if !c.is_whitespace() {
                    out.push(Token {
                        tok: Tok::Punct(c),
                        line,
                    });
                }
            }
        }
        if !ident.is_empty() {
            out.push(Token {
                tok: Tok::Ident(ident),
                line,
            });
        }
    }
    out
}

#[derive(Debug)]
struct Item {
    name: String,
    /// Brace depth *after* this item's `{` was entered.
    open_depth: u32,
    is_fn: bool,
    /// Token index of the first body token (for fn-body capture).
    body_start: usize,
}

/// Scans `source`, producing the structural summary.
pub fn scan_source(source: &str) -> FileScan {
    let lines = clean_lines(source);
    let tokens = tokenize(&lines);
    let mut symbols = vec![String::new(); tokens.len()];
    let mut ordering_sites = Vec::new();
    let mut unsafe_lines = Vec::new();
    let mut fn_bodies = Vec::new();

    let mut stack: Vec<Item> = Vec::new();
    let mut depth: u32 = 0;
    // An item header seen but whose `{` has not arrived yet:
    // (name, is_fn).
    let mut pending: Option<(String, bool)> = None;

    for i in 0..tokens.len() {
        symbols[i] = stack
            .iter()
            .map(|it| it.name.as_str())
            .collect::<Vec<_>>()
            .join("::");
        match &tokens[i].tok {
            Tok::Ident(w) => match w.as_str() {
                "fn" if pending.is_none() => {
                    // `fn name` — but not fn-pointer types `fn(…)`.
                    if let Some(name) = tokens.get(i + 1).and_then(|t| t.ident()) {
                        pending = Some((name.to_string(), true));
                    }
                }
                "mod" | "trait" if pending.is_none() => {
                    if let Some(name) = tokens.get(i + 1).and_then(|t| t.ident()) {
                        pending = Some((name.to_string(), false));
                    }
                }
                "impl" if pending.is_none() => {
                    if let Some(name) = impl_target_name(&tokens, i) {
                        pending = Some((name, false));
                    }
                }
                "unsafe" if unsafe_lines.last().is_none_or(|&l| l != tokens[i].line) => {
                    unsafe_lines.push(tokens[i].line);
                }
                // `Ordering :: X`
                "Ordering"
                    if tokens.get(i + 1).and_then(|t| t.punct()) == Some(':')
                        && tokens.get(i + 2).and_then(|t| t.punct()) == Some(':') =>
                {
                    if let Some(ord) = tokens.get(i + 3).and_then(|t| t.ident()) {
                        if ORDERINGS.contains(&ord) {
                            ordering_sites.push(OrderingSite {
                                line: tokens[i].line,
                                ordering: ord.to_string(),
                                symbol: symbols[i].clone(),
                            });
                        }
                    }
                }
                _ => {}
            },
            Tok::Punct('{') => {
                depth += 1;
                if let Some((name, is_fn)) = pending.take() {
                    stack.push(Item {
                        name,
                        open_depth: depth,
                        is_fn,
                        body_start: i + 1,
                    });
                }
            }
            Tok::Punct('}') => {
                if stack.last().is_some_and(|it| it.open_depth == depth) {
                    let it = stack.pop().expect("stack non-empty");
                    if it.is_fn {
                        fn_bodies.push((it.name, (it.body_start, i)));
                    }
                }
                depth = depth.saturating_sub(1);
            }
            Tok::Punct(';') => {
                // A body-less declaration (`fn f();` in a trait).
                pending = None;
            }
            _ => {}
        }
    }

    let loops = find_loops(&tokens);
    let suspends = find_suspends(&tokens);

    FileScan {
        lines,
        tokens,
        symbols,
        ordering_sites,
        unsafe_lines,
        loops,
        suspends,
        fn_bodies,
    }
}

/// Name of the type an `impl` block targets: `impl Foo` → Foo,
/// `impl<T> Trait for a::b::Foo<T>` → Foo.
fn impl_target_name(tokens: &[Token], impl_idx: usize) -> Option<String> {
    // Collect tokens until the opening `{` (or give up at `;`/EOF),
    // skipping a leading generic parameter list.
    let mut j = impl_idx + 1;
    if tokens.get(j).and_then(|t| t.punct()) == Some('<') {
        let mut angle = 1;
        j += 1;
        while j < tokens.len() && angle > 0 {
            match tokens[j].punct() {
                Some('<') => angle += 1,
                Some('>') => angle -= 1,
                _ => {}
            }
            j += 1;
        }
    }
    let start = j;
    let mut for_pos = None;
    while j < tokens.len() {
        match &tokens[j].tok {
            Tok::Punct('{') => break,
            Tok::Punct(';') => return None,
            Tok::Ident(w) if w == "for" => for_pos = Some(j),
            Tok::Ident(w) if w == "where" => break,
            _ => {}
        }
        j += 1;
    }
    let path_start = for_pos.map_or(start, |p| p + 1);
    // The target name is the last plain identifier of the path before
    // any generic arguments: walk idents separated by `::`.
    let mut name = None;
    let mut k = path_start;
    while k < j {
        match &tokens[k].tok {
            Tok::Ident(w) => {
                name = Some(w.clone());
                k += 1;
            }
            Tok::Punct(':') => k += 1,
            Tok::Punct('&') | Tok::Punct('\'') => k += 1,
            _ => break,
        }
    }
    name
}

/// Finds the token index of the brace matching an opening `{` at `open`.
fn match_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        match t.punct() {
            Some('{') => depth += 1,
            Some('}') => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    tokens.len().saturating_sub(1)
}

/// Finds the token index of the `)` matching an opening `(` at `open`.
fn match_paren(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        match t.punct() {
            Some('(') => depth += 1,
            Some(')') => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    tokens.len().saturating_sub(1)
}

fn find_loops(tokens: &[Token]) -> Vec<LoopExtent> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        match tokens[i].ident() {
            Some("while") => {
                // Condition runs to the `{` at bracket depth zero.
                let mut j = i + 1;
                let mut paren = 0i32;
                while j < tokens.len() {
                    match tokens[j].punct() {
                        Some('(') | Some('[') => paren += 1,
                        Some(')') | Some(']') => paren -= 1,
                        Some('{') if paren == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                if j < tokens.len() {
                    let close = match_brace(tokens, j);
                    out.push(LoopExtent {
                        line: tokens[i].line,
                        cond: (i + 1, j),
                        body: (j + 1, close),
                    });
                }
            }
            Some("loop") if tokens.get(i + 1).and_then(|t| t.punct()) == Some('{') => {
                let close = match_brace(tokens, i + 1);
                out.push(LoopExtent {
                    line: tokens[i].line,
                    cond: (i + 1, i + 1),
                    body: (i + 2, close),
                });
            }
            _ => {}
        }
    }
    out
}

fn find_suspends(tokens: &[Token]) -> Vec<SuspendCall> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if tokens[i].punct() == Some('.')
            && tokens.get(i + 1).and_then(|t| t.ident()) == Some("suspend")
            && tokens.get(i + 2).and_then(|t| t.punct()) == Some('(')
        {
            let close = match_paren(tokens, i + 2);
            let args = (i + 3, close);
            // Closure parameter: the first identifier between the first
            // pair of `|`s.
            let mut param = None;
            let mut k = args.0;
            while k < args.1 {
                if tokens[k].punct() == Some('|') {
                    let mut m = k + 1;
                    while m < args.1 && tokens[m].punct() != Some('|') {
                        if let Some(w) = tokens[m].ident() {
                            param = Some(w.to_string());
                            break;
                        }
                        m += 1;
                    }
                    break;
                }
                k += 1;
            }
            out.push(SuspendCall {
                line: tokens[i + 1].line,
                args,
                param,
            });
        }
    }
    out
}

/// True when tokens `[at..end]` begin with the method-call pattern
/// `.name(`.
pub fn is_method_call(tokens: &[Token], at: usize, name: &str) -> bool {
    tokens[at].punct() == Some('.')
        && tokens.get(at + 1).and_then(|t| t.ident()) == Some(name)
        && tokens.get(at + 2).and_then(|t| t.punct()) == Some('(')
}

/// True when any `.name(` call occurs within the token range.
pub fn range_has_method_call(tokens: &[Token], range: (usize, usize), name: &str) -> bool {
    (range.0..range.1.min(tokens.len())).any(|i| is_method_call(tokens, i, name))
}

/// True when any bare `name(` call occurs within the token range.
pub fn range_has_call(tokens: &[Token], range: (usize, usize), name: &str) -> bool {
    (range.0..range.1.min(tokens.len())).any(|i| {
        tokens[i].ident() == Some(name) && tokens.get(i + 1).and_then(|t| t.punct()) == Some('(')
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbols_are_qualified() {
        let src = "impl Foo { fn bar(&self) { x.load(Ordering::SeqCst); } }\n\
                   mod tests { fn baz() { y.store(0, Ordering::Relaxed); } }";
        let s = scan_source(src);
        assert_eq!(s.ordering_sites.len(), 2);
        assert_eq!(s.ordering_sites[0].symbol, "Foo::bar");
        assert_eq!(s.ordering_sites[0].ordering, "SeqCst");
        assert_eq!(s.ordering_sites[1].symbol, "tests::baz");
    }

    #[test]
    fn impl_for_takes_the_type() {
        let src =
            "impl<'a> Drop for Guard<'a> { fn drop(&mut self) { a.load(Ordering::Acquire); } }";
        let s = scan_source(src);
        assert_eq!(s.ordering_sites[0].symbol, "Guard::drop");
    }

    #[test]
    fn return_position_impl_does_not_shadow_fn() {
        let src =
            "fn mk() -> impl Iterator<Item = u8> { q.load(Ordering::Relaxed); std::iter::empty() }";
        let s = scan_source(src);
        assert_eq!(s.ordering_sites[0].symbol, "mk");
    }

    #[test]
    fn loops_and_conditions() {
        let src =
            "fn f() { while x.load(Ordering::Acquire) != 0 { bo.snooze(); } loop { y(); break; } }";
        let s = scan_source(src);
        assert_eq!(s.loops.len(), 2);
        let w = &s.loops[0];
        assert!((w.cond.0..w.cond.1).any(|i| is_method_call(&s.tokens, i, "load")));
        assert!(range_has_method_call(&s.tokens, w.body, "snooze"));
    }

    #[test]
    fn suspend_param_is_parsed() {
        let src = "fn f(tx: &mut Tx) { tx.suspend(|_nt| { _nt.write(a, 1); }); }";
        let s = scan_source(src);
        assert_eq!(s.suspends.len(), 1);
        assert_eq!(s.suspends[0].param.as_deref(), Some("_nt"));
    }

    #[test]
    fn fn_bodies_are_captured() {
        let src = "fn helper() { danger(); }\nfn main2() { helper(); }";
        let s = scan_source(src);
        assert!(s.fn_bodies.iter().any(|(n, _)| n == "helper"));
    }
}
