//! Workspace function table, conservative call graph, and reachability.
//!
//! Built on [`crate::items`]: every `fn` in the workspace becomes a node;
//! call sites are extracted from its body tokens and resolved *by name* —
//! there is no type inference, so a method call `.update(...)` resolves to
//! every in-scope function named `update`. Two things keep that
//! conservatism from drowning the lints in false edges:
//!
//! 1. **Receiver scoping**: `Type::name(...)` resolves only within `Type`'s
//!    impls, and `self.m(...)` prefers methods of the caller's own impl
//!    type when any exist.
//! 2. **Crate scoping**: an edge from crate A to crate B only exists when A
//!    depends on B (transitively, per the workspace `Cargo.toml`s). Without
//!    this, `dolos-core` calling `.update(...)` would acquire a bogus edge
//!    into `dolos-whisper`'s trace generator. An *empty* dependency map
//!    (the fixture default) disables the filter entirely — maximally
//!    conservative.
//!
//! Unresolvable calls (`Vec::new`, `Some(..)`, std methods) produce no
//! edges but their [`Call`] records remain visible to lints — the hot-alloc
//! lint matches allocation calls on the records themselves, not on edges.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::items::{parse_items, parse_params, FileItems, FnItem};
use crate::lexer::{idents_in, matching_close, Token, TokenKind};

/// One file presented to the graph builder.
#[derive(Debug)]
pub struct GraphFile {
    /// The crate the file belongs to (e.g. `dolos-core`).
    pub krate: String,
    /// Repo-relative, `/`-separated path.
    pub path: String,
    /// The file's full token stream.
    pub tokens: Vec<Token>,
    /// Items recovered from those tokens.
    pub items: FileItems,
}

impl GraphFile {
    /// Lexes nothing — wraps an already-lexed token stream, parsing items.
    pub fn new(krate: &str, path: &str, tokens: Vec<Token>) -> Self {
        let items = parse_items(&tokens);
        Self {
            krate: krate.to_string(),
            path: path.to_string(),
            tokens,
            items,
        }
    }
}

/// How a call site names its target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// `name(...)` with no receiver or path qualifier.
    Bare(String),
    /// `recv.name(...)`; the receiver's dot-chain identifiers are in
    /// [`Call::recv`].
    Method(String),
    /// `Type::name(...)` (`Self` already substituted with the impl type).
    Typed(String, String),
}

impl Callee {
    /// The bare function name being called.
    pub fn name(&self) -> &str {
        match self {
            Callee::Bare(n) | Callee::Method(n) | Callee::Typed(_, n) => n,
        }
    }
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// What the site names.
    pub callee: Callee,
    /// 1-based line of the callee name token.
    pub line: u32,
    /// Token index range (into the owning file's stream) strictly inside
    /// the call's parentheses.
    pub args: (usize, usize),
    /// For method calls: the dot-chain identifiers of the receiver, in
    /// source order (`self.aes.encrypt(..)` → `["self", "aes"]`). Empty
    /// when the receiver is a compound expression.
    pub recv: Vec<String>,
    /// Node ids this call resolves to (empty for std/unknown targets).
    pub targets: Vec<usize>,
}

/// One macro invocation inside a function body.
#[derive(Debug, Clone)]
pub struct MacroUse {
    /// The macro name (`format`, `vec`, `assert`, ...).
    pub name: String,
    /// 1-based line of the name token.
    pub line: u32,
    /// Token index range strictly inside the macro's delimiters.
    pub args: (usize, usize),
}

/// One function in the workspace graph.
#[derive(Debug)]
pub struct FnNode {
    /// Index into the `GraphFile` slice the graph was built from.
    pub file: usize,
    /// The owning crate.
    pub krate: String,
    /// The owning file path.
    pub path: String,
    /// The parsed item (name, impl context, token ranges).
    pub item: FnItem,
    /// `(name, type_identifiers)` per named parameter (`self` excluded).
    pub params: Vec<(String, Vec<String>)>,
    /// Call sites in this function's own body (nested fns excluded).
    pub calls: Vec<Call>,
    /// Macro invocations in this function's own body.
    pub macros: Vec<MacroUse>,
}

/// The workspace call graph.
#[derive(Debug)]
pub struct Graph {
    /// All function nodes, in (file, source) order.
    pub nodes: Vec<FnNode>,
    /// Deduplicated resolved callee node ids per node.
    pub edges: Vec<Vec<usize>>,
}

/// Reachability from a root set: membership plus BFS parent pointers.
#[derive(Debug)]
pub struct Reach {
    /// `reached[n]` — node `n` is reachable from some root.
    pub reached: Vec<bool>,
    /// `from[n]` — the BFS predecessor of `n` (`None` for roots/unreached).
    pub from: Vec<Option<usize>>,
}

/// Keywords that can directly precede a `(` without being a call.
const NON_CALL_KEYWORDS: [&str; 21] = [
    "if", "while", "match", "for", "in", "return", "loop", "as", "let", "else", "move", "ref",
    "break", "continue", "where", "unsafe", "await", "fn", "self", "Self", "mut",
];

impl Graph {
    /// Builds the graph over a set of files with a crate-dependency map
    /// (`crate -> direct dependencies`; empty map = allow every edge).
    pub fn build(files: &[GraphFile], crate_deps: &BTreeMap<String, BTreeSet<String>>) -> Graph {
        let mut nodes = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            let owner = token_owners(file, nodes.len());
            let base = nodes.len();
            for item in &file.items.fns {
                nodes.push(FnNode {
                    file: fi,
                    krate: file.krate.clone(),
                    path: file.path.clone(),
                    item: item.clone(),
                    params: parse_params(&file.tokens, item.signature),
                    calls: Vec::new(),
                    macros: Vec::new(),
                });
            }
            for local in 0..file.items.fns.len() {
                let id = base + local;
                let (calls, macros) = extract_calls(file, &owner, id, &nodes[id].item);
                nodes[id].calls = calls;
                nodes[id].macros = macros;
            }
        }

        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (id, n) in nodes.iter().enumerate() {
            by_name.entry(n.item.name.clone()).or_default().push(id);
        }
        let closure = dep_closure(crate_deps);

        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        for id in 0..nodes.len() {
            let mut resolved_per_call: Vec<Vec<usize>> = Vec::with_capacity(nodes[id].calls.len());
            let mut all: BTreeSet<usize> = BTreeSet::new();
            for call in &nodes[id].calls {
                let targets = resolve(&nodes, &by_name, &closure, id, call);
                all.extend(targets.iter().copied());
                resolved_per_call.push(targets);
            }
            for (call, targets) in nodes[id].calls.iter_mut().zip(resolved_per_call) {
                call.targets = targets;
            }
            edges[id] = all.into_iter().collect();
        }
        Graph { nodes, edges }
    }

    /// Node ids whose function matches any `Type::name` / `name` pattern.
    pub fn resolve_roots(&self, patterns: &[String]) -> Vec<usize> {
        let mut out = Vec::new();
        for (id, n) in self.nodes.iter().enumerate() {
            if patterns.iter().any(|p| n.item.matches(p)) {
                out.push(id);
            }
        }
        out
    }

    /// BFS over call edges from the given roots.
    pub fn reachable(&self, roots: &[usize]) -> Reach {
        let mut reached = vec![false; self.nodes.len()];
        let mut from = vec![None; self.nodes.len()];
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &r in roots {
            if !reached[r] {
                reached[r] = true;
                queue.push_back(r);
            }
        }
        while let Some(n) = queue.pop_front() {
            for &m in &self.edges[n] {
                if !reached[m] {
                    reached[m] = true;
                    from[m] = Some(n);
                    queue.push_back(m);
                }
            }
        }
        Reach { reached, from }
    }

    /// The qualified-name call path from a root to `node` (root first),
    /// following BFS parents. Empty if `node` is unreached.
    pub fn call_path(&self, reach: &Reach, node: usize) -> Vec<String> {
        if !reach.reached[node] {
            return Vec::new();
        }
        let mut path = vec![self.nodes[node].item.qualified()];
        let mut cur = node;
        while let Some(p) = reach.from[cur] {
            path.push(self.nodes[p].item.qualified());
            cur = p;
        }
        path.reverse();
        path
    }

    /// Identifier texts in a call/macro argument token range.
    pub fn arg_idents<'a>(
        &self,
        files: &'a [GraphFile],
        node: usize,
        range: (usize, usize),
    ) -> Vec<&'a str> {
        idents_in(&files[self.nodes[node].file].tokens, range.0, range.1)
    }

    /// Whether the token sequence `self . <field>` (for any `field` in the
    /// given set) occurs in a call/macro argument range of `node`.
    pub fn args_mention_self_field(
        &self,
        files: &[GraphFile],
        node: usize,
        range: (usize, usize),
        fields: &BTreeSet<String>,
    ) -> Option<String> {
        let tokens = &files[self.nodes[node].file].tokens;
        let (lo, hi) = range;
        let hi = hi.min(tokens.len());
        for j in lo..hi.saturating_sub(2) {
            if tokens[j].kind == TokenKind::Ident
                && tokens[j].text == "self"
                && tokens[j + 1].is_punct(".")
                && tokens[j + 2].kind == TokenKind::Ident
                && fields.contains(&tokens[j + 2].text)
            {
                return Some(tokens[j + 2].text.clone());
            }
        }
        None
    }
}

/// Assigns each token index to the function that owns it. Parents are
/// parsed before their nested fns, so later (inner) items overwrite: a
/// nested fn's tokens belong to the nested fn, not the enclosing one.
fn token_owners(file: &GraphFile, base: usize) -> Vec<usize> {
    let mut owner = vec![usize::MAX; file.tokens.len()];
    for (local, f) in file.items.fns.iter().enumerate() {
        // From the `fn` keyword (two tokens before the signature) through
        // the body close brace; bodiless items own just their signature.
        let start = f.signature.0.saturating_sub(2);
        let stop = if f.body == (0, 0) {
            f.signature.1
        } else {
            f.body.1
        };
        for t in owner
            .iter_mut()
            .take((stop + 1).min(file.tokens.len()))
            .skip(start)
        {
            *t = base + local;
        }
    }
    owner
}

/// Extracts the call sites and macro uses owned by node `id`.
fn extract_calls(
    file: &GraphFile,
    owner: &[usize],
    id: usize,
    item: &FnItem,
) -> (Vec<Call>, Vec<MacroUse>) {
    let mut calls = Vec::new();
    let mut macros = Vec::new();
    if item.body == (0, 0) {
        return (calls, macros);
    }
    let tokens = &file.tokens;
    // Positions inside the body interior that this fn owns (nested fn
    // tokens are excluded by ownership).
    let own: Vec<usize> = (item.body.0 + 1..item.body.1.min(tokens.len()))
        .filter(|&j| owner[j] == id)
        .collect();
    for (k, &ti) in own.iter().enumerate() {
        let t = &tokens[ti];
        if t.kind != TokenKind::Ident || NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        let next_is = |p: &str| own.get(k + 1).is_some_and(|&j| tokens[j].is_punct(p));
        if next_is("!") {
            // Macro invocation: `name ! ( .. )` / `[ .. ]` / `{ .. }`.
            if let Some(&dj) = own.get(k + 2) {
                if ["(", "[", "{"].iter().any(|d| tokens[dj].is_punct(d)) {
                    let close = matching_close(tokens, dj, tokens.len());
                    macros.push(MacroUse {
                        name: t.text.clone(),
                        line: t.line,
                        args: (dj + 1, close),
                    });
                }
            }
            continue;
        }
        if !next_is("(") {
            continue;
        }
        let open = own[k + 1];
        let close = matching_close(tokens, open, tokens.len());
        let prev = |back: usize| k.checked_sub(back).map(|p| &tokens[own[p]]);
        let is_p = |t: Option<&Token>, p: &str| t.is_some_and(|t| t.is_punct(p));
        let callee = if is_p(prev(1), ".") {
            // Method call: walk the receiver dot-chain backwards.
            let mut recv = Vec::new();
            let mut p = k as isize - 2;
            while p >= 0 {
                let rt = &tokens[own[p as usize]];
                if rt.kind != TokenKind::Ident {
                    break;
                }
                recv.push(rt.text.clone());
                if p >= 2 && tokens[own[(p - 1) as usize]].is_punct(".") {
                    p -= 2;
                } else {
                    break;
                }
            }
            recv.reverse();
            calls.push(Call {
                callee: Callee::Method(t.text.clone()),
                line: t.line,
                args: (open + 1, close),
                recv,
                targets: Vec::new(),
            });
            continue;
        } else if is_p(prev(1), ":") && is_p(prev(2), ":") {
            match prev(3) {
                Some(ty) if ty.kind == TokenKind::Ident => {
                    let ty_name = if ty.text == "Self" {
                        item.impl_type.clone().unwrap_or_else(|| "Self".into())
                    } else {
                        ty.text.clone()
                    };
                    Callee::Typed(ty_name, t.text.clone())
                }
                // `<T as Trait>::f(..)`, turbofish tails: resolve by name.
                _ => Callee::Method(t.text.clone()),
            }
        } else {
            Callee::Bare(t.text.clone())
        };
        calls.push(Call {
            callee,
            line: t.line,
            args: (open + 1, close),
            recv: Vec::new(),
            targets: Vec::new(),
        });
    }
    (calls, macros)
}

/// Transitive closure of the crate dependency map.
fn dep_closure(direct: &BTreeMap<String, BTreeSet<String>>) -> BTreeMap<String, BTreeSet<String>> {
    let mut closure = BTreeMap::new();
    for (krate, deps) in direct {
        let mut seen = BTreeSet::new();
        let mut stack: Vec<&String> = deps.iter().collect();
        while let Some(dep) = stack.pop() {
            if seen.insert(dep.clone()) {
                stack.extend(direct.get(dep).into_iter().flatten());
            }
        }
        closure.insert(krate.clone(), seen);
    }
    closure
}

/// Resolves one call site to candidate node ids.
fn resolve(
    nodes: &[FnNode],
    by_name: &BTreeMap<String, Vec<usize>>,
    closure: &BTreeMap<String, BTreeSet<String>>,
    caller: usize,
    call: &Call,
) -> Vec<usize> {
    let name = call.callee.name();
    let Some(candidates) = by_name.get(name) else {
        return Vec::new();
    };
    let caller_crate = &nodes[caller].krate;
    let in_scope = |id: &usize| {
        if closure.is_empty() {
            return true;
        }
        let callee_crate = &nodes[*id].krate;
        callee_crate == caller_crate
            || closure
                .get(caller_crate)
                .is_some_and(|deps| deps.contains(callee_crate))
    };
    match &call.callee {
        Callee::Typed(ty, _) => candidates
            .iter()
            .filter(|id| nodes[**id].item.impl_type.as_deref() == Some(ty))
            .filter(|id| in_scope(id))
            .copied()
            .collect(),
        Callee::Method(_) => {
            // `self.m(..)`: prefer the caller's own impl type when it has a
            // method of that name; otherwise any in-scope fn named `m`.
            if call.recv.first().map(String::as_str) == Some("self") {
                if let Some(ty) = &nodes[caller].item.impl_type {
                    let same_impl: Vec<usize> = candidates
                        .iter()
                        .filter(|id| nodes[**id].item.impl_type.as_deref() == Some(ty.as_str()))
                        .filter(|id| in_scope(id))
                        .copied()
                        .collect();
                    // Only narrow for plain `self.m(..)`; `self.field.m(..)`
                    // dispatches on the field's type, which we don't know.
                    if call.recv.len() == 1 && !same_impl.is_empty() {
                        return same_impl;
                    }
                }
            }
            candidates
                .iter()
                .filter(|id| in_scope(id))
                .copied()
                .collect()
        }
        Callee::Bare(_) => candidates
            .iter()
            .filter(|id| nodes[**id].item.impl_type.is_none())
            .filter(|id| in_scope(id))
            .copied()
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn file(krate: &str, path: &str, src: &str) -> GraphFile {
        GraphFile::new(krate, path, lex(src).tokens)
    }

    fn names(g: &Graph, ids: &[usize]) -> Vec<String> {
        ids.iter().map(|&i| g.nodes[i].item.qualified()).collect()
    }

    #[test]
    fn bare_and_typed_calls_resolve() {
        let f = file(
            "a",
            "a/src/lib.rs",
            "fn helper() {}\n\
             impl W { fn m(&self) { helper(); W::m2(); self.m2(); } fn m2(&self) {} }",
        );
        let g = Graph::build(std::slice::from_ref(&f), &BTreeMap::new());
        let m = g.resolve_roots(&["W::m".into()]);
        assert_eq!(m.len(), 1);
        let mut callees = names(&g, &g.edges[m[0]]);
        callees.sort();
        assert_eq!(callees, vec!["W::m2", "helper"]);
    }

    #[test]
    fn self_method_prefers_own_impl() {
        let f = file(
            "a",
            "a/src/lib.rs",
            "impl A { fn go(&self) { self.step(); } fn step(&self) {} }\n\
             impl B { fn step(&self) {} }",
        );
        let g = Graph::build(std::slice::from_ref(&f), &BTreeMap::new());
        let go = g.resolve_roots(&["A::go".into()])[0];
        assert_eq!(names(&g, &g.edges[go]), vec!["A::step"]);
    }

    #[test]
    fn field_method_stays_conservative() {
        let f = file(
            "a",
            "a/src/lib.rs",
            "impl A { fn go(&self) { self.inner.step(); } fn step(&self) {} }\n\
             impl B { fn step(&self) {} }",
        );
        let g = Graph::build(std::slice::from_ref(&f), &BTreeMap::new());
        let go = g.resolve_roots(&["A::go".into()])[0];
        let mut callees = names(&g, &g.edges[go]);
        callees.sort();
        assert_eq!(callees, vec!["A::step", "B::step"]);
    }

    #[test]
    fn crate_scoping_blocks_non_dependency_edges() {
        let fa = file("core", "core/src/lib.rs", "fn go() { update(1); }");
        let fb = file("whisper", "whisper/src/lib.rs", "fn update(x: u32) {}");
        let fc = file("crypto", "crypto/src/lib.rs", "fn update(x: u32) {}");
        let mut deps = BTreeMap::new();
        deps.insert("core".to_string(), BTreeSet::from(["crypto".to_string()]));
        deps.insert("whisper".to_string(), BTreeSet::new());
        deps.insert("crypto".to_string(), BTreeSet::new());
        let g = Graph::build(&[fa, fb, fc], &deps);
        let go = g.resolve_roots(&["go".into()])[0];
        let callees: Vec<String> = g.edges[go]
            .iter()
            .map(|&i| g.nodes[i].krate.clone())
            .collect();
        assert_eq!(callees, vec!["crypto"]);
    }

    #[test]
    fn reachability_and_paths_cross_files() {
        let fa = file("a", "a/src/main.rs", "fn root() { mid(); }");
        let fb = file("a", "a/src/mid.rs", "fn mid() { leaf(); } fn lonely() {}");
        let fc = file("a", "a/src/leaf.rs", "fn leaf() {}");
        let g = Graph::build(&[fa, fb, fc], &BTreeMap::new());
        let roots = g.resolve_roots(&["root".into()]);
        let reach = g.reachable(&roots);
        let leaf = g.resolve_roots(&["leaf".into()])[0];
        let lonely = g.resolve_roots(&["lonely".into()])[0];
        assert!(reach.reached[leaf]);
        assert!(!reach.reached[lonely]);
        assert_eq!(g.call_path(&reach, leaf), vec!["root", "mid", "leaf"]);
    }

    #[test]
    fn nested_fn_calls_are_not_attributed_to_parent() {
        let f = file(
            "a",
            "a/src/lib.rs",
            "fn parent() { fn child() { danger(); } child(); }\nfn danger() {}",
        );
        let g = Graph::build(std::slice::from_ref(&f), &BTreeMap::new());
        let parent = g.resolve_roots(&["parent".into()])[0];
        let direct = names(&g, &g.edges[parent]);
        assert_eq!(direct, vec!["child"]);
        // ...but danger is still transitively reachable through child.
        let reach = g.reachable(&[parent]);
        let danger = g.resolve_roots(&["danger".into()])[0];
        assert!(reach.reached[danger]);
    }

    #[test]
    fn macros_and_method_receivers_are_recorded() {
        let f = file(
            "a",
            "a/src/lib.rs",
            "impl T { fn go(&self, key: u8) { format!(\"{:?}\", key); self.aes.encrypt(key); } }",
        );
        let g = Graph::build(std::slice::from_ref(&f), &BTreeMap::new());
        let go = g.resolve_roots(&["T::go".into()])[0];
        let n = &g.nodes[go];
        assert_eq!(n.macros.len(), 1);
        assert_eq!(n.macros[0].name, "format");
        assert_eq!(
            g.arg_idents(std::slice::from_ref(&f), go, n.macros[0].args),
            vec!["key"]
        );
        let enc = n
            .calls
            .iter()
            .find(|c| c.callee == Callee::Method("encrypt".into()))
            .unwrap();
        assert_eq!(enc.recv, vec!["self", "aes"]);
        assert_eq!(
            g.arg_idents(std::slice::from_ref(&f), go, enc.args),
            vec!["key"]
        );
    }

    #[test]
    fn keywords_before_parens_are_not_calls() {
        let f = file(
            "a",
            "a/src/lib.rs",
            "fn go(x: u8) { if (x > 0) {} match (x, x) { _ => {} } while (x < 1) {} }",
        );
        let g = Graph::build(std::slice::from_ref(&f), &BTreeMap::new());
        let go = g.resolve_roots(&["go".into()])[0];
        assert!(g.nodes[go].calls.is_empty());
    }

    #[test]
    fn params_are_parsed_with_type_idents() {
        let f = file(
            "a",
            "a/src/lib.rs",
            "fn go(key: &Aes128, n: usize, opt: Option<MacEngine>) {}",
        );
        let g = Graph::build(std::slice::from_ref(&f), &BTreeMap::new());
        let go = g.resolve_roots(&["go".into()])[0];
        let p = &g.nodes[go].params;
        assert_eq!(p[0], ("key".into(), vec!["Aes128".into()]));
        assert_eq!(p[2].1, vec!["Option".to_string(), "MacEngine".to_string()]);
    }
}
