//! Interprocedural lints over the workspace call graph.
//!
//! Three lints run here, all built on [`crate::graph`]:
//!
//! - **secret-flow** — key-bearing types (`Aes128`, `MacEngine`, their
//!   round-key fields) must never reach formatting/serialization sinks.
//!   Structurally: no `derive(Debug)`/`derive(Serialize)` on a secret type
//!   and no formatting impl for one outside the sanctioned redacted-Debug
//!   files. Flow-wise: no secret-typed parameter or `self.<secret-field>`
//!   may appear in a format-family macro, as a serialization-method
//!   receiver, or as an argument to any function that (transitively) feeds
//!   a parameter into formatting.
//! - **hot-alloc** — no allocating call (`Vec::new`/`vec!`/`to_vec`/
//!   `clone`/`Box::new`/`format!`/`String::from`/`Vec::with_capacity`) in
//!   any function reachable from the configured critical-path roots. The
//!   finding message carries the BFS call path from the root so the report
//!   explains *why* a function is considered hot.
//! - **persistence-domain** (call-graph form) — a direct `NvmDevice` write
//!   call is only legal inside the device itself or in a function
//!   reachable from the controller's drain/persist/crash/recover entry
//!   points; everything else is a WPQ bypass.
//!
//! False-positive policy: resolution is name-based and edges are
//! *over*-approximated (see [`crate::graph`]), so reachability-based lints
//! may consider too much code hot/sanctioned, never too little hot code.
//! The secret-flow interprocedural step deliberately excludes the
//! assert/panic macro families from its "formats a parameter" base — an
//! `assert!(buf.len() >= n)` guard would otherwise mark every pad helper
//! as a formatter and flag each key pass-through.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::{
    Config, DEVICE_WRITE_METHODS, LINT_HOT_ALLOC, LINT_PERSISTENCE_DOMAIN, LINT_SECRET_FLOW,
};
use crate::graph::{Callee, Graph, GraphFile};
use crate::report::Finding;

/// Format-family macros: sinks when a secret appears directly in their
/// arguments, and their use with a *parameter* marks a function as "formats
/// a parameter" for the interprocedural step.
const FORMAT_MACROS: [&str; 7] = [
    "format", "print", "println", "eprint", "eprintln", "write", "writeln",
];

/// Aborting macros: direct sinks too, but excluded from the interprocedural
/// step (as are the assert families): their messages only render on
/// failure, and including them would flag every guard-carrying crypto
/// helper.
const ABORT_MACROS: [&str; 3] = ["panic", "todo", "unimplemented"];

/// Method names that serialize or format their receiver/arguments.
const SINK_METHODS: [&str; 5] = ["to_json", "serialize", "to_string", "fmt", "write_json"];

/// Derives that expose a value's contents through std formatting or
/// serialization machinery.
const LEAKY_DERIVES: [&str; 3] = ["Debug", "Serialize", "Deserialize"];

/// Trait impls that expose a value's contents when hand-written.
const LEAKY_TRAITS: [&str; 3] = ["Debug", "Display", "Serialize"];

/// Calls that allocate; `(type-qualifier, name)` with `None` matching
/// method/bare forms.
const ALLOC_CALLS: [(Option<&str>, &str); 6] = [
    (Some("Vec"), "new"),
    (Some("Vec"), "with_capacity"),
    (Some("Box"), "new"),
    (Some("String"), "from"),
    (None, "to_vec"),
    (None, "clone"),
];

/// Macros that allocate.
const ALLOC_MACROS: [&str; 2] = ["vec", "format"];

/// Runs all graph lints, returning raw (pre-suppression) findings.
pub fn run(files: &[GraphFile], graph: &Graph, config: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    lint_secret_flow(files, graph, config, &mut out);
    lint_hot_alloc(graph, config, &mut out);
    lint_persistence_reach(graph, config, &mut out);
    out
}

/// Per-type secret field names: the declared fields *of* each secret type,
/// plus any field anywhere whose declared type names a secret type.
fn secret_fields_by_type(
    files: &[GraphFile],
    secret_types: &[String],
) -> BTreeMap<String, BTreeSet<String>> {
    let mut map: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for file in files {
        for ty in &file.items.types {
            for (field, type_idents) in &ty.fields {
                if field.is_empty() {
                    continue;
                }
                let own_fields_are_secret = secret_types.contains(&ty.name);
                let field_type_is_secret = type_idents.iter().any(|t| secret_types.contains(t));
                if own_fields_are_secret || field_type_is_secret {
                    map.entry(ty.name.clone())
                        .or_default()
                        .insert(field.clone());
                }
            }
        }
    }
    map
}

fn lint_secret_flow(files: &[GraphFile], graph: &Graph, config: &Config, out: &mut Vec<Finding>) {
    let secret_types = &config.secret_types;
    let fields_by_type = secret_fields_by_type(files, secret_types);
    let empty = BTreeSet::new();

    // Structural: derives and hand-written formatting impls on secret types.
    for file in files {
        for ty in &file.items.types {
            if !secret_types.contains(&ty.name) {
                continue;
            }
            for d in &ty.derives {
                if LEAKY_DERIVES.contains(&d.as_str()) {
                    out.push(Finding {
                        file: file.path.clone(),
                        line: ty.line,
                        lint: LINT_SECRET_FLOW.into(),
                        message: format!(
                            "`derive({d})` on key-bearing type `{}` exposes its round keys \
                             through std formatting; write a redacted manual impl instead",
                            ty.name
                        ),
                    });
                }
            }
        }
    }
    for n in &graph.nodes {
        let (Some(ty), Some(tr)) = (&n.item.impl_type, &n.item.impl_trait) else {
            continue;
        };
        if secret_types.contains(ty)
            && LEAKY_TRAITS.contains(&tr.as_str())
            && !Config::path_matches(&n.path, &config.sanctioned_debug_files)
        {
            out.push(Finding {
                file: n.path.clone(),
                line: n.item.line,
                lint: LINT_SECRET_FLOW.into(),
                message: format!(
                    "`impl {tr} for {ty}` outside the sanctioned redacted impls \
                     ({}) can print key material",
                    config.sanctioned_debug_files.join(", ")
                ),
            });
        }
    }

    // "Formats a parameter" fixpoint over the call graph.
    let params: Vec<BTreeSet<&str>> = graph
        .nodes
        .iter()
        .map(|n| n.params.iter().map(|(p, _)| p.as_str()).collect())
        .collect();
    let uses_param = |id: usize, range| {
        let idents = graph.arg_idents(files, id, range);
        idents.iter().any(|i| params[id].contains(i))
    };
    let mut formats_param: Vec<bool> = (0..graph.nodes.len())
        .map(|id| {
            let n = &graph.nodes[id];
            n.macros
                .iter()
                .any(|m| FORMAT_MACROS.contains(&m.name.as_str()) && uses_param(id, m.args))
                || n.calls.iter().any(|c| {
                    SINK_METHODS.contains(&c.callee.name())
                        && (c.recv.iter().any(|r| params[id].contains(r.as_str()))
                            || uses_param(id, c.args))
                })
        })
        .collect();
    loop {
        let mut grew = false;
        for id in 0..graph.nodes.len() {
            if formats_param[id] {
                continue;
            }
            let feeds = graph.nodes[id]
                .calls
                .iter()
                .any(|c| c.targets.iter().any(|t| formats_param[*t]) && uses_param(id, c.args));
            if feeds {
                formats_param[id] = true;
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }

    // Flow findings per function.
    for (id, n) in graph.nodes.iter().enumerate() {
        // Parameters whose declared type names a secret type.
        let sparams: BTreeSet<&str> = n
            .params
            .iter()
            .filter(|(_, tys)| tys.iter().any(|t| secret_types.contains(t)))
            .map(|(name, _)| name.as_str())
            .collect();
        let sfields = n
            .item
            .impl_type
            .as_ref()
            .and_then(|t| fields_by_type.get(t))
            .unwrap_or(&empty);
        if sparams.is_empty() && sfields.is_empty() {
            continue;
        }
        let secret_in = |idents: &[&str]| -> Option<String> {
            idents
                .iter()
                .find(|i| sparams.contains(**i))
                .map(|i| i.to_string())
        };
        for m in &n.macros {
            let name = m.name.as_str();
            if !FORMAT_MACROS.contains(&name) && !ABORT_MACROS.contains(&name) {
                continue;
            }
            let hit = secret_in(&graph.arg_idents(files, id, m.args))
                .or_else(|| graph.args_mention_self_field(files, id, m.args, sfields));
            if let Some(what) = hit {
                out.push(Finding {
                    file: n.path.clone(),
                    line: m.line,
                    lint: LINT_SECRET_FLOW.into(),
                    message: format!(
                        "key material `{what}` reaches `{}!` in `{}`; secrets must \
                         never enter formatting machinery",
                        m.name,
                        n.item.qualified()
                    ),
                });
            }
        }
        for c in &n.calls {
            let name = c.callee.name();
            if SINK_METHODS.contains(&name) {
                let via_recv = c.recv.iter().any(|r| sparams.contains(r.as_str()))
                    || (c.recv.first().map(String::as_str) == Some("self")
                        && c.recv.iter().skip(1).any(|r| sfields.contains(r)));
                let hit = if via_recv {
                    Some(c.recv.join("."))
                } else {
                    secret_in(&graph.arg_idents(files, id, c.args))
                        .or_else(|| graph.args_mention_self_field(files, id, c.args, sfields))
                };
                if let Some(what) = hit {
                    out.push(Finding {
                        file: n.path.clone(),
                        line: c.line,
                        lint: LINT_SECRET_FLOW.into(),
                        message: format!(
                            "key material `{what}` reaches serialization sink `.{name}(..)` \
                             in `{}`",
                            n.item.qualified()
                        ),
                    });
                    continue;
                }
            }
            // Interprocedural: a secret argument handed to a function that
            // (transitively) feeds a parameter into formatting.
            let formatter = c.targets.iter().find(|t| formats_param[**t]);
            if let Some(&t) = formatter {
                let hit = secret_in(&graph.arg_idents(files, id, c.args))
                    .or_else(|| graph.args_mention_self_field(files, id, c.args, sfields));
                if let Some(what) = hit {
                    out.push(Finding {
                        file: n.path.clone(),
                        line: c.line,
                        lint: LINT_SECRET_FLOW.into(),
                        message: format!(
                            "key material `{what}` is passed to `{}`, which feeds a \
                             parameter into formatting machinery",
                            graph.nodes[t].item.qualified()
                        ),
                    });
                }
            }
        }
    }
}

fn lint_hot_alloc(graph: &Graph, config: &Config, out: &mut Vec<Finding>) {
    let roots = graph.resolve_roots(&config.hot_path_roots);
    let reach = graph.reachable(&roots);
    for (id, n) in graph.nodes.iter().enumerate() {
        if !reach.reached[id] {
            continue;
        }
        let path = graph.call_path(&reach, id).join(" -> ");
        for m in &n.macros {
            if ALLOC_MACROS.contains(&m.name.as_str()) {
                out.push(Finding {
                    file: n.path.clone(),
                    line: m.line,
                    lint: LINT_HOT_ALLOC.into(),
                    message: format!(
                        "`{}!` allocates on the persist critical path ({path}); \
                         use a fixed-size buffer or move the work off the hot path",
                        m.name
                    ),
                });
            }
        }
        for c in &n.calls {
            let hit = ALLOC_CALLS.iter().any(|(ty, name)| {
                *name == c.callee.name()
                    && match (ty, &c.callee) {
                        (Some(t), Callee::Typed(ct, _)) => t == ct,
                        (Some(_), _) => false,
                        (None, _) => !matches!(c.callee, Callee::Typed(_, _)),
                    }
            });
            if hit {
                let spelled = match &c.callee {
                    Callee::Typed(t, f) => format!("{t}::{f}"),
                    other => format!(".{}()", other.name()),
                };
                out.push(Finding {
                    file: n.path.clone(),
                    line: c.line,
                    lint: LINT_HOT_ALLOC.into(),
                    message: format!(
                        "`{spelled}` allocates on the persist critical path ({path}); \
                         borrow, reuse a buffer, or derive Copy instead",
                    ),
                });
            }
        }
    }
}

fn lint_persistence_reach(graph: &Graph, config: &Config, out: &mut Vec<Finding>) {
    let roots = graph.resolve_roots(&config.persistence_roots);
    let reach = graph.reachable(&roots);
    for (id, n) in graph.nodes.iter().enumerate() {
        if Config::path_matches(&n.path, &config.sanctioned_persistence_files) {
            continue;
        }
        for c in &n.calls {
            let name = c.callee.name();
            if !DEVICE_WRITE_METHODS.contains(&name) || !matches!(c.callee, Callee::Method(_)) {
                continue;
            }
            if reach.reached[id] {
                continue;
            }
            out.push(Finding {
                file: n.path.clone(),
                line: c.line,
                lint: LINT_PERSISTENCE_DOMAIN.into(),
                message: format!(
                    "`{}` calls NvmDevice::{name} but is not reachable from any \
                     persistence root ({}); route the write through the controller's \
                     WPQ drain/recovery paths",
                    n.item.qualified(),
                    config.persistence_roots.join(", ")
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn cfg() -> Config {
        Config {
            secret_types: vec!["Aes128".into(), "MacEngine".into()],
            sanctioned_debug_files: vec!["crypto/src/aes.rs".into()],
            hot_path_roots: vec!["Ctl::advance".into()],
            persistence_roots: vec!["Ctl::drain".into()],
            sanctioned_persistence_files: vec!["nvm/src/device.rs".into()],
            ..Config::workspace()
        }
    }

    fn run_on(sources: &[(&str, &str, &str)]) -> Vec<Finding> {
        let files: Vec<GraphFile> = sources
            .iter()
            .map(|(k, p, s)| GraphFile::new(k, p, lex(s).tokens))
            .collect();
        let graph = Graph::build(&files, &BTreeMap::new());
        run(&files, &graph, &cfg())
    }

    #[test]
    fn derive_debug_on_secret_type_fires() {
        let f = run_on(&[(
            "crypto",
            "crypto/src/key.rs",
            "#[derive(Clone, Debug)]\npub struct Aes128 { round_keys: [u8; 16] }",
        )]);
        assert!(f.iter().any(|f| f.lint == "secret-flow" && f.line == 1));
    }

    #[test]
    fn sanctioned_debug_impl_is_clean_elsewhere_fires() {
        let src = "pub struct Aes128 { rk: [u8; 4] }\n\
                   impl core::fmt::Debug for Aes128 { fn fmt(&self, f: &mut F) -> R { ok() } }";
        let clean = run_on(&[("crypto", "crypto/src/aes.rs", src)]);
        assert!(clean.iter().all(|f| f.lint != "secret-flow"));
        let dirty = run_on(&[("crypto", "crypto/src/other.rs", src)]);
        assert!(dirty.iter().any(|f| f.lint == "secret-flow"));
    }

    #[test]
    fn secret_param_into_format_macro_fires() {
        let f = run_on(&[(
            "a",
            "a/src/lib.rs",
            "fn dump(key: &Aes128) { println!(\"{:?}\", key); }",
        )]);
        assert_eq!(f.iter().filter(|f| f.lint == "secret-flow").count(), 1);
    }

    #[test]
    fn interprocedural_secret_flow_crosses_files() {
        let f = run_on(&[
            (
                "a",
                "a/src/caller.rs",
                "impl M { fn go(&self) { render(&self.engine); } }\n\
                 struct M { engine: MacEngine }",
            ),
            (
                "a",
                "a/src/render.rs",
                "pub fn render(e: &MacEngine) { show(e); }\n\
                 fn show(x: &MacEngine) { println!(\"{:?}\", x); }",
            ),
        ]);
        // show: direct; render: interprocedural; go: interprocedural via field.
        let lines: Vec<&str> = f
            .iter()
            .filter(|f| f.lint == "secret-flow")
            .map(|f| f.file.as_str())
            .collect();
        assert!(lines.contains(&"a/src/render.rs"));
        assert!(lines.contains(&"a/src/caller.rs"));
    }

    #[test]
    fn assert_guards_do_not_poison_helpers() {
        let f = run_on(&[(
            "a",
            "a/src/lib.rs",
            "fn pad(key: &Aes128, buf: &mut [u8]) { assert!(buf.len() >= 4); }\n\
             fn hot(k: &Aes128, out: &mut [u8]) { pad(k, out); }",
        )]);
        assert!(f.iter().all(|f| f.lint != "secret-flow"));
    }

    #[test]
    fn hot_alloc_reports_reachable_allocations_with_path() {
        let f = run_on(&[(
            "a",
            "a/src/lib.rs",
            "impl Ctl { fn advance(&mut self) { helper(); } }\n\
             fn helper() { let v = Vec::new(); other(); }\n\
             fn other() { let b = data.to_vec(); }\n\
             fn cold() { let c = Vec::new(); }",
        )]);
        let hot: Vec<&Finding> = f.iter().filter(|f| f.lint == "hot-alloc").collect();
        assert_eq!(hot.len(), 2);
        assert!(hot[0].message.contains("Ctl::advance -> helper"));
        assert!(hot.iter().all(|f| !f.message.contains("cold")));
    }

    #[test]
    fn persistence_write_outside_reach_fires() {
        let f = run_on(&[(
            "a",
            "a/src/lib.rs",
            "impl Ctl { fn drain(&mut self) { self.step(); } fn step(&mut self) { nvm.poke(a, b); } }\n\
             fn rogue(nvm: &mut N) { nvm.poke(a, b); }",
        )]);
        let p: Vec<&Finding> = f
            .iter()
            .filter(|f| f.lint == "persistence-domain")
            .collect();
        assert_eq!(p.len(), 1);
        assert!(p[0].message.contains("`rogue`"));
    }

    #[test]
    fn device_file_is_sanctioned_for_persistence() {
        let f = run_on(&[(
            "nvm",
            "nvm/src/device.rs",
            "impl N { fn poke(&mut self, a: A, b: B) { self.inner.poke(a, b); } }",
        )]);
        assert!(f.iter().all(|f| f.lint != "persistence-domain"));
    }
}
