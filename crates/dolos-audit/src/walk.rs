//! Workspace file discovery.
//!
//! Enumerates the root package's `src/` plus every `crates/<name>/src/`
//! tree, skipping `tests/`, `benches/`, and `examples/` directories (the
//! lints target shipped code; test modules inside `src` are excluded at the
//! token level via `#[cfg(test)]` region detection instead). Files come back
//! sorted by path so reports and the ratchet count are order-stable.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lints::SourceFile;

/// Directory names never descended into.
const SKIP_DIRS: [&str; 4] = ["tests", "benches", "examples", "target"];

/// Collects every auditable `.rs` file under `root` (a workspace root).
pub fn collect_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_dir(&root_src, "dolos", root, &mut files)?;
    }
    for dir in crate_dirs(root)? {
        let krate = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let src = dir.join("src");
        if src.is_dir() {
            collect_dir(&src, &krate, root, &mut files)?;
        }
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

/// Parses the workspace `Cargo.toml`s into a direct-dependency map
/// (`crate -> workspace deps`), used to scope call-graph edges. The parse
/// is deliberately minimal — no TOML library — and only records `dolos*`
/// dependency keys, which is all the graph needs.
pub fn crate_dependencies(root: &Path) -> io::Result<BTreeMap<String, BTreeSet<String>>> {
    let mut manifests = vec![root.join("Cargo.toml")];
    manifests.extend(crate_dirs(root)?.iter().map(|d| d.join("Cargo.toml")));
    let mut map = BTreeMap::new();
    for manifest in manifests {
        let text = match fs::read_to_string(&manifest) {
            Ok(t) => t,
            Err(_) => continue,
        };
        let mut name: Option<String> = None;
        let mut deps = BTreeSet::new();
        let mut section = String::new();
        for line in text.lines() {
            let line = line.trim();
            if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = header.trim().to_string();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            let key = key.trim().trim_matches('"');
            if section == "package" && key == "name" {
                name = Some(value.trim().trim_matches('"').to_string());
            }
            // `dolos-x = { path = ".." }` under any dependencies table,
            // including `dolos-x.path = ".."` dotted keys.
            let dep_key = key.split('.').next().unwrap_or(key);
            if section.ends_with("dependencies") && dep_key.starts_with("dolos") {
                deps.insert(dep_key.to_string());
            }
        }
        if let Some(name) = name {
            map.insert(name, deps);
        }
    }
    Ok(map)
}

/// The directories under `root/crates`, sorted (none if it is missing).
fn crate_dirs(root: &Path) -> io::Result<Vec<PathBuf>> {
    let crates = root.join("crates");
    if !crates.is_dir() {
        return Ok(Vec::new());
    }
    let mut dirs: Vec<PathBuf> = fs::read_dir(&crates)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    dirs.retain(|p| p.is_dir());
    dirs.sort();
    Ok(dirs)
}

fn collect_dir(
    dir: &Path,
    krate: &str,
    root: &Path,
    files: &mut Vec<SourceFile>,
) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
            if name.as_deref().is_some_and(|n| SKIP_DIRS.contains(&n)) {
                continue;
            }
            collect_dir(&path, krate, root, files)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            files.push(SourceFile {
                path: rel,
                krate: krate.to_string(),
                text: fs::read_to_string(&path)?,
            });
        }
    }
    Ok(())
}
