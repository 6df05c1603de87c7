//! Workspace file discovery and loading.
//!
//! Walks the repo in **sorted directory order** so finding order —
//! and therefore the human report and `BENCH_lint.json` — is
//! deterministic across platforms and runs, the same property the
//! linter enforces on everything else.

use std::fs;
use std::path::{Path, PathBuf};

use crate::lexer;
use crate::tree::{self, Tree};

/// One loaded, lexed, and tree-parsed Rust source file.
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    /// Raw source lines (no trailing newline), for excerpt and
    /// bound-comment checks.
    pub lines: Vec<String>,
    /// Token trees with every `#[cfg(test)]` item removed —
    /// production code only.
    pub trees: Vec<Tree>,
}

impl SourceFile {
    /// The trimmed source text of a 1-based line (empty if out of
    /// range — e.g. a stale line number from a multi-line token).
    pub fn line_text(&self, line: u32) -> &str {
        let idx = (line as usize).saturating_sub(1);
        self.lines.get(idx).map(|s| s.trim()).unwrap_or("")
    }

    /// True when line `line` or the line above carries the given
    /// justification marker (e.g. `bound:` / `narrow:`) in a `//`
    /// comment.
    pub fn has_marker(&self, line: u32, marker: &str) -> bool {
        let has = |l: u32| {
            let t = self.line_text(l);
            t.split("//").nth(1).is_some_and(|c| c.contains(marker))
        };
        has(line) || (line > 1 && has(line - 1))
    }
}

/// All lintable files, in deterministic path order.
pub struct Workspace {
    /// Loaded files sorted by `rel`.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Loads every production source file under `root` (see
    /// [`lint_file_paths`]).
    ///
    /// # Errors
    ///
    /// I/O failures and lexer/parser failures, tagged with the file
    /// path.
    pub fn load(root: &Path) -> Result<Workspace, String> {
        let mut files = Vec::new();
        for path in lint_file_paths(root)? {
            let rel = rel_str(root, &path);
            let src = fs::read_to_string(&path).map_err(|e| format!("{rel}: read failed: {e}"))?;
            let toks = lexer::lex(&src).map_err(|e| format!("{rel}: lex: {e}"))?;
            let trees = tree::parse(&toks).map_err(|e| format!("{rel}: parse: {e}"))?;
            files.push(SourceFile {
                rel,
                lines: src.lines().map(str::to_string).collect(),
                trees: tree::strip_cfg_test(trees),
            });
        }
        Ok(Workspace { files })
    }

    /// The file with this workspace-relative path, if loaded.
    pub fn get(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel == rel)
    }

    /// Files whose relative path starts with `prefix`.
    pub fn with_prefix<'w>(&'w self, prefix: &'w str) -> impl Iterator<Item = &'w SourceFile> {
        self.files.iter().filter(move |f| f.rel.starts_with(prefix))
    }
}

fn rel_str(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Production sources the rules run over: `crates/*/src/**/*.rs`
/// plus the root `src/`. Integration tests, examples, and the
/// vendored dependency stubs are excluded — they are test-side code
/// with no production determinism obligations.
pub fn lint_file_paths(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    for member in sorted_dir(&crates)? {
        let src = member.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut out)?;
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut out)?;
    }
    Ok(out)
}

/// Every `.rs` file in the repo — production, tests, examples, and
/// vendored stubs — for the lexer round-trip suite.
pub fn all_rust_file_paths(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    for top in ["crates", "src", "tests", "examples", "vendor"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut out)?;
        }
    }
    Ok(out)
}

fn sorted_dir(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let rd = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut entries: Vec<PathBuf> = rd.filter_map(Result::ok).map(|e| e.path()).collect();
    entries.sort();
    Ok(entries)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    for path in sorted_dir(dir)? {
        let name = path.file_name().map(|n| n.to_string_lossy().to_string());
        let name = name.unwrap_or_default();
        if path.is_dir() {
            if name == "target" {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Locates the workspace root: walks up from `start` to the first
/// directory containing both `Cargo.toml` and `crates/`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_root() -> PathBuf {
        find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("repo root")
    }

    #[test]
    fn discovers_known_files() {
        let paths = lint_file_paths(&repo_root()).unwrap();
        let rels: Vec<String> = paths.iter().map(|p| rel_str(&repo_root(), p)).collect();
        assert!(rels
            .iter()
            .any(|r| r == "crates/processor/src/simulator.rs"));
        assert!(rels.iter().any(|r| r == "crates/service/src/server.rs"));
        assert!(rels.iter().any(|r| r == "crates/lint/src/lexer.rs"));
        assert!(!rels.iter().any(|r| r.starts_with("vendor/")));
        let mut sorted = rels.clone();
        sorted.sort();
        assert_eq!(rels, sorted, "discovery order must be deterministic");
    }

    #[test]
    fn loads_and_parses_whole_workspace() {
        let ws = Workspace::load(&repo_root()).unwrap();
        assert!(ws.get("crates/core/src/faults.rs").is_some());
        assert!(ws.files.len() > 30);
    }

    #[test]
    fn marker_detection_checks_same_and_previous_line() {
        let f = SourceFile {
            rel: "x.rs".into(),
            lines: vec![
                "let a = v[i]; // bound: i < len".into(),
                "// bound: j checked above".into(),
                "let b = v[j];".into(),
                "let c = v[k];".into(),
            ],
            trees: Vec::new(),
        };
        assert!(f.has_marker(1, "bound:"));
        assert!(f.has_marker(3, "bound:"));
        assert!(!f.has_marker(4, "bound:"));
    }
}
