//! Workspace symbol layer: fn definitions, call sites and a best-effort
//! call graph over the masked per-line model.
//!
//! The cross-file rules (`lock-order`, `no-blocking-in-nonblocking`)
//! need to answer two questions no single [`SourceFile`] can: *which fn
//! does this line belong to* and *which fns can this fn reach*. This
//! module builds that view from the same masked code the per-file rules
//! use — string/char contents are already blanked, so brace matching and
//! keyword scanning cannot be desynchronised by literals.
//!
//! The graph is deliberately approximate in the way a linter can afford:
//!
//! * definitions are found syntactically (`fn name` plus brace-matched
//!   body, trait signatures get an empty body);
//! * call sites are `ident(`-shaped with their `::`-qualifier captured
//!   (`a::b::f(…)`), method calls (`x.f(…)`) keep an empty qualifier,
//!   macros (`f!(…)`), CamelCase constructors and atomic loads
//!   (`x.load(Ordering::…)`) are skipped;
//! * resolution prefers a same-file definition, then a module-suffix
//!   match on the qualifier, then a globally unique name; ambiguous
//!   names resolve to the first candidate in file order (deterministic),
//!   unknown names stay unresolved.
//!
//! That is enough for the concurrency rules, whose findings are anchored
//! on explicitly annotated lines — the graph only widens their view, it
//! never invents a lock site.

use std::collections::HashMap;

use crate::model::SourceFile;

/// A fn definition found in the workspace.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The fn's name (`r#` stripped from raw identifiers).
    pub name: String,
    /// Module path derived from the file path plus inline `mod` blocks,
    /// e.g. `["service", "cache", "tests"]`.
    pub module: Vec<String>,
    /// Index into the workspace's file list.
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// 1-based last line of the body (== `line` for body-less
    /// signatures).
    pub body_end: usize,
}

/// One `name(…)` call site inside a fn body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Index of the enclosing [`FnDef`].
    pub caller: usize,
    /// 1-based line of the call.
    pub line: usize,
    /// `::`-qualifier segments as written (`crate`, `self`, `super`
    /// kept; may be empty for bare and method calls).
    pub qualifier: Vec<String>,
    /// Callee name as written (`r#` stripped).
    pub name: String,
    /// Resolved definition, when resolution succeeded.
    pub resolved: Option<usize>,
}

/// The workspace call graph: definitions, call sites, adjacency.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Every fn definition, in (file, line) order.
    pub defs: Vec<FnDef>,
    /// Every call site, in (file, line) order.
    pub calls: Vec<CallSite>,
    /// Deduplicated resolved callees per definition.
    edges: Vec<Vec<usize>>,
}

/// A set of source files plus the call graph built over them.
#[derive(Debug)]
pub struct Workspace<'a> {
    /// The scanned files, same order and indices the graph uses.
    pub files: &'a [SourceFile],
    /// The call graph over `files`.
    pub graph: CallGraph,
}

impl<'a> Workspace<'a> {
    /// Builds the symbol layer over `files`.
    pub fn build(files: &'a [SourceFile]) -> Workspace<'a> {
        Workspace {
            files,
            graph: CallGraph::build(files),
        }
    }

    /// Index of the file named `rel_path`, if scanned.
    pub fn file_index(&self, rel_path: &str) -> Option<usize> {
        self.files.iter().position(|f| f.rel_path == rel_path)
    }
}

impl CallGraph {
    /// Extracts definitions and call sites from every file, resolves
    /// call targets and builds the adjacency lists.
    pub fn build(files: &[SourceFile]) -> CallGraph {
        let mut graph = CallGraph::default();
        for (file_idx, file) in files.iter().enumerate() {
            extract_file(file_idx, file, &mut graph);
        }
        graph.resolve();
        graph
    }

    /// The innermost definition in `file` whose body spans `line`.
    pub fn def_at(&self, file: usize, line: usize) -> Option<usize> {
        self.defs
            .iter()
            .enumerate()
            .filter(|(_, d)| d.file == file && d.line <= line && line <= d.body_end)
            // Innermost = the latest-starting span containing the line.
            .max_by_key(|(_, d)| d.line)
            .map(|(i, _)| i)
    }

    /// Resolved callees of `def`, deduplicated.
    pub fn callees(&self, def: usize) -> &[usize] {
        &self.edges[def]
    }

    /// Call sites whose enclosing definition is `def`.
    pub fn calls_of(&self, def: usize) -> impl Iterator<Item = &CallSite> {
        self.calls.iter().filter(move |c| c.caller == def)
    }

    /// Every definition reachable from `from` (excluding `from` itself
    /// unless it sits on a cycle), in BFS order. Cycle-safe.
    pub fn reachable(&self, from: usize) -> Vec<usize> {
        let mut seen = vec![false; self.defs.len()];
        let mut queue = std::collections::VecDeque::from([from]);
        let mut out = Vec::new();
        while let Some(d) = queue.pop_front() {
            for &next in &self.edges[d] {
                if !seen[next] {
                    seen[next] = true;
                    out.push(next);
                    queue.push_back(next);
                }
            }
        }
        out
    }

    /// BFS from `from` recording, for each reached definition, the call
    /// site in `from` that begins the path to it. Used to anchor
    /// transitive findings on a line of the marked fn itself.
    pub fn reachable_via(&self, from: usize) -> Vec<(usize, usize)> {
        let mut seen = vec![false; self.defs.len()];
        let mut out = Vec::new();
        let mut queue = std::collections::VecDeque::new();
        for call in self.calls_of(from) {
            if let Some(target) = call.resolved {
                if !seen[target] {
                    seen[target] = true;
                    out.push((target, call.line));
                    queue.push_back((target, call.line));
                }
            }
        }
        while let Some((d, entry_line)) = queue.pop_front() {
            for &next in &self.edges[d] {
                if !seen[next] {
                    seen[next] = true;
                    out.push((next, entry_line));
                    queue.push_back((next, entry_line));
                }
            }
        }
        out
    }

    fn resolve(&mut self) {
        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        for (i, d) in self.defs.iter().enumerate() {
            by_name.entry(d.name.as_str()).or_default().push(i);
        }
        let defs = &self.defs;
        for call in &mut self.calls {
            call.resolved = resolve_call(call, defs, &by_name);
        }
        self.edges = vec![Vec::new(); self.defs.len()];
        for call in &self.calls {
            if let Some(target) = call.resolved {
                let adj = &mut self.edges[call.caller];
                if !adj.contains(&target) {
                    adj.push(target);
                }
            }
        }
    }
}

/// Resolution: same-file first, then module-suffix match on the
/// qualifier, then globally unique name; first candidate wins ties.
fn resolve_call(
    call: &CallSite,
    defs: &[FnDef],
    by_name: &HashMap<&str, Vec<usize>>,
) -> Option<usize> {
    let candidates = by_name.get(call.name.as_str())?;
    let caller_file = defs[call.caller].file;

    // Path qualifiers name modules (`crate::sync::f`); a CamelCase
    // segment means a type-scoped call (`Shape::new`) whose impl block
    // the module path cannot see — fall back to name-only resolution.
    let segs: Vec<&str> = call
        .qualifier
        .iter()
        .map(String::as_str)
        .filter(|s| !matches!(*s, "crate" | "self" | "super" | "std" | "core" | "alloc"))
        .collect();
    let module_like = !segs.is_empty()
        && segs.iter().all(|s| {
            s.chars()
                .next()
                .is_some_and(|c| c.is_lowercase() || c == '_')
        });

    if module_like {
        let norm: Vec<&str> = segs
            .iter()
            .map(|s| s.strip_prefix("pieri_").unwrap_or(s))
            .collect();
        let matches: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&d| {
                let m = &defs[d].module;
                m.len() >= norm.len()
                    && m[m.len() - norm.len()..]
                        .iter()
                        .zip(&norm)
                        .all(|(a, b)| a == b)
            })
            .collect();
        if let Some(&first) = matches.first() {
            return Some(first);
        }
    }

    let same_file: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&d| defs[d].file == caller_file)
        .collect();
    if let Some(&first) = same_file.first() {
        return Some(first);
    }
    if candidates.len() == 1 {
        return Some(candidates[0]);
    }
    None
}

/// Minimal per-line token for the extraction pass.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Open,    // {
    Close,   // }
    Paren,   // (
    Semi,    // ;
    PathSep, // ::
    Dot,     // .
    Bang,    // !
    Other,
}

/// Tokenizes one line of masked code for the extraction pass. Literal
/// contents are already blanked, so `""`/`''` contribute only `Other`.
fn line_tokens(code: &str) -> Vec<Tok> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii_alphabetic() || b == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let mut name = &code[start..i];
            // `r#ident` raw identifiers: keep the `r#` in the token so
            // the keyword filter sees `r#loop` (an ident), not `loop`.
            if name == "r" && bytes.get(i) == Some(&b'#') {
                let tail = i + 1;
                let mut j = tail;
                while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                    j += 1;
                }
                if j > tail {
                    name = &code[start..j];
                    i = j;
                }
            }
            out.push(Tok::Ident(name.to_string()));
        } else {
            match b {
                b'{' => out.push(Tok::Open),
                b'}' => out.push(Tok::Close),
                b'(' => out.push(Tok::Paren),
                b';' => out.push(Tok::Semi),
                b'.' => out.push(Tok::Dot),
                b'!' => out.push(Tok::Bang),
                b':' if bytes.get(i + 1) == Some(&b':') => {
                    out.push(Tok::PathSep);
                    i += 1;
                }
                b' ' | b'\t' => {}
                _ => out.push(Tok::Other),
            }
            i += 1;
        }
    }
    out
}

/// `x.load(Ordering::…)` at token `i`: an atomic load, which never
/// blocks and is no workspace fn, though resolution by name alone would
/// tie it to one named `load` (the bundle store's file loader).
fn is_atomic_load(toks: &[Tok], i: usize) -> bool {
    i >= 1
        && toks[i - 1] == Tok::Dot
        && matches!(&toks[i], Tok::Ident(name) if name == "load")
        && matches!(toks.get(i + 2), Some(Tok::Ident(ty)) if ty == "Ordering")
}

/// `r#loop` → `loop`; plain identifiers pass through.
fn bare(name: &str) -> &str {
    name.strip_prefix("r#").unwrap_or(name)
}

/// Keywords an `ident(` can start with that are not calls.
fn is_keyword(name: &str) -> bool {
    matches!(
        name,
        "if" | "while"
            | "for"
            | "match"
            | "return"
            | "loop"
            | "fn"
            | "move"
            | "unsafe"
            | "let"
            | "else"
            | "as"
            | "in"
            | "ref"
            | "mut"
            | "pub"
            | "where"
            | "impl"
            | "dyn"
            | "use"
            | "mod"
            | "box"
            | "await"
            | "yield"
    )
}

/// Walks one file, appending its definitions and call sites.
fn extract_file(file_idx: usize, file: &SourceFile, graph: &mut CallGraph) {
    let base = module_path(&file.rel_path);
    let mut depth = 0usize;
    // (name, depth the `mod` body opened at)
    let mut mods: Vec<(String, usize)> = Vec::new();
    // (def index, depth the fn body opened at)
    let mut open_fns: Vec<(usize, usize)> = Vec::new();
    // A `fn` keyword seen, waiting for its name.
    let mut fn_kw = false;
    // A named fn header waiting for `{` (or `;` for signatures).
    let mut pending_fn: Option<usize> = None;
    let mut pending_mod: Option<String> = None;

    for (line_no, info) in file.iter_lines() {
        let toks = line_tokens(&info.code);
        for (t_idx, tok) in toks.iter().enumerate() {
            if !matches!(tok, Tok::Ident(_)) {
                // `fn` not followed directly by a name is the fn-pointer
                // type (`fn(&T) -> U`), not a definition.
                fn_kw = false;
            }
            match tok {
                Tok::Ident(name) => {
                    if fn_kw {
                        fn_kw = false;
                        let mut module: Vec<String> = base.clone();
                        module.extend(mods.iter().map(|(m, _)| m.clone()));
                        graph.defs.push(FnDef {
                            name: bare(name).to_string(),
                            module,
                            file: file_idx,
                            line: line_no,
                            body_end: line_no,
                        });
                        pending_fn = Some(graph.defs.len() - 1);
                        continue;
                    }
                    if name == "fn" {
                        fn_kw = true;
                        continue;
                    }
                    if name == "mod" {
                        // Name arrives as the next ident token.
                        if let Some(Tok::Ident(m)) = toks.get(t_idx + 1) {
                            pending_mod = Some(m.clone());
                        }
                        continue;
                    }
                    // A call: ident directly followed by `(`, not a
                    // definition, macro, CamelCase constructor or atomic
                    // load.
                    if toks.get(t_idx + 1) == Some(&Tok::Paren)
                        && !is_keyword(name)
                        && !name.chars().next().is_some_and(|c| c.is_uppercase())
                        && !is_atomic_load(&toks, t_idx)
                    {
                        if let Some(&(caller, _)) = open_fns.last() {
                            let mut qualifier = Vec::new();
                            let mut k = t_idx;
                            while k >= 2
                                && toks[k - 1] == Tok::PathSep
                                && matches!(toks[k - 2], Tok::Ident(_))
                            {
                                if let Tok::Ident(q) = &toks[k - 2] {
                                    qualifier.push(bare(q).to_string());
                                }
                                k -= 2;
                            }
                            qualifier.reverse();
                            graph.calls.push(CallSite {
                                caller,
                                line: line_no,
                                qualifier,
                                name: bare(name).to_string(),
                                resolved: None,
                            });
                        }
                    }
                }
                Tok::Open => {
                    depth += 1;
                    if let Some(def) = pending_fn.take() {
                        open_fns.push((def, depth));
                    } else if let Some(m) = pending_mod.take() {
                        mods.push((m, depth));
                    }
                }
                Tok::Close => {
                    if let Some(&(def, d)) = open_fns.last() {
                        if d == depth {
                            graph.defs[def].body_end = line_no;
                            open_fns.pop();
                        }
                    }
                    if let Some(&(_, d)) = mods.last() {
                        if d == depth {
                            mods.pop();
                        }
                    }
                    depth = depth.saturating_sub(1);
                }
                Tok::Semi => {
                    // `fn f(…) -> T;` — a signature with no body;
                    // `mod name;` — an out-of-line module.
                    pending_fn = None;
                    pending_mod = None;
                }
                _ => {}
            }
        }
    }
    // Unterminated bodies (or miscounted braces) extend to EOF.
    for (def, _) in open_fns {
        graph.defs[def].body_end = file.line_count();
    }
}

/// Derives a module path from a repo-relative file path:
/// `crates/service/src/cache.rs` → `["service", "cache"]`,
/// `src/lib.rs` → `["pieri"]`, `vendor/rayon/src/pool.rs` →
/// `["rayon", "pool"]`.
fn module_path(rel_path: &str) -> Vec<String> {
    let comps: Vec<&str> = rel_path.split('/').collect();
    let mut out: Vec<String> = Vec::new();
    let mut rest = &comps[..];
    if comps.len() >= 2 && matches!(comps[0], "crates" | "vendor") {
        out.push(comps[1].trim_start_matches("pieri-").replace('-', "_"));
        rest = &comps[2..];
    } else {
        out.push("pieri".to_string());
    }
    for c in rest {
        if matches!(*c, "src" | "tests" | "benches" | "examples" | "fixtures") {
            continue;
        }
        let stem = c.strip_suffix(".rs").unwrap_or(c);
        if matches!(stem, "lib" | "main" | "mod") {
            continue;
        }
        out.push(stem.replace('-', "_"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws_from(sources: &[(&str, &str)]) -> (Vec<SourceFile>, CallGraph) {
        let files: Vec<SourceFile> = sources
            .iter()
            .map(|(p, s)| SourceFile::from_source(p, s))
            .collect();
        let graph = CallGraph::build(&files);
        (files, graph)
    }

    fn def<'g>(graph: &'g CallGraph, name: &str) -> &'g FnDef {
        graph
            .defs
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("no def named {name}"))
    }

    fn def_idx(graph: &CallGraph, name: &str) -> usize {
        graph
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("no def named {name}"))
    }

    #[test]
    fn definitions_are_extracted_with_spans() {
        let src = "pub fn outer() {\n    inner();\n}\n\nfn inner() -> u8 {\n    7\n}\n";
        let (_, g) = ws_from(&[("crates/x/src/lib.rs", src)]);
        assert_eq!(g.defs.len(), 2);
        let outer = def(&g, "outer");
        assert_eq!((outer.line, outer.body_end), (1, 3));
        assert_eq!(outer.module, vec!["x"]);
        let inner = def(&g, "inner");
        assert_eq!((inner.line, inner.body_end), (5, 7));
    }

    #[test]
    fn call_sites_capture_qualifiers_and_skip_macros() {
        let src = "fn f() {\n    g();\n    crate::util::h();\n    x.m();\n    assert!(p);\n    Vec::new();\n}\nfn g() {}\n";
        let (_, g) = ws_from(&[("crates/x/src/lib.rs", src)]);
        let names: Vec<&str> = g.calls.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"g"));
        assert!(names.contains(&"h"));
        assert!(names.contains(&"m"), "method calls are sites too");
        assert!(!names.contains(&"assert"), "macros are not calls");
        let h = g.calls.iter().find(|c| c.name == "h").unwrap();
        assert_eq!(h.qualifier, vec!["crate", "util"]);
        // `Vec::new` is CamelCase-qualified: recorded, unresolved.
        let new = g.calls.iter().find(|c| c.name == "new").unwrap();
        assert_eq!(new.resolved, None);
    }

    #[test]
    fn module_qualified_resolution_crosses_files() {
        let (_, g) = ws_from(&[
            (
                "crates/service/src/engine.rs",
                "fn run() {\n    crate::sync::park();\n    park();\n}\nfn park() {}\n",
            ),
            ("crates/service/src/sync.rs", "pub fn park() {}\n"),
        ]);
        let quald = g
            .calls
            .iter()
            .find(|c| c.name == "park" && !c.qualifier.is_empty())
            .unwrap();
        let bare = g
            .calls
            .iter()
            .find(|c| c.name == "park" && c.qualifier.is_empty())
            .unwrap();
        let sync_park = g
            .defs
            .iter()
            .position(|d| d.name == "park" && d.module == vec!["service", "sync"])
            .unwrap();
        let local_park = g
            .defs
            .iter()
            .position(|d| d.name == "park" && d.module == vec!["service", "engine"])
            .unwrap();
        assert_eq!(quald.resolved, Some(sync_park), "qualifier wins");
        assert_eq!(bare.resolved, Some(local_park), "same file wins");
    }

    #[test]
    fn atomic_loads_are_not_call_sites() {
        let (_, g) = ws_from(&[
            (
                "crates/a/src/lib.rs",
                "fn poll() {\n    flag.load(Ordering::SeqCst);\n    store.load(&shape);\n}\n",
            ),
            ("crates/b/src/store.rs", "pub fn load(&self) {}\n"),
        ]);
        let loads: Vec<&CallSite> = g.calls.iter().filter(|c| c.name == "load").collect();
        assert_eq!(loads.len(), 1, "{loads:?}");
        assert_eq!(loads[0].line, 3, "only the store call is a site");
        assert_eq!(loads[0].resolved, Some(def_idx(&g, "load")));
    }

    #[test]
    fn unique_global_name_resolves_without_qualifier() {
        let (_, g) = ws_from(&[
            ("crates/a/src/lib.rs", "fn top() {\n    helper();\n}\n"),
            ("crates/b/src/lib.rs", "pub fn helper() {}\n"),
        ]);
        let call = g.calls.iter().find(|c| c.name == "helper").unwrap();
        assert_eq!(call.resolved, Some(def_idx(&g, "helper")));
    }

    #[test]
    fn reachability_transits_and_survives_cycles() {
        let src =
            "fn a() {\n    b();\n}\nfn b() {\n    c();\n}\nfn c() {\n    a();\n}\nfn d() {}\n";
        let (_, g) = ws_from(&[("crates/x/src/lib.rs", src)]);
        let a = def_idx(&g, "a");
        let reach = g.reachable(a);
        assert!(reach.contains(&def_idx(&g, "b")));
        assert!(reach.contains(&def_idx(&g, "c")));
        assert!(
            reach.contains(&a),
            "a sits on the cycle, so a reaches itself"
        );
        assert!(!reach.contains(&def_idx(&g, "d")));
    }

    #[test]
    fn inline_mod_blocks_extend_the_module_path() {
        let src = "mod tests {\n    fn t() {}\n}\nfn f() {}\n";
        let (_, g) = ws_from(&[("crates/x/src/lib.rs", src)]);
        assert_eq!(def(&g, "t").module, vec!["x", "tests"]);
        assert_eq!(def(&g, "f").module, vec!["x"]);
    }

    #[test]
    fn def_at_picks_the_innermost_span() {
        let src = "fn outer() {\n    fn inner() {\n        x();\n    }\n    inner();\n}\n";
        let (_, g) = ws_from(&[("crates/x/src/lib.rs", src)]);
        assert_eq!(g.def_at(0, 3), Some(def_idx(&g, "inner")));
        assert_eq!(g.def_at(0, 5), Some(def_idx(&g, "outer")));
        assert_eq!(g.def_at(0, 6), Some(def_idx(&g, "outer")));
    }

    #[test]
    fn trait_signatures_get_empty_bodies() {
        let src = "trait T {\n    fn sig(&self) -> u8;\n    fn with_default(&self) {\n        sig_helper();\n    }\n}\nfn sig_helper() {}\n";
        let (_, g) = ws_from(&[("crates/x/src/lib.rs", src)]);
        let sig = def(&g, "sig");
        assert_eq!(sig.body_end, sig.line);
        assert!(g.calls_of(def_idx(&g, "with_default")).count() == 1);
    }

    #[test]
    fn raw_identifier_fns_round_trip() {
        let src = "fn r#try() {\n    r#loop();\n}\nfn r#loop() {}\n";
        let (_, g) = ws_from(&[("crates/x/src/lib.rs", src)]);
        let call = g.calls.iter().find(|c| c.name == "loop").unwrap();
        assert_eq!(call.resolved, Some(def_idx(&g, "loop")));
    }

    #[test]
    fn module_paths_from_rel_paths() {
        assert_eq!(
            module_path("crates/service/src/cache.rs"),
            vec!["service", "cache"]
        );
        assert_eq!(module_path("src/lib.rs"), vec!["pieri"]);
        assert_eq!(
            module_path("vendor/rayon/src/pool.rs"),
            vec!["rayon", "pool"]
        );
        assert_eq!(
            module_path("crates/analyze/src/rules/mod.rs"),
            vec!["analyze", "rules"]
        );
    }

    #[test]
    fn reachable_via_anchors_on_the_first_hop() {
        let src = "fn root() {\n    mid();\n}\nfn mid() {\n    leaf();\n}\nfn leaf() {}\n";
        let (_, g) = ws_from(&[("crates/x/src/lib.rs", src)]);
        let via = g.reachable_via(def_idx(&g, "root"));
        let leaf = def_idx(&g, "leaf");
        let (_, entry_line) = via.iter().find(|(d, _)| *d == leaf).unwrap();
        assert_eq!(*entry_line, 2, "anchored on root's own call line");
    }
}
