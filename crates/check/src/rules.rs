//! The linter's rule catalogue and per-file analysis.
//!
//! Every rule enforces a repo-specific invariant that the test suite can
//! only probe dynamically — mostly determinism properties the 18-snapshot
//! golden gate relies on. Findings carry `file:line` spans; a finding can
//! be suppressed with an inline pragma:
//!
//! ```text
//! // chiplet-check: allow(no-panic) — why panicking is intended here
//! // chiplet-check: allow-file(sim-thread) — why, for the whole file
//! ```
//!
//! A same-line or directly-preceding `allow(...)` suppresses that rule on
//! the next code line; `allow-file(...)` suppresses it for the whole file.

use crate::lexer::{lex, test_regions, Lexed, Tok};

/// One rule's identity and documentation line (surfaced by `--rules`).
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable kebab-case id, used in pragmas and JSON output.
    pub id: &'static str,
    /// Where the rule applies.
    pub scope: &'static str,
    /// One-line description.
    pub summary: &'static str,
}

/// Crates whose iteration order feeds metrics: `HashMap`/`HashSet`
/// iteration there can silently break the golden determinism gate.
pub const HASH_ITER_CRATES: &[&str] = &["sim", "core", "coherence", "noc"];

/// Crates on the simulation path: wall-clock reads, spawned threads and
/// environment reads there would make runs timing- or host-dependent.
pub const SIM_PATH_CRATES: &[&str] = &[
    "core",
    "coherence",
    "energy",
    "gpu",
    "mem",
    "noc",
    "obs",
    "sim",
    "workloads",
];

/// The full rule catalogue.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "hash-iter",
        scope: "crates: sim, core, coherence, noc",
        summary: "no HashMap/HashSet iteration (ordering nondeterminism would \
                  silently break the golden determinism gate)",
    },
    RuleInfo {
        id: "wall-clock",
        scope: "simulation-path crates",
        summary: "no std::time / Instant::now / SystemTime (simulated time only)",
    },
    RuleInfo {
        id: "sim-thread",
        scope: "simulation-path crates",
        summary: "no thread spawning on the simulation path (scheduling \
                  nondeterminism)",
    },
    RuleInfo {
        id: "sim-env",
        scope: "simulation-path crates",
        summary: "no environment reads on the simulation path (host-dependent \
                  behaviour)",
    },
    RuleInfo {
        id: "no-panic",
        scope: "library code (tests, bins, benches and examples exempt)",
        summary: "no unwrap()/expect() in library code",
    },
    RuleInfo {
        id: "banned-import",
        scope: "whole workspace",
        summary: "no rand/proptest/criterion imports (the workspace is \
                  hermetic; chiplet-harness replaces them)",
    },
    RuleInfo {
        id: "stale-todo",
        scope: "whole workspace",
        summary: "TODO/FIXME/XXX/HACK markers must carry an owner or ticket, \
                  e.g. TODO(#12)",
    },
    RuleInfo {
        id: "fleet-capture",
        scope: "whole workspace",
        summary: "no shared-mutable-state captures (Rc/RefCell/Mutex/RwLock, \
                  .lock()/.borrow_mut()) inside fleet parallel_map job \
                  arguments — job execution order is unspecified, only the \
                  result order is deterministic",
    },
    RuleInfo {
        id: "unused-allow",
        scope: "whole workspace",
        summary: "every allow pragma must suppress at least one finding \
                  (dead pragmas rot into false documentation of a hazard \
                  that no longer exists); not itself suppressible",
    },
];

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id from [`RULES`].
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// How a file participates in linting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code: all rules apply.
    Lib,
    /// Binaries, benches, tests, examples, build scripts: exempt from
    /// `no-panic` (panicking is their error-reporting strategy).
    BinLike,
}

/// The lint context for one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileClass {
    /// Workspace crate directory name (`sim`, `core`, ...); empty for the
    /// root facade package.
    pub crate_name: String,
    /// Library vs bin-like.
    pub kind: FileKind,
}

/// Derives the lint context from a workspace-relative path.
pub fn classify(rel_path: &str) -> FileClass {
    let crate_name = rel_path
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("")
        .to_owned();
    let bin_like = rel_path
        .split('/')
        .any(|seg| matches!(seg, "tests" | "benches" | "examples" | "bin"))
        || rel_path.ends_with("main.rs")
        || rel_path.ends_with("build.rs");
    FileClass {
        crate_name,
        kind: if bin_like {
            FileKind::BinLike
        } else {
            FileKind::Lib
        },
    }
}

// ------------------------------------------------------------- pragmas

/// One parsed `allow(...)`/`allow-file(...)` entry, with a usage bit so
/// the `unused-allow` rule can flag pragmas that suppress nothing.
#[derive(Debug)]
struct Allow {
    /// Line of the pragma comment.
    line: u32,
    /// The rule id it names.
    rule: String,
    /// `allow-file(...)` vs `allow(...)`.
    file_scope: bool,
    /// Set once the pragma suppresses at least one finding.
    used: bool,
}

#[derive(Debug, Default)]
struct Pragmas {
    allows: Vec<Allow>,
}

fn parse_pragmas(lx: &Lexed) -> Pragmas {
    let mut p = Pragmas::default();
    for c in &lx.comments {
        let Some(pos) = c.text.find("chiplet-check:") else {
            continue;
        };
        // Documentation that *quotes* a pragma (`// chiplet-check: ...`
        // inside a doc comment or fenced example) nests a second `//`
        // between the comment's own opening marker (the first two chars
        // of `text`) and the pragma; that is prose about pragmas, not one.
        if c.text[..pos].get(2..).is_some_and(|p| p.contains("//")) {
            continue;
        }
        let rest = &c.text[pos + "chiplet-check:".len()..];
        let rest = rest.trim_start();
        let (file_scope, rest) = if let Some(r) = rest.strip_prefix("allow-file(") {
            (true, r)
        } else if let Some(r) = rest.strip_prefix("allow(") {
            (false, r)
        } else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            continue;
        };
        for rule in rest[..close].split(',') {
            let rule = rule.trim().to_owned();
            if rule.is_empty() {
                continue;
            }
            p.allows.push(Allow {
                line: c.line,
                rule,
                file_scope,
                used: false,
            });
        }
    }
    p
}

impl Pragmas {
    /// True if a finding of `rule` at `line` is suppressed, marking every
    /// pragma that matched as used. `code_lines` is the sorted set of
    /// lines holding at least one token: an `allow` pragma covers its own
    /// line plus the next code line after it; `allow-file` covers the
    /// whole file. All matches are marked (no short-circuit) so a line
    /// pragma shadowed by a file pragma is not misreported as unused.
    fn suppressed(&mut self, rule: &str, line: u32, code_lines: &[u32]) -> bool {
        let mut hit = false;
        for a in &mut self.allows {
            if a.rule != rule {
                continue;
            }
            let matches = a.file_scope
                || a.line == line
                || (a.line < line
                    && code_lines
                        .iter()
                        .find(|&&cl| cl > a.line)
                        .is_some_and(|&first| first == line));
            if matches {
                a.used = true;
                hit = true;
            }
        }
        hit
    }
}

// ------------------------------------------------------- rule helpers

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Identifiers bound to a `HashMap`/`HashSet` anywhere in the file: struct
/// fields, `let` bindings and parameters (`name: HashMap<...>` possibly
/// through wrappers like `Vec<HashMap<...>>`), plus `name = HashMap::new()`
/// style initialisations. A lexical approximation — the allow pragma is
/// the escape hatch for false positives.
fn hash_bound_names(lx: &Lexed) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for i in 0..lx.tokens.len() {
        let is_hash = matches!(lx.ident(i), Some("HashMap" | "HashSet"));
        if !is_hash {
            continue;
        }
        // Walk back over type syntax to the owning `name :`, stopping at
        // statement boundaries or `=` (value position).
        let mut j = i;
        let mut name: Option<&str> = None;
        let mut steps = 0;
        while j > 0 && steps < 24 {
            j -= 1;
            steps += 1;
            match &lx.tokens[j].tok {
                Tok::Punct(";") | Tok::Punct("{") | Tok::Punct("}") => break,
                Tok::Punct("=") => {
                    // Value position (`name = HashMap::new()`): the bound
                    // name sits directly before the `=`, optionally behind
                    // `mut`.
                    let mut k = j;
                    while k > 0 {
                        k -= 1;
                        match lx.ident(k) {
                            Some("mut") => continue,
                            Some(id) => {
                                name = Some(id);
                                break;
                            }
                            None => break,
                        }
                    }
                    break;
                }
                Tok::Punct(":") => {
                    if let Some(id) = lx.ident(j.wrapping_sub(1)) {
                        name = Some(id);
                    }
                    break;
                }
                _ => {}
            }
        }
        if let Some(n) = name {
            if n != "mut" && !names.iter().any(|x| x == n) {
                names.push(n.to_owned());
            }
        }
    }
    names
}

/// Base identifiers of the receiver chain ending just before token `dot`
/// (e.g. `self.l2[c.index()].iter_mut()` yields `l2`, `index`, `c`).
fn receiver_idents(lx: &Lexed, dot: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut j = dot; // index of the `.` token; receiver ends at dot-1
    let mut steps = 0;
    while j > 0 && steps < 48 {
        j -= 1;
        steps += 1;
        match &lx.tokens[j].tok {
            Tok::Punct("]") | Tok::Punct(")") => {
                // Skip the bracketed group.
                let (open, close) = if lx.is_punct(j, "]") {
                    ("[", "]")
                } else {
                    ("(", ")")
                };
                let mut depth = 1usize;
                while j > 0 && depth > 0 {
                    j -= 1;
                    if lx.is_punct(j, close) {
                        depth += 1;
                    } else if lx.is_punct(j, open) {
                        depth -= 1;
                    } else if let Some(id) = lx.ident(j) {
                        out.push(id.to_owned());
                    }
                }
            }
            Tok::Ident(id) => out.push(id.clone()),
            Tok::Punct(".") | Tok::Punct("::") | Tok::Punct("?") => {}
            _ => break,
        }
    }
    out
}

fn path_seq(lx: &Lexed, i: usize, a: &str, b: &str) -> bool {
    lx.is_ident(i, a) && lx.is_punct(i + 1, "::") && lx.is_ident(i + 2, b)
}

// ------------------------------------------------------------ analysis

/// Lints one file's source text. `rel_path` selects which rules apply
/// (crate scoping and bin-likeness).
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Finding> {
    let class = classify(rel_path);
    let lx = lex(src);
    let mut pragmas = parse_pragmas(&lx);
    let regions = test_regions(&lx);
    let in_test = |ix: usize| regions.iter().any(|&(s, e)| ix >= s && ix < e);

    let mut code_lines: Vec<u32> = lx.tokens.iter().map(|t| t.line).collect();
    code_lines.dedup();

    let mut findings: Vec<Finding> = Vec::new();
    let mut push = |rule: &'static str, line: u32, message: String| {
        if pragmas.suppressed(rule, line, &code_lines)
            || findings.iter().any(|f| f.rule == rule && f.line == line)
        {
            return;
        }
        findings.push(Finding {
            rule,
            file: rel_path.to_owned(),
            line,
            message,
        });
    };

    let crate_str = class.crate_name.as_str();
    let hash_scope = HASH_ITER_CRATES.contains(&crate_str);
    let sim_scope = SIM_PATH_CRATES.contains(&crate_str);

    let hash_names = if hash_scope {
        hash_bound_names(&lx)
    } else {
        Vec::new()
    };

    for i in 0..lx.tokens.len() {
        let line = lx.tokens[i].line;

        // --- hash-iter -------------------------------------------------
        if hash_scope {
            // `recv.iter()` style: a hash-bound name in the receiver chain.
            if i >= 1
                && lx.is_punct(i - 1, ".")
                && lx.is_punct(i + 1, "(")
                && lx.ident(i).is_some_and(|m| ITER_METHODS.contains(&m))
            {
                let recv = receiver_idents(&lx, i - 1);
                if let Some(n) = recv.iter().find(|n| hash_names.contains(n)) {
                    push(
                        "hash-iter",
                        line,
                        format!(
                            "iteration over hash collection `{n}` (order is \
                             nondeterministic); use BTreeMap/sorted keys or \
                             justify with an allow pragma"
                        ),
                    );
                }
            }
            // `for x in &name` / `for x in name` style.
            if lx.is_ident(i, "in") && (1..=8).any(|d| i >= d && lx.is_ident(i - d, "for")) {
                let mut j = i + 1;
                while lx.is_punct(j, "&") || lx.is_ident(j, "mut") {
                    j += 1;
                }
                if let Some(id) = lx.ident(j) {
                    if hash_names.iter().any(|n| n == id) {
                        push(
                            "hash-iter",
                            line,
                            format!(
                                "`for` loop over hash collection `{id}` (order \
                                 is nondeterministic)"
                            ),
                        );
                    }
                }
            }
        }

        // --- wall-clock / sim-thread / sim-env -------------------------
        if sim_scope {
            if path_seq(&lx, i, "std", "time")
                || path_seq(&lx, i, "Instant", "now")
                || path_seq(&lx, i, "SystemTime", "now")
                || lx.is_ident(i, "SystemTime")
            {
                push(
                    "wall-clock",
                    line,
                    "wall-clock time on the simulation path; model time in \
                     cycles instead"
                        .to_owned(),
                );
            }
            if path_seq(&lx, i, "std", "thread")
                || path_seq(&lx, i, "thread", "spawn")
                || (i >= 1 && lx.is_punct(i - 1, ".") && lx.is_ident(i, "spawn"))
            {
                push(
                    "sim-thread",
                    line,
                    "thread use on the simulation path; keep the engine \
                     single-threaded or justify determinism with an allow \
                     pragma"
                        .to_owned(),
                );
            }
            if path_seq(&lx, i, "std", "env")
                || path_seq(&lx, i, "env", "var")
                || path_seq(&lx, i, "env", "var_os")
            {
                push(
                    "sim-env",
                    line,
                    "environment read on the simulation path; thread \
                     configuration through SimConfig instead"
                        .to_owned(),
                );
            }
        }

        // --- no-panic --------------------------------------------------
        if class.kind == FileKind::Lib
            && !in_test(i)
            && i >= 1
            && lx.is_punct(i - 1, ".")
            && lx.is_punct(i + 1, "(")
        {
            if let Some(m @ ("unwrap" | "expect")) = lx.ident(i) {
                push(
                    "no-panic",
                    line,
                    format!(
                        "`.{m}()` in library code; return a Result or justify \
                         the invariant with an allow pragma"
                    ),
                );
            }
        }

        // --- fleet-capture ---------------------------------------------
        // At a `parallel_map(...)`/`parallel_map_ok(...)`/
        // `parallel_map_telemetry(...)` call site, scan the balanced
        // argument list (which contains the job closure) for
        // shared-mutable-state constructs. Definitions (`fn parallel_map`)
        // are skipped; type positions outside the call are not scanned.
        if lx.ident(i).is_some_and(|id| {
            matches!(
                id,
                "parallel_map" | "parallel_map_ok" | "parallel_map_telemetry"
            )
        }) && lx.is_punct(i + 1, "(")
            && !(i >= 1 && lx.is_ident(i - 1, "fn"))
        {
            let mut depth = 1usize;
            let mut j = i + 2;
            while j < lx.tokens.len() && depth > 0 {
                if lx.is_punct(j, "(") {
                    depth += 1;
                } else if lx.is_punct(j, ")") {
                    depth -= 1;
                } else if let Some(id @ ("Rc" | "RefCell" | "Mutex" | "RwLock")) = lx.ident(j) {
                    push(
                        "fleet-capture",
                        lx.tokens[j].line,
                        format!(
                            "`{id}` inside a fleet job; jobs must be pure \
                             functions of their item (execution order is \
                             unspecified, only result order is deterministic)"
                        ),
                    );
                } else if j >= 1
                    && lx.is_punct(j - 1, ".")
                    && lx.is_punct(j + 1, "(")
                    && matches!(lx.ident(j), Some("lock" | "borrow_mut"))
                {
                    let m = lx.ident(j).unwrap_or_default();
                    push(
                        "fleet-capture",
                        lx.tokens[j].line,
                        format!(
                            "`.{m}()` inside a fleet job; jobs must not \
                             share mutable state (execution order is \
                             unspecified)"
                        ),
                    );
                }
                j += 1;
            }
        }

        // --- banned-import ---------------------------------------------
        if let Some(id @ ("rand" | "proptest" | "criterion")) = lx.ident(i) {
            let used = lx.is_punct(i + 1, "::")
                || (i >= 1 && lx.is_ident(i - 1, "use"))
                || (i >= 2 && lx.is_ident(i - 1, "crate") && lx.is_ident(i - 2, "extern"));
            if used {
                push(
                    "banned-import",
                    line,
                    format!(
                        "external crate `{id}` is banned; the workspace is \
                         hermetic (chiplet-harness provides RNG, property \
                         tests and benches)"
                    ),
                );
            }
        }
    }

    // --- stale-todo (comment-based) ------------------------------------
    for c in &lx.comments {
        for marker in ["TODO", "FIXME", "XXX", "HACK"] {
            let mut start = 0usize;
            while let Some(pos) = c.text[start..].find(marker) {
                let abs = start + pos;
                start = abs + marker.len();
                let before_ok = abs == 0 || !c.text.as_bytes()[abs - 1].is_ascii_alphanumeric();
                let after = c.text[abs + marker.len()..].trim_start();
                let after_boundary = !c.text.as_bytes()[abs + marker.len()..]
                    .first()
                    .is_some_and(|b| b.is_ascii_alphanumeric());
                if !before_ok || !after_boundary {
                    continue;
                }
                let has_ref = after.starts_with('(')
                    && after[1..].split(')').next().is_some_and(|s| !s.is_empty());
                if !has_ref {
                    let line =
                        c.line + c.text[..abs].bytes().filter(|&b| b == b'\n').count() as u32;
                    if !pragmas.suppressed("stale-todo", line, &code_lines)
                        && !findings
                            .iter()
                            .any(|f| f.rule == "stale-todo" && f.line == line)
                    {
                        findings.push(Finding {
                            rule: "stale-todo",
                            file: rel_path.to_owned(),
                            line,
                            message: format!(
                                "bare `{marker}` marker; tag an owner or \
                                 ticket like `{marker}(#12)` so it stays \
                                 actionable"
                            ),
                        });
                    }
                }
            }
        }
    }

    // --- unused-allow ---------------------------------------------------
    // Deliberately not suppressible: an `allow(unused-allow)` pragma could
    // only ever justify itself, so it is reported like any other dead one.
    for a in &pragmas.allows {
        if a.used {
            continue;
        }
        let scope = if a.file_scope { "allow-file" } else { "allow" };
        let message = if RULES.iter().any(|r| r.id == a.rule) {
            format!(
                "`{scope}({})` suppresses no finding; delete the stale \
                 pragma (or restore the justification it documented)",
                a.rule
            )
        } else {
            format!(
                "`{scope}({})` names no known rule; see --rules for the \
                 catalogue",
                a.rule
            )
        };
        findings.push(Finding {
            rule: "unused-allow",
            file: rel_path.to_owned(),
            line: a.line,
            message,
        });
    }

    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_scopes_paths() {
        assert_eq!(classify("crates/sim/src/engine.rs").crate_name, "sim");
        assert_eq!(classify("crates/sim/src/engine.rs").kind, FileKind::Lib);
        assert_eq!(
            classify("crates/bench/benches/microbench.rs").kind,
            FileKind::BinLike
        );
        assert_eq!(classify("src/main.rs").kind, FileKind::BinLike);
        assert_eq!(classify("src/lib.rs").kind, FileKind::Lib);
        assert_eq!(classify("crates/mem/tests/x.rs").kind, FileKind::BinLike);
        assert_eq!(classify("examples/quickstart.rs").kind, FileKind::BinLike);
    }

    #[test]
    fn hash_names_found_through_wrappers() {
        let lx = lex(
            "struct S { l2: Vec<HashMap<LineAddr, Entry>>, homes: HashMap<PageAddr, ChipletId> }\n\
             fn f() { let mut m = HashMap::new(); }",
        );
        let names = hash_bound_names(&lx);
        assert!(names.contains(&"l2".to_owned()));
        assert!(names.contains(&"homes".to_owned()));
        assert!(names.contains(&"m".to_owned()));
    }

    #[test]
    fn hash_iteration_flagged_only_in_scoped_crates() {
        let src = "use std::collections::HashMap;\n\
                   fn f(m: &mut HashMap<u32, u32>) { for (k, v) in m.iter_mut() { let _ = (k, v); } }";
        assert!(lint_source("crates/sim/src/x.rs", src)
            .iter()
            .any(|f| f.rule == "hash-iter"));
        assert!(lint_source("crates/workloads/src/x.rs", src)
            .iter()
            .all(|f| f.rule != "hash-iter"));
    }

    #[test]
    fn hash_lookup_is_not_iteration() {
        let src = "use std::collections::HashMap;\n\
                   fn f(m: &HashMap<u32, u32>) -> Option<&u32> { m.get(&1) }";
        assert!(lint_source("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn indexed_receiver_chain_resolves() {
        let src = "struct S { l2: Vec<HashMap<u64, u64>> }\n\
                   impl S { fn f(&mut self, c: usize) { for x in self.l2[c].iter_mut() { let _ = x; } } }";
        let f = lint_source("crates/sim/src/x.rs", src);
        assert!(
            f.iter().any(|f| f.rule == "hash-iter" && f.line == 2),
            "{f:?}"
        );
    }

    #[test]
    fn wall_clock_and_thread_and_env_scoped() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n\
                   fn g() { std::thread::spawn(|| {}); }\n\
                   fn h() { let _ = std::env::var(\"X\"); }";
        let f = lint_source("crates/sim/src/x.rs", src);
        assert!(f.iter().any(|f| f.rule == "wall-clock" && f.line == 1));
        assert!(f.iter().any(|f| f.rule == "sim-thread" && f.line == 2));
        assert!(f.iter().any(|f| f.rule == "sim-env" && f.line == 3));
        // The harness crate is exempt (it is the bench/obs toolkit).
        assert!(lint_source("crates/harness/src/x.rs", src).is_empty());
    }

    #[test]
    fn enum_variant_named_instant_is_fine() {
        let src = "enum Phase { Instant }\nfn f() -> Phase { Phase::Instant }";
        assert!(lint_source("crates/obs/src/x.rs", src).is_empty());
    }

    #[test]
    fn unwrap_flagged_in_lib_not_in_tests_or_bins() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   #[cfg(test)]\nmod tests { fn t(x: Option<u32>) { x.unwrap(); } }";
        let f = lint_source("crates/mem/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-panic");
        assert_eq!(f[0].line, 1);
        assert!(lint_source("crates/mem/tests/x.rs", src).is_empty());
    }

    #[test]
    fn unwrap_or_variants_not_flagged() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0).max(x.unwrap_or_default()) }";
        assert!(lint_source("crates/mem/src/x.rs", src).is_empty());
    }

    #[test]
    fn fleet_capture_flags_shared_state_only_inside_job_args() {
        let src = "use std::rc::Rc;\n\
                   fn f(items: &[u32], seen: Rc<Vec<u32>>) {\n\
                   parallel_map(items, 4, |v| {\n\
                   let shared = Rc::clone(&seen);\n\
                   shared.lock();\n\
                   });\n\
                   }";
        let f = lint_source("crates/harness/src/x.rs", src);
        let fleet: Vec<_> = f.iter().filter(|f| f.rule == "fleet-capture").collect();
        assert_eq!(fleet.len(), 2, "{f:?}");
        assert_eq!(fleet[0].line, 4, "Rc inside the call args");
        assert_eq!(fleet[1].line, 5, ".lock() inside the call args");
    }

    #[test]
    fn fleet_capture_skips_definitions_and_pure_jobs() {
        // The definition itself mentions Mutex internally — not a call site.
        let def = "pub fn parallel_map(items: &[u32]) { let m = Mutex::new(0); m.lock(); }";
        assert!(lint_source("crates/harness/src/x.rs", def).is_empty());
        // A pure job closure is fine.
        let pure = "fn f(items: &[u32]) { parallel_map_ok(items, 4, |v| v * 2); }";
        assert!(lint_source("crates/harness/src/x.rs", pure).is_empty());
    }

    #[test]
    fn banned_imports_flagged_everywhere() {
        for src in [
            "use rand::Rng;",
            "extern crate criterion;",
            "fn f() { let x = proptest::string(); }",
        ] {
            assert!(
                lint_source("crates/harness/src/x.rs", src)
                    .iter()
                    .any(|f| f.rule == "banned-import"),
                "{src}"
            );
        }
        // A local variable merely named `rand` is fine.
        assert!(lint_source("crates/harness/src/x.rs", "fn f() { let rand = 3; }").is_empty());
    }

    #[test]
    fn stale_todo_requires_reference() {
        let f = lint_source("crates/sim/src/x.rs", "// TODO fix this later\nfn f() {}");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "stale-todo");
        assert!(lint_source("crates/sim/src/x.rs", "// TODO(#42): tracked\nfn f() {}").is_empty());
        // Markers embedded in words don't fire.
        assert!(lint_source("crates/sim/src/x.rs", "// the HACKMEM trick\nfn f() {}").is_empty());
    }

    #[test]
    fn allow_pragma_suppresses_same_and_next_code_line() {
        let same = "fn f(x: Option<u32>) -> u32 { x.unwrap() } // chiplet-check: allow(no-panic) invariant";
        assert!(lint_source("crates/mem/src/x.rs", same).is_empty());
        let above = "// chiplet-check: allow(no-panic) — checked by caller\n\
                     fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert!(lint_source("crates/mem/src/x.rs", above).is_empty());
        // A pragma does not leak past the next code line — the unwrap on
        // line 3 still fires, and the pragma itself is now dead.
        let leak = "// chiplet-check: allow(no-panic)\n\
                    fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n\
                    fn g(x: Option<u32>) -> u32 { x.unwrap() }";
        let f = lint_source("crates/mem/src/x.rs", leak);
        assert_eq!(f.len(), 2, "{f:?}");
        assert_eq!((f[0].rule, f[0].line), ("unused-allow", 1));
        assert_eq!((f[1].rule, f[1].line), ("no-panic", 3));
    }

    #[test]
    fn allow_file_pragma_covers_whole_file() {
        let src = "// chiplet-check: allow-file(no-panic) — CLI support crate\n\
                   fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   fn g(x: Option<u32>) -> u32 { x.expect(\"set\") }";
        assert!(lint_source("crates/mem/src/x.rs", src).is_empty());
    }

    #[test]
    fn raw_strings_and_nested_comments_hide_rule_triggers() {
        // Rule triggers quoted inside a raw string or a nested block
        // comment must not fire; the real unwrap after them must, at the
        // correct (line-synced) span.
        let src = "fn f() -> &'static str {\n\
                   \x20   r#\"std::time::Instant::now() .unwrap() \"quoted\" TODO bare\"#\n\
                   }\n\
                   /* nested /* std::thread::spawn(std::env::var) */ .expect( */\n\
                   fn g(x: Option<u32>) -> u32 { x.unwrap() }";
        let f = lint_source("crates/sim/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].rule, f[0].line), ("no-panic", 5));
    }

    #[test]
    fn unused_allow_flags_dead_and_unknown_pragmas() {
        // A pragma whose rule never fires on its covered line is dead.
        let dead = "// chiplet-check: allow(no-panic) — nothing panics here\n\
                    fn f(a: u32) -> u32 { a + 1 }";
        let f = lint_source("crates/mem/src/x.rs", dead);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].rule, f[0].line), ("unused-allow", 1));
        assert!(
            f[0].message.contains("suppresses no finding"),
            "{}",
            f[0].message
        );

        // An unknown rule id can never suppress anything; say so.
        let unknown = "// chiplet-check: allow(no-painc)\n\
                       fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        let f = lint_source("crates/mem/src/x.rs", unknown);
        assert_eq!(f.len(), 2, "{f:?}");
        assert_eq!(f[0].rule, "unused-allow");
        assert!(f[0].message.contains("no known rule"), "{}", f[0].message);
        assert_eq!(f[1].rule, "no-panic");

        // A dead file-scope pragma is reported at its own line.
        let dead_file = "// chiplet-check: allow-file(sim-thread)\n\
                         fn f(a: u32) -> u32 { a }";
        let f = lint_source("crates/sim/src/x.rs", dead_file);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].message.contains("allow-file(sim-thread)"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn unused_allow_is_not_suppressible() {
        // Both pragmas are dead, and the first cannot excuse the second.
        let src = "// chiplet-check: allow(unused-allow)\n\
                   // chiplet-check: allow(no-panic)\n\
                   fn f(a: u32) -> u32 { a }";
        let f = lint_source("crates/mem/src/x.rs", src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == "unused-allow"));
    }

    #[test]
    fn live_pragmas_are_not_flagged_unused() {
        // One pragma suppressing two same-line candidates is used once
        // and silent; a file pragma used anywhere in the file is silent.
        let line = "fn f(a: Option<u32>, b: Option<u32>) -> u32 \
                    { a.unwrap() + b.unwrap() } // chiplet-check: allow(no-panic) — invariant";
        assert!(lint_source("crates/mem/src/x.rs", line).is_empty());
        let file = "// chiplet-check: allow-file(no-panic) — abort-by-contract crate\n\
                    fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
                    fn g(a: u32) -> u32 { a }";
        assert!(lint_source("crates/mem/src/x.rs", file).is_empty());
        // A line pragma shadowed by a live file pragma still counts as
        // used (both match the same finding; neither is reported).
        let shadowed = "// chiplet-check: allow-file(no-panic)\n\
                        // chiplet-check: allow(no-panic)\n\
                        fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert!(lint_source("crates/mem/src/x.rs", shadowed).is_empty());
    }

    #[test]
    fn doc_quoted_pragma_examples_are_not_pragmas() {
        // Prose quoting the pragma syntax (nested `//` as in this very
        // module's docs) must not register as a dead pragma.
        let src = "//! ```text\n\
                   //! // chiplet-check: allow(no-panic) — why\n\
                   //! ```\n\
                   /// honors `// chiplet-check: allow(<rule>)` pragmas\n\
                   pub fn f(a: u32) -> u32 { a }";
        assert!(lint_source("crates/mem/src/x.rs", src).is_empty());
    }

    #[test]
    fn findings_dedupe_per_line_and_sort() {
        let src = "fn f(a: Option<u32>, b: Option<u32>) -> u32 { a.unwrap() + b.unwrap() }";
        let f = lint_source("crates/mem/src/x.rs", src);
        assert_eq!(f.len(), 1, "one finding per (rule, line)");
    }
}
