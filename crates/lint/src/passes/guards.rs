//! Shared guard-scope machinery for the lock passes.
//!
//! One lexical walk per file produces everything L4 (lock-discipline),
//! L6 (lock-graph) and L7 (hold-and-block) need:
//!
//! * **Lock declarations** — struct fields and statics whose type is
//!   `Mutex<…>` / `RwLock<…>` (directly or one wrapper deep, e.g.
//!   `Option<Mutex<…>>`, `OnceLock<RwLock<…>>`). A declaration names a
//!   graph node `(file, field)`.
//! * **Acquisitions** — zero-argument `.lock()` / `.read()` / `.write()`
//!   calls, each with a snapshot of the guards lexically held at that
//!   point.
//! * **Blocking calls** — `Condvar` waits, `thread::join`, channel
//!   `recv`, file I/O and HTTP/socket writes, each with the same held
//!   snapshot.
//!
//! Guard lifetimes are tracked lexically:
//!
//! * A `let`-bound acquisition whose adapter chain (`unwrap`, `expect`,
//!   `unwrap_or_else`) reaches the statement's `;` — possibly through
//!   closing parens of a wrapper call like `lock_ok(x.lock())` and `?` —
//!   is a **named guard**, held until its enclosing brace scope closes
//!   or `drop(name)` runs.
//! * Any other acquisition is **pending**: if a `{` opens before the
//!   statement ends (`if let Ok(g) = x.lock() { … }`,
//!   `match x.lock() { … }`), the guard attaches to that brace scope and
//!   lives to its `}`; otherwise it dies at the next `;` (temporaries
//!   drop at the end of the statement).
//!
//! The model is syntactic and intentionally conservative in both
//! directions; the fixture suite in `crates/lint/tests` pins down the
//! exact semantics.

use crate::lexer::TokKind;
use crate::passes::{matching_paren, next_code, prev_code};
use crate::SourceFile;

/// Methods whose zero-argument call is a lock acquisition.
pub const LOCK_METHODS: [&str; 3] = ["lock", "read", "write"];
/// Result adapters an acquisition chain may pass through.
pub const ADAPTERS: [&str; 3] = ["unwrap", "expect", "unwrap_or_else"];

/// A `Mutex`/`RwLock` struct field or static harvested from a file.
#[derive(Debug, Clone)]
pub struct LockDecl {
    /// Field or static name as written in source.
    pub name: String,
    /// `Mutex` or `RwLock`.
    pub kind: String,
    /// 1-based declaration line.
    pub line: u32,
}

/// One guard lexically held at some program point.
#[derive(Debug, Clone)]
pub struct HeldRef {
    /// Receiver base of the acquisition (`inner` for `self.inner.write()`).
    pub base: String,
    /// Line the guard was acquired on.
    pub line: u32,
}

/// One `.lock()`/`.read()`/`.write()` call site.
#[derive(Debug)]
pub struct Acquisition {
    /// Receiver base name (see [`HeldRef::base`]).
    pub base: String,
    /// The method (`lock`, `read`, `write`).
    pub method: String,
    /// 1-based call line.
    pub line: u32,
    /// Guards held when this acquisition runs (outermost first).
    pub held: Vec<HeldRef>,
}

/// One potentially-blocking call site.
#[derive(Debug)]
pub struct BlockingCall {
    /// What the call does (`Condvar wait`, `file I/O`, …).
    pub what: String,
    /// The callee as written (`wait_timeout`, `writeln!`, `fs::rename`).
    pub callee: String,
    /// 1-based call line.
    pub line: u32,
    /// Guards held when this call runs (outermost first).
    pub held: Vec<HeldRef>,
}

/// Everything one scan of a file produced.
#[derive(Debug, Default)]
pub struct GuardScan {
    /// Lock declarations (fields/statics) in the file.
    pub decls: Vec<LockDecl>,
    /// Acquisition sites with held-guard snapshots.
    pub acquisitions: Vec<Acquisition>,
    /// Blocking calls with held-guard snapshots.
    pub blocking: Vec<BlockingCall>,
}

#[derive(Debug)]
struct Guard {
    base: String,
    binding: Option<String>,
    line: u32,
}

/// Methods that block, with the label hold-and-block reports. `join` and
/// `flush` only count when called with zero arguments (`path.join("x")`
/// and `fmt::Write::flush` variants take arguments); the I/O methods may
/// take buffers.
const BLOCKING_METHODS: [(&str, &str, bool); 13] = [
    ("wait", "Condvar wait", false),
    ("wait_timeout", "Condvar wait", false),
    ("wait_while", "Condvar wait", false),
    ("join", "thread join", true),
    ("recv", "channel recv", false),
    ("recv_timeout", "channel recv", false),
    ("write_all", "file/socket write", false),
    ("flush", "file/socket flush", true),
    ("sync_all", "file sync", false),
    ("sync_data", "file sync", false),
    ("read_to_string", "file/socket read", false),
    ("read_to_end", "file/socket read", false),
    ("open", "file open", false),
];

/// Functions that write to (or drain) an HTTP client socket.
const HTTP_WRITERS: [&str; 2] = ["close_gracefully", "write_to"];

/// Scans `file` once, producing declarations, acquisitions and blocking
/// calls with lexically-tracked held-guard snapshots.
pub fn scan(file: &SourceFile) -> GuardScan {
    let mut out = GuardScan::default();
    harvest_decls(file, &mut out.decls);

    let toks = &file.toks;
    // scopes[0] is file level; `{` pushes (adopting pending transients),
    // `}` pops. `pending` holds transients of the current statement.
    let mut scopes: Vec<Vec<Guard>> = vec![Vec::new()];
    let mut pending: Vec<Guard> = Vec::new();
    let mut stmt_let: Option<Option<String>> = None;

    let held_snapshot = |scopes: &[Vec<Guard>], pending: &[Guard]| -> Vec<HeldRef> {
        scopes
            .iter()
            .flatten()
            .chain(pending.iter())
            .map(|g| HeldRef {
                base: g.base.clone(),
                line: g.line,
            })
            .collect()
    };

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if file.mask[i] || t.kind == TokKind::Comment {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "{" => {
                // `if let Ok(g) = x.lock() {` / `match x.lock() {`: the
                // temporary guard lives for the brace scope it gates.
                scopes.push(std::mem::take(&mut pending));
                stmt_let = None;
                i += 1;
                continue;
            }
            "}" => {
                pending.clear();
                if scopes.len() > 1 {
                    scopes.pop();
                }
                stmt_let = None;
                i += 1;
                continue;
            }
            ";" => {
                pending.clear();
                stmt_let = None;
                i += 1;
                continue;
            }
            _ => {}
        }
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        if t.text == "let" {
            // Record the binding name for drop()-tracking; patterns like
            // `let (a, b)` just record no name.
            let mut j = next_code(toks, i + 1);
            if j.is_some_and(|j| toks[j].is_ident("mut")) {
                j = next_code(toks, j.unwrap() + 1);
            }
            let binding = j
                .filter(|&j| toks[j].kind == TokKind::Ident)
                .map(|j| toks[j].text.clone());
            stmt_let = Some(binding);
            i += 1;
            continue;
        }
        if t.text == "drop" {
            // drop(name) releases the named guard early.
            let name = next_code(toks, i + 1)
                .filter(|&j| toks[j].is_punct("("))
                .and_then(|j| next_code(toks, j + 1))
                .filter(|&j| toks[j].kind == TokKind::Ident)
                .map(|j| toks[j].text.clone());
            if let Some(name) = name {
                for scope in &mut scopes {
                    scope.retain(|g| g.base != name && g.binding.as_deref() != Some(name.as_str()));
                }
                pending.retain(|g| g.base != name && g.binding.as_deref() != Some(name.as_str()));
            }
            i += 1;
            continue;
        }

        let after_dot = prev_code(toks, i).is_some_and(|j| toks[j].is_punct("."));
        // Path-qualified free functions (`lockcheck::wait_timeout(…)`)
        // count for blocking detection: wrapping a wait in a helper must
        // not hide it from the hold-and-block pass.
        let after_path = prev_code(toks, i).is_some_and(|j| toks[j].is_punct("::"));
        let open = next_code(toks, i + 1).filter(|&j| toks[j].is_punct("("));

        // --- blocking calls -------------------------------------------
        if let Some(open) = open {
            let zero_arg = next_code(toks, open + 1).is_some_and(|j| toks[j].is_punct(")"));
            if after_dot || after_path {
                for (m, what, needs_zero_arg) in BLOCKING_METHODS {
                    if t.text == m && (!needs_zero_arg || zero_arg) {
                        out.blocking.push(BlockingCall {
                            what: what.to_string(),
                            callee: t.text.clone(),
                            line: t.line,
                            held: held_snapshot(&scopes, &pending),
                        });
                    }
                }
            } else if HTTP_WRITERS.contains(&t.text.as_str()) {
                out.blocking.push(BlockingCall {
                    what: "HTTP/socket write".to_string(),
                    callee: t.text.clone(),
                    line: t.line,
                    held: held_snapshot(&scopes, &pending),
                });
            }
        }
        // `fs::rename(..)`, `std::fs::write(..)`: path calls into std::fs.
        if t.text == "fs" && !after_dot {
            let callee = next_code(toks, i + 1)
                .filter(|&j| toks[j].is_punct("::"))
                .and_then(|j| next_code(toks, j + 1))
                .filter(|&j| toks[j].kind == TokKind::Ident)
                .filter(|&j| next_code(toks, j + 1).is_some_and(|k| toks[k].is_punct("(")))
                .map(|j| toks[j].text.clone());
            if let Some(callee) = callee {
                out.blocking.push(BlockingCall {
                    what: "file I/O".to_string(),
                    callee: format!("fs::{callee}"),
                    line: t.line,
                    held: held_snapshot(&scopes, &pending),
                });
            }
        }
        // `write!(..)` / `writeln!(..)`: formatted writes — blocking when
        // the destination is a file or socket (the pass cannot see the
        // type; shipped-tree uses are ratcheted through the allowlist).
        if (t.text == "write" || t.text == "writeln")
            && !after_dot
            && next_code(toks, i + 1).is_some_and(|j| toks[j].is_punct("!"))
        {
            out.blocking.push(BlockingCall {
                what: "formatted write".to_string(),
                callee: format!("{}!", t.text),
                line: t.line,
                held: held_snapshot(&scopes, &pending),
            });
        }

        // --- lock acquisitions ----------------------------------------
        let is_lock_method = LOCK_METHODS.contains(&t.text.as_str()) && after_dot;
        if !is_lock_method {
            i += 1;
            continue;
        }
        // Zero-argument call: `(` immediately closing with `)` keeps
        // `io::Read::read(&mut buf)` / `io::Write::write(&buf)` out.
        let Some(open) = open else {
            i += 1;
            continue;
        };
        let Some(close) = next_code(toks, open + 1).filter(|&j| toks[j].is_punct(")")) else {
            i += 1;
            continue;
        };

        let base = receiver_base(toks, i);
        out.acquisitions.push(Acquisition {
            base: base.clone(),
            method: t.text.clone(),
            line: t.line,
            held: held_snapshot(&scopes, &pending),
        });

        // Scan the adapter chain to decide guard longevity.
        let mut end = close;
        loop {
            let Some(dot) = next_code(toks, end + 1).filter(|&j| toks[j].is_punct(".")) else {
                break;
            };
            let Some(m) = next_code(toks, dot + 1).filter(|&j| {
                toks[j].kind == TokKind::Ident && ADAPTERS.contains(&toks[j].text.as_str())
            }) else {
                break;
            };
            let Some(aopen) = next_code(toks, m + 1).filter(|&j| toks[j].is_punct("(")) else {
                break;
            };
            end = matching_paren(toks, aopen);
        }
        // Named guard: the chain reaches the statement's `;` through
        // nothing but closing parens (wrapper calls like
        // `lock_ok(x.lock())`) and `?`.
        let mut j = end + 1;
        let ends_stmt = loop {
            match next_code(toks, j) {
                Some(k) if toks[k].is_punct(")") || toks[k].is_punct("?") => j = k + 1,
                Some(k) => break toks[k].is_punct(";"),
                None => break false,
            }
        };

        let guard = Guard {
            base,
            binding: stmt_let.clone().flatten(),
            line: t.line,
        };
        match (&stmt_let, ends_stmt) {
            (Some(_), true) => {
                if let Some(scope) = scopes.last_mut() {
                    scope.push(guard);
                }
            }
            _ => pending.push(guard),
        }
        i += 1;
    }
    out
}

/// The receiver base of a method call: the ident before the `.` (for
/// `self.inner.write()` → `inner`), or the function name for call
/// receivers (`global_sinks().read()` → `global_sinks`), else `<expr>`.
fn receiver_base(toks: &[crate::lexer::Tok], method_idx: usize) -> String {
    let Some(dot) = prev_code(toks, method_idx) else {
        return "<expr>".to_string();
    };
    let Some(prev) = prev_code(toks, dot) else {
        return "<expr>".to_string();
    };
    if toks[prev].kind == TokKind::Ident {
        return toks[prev].text.clone();
    }
    if toks[prev].is_punct(")") {
        // Walk back over the call's parens to the callee ident.
        let mut depth = 0i64;
        let mut j = prev;
        loop {
            if toks[j].is_punct(")") {
                depth += 1;
            } else if toks[j].is_punct("(") {
                depth -= 1;
                if depth == 0 {
                    if let Some(callee) =
                        prev_code(toks, j).filter(|&k| toks[k].kind == TokKind::Ident)
                    {
                        return toks[callee].text.clone();
                    }
                    break;
                }
            }
            if j == 0 {
                break;
            }
            j -= 1;
        }
    }
    "<expr>".to_string()
}

/// Harvests `name: Mutex<…>` / `static NAME: RwLock<…>` declarations,
/// looking through one wrapper generic (`Option<Mutex<…>>`,
/// `OnceLock<RwLock<…>>`). `Tracked*` spellings count too, so the graph
/// survives the runtime-lockcheck wrappers.
fn harvest_decls(file: &SourceFile, out: &mut Vec<LockDecl>) {
    let toks = &file.toks;
    for i in 0..toks.len() {
        if file.mask[i] || toks[i].kind != TokKind::Ident {
            continue;
        }
        let kind = match toks[i].text.as_str() {
            "Mutex" | "TrackedMutex" => "Mutex",
            "RwLock" | "TrackedRwLock" => "RwLock",
            _ => continue,
        };
        // Type position: the lock name is followed by `<`.
        if !next_code(toks, i + 1).is_some_and(|j| toks[j].is_punct("<")) {
            continue;
        }
        // Walk back over a `::` path prefix and up to one `Wrapper<`.
        let mut j = match prev_code(toks, i) {
            Some(j) => j,
            None => continue,
        };
        loop {
            if toks[j].is_punct("::") {
                match prev_code(toks, j).and_then(|k| prev_code(toks, k)) {
                    Some(k) => j = k,
                    None => break,
                }
                continue;
            }
            if toks[j].is_punct("<") {
                // One wrapper deep: `Option<Mutex<…>>` — step to the
                // wrapper's own preceding token.
                match prev_code(toks, j).and_then(|k| {
                    if toks[k].kind == TokKind::Ident {
                        prev_code(toks, k)
                    } else {
                        None
                    }
                }) {
                    Some(k) => j = k,
                    None => break,
                }
                continue;
            }
            break;
        }
        if !toks[j].is_punct(":") {
            continue;
        }
        let Some(name_idx) = prev_code(toks, j).filter(|&k| toks[k].kind == TokKind::Ident) else {
            continue;
        };
        let name = toks[name_idx].text.clone();
        if out.iter().any(|d: &LockDecl| d.name == name) {
            continue;
        }
        out.push(LockDecl {
            name,
            kind: kind.to_string(),
            line: toks[name_idx].line,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_src(src: &str) -> GuardScan {
        scan(&SourceFile::from_source(
            "crates/core/src/fix.rs",
            "core",
            src,
        ))
    }

    #[test]
    fn harvests_field_and_static_decls_through_one_wrapper() {
        let s = scan_src(
            "use std::sync::{Mutex, RwLock, OnceLock};\n\
             struct S { inner: RwLock<u32>, opt: Option<Mutex<u8>> }\n\
             static SINKS: OnceLock<RwLock<Vec<u8>>> = OnceLock::new();\n",
        );
        let names: Vec<&str> = s.decls.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["inner", "opt", "SINKS"], "{:?}", s.decls);
        assert_eq!(s.decls[0].kind, "RwLock");
        assert_eq!(s.decls[1].kind, "Mutex");
    }

    #[test]
    fn named_guard_survives_a_wrapper_call_and_question_mark() {
        // `lock_ok(x.lock())` reaches the `;` through `)`, so the guard
        // is named and held over the nested acquisition.
        let s = scan_src(
            "fn f(s: &S) {\n\
                 let g = lock_ok(s.a.lock());\n\
                 let _h = s.b.read().unwrap();\n\
             }\n",
        );
        let nested: Vec<_> = s
            .acquisitions
            .iter()
            .filter(|a| !a.held.is_empty())
            .collect();
        assert_eq!(nested.len(), 1, "{:?}", s.acquisitions);
        assert_eq!(nested[0].base, "b");
        assert_eq!(nested[0].held[0].base, "a");
    }

    #[test]
    fn transient_guard_dies_at_the_statement_semicolon() {
        // Not let-bound: the temporary guard drops at the end of the
        // statement, so nothing is held at `b`.
        let s = scan_src(
            "fn f(s: &S) {\n\
                 consume(s.a.lock().unwrap());\n\
                 let _h = s.b.lock().unwrap();\n\
             }\n",
        );
        let b = s.acquisitions.iter().find(|a| a.base == "b").unwrap();
        assert!(b.held.is_empty(), "{:?}", s.acquisitions);
    }

    #[test]
    fn let_bound_deref_copy_is_conservatively_held() {
        // `let v = *s.a.lock().unwrap();` really drops the guard at the
        // `;`, but the scanner keeps `v` as a guard: conservative in the
        // flagging direction, pinned here so a refactor that silently
        // changes it shows up.
        let s = scan_src(
            "fn f(s: &S) {\n\
                 let v = *s.a.lock().unwrap();\n\
                 let _h = s.b.lock().unwrap();\n\
             }\n",
        );
        let b = s.acquisitions.iter().find(|a| a.base == "b").unwrap();
        assert_eq!(b.held.len(), 1, "{:?}", s.acquisitions);
    }

    #[test]
    fn blocking_calls_capture_the_held_snapshot() {
        let s = scan_src(
            "fn f(s: &S, rx: Receiver<u32>) {\n\
                 let _g = s.q.lock().unwrap();\n\
                 let _ = rx.recv();\n\
             }\n",
        );
        assert_eq!(s.blocking.len(), 1, "{:?}", s.blocking);
        assert_eq!(s.blocking[0].what, "channel recv");
        assert_eq!(s.blocking[0].held[0].base, "q");
    }

    #[test]
    fn test_code_is_masked_from_all_three_streams() {
        let s = scan_src(
            "#[cfg(test)]\nmod tests {\n\
                 struct T { m: Mutex<u32> }\n\
                 fn t(s: &T, rx: Receiver<u32>) {\n\
                     let _g = s.m.lock().unwrap();\n\
                     let _ = rx.recv();\n\
                 }\n\
             }\n",
        );
        assert!(s.decls.is_empty(), "{:?}", s.decls);
        assert!(s.acquisitions.is_empty(), "{:?}", s.acquisitions);
        assert!(s.blocking.is_empty(), "{:?}", s.blocking);
    }
}
