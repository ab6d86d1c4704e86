//! L7 `hold-and-block` — no blocking work under a lock.
//!
//! A guard held across a blocking call turns one slow syscall into a
//! stall for every contender — the serve worker pool, the sampler
//! thread, whoever shares the lock. This pass reuses the guard-scope
//! machinery ([`super::guards`]) and flags, inside the panic-scoped
//! crates, any of the following performed while *any* guard is lexically
//! alive:
//!
//! * `Condvar::wait` / `wait_timeout` / `wait_while` — waiting re-blocks
//!   on reacquire and is only sound on the condvar's own mutex; holding
//!   a *second* guard across it is a latent deadlock.
//! * `thread::join` (zero-arg `.join()`) — unbounded wait.
//! * channel `.recv()` / `.recv_timeout()` — unbounded or timed wait.
//! * file I/O — `.write_all` / `.flush()` / `.sync_all` / `.sync_data` /
//!   `.read_to_string` / `.read_to_end` / `.open`, `fs::…(…)` calls, and
//!   `write!` / `writeln!` macros (the lexical model cannot prove the
//!   destination is an in-memory `String`; real-file uses are ratcheted
//!   through the allowlist, string formatting under a lock is still
//!   worth a look).
//! * HTTP/socket writes — `.write_to(` and the `close_gracefully` drain.
//!
//! Like panic-freedom, the pass is allowlist-ratcheted: surviving sites
//! carry `[[allow]]` entries (pass `hold-and-block`) with justifications
//! explaining why the lock must span the call.

use crate::passes::guards::GuardScan;
use crate::report::{Finding, Pass};
use crate::{Config, SourceFile};

/// Runs L7 over the panic-scoped crates. `scans` is parallel to `files`.
pub fn run(files: &[SourceFile], scans: &[GuardScan], cfg: &Config, findings: &mut Vec<Finding>) {
    for (file, scan) in files.iter().zip(scans) {
        if !cfg.panic_crates.iter().any(|c| *c == file.crate_name) {
            continue;
        }
        for b in &scan.blocking {
            let Some(h) = b.held.last() else {
                continue;
            };
            findings.push(Finding {
                pass: Pass::HoldAndBlock,
                file: file.rel.clone(),
                line: b.line,
                message: format!(
                    "{} `{}` while `{}` guard (line {}) is held — blocking under a \
                     lock stalls every contender; move the call outside the critical \
                     section or justify it with an [[allow]] entry",
                    b.what, b.callee, h.base, h.line
                ),
            });
        }
    }
}
