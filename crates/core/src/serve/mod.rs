//! One request model for every front end, and `banger serve` — a
//! persistent project daemon with caches keyed by source bytes — on top
//! of it.
//!
//! Every `banger` invocation is a [`Request`] answered by
//! [`ops::handle`] with a [`Response`]. The `banger` binary parses its
//! arguments into the request and prints the response; *where* the
//! handler runs is the only thing `--connect` changes: in the binary's
//! own process on a [`ProjectStore`] it just created, or in a daemon
//! that keeps its store — and with it every parse, analysis, compiled
//! program, schedule and warm session — resident between requests. There
//! is one renderer per verb, so the two modes cannot answer differently,
//! one list of verbs, [`ops::VERBS`], which dispatch and the binary's
//! `banger help` and usage checks all read, and one list of options,
//! [`ops::OPTIONS`], which the binary's parser, `banger help` and both
//! ends of the wire read.
//!
//! The paper's non-programmer iterates: edit a design, check it,
//! reschedule, run. The daemon makes that loop cheap, SDFG-style: a
//! long-lived process holds a concurrent [`ProjectStore`] keyed by
//! canonical `.bang` path, with a cache at every pipeline level, and
//! serves many simultaneous clients over a Unix-domain socket. The
//! handler, the protocol and the store build everywhere; the socket
//! server and client are Unix-only.
//!
//! ## Cache levels
//!
//! Every request re-reads the whole project file (no inotify dependency
//! and no metadata shortcut — the read per request is the invalidation
//! probe) and compares the bytes with the text the resident snapshot was
//! built from. Equal bytes reuse the warm snapshot; any difference
//! publishes a new one, every derived cache below it empty. Verbs read a
//! snapshot with no store lock held; only `run` holds one for long, its
//! snapshot's session lock, so on one file only `run` waits for `run`.
//!
//! | level | cache | key | invalidated by |
//! |---|---|---|---|
//! | source bytes | the text the snapshot was built from | canonical path | file rewrite |
//! | parse | [`Project`](crate::Project) (design + library + machine) | source bytes | changed bytes |
//! | diagnose | `Project::diagnose` memo, rendered warnings, `check` output per format | source bytes | changed bytes |
//! | compile | `Arc<CompiledProgram>` in the `ProgramLibrary` | program name | a change to its `begin-program` text |
//! | router + workers | [`Session`](banger_exec::Session) (routing tables, slab store, worker seats) | source bytes | changed bytes |
//! | schedule | rendered schedule + Gantt | source bytes (design and machine are in them), then heuristic | changed bytes |
//!
//! Verbs outside `check`, `gantt`/`schedule` and `run` are recomputed on
//! the resident project each time; verbs that rewrite the design work on
//! a copy of it.
//!
//! ## Protocol
//!
//! Length-prefixed JSON, read and written by the workspace's one JSON
//! module (`banger_taskgraph::json`): each frame is a big-endian `u32`
//! byte length followed by one UTF-8 JSON object. See [`protocol`] for
//! the request and response schemas. A connection carries any number of
//! request frames; the server answers each with exactly one response
//! frame.
//!
//! ## Fault containment
//!
//! The daemon handles each request under [`std::panic::catch_unwind`]: a
//! panic anywhere in the pipeline produces a structured error response,
//! the affected project is poisoned-and-rebuilt (its snapshot evicted,
//! so the next request reconstructs it from source), and the daemon keeps
//! serving — mirroring the per-task panic attribution inside the
//! executor. Tests provoke both kinds of fault through the store
//! ([`ProjectStore::inject`]); no request can.
//!
//! ## Quick start
//!
//! ```text
//! banger serve --socket /tmp/banger.sock &
//! banger --connect /tmp/banger.sock check  examples/projects/lu3.bang
//! banger --connect /tmp/banger.sock gantt  examples/projects/lu3.bang -H ETF
//! banger --connect /tmp/banger.sock run    examples/projects/lu3.bang -i A=[..] -i b=[..]
//! banger --connect /tmp/banger.sock svg    examples/projects/lu3.bang -o charts
//! banger --connect /tmp/banger.sock shutdown
//! ```
//!
//! Every verb is served. Paths are the client's: it sends the project
//! path absolute, reads `-s` files and writes `-o`/`--emit`/`--trace`
//! files itself, in its own working directory. When no daemon answers
//! on the socket the client says so and runs the handler itself — the
//! one fallback — so `--connect` is always safe to add. The daemon's own
//! verbs ([`ops::Verb::on_daemon`]: `ping`, `stats`, `evict`, `shutdown`)
//! have no local answer and so no fallback.

#[cfg(unix)]
pub mod client;
pub mod ops;
pub mod protocol;
#[cfg(unix)]
pub mod server;
pub mod store;

#[cfg(unix)]
pub use client::Client;
pub use protocol::{Request, Response};
#[cfg(unix)]
pub use server::Server;
pub use store::{content_hash, CacheStats, Fault, ProjectStore};

use std::path::PathBuf;

/// The socket path used when `--socket` is not given: `$BANGER_SOCKET`,
/// falling back to `banger.sock` in the system temp directory.
pub fn default_socket_path() -> PathBuf {
    match std::env::var_os("BANGER_SOCKET") {
        Some(p) if !p.is_empty() => PathBuf::from(p),
        _ => std::env::temp_dir().join("banger.sock"),
    }
}
