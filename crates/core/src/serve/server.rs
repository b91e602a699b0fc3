//! The daemon: a Unix-domain-socket accept loop, one thread per
//! client, panic containment per request.
//!
//! ## Lifecycle
//!
//! [`Server::bind`] claims the socket path (removing a stale socket
//! file left by a crashed daemon), [`Server::serve`] accepts until
//! [`Server::request_shutdown`] is called — by a `shutdown` request,
//! by a signal (see [`install_signal_handlers`]), or programmatically
//! from a test — then removes the socket file and returns. Between
//! connections the accept loop waits in `poll(2)` on the listener, so a
//! client is accepted the moment it connects. The wait times out every
//! `SHUTDOWN_POLL_MS` (50 ms) to re-check the shutdown flags, which a
//! `shutdown` request or a signal handled on another thread sets without
//! waking the `poll` — the price of no `libc`-level self-pipe machinery.
//!
//! ## Panic containment
//!
//! Every request runs under [`catch_unwind`]. A panic inside the
//! pipeline produces a structured error response and *poisons* the
//! project the request addressed: its snapshot is evicted, so the next
//! request rebuilds from source. The daemon itself keeps serving — one
//! hostile design cannot take down everyone's sessions.

use super::ops;
use super::protocol::{read_frame, write_frame, Request, Response};
use super::store::ProjectStore;
use banger_taskgraph::parallel::{panic_message, STACK_SIZE};
use std::io::{self, BufReader};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Set by the signal handler; checked by every accept loop. Process
/// global because POSIX signal handlers have no closure state.
static SIGNALED: AtomicBool = AtomicBool::new(false);

/// How long the accept loop waits for a connection before it re-checks
/// the shutdown flags: the most a shutdown waits, never a client.
const SHUTDOWN_POLL_MS: i32 = 50;

// The two C entry points the daemon needs; the workspace vendors no
// `libc` crate.
extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    // `nfds_t` is an `unsigned long` on Linux.
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout_ms: i32) -> i32;
}

/// `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// Blocks until `listener` has a connection to accept, a signal arrives,
/// or `SHUTDOWN_POLL_MS` pass.
fn wait_for_client(listener: &UnixListener) -> io::Result<()> {
    const POLLIN: i16 = 1;
    let mut fd = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    // SAFETY: one valid `pollfd` for the duration of the call.
    if unsafe { poll(&mut fd, 1, SHUTDOWN_POLL_MS) } < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

/// Installs `SIGINT`/`SIGTERM` handlers that request a clean shutdown
/// of every [`Server`] in the process. Uses the C `signal()` entry
/// point directly; setting one `AtomicBool` is async-signal-safe.
pub fn install_signal_handlers() {
    extern "C" fn on_signal(_signum: i32) {
        SIGNALED.store(true, Ordering::SeqCst);
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// A bound daemon, ready to [`serve`](Server::serve).
pub struct Server {
    listener: UnixListener,
    socket_path: PathBuf,
    store: Arc<ProjectStore>,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds the socket, replacing a stale socket file if one exists.
    pub fn bind(socket_path: &Path) -> io::Result<Server> {
        // A live daemon would accept; a dead one leaves a file that
        // blocks bind(2). Probe before clobbering.
        if socket_path.exists() {
            if UnixStream::connect(socket_path).is_ok() {
                return Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("a daemon is already serving {}", socket_path.display()),
                ));
            }
            std::fs::remove_file(socket_path)?;
        }
        let listener = UnixListener::bind(socket_path)?;
        Ok(Server {
            listener,
            socket_path: socket_path.to_path_buf(),
            store: Arc::new(ProjectStore::new()),
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The shared project store (exposed for benches and tests).
    pub fn store(&self) -> Arc<ProjectStore> {
        Arc::clone(&self.store)
    }

    /// A handle that makes [`serve`](Server::serve) return; callable
    /// from any thread.
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Requests a clean shutdown of this server.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Accepts clients until shutdown is requested, then removes the
    /// socket file. Each client gets its own thread; client threads
    /// are detached (the process exits right after `serve` in daemon
    /// mode, and test servers close their connections first).
    pub fn serve(&self) -> io::Result<()> {
        let result = self.accept_until_shutdown();
        std::fs::remove_file(&self.socket_path).ok();
        result
    }

    fn accept_until_shutdown(&self) -> io::Result<()> {
        // Nonblocking, so a connection that `poll` announced and that
        // was reset before `accept` costs one more wait, not a hang.
        self.listener.set_nonblocking(true)?;
        while !self.shutdown.load(Ordering::SeqCst) && !SIGNALED.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _addr)) => {
                    let store = Arc::clone(&self.store);
                    let shutdown = Arc::clone(&self.shutdown);
                    // A host that refuses a thread (EAGAIN under a flood
                    // of connections) costs that client its connection:
                    // the failed spawn drops the closure and the stream
                    // in it, and the loop keeps accepting.
                    let _ = std::thread::Builder::new()
                        .name("banger-client".into())
                        .stack_size(STACK_SIZE)
                        .spawn(move || serve_client(stream, &store, &shutdown));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    wait_for_client(&self.listener)?;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// One client connection: any number of request frames, one response
/// frame each. Returns when the client closes, on a transport error,
/// or after relaying a `shutdown`. Requests are read through a buffer,
/// one `read` per frame that fits it; frames a client sent back to back
/// wait there for their turn.
fn serve_client(stream: UnixStream, store: &ProjectStore, shutdown: &AtomicBool) {
    let mut stream = BufReader::new(stream);
    // Frames are tiny; a blocking read that outlives shutdown is fine
    // because the daemon process exits (or the test drops its client)
    // right after serve() returns.
    loop {
        let frame = match read_frame(&mut stream) {
            Ok(Some(f)) => f,
            Ok(None) => return,
            Err(_) => return,
        };
        let resp = match std::str::from_utf8(&frame) {
            Err(_) => Response::failure("request frame is not UTF-8"),
            Ok(text) => match Request::from_json(text) {
                Err(e) => Response::failure(format!("bad request: {e}")),
                Ok(req) if req.cmd == "shutdown" => {
                    shutdown.store(true, Ordering::SeqCst);
                    let resp = Response::success("shutting down\n");
                    write_frame(stream.get_mut(), resp.to_json().as_bytes()).ok();
                    return;
                }
                Ok(req) => dispatch_guarded(store, &req),
            },
        };
        if write_frame(stream.get_mut(), resp.to_json().as_bytes()).is_err() {
            return;
        }
    }
}

/// Runs one request under `catch_unwind`. On panic: counts it, poisons
/// (evicts) the addressed project's snapshot so the next request
/// rebuilds from source, and returns a structured error instead of
/// killing the connection thread.
pub fn dispatch_guarded(store: &ProjectStore, req: &Request) -> Response {
    match catch_unwind(AssertUnwindSafe(|| ops::handle(store, req))) {
        Ok(resp) => resp,
        Err(payload) => {
            store.counters.panics.fetch_add(1, Ordering::Relaxed);
            if let Some(path) = &req.path {
                // Poison-and-rebuild: a memo or the session the panic
                // interrupted must not serve another request.
                store.evict(path);
            }
            Response::failure(format!(
                "panic while handling {:?} request: {} (cache entry rebuilt)",
                req.cmd,
                panic_message(&*payload)
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::Fault;

    #[test]
    fn handler_panic_is_contained_and_poisons_the_entry() {
        let store = ProjectStore::new();
        store.inject(Some(Fault::Handler));
        let resp = dispatch_guarded(&store, &Request::new("ping"));
        assert!(!resp.ok);
        assert!(resp.error.contains("panic"), "{}", resp.error);
        assert_eq!(store.stats().panics, 1);
        // The daemon-side dispatcher still answers afterwards.
        store.inject(None);
        let resp = dispatch_guarded(&store, &Request::new("ping"));
        assert!(resp.ok);
    }

    #[test]
    fn bind_refuses_a_live_socket_and_replaces_a_stale_one() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("banger-server-test-{}.sock", std::process::id()));
        std::fs::remove_file(&path).ok();
        let server = Server::bind(&path).unwrap();
        assert!(
            Server::bind(&path).is_err(),
            "second bind on a live socket must fail"
        );
        drop(server);
        // The listener is gone but the file remains: stale, replaceable.
        assert!(path.exists());
        let server = Server::bind(&path).unwrap();
        server.request_shutdown();
        server.serve().unwrap();
        assert!(!path.exists(), "serve removes the socket file on exit");
    }
}
