//! Integration tests for the `banger serve` daemon: concurrent
//! clients, cache invalidation on rewrite, and panic containment.
#![cfg(unix)]

use banger::serve::{Client, Fault, Request, Response, Server};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A tiny self-contained design: r = a, through one task.
const SMALL: &str = "\
project serve-test

machine single
  speed 1
  process-startup 0
  msg-startup 0
  rate 1
end

design
  storage a 1
  task t1 1 prog Id
  storage r 1
  arc a -> t1
  arc t1 -> r
end

begin-program
task Id
  in a
  out r
begin
  r := a
end
end-program
";

fn temp_path(name: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "banger-serve-it-{}-{name}.{ext}",
        std::process::id()
    ))
}

fn lu3() -> String {
    std::fs::read_to_string("examples/projects/lu3.bang").expect("lu3 example exists")
}

/// Starts an in-process daemon; returns (socket path, server handle).
/// The caller sends `shutdown` (or sets the flag) and joins.
fn start_server(name: &str) -> (PathBuf, Arc<Server>, std::thread::JoinHandle<()>) {
    let sock = temp_path(name, "sock");
    std::fs::remove_file(&sock).ok();
    let server = Arc::new(Server::bind(&sock).expect("bind"));
    let handle = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve().expect("serve"))
    };
    // Wait until the listener accepts.
    for _ in 0..100 {
        if Client::connect(&sock).is_ok() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    (sock, server, handle)
}

fn shutdown(sock: &Path, handle: std::thread::JoinHandle<()>) {
    let mut c = Client::connect(sock).expect("connect for shutdown");
    c.request(&Request::new("shutdown")).expect("shutdown");
    handle.join().expect("server thread");
}

/// N threads fire mixed check/schedule/run requests; every response
/// must be byte-identical to a fresh, daemon-independent local
/// computation of the same answer.
#[test]
fn concurrent_clients_get_fresh_local_answers() {
    let lu3_src = lu3();
    let lu3_path = temp_path("stress-lu3", "bang");
    std::fs::write(&lu3_path, &lu3_src).unwrap();
    let small_path = temp_path("stress-small", "bang");
    std::fs::write(&small_path, SMALL).unwrap();

    // Expected answers: what a fresh local `banger` prints — the same
    // handler on a store of its own, which has seen no other request.
    let fresh = |req: &Request| {
        let resp = banger::serve::ops::handle(&banger::serve::ProjectStore::new(), req);
        assert!(resp.ok && !resp.cached, "{}", resp.error);
        resp.output
    };
    let check_req = Request::for_path("check", lu3_path.to_str().unwrap());
    let mut sched_req = Request::for_path("schedule", lu3_path.to_str().unwrap());
    sched_req.heuristic = "ETF".into();
    let mut run_req = Request::for_path("run", small_path.to_str().unwrap());
    run_req
        .inputs
        .insert("a".into(), banger_calc::Value::Num(7.5));
    let expected = [fresh(&check_req), fresh(&sched_req), fresh(&run_req)];
    assert!(
        expected[0].ends_with("0 errors, 1 warning\n"),
        "{}",
        expected[0]
    );
    assert!(expected[1].contains("Gantt chart — ETF"), "{}", expected[1]);
    assert_eq!(expected[2], "r = 7.5\n");
    let requests = [check_req, sched_req, run_req];

    let (sock, server, handle) = start_server("stress");
    let threads: Vec<_> = (0..8)
        .map(|t| {
            let sock = sock.clone();
            let requests = requests.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&sock).expect("connect");
                for i in 0..6 {
                    let which = (t + i) % 3;
                    let resp = client.request(&requests[which]).unwrap();
                    assert!(resp.ok, "{}", resp.error);
                    assert_eq!(resp.output, expected[which]);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    let stats = server.store().stats();
    assert_eq!(stats.requests, 48, "8 threads x 6 requests");
    assert_eq!(stats.panics, 0);
    assert!(stats.hits >= 40, "warm entries dominate: {stats:?}");
    shutdown(&sock, handle);
    std::fs::remove_file(&lu3_path).ok();
    std::fs::remove_file(&small_path).ok();
}

/// Rewriting the `.bang` file between requests must discard every warm
/// cache derived from the old bytes.
#[test]
fn rewrite_between_requests_invalidates_the_cache() {
    let path = temp_path("invalidate", "bang");
    std::fs::write(&path, SMALL).unwrap();
    let (sock, server, handle) = start_server("invalidate");
    let mut client = Client::connect(&sock).expect("connect");

    let req = Request::for_path("schedule", path.to_str().unwrap());
    let v1_cold = client.request(&req).unwrap();
    assert!(v1_cold.ok, "{}", v1_cold.error);
    assert!(!v1_cold.cached);
    let v1_warm = client.request(&req).unwrap();
    assert!(v1_warm.cached, "same bytes -> warm schedule");
    assert_eq!(v1_cold.output, v1_warm.output);

    // Rewrite: double the task weight. Same path, different bytes.
    std::fs::write(&path, SMALL.replace("task t1 1", "task t1 2")).unwrap();
    let v2 = client.request(&req).unwrap();
    assert!(v2.ok, "{}", v2.error);
    assert!(!v2.cached, "hash change must force a cold rebuild");
    assert_ne!(v1_cold.output, v2.output, "new weight changes the chart");
    assert_eq!(server.store().stats().rebuilds, 1);

    // And the new bytes are warm from now on.
    let v2_warm = client.request(&req).unwrap();
    assert!(v2_warm.cached);
    assert_eq!(v2.output, v2_warm.output);

    shutdown(&sock, handle);
    std::fs::remove_file(&path).ok();
}

/// The unit of a rebuild is the program: the replaced snapshot gives the
/// new one every program whose text the edit left alone, and an entry
/// that was evicted or poisoned gives nothing. Exact counts, on lu3's 11.
#[test]
fn a_rebuild_parses_only_the_programs_an_edit_touched() {
    use banger::serve::{ops::handle, server::dispatch_guarded, ProjectStore};
    let base = lu3();
    let path = temp_path("reuse-counts", "bang");
    let store = ProjectStore::new();
    let check = Request::for_path("check", path.to_str().unwrap());
    let mut counted = (0, 0);
    let mut save_and_check = |text: &str| {
        std::fs::write(&path, text).unwrap();
        let resp = handle(&store, &check);
        assert!(resp.ok, "{}", resp.error);
        let s = store.stats();
        let added = (s.programs_parsed - counted.0, s.programs_reused - counted.1);
        counted = (s.programs_parsed, s.programs_reused);
        added
    };
    assert_eq!(save_and_check(&base), (11, 0), "first sight");
    let weight = base.replace("task fan1 9 prog", "task fan1 12 prog");
    assert_eq!(save_and_check(&weight), (0, 11), "a weight-only edit");
    let body = base.replace("c[3] := c[3] /", "c[3] := c[3] * 3 / 3 /");
    assert!(body != base && weight != base);
    assert_eq!(save_and_check(&body), (1, 10), "one program body");
    // Blocks in another order and lower in the file are the same texts.
    let (design, programs) = base.split_at(base.find("begin-program").unwrap());
    let mut blocks: Vec<&str> = programs.split_inclusive("end-program\n").collect();
    assert_eq!(blocks.len(), 11);
    blocks.reverse();
    let moved = format!("{design}# moved\n\n{}", blocks.concat());
    assert_eq!(save_and_check(&moved), (1, 10), "the edited body is back");

    assert!(store.evict(path.to_str().unwrap()));
    assert_eq!(save_and_check(&weight), (11, 0), "evict leaves no donor");
    store.inject(Some(Fault::Handler));
    assert!(!dispatch_guarded(&store, &check).ok);
    store.inject(None);
    assert_eq!(save_and_check(&base), (11, 0), "nor does a contained panic");
    assert_eq!(store.stats().panics, 1);
    std::fs::remove_file(&path).ok();
}

/// Two clients on a file saved since its snapshot was built: the first
/// to reach the slot rebuilds it, the other waits for that build and
/// hits it. Neither parses a program, since a weight-only edit leaves
/// every program's text alone.
#[test]
fn two_clients_on_an_edited_file_parse_it_once() {
    let base = lu3();
    let path = temp_path("two-clients", "bang");
    std::fs::write(&path, &base).unwrap();
    let (sock, server, handle) = start_server("two-clients");
    let store = server.store();
    let check = Request::for_path("check", path.to_str().unwrap());
    let mut clients: Vec<Client> = (0..2)
        .map(|_| Client::connect(&sock).expect("connect"))
        .collect();
    assert!(clients[0].request(&check).unwrap().ok);
    let counts = || {
        let s = store.stats();
        [s.misses, s.rebuilds, s.hits, s.programs_parsed]
    };
    for round in 0..20 {
        let weight = format!("task fan1 {} prog", 10 + round);
        std::fs::write(&path, base.replace("task fan1 9 prog", &weight)).unwrap();
        let before = counts();
        let barrier = std::sync::Barrier::new(clients.len());
        std::thread::scope(|scope| {
            for client in &mut clients {
                let (barrier, check) = (&barrier, &check);
                scope.spawn(move || {
                    barrier.wait();
                    let resp = client.request(check).unwrap();
                    assert!(resp.ok, "{}", resp.error);
                });
            }
        });
        let added: Vec<u64> = counts().iter().zip(before).map(|(a, b)| a - b).collect();
        assert_eq!(
            added,
            [1, 1, 1, 0],
            "round {round}: misses, rebuilds, hits, parsed"
        );
    }
    shutdown(&sock, handle);
    std::fs::remove_file(&path).ok();
}

/// One task that adds up `1..=n`: a firing whose length `n` sets.
const SPIN: &str = "\
project spin

machine single
  speed 1
  process-startup 0
  msg-startup 0
  rate 1
end

design
  storage n 1
  task spin 1 prog Spin
  storage r 1
  arc n -> spin
  arc spin -> r
end

begin-program
task Spin
  in n
  out r
  local i
begin
  r := 0
  for i := 1 to n do
    r := r + i
  end
end
end-program
";

/// A `run` holds only its snapshot's session: `check` and `gantt` on the
/// same file are answered while a long `run --repeat` is still firing.
#[test]
fn a_long_run_does_not_hold_the_file_for_other_verbs() {
    let path = temp_path("long-run", "bang");
    std::fs::write(&path, SPIN).unwrap();
    let (sock, _server, handle) = start_server("long-run");
    let mut run = Request::for_path("run", path.to_str().unwrap());
    run.inputs
        .insert("n".into(), banger_calc::Value::Num(1_000_000.0));
    let mut a = Client::connect(&sock).expect("connect");
    assert!(a.request(&run).unwrap().ok, "the cold run");
    // Fire for about 2.5 s, whatever this build's speed.
    run.repeat = Some(3);
    let three = Instant::now();
    let warm = a.request(&run).unwrap();
    assert!(warm.ok && warm.cached, "{}", warm.error);
    let firing = three.elapsed().as_nanos() / 3;
    run.repeat = Some((Duration::from_millis(2_500).as_nanos() / firing.max(1)).max(1) as u32);
    let long = std::thread::spawn(move || {
        let resp = a.request(&run).unwrap();
        assert!(resp.ok, "{}", resp.error);
        Instant::now()
    });

    std::thread::sleep(Duration::from_millis(300));
    let mut b = Client::connect(&sock).expect("connect");
    let asked = Instant::now();
    for cmd in ["check", "gantt"] {
        let resp = b
            .request(&Request::for_path(cmd, path.to_str().unwrap()))
            .unwrap();
        assert!(resp.ok, "{cmd}: {}", resp.error);
    }
    let answered = Instant::now();
    let ran_until = long.join().expect("the long run");
    let waited = answered - asked;
    assert!(waited < Duration::from_millis(500), "B waited {waited:?}");
    assert!(
        answered < ran_until,
        "B was answered only after A's run ended"
    );
    shutdown(&sock, handle);
    std::fs::remove_file(&path).ok();
}

/// A panicking request handler must not kill the daemon: the client
/// gets a structured error, the entry is poisoned-and-rebuilt, and the
/// next request succeeds.
#[test]
fn daemon_survives_a_panicking_request() {
    let path = temp_path("panic", "bang");
    std::fs::write(&path, SMALL).unwrap();
    let (sock, server, handle) = start_server("panic");
    let mut client = Client::connect(&sock).expect("connect");

    // Warm the entry first so the panic has state to poison.
    let req = Request::for_path("schedule", path.to_str().unwrap());
    assert!(client.request(&req).unwrap().ok);
    assert!(client.request(&req).unwrap().cached);

    server.store().inject(Some(Fault::Handler));
    let resp = client.request(&req).unwrap();
    server.store().inject(None);
    assert!(!resp.ok);
    assert!(resp.error.contains("panic"), "{}", resp.error);

    // Same connection still serves; the poisoned entry rebuilt cold.
    let after = client.request(&req).unwrap();
    assert!(after.ok, "{}", after.error);
    assert!(!after.cached, "panic poisoning evicts the warm entry");
    assert!(client.request(&req).unwrap().cached);

    let stats = server.store().stats();
    assert_eq!(stats.panics, 1);
    assert!(stats.evictions >= 1);
    shutdown(&sock, handle);
    std::fs::remove_file(&path).ok();
}

/// An executor-level injected panic is an *attributed error* (the
/// in-pipeline fault path), not a handler panic: the daemon answers
/// with the task name and its panic counter stays at zero.
#[test]
fn executor_faults_are_attributed_not_fatal() {
    let path = temp_path("exec-fault", "bang");
    std::fs::write(&path, lu3()).unwrap();
    let (sock, server, handle) = start_server("exec-fault");
    let mut client = Client::connect(&sock).expect("connect");

    let mut req = Request::for_path("run", path.to_str().unwrap());
    req.inputs.insert(
        "A".into(),
        banger_calc::Value::array(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]),
    );
    req.inputs
        .insert("b".into(), banger_calc::Value::array(vec![1.0, 2.0, 3.0]));
    server
        .store()
        .inject(Some(Fault::Task("Factor.fan1".into())));
    let resp = client.request(&req).unwrap();
    server.store().inject(None);
    assert!(!resp.ok);
    assert!(resp.error.contains("Factor.fan1"), "{}", resp.error);
    assert_eq!(server.store().stats().panics, 0, "attributed, not caught");

    let resp = client.request(&req).unwrap();
    assert!(resp.ok, "{}", resp.error);
    assert!(resp.output.contains("x = [1, 2, 3]"), "{}", resp.output);
    shutdown(&sock, handle);
    std::fs::remove_file(&path).ok();
}

/// A document nested deeper than the parser's cap — 10,000 `compound`
/// blocks used to overflow the handler's stack, which no `catch_unwind`
/// contains, and take the daemon away from every client — is answered
/// with a positioned parse error, and the daemon keeps serving.
#[test]
fn deeply_nested_document_is_an_error_not_a_dead_daemon() {
    let depth = 10_000;
    let mut doc = String::from("project deep\ndesign\n");
    doc.push_str(&"compound c\n".repeat(depth));
    doc.push_str("task t 1\n");
    doc.push_str(&"end\n".repeat(depth + 1));
    let path = temp_path("deep", "bang");
    std::fs::write(&path, doc).unwrap();
    let (sock, server, handle) = start_server("deep");
    let mut client = Client::connect(&sock).expect("connect");

    let resp = client
        .request(&Request::for_path("check", path.to_str().unwrap()))
        .unwrap();
    assert!(!resp.ok);
    assert!(
        resp.error.contains("line 203") && resp.error.contains("nested deeper than 200"),
        "{}",
        resp.error
    );
    assert_eq!(server.store().stats().panics, 0, "rejected, not caught");

    let pong = client.request(&Request::new("ping")).unwrap();
    assert!(pong.ok, "{}", pong.error);
    shutdown(&sock, handle);
    std::fs::remove_file(&path).ok();
}

/// A document whose one program sets `x` to `1+1+…+1` with `terms`
/// terms, on line 20.
fn chain_doc(terms: usize) -> String {
    format!(
        "project chain\n\nmachine single\n  speed 1\n  process-startup 0\n  msg-startup 0\n  \
         rate 1\nend\n\ndesign\n  task t 1 prog Chain\n  storage r 1\n  arc t -> r\nend\n\n\
         begin-program\ntask Chain\n  out r\nbegin\n  r := {}\nend\nend-program\n",
        vec!["1"; terms].join("+")
    )
}

/// A `+` chain is refused past the parser's height cap: 20,000 terms used
/// to overflow the client thread's stack and abort the daemon for every
/// client. At the cap — measured for this: a debug build's 8 MiB client
/// thread overflows at about 5,300 terms — `check`, `gantt` and `run` are
/// answered.
#[test]
fn a_chain_past_the_height_cap_is_an_error_not_a_dead_daemon() {
    let cap = banger_calc::parser::MAX_HEIGHT as usize;
    let path = temp_path("chain", "bang");
    let (sock, server, handle) = start_server("chain");
    let mut client = Client::connect(&sock).expect("connect");
    let ask = |client: &mut Client, verb: &str| {
        client
            .request(&Request::for_path(verb, path.to_str().unwrap()))
            .unwrap()
    };

    std::fs::write(&path, chain_doc(cap)).unwrap();
    for verb in ["check", "gantt", "run"] {
        let resp = ask(&mut client, verb);
        assert!(resp.ok, "{verb}: {}", resp.error);
    }
    assert_eq!(ask(&mut client, "run").output, format!("r = {cap}\n"));

    let refusal = format!(
        "line 20, column {}: bad PITS program: expression deeper than {cap} levels; \
         split it over several assignments",
        2 * cap + 7
    );
    for terms in [cap + 1, 20_000] {
        std::fs::write(&path, chain_doc(terms)).unwrap();
        for verb in ["check", "gantt", "run"] {
            let resp = ask(&mut client, verb);
            assert!(!resp.ok, "{terms} terms, {verb}");
            assert_eq!(resp.error, refusal, "{terms} terms, {verb}");
        }
    }
    assert_eq!(server.store().stats().panics, 0, "rejected, not caught");
    let pong = client.request(&Request::new("ping")).unwrap();
    assert!(pong.ok, "{}", pong.error);
    shutdown(&sock, handle);
    std::fs::remove_file(&path).ok();
}

/// `trial --reference` runs the tree-walking interpreter on the client
/// thread, which spends about four times the stack per level the compiler
/// does: on a debug build's old 2 MiB client thread it overflowed at
/// about 320 terms and aborted the daemon. At the height cap it is
/// answered, and the daemon keeps serving.
#[test]
fn trial_reference_at_the_height_cap_is_answered() {
    let cap = banger_calc::parser::MAX_HEIGHT as usize;
    let path = temp_path("trial-cap", "bang");
    std::fs::write(&path, chain_doc(cap)).unwrap();
    let (sock, _server, handle) = start_server("trial-cap");
    let mut client = Client::connect(&sock).expect("connect");
    let mut trial = Request::for_path("trial", path.to_str().unwrap());
    trial.args = vec!["Chain".into()];
    trial.reference = true;
    let resp = client.request(&trial).unwrap();
    assert!(resp.ok, "{}", resp.error);
    assert_eq!(resp.output, format!("r = {cap}\n"));
    assert!(resp.notes.contains("reference engine"), "{}", resp.notes);
    let pong = client.request(&Request::new("ping")).unwrap();
    assert!(pong.ok, "{}", pong.error);
    shutdown(&sock, handle);
    std::fs::remove_file(&path).ok();
}

/// A machine of more processors than the cap is refused before its
/// routing table is built. `hypercube:20` and `mesh:1100x1100` each asked
/// for more than a TiB there, and the failed allocation aborted the daemon
/// for every client. A `recommend` budget above the cap is refused too.
#[test]
fn a_machine_beyond_the_processor_cap_is_an_error_not_a_dead_daemon() {
    let (sock, server, handle) = start_server("bigmachine");
    let mut client = Client::connect(&sock).expect("connect");
    let path = temp_path("bigmachine", "bang");
    for spec in ["hypercube:20", "mesh:1100x1100"] {
        let doc = format!("project big\nmachine {spec}\nend\ndesign\ntask t 1\nend\n");
        std::fs::write(&path, doc).unwrap();
        let resp = client
            .request(&Request::for_path("check", path.to_str().unwrap()))
            .unwrap();
        assert!(!resp.ok, "{spec}");
        assert!(
            resp.error.contains("line 2: bad topology")
                && resp.error.contains("more than 256 processors"),
            "{spec}: {}",
            resp.error
        );
    }
    std::fs::write(&path, lu3()).unwrap();
    let mut recommend = Request::for_path("recommend", path.to_str().unwrap());
    recommend.procs = Some(257);
    let resp = client.request(&recommend).unwrap();
    assert!(!resp.ok);
    assert_eq!(resp.error, "processor budget must be at most 256");
    assert_eq!(server.store().stats().panics, 0, "rejected, not caught");

    let pong = client.request(&Request::new("ping")).unwrap();
    assert!(pong.ok, "{}", pong.error);
    shutdown(&sock, handle);
    std::fs::remove_file(&path).ok();
}

/// A path that is not a regular file of at most one frame is refused
/// before it is read: `/dev/zero` used to grow the daemon until the OOM
/// killer took it, and a FIFO blocked its handler in `open` for good.
#[test]
fn unreadable_paths_are_refused_not_read() {
    let fifo = temp_path("fifo", "bang");
    std::fs::remove_file(&fifo).ok();
    let made = std::process::Command::new("mkfifo").arg(&fifo).status();
    assert!(made.unwrap().success(), "mkfifo");
    let sparse = temp_path("sparse", "bang");
    let file = std::fs::File::create(&sparse).unwrap();
    file.set_len(65 << 20).unwrap();
    drop(file);
    let refused = [
        (PathBuf::from("/dev/zero"), "not a regular file"),
        (fifo.canonicalize().unwrap(), "not a regular file"),
        (sparse.canonicalize().unwrap(), "larger than 64 MiB"),
    ];

    let (sock, server, handle) = start_server("unreadable");
    let mut client = Client::connect(&sock).expect("connect");
    for (path, why) in &refused {
        let resp = client
            .request(&Request::for_path("check", path.to_str().unwrap()))
            .unwrap();
        let want = format!("cannot read {}: {why}", path.display());
        assert_eq!((resp.ok, resp.exit, resp.error), (false, 1, want));
        assert!(resp.output.is_empty());
    }
    let pong = client.request(&Request::new("ping")).unwrap();
    assert_eq!(pong.output, "pong\n");
    let stats = server.store().stats();
    assert_eq!((stats.misses, stats.panics), (0, 0));
    shutdown(&sock, handle);
    std::fs::remove_file(&fifo).ok();
    std::fs::remove_file(&sparse).ok();
}

/// Sends `frame` as is on `raw` and reads the answer.
fn ask_raw(raw: &mut std::os::unix::net::UnixStream, frame: &str) -> Response {
    use banger::serve::protocol::{read_frame, write_frame};
    write_frame(raw, frame.as_bytes()).unwrap();
    let answer = read_frame(raw).unwrap().expect("an answer");
    Response::from_json(std::str::from_utf8(&answer).unwrap()).unwrap()
}

/// The socket takes what the command line takes: every member a verb
/// does not take — another verb's option, a path for a verb on the
/// daemon itself, a key no verb has — is refused with the CLI's wording,
/// before the handler sees the request.
#[test]
fn every_member_a_verb_does_not_take_is_refused() {
    use banger::serve::ops::{self, Kind, OPTIONS, VERBS};
    let path = temp_path("foreign", "bang");
    std::fs::write(&path, SMALL).unwrap();
    let (sock, server, handle) = start_server("foreign");
    let mut raw = std::os::unix::net::UnixStream::connect(&sock).expect("connect");
    let project = format!(",\"path\":{:?}", path.to_str().unwrap());
    // A well-formed value of each key's kind.
    let members = OPTIONS
        .iter()
        .map(|opt| {
            let value = match opt.kind {
                Kind::Word(..) | Kind::Text(..) | Kind::File(..) => "\"x\"",
                Kind::Flag(..) => "true",
                Kind::Count(..) => "3",
                Kind::Inputs(..) => "{\"a\":1}",
                Kind::Args(..) => "[\"x\"]",
            };
            (opt.key, value)
        })
        .chain([("path", "\"/x.bang\""), ("zzz", "1")])
        .collect::<std::collections::BTreeMap<_, _>>();
    let mut refused = 0;
    for verb in VERBS {
        let cmd = verb.name();
        for (&key, value) in &members {
            let taken = ops::options(cmd).any(|opt| opt.key == key);
            if taken || (key == "path" && verb.takes_path()) {
                continue;
            }
            let path = if verb.takes_path() { &project[..] } else { "" };
            let frame = format!("{{\"cmd\":\"{cmd}\"{path},\"{key}\":{value}}}");
            let resp = ask_raw(&mut raw, &frame);
            let want = format!("bad request: {cmd} does not take {key:?}");
            assert_eq!((resp.ok, resp.error), (false, want), "{frame}");
            refused += 1;
        }
    }
    assert!(refused > 250, "{refused} pairs");
    // Nothing reached a handler: no request counted, no entry built.
    let stats = server.store().stats();
    assert_eq!((stats.requests, stats.misses), (0, 0));
    drop(raw);
    shutdown(&sock, handle);
    std::fs::remove_file(&path).ok();
}

/// A member the verb takes holding a value of another kind is refused,
/// not read as its default.
#[test]
fn a_value_of_the_wrong_kind_is_refused() {
    let path = temp_path("kinds", "bang");
    std::fs::write(&path, SMALL).unwrap();
    let (sock, _server, handle) = start_server("kinds");
    let mut raw = std::os::unix::net::UnixStream::connect(&sock).expect("connect");
    let p = format!("{:?}", path.to_str().unwrap());
    for (frame, why) in [
        (
            format!("{{\"cmd\":\"gantt\",\"path\":{p},\"heuristic\":7}}"),
            "\"heuristic\" must be a string",
        ),
        (
            format!("{{\"cmd\":\"run\",\"path\":{p},\"optimize\":\"yes\"}}"),
            "\"optimize\" must be true or false",
        ),
        (
            format!("{{\"cmd\":\"run\",\"path\":{p},\"repeat\":\"3\"}}"),
            "\"repeat\" must be a whole number",
        ),
        (
            format!("{{\"cmd\":\"trial\",\"path\":{p},\"args\":[7]}}"),
            "\"args\" must be strings",
        ),
        (
            "{\"cmd\":\"check\",\"path\":7}".to_string(),
            "\"path\" must be a string",
        ),
        (
            format!("{{\"cmd\":\"gnatt\",\"path\":{p}}}"),
            "unknown subcommand \"gnatt\"",
        ),
    ] {
        let resp = ask_raw(&mut raw, &frame);
        assert!(!resp.ok, "{frame}");
        assert!(
            resp.error.starts_with("bad request: "),
            "{frame}: {}",
            resp.error
        );
        assert!(resp.error.contains(why), "{frame}: {}", resp.error);
    }
    drop(raw);
    shutdown(&sock, handle);
    std::fs::remove_file(&path).ok();
}

/// The fault hooks are not on the wire: a client that names one is
/// refused like any other foreign member, and nothing panics.
#[test]
fn fault_hooks_cannot_be_reached_over_the_socket() {
    let path = temp_path("hooks", "bang");
    std::fs::write(&path, lu3()).unwrap();
    let (sock, server, handle) = start_server("hooks");
    let mut raw = std::os::unix::net::UnixStream::connect(&sock).expect("connect");
    let p = format!("{:?}", path.to_str().unwrap());
    for (frame, want) in [
        (
            "{\"cmd\":\"ping\",\"inject_handler_panic\":true}".to_string(),
            "bad request: ping does not take \"inject_handler_panic\"",
        ),
        (
            format!("{{\"cmd\":\"check\",\"path\":{p},\"inject_handler_panic\":true}}"),
            "bad request: check does not take \"inject_handler_panic\"",
        ),
        (
            format!("{{\"cmd\":\"run\",\"path\":{p},\"inject_panic\":\"Factor.fan1\"}}"),
            "bad request: run does not take \"inject_panic\"",
        ),
    ] {
        let resp = ask_raw(&mut raw, &frame);
        assert_eq!((resp.ok, resp.error.as_str()), (false, want), "{frame}");
    }
    let stats = ask_raw(&mut raw, "{\"cmd\":\"stats\"}");
    assert!(stats.output.contains("  panics 0  "), "{}", stats.output);
    assert_eq!(server.store().stats().panics, 0);
    drop(raw);
    shutdown(&sock, handle);
    std::fs::remove_file(&path).ok();
}

/// Malformed frames get an error response without dropping the
/// connection or the daemon.
#[test]
fn protocol_garbage_is_answered_not_fatal() {
    use banger::serve::protocol::{read_frame, write_frame};
    use std::os::unix::net::UnixStream;

    let (sock, _server, handle) = start_server("garbage");
    let mut raw = UnixStream::connect(&sock).expect("connect");
    write_frame(&mut raw, b"this is not json").unwrap();
    let frame = read_frame(&mut raw).unwrap().expect("an answer");
    let resp = Response::from_json(std::str::from_utf8(&frame).unwrap()).unwrap();
    assert!(!resp.ok);
    assert!(resp.error.contains("bad request"), "{}", resp.error);

    // The same connection still serves well-formed requests.
    write_frame(&mut raw, Request::new("ping").to_json().as_bytes()).unwrap();
    let frame = read_frame(&mut raw).unwrap().expect("an answer");
    let resp = Response::from_json(std::str::from_utf8(&frame).unwrap()).unwrap();
    assert!(resp.ok);
    assert_eq!(resp.output, "pong\n");

    drop(raw);
    shutdown(&sock, handle);
}

/// Two request frames that arrive in one write are both answered, in
/// order: the server reads ahead into a per-connection buffer, and the
/// second frame must wait there, not be dropped with the first read.
#[test]
fn back_to_back_frames_are_each_answered_in_order() {
    use banger::serve::protocol::{read_frame, write_frame};
    use std::io::Write;
    use std::os::unix::net::UnixStream;

    let (sock, _server, handle) = start_server("pipelined");
    let mut both = Vec::new();
    write_frame(&mut both, Request::new("ping").to_json().as_bytes()).unwrap();
    write_frame(&mut both, Request::new("stats").to_json().as_bytes()).unwrap();
    let mut raw = UnixStream::connect(&sock).expect("connect");
    raw.write_all(&both).unwrap();
    let mut answer = || {
        let frame = read_frame(&mut raw).unwrap().expect("an answer");
        Response::from_json(std::str::from_utf8(&frame).unwrap()).unwrap()
    };
    assert_eq!(answer().output, "pong\n");
    let stats = answer();
    assert!(stats.output.starts_with("requests "), "{}", stats.output);

    drop(raw);
    shutdown(&sock, handle);
}

/// A fresh connection — what every `banger --connect` invocation makes —
/// is accepted as soon as it arrives: the accept loop waits in `poll(2)`
/// on the listener, not in a sleep between attempts (a 50 ms sleep puts
/// the median near 50 ms).
#[test]
fn a_fresh_connection_is_answered_without_an_accept_delay() {
    let (sock, _server, handle) = start_server("accept");
    let mut waits: Vec<Duration> = (0..20)
        .map(|_| {
            let connected = Instant::now();
            let mut client = Client::connect(&sock).expect("connect");
            let pong = client.request(&Request::new("ping")).unwrap();
            assert_eq!(pong.output, "pong\n");
            connected.elapsed()
        })
        .collect();
    waits.sort();
    let median = waits[waits.len() / 2];
    assert!(
        median < Duration::from_millis(10),
        "median connect-to-pong {median:?}; all {waits:?}"
    );
    shutdown(&sock, handle);
}

/// `request_shutdown` from another thread (the signal-handler path
/// minus the signal) makes `serve` return and clean up the socket.
#[test]
fn programmatic_shutdown_cleans_up() {
    let (sock, server, handle) = start_server("clean");
    assert!(sock.exists());
    server.request_shutdown();
    handle.join().expect("server thread");
    assert!(!sock.exists(), "socket file removed on exit");
    assert!(server.shutdown_handle().load(Ordering::SeqCst));
}
