//! `banger` — the environment as a command-line tool.
//!
//! Operates on `.bang` project documents (see `banger::document`); `banger
//! help` lists the subcommands, their options and the exit codes. Input
//! values: scalars (`-i a=2.5`) or arrays (`-i v=[1,2,3]`).
//!
//! This file is the front end only: it turns the arguments into a
//! [`Request`], has [`ops::handle`] answer it — in this process, or in a
//! `banger serve` daemon when `--connect` finds one — and prints the
//! [`Response`]. Every verb is rendered by the handler, so both ways
//! print the same thing. Every verb is a row of [`ops::VERBS`]: `banger
//! help` prints the rows, a subcommand with no row is unknown, and a
//! daemon row has no local fallback.
//!
//! Exit codes: 0 success (warnings allowed), 1 operational failure or
//! error-severity diagnostics, 2 usage errors (unknown subcommand, missing
//! arguments, an option without its value or with a malformed one, an
//! option or operand the verb does not take): one line on stderr, nothing
//! on stdout, no request made. A reader that closes the pipe early
//! (`| head -1`) changes none of them: see `put`.

use banger::serve::ops::{self, Verb};
use banger::serve::{ProjectStore, Request, Response};
use banger_calc::Value;
use std::io::{stderr, stdout, ErrorKind, Write};
use std::path::Path;
use std::process::exit;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--connect PATH` is a global flag: have a running daemon answer
    // this invocation, or answer it here when none does.
    let connect = extract_connect(&mut args);
    let command = args.first().map(String::as_str).unwrap_or("help");
    if matches!(command, "help" | "--help" | "-h") {
        put(stdout().lock(), &format!("{}\n", usage_text()));
        return;
    }
    if command == "serve" {
        exit(cmd_serve(&args[1..]));
    }
    let Some(verb) = ops::verb(command) else {
        say(&format!(
            "banger: unknown subcommand {command:?} (run `banger help` for the list)"
        ));
        exit(2);
    };
    if let Verb::Daemon(..) = verb {
        // A verb on the daemon itself has no local answer: no fallback.
        let mut req = Request::new(command);
        req.path = args.get(1).cloned();
        if command == "evict" && req.path.is_none() {
            say("banger: evict needs a <file.bang> argument");
            exit(2);
        }
        let socket = connect
            .map(Into::into)
            .unwrap_or_else(banger::serve::default_socket_path);
        let resp = ask_daemon(&socket, &req)
            .unwrap_or_else(|e| die(&format!("cannot connect to {}: {e}", socket.display())));
        exit(finish(&resp));
    }
    let Some(path) = args.get(1) else {
        say(&format!(
            "banger: {command} needs a <file.bang> argument\n\n{}",
            usage_text()
        ));
        exit(2);
    };
    let req =
        build_request(command, path, &args[2..]).unwrap_or_else(|(code, msg)| fail(code, &msg));
    let local = || ops::handle(&ProjectStore::new(), &req);
    let resp = match &connect {
        None => local(),
        Some(sock) => ask_daemon(Path::new(sock), &req).unwrap_or_else(|e| {
            say(&format!(
                "banger: no daemon at {sock} ({e}); running locally"
            ));
            local()
        }),
    };
    exit(finish(&resp));
}

fn usage_text() -> String {
    let (mut verbs, mut admin) = (String::new(), String::new());
    for verb in ops::VERBS {
        match *verb {
            Verb::Project(name, help, _) => verbs += &format!("  {name:<14} {help}\n"),
            Verb::Daemon(name, help, _) => admin += &format!("  {name:<16} {help}\n"),
        }
    }
    format!(
        "usage: banger <subcommand> <file.bang> [options]\n\n\
         subcommands:\n{verbs}  help           show this list\n\
         \noptions:\n\
         \x20 -H <heuristic>   serial naive HLFET MCP ETF DLS MH DSH (default MH)\n\
         \x20 -i var=value     run/codegen inputs; arrays as [1,2,3]\n\
         \x20 -t spec,spec,... speedup topologies, e.g. single,hypercube:1,hypercube:2\n\
         \x20 -p <procs>       recommend: processor budget (default 16)\n\
         \x20 -s <path>        verify: saved schedule file\n\
         \x20 -o <path>        svg/save-schedule: output location\n\
         \x20 --format <fmt>   check: text (default) or json\n\
         \x20 --weights        check: per-task weight report — drawn weight vs the\n\
         \x20                  abstract interpreter's static cost bounds; with -i\n\
         \x20                  inputs and a clean design, also runs it and shows\n\
         \x20                  measured ops per task\n\
         \x20 --reference      trial: use the tree-walking reference interpreter\n\
         \x20 --repeat <n>     run: fire the design n times through one persistent\n\
         \x20                  session (warm worker pool; prints per-firing stats)\n\
         \x20 --trace <path>   run: execute pinned to the -H schedule with tracing,\n\
         \x20                  write Chrome trace JSON (chrome://tracing, Perfetto)\n\
         \x20                  and print the observed-vs-predicted drift report\n\
         \x20 --optimize       run/gantt: apply dead-arc elimination + task fusion\n\
         \x20                  to the design first (Outcome-preserving)\n\
         \x20 --fuse           optimize: fuse grain-packed clusters into single tasks\n\
         \x20 --expand t:n     optimize: expand dense-LU template task t into an\n\
         \x20                  n x n tiled block-LU (bit-identical results)\n\
         \x20 --emit <path>    optimize: write the rewritten document ('-' = stdout)\n\
         \x20 --optimized      graph: optimize (with fusion) before reporting\n\
         \x20 --dot            graph: print Graphviz DOT of the flattened graph\n\
         \ndaemon:\n\
         \x20 banger serve [--socket PATH]   persistent project daemon: caches keyed\n\
         \x20                  by source bytes (parse, diagnose, compile, schedule)\n\
         \x20                  plus warm executor sessions, served over a Unix socket\n\
         \x20 --connect PATH   have the daemon on PATH answer any subcommand; when\n\
         \x20                  none answers there, run it here and say so on stderr\n\
         \x20 these ask the daemon on --connect PATH, else on $BANGER_SOCKET, else on\n\
         \x20 <tmpdir>/banger.sock, and never run locally:\n\
         {admin}\
         \nexit codes:\n\
         \x20 0  success (warnings allowed)\n\
         \x20 1  operational failure, or `check` found error-severity diagnostics\n\
         \x20 2  usage error: unknown subcommand, missing arguments, an option\n\
         \x20    without its value or with a malformed one, or an option or operand\n\
         \x20    the subcommand does not take"
    )
}

/// Removes `--connect PATH` from the argument list and returns the
/// socket path, wherever the flag appears.
fn extract_connect(args: &mut Vec<String>) -> Option<String> {
    let i = args.iter().position(|a| a == "--connect")?;
    if i + 1 >= args.len() {
        say("banger: --connect needs a socket path");
        exit(2);
    }
    let path = args.remove(i + 1);
    args.remove(i);
    Some(path)
}

/// `banger serve [--socket PATH]` — run the project daemon in the
/// foreground until SIGINT/SIGTERM or a `shutdown` request.
#[cfg(unix)]
fn cmd_serve(rest: &[String]) -> i32 {
    let socket = rest
        .windows(2)
        .find(|w| w[0] == "--socket")
        .map(|w| std::path::PathBuf::from(&w[1]))
        .unwrap_or_else(banger::serve::default_socket_path);
    banger::serve::server::install_signal_handlers();
    let server = match banger::serve::Server::bind(&socket) {
        Ok(s) => s,
        Err(e) => {
            say(&format!("banger: cannot bind {}: {e}", socket.display()));
            return 1;
        }
    };
    say(&format!("banger serve: listening on {}", socket.display()));
    match server.serve() {
        Ok(()) => {
            say("banger serve: shut down cleanly");
            0
        }
        Err(e) => {
            say(&format!("banger serve: {e}"));
            1
        }
    }
}

#[cfg(not(unix))]
fn cmd_serve(_rest: &[String]) -> i32 {
    say("banger: serve requires a Unix platform");
    1
}

/// Sends `req` to the daemon on `socket`; `Err` when none answers there.
#[cfg(unix)]
fn ask_daemon(socket: &Path, req: &Request) -> std::io::Result<Response> {
    let mut client = banger::serve::Client::connect(socket)?;
    Ok(client
        .request(req)
        .unwrap_or_else(|e| die(&format!("daemon request failed: {e}"))))
}

#[cfg(not(unix))]
fn ask_daemon(_socket: &Path, _req: &Request) -> std::io::Result<Response> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "daemon connections require a Unix platform",
    ))
}

/// Writes `text` to a standard stream with one `write_all` on the locked
/// handle. A closed pipe is the reader's choice (`banger ... | head -1`),
/// not a failure: nothing is said about it and the exit code stays what
/// it would have been. `print!` would panic instead (exit 101).
fn put(mut stream: impl Write, text: &str) {
    let written = stream
        .write_all(text.as_bytes())
        .and_then(|()| stream.flush());
    match written {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => {
            // Anything else is a failure: say, a disk filled behind a redirect.
            let _ = writeln!(stderr().lock(), "banger: cannot write output: {e}");
            exit(1);
        }
        _ => {}
    }
}

/// One line on stderr.
fn say(line: &str) {
    put(stderr().lock(), &format!("{line}\n"));
}

/// Prints a response — output to stdout, notes and the error to stderr —
/// writes the files it returned, and gives the exit code.
fn finish(resp: &Response) -> i32 {
    put(stdout().lock(), &resp.output);
    if !resp.notes.is_empty() {
        say(&resp.notes);
    }
    for (name, content) in &resp.files {
        let written = Path::new(name)
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(name, content));
        match written {
            Ok(()) => say(&format!("wrote {name}")),
            Err(e) => die(&format!("cannot write {name}: {e}")),
        }
    }
    if !resp.ok {
        say(&format!("banger: {}", resp.error));
        return if resp.exit != 0 { resp.exit } else { 1 };
    }
    resp.exit
}

fn die(msg: &str) -> ! {
    fail(1, msg)
}

fn fail(code: i32, msg: &str) -> ! {
    say(&format!("banger: {msg}"));
    exit(code)
}

/// Parses the options after `<command> <file>` into a request, or says
/// why not as `(exit code, message)`: a usage error, 2, unless it is the
/// `-s` file that cannot be read. The project path goes absolute, and
/// `-s` is read here, because a daemon has another working directory; the
/// handler opens nothing but the project. Each option's arm names the
/// verbs whose handler reads what it sets; any other verb refuses it.
/// Only `trial`, `codegen` and `parallelize` take positional operands.
fn build_request(command: &str, path: &str, rest: &[String]) -> Result<Request, (i32, String)> {
    let usage = |msg: String| (2, msg);
    let absolute = std::path::absolute(path)
        .ok()
        .and_then(|p| p.into_os_string().into_string().ok());
    let mut req = Request::for_path(command, absolute.unwrap_or_else(|| path.to_string()));
    let mut rest = rest.iter();
    while let Some(arg) = rest.next() {
        let mut value = |what: &str| {
            rest.next()
                .cloned()
                .ok_or_else(|| usage(format!("{arg} needs {what}")))
        };
        match (arg.as_str(), command) {
            (
                "-H",
                "gantt" | "schedule" | "simulate" | "animate" | "advise" | "svg" | "save-schedule"
                | "run" | "codegen",
            ) => req.heuristic = value("a heuristic name")?,
            ("--format", "check") => req.format = value("text or json")?,
            ("-i", "check" | "run" | "trial" | "codegen") => {
                let pair = value("var=value")?;
                let (var, val) = pair
                    .split_once('=')
                    .ok_or_else(|| usage(format!("bad input {pair:?} (want var=value)")))?;
                req.inputs
                    .insert(var.to_string(), parse_value(val).map_err(usage)?);
            }
            ("-p", "recommend") => {
                let n = value("a processor budget")?;
                let n = n
                    .parse()
                    .map_err(|_| usage(format!("bad processor budget {n:?} (want a number)")))?;
                req.procs = Some(n);
            }
            ("--repeat", "run") => {
                let n = value("a count (e.g. --repeat 1000)")?;
                let n = n
                    .parse()
                    .map_err(|_| usage(format!("--repeat needs a positive count, got {n:?}")))?;
                req.repeat = Some(n);
            }
            ("-t", "speedup") => req.topologies = Some(value("spec,spec,...")?),
            ("--expand", "optimize") => {
                req.expand = Some(value("task:tiles (e.g. --expand fact:16)")?)
            }
            ("-s", "verify") => {
                let file = value("a schedule file")?;
                let text = std::fs::read_to_string(&file)
                    .map_err(|e| (1, format!("cannot read {file}: {e}")))?;
                req.schedule = Some(text);
            }
            ("-o", "svg" | "save-schedule") => req.out = Some(value("an output location")?),
            ("--emit", "optimize") => req.out = Some(value("an output path ('-' for stdout)")?),
            ("--trace", "run") => req.out = Some(value("an output path (e.g. --trace out.json)")?),
            ("--weights", "check") => req.weights = true,
            ("--optimize" | "--optimized", "gantt" | "schedule" | "run" | "graph") => {
                req.optimize = true
            }
            ("--fuse", "optimize") => req.fuse = true,
            ("--reference", "trial") => req.reference = true,
            ("--dot", "graph") => req.dot = true,
            (_, "trial" | "codegen" | "parallelize") if !arg.starts_with('-') => {
                req.args.push(arg.clone())
            }
            _ => return Err(usage(format!("{command} does not take {arg:?}"))),
        }
    }
    Ok(req)
}

fn parse_value(text: &str) -> Result<Value, String> {
    let t = text.trim();
    if let Some(inner) = t.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
        let mut vals = Vec::new();
        for part in inner.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            vals.push(
                part.parse::<f64>()
                    .map_err(|_| format!("bad array element {part:?}"))?,
            );
        }
        Ok(Value::array(vals))
    } else {
        t.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad scalar {t:?}"))
    }
}
