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
//! daemon row has no local fallback. Every option is a row of
//! [`ops::OPTIONS`]: `banger help` prints those too, and the arguments
//! are parsed by them.
//!
//! Exit codes: 0 success (warnings allowed), 1 operational failure or
//! error-severity diagnostics, 2 usage errors (unknown subcommand, missing
//! arguments, an option without its value or with a malformed one, an
//! option or operand the verb does not take): one line on stderr, nothing
//! on stdout, no request made. A reader that closes the pipe early
//! (`| head -1`) changes none of them: see `put`.

use banger::serve::ops::{self, Kind, Verb};
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
        fail(2, &ops::unknown_verb(command));
    };
    let req = build_request(verb, &args[1..]).unwrap_or_else(|(code, msg)| fail(code, &msg));
    let resp = if verb.on_daemon() {
        // A verb on the daemon itself has no local answer: no fallback.
        let socket = connect
            .map(Into::into)
            .unwrap_or_else(banger::serve::default_socket_path);
        ask_daemon(&socket, &req)
            .unwrap_or_else(|e| die(&format!("cannot connect to {}: {e}", socket.display())))
    } else {
        let local = || ops::handle(&ProjectStore::new(), &req);
        match &connect {
            None => local(),
            Some(sock) => ask_daemon(Path::new(sock), &req).unwrap_or_else(|e| {
                say(&format!(
                    "banger: no daemon at {sock} ({e}); running locally"
                ));
                local()
            }),
        }
    };
    exit(finish(&resp));
}

/// The column an option's `banger help` text starts at.
const HELP_COLUMN: usize = 19;
/// The column a verb list in `banger help` wraps before.
const HELP_WIDTH: usize = 78;

fn usage_text() -> String {
    let (mut verbs, mut admin) = (String::new(), String::new());
    for verb in ops::VERBS {
        let (name, help) = verb.name_and_help();
        if verb.on_daemon() {
            admin += &format!("  {name:<16} {help}\n");
        } else {
            verbs += &format!("  {name:<14} {help}\n");
        }
    }
    let indent = format!("\n{:HELP_COLUMN$}", "");
    let mut options = String::new();
    for opt in ops::OPTIONS.iter().filter(|opt| !opt.usage.is_empty()) {
        options += &format!("  {:<16} ", opt.usage);
        let mut column = HELP_COLUMN;
        for (i, verb) in opt.verbs.iter().enumerate() {
            let sep = if i + 1 < opt.verbs.len() { "/" } else { ":" };
            if column + verb.len() + sep.len() > HELP_WIDTH {
                options += &indent;
                column = HELP_COLUMN;
            }
            options += &format!("{verb}{sep}");
            column += verb.len() + sep.len();
        }
        options += &format!(" {}\n", opt.help.replace('\n', &indent));
    }
    format!(
        "usage: banger <subcommand> <file.bang> [options]\n\n\
         subcommands:\n{verbs}  help           show this list\n\
         \noptions:\n{options}\
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
    let mut socket = banger::serve::default_socket_path();
    let mut words = rest.iter();
    while let Some(word) = words.next() {
        if word != "--socket" {
            fail(2, &ops::does_not_take("serve", word));
        }
        let path = words.next();
        socket = path
            .unwrap_or_else(|| fail(2, "--socket needs a socket path"))
            .into();
    }
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

/// Parses the words after the verb into a request, or says why not as
/// `(exit code, message)`: a usage error, 2, unless it is the `-s` file
/// that cannot be read. A word is a flag of one of the verb's rows in
/// [`ops::OPTIONS`] or an operand; the first operand is the project path,
/// the others go to the verb's operand row, and anything else is
/// refused. The project path goes absolute, and a [`Kind::File`] is read
/// here, because a daemon has another working directory; the handler
/// opens nothing but the project.
fn build_request(verb: &Verb, words: &[String]) -> Result<Request, (i32, String)> {
    let usage = |msg: String| (2, msg);
    let cmd = verb.name();
    let mut req = Request::new(cmd);
    let mut words = words.iter();
    while let Some(word) = words.next() {
        let operand = !word.starts_with('-');
        if operand && verb.takes_path() && req.path.is_none() {
            let absolute = std::path::absolute(word)
                .ok()
                .and_then(|p| p.into_os_string().into_string().ok());
            req.path = Some(absolute.unwrap_or_else(|| word.clone()));
            continue;
        }
        let flag = if operand { "" } else { word.as_str() };
        let opt = ops::options(cmd)
            .find(|opt| opt.flag() == flag)
            .ok_or_else(|| usage(ops::does_not_take(cmd, word)))?;
        let mut value = || {
            words
                .next()
                .cloned()
                .ok_or_else(|| usage(format!("{word} needs {}", opt.needs)))
        };
        match opt.kind {
            Kind::Word(_, set) => *set(&mut req) = value()?,
            Kind::Text(_, set) => *set(&mut req) = Some(value()?),
            Kind::File(_, set) => {
                let file = value()?;
                let text = std::fs::read_to_string(&file)
                    .map_err(|e| (1, format!("cannot read {file}: {e}")))?;
                *set(&mut req) = Some(text);
            }
            Kind::Flag(_, set) => *set(&mut req) = true,
            Kind::Count(_, set) => {
                let n = value()?;
                let bad = || usage(format!("{word} needs {}, got {n:?}", opt.needs));
                *set(&mut req) = Some(n.parse().map_err(|_| bad())?);
            }
            Kind::Inputs(_, set) => {
                let pair = value()?;
                let (var, val) = pair
                    .split_once('=')
                    .ok_or_else(|| usage(format!("bad input {pair:?} (want var=value)")))?;
                let val = parse_value(val).map_err(usage)?;
                set(&mut req).insert(var.to_string(), val);
            }
            Kind::Args(_, set) => set(&mut req).push(word.clone()),
        }
    }
    if verb.takes_path() && req.path.is_none() {
        return Err(usage(format!("{cmd} needs a <file.bang> argument")));
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
