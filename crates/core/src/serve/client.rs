//! The client side of the protocol: connect, send a request frame,
//! read the response frame.

use super::protocol::{read_frame, write_frame, Request, Response};
use std::io::{self, BufReader};
use std::os::unix::net::UnixStream;
use std::path::Path;

/// One connection to a daemon. A client may issue any number of
/// requests over its lifetime; requests on one connection are
/// sequential (the protocol has no multiplexing — open a second client
/// for concurrency).
pub struct Client {
    /// Responses are read through the buffer, one `read` per frame that
    /// fits it; requests are written to the stream beneath it.
    stream: BufReader<UnixStream>,
}

impl Client {
    /// Connects to a daemon's socket. A connection failure is the
    /// CLI's cue to fall back to local execution.
    pub fn connect(socket_path: &Path) -> io::Result<Client> {
        Ok(Client {
            stream: BufReader::new(UnixStream::connect(socket_path)?),
        })
    }

    /// Sends one request and waits for its response.
    pub fn request(&mut self, req: &Request) -> Result<Response, String> {
        write_frame(self.stream.get_mut(), req.to_json().as_bytes())
            .map_err(|e| format!("send failed: {e}"))?;
        let frame = read_frame(&mut self.stream)
            .map_err(|e| format!("receive failed: {e}"))?
            .ok_or("daemon closed the connection without answering")?;
        let text =
            std::str::from_utf8(&frame).map_err(|_| "response frame is not UTF-8".to_string())?;
        Response::from_json(text).map_err(|e| format!("bad response: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::Server;
    use std::sync::atomic::Ordering;

    #[test]
    fn round_trip_through_a_real_socket() {
        let path =
            std::env::temp_dir().join(format!("banger-client-test-{}.sock", std::process::id()));
        std::fs::remove_file(&path).ok();
        let server = Server::bind(&path).unwrap();
        let shutdown = server.shutdown_handle();
        let handle = std::thread::spawn(move || server.serve());

        let mut client = Client::connect(&path).unwrap();
        let resp = client.request(&Request::new("ping")).unwrap();
        assert!(resp.ok);
        assert_eq!(resp.output, "pong\n");

        // Two requests on one connection.
        let resp = client.request(&Request::new("stats")).unwrap();
        assert!(resp.output.starts_with("requests "), "{}", resp.output);

        let resp = client.request(&Request::new("shutdown")).unwrap();
        assert!(resp.ok);
        assert!(shutdown.load(Ordering::SeqCst));
        handle.join().unwrap().unwrap();
        assert!(!path.exists());
    }
}
