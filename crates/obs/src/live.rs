//! A zero-dependency scrape endpoint over [`MetricsRegistry`].
//!
//! The repo's rule is "no external crates", so there is no hyper, no
//! tokio, no tiny-http — just a `std::net::TcpListener`, one accept
//! thread, and enough HTTP/1.1 to satisfy Prometheus and `curl`:
//! parse the request line of a `GET`, discard headers, answer with
//! `Content-Length` and `Connection: close`. That subset is all a
//! scraper needs, and hand-rolling it keeps the endpoint auditable by
//! the same gates as the rest of the stack (its one shared word is a
//! `StopFlag`).
//!
//! Serving is deliberately decoupled from recording: the accept thread
//! renders from the registry's non-destructive scrape path, so a slow
//! or hostile client can delay *its own response*, never a writer.
//! Routes:
//!
//! * `GET /metrics` — Prometheus text exposition (format 0.0.4)
//! * `GET /json`    — schema-versioned `live-registry` JSON
//! * anything else  — 404 (405 for non-GET methods)
//!
//! The listener runs nonblocking with a shutdown flag so dropping the
//! [`LiveServer`] (or calling [`LiveServer::shutdown`]) reliably joins
//! the thread instead of leaking it into the test harness.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use rtle_htm::atomic::StopFlag;

use crate::registry::MetricsRegistry;

/// How long the accept loop sleeps when no connection is pending.
const IDLE_POLL: Duration = Duration::from_millis(10);

/// Per-connection I/O budget; a stalled client is cut off, not waited
/// on.
const CONN_TIMEOUT: Duration = Duration::from_millis(500);

/// Largest request head we will buffer before answering 400.
const MAX_REQUEST_BYTES: usize = 8192;

/// A running scrape endpoint. Shut down explicitly or on drop.
pub struct LiveServer {
    addr: SocketAddr,
    stop: Arc<StopFlag>,
    thread: Option<JoinHandle<()>>,
}

impl LiveServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept thread serving `registry`.
    pub fn start(
        registry: Arc<MetricsRegistry>,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<LiveServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(StopFlag::new());
        let thread_stop = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("rtle-live".into())
            .spawn(move || accept_loop(listener, registry, thread_stop))?;
        Ok(LiveServer {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address — read this after starting on port 0.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.raise();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for LiveServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for LiveServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveServer")
            .field("addr", &self.addr)
            .finish()
    }
}

fn accept_loop(listener: TcpListener, registry: Arc<MetricsRegistry>, stop: Arc<StopFlag>) {
    while !stop.is_raised() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Serve inline: scrapes are small, periodic, and the
                // registry read path is non-blocking for writers, so a
                // second thread per connection buys nothing.
                let _ = serve_connection(stream, &registry);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(IDLE_POLL);
            }
            Err(_) => std::thread::sleep(IDLE_POLL),
        }
    }
}

fn serve_connection(mut stream: TcpStream, registry: &MetricsRegistry) -> std::io::Result<()> {
    stream.set_read_timeout(Some(CONN_TIMEOUT))?;
    stream.set_write_timeout(Some(CONN_TIMEOUT))?;
    stream.set_nonblocking(false)?;

    let head = match read_request_head(&mut stream) {
        Ok(head) => head,
        Err(_) => {
            return write_response(
                &mut stream,
                "400 Bad Request",
                "text/plain",
                "bad request\n",
            );
        }
    };
    let (method, path) = match parse_request_line(&head) {
        Some(pair) => pair,
        None => {
            return write_response(
                &mut stream,
                "400 Bad Request",
                "text/plain",
                "bad request\n",
            );
        }
    };
    if method != "GET" {
        return write_response(
            &mut stream,
            "405 Method Not Allowed",
            "text/plain",
            "only GET is supported\n",
        );
    }
    match path {
        "/metrics" => {
            let body = registry.to_prometheus();
            write_response(
                &mut stream,
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            )
        }
        "/json" => {
            let body = registry.to_json().to_string_pretty();
            write_response(&mut stream, "200 OK", "application/json", &body)
        }
        _ => write_response(
            &mut stream,
            "404 Not Found",
            "text/plain",
            "routes: /metrics /json\n",
        ),
    }
}

/// Reads until the blank line ending the request head (we never need a
/// body for GET). Bounded by [`MAX_REQUEST_BYTES`].
fn read_request_head(stream: &mut TcpStream) -> std::io::Result<String> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 512];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n") {
            break;
        }
        if buf.len() > MAX_REQUEST_BYTES {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "request head too large",
            ));
        }
    }
    String::from_utf8(buf)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-utf8 request"))
}

/// Extracts `(method, path)` from `GET /metrics HTTP/1.1`, dropping
/// any query string.
fn parse_request_line(head: &str) -> Option<(&str, &str)> {
    let line = head.lines().next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?;
    let target = parts.next()?;
    let path = target.split('?').next().unwrap_or(target);
    Some((method, path))
}

fn write_response(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{LiveSource, SourceSnapshot};

    struct One;
    impl LiveSource for One {
        fn live_snapshot(&self) -> SourceSnapshot {
            SourceSnapshot {
                kind: "test",
                counters: vec![("ops".into(), 42)],
                gauges: Vec::new(),
                windows: Vec::new(),
                labels: Vec::new(),
            }
        }
    }

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        let split = text.find("\r\n\r\n").expect("head/body split");
        (text[..split].to_string(), text[split + 4..].to_string())
    }

    fn server() -> LiveServer {
        let registry = Arc::new(MetricsRegistry::new());
        registry.register("lock", Arc::new(One));
        LiveServer::start(registry, "127.0.0.1:0").expect("bind ephemeral port")
    }

    #[test]
    fn serves_prometheus_and_json() {
        let srv = server();
        let (head, body) = get(srv.addr(), "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("text/plain; version=0.0.4"));
        assert!(body.contains("rtle_ops{source=\"lock\",kind=\"test\"} 42"));

        let (head, body) = get(srv.addr(), "/json");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        let doc = crate::json::parse(&body).expect("valid JSON body");
        assert_eq!(
            doc.get("kind").and_then(crate::json::Json::as_str),
            Some("live-registry")
        );
    }

    #[test]
    fn unknown_route_is_404_and_post_is_405() {
        let srv = server();
        let (head, _) = get(srv.addr(), "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");

        let mut stream = TcpStream::connect(srv.addr()).unwrap();
        stream
            .write_all(b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 405"), "{text}");
    }

    #[test]
    fn shutdown_joins_and_frees_the_port() {
        let mut srv = server();
        let addr = srv.addr();
        srv.shutdown();
        // After shutdown the listener is gone; connecting must fail
        // (give the OS a beat to tear the socket down).
        std::thread::sleep(Duration::from_millis(50));
        assert!(TcpStream::connect(addr).is_err(), "port should be released");
    }
}
