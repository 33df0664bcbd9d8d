//! Transports: pipelined line-delimited JSON over TCP and
//! stdin/stdout.
//!
//! Each connection runs a reader thread and a writer loop. The reader
//! parses and submits requests as fast as the client sends them — so a
//! batch of identical requests deduplicates onto one in-flight job and
//! independent requests spread across the shards — while the writer
//! waits on the pending outcomes *in request order* and streams the
//! response lines back. Ordering is therefore per-connection FIFO even
//! though execution is out of order across shards.
//!
//! A request line longer than [`MAX_LINE_BYTES`] is answered with an
//! error and skipped up to its newline, so no client can make the reader
//! buffer without bound. On TCP every response line leaves in one write
//! with Nagle's algorithm off, so a response is not held back waiting for
//! the acknowledgement of the previous one.
//!
//! `stats` is resolved when the writer reaches it, i.e. after every
//! earlier response on the connection has been written — a trailing
//! `{"op":"stats"}` in a batch observes the whole batch. `shutdown`
//! acknowledges, stops the reader, and (on TCP) stops the accept loop
//! once the connection drains.

use crate::engine::{render_response, Engine, Pending};
use crate::protocol::{Op, Request};
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// The longest request line the server reads, in bytes, newline excluded.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// A running engine plus the transport plumbing.
pub struct Server {
    engine: Arc<Engine>,
}

/// One unit the writer loop must emit, in request order.
enum Slot {
    /// A malformed line: respond with an error, echoing the id when one
    /// could be parsed.
    Bad { id: u64, error: String },
    /// A submitted job (or an immediately-ready outcome).
    Job {
        id: u64,
        op: &'static str,
        pending: Pending,
        start: Instant,
    },
    /// `stats`: resolved at write time so it observes all earlier
    /// responses on this connection.
    Stats { id: u64 },
    /// `shutdown`: acknowledge, then stop the server after this
    /// connection drains.
    Shutdown { id: u64 },
}

impl Server {
    /// Start the engine with the given configuration.
    pub fn new(cfg: crate::engine::ServeConfig) -> std::io::Result<Server> {
        Ok(Server {
            engine: Arc::new(Engine::new(cfg)?),
        })
    }

    /// The underlying engine (for stats, tests and embedding).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Serve one request stream: read lines from `input`, write one
    /// response line per request to `output` in request order. Returns
    /// when the input ends or a `shutdown` request is processed;
    /// `true` means shutdown was requested.
    pub fn serve_stream(
        &self,
        mut input: impl BufRead + Send,
        mut output: impl Write,
    ) -> std::io::Result<bool> {
        let engine = &self.engine;
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::sync_channel::<Slot>(1024);
            scope.spawn(move || {
                let mut buf = Vec::new();
                loop {
                    let slot = match read_line_capped(&mut input, &mut buf) {
                        Ok(Some(true)) => match std::str::from_utf8(&buf).map(str::trim) {
                            Ok(line) if line.is_empty() || line.starts_with('#') => continue,
                            Ok(line) => request_slot(engine, line),
                            Err(_) => Slot::Bad {
                                id: 0,
                                error: "request line is not UTF-8".to_string(),
                            },
                        },
                        Ok(Some(false)) => Slot::Bad {
                            id: 0,
                            error: format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                        },
                        Ok(None) | Err(_) => break,
                    };
                    let stop = matches!(slot, Slot::Shutdown { .. });
                    if tx.send(slot).is_err() || stop {
                        break;
                    }
                }
            });
            let mut shutdown = false;
            for slot in rx {
                match slot {
                    Slot::Bad { id, error } => {
                        writeln!(
                            output,
                            "{{\"id\":{id},\"ok\":false,\"cached\":false,\"error\":{}}}",
                            nda_stats::escape_json(&error)
                        )?;
                    }
                    Slot::Job {
                        id,
                        op,
                        pending,
                        start,
                    } => {
                        let outcome = pending.wait();
                        engine.record_latency_us(start.elapsed().as_micros() as u64);
                        writeln!(output, "{}", render_response(id, op, &outcome))?;
                    }
                    Slot::Stats { id } => {
                        writeln!(
                            output,
                            "{{\"id\":{id},\"op\":\"stats\",\"ok\":true,\"cached\":false,\
                             \"document\":{}}}",
                            nda_stats::escape_json(&self.engine.stats_document())
                        )?;
                    }
                    Slot::Shutdown { id } => {
                        writeln!(
                            output,
                            "{{\"id\":{id},\"op\":\"shutdown\",\"ok\":true,\"cached\":false}}"
                        )?;
                        shutdown = true;
                        break;
                    }
                }
                output.flush()?;
            }
            output.flush()?;
            Ok(shutdown)
        })
    }

    /// Serve connections on an already-bound listener until a client
    /// sends `shutdown`. Connections are handled on their own threads
    /// and all share the engine (and its caches).
    pub fn serve_tcp(&self, listener: TcpListener) -> std::io::Result<()> {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            for stream in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                // Responses are single writes; nothing is gained by
                // coalescing them across requests.
                let _ = stream.set_nodelay(true);
                let stop = stop.clone();
                scope.spawn(move || {
                    let reader = BufReader::new(match stream.try_clone() {
                        Ok(s) => s,
                        Err(_) => return,
                    });
                    // Buffered so each response line (body and newline)
                    // leaves in the one write of the per-response flush.
                    let writer = BufWriter::new(&stream);
                    if let Ok(true) = self.serve_stream(reader, writer) {
                        stop.store(true, Ordering::SeqCst);
                        // Unblock the accept loop so it can observe the
                        // stop flag and exit.
                        let _ = TcpStream::connect(addr);
                    }
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                });
            }
        });
        Ok(())
    }
}

/// Parse one request line and submit it: the slot its response fills.
fn request_slot(engine: &Engine, line: &str) -> Slot {
    match Request::parse(line) {
        Err(error) => Slot::Bad {
            id: recovered_id(line),
            error,
        },
        Ok(Request { id, op: Op::Stats }) => Slot::Stats { id },
        Ok(Request {
            id,
            op: Op::Shutdown,
        }) => Slot::Shutdown { id },
        Ok(Request { id, op }) => {
            let name = op.name();
            let start = Instant::now();
            Slot::Job {
                id,
                op: name,
                pending: engine.submit(op),
                start,
            }
        }
    }
}

/// Read the next `\n`-terminated line into `buf`, newline excluded,
/// holding at most [`MAX_LINE_BYTES`] of it: `Some(true)` for a line,
/// `Some(false)` for a longer one (consumed through its newline, `buf`
/// left empty), `None` at the end of the input.
fn read_line_capped(input: &mut impl BufRead, buf: &mut Vec<u8>) -> std::io::Result<Option<bool>> {
    buf.clear();
    let (mut started, mut fits) = (false, true);
    loop {
        let chunk = match input.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            return Ok(started.then_some(fits));
        }
        started = true;
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(chunk.len());
        if fits && buf.len() + take <= MAX_LINE_BYTES {
            buf.extend_from_slice(&chunk[..take]);
        } else {
            fits = false;
            buf.clear();
        }
        input.consume(take + usize::from(newline.is_some()));
        if newline.is_some() {
            return Ok(Some(fits));
        }
    }
}

/// Best-effort id recovery from a line that failed full parsing, so
/// even the error response can be correlated by the client.
fn recovered_id(line: &str) -> u64 {
    crate::json::Json::parse(line)
        .ok()
        .and_then(|v| v.get("id").and_then(crate::json::Json::as_u64))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_reader_caps_length_and_resynchronises() {
        let exact = "a".repeat(MAX_LINE_BYTES);
        let over = "b".repeat(MAX_LINE_BYTES + 1);
        let text = format!("{exact}\n{over}\nok\r\nlast");
        // A small buffer splits every long line across many chunks.
        let mut input = BufReader::with_capacity(7, text.as_bytes());
        let mut buf = Vec::new();
        let mut next = || {
            let r = read_line_capped(&mut input, &mut buf).unwrap();
            (r, String::from_utf8(buf.clone()).unwrap())
        };
        assert_eq!(next(), (Some(true), exact.clone()));
        assert_eq!(next(), (Some(false), String::new()));
        assert_eq!(next(), (Some(true), "ok\r".to_string()));
        assert_eq!(next(), (Some(true), "last".to_string()));
        assert_eq!(next(), (None, String::new()));
    }
}
