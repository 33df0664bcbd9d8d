//! The open-loop load generator: each connection's thread sends its share
//! of the schedule at the due times, whatever the server is doing, and
//! times every response from when its request was *due*. A stall on the
//! server therefore shows up as latency on the requests queued behind it,
//! and a late generator shows up as `sent − due`.

use crate::spans::Spans;
use nda_serve::{render_response, Engine, Pending, Request};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::RecvTimeoutError;
use std::time::{Duration, Instant};

/// How long to wait for outstanding responses after the last request
/// was due before giving up on them.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

/// One scheduled request line (with its id) and when it is due, as an
/// offset from the start of the run.
#[derive(Debug, Clone)]
pub struct Due {
    pub due: Duration,
    pub line: String,
}

/// What happened to one request. Offsets are from the start of the run.
#[derive(Debug, Clone, Default)]
pub struct Timing {
    pub sent: Duration,
    /// When the response line had been read; `None` if it never came.
    pub done: Option<Duration>,
    /// The response line (TCP) or rendered response (in process).
    pub response: String,
}

/// Request `i` goes out on connection `i % conns`.
fn share(n: usize, conns: usize, c: usize) -> Vec<usize> {
    (c..n).step_by(conns).collect()
}

/// Merge per-connection results back into schedule order.
fn merge(n: usize, parts: Vec<Vec<(usize, Timing)>>) -> Vec<Timing> {
    let mut out = vec![Timing::default(); n];
    for (i, t) in parts.into_iter().flatten() {
        out[i] = t;
    }
    out
}

/// Drive `schedule` over `conns` TCP connections to `addr`, one thread
/// per connection. Responses arrive in request order per connection.
pub fn drive_tcp(addr: SocketAddr, schedule: &[Due], conns: usize) -> std::io::Result<Vec<Timing>> {
    let t0 = Instant::now();
    let parts = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let mine = share(schedule.len(), conns, c);
                scope.spawn(move || tcp_connection(addr, schedule, &mine, t0))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect::<std::io::Result<Vec<_>>>()
    })?;
    Ok(merge(schedule.len(), parts))
}

fn tcp_connection(
    addr: SocketAddr,
    schedule: &[Due],
    mine: &[usize],
    t0: Instant,
) -> std::io::Result<Vec<(usize, Timing)>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut out: Vec<(usize, Timing)> = Vec::with_capacity(mine.len());
    let mut waiting: VecDeque<usize> = VecDeque::new();
    let mut buf: Vec<u8> = Vec::new();
    // Bytes of `buf` already searched for a newline: responses reach a
    // megabyte, so each chunk is scanned once.
    let mut scanned = 0;
    let mut chunk = vec![0u8; 1 << 16];
    let mut next = 0;
    let last_due = mine.last().map_or(Duration::ZERO, |&i| schedule[i].due);
    loop {
        let now = t0.elapsed();
        while next < mine.len() && schedule[mine[next]].due <= now {
            let i = mine[next];
            stream.write_all(schedule[i].line.as_bytes())?;
            stream.write_all(b"\n")?;
            waiting.push_back(out.len());
            out.push((
                i,
                Timing {
                    sent: t0.elapsed(),
                    ..Timing::default()
                },
            ));
            next += 1;
        }
        if next == mine.len() && waiting.is_empty() {
            break;
        }
        let until = if next < mine.len() {
            schedule[mine[next]].due.saturating_sub(now)
        } else if now > last_due + DRAIN_LIMIT {
            break;
        } else {
            last_due + DRAIN_LIMIT - now
        };
        if until.is_zero() {
            continue;
        }
        stream.set_read_timeout(Some(until.max(Duration::from_micros(50))))?;
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                let at = t0.elapsed();
                while let Some(off) = buf[scanned..].iter().position(|&b| b == b'\n') {
                    let nl = scanned + off;
                    let line = String::from_utf8_lossy(&buf[..nl]).into_owned();
                    buf.drain(..=nl);
                    scanned = 0;
                    let Some(slot) = waiting.pop_front() else {
                        break;
                    };
                    let t = &mut out[slot].1;
                    t.done = Some(at);
                    t.response = line;
                }
                scanned = buf.len();
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(out)
}

/// Drive `schedule` straight into `engine` on `conns` threads, with the
/// same per-connection response order as the TCP transport, recording
/// `parse`, `submit`, `wait` and `render` spans per request (group =
/// schedule index) when `spans` is enabled.
pub fn drive_engine(engine: &Engine, schedule: &[Due], conns: usize, spans: &Spans) -> Vec<Timing> {
    let t0 = Instant::now();
    let parts = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let mine = share(schedule.len(), conns, c);
                scope.spawn(move || engine_connection(engine, schedule, &mine, t0, spans))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    merge(schedule.len(), parts)
}

struct InFlight {
    slot: usize,
    id: u64,
    op: &'static str,
    pending: Option<Pending>,
    /// When this request reached the head of the queue (wait span start).
    head_ns: Option<u64>,
}

fn engine_connection(
    engine: &Engine,
    schedule: &[Due],
    mine: &[usize],
    t0: Instant,
    spans: &Spans,
) -> Vec<(usize, Timing)> {
    let mut out: Vec<(usize, Timing)> = Vec::with_capacity(mine.len());
    let mut waiting: VecDeque<InFlight> = VecDeque::new();
    let mut next = 0;
    loop {
        let now = t0.elapsed();
        while next < mine.len() && schedule[mine[next]].due <= now {
            let i = mine[next] as u64;
            let sent = t0.elapsed();
            let req = spans.span("serve.parse", 0, i, |_| {
                Request::parse(&schedule[mine[next]].line)
            });
            let slot = out.len();
            out.push((
                mine[next],
                Timing {
                    sent,
                    ..Timing::default()
                },
            ));
            match req {
                Ok(Request { id, op }) => {
                    let name = op.name();
                    let pending = spans.span("serve.submit", 0, i, |_| engine.submit(op));
                    waiting.push_back(InFlight {
                        slot,
                        id,
                        op: name,
                        pending: Some(pending),
                        head_ns: None,
                    });
                }
                Err(e) => {
                    let t = &mut out[slot].1;
                    t.done = Some(t0.elapsed());
                    t.response =
                        format!("{{\"ok\":false,\"error\":{}}}", nda_stats::escape_json(&e));
                }
            }
            next += 1;
        }
        let Some(head) = waiting.front_mut() else {
            if next == mine.len() {
                break;
            }
            std::thread::sleep(schedule[mine[next]].due.saturating_sub(t0.elapsed()));
            continue;
        };
        let head_ns = *head.head_ns.get_or_insert_with(|| spans.now_ns());
        let until = if next < mine.len() {
            schedule[mine[next]].due.saturating_sub(t0.elapsed())
        } else {
            DRAIN_LIMIT
        };
        let outcome = match head.pending.take().expect("head request is pending") {
            Pending::Ready(o) => Some(o),
            Pending::Waiting(rx) => match rx.recv_timeout(until) {
                Ok(o) => Some(o),
                Err(RecvTimeoutError::Timeout) if next < mine.len() => {
                    head.pending = Some(Pending::Waiting(rx));
                    None
                }
                Err(_) => Some(std::sync::Arc::new(nda_serve::Outcome {
                    ok: false,
                    cached: false,
                    document: String::new(),
                    error: Some("no response".into()),
                })),
            },
        };
        let Some(o) = outcome else { continue };
        let head = waiting.pop_front().expect("head exists");
        let group = out[head.slot].0 as u64;
        spans.record("serve.wait", 0, group, head_ns, spans.now_ns());
        let line = spans.span("serve.render", 0, group, |_| {
            render_response(head.id, head.op, &o)
        });
        let t = &mut out[head.slot].1;
        t.done = Some(t0.elapsed());
        t.response = line;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// A handler stalled on purpose delays every request queued behind it
    /// on the same connection, and the generator reports that delay as
    /// latency from the due time, not from when the response was sent.
    #[test]
    fn a_stalled_handler_shows_up_as_lateness_behind_it() {
        const STALL: Duration = Duration::from_millis(300);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut w = stream.try_clone().unwrap();
            let mut released = None;
            for (n, line) in BufReader::new(stream).lines().enumerate() {
                let line = line.unwrap();
                if n == 1 {
                    std::thread::sleep(STALL);
                    released = Some(Instant::now());
                }
                writeln!(w, "{{\"echo\":{line:?}}}").unwrap();
            }
            released.unwrap()
        });
        // Requests every 40 ms on one connection; request 1 stalls the
        // handler, so requests due before the release queue behind it.
        let schedule: Vec<Due> = (0..14)
            .map(|i| Due {
                due: Duration::from_millis(40 * i),
                line: format!("req{i}"),
            })
            .collect();
        let start = Instant::now();
        let timings = drive_tcp(addr, &schedule, 1).unwrap();
        let released = server.join().unwrap().duration_since(start);
        // The sender's clock starts a moment after `start`.
        let slack = Duration::from_millis(5);
        let mut behind = 0;
        for (i, (d, t)) in schedule.iter().zip(&timings).enumerate() {
            let done = t.done.expect("every request answered");
            assert!(t.response.contains(&format!("\"req{i}\"")), "{t:?}");
            // The generator kept sending on schedule during the stall.
            assert!(
                t.sent >= d.due && t.sent - d.due < STALL / 2,
                "req{i} sent late"
            );
            if i >= 1 && d.due + slack < released {
                // Queued behind the stall: its latency from due covers
                // the rest of the stall.
                behind += 1;
                assert!(
                    done + slack >= released,
                    "req{i} answered before the release"
                );
                assert!(done - d.due + slack >= released.saturating_sub(d.due));
            } else if d.due > released + slack {
                assert!(done - d.due < STALL / 2, "req{i} was due after the stall");
            }
        }
        assert!(
            behind >= 5,
            "only {behind} requests queued behind the stall"
        );
    }
}
