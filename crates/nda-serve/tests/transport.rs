//! Transport-level tests: the line protocol over in-memory streams and
//! real TCP sockets, exercising ordering, error recovery, cache
//! warm-up across connections, and clean shutdown.

use nda_serve::client::run_batch;
use nda_serve::{ServeConfig, Server};
use std::io::Cursor;
use std::net::TcpListener;

fn new_server() -> Server {
    Server::new(ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    })
    .expect("server starts")
}

fn response_lines(out: &[u8]) -> Vec<String> {
    String::from_utf8(out.to_vec())
        .expect("responses are UTF-8")
        .lines()
        .map(str::to_string)
        .collect()
}

fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat).unwrap_or_else(|| panic!("{key} in {line}")) + pat.len()..];
    &rest[..rest.find([',', '}']).unwrap()]
}

#[test]
fn stream_answers_in_order_and_recovers_from_bad_lines() {
    let server = new_server();
    let batch = concat!(
        "# comment and blank lines are skipped, not answered\n",
        "\n",
        r#"{"id":1,"op":"run","workload":"mcf","variant":"Strict","iters":30}"#,
        "\n",
        "this is not json\n",
        r#"{"id":3,"op":"run","workload":"mcf","variant":"Strict","iters":30}"#,
        "\n",
        r#"{"id":4,"op":"stats"}"#,
        "\n",
    );
    let mut out = Vec::new();
    let shutdown = server
        .serve_stream(Cursor::new(batch), &mut out)
        .expect("stream serves");
    assert!(!shutdown, "no shutdown request in this batch");

    let lines = response_lines(&out);
    assert_eq!(lines.len(), 4, "one response per request: {lines:?}");
    assert_eq!(field(&lines[0], "id"), "1");
    assert_eq!(field(&lines[0], "ok"), "true");
    assert_eq!(field(&lines[1], "id"), "0", "unparseable line answers id 0");
    assert_eq!(field(&lines[1], "ok"), "false");
    assert_eq!(field(&lines[2], "id"), "3");
    assert_eq!(field(&lines[2], "ok"), "true");
    // ids 1 and 3 are the same request: identical payloads modulo the
    // id (pipelined duplicates may dedup or memo-hit; either way the
    // document bytes must match).
    assert_eq!(
        lines[0]
            .replace("\"id\":1", "\"id\":3")
            .replace("\"cached\":true", "\"cached\":false"),
        lines[2].replace("\"cached\":true", "\"cached\":false")
    );
    // The trailing stats request observed the whole connection.
    assert_eq!(field(&lines[3], "op"), "\"stats\"");
    assert!(lines[3].contains("serve.requests"));
}

#[test]
fn over_long_line_gets_one_error_then_service_resumes() {
    let server = new_server();
    let run = r#"{"id":2,"op":"run","workload":"mcf","variant":"OoO","iters":30}"#;
    // A valid-looking request padded past the cap: its id must not be
    // recovered, since the server never holds the whole line.
    let long = format!(
        r#"{{"id":1,"op":"run","workload":"{}"}}"#,
        "m".repeat(nda_serve::MAX_LINE_BYTES)
    );
    let mut batch = format!("{long}\n{run}\n").into_bytes();
    // A line that is not UTF-8 is answered too, not a dropped connection.
    batch.extend_from_slice(b"\xff\xfe\n");
    batch.extend_from_slice(run.replace("\"id\":2", "\"id\":3").as_bytes());
    let mut out = Vec::new();
    server
        .serve_stream(Cursor::new(batch), &mut out)
        .expect("stream serves");

    let lines = response_lines(&out);
    assert_eq!(lines.len(), 4, "one response per line: {lines:?}");
    assert_eq!(field(&lines[0], "id"), "0");
    assert_eq!(field(&lines[0], "ok"), "false");
    assert!(lines[0].contains("exceeds"), "{}", lines[0]);
    assert_eq!(field(&lines[1], "id"), "2");
    assert_eq!(field(&lines[1], "ok"), "true");
    assert_eq!(field(&lines[2], "ok"), "false");
    assert!(lines[2].contains("UTF-8"), "{}", lines[2]);
    assert_eq!(field(&lines[3], "id"), "3");
    assert_eq!(field(&lines[3], "ok"), "true");
}

#[test]
fn second_stream_on_same_engine_is_fully_cached() {
    let server = new_server();
    let batch = concat!(
        r#"{"id":1,"op":"run","workload":"gcc","variant":"OoO","iters":30}"#,
        "\n",
        r#"{"id":2,"op":"analyze","target":"spectre v1 (cache)","iters":80}"#,
        "\n",
    );
    let mut first = Vec::new();
    server.serve_stream(Cursor::new(batch), &mut first).unwrap();
    let mut second = Vec::new();
    server
        .serve_stream(Cursor::new(batch), &mut second)
        .unwrap();

    let a = response_lines(&first);
    let b = response_lines(&second);
    assert_eq!(a.len(), 2);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(field(x, "cached"), "false", "cold pass must execute: {x}");
        assert_eq!(field(y, "cached"), "true", "warm pass must memo-hit: {y}");
        assert_eq!(
            x.replace("\"cached\":false", "\"cached\":true"),
            *y,
            "responses differ beyond the cached flag"
        );
    }
}

#[test]
fn tcp_round_trip_warm_pass_and_shutdown() {
    let server = new_server();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap().to_string();

    // Run all socket traffic inside the scope but defer every assertion
    // until after shutdown + join: a panic before the shutdown request
    // would leave serve_tcp accepting forever and deadlock the scope.
    let (first, second, ack) = std::thread::scope(|scope| {
        let server = &server;
        let handle = scope.spawn(move || server.serve_tcp(listener));

        let batch: Vec<String> = vec![
            r#"{"id":1,"op":"run","workload":"mcf","variant":"FullProtection","iters":30}"#.into(),
            r#"{"id":2,"op":"trace","attack":"spectre v1 (cache)","format":"perfetto"}"#.into(),
        ];
        let mut first = Vec::new();
        let a = run_batch(&addr, &batch, &mut first);
        let mut second = Vec::new();
        let b = run_batch(&addr, &batch, &mut second);

        let mut ack = Vec::new();
        let c = run_batch(
            &addr,
            &[r#"{"id":9,"op":"shutdown"}"#.to_string()],
            &mut ack,
        );
        handle.join().unwrap().expect("serve_tcp exits cleanly");
        (a.map(|_| first), b.map(|_| second), c.map(|_| ack))
    });

    let a = response_lines(&first.expect("first batch"));
    let b = response_lines(&second.expect("second batch"));
    assert_eq!(a.len(), 2);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(field(x, "ok"), "true", "cold response failed: {x}");
        assert_eq!(
            field(y, "cached"),
            "true",
            "second connection must be warm: {y}"
        );
        assert_eq!(x.replace("\"cached\":false", "\"cached\":true"), *y);
    }
    let ack = response_lines(&ack.expect("shutdown batch"));
    assert!(ack[0].contains("\"op\":\"shutdown\",\"ok\":true"));
}
