//! Behavior tests of the serving loop itself, with handlers injected so
//! the tests control timing: deadline expiry, load shedding, graceful
//! drain, and protocol errors.

use hetesim_serve::{client, Request, Response, ServeConfig, Server, ShutdownHandle};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Stops the server even when the test body panics; without this the
/// scope would block forever joining a server nobody shut down.
struct StopOnDrop(ShutdownHandle);

impl Drop for StopOnDrop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Runs `body` against a server bound to an ephemeral port, then shuts it
/// down and verifies the run loop exits.
fn with_server<H, F>(config: ServeConfig, handler: H, body: F)
where
    H: hetesim_serve::Handler,
    F: FnOnce(std::net::SocketAddr),
{
    let server = Server::bind(&config).expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = server.handle();
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(&handler));
        let stop = StopOnDrop(handle);
        body(addr);
        drop(stop);
        serving.join().expect("server thread").expect("clean exit");
    });
}

fn config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 16,
        deadline_ms: 0,
        ..ServeConfig::default()
    }
}

#[test]
fn answers_and_shuts_down() {
    let handler = |_req: &Request| Response::json(200, "{\"pong\":true}");
    with_server(config(), handler, |addr| {
        let r = client::get(addr, "/anything").unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.body, "{\"pong\":true}");
    });
}

#[test]
fn connections_are_accepted_as_soon_as_they_arrive() {
    // Fifty fresh connections one after another: an acceptor that naps
    // between polls makes each wait out the nap (~5 ms apiece).
    let handler = |_req: &Request| Response::json(200, "{}");
    with_server(config(), handler, |addr| {
        assert_eq!(client::get(addr, "/warm").unwrap().status, 200);
        let start = Instant::now();
        for _ in 0..50 {
            assert_eq!(client::get(addr, "/fast").unwrap().status, 200);
        }
        let took = start.elapsed();
        assert!(
            took < Duration::from_millis(100),
            "50 sequential requests took {took:?}"
        );
    });
}

#[test]
fn idle_server_stops_promptly_on_shutdown() {
    let handler = |_req: &Request| Response::json(200, "{}");
    let server = Server::bind(&config()).unwrap();
    let addr = server.local_addr();
    let handle = server.handle();
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(&handler));
        // One answered request proves the acceptor is up and now idle in
        // its readiness wait.
        assert_eq!(client::get(addr, "/up").unwrap().status, 200);
        let start = Instant::now();
        handle.shutdown();
        serving.join().unwrap().unwrap();
        let took = start.elapsed();
        assert!(
            took < Duration::from_millis(250),
            "run returned {took:?} after shutdown"
        );
    });
}

#[test]
fn deadline_expiry_returns_504() {
    // The handler takes ~80 ms; the budget is 20 ms.
    let handler = |_req: &Request| {
        std::thread::sleep(Duration::from_millis(80));
        Response::json(200, "{\"too\":\"late\"}")
    };
    let cfg = ServeConfig {
        deadline_ms: 20,
        ..config()
    };
    with_server(cfg, handler, |addr| {
        let r = client::get(addr, "/slow").unwrap();
        assert_eq!(r.status, 504, "slow handler must time out: {:?}", r.body);
        assert!(r.body.contains("deadline"), "{:?}", r.body);
    });
}

#[test]
fn fast_requests_meet_their_deadline() {
    let handler = |_req: &Request| Response::json(200, "{}");
    let cfg = ServeConfig {
        deadline_ms: 5_000,
        ..config()
    };
    with_server(cfg, handler, |addr| {
        for _ in 0..5 {
            assert_eq!(client::get(addr, "/fast").unwrap().status, 200);
        }
    });
}

#[test]
fn full_queue_sheds_with_503_and_retry_after() {
    // One worker wedged ~300 ms per request and a queue of depth 1: with
    // many concurrent clients, at most 1 (in flight) + 1 (queued) can be
    // admitted per service period — the rest must shed immediately.
    let handler = |_req: &Request| {
        std::thread::sleep(Duration::from_millis(300));
        Response::json(200, "{}")
    };
    let cfg = ServeConfig {
        workers: 1,
        queue_depth: 1,
        ..config()
    };
    let shed = AtomicU64::new(0);
    let ok = AtomicU64::new(0);
    with_server(cfg, handler, |addr| {
        std::thread::scope(|scope| {
            for _ in 0..6 {
                scope.spawn(|| {
                    let r = client::get(addr, "/q").unwrap();
                    match r.status {
                        200 => ok.fetch_add(1, Ordering::Relaxed),
                        503 => {
                            assert_eq!(r.header("retry-after"), Some("1"));
                            shed.fetch_add(1, Ordering::Relaxed)
                        }
                        other => panic!("unexpected status {other}"),
                    };
                });
            }
        });
    });
    assert!(
        shed.load(Ordering::Relaxed) >= 1,
        "expected at least one 503, got ok={} shed={}",
        ok.load(Ordering::Relaxed),
        shed.load(Ordering::Relaxed)
    );
    assert!(
        ok.load(Ordering::Relaxed) >= 1,
        "admitted requests must still succeed"
    );
}

#[test]
fn shutdown_drains_queued_requests() {
    // A slow single worker plus an immediate shutdown: the queued request
    // must still be answered (drain), not dropped.
    let handler = |_req: &Request| {
        std::thread::sleep(Duration::from_millis(100));
        Response::json(200, "{\"drained\":true}")
    };
    let cfg = ServeConfig {
        workers: 1,
        queue_depth: 8,
        ..config()
    };
    let server = Server::bind(&cfg).unwrap();
    let addr = server.local_addr();
    let handle = server.handle();
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(&handler));
        let a = scope.spawn(move || client::get(addr, "/a").unwrap());
        let b = scope.spawn(move || client::get(addr, "/b").unwrap());
        // Give both connections time to be accepted, then stop the server
        // while at least one of them is still queued or in flight.
        std::thread::sleep(Duration::from_millis(50));
        handle.shutdown();
        assert_eq!(a.join().unwrap().status, 200);
        assert_eq!(b.join().unwrap().status, 200);
        serving.join().unwrap().unwrap();
    });
}

#[test]
fn malformed_requests_get_400() {
    use std::io::{Read, Write};
    let handler = |_req: &Request| Response::json(200, "{}");
    with_server(config(), handler, |addr| {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream.write_all(b"GARBAGE\r\n\r\n").unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 400 "), "{text:?}");
    });
}

#[test]
fn trickling_client_is_cut_off_at_the_whole_request_budget() {
    // One byte every 100 ms never trips a per-read timeout, so only a
    // budget for the whole request lets the worker go. The request would
    // take ~4 s to arrive; the worker must give up within about twice the
    // 300 ms deadline.
    use std::io::{Read, Write};
    let handler = |_req: &Request| Response::json(200, "{}");
    let cfg = ServeConfig {
        workers: 1,
        deadline_ms: 300,
        ..config()
    };
    with_server(cfg, handler, |addr| {
        let request = b"GET /trickle HTTP/1.1\r\nHost: slow-client\r\n\r\n";
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        let mut reader = stream.try_clone().unwrap();
        let start = Instant::now();
        let closed = std::thread::scope(|scope| {
            let waiter = scope.spawn(move || {
                // Returns when the server closes its side.
                let mut rest = Vec::new();
                let _ = reader.read_to_end(&mut rest);
                start.elapsed()
            });
            for &byte in request.iter() {
                if waiter.is_finished() || stream.write_all(&[byte]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
            let _ = stream.shutdown(std::net::Shutdown::Write);
            waiter.join().unwrap()
        });
        assert!(
            closed < Duration::from_millis(700),
            "a trickling client held the worker for {closed:?}"
        );
    });
}
