//! End-to-end tracing tests: trace IDs on the wire, stage decomposition
//! via `/traces/recent`, slow-query capture, and `/metrics` content
//! negotiation — the real app over real sockets.

use hetesim_core::HeteSimEngine;
use hetesim_data::acm;
use hetesim_graph::Hin;
use hetesim_serve::{client, App, Json, Request, Response, ServeConfig, Server, ShutdownHandle};

/// Stops the server even when the test body panics, so the joining scope
/// cannot deadlock on assertion failures.
struct StopOnDrop(ShutdownHandle);

impl Drop for StopOnDrop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

fn network() -> (Hin, String) {
    let data = acm::generate(&acm::AcmConfig::tiny(7));
    (data.hin, data.star_concentrated)
}

fn config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 32,
        deadline_ms: 30_000,
        ..ServeConfig::default()
    }
}

/// Boots the app on an ephemeral port with `config`, runs `body`, shuts
/// down cleanly.
fn with_app<F>(config: &ServeConfig, hin: &Hin, engine: HeteSimEngine<'_>, body: F)
where
    F: FnOnce(std::net::SocketAddr),
{
    let app = App::new(hin, engine);
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(&app));
        let stop = StopOnDrop(handle);
        body(addr);
        drop(stop);
        serving.join().unwrap().unwrap();
    });
}

/// Boots a raw server with a closure handler (no engine), for tests that
/// need a handler with controlled latency.
fn with_handler<H, F>(config: &ServeConfig, handler: H, body: F)
where
    H: Fn(&Request) -> Response + Sync,
    F: FnOnce(std::net::SocketAddr),
{
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(&handler));
        let stop = StopOnDrop(handle);
        body(addr);
        drop(stop);
        serving.join().unwrap().unwrap();
    });
}

/// Sums `duration_ns` over every event named `name` in a trace object.
fn stage_ns(trace: &Json, name: &str) -> u64 {
    trace
        .get("events")
        .and_then(Json::as_array)
        .map(|events| {
            events
                .iter()
                .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
                .filter_map(|e| e.get("duration_ns").and_then(Json::as_u64))
                .sum()
        })
        .unwrap_or(0)
}

#[test]
fn every_response_carries_a_trace_id_even_unsampled() {
    let (hin, _) = network();
    // No head sampling, no slow threshold: nothing is captured, but the
    // trace ID header is still minted per connection.
    with_app(&config(), &hin, HeteSimEngine::new(&hin), |addr| {
        let r = client::get(addr, "/healthz").unwrap();
        let id = r.header("x-trace-id").expect("x-trace-id header");
        assert_eq!(id.len(), 16, "trace id is 16 hex chars: {id:?}");
        assert!(id.chars().all(|c| c.is_ascii_hexdigit()));

        let traces = client::get(addr, "/traces/recent").unwrap();
        assert_eq!(traces.status, 200);
        let parsed = Json::parse(&traces.body).unwrap();
        assert_eq!(parsed.as_array().map(|a| a.len()), Some(0));
    });
}

#[test]
fn sampled_query_decomposes_into_engine_stages() {
    let (hin, star) = network();
    hetesim_obs::enable();
    let cfg = ServeConfig {
        trace_sample: 1,
        ..config()
    };
    with_app(&cfg, &hin, HeteSimEngine::new(&hin), |addr| {
        // Cold queries: the engine builds half-products from scratch, so
        // engine stages dominate the handler span. The dominance ratio is
        // scheduling-sensitive on loaded machines (a preemption inside the
        // handler inflates it), so try several distinct cold paths and
        // require one clean measurement; the structural assertions hold on
        // every attempt.
        let mut share_ok = false;
        let mut shares = Vec::new();
        for path in ["APVC", "APVCVPA", "APV"] {
            let body = format!("{{\"path\":\"{path}\",\"source\":\"{star}\",\"k\":5}}");
            let r = client::post_json(addr, "/query", &body).unwrap();
            assert_eq!(r.status, 200, "{}", r.body);
            let id = r
                .header("x-trace-id")
                .expect("x-trace-id header")
                .to_string();

            let traces = client::get(addr, "/traces/recent").unwrap();
            let parsed = Json::parse(&traces.body).unwrap();
            let trace = parsed
                .as_array()
                .unwrap()
                .iter()
                .find(|t| t.get("trace_id").and_then(Json::as_str) == Some(&id))
                .unwrap_or_else(|| panic!("trace {id} not in ring: {}", traces.body))
                .clone();

            // The request annotated itself with its query parameters.
            let annotations = trace.get("annotations").expect("annotations");
            assert_eq!(annotations.get("k").and_then(Json::as_str), Some("5"));
            assert!(annotations.get("path").is_some());
            assert!(annotations.get("source").is_some());

            // Stage decomposition: named engine stages nest under the
            // handler span.
            let handle = stage_ns(&trace, "serve.server.handle");
            assert!(handle > 0, "handler span missing: {}", traces.body);
            let engine: u64 = [
                "core.engine.normalize",
                "core.engine.chain",
                "core.engine.cosine",
                "core.engine.topk",
            ]
            .iter()
            .map(|s| stage_ns(&trace, s))
            .sum();
            assert!(engine > 0, "engine stages missing: {}", traces.body);
            assert!(
                engine <= handle,
                "engine stages ({engine} ns) exceed handler span ({handle} ns)"
            );
            // The trace itself spans accept→write, so it bounds the handler.
            let total = trace.get("duration_ns").and_then(Json::as_u64).unwrap();
            assert!(total >= handle);
            // A cold query misses the path cache, and the event says so.
            assert!(
                trace
                    .get("events")
                    .and_then(Json::as_array)
                    .unwrap()
                    .iter()
                    .any(|e| e.get("name").and_then(Json::as_str) == Some("core.cache.miss")),
                "cache miss marker missing: {}",
                traces.body
            );
            // Cold build work dominates: at least half the handler span.
            // (CI asserts the >=90% bound on the larger DBLP fixture.)
            shares.push(engine as f64 / handle as f64);
            if engine * 2 >= handle {
                share_ok = true;
                break;
            }
        }
        assert!(
            share_ok,
            "engine stages never reached 50% of the handler span: {shares:?}"
        );
    });
}

#[test]
fn a_trace_is_in_the_ring_once_its_response_has_arrived() {
    // Two workers, so `/traces/recent` can be answered while the worker
    // that served the query is still finishing up: the query's trace must
    // already be recorded by the time its client sees end of response.
    let (hin, star) = network();
    hetesim_obs::enable();
    let cfg = ServeConfig {
        trace_sample: 1,
        ..config()
    };
    let body = format!("{{\"path\":\"APVC\",\"source\":\"{star}\",\"k\":3}}");
    with_app(&cfg, &hin, HeteSimEngine::new(&hin), |addr| {
        for i in 0..200 {
            let r = client::post_json(addr, "/query", &body).unwrap();
            assert_eq!(r.status, 200, "{}", r.body);
            let id = r.header("x-trace-id").expect("x-trace-id header");
            let traces = client::get(addr, "/traces/recent?n=8").unwrap();
            let parsed = Json::parse(&traces.body).unwrap();
            assert!(
                parsed
                    .as_array()
                    .unwrap()
                    .iter()
                    .any(|t| t.get("trace_id").and_then(Json::as_str) == Some(id)),
                "iteration {i}: trace {id} not in ring: {}",
                traces.body
            );
        }
    });
}

#[test]
fn slow_requests_are_captured_even_when_head_sampling_drops_them() {
    hetesim_obs::enable();
    let dir = std::env::temp_dir().join(format!("hetesim-slowtrace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out_path = dir.join("traces.jsonl");
    let cfg = ServeConfig {
        // Head sampling off: only the slow path can capture anything.
        trace_sample: 0,
        slow_ms: 10,
        trace_out: Some(out_path.display().to_string()),
        ..config()
    };
    let handler = |req: &Request| {
        if req.path() == "/slow" {
            std::thread::sleep(std::time::Duration::from_millis(40));
        }
        Response::json(200, "{\"ok\":true}")
    };
    with_handler(&cfg, handler, |addr| {
        // Fast request: under the threshold, dropped.
        let fast = client::get(addr, "/fast").unwrap();
        assert!(fast.header("x-trace-id").is_some());
        // Slow request: over the threshold, kept despite sampling being off.
        let slow = client::get(addr, "/slow").unwrap();
        let slow_id = slow.header("x-trace-id").unwrap().to_string();

        let traces = client::get(addr, "/traces/recent").unwrap();
        let parsed = Json::parse(&traces.body).unwrap();
        let kept: Vec<String> = parsed
            .as_array()
            .unwrap()
            .iter()
            .filter_map(|t| t.get("trace_id").and_then(Json::as_str).map(String::from))
            .collect();
        assert_eq!(kept, vec![slow_id], "only the slow trace is kept");
    });
    // The trace file holds exactly the slow request: its identity and
    // verdict as annotations, its stage breakdown as events.
    let out = std::fs::read_to_string(&out_path).unwrap();
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 1, "expected one kept trace: {out:?}");
    let entry = Json::parse(lines[0]).unwrap();
    assert_eq!(
        entry.get("head_sampled"),
        Some(&Json::Bool(false)),
        "slow capture must not be attributed to head sampling"
    );
    assert!(entry.get("duration_ns").and_then(Json::as_u64).unwrap() >= 10_000_000);
    let annotation = |key: &str| {
        entry
            .get("annotations")
            .and_then(|a| a.get(key))
            .and_then(Json::as_str)
    };
    assert_eq!(annotation("method"), Some("GET"));
    assert_eq!(annotation("target"), Some("/slow"));
    assert_eq!(annotation("status"), Some("200"));
    assert_eq!(annotation("verdict"), Some("ok"));
    let handle_ns: u64 = entry
        .get("events")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("serve.server.handle"))
        .filter_map(|e| e.get("duration_ns").and_then(Json::as_u64))
        .sum();
    assert!(handle_ns >= 1_000, "handle stage missing: {out}");
    assert!(
        hetesim_obs::snapshot()
            .counter("serve.server.slow_queries")
            .unwrap_or(0)
            >= 1
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn handler_errors_carry_the_error_verdict() {
    hetesim_obs::enable();
    let cfg = ServeConfig {
        trace_sample: 1,
        ..config()
    };
    let handler = |req: &Request| match req.path() {
        "/missing" => Response::error(404, "no such thing"),
        "/broken" => Response::error(500, "handler failed"),
        _ => Response::json(200, "{\"ok\":true}"),
    };
    with_handler(&cfg, handler, |addr| {
        let mut want = Vec::new();
        for (target, status, verdict) in [
            ("/fine", 200, "ok"),
            ("/missing", 404, "error"),
            ("/broken", 500, "error"),
        ] {
            let r = client::get(addr, target).unwrap();
            assert_eq!(r.status, status);
            let id = r.header("x-trace-id").unwrap().to_string();
            want.push((id, status.to_string(), verdict));
        }
        let traces = client::get(addr, "/traces/recent").unwrap();
        let parsed = Json::parse(&traces.body).unwrap();
        for (id, status, verdict) in want {
            let trace = parsed
                .as_array()
                .unwrap()
                .iter()
                .find(|t| t.get("trace_id").and_then(Json::as_str) == Some(id.as_str()))
                .unwrap_or_else(|| panic!("trace {id} not kept: {}", traces.body));
            let annotation = |key: &str| {
                trace
                    .get("annotations")
                    .and_then(|a| a.get(key))
                    .and_then(Json::as_str)
            };
            assert_eq!(annotation("status"), Some(status.as_str()));
            assert_eq!(annotation("verdict"), Some(verdict), "trace {id}");
        }
    });
}

#[test]
fn trace_ring_serves_newest_first_capped_by_query_param() {
    let (hin, _) = network();
    hetesim_obs::enable();
    let cfg = ServeConfig {
        trace_sample: 1,
        trace_ring: 4,
        ..config()
    };
    with_app(&cfg, &hin, HeteSimEngine::new(&hin), |addr| {
        let mut ids = Vec::new();
        for _ in 0..6 {
            let r = client::get(addr, "/healthz").unwrap();
            ids.push(r.header("x-trace-id").unwrap().to_string());
        }
        let traces = client::get(addr, "/traces/recent?n=2").unwrap();
        let parsed = Json::parse(&traces.body).unwrap();
        let got = parsed.as_array().unwrap();
        assert!(got.len() <= 2, "n=2 cap ignored: {} traces", got.len());
        // The bounded ring evicted the oldest entries (the `/traces/recent`
        // requests themselves are traced too, pushing out even more).
        let all = client::get(addr, "/traces/recent").unwrap();
        let all = Json::parse(&all.body).unwrap();
        let kept: Vec<&str> = all
            .as_array()
            .unwrap()
            .iter()
            .filter_map(|t| t.get("trace_id").and_then(Json::as_str))
            .collect();
        assert!(kept.len() <= 4, "ring of 4 held {} traces", kept.len());
        assert!(
            !kept.contains(&ids[0].as_str()) && !kept.contains(&ids[1].as_str()),
            "oldest traces not evicted: {kept:?} vs {ids:?}"
        );
    });
}

#[test]
fn metrics_negotiates_prometheus_and_json() {
    let (hin, _) = network();
    hetesim_obs::enable();
    with_app(&config(), &hin, HeteSimEngine::new(&hin), |addr| {
        let prom = client::get(addr, "/metrics").unwrap();
        assert_eq!(prom.status, 200);
        assert_eq!(
            prom.header("content-type"),
            Some("text/plain; version=0.0.4")
        );
        assert!(prom.body.contains("# TYPE"), "{}", prom.body);
        assert!(
            prom.body.contains("core_cache_resident_bytes"),
            "{}",
            prom.body
        );

        let json = client::get(addr, "/metrics?format=json").unwrap();
        assert_eq!(json.status, 200);
        assert_eq!(json.header("content-type"), Some("application/json"));
        let v = Json::parse(&json.body).expect("JSON body");
        assert!(v.get("counters").is_some());
    });
}
