//! End-to-end tests: the real app on a synthetic ACM network, served over
//! real sockets, answers exactly what the offline engine answers.

use hetesim_core::HeteSimEngine;
use hetesim_data::acm;
use hetesim_graph::{Hin, MetaPath};
use hetesim_serve::{client, App, Json, ServeConfig, Server, ShutdownHandle};

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
        workers: 3,
        queue_depth: 32,
        deadline_ms: 30_000,
        ..ServeConfig::default()
    }
}

/// Boots the app on an ephemeral port, runs `body`, shuts down cleanly.
fn with_app<F>(hin: &Hin, engine: HeteSimEngine<'_>, body: F)
where
    F: FnOnce(std::net::SocketAddr, &App<'_>),
{
    let server = Server::bind(&config()).expect("bind");
    let app = App::new(hin, engine).with_workers(server.workers());
    let addr = server.local_addr();
    let handle = server.handle();
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(&app));
        let stop = StopOnDrop(handle);
        body(addr, &app);
        drop(stop);
        serving.join().unwrap().unwrap();
    });
}

#[test]
fn healthz_reports_ok() {
    let (hin, _) = network();
    let engine = HeteSimEngine::new(&hin).with_cache_budget(1 << 20);
    with_app(&hin, engine, |addr, _| {
        let r = client::get(addr, "/healthz").unwrap();
        assert_eq!(r.status, 200);
        let v = Json::parse(&r.body).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
        assert!(v.get("nodes").unwrap().as_u64().unwrap() > 0);
        assert_eq!(
            v.get("version").unwrap().as_str(),
            Some(env!("CARGO_PKG_VERSION"))
        );
        assert!(v.get("uptime_seconds").unwrap().as_u64().is_some());
        assert_eq!(v.get("workers").unwrap().as_u64(), Some(3));
        let cache = v.get("cache").unwrap();
        assert!(cache.get("entries").unwrap().as_u64().is_some());
        assert!(cache.get("resident_bytes").unwrap().as_u64().is_some());
        assert_eq!(cache.get("budget_bytes").unwrap().as_u64(), Some(1 << 20));
        // No snapshot provenance when TSV-loaded.
        assert_eq!(v.get("snapshot_loaded").unwrap().as_bool(), Some(false));
        assert!(v.get("snapshot_path").is_none());
    });
}

#[test]
fn healthz_reports_snapshot_provenance() {
    let (hin, _) = network();
    let engine = HeteSimEngine::new(&hin);
    let server = Server::bind(&config()).expect("bind");
    let app = App::new(&hin, engine)
        .with_workers(server.workers())
        .with_snapshot("/data/net.snap", 1);
    let addr = server.local_addr();
    let handle = server.handle();
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(&app));
        let stop = StopOnDrop(handle);
        let r = client::get(addr, "/healthz").unwrap();
        assert_eq!(r.status, 200);
        let v = Json::parse(&r.body).unwrap();
        assert_eq!(v.get("snapshot_loaded").unwrap().as_bool(), Some(true));
        assert_eq!(
            v.get("snapshot_path").unwrap().as_str(),
            Some("/data/net.snap")
        );
        assert_eq!(v.get("snapshot_version").unwrap().as_u64(), Some(1));
        drop(stop);
        serving.join().unwrap().unwrap();
    });
}

#[test]
fn profile_endpoint_serves_folded_and_svg() {
    let (hin, star) = network();
    hetesim_obs::enable();
    with_app(&hin, HeteSimEngine::new(&hin), |addr, _| {
        // Generate some span activity first.
        let body = format!("{{\"path\":\"APA\",\"source\":\"{star}\",\"k\":3}}");
        assert_eq!(
            client::post_json(addr, "/query", &body).unwrap().status,
            200
        );

        let folded = client::get(addr, "/profile").unwrap();
        assert_eq!(folded.status, 200);
        // Every line is `stack <self_us>` with ';'-separated frames.
        let mut saw_engine = false;
        for line in folded.body.lines() {
            let (stack, value) = line.rsplit_once(' ').unwrap();
            assert!(!stack.is_empty());
            value.parse::<u64>().unwrap();
            saw_engine |= stack.contains("core.engine");
        }
        assert!(saw_engine, "expected engine frames in:\n{}", folded.body);

        let svg = client::get(addr, "/profile?format=svg").unwrap();
        assert_eq!(svg.status, 200);
        assert!(
            svg.body.starts_with("<svg"),
            "{}",
            &svg.body[..60.min(svg.body.len())]
        );

        assert_eq!(
            client::get(addr, "/profile?format=png").unwrap().status,
            400
        );
        // No query parameter may hold a worker: `seconds` is ignored.
        let started = std::time::Instant::now();
        let ignored = client::get(addr, "/profile?seconds=1").unwrap();
        assert_eq!(ignored.status, 200);
        assert!(
            started.elapsed() < std::time::Duration::from_millis(500),
            "/profile?seconds=1 took {:?}",
            started.elapsed()
        );
    });
}

#[test]
fn concurrent_queries_match_offline_top_k() {
    let (hin, star) = network();
    // Offline reference on its own engine.
    let reference = HeteSimEngine::new(&hin);
    let apvc = MetaPath::parse(hin.schema(), "APVC").unwrap();
    let source = hin.node_id(apvc.source_type(), &star).unwrap();
    let want = reference.top_k(&apvc, source, 5).unwrap();

    with_app(&hin, HeteSimEngine::new(&hin), |addr, _| {
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let star = star.clone();
                let want = want.clone();
                let hin = &hin;
                let apvc = &apvc;
                scope.spawn(move || {
                    let body = format!("{{\"path\":\"APVC\",\"source\":\"{star}\",\"k\":5}}");
                    let r = client::post_json(addr, "/query", &body).unwrap();
                    assert_eq!(r.status, 200, "{}", r.body);
                    let v = Json::parse(&r.body).unwrap();
                    let results = v.get("results").unwrap().as_array().unwrap();
                    assert_eq!(results.len(), want.len());
                    for (got, exp) in results.iter().zip(&want) {
                        assert_eq!(got.get("id").unwrap().as_u64().unwrap(), exp.index as u64);
                        let score = got.get("score").unwrap().as_f64().unwrap();
                        assert_eq!(
                            score, exp.score,
                            "served score must be bit-identical to engine.top_k"
                        );
                        let name = got.get("name").unwrap().as_str().unwrap();
                        assert_eq!(name, hin.node_name(apvc.target_type(), exp.index));
                    }
                });
            }
        });
    });
}

#[test]
fn huge_k_is_answered_and_server_stays_up() {
    let (hin, star) = network();
    let reference = HeteSimEngine::new(&hin);
    let apvc = MetaPath::parse(hin.schema(), "APVC").unwrap();
    let source = hin.node_id(apvc.source_type(), &star).unwrap();
    let want = reference.top_k(&apvc, source, usize::MAX).unwrap();

    with_app(&hin, HeteSimEngine::new(&hin), |addr, _| {
        let body = format!("{{\"path\":\"APVC\",\"source\":\"{star}\",\"k\":100000000000}}");
        let r = client::post_json(addr, "/query", &body).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        let v = Json::parse(&r.body).unwrap();
        let results = v.get("results").unwrap().as_array().unwrap();
        assert_eq!(results.len(), want.len());
        let r = client::get(addr, "/healthz").unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
    });
}

#[test]
fn pair_matches_offline_engine_and_ids_work() {
    let (hin, star) = network();
    let reference = HeteSimEngine::new(&hin);
    let apa = MetaPath::parse(hin.schema(), "APA").unwrap();
    let a = hin.node_id(apa.source_type(), &star).unwrap();
    let want = reference.pair(&apa, a, a).unwrap();
    let want_raw = reference.pair_unnormalized(&apa, a, a).unwrap();

    with_app(&hin, HeteSimEngine::new(&hin), |addr, _| {
        // By name.
        let body = format!("{{\"path\":\"APA\",\"source\":\"{star}\",\"target\":\"{star}\"}}");
        let r = client::post_json(addr, "/pair", &body).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        let v = Json::parse(&r.body).unwrap();
        assert_eq!(v.get("score").unwrap().as_f64(), Some(want));
        assert_eq!(v.get("unnormalized").unwrap().as_f64(), Some(want_raw));
        // By numeric id.
        let body = format!("{{\"path\":\"APA\",\"source\":{a},\"target\":{a}}}");
        let v = Json::parse(&client::post_json(addr, "/pair", &body).unwrap().body).unwrap();
        assert_eq!(v.get("score").unwrap().as_f64(), Some(want));
    });
}

#[test]
fn warmup_then_metrics_shows_cached_paths() {
    let (hin, _) = network();
    hetesim_obs::enable();
    with_app(&hin, HeteSimEngine::new(&hin), |addr, app| {
        let r =
            client::post_json(addr, "/warmup", "{\"paths\":[\"APA\",\"APVC\",\"nope!\"]}").unwrap();
        assert_eq!(r.status, 200);
        let v = Json::parse(&r.body).unwrap();
        let warmed = v.get("warmed").unwrap().as_array().unwrap();
        assert_eq!(warmed.len(), 3);
        assert_eq!(warmed[0].get("ok"), Some(&Json::Bool(true)));
        assert_eq!(warmed[1].get("ok"), Some(&Json::Bool(true)));
        assert_eq!(warmed[2].get("ok"), Some(&Json::Bool(false)));
        assert!(warmed[2].get("error").is_some());
        assert_eq!(app.engine().cache_stats().entries, 2);

        let m = client::get(addr, "/metrics?format=json").unwrap();
        assert_eq!(m.status, 200);
        let snap = Json::parse(&m.body).unwrap();
        let counters = snap.get("counters").unwrap();
        let resident = counters
            .get("core.cache.resident_bytes")
            .and_then(Json::as_u64)
            .unwrap();
        assert!(resident > 0, "resident bytes gauge missing: {}", m.body);
        assert!(
            counters
                .get("serve.server.requests")
                .and_then(Json::as_u64)
                .unwrap()
                >= 2
        );
    });
}

#[test]
fn cache_budget_holds_under_multi_path_workload() {
    let (hin, star) = network();
    hetesim_obs::enable();
    let paths = ["APA", "APV", "APVC", "APVCVPA", "AP"];
    // First measure the unbounded residency of the full workload …
    let unbounded = HeteSimEngine::new(&hin);
    for p in paths {
        let path = MetaPath::parse(hin.schema(), p).unwrap();
        unbounded.warm(&path).unwrap();
    }
    let full = unbounded.cache_stats().bytes;
    // … then serve the same workload on roughly half that budget.
    let budget = full / 2;
    let engine = HeteSimEngine::new(&hin).with_cache_budget(budget);
    with_app(&hin, engine, |addr, app| {
        for round in 0..3 {
            for p in paths {
                let body = format!("{{\"path\":\"{p}\",\"source\":\"{star}\",\"k\":3}}");
                let r = client::post_json(addr, "/query", &body).unwrap();
                assert_eq!(r.status, 200, "round {round} path {p}: {}", r.body);
                let resident = app.engine().cache_stats().bytes;
                assert!(
                    resident <= budget,
                    "round {round} path {p}: resident {resident} > budget {budget}"
                );
            }
        }
        // The budget forced real evictions, and /metrics shows residency.
        let m = client::get(addr, "/metrics?format=json").unwrap();
        let snap = Json::parse(&m.body).unwrap();
        let counters = snap.get("counters").unwrap();
        assert!(
            counters
                .get("core.cache.evictions")
                .and_then(Json::as_u64)
                .unwrap()
                > 0,
            "expected evictions under budget pressure: {}",
            m.body
        );
        let resident = counters
            .get("core.cache.resident_bytes")
            .and_then(Json::as_u64)
            .unwrap();
        assert!(resident <= budget);
    });
}

#[test]
fn api_errors_are_client_friendly() {
    let (hin, star) = network();
    with_app(&hin, HeteSimEngine::new(&hin), |addr, _| {
        // Unknown endpoint.
        assert_eq!(client::get(addr, "/nope").unwrap().status, 404);
        // Wrong method on a known endpoint.
        assert_eq!(client::get(addr, "/query").unwrap().status, 405);
        // Bad JSON.
        assert_eq!(
            client::post_json(addr, "/query", "{oops").unwrap().status,
            400
        );
        // Unknown path spec.
        let r = client::post_json(addr, "/query", "{\"path\":\"XYZ\",\"source\":\"a\"}").unwrap();
        assert_eq!(r.status, 400);
        assert!(Json::parse(&r.body).unwrap().get("error").is_some());
        // Unknown source name.
        let r = client::post_json(
            addr,
            "/query",
            "{\"path\":\"APVC\",\"source\":\"no such author\"}",
        )
        .unwrap();
        assert_eq!(r.status, 400);
        // Out-of-range source id.
        let r = client::post_json(
            addr,
            "/pair",
            &format!("{{\"path\":\"APA\",\"source\":999999,\"target\":\"{star}\"}}"),
        )
        .unwrap();
        assert_eq!(r.status, 400);
    });
}
