//! End-to-end HTTP smoke test: boot the server on an ephemeral port,
//! drive it with the blocking client, and verify the answers
//! *client-side* from the wire payload alone (rebuild the solution maps
//! from the returned compensator coefficients and check the closed-loop
//! characteristic polynomial at the prescribed poles).
//!
//! CI runs this file as the workflow's smoke job under both
//! `PIERI_NUM_THREADS` configurations.

use minijson::Value;
use pieri_core::PMap;
use pieri_num::seeded_rng;
use pieri_service::{wire, Client, Engine, EngineConfig, JobRequest, Server};
use std::sync::Arc;

fn boot() -> (Server, Client) {
    let engine = Arc::new(Engine::start(EngineConfig {
        workers: 2,
        queue_capacity: 16,
        ..EngineConfig::default()
    }));
    let server = Server::start("127.0.0.1:0", engine).expect("bind ephemeral port");
    let client = Client::new(server.addr()).expect("client");
    (server, client)
}

#[test]
fn place_satellite_poles_over_http() {
    let (server, client) = boot();
    assert!(client.health(), "healthz answers");

    let sat = pieri_control::satellite_plant(1.0);
    let mut rng = seeded_rng(31);
    let poles = pieri_control::conjugate_pole_set(5, &mut rng);
    let req = JobRequest::PlacePoles {
        a: sat.a.clone(),
        b: sat.b.clone(),
        c: sat.c.clone(),
        q: 1,
        poles: poles.clone(),
        seed: 2026,
        certify: false,
    };

    let cold = client.solve(&req).expect("cold request");
    assert_eq!(cold.expected, 8, "d(2,2,1) = 8");
    assert_eq!(cold.solutions, 8);
    assert!(!cold.cache_hit);
    assert!(
        cold.max_residual < 1e-6,
        "server-side residual {:.2e}",
        cold.max_residual
    );

    // Client-side verification from wire data only: X(s) = [U(s); V(s)].
    for comp in &cold.compensators {
        let coeffs: Vec<_> = comp
            .u_coeffs
            .iter()
            .zip(&comp.v_coeffs)
            .map(|(u, v)| u.vstack(v))
            .collect();
        let map = PMap::from_coeff_matrices(coeffs);
        let (_, residual) = pieri_control::verify_closed_loop_ss(&sat, &map, &poles);
        assert!(residual < 1e-6, "client-side residual {residual:.2e}");
    }

    // Warm repeat: cache hit, bitwise-identical compensators.
    let warm = client.solve(&req).expect("warm request");
    assert!(warm.cache_hit, "second identical request is a cache hit");
    assert_eq!(warm.coeffs, cold.coeffs, "bitwise identical over the wire");

    // Stats reflect the traffic.
    let (status, stats) = client.get("/v1/stats").expect("stats");
    assert_eq!(status, 200);
    let cache = stats.get("cache").expect("cache block");
    assert_eq!(cache.get("misses").and_then(Value::as_usize), Some(1));
    assert!(cache.get("hits").and_then(Value::as_usize).unwrap_or(0) >= 1);

    server.engine().shutdown();
    server.shutdown();
}

#[test]
fn batch_endpoint_mixes_jobs_and_errors() {
    let (server, client) = boot();
    let jobs = Value::Array(vec![
        wire::request_to_json(&JobRequest::SolvePieri {
            m: 2,
            p: 2,
            q: 0,
            seed: 7,
            certify: false,
        }),
        // Oversized job: must fail in its slot without sinking the batch.
        wire::request_to_json(&JobRequest::SolvePieri {
            m: 4,
            p: 4,
            q: 2,
            seed: 7,
            certify: false,
        }),
        wire::request_to_json(&JobRequest::SolvePieri {
            m: 2,
            p: 2,
            q: 0,
            seed: 8,
            certify: false,
        }),
    ]);
    let body = minijson::object([("jobs", jobs)]);
    let (status, response) = client.post("/v1/batch", &body).expect("batch");
    assert_eq!(status, 200);
    let results = response.get("results").and_then(Value::as_array).unwrap();
    assert_eq!(results.len(), 3);
    let first = wire::result_from_json(&results[0]).expect("first is a result");
    assert_eq!(first.solutions, 2);
    let second = wire::error_from_json(&results[1]).expect("second is an error");
    assert_eq!(second.kind(), "too_large");
    let third = wire::result_from_json(&results[2]).expect("third is a result");
    assert_eq!(third.solutions, 2);
    // Both (2,2,0) jobs enter the engine together; whichever worker
    // reaches the shape cache first builds, the other shares its bundle.
    assert_ne!(
        first.cache_hit, third.cache_hit,
        "batch shares the shape bundle: exactly one job built it"
    );

    server.engine().shutdown();
    server.shutdown();
}

#[test]
fn certified_satellite_placement_over_http() {
    let (server, client) = boot();
    let sat = pieri_control::satellite_plant(1.0);
    let mut rng = seeded_rng(32);
    let poles = pieri_control::conjugate_pole_set(5, &mut rng);
    let req = JobRequest::PlacePoles {
        a: sat.a.clone(),
        b: sat.b.clone(),
        c: sat.c.clone(),
        q: 1,
        poles: poles.clone(),
        seed: 2027,
        certify: true,
    };

    let res = client.solve(&req).expect("certified request");
    assert_eq!(res.solutions, 8, "d(2,2,1) = 8");
    assert_eq!(res.certificates.len(), 8, "one certificate per solution");
    for (i, cert) in res.certificates.iter().enumerate() {
        assert!(cert.is_certified(), "solution {i}: {cert:?}");
        assert!(cert.refined, "solution {i} must be double-double refined");
        assert!(
            cert.residual() <= 1e-13,
            "solution {i} refined residual {:e}",
            cert.residual()
        );
        let pr = cert.pole_residual.expect("pole residual present");
        assert!(pr < 1e-6, "solution {i} pole residual {pr:.2e}");
    }

    // The stats counters saw the certified traffic.
    let (status, stats) = client.get("/v1/stats").expect("stats");
    assert_eq!(status, 200);
    let certify = stats.get("certify").expect("certify block");
    assert_eq!(
        certify.get("certified").and_then(Value::as_usize),
        Some(8),
        "{}",
        stats.serialize()
    );
    assert_eq!(certify.get("refined").and_then(Value::as_usize), Some(8));
    assert_eq!(certify.get("failed").and_then(Value::as_usize), Some(0));

    server.engine().shutdown();
    server.shutdown();
}

#[test]
fn near_singular_certified_job_fails_structurally_never_panics() {
    // A repeated prescribed pole duplicates an interpolation condition:
    // at t = 1 two rows of the target system coincide, so the Jacobian
    // is singular AT the endpoints — the classic near-singular path.
    // With certify: true the job must exercise the bounded re-track
    // policy and come back as a structured `uncertified` wire error (or,
    // at worst, solutions stripped of `Certified` verdicts) — never a
    // panic, and the server must survive.
    let (server, client) = boot();
    let sat = pieri_control::satellite_plant(1.0);
    let mut rng = seeded_rng(33);
    let mut poles = pieri_control::conjugate_pole_set(5, &mut rng);
    poles[1] = poles[0];

    let req = JobRequest::PlacePoles {
        a: sat.a.clone(),
        b: sat.b.clone(),
        c: sat.c.clone(),
        q: 1,
        poles,
        seed: 2028,
        certify: true,
    };
    let job_failed = match client.solve(&req) {
        Err(e) => {
            assert_eq!(e.kind(), "uncertified", "{e}");
            true
        }
        Ok(res) => {
            // If tracking happened to limp through, certification must
            // have flagged every surviving endpoint as not certified.
            assert!(
                res.certificates.iter().all(|c| !c.is_certified()),
                "near-singular endpoints must not certify: {:?}",
                res.certificates
            );
            false
        }
    };

    // When paths actually failed, the bounded retries must have run
    // (failed-after-retrack implies retrack attempts — the policy is
    // enabled for certified jobs); the counter is numerics-dependent in
    // the limp-through case, so it is only asserted on the Err branch.
    let (_, stats) = client.get("/v1/stats").expect("stats");
    let retracked = stats
        .get("certify")
        .and_then(|c| c.get("retracked"))
        .and_then(Value::as_usize)
        .unwrap_or(0);
    if job_failed {
        assert!(retracked > 0, "{}", stats.serialize());
    }
    assert!(client.health(), "server survived the near-singular job");

    // And the engine still answers an ordinary certified job cleanly.
    let mut rng = seeded_rng(34);
    let good = JobRequest::PlacePoles {
        a: sat.a.clone(),
        b: sat.b.clone(),
        c: sat.c.clone(),
        q: 1,
        poles: pieri_control::conjugate_pole_set(5, &mut rng),
        seed: 2029,
        certify: true,
    };
    let res = client.solve(&good).expect("healthy certified request");
    assert!(res.certificates.iter().all(|c| c.is_certified()));

    server.engine().shutdown();
    server.shutdown();
}

#[test]
fn keep_alive_reuses_one_connection() {
    let (server, client) = boot();
    // 20 sequential requests on one pooled connection: all must answer,
    // and the pool must see the reuse (no per-request handler churn is
    // directly observable here, so assert on correctness + stats).
    for seed in 0..20u64 {
        let res = client
            .solve(&JobRequest::SolvePieri {
                m: 2,
                p: 2,
                q: 0,
                seed,
                certify: false,
            })
            .expect("keep-alive request");
        assert_eq!(res.solutions, 2);
    }
    let (status, stats) = client.get("/v1/stats").expect("stats over same conn");
    assert_eq!(status, 200);
    assert_eq!(
        stats.get("completed").and_then(Value::as_usize),
        Some(20),
        "{}",
        stats.serialize()
    );
    server.engine().shutdown();
    server.shutdown();
}

#[test]
fn http_error_surface() {
    let (server, client) = boot();

    // Unknown endpoint.
    let (status, body) = client.get("/nope").unwrap();
    assert_eq!(status, 404);
    assert!(body.get("error").is_some());

    // Wrong method.
    let (status, _) = client.get("/v1/solve").unwrap();
    assert_eq!(status, 405);

    // Malformed JSON body.
    let (status, body) = client
        .post("/v1/solve", &Value::String("not a job".into()))
        .unwrap();
    assert_eq!(status, 400, "{}", body.serialize());

    // Structurally valid JSON, invalid job.
    let bad = minijson::parse(r#"{"type":"solve_pieri","m":0,"p":1,"q":0,"seed":1}"#).unwrap();
    let (status, body) = client.post("/v1/solve", &bad).unwrap();
    assert_eq!(status, 400);
    let err = wire::error_from_json(&body).unwrap();
    assert_eq!(err.kind(), "invalid_request");

    // The server survived all of it.
    assert!(client.health());
    server.engine().shutdown();
    server.shutdown();
}
