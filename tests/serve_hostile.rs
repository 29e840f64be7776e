//! Hostile request bodies: a request the JSON parser cannot accept must be
//! answered 400 on its own connection, and the server must keep serving
//! everyone else. A 200 KB body of `[` once overflowed the parsing reactor
//! thread's stack and took the whole process down.

use std::sync::Arc;

use sne::compile::CompiledNetwork;
use sne::session::InferenceSession;
use sne_model::topology::Topology;
use sne_model::Shape;
use sne_serve::{client, Json, ServerBuilder};
use sne_sim::{ExecStrategy, SneConfig};

fn compiled(seed: u64) -> CompiledNetwork {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    CompiledNetwork::random(&Topology::tiny(Shape::new(2, 8, 8), 4, 3), &mut rng).unwrap()
}

#[test]
fn deeply_nested_bodies_get_400_and_the_server_keeps_serving() {
    let network = Arc::new(compiled(11));
    let server = ServerBuilder::new()
        .register(
            "tiny",
            Arc::clone(&network),
            SneConfig::with_slices(2),
            1,
            ExecStrategy::Sequential,
        )
        .unwrap()
        .start("127.0.0.1:0")
        .unwrap();
    let addr = server.addr();

    let hostile = "[".repeat(200_000);
    for path in ["/v1/infer", "/v1/stream/deep/push"] {
        let (status, body) = client::post(addr, path, &hostile).unwrap();
        assert_eq!(status, 400, "{path}: {body}");
        assert!(Json::parse(&body).unwrap().get("error").is_some());
    }

    let (status, body) = client::get(addr, "/healthz").unwrap();
    assert_eq!(status, 200, "{body}");
    let stream = sne::proportionality::stream_with_activity((2, 8, 8), 16, 0.05, 3);
    let expected = InferenceSession::new(network, SneConfig::with_slices(2))
        .unwrap()
        .infer(&stream)
        .unwrap();
    let (status, body) =
        client::post(addr, "/v1/infer", &client::infer_body("tiny", &stream)).unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        Json::parse(&body)
            .unwrap()
            .get("predicted_class")
            .and_then(Json::as_u64),
        Some(expected.predicted_class as u64)
    );
    server.shutdown();
}
