//! Golden-corpus test for the wire protocol: every canonical line in
//! `tests/proto/corpus.txt` (repo root) must round-trip byte-for-byte
//! through parse + render, and every `BAD*` line must be rejected with
//! a typed error. The corpus is the protocol's compatibility contract:
//! a change that rewrites a canonical line is a wire-format break and
//! must update DESIGN.md §5.10 alongside the corpus.

use pulsar_serve::{Request, Response};

fn corpus() -> String {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/proto/corpus.txt");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn corpus_round_trips_and_rejections() {
    let text = corpus();
    let mut reqs = 0;
    let mut bad_reqs = 0;
    let mut resps = 0;
    let mut bad_resps = 0;
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(payload) = line.strip_prefix("REQ ") {
            let req = Request::parse(payload)
                .unwrap_or_else(|e| panic!("corpus line {n}: REQ must parse, got: {e}"));
            assert_eq!(
                req.render(),
                payload,
                "corpus line {n}: canonical request must re-render identically"
            );
            reqs += 1;
        } else if let Some(payload) = line.strip_prefix("BADREQ ") {
            let err = Request::parse(payload).expect_err(&format!(
                "corpus line {n}: BADREQ must be rejected: {payload}"
            ));
            assert!(
                ["malformed", "usage"].contains(&err.kind),
                "corpus line {n}: BADREQ must get a typed error, got {err}"
            );
            bad_reqs += 1;
        } else if let Some(payload) = line.strip_prefix("RESP ") {
            let resp = Response::parse(payload)
                .unwrap_or_else(|e| panic!("corpus line {n}: RESP must parse, got: {e}"));
            assert_eq!(
                resp.render(),
                payload,
                "corpus line {n}: canonical response must re-render identically"
            );
            resps += 1;
        } else if let Some(payload) = line.strip_prefix("BADRESP ") {
            assert!(
                Response::parse(payload).is_err(),
                "corpus line {n}: BADRESP must be rejected: {payload}"
            );
            bad_resps += 1;
        } else {
            panic!("corpus line {n}: unknown directive: {line}");
        }
    }
    // Guard against the corpus silently shrinking.
    assert!(reqs >= 10, "expected >= 10 canonical requests, got {reqs}");
    assert!(
        bad_reqs >= 10,
        "expected >= 10 bad requests, got {bad_reqs}"
    );
    assert!(
        resps >= 10,
        "expected >= 10 canonical responses, got {resps}"
    );
    assert!(
        bad_resps >= 5,
        "expected >= 5 bad responses, got {bad_resps}"
    );
}

/// A typed error response for a malformed line renders as valid JSON
/// that itself parses as a Response::Error — the framing never
/// collapses into free text.
#[test]
fn malformed_request_error_response_is_well_formed() {
    let err = Request::parse("not json").expect_err("must reject");
    assert_eq!(err.kind, "malformed");
    let resp = Response::Error {
        kind: err.kind.to_owned(),
        message: err.message,
    };
    let line = resp.render();
    match Response::parse(&line).expect("error response must parse") {
        Response::Error { kind, .. } => assert_eq!(kind, "malformed"),
        other => panic!("expected error response, got {other:?}"),
    }
}
