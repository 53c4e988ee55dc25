//! Property tests for the request parser: randomly generated requests
//! round-trip bit-exactly, arbitrary byte mutations of valid request
//! bodies are always answered with `Ok` or a typed error — never a panic —
//! and any JSON number in `x` decodes to a finite `f32` or a typed error
//! naming where it sits.

mod common;

use lip_data::pipeline::CovariateSpec;
use lip_rng::prop_check;
use lip_serve::proto::ForecastRequest;
use lip_serve::ServeError;

/// Generate a random but structurally valid request. (All `usize_in`
/// bounds are half-open.)
fn arbitrary_request(g: &mut lip_rng::prop::Gen) -> ForecastRequest {
    let channels = g.usize_in(1, 5);
    let seq = g.usize_in(1, 7);
    let pred = g.usize_in(1, 5);
    let tf = g.usize_in(1, 5);
    let numerical = g.usize_in(0, 3);
    let n_cats = g.usize_in(0, 3);
    let cardinalities = g.vec_usize(n_cats, 2, 6);
    let rows = |g: &mut lip_rng::prop::Gen, n: usize, w: usize| -> Vec<Vec<f32>> {
        (0..n).map(|_| g.vec_f32(w, -1e6, 1e6)).collect()
    };
    ForecastRequest {
        checkpoint: format!("ckpt-{}.bin", g.u64_in(0, u64::MAX)),
        spec: CovariateSpec {
            numerical,
            cardinalities: cardinalities.clone(),
            time_features: tf,
        },
        x: rows(g, seq, channels),
        time_feats: rows(g, pred, tf),
        cov_numerical: (numerical > 0).then(|| rows(g, pred, numerical)),
        cov_categorical: (!cardinalities.is_empty()).then(|| {
            cardinalities.iter().map(|&c| g.vec_usize(pred, 0, c)).collect()
        }),
        windows: None,
    }
}

#[test]
fn prop_roundtrip_is_bit_exact() {
    prop_check!(cases = 200, seed = 0x5e41_0001, |g| {
        let req = arbitrary_request(g);
        let json = lip_serde::to_string(&req);
        let back = ForecastRequest::parse(json.as_bytes())
            .unwrap_or_else(|e| panic!("valid request failed to parse: {e}\n{json}"));
        // serializing the parse result reproduces the exact bytes: field
        // order is fixed and f32 encoding is shortest-roundtrip
        assert_eq!(lip_serde::to_string(&back), json);
    });
}

#[test]
fn prop_byte_mutations_never_panic() {
    prop_check!(cases = 400, seed = 0x5e41_0002, |g| {
        let req = arbitrary_request(g);
        let mut bytes = lip_serde::to_string(&req).into_bytes();
        let flips = g.usize_in(1, 4);
        for _ in 0..flips {
            let at = g.usize_in(0, bytes.len());
            bytes[at] = g.u64_in(0, 256) as u8;
        }
        match ForecastRequest::parse(&bytes) {
            // mutation kept it valid (e.g. a digit changed): fine
            Ok(_) => {}
            // a parse failure must be the typed 400 — with a position
            // whenever tokenization itself broke
            Err(ServeError::BadRequest { message, .. }) => {
                assert!(!message.is_empty(), "error without a message");
            }
            // a mutated digit or exponent can push a number past f32
            Err(ServeError::NonFiniteInput { path, .. }) => {
                assert!(!path.is_empty(), "non-finite input without a path");
            }
            Err(other) => panic!("unexpected error class: {other:?}"),
        }
    });
}

#[test]
fn prop_truncations_never_panic() {
    prop_check!(cases = 300, seed = 0x5e41_0003, |g| {
        let req = arbitrary_request(g);
        let bytes = lip_serde::to_string(&req).into_bytes();
        let keep = g.usize_in(0, bytes.len());
        match ForecastRequest::parse(&bytes[..keep]) {
            Ok(_) => panic!("a strict prefix of a request parsed as complete"),
            Err(ServeError::BadRequest { .. }) => {}
            Err(other) => panic!("unexpected error class: {other:?}"),
        }
    });
}

#[test]
fn parse_errors_carry_positions() {
    // a concrete anchor for the positioned-error property: break the JSON
    // at a known line and the reported location lands there
    let garbage = b"{\n  \"checkpoint\": \"a\",\n  !!!\n}";
    match ForecastRequest::parse(garbage) {
        Err(ServeError::BadRequest { position: Some((line, col)), .. }) => {
            assert_eq!(line, 3, "line of the '!!!'");
            assert!(col >= 1);
        }
        other => panic!("wanted a positioned BadRequest, got {other:?}"),
    }
}

#[test]
fn ragged_rows_are_typed_errors() {
    prop_check!(cases = 100, seed = 0x5e41_0004, |g| {
        let mut req = arbitrary_request(g);
        // ensure at least two rows, then grow one so widths disagree
        if req.x.len() == 1 {
            let clone = req.x[0].clone();
            req.x.push(clone);
        }
        let at = g.usize_in(0, req.x.len());
        req.x[at].push(g.f32_in(-1.0, 1.0));
        let json = lip_serde::to_string(&req);
        match ForecastRequest::parse(json.as_bytes()) {
            Err(ServeError::BadRequest { message, .. }) => {
                assert!(message.contains("row"), "message: {message}");
            }
            other => panic!("ragged x must be rejected, got {other:?}"),
        }
    });
}

/// A random JSON number literal: either sign, 1-20 integer digits, an
/// optional fraction and an optional exponent reaching far past the `f32`
/// and `f64` ranges in both directions.
fn arbitrary_number(g: &mut lip_rng::prop::Gen) -> String {
    let digit = |g: &mut lip_rng::prop::Gen, lo: u64| char::from(b'0' + g.u64_in(lo, 10) as u8);
    let mut s = String::new();
    if g.usize_in(0, 2) == 1 {
        s.push('-');
    }
    let int_digits = g.usize_in(1, 21);
    s.push(digit(g, if int_digits == 1 { 0 } else { 1 }));
    for _ in 1..int_digits {
        s.push(digit(g, 0));
    }
    if g.usize_in(0, 2) == 1 {
        s.push('.');
        for _ in 0..g.usize_in(1, 10) {
            s.push(digit(g, 0));
        }
    }
    if g.usize_in(0, 3) > 0 {
        s.push_str(g.pick(&["e", "E", "e+", "e-", "E-"]));
        s.push_str(&g.u64_in(0, 1000).to_string());
    }
    s
}

#[test]
fn prop_x_numbers_decode_finite_or_fail_typed() {
    // outside the generator's ±1e6 range, so its text appears once
    const MARKER: f32 = 4.0e9;
    let marker = lip_serde::to_string(&MARKER);
    prop_check!(cases = 500, seed = 0x5e41_0005, |g| {
        let number = arbitrary_number(g);
        let mut req = arbitrary_request(g);
        let (row, col) = (g.usize_in(0, req.x.len()), g.usize_in(0, req.x[0].len()));
        req.x[row][col] = MARKER;
        let mut body = lip_serde::to_string(&req);
        assert_eq!(body.matches(&marker).count(), 1, "{marker} in {body}");
        body = body.replace(&marker, &number);

        let want = number.parse::<f64>().expect("a JSON number is a Rust float") as f32;
        match ForecastRequest::parse(body.as_bytes()) {
            Ok(req) => {
                assert!(want.is_finite(), "{number} decoded although it overflows f32");
                assert_eq!(req.x[row][col].to_bits(), want.to_bits(), "{number}");
                assert!(req.x.iter().flatten().all(|v| v.is_finite()), "{number}");
                assert!(!lip_serde::to_string(&req).contains("null"), "{number}");
            }
            Err(ServeError::NonFiniteInput { path, message }) => {
                assert!(!want.is_finite(), "{number} rejected although finite: {message}");
                assert_eq!(path, format!("x[{row}][{col}]"), "{number}: {message}");
                assert!(message.contains("not a finite f32"), "{number}: {message}");
            }
            Err(other) => panic!("{number}: unexpected error class: {other:?}"),
        }
    });
}
