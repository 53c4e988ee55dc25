//! `ForecastRequest::parse` decodes a body in one streaming pass over its
//! keys. This suite holds it to the tree decode it replaced — parse the
//! whole body into a `lip_serde::Json`, then convert — which is kept here
//! verbatim as the reference. Bodies come in both request forms, with
//! shuffled keys, and each carries at most one fault: a flipped byte, a
//! truncation, an inserted `null`, a duplicate key or an edge-case number
//! (`-0`, `1e39`, …). Decoded requests must agree bit for bit, and
//! failures must agree in status, code, message, position and path.

use lip_data::pipeline::CovariateSpec;
use lip_rng::prop::Gen;
use lip_rng::prop_check;
use lip_serde::{FromJson, Json, JsonError, ToJson};
use lip_serve::proto::{ForecastRequest, ForecastWindow, MAX_WINDOWS};
use lip_serve::ServeError;

// ------------------------------------------------- the reference tree decode

fn default_spec() -> CovariateSpec {
    CovariateSpec {
        numerical: 0,
        cardinalities: vec![],
        time_features: 4,
    }
}

fn window_from_json(v: &Json) -> Result<ForecastWindow, JsonError> {
    let optional = |key: &str| -> Option<&Json> { v.get(key).filter(|j| !matches!(j, Json::Null)) };
    let cov_numerical = match optional("cov_numerical") {
        Some(j) => Some(Vec::<Vec<f32>>::from_json(j).map_err(|e| e.in_field("cov_numerical"))?),
        None => None,
    };
    let cov_categorical = match optional("cov_categorical") {
        Some(j) => {
            Some(Vec::<Vec<usize>>::from_json(j).map_err(|e| e.in_field("cov_categorical"))?)
        }
        None => None,
    };
    Ok(ForecastWindow {
        x: v.field("x")?,
        time_feats: v.field("time_feats")?,
        cov_numerical,
        cov_categorical,
    })
}

fn request_from_json(v: &Json) -> Result<ForecastRequest, JsonError> {
    let optional = |key: &str| -> Option<&Json> { v.get(key).filter(|j| !matches!(j, Json::Null)) };
    let spec = match optional("spec") {
        Some(j) => CovariateSpec::from_json(j).map_err(|e| e.in_field("spec"))?,
        None => default_spec(),
    };
    let cov_numerical = match optional("cov_numerical") {
        Some(j) => Some(Vec::<Vec<f32>>::from_json(j).map_err(|e| e.in_field("cov_numerical"))?),
        None => None,
    };
    let cov_categorical = match optional("cov_categorical") {
        Some(j) => {
            Some(Vec::<Vec<usize>>::from_json(j).map_err(|e| e.in_field("cov_categorical"))?)
        }
        None => None,
    };
    let windows = match optional("windows") {
        Some(j) => Some(
            j.as_array()
                .and_then(|items| {
                    items
                        .iter()
                        .enumerate()
                        .map(|(i, w)| window_from_json(w).map_err(|e| e.in_index(i)))
                        .collect::<Result<Vec<_>, _>>()
                })
                .map_err(|e| e.in_field("windows"))?,
        ),
        None => None,
    };
    // the top-level window fields stay required in the legacy form,
    // and absent in the multi-window form
    let (x, time_feats) = if windows.is_some() {
        let absent = |key: &str| -> Result<Vec<Vec<f32>>, JsonError> {
            match optional(key) {
                Some(j) => Vec::<Vec<f32>>::from_json(j).map_err(|e| e.in_field(key)),
                None => Ok(vec![]),
            }
        };
        (absent("x")?, absent("time_feats")?)
    } else {
        (v.field("x")?, v.field("time_feats")?)
    };
    Ok(ForecastRequest {
        checkpoint: v.field("checkpoint")?,
        spec,
        x,
        time_feats,
        cov_numerical,
        cov_categorical,
        windows,
    })
}

fn check_window(w: &ForecastWindow, at: &str) -> Result<(), ServeError> {
    let uniform = |name: &str, rows: &[Vec<f32>]| -> Result<(), ServeError> {
        if let Some(first) = rows.first() {
            if let Some((i, r)) = rows
                .iter()
                .enumerate()
                .find(|(_, r)| r.len() != first.len())
            {
                return Err(ServeError::BadRequest {
                    message: format!(
                        "'{at}{name}' row {i} has {} values, row 0 has {}",
                        r.len(),
                        first.len()
                    ),
                    position: None,
                });
            }
        }
        Ok(())
    };
    uniform("x", &w.x)?;
    uniform("time_feats", &w.time_feats)?;
    if let Some(n) = &w.cov_numerical {
        uniform("cov_numerical", n)?;
    }
    if w.x.is_empty() || w.x[0].is_empty() {
        return Err(ServeError::BadRequest {
            message: format!("'{at}x' must be a non-empty [seq_len][channels] array"),
            position: None,
        });
    }
    Ok(())
}

fn check_request(req: &ForecastRequest) -> Result<(), ServeError> {
    match &req.windows {
        Some(ws) => {
            let bad = |message: String| ServeError::BadRequest {
                message,
                position: None,
            };
            if !req.x.is_empty()
                || !req.time_feats.is_empty()
                || req.cov_numerical.is_some()
                || req.cov_categorical.is_some()
            {
                return Err(bad(
                    "request carries both 'windows' and top-level window fields".into(),
                ));
            }
            if ws.is_empty() {
                return Err(bad("'windows' must carry at least one window".into()));
            }
            if ws.len() > MAX_WINDOWS {
                return Err(bad(format!(
                    "'windows' carries {} windows, the limit is {MAX_WINDOWS}",
                    ws.len()
                )));
            }
            for (i, w) in ws.iter().enumerate() {
                check_window(w, &format!("windows[{i}]."))?;
            }
            Ok(())
        }
        None => check_window(
            &ForecastWindow {
                x: req.x.clone(),
                time_feats: req.time_feats.clone(),
                cov_numerical: req.cov_numerical.clone(),
                cov_categorical: req.cov_categorical.clone(),
            },
            "",
        ),
    }
}

/// The reference: the whole body as a tree, then converted and checked.
fn tree_parse(body: &[u8]) -> Result<ForecastRequest, ServeError> {
    let tree: Json = lip_serde::from_slice(body)?;
    let req = request_from_json(&tree)?;
    check_request(&req)?;
    Ok(req)
}

// ----------------------------------------------------------------- bodies

/// A window's shape, shared by every window of one request.
struct Shape {
    channels: usize,
    seq: usize,
    pred: usize,
    time_features: usize,
    numerical: usize,
    cardinalities: Vec<usize>,
}

fn value(g: &mut Gen) -> f32 {
    match g.usize_in(0, 12) {
        0 => -0.0,
        1 => f32::from_bits(g.u64_in(1, 0x0080_0000) as u32),
        2 => g.pick(&[f32::MAX, f32::MIN, 3e38, 1e-30, 0.1, 1.0]),
        _ => g.f32_in(-1e6, 1e6),
    }
}

fn arbitrary_window(g: &mut Gen, s: &Shape) -> ForecastWindow {
    let mut rows = |n: usize, w: usize| -> Vec<Vec<f32>> {
        (0..n).map(|_| (0..w).map(|_| value(g)).collect()).collect()
    };
    let x = rows(s.seq, s.channels);
    let time_feats = rows(s.pred, s.time_features);
    let cov_numerical = (s.numerical > 0).then(|| rows(s.pred, s.numerical));
    let cov_categorical = (!s.cardinalities.is_empty()).then(|| {
        s.cardinalities
            .iter()
            .map(|&c| g.vec_usize(s.pred, 0, c))
            .collect()
    });
    ForecastWindow {
        x,
        time_feats,
        cov_numerical,
        cov_categorical,
    }
}

/// A valid request in either form (and, rarely, an empty `windows`).
fn arbitrary_request(g: &mut Gen) -> ForecastRequest {
    let numerical = g.usize_in(0, 3);
    let n_cats = g.usize_in(0, 3);
    let shape = Shape {
        channels: g.usize_in(1, 4),
        seq: g.usize_in(1, 6),
        pred: g.usize_in(1, 4),
        time_features: g.usize_in(1, 4),
        numerical,
        cardinalities: g.vec_usize(n_cats, 2, 6),
    };
    let spec = CovariateSpec {
        numerical,
        cardinalities: shape.cardinalities.clone(),
        time_features: shape.time_features,
    };
    let checkpoint = format!("ckpt-{}.bin", g.u64_in(0, 1000));
    if g.usize_in(0, 2) == 0 {
        let w = arbitrary_window(g, &shape);
        ForecastRequest {
            checkpoint,
            spec,
            x: w.x,
            time_feats: w.time_feats,
            cov_numerical: w.cov_numerical,
            cov_categorical: w.cov_categorical,
            windows: None,
        }
    } else {
        let n = if g.usize_in(0, 20) == 0 {
            0
        } else {
            g.usize_in(1, 4)
        };
        ForecastRequest {
            checkpoint,
            spec,
            x: vec![],
            time_feats: vec![],
            cov_numerical: None,
            cov_categorical: None,
            windows: Some((0..n).map(|_| arbitrary_window(g, &shape)).collect()),
        }
    }
}

/// The paths (object keys and array indices) of every node in `json`.
fn paths(json: &Json, at: &mut Vec<Step>, out: &mut Vec<Vec<Step>>) {
    out.push(at.clone());
    match json {
        Json::Object(pairs) => {
            for (i, (_, v)) in pairs.iter().enumerate() {
                at.push(Step::Member(i));
                paths(v, at, out);
                at.pop();
            }
        }
        Json::Array(items) => {
            for (i, v) in items.iter().enumerate() {
                at.push(Step::Element(i));
                paths(v, at, out);
                at.pop();
            }
        }
        _ => {}
    }
}

#[derive(Clone, Copy, Debug)]
enum Step {
    Member(usize),
    Element(usize),
}

fn node<'a>(json: &'a mut Json, path: &[Step]) -> &'a mut Json {
    path.iter().fold(json, |at, step| match (at, step) {
        (Json::Object(pairs), Step::Member(i)) => &mut pairs[*i].1,
        (Json::Array(items), Step::Element(i)) => &mut items[*i],
        (other, step) => panic!("{step:?} into {other:?}"),
    })
}

fn node_ref<'a>(json: &'a Json, path: &[Step]) -> &'a Json {
    path.iter().fold(json, |at, step| match (at, step) {
        (Json::Object(pairs), Step::Member(i)) => &pairs[*i].1,
        (Json::Array(items), Step::Element(i)) => &items[*i],
        (other, step) => panic!("{step:?} into {other:?}"),
    })
}

/// Shuffle every object's members.
fn shuffle(g: &mut Gen, json: &mut Json) {
    match json {
        Json::Object(pairs) => {
            for i in (1..pairs.len()).rev() {
                let j = g.usize_in(0, i + 1);
                pairs.swap(i, j);
            }
            pairs.iter_mut().for_each(|(_, v)| shuffle(g, v));
        }
        Json::Array(items) => items.iter_mut().for_each(|v| shuffle(g, v)),
        _ => {}
    }
}

/// Splice `text` in place of the node at `path`, via a marker string.
fn splice(json: &mut Json, path: &[Step], text: &str) -> String {
    const MARK: &str = "@@splice@@";
    *node(json, path) = Json::Str(MARK.into());
    let dumped = json.dump();
    assert_eq!(dumped.matches(MARK).count(), 1);
    dumped.replace(&format!("\"{MARK}\""), text)
}

/// Render `req` with at most one fault (and maybe shuffled keys).
fn body(g: &mut Gen, req: &ForecastRequest) -> Vec<u8> {
    let mut json = req.to_json();
    if g.usize_in(0, 2) == 0 {
        shuffle(g, &mut json);
    }
    let mut all = Vec::new();
    paths(&json, &mut Vec::new(), &mut all);
    let of_kind = |is: fn(&Json) -> bool| -> Vec<Vec<Step>> {
        all.iter()
            .filter(|p| is(node_ref(&json, p)))
            .cloned()
            .collect()
    };
    let leaves = of_kind(|j| matches!(j, Json::Num(_)));
    let objects = of_kind(|j| matches!(j, Json::Object(_)));
    match g.usize_in(0, 7) {
        // no fault
        0 => json.dump().into_bytes(),
        // an edge-case number in place of any number
        1 if !leaves.is_empty() => {
            let at = &leaves[g.usize_in(0, leaves.len())];
            let token = g.pick(&[
                "-0",
                "-0.0",
                "0",
                "1e39",
                "-1e39",
                "1e-50",
                "3.4028235e38",
                "3.4028236e38",
                "1e309",
                "7.5",
                "18446744073709551616",
                "-9223372036854775809",
            ]);
            splice(&mut json, at, token).into_bytes()
        }
        // null in place of any value
        2 => {
            let at = &all[g.usize_in(0, all.len())];
            *node(&mut json, at) = Json::Null;
            json.dump().into_bytes()
        }
        // a duplicate key, before or after the original, with a copy, a
        // null or a wrongly typed value
        3 if !objects.is_empty() => {
            let at = &objects[g.usize_in(0, objects.len())];
            let dup_value = g.usize_in(0, 3);
            let before = g.usize_in(0, 2) == 0;
            if let Json::Object(pairs) = node(&mut json, at) {
                if !pairs.is_empty() {
                    let i = g.usize_in(0, pairs.len());
                    let (key, value) = pairs[i].clone();
                    let dup = match dup_value {
                        0 => value,
                        1 => Json::Null,
                        _ => Json::Str("dup".into()),
                    };
                    pairs.insert(if before { i } else { i + 1 }, (key, dup));
                }
            }
            json.dump().into_bytes()
        }
        // one flipped byte
        4 => {
            let mut bytes = json.dump().into_bytes();
            let at = g.usize_in(0, bytes.len());
            bytes[at] = g.u64_in(0, 256) as u8;
            bytes
        }
        // a truncation
        5 => {
            let bytes = json.dump().into_bytes();
            bytes[..g.usize_in(0, bytes.len())].to_vec()
        }
        // a key the request does not know, holding any JSON
        _ => {
            if let Json::Object(pairs) = &mut json {
                let extra = lip_serde::parse(r#"{"a":[1,{"b":null}],"c":"d"}"#).expect("valid");
                let i = g.usize_in(0, pairs.len() + 1);
                pairs.insert(i, ("future_field".into(), extra));
            }
            json.dump().into_bytes()
        }
    }
}

// ------------------------------------------------------------- comparison

type RowBits = Vec<Vec<u32>>;
type WindowBits = (RowBits, RowBits, Option<RowBits>, Option<Vec<Vec<usize>>>);

fn rows_bits(rows: &[Vec<f32>]) -> RowBits {
    rows.iter()
        .map(|r| r.iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn window_bits(w: &ForecastWindow) -> WindowBits {
    (
        rows_bits(&w.x),
        rows_bits(&w.time_feats),
        w.cov_numerical.as_deref().map(rows_bits),
        w.cov_categorical.clone(),
    )
}

/// Everything a request holds, with each f32 as its bit pattern.
fn request_bits(
    r: &ForecastRequest,
) -> (String, CovariateSpec, WindowBits, Option<Vec<WindowBits>>) {
    let top = ForecastWindow {
        x: r.x.clone(),
        time_feats: r.time_feats.clone(),
        cov_numerical: r.cov_numerical.clone(),
        cov_categorical: r.cov_categorical.clone(),
    };
    (
        r.checkpoint.clone(),
        r.spec.clone(),
        window_bits(&top),
        r.windows
            .as_ref()
            .map(|ws| ws.iter().map(window_bits).collect()),
    )
}

#[test]
fn streaming_decode_matches_the_tree_decode() {
    let (mut ok, mut syntax, mut decode, mut non_finite) = (0, 0, 0, 0);
    prop_check!(cases = 2_600, seed = 0x5e41_0017, |g| {
        let req = arbitrary_request(g);
        let bytes = body(g, &req);
        let text = String::from_utf8_lossy(&bytes);
        match (ForecastRequest::parse(&bytes), tree_parse(&bytes)) {
            (Ok(stream), Ok(tree)) => {
                assert_eq!(request_bits(&stream), request_bits(&tree), "{text}");
                ok += 1;
            }
            (Err(stream), Err(tree)) => {
                assert_eq!(stream, tree, "{text}");
                match &stream {
                    ServeError::BadRequest {
                        position: Some(_), ..
                    } => syntax += 1,
                    ServeError::NonFiniteInput { .. } => non_finite += 1,
                    _ => decode += 1,
                }
            }
            (stream, tree) => panic!("stream {stream:?} vs tree {tree:?} on {text}"),
        }
    });
    // every outcome class is exercised, not just the happy path
    for (class, n) in [
        ("ok", ok),
        ("syntax", syntax),
        ("decode", decode),
        ("non-finite", non_finite),
    ] {
        assert!(n >= 50, "only {n} {class} bodies (ok {ok}, syntax {syntax}, decode {decode}, non-finite {non_finite})");
    }
}

#[test]
fn targeted_faults_match_the_tree_decode() {
    let good = r#"{"checkpoint":"c","spec":{"numerical":0,"cardinalities":[],"time_features":1},"x":[[1.5],[2]],"time_feats":[[0.5]]}"#;
    let multi = r#"{"checkpoint":"c","windows":[{"x":[[1]],"time_feats":[[2]]},{"x":[[3]],"time_feats":[[4]]}]}"#;
    for body in [
        good.to_string(),
        multi.to_string(),
        // the first of duplicate keys wins, also when it is null
        good.replace(r#""x":[[1.5],[2]]"#, r#""x":[[1.5],[2]],"x":"dup""#),
        good.replace(r#""x":[[1.5],[2]]"#, r#""x":null,"x":[[1.5],[2]]"#),
        good.replace(r#""spec":{"#, r#""spec":null,"spec":{"#),
        multi.replace(r#""windows":"#, r#""x":null,"time_feats":[],"windows":"#),
        multi.replace(r#""windows":"#, r#""windows":null,"windows":"#),
        // required fields: absent, null, or absent in a later window
        good.replace(r#""checkpoint":"c","#, ""),
        good.replace(r#""time_feats":[[0.5]]"#, r#""time_feats":null"#),
        multi.replace(r#"{"x":[[3]],"#, "{"),
        // a non-object root or window
        "[1,2]".into(),
        multi.replace(r#"{"x":[[3]],"time_feats":[[4]]}"#, "7"),
        // numbers: integer -0, overflow, and a code out of usize range
        good.replace("1.5", "-0"),
        good.replace("1.5", "1e39"),
        multi.replace("[[3]]", "[[3],[-1e300]]"),
        good.replace(r#""time_features":1"#, r#""time_features":-1"#),
        // a decode fault before a syntax fault: the syntax fault wins
        good.replace("1.5", "1e39").replace("0.5", "0.5.5"),
        good.replace(r#""checkpoint":"c""#, r#""checkpoint":7"#)
            .replace("]]}", "]]"),
        // nesting limit inside an unknown key
        good.replace(
            r#""x":"#,
            &format!(r#""deep":{}{},"x":"#, "[".repeat(130), "]".repeat(130)),
        ),
        // not UTF-8
        String::from_utf8_lossy(b"{\"checkpoint\":\"\xff\"}").into_owned(),
    ] {
        let stream = ForecastRequest::parse(body.as_bytes()).map(|r| request_bits(&r));
        let tree = tree_parse(body.as_bytes()).map(|r| request_bits(&r));
        assert_eq!(stream, tree, "{body}");
    }
    let bad_utf8 = b"{\"checkpoint\":\"\xff\"}";
    assert_eq!(ForecastRequest::parse(bad_utf8), tree_parse(bad_utf8));
    // an integer -0 decodes to +0.0 in both
    let zero = ForecastRequest::parse(good.replace("1.5", "-0").as_bytes()).expect("valid");
    assert_eq!(zero.x[0][0].to_bits(), 0);
}
