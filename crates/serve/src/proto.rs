//! The request/response JSON schema for `POST /forecast`.
//!
//! A request carries one forecasting window — or, with the `windows` field,
//! several at once. Single windows are coalesced with concurrent requests
//! by the micro-batcher; a `windows` array is already a batch and runs
//! without waiting for partners, like a coalesced batch: in fixed 8-window
//! shards, each one `bind` forward. Row-major nested arrays keep the schema
//! human-writable:
//!
//! ```json
//! {
//!   "checkpoint": "models/etth1.ckpt",
//!   "spec": {"numerical": 0, "cardinalities": [], "time_features": 4},
//!   "x": [[…c floats…] × seq_len],
//!   "time_feats": [[…time_features floats…] × pred_len],
//!   "cov_numerical": [[…numerical floats…] × pred_len],   // optional
//!   "cov_categorical": [[…pred_len codes…] × channels]    // optional
//! }
//! ```
//!
//! `spec`, `cov_numerical` and `cov_categorical` may be omitted (or null).
//! The multi-window form replaces the top-level window fields with an array
//! of the same per-window objects (at most [`MAX_WINDOWS`]):
//!
//! ```json
//! {"checkpoint": "models/etth1.ckpt",
//!  "windows": [{"x": […], "time_feats": […]}, …]}
//! ```
//!
//! The single-window response returns the forecast with the batch it rode
//! in; a multi-window request gets `forecasts` (one entry per window, in
//! request order) instead of `forecast`:
//!
//! ```json
//! {"forecast": [[…c floats…] × pred_len], "model": "9f…", "batched": 4,
//!  "queue_us": 180, "run_us": 950}
//! ```
//!
//! Floats cross the wire through `lip-serde`'s shortest-round-trip `f32`
//! encoding, so a decoded forecast is **bit-identical** to the tensor the
//! executor produced — the differential tests compare raw bit patterns.

use lip_data::CovariateSpec;
use lip_serde::{FromJson, Json, JsonError, Kind, Parser, ToJson};

use crate::error::ServeError;

/// Most windows one request may carry: bounds the batch forward a hostile
/// body can demand (the HTTP body-size limit bounds it too, but a
/// typed 400 beats an opaque size rejection).
pub const MAX_WINDOWS: usize = 64;

/// One forecasting window's inputs — the per-window half of a request.
#[derive(Debug, Clone, PartialEq)]
pub struct ForecastWindow {
    /// History window, `seq_len` rows of `channels` floats.
    pub x: Vec<Vec<f32>>,
    /// Future implicit temporal features, `pred_len` rows of
    /// `spec.time_features` floats.
    pub time_feats: Vec<Vec<f32>>,
    /// Future explicit numerical covariates, `pred_len` rows of
    /// `spec.numerical` floats (required iff `spec.numerical > 0`).
    pub cov_numerical: Option<Vec<Vec<f32>>>,
    /// Future categorical covariate codes, one row of `pred_len` codes per
    /// categorical channel (required iff `spec.cardinalities` non-empty).
    pub cov_categorical: Option<Vec<Vec<usize>>>,
}

impl ToJson for ForecastWindow {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("x".to_string(), self.x.to_json()),
            ("time_feats".to_string(), self.time_feats.to_json()),
        ];
        if let Some(n) = &self.cov_numerical {
            pairs.push(("cov_numerical".to_string(), n.to_json()));
        }
        if let Some(c) = &self.cov_categorical {
            pairs.push(("cov_categorical".to_string(), c.to_json()));
        }
        Json::Object(pairs)
    }
}

/// Reject ragged rows early with a typed error: tensors need uniform
/// widths, and a precise message beats an opaque shape mismatch later.
/// `at` names the window in multi-window bodies (`""` for the legacy
/// top-level form).
fn check_rectangular(
    at: &str,
    x: &[Vec<f32>],
    time_feats: &[Vec<f32>],
    cov_numerical: Option<&[Vec<f32>]>,
) -> Result<(), ServeError> {
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
    uniform("x", x)?;
    uniform("time_feats", time_feats)?;
    if let Some(n) = cov_numerical {
        uniform("cov_numerical", n)?;
    }
    if x.is_empty() || x[0].is_empty() {
        return Err(ServeError::BadRequest {
            message: format!("'{at}x' must be a non-empty [seq_len][channels] array"),
            position: None,
        });
    }
    Ok(())
}

/// One forecast request: a checkpoint reference plus one window of inputs —
/// or a `windows` array carrying several that run as a single batch.
#[derive(Debug, Clone, PartialEq)]
pub struct ForecastRequest {
    /// Path of the checkpoint to serve (loaded once, then cached).
    pub checkpoint: String,
    /// Covariate layout the checkpoint was trained with. Defaults to
    /// implicit-only (`numerical: 0`, no categoricals, 4 time features).
    pub spec: CovariateSpec,
    /// History window, `seq_len` rows of `channels` floats (legacy
    /// single-window form; empty when `windows` is used).
    pub x: Vec<Vec<f32>>,
    /// Future implicit temporal features, `pred_len` rows of
    /// `spec.time_features` floats.
    pub time_feats: Vec<Vec<f32>>,
    /// Future explicit numerical covariates, `pred_len` rows of
    /// `spec.numerical` floats (required iff `spec.numerical > 0`).
    pub cov_numerical: Option<Vec<Vec<f32>>>,
    /// Future categorical covariate codes, one row of `pred_len` codes per
    /// categorical channel (required iff `spec.cardinalities` non-empty).
    pub cov_categorical: Option<Vec<Vec<usize>>>,
    /// Multi-window form: 1..=[`MAX_WINDOWS`] windows served as one batch.
    /// Mutually exclusive with the top-level window fields.
    pub windows: Option<Vec<ForecastWindow>>,
}

fn default_spec() -> CovariateSpec {
    CovariateSpec { numerical: 0, cardinalities: vec![], time_features: 4 }
}

impl ToJson for ForecastRequest {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("checkpoint".to_string(), self.checkpoint.to_json()),
            ("spec".to_string(), self.spec.to_json()),
        ];
        if let Some(w) = &self.windows {
            pairs.push(("windows".to_string(), w.to_json()));
            return Json::Object(pairs);
        }
        pairs.push(("x".to_string(), self.x.to_json()));
        pairs.push(("time_feats".to_string(), self.time_feats.to_json()));
        if let Some(n) = &self.cov_numerical {
            pairs.push(("cov_numerical".to_string(), n.to_json()));
        }
        if let Some(c) = &self.cov_categorical {
            pairs.push(("cov_categorical".to_string(), c.to_json()));
        }
        Json::Object(pairs)
    }
}

/// Read `key`'s value with `read`, naming the field in the error path.
fn field<T>(
    p: &mut Parser<'_>,
    key: &str,
    read: fn(&mut Parser<'_>) -> Result<T, JsonError>,
) -> Result<T, JsonError> {
    read(p).map_err(|e| e.in_field(key))
}

/// `Option::<Vec<Vec<f32>>>::from_text` (the same values, errors and
/// paths), allocating each row at the width of the row before it: rows
/// share one width in every valid window.
fn rows(p: &mut Parser<'_>) -> Result<Option<Vec<Vec<f32>>>, JsonError> {
    if p.kind()? == Kind::Null {
        return p.skip().map(|()| None);
    }
    let mut rows: Vec<Vec<f32>> = Vec::new();
    p.elements(|p, i| {
        let mut row = Vec::with_capacity(rows.last().map_or(0, Vec::len));
        p.elements(|p, j| {
            row.push(f32::from_text(p).map_err(|e| e.in_index(j))?);
            Ok(())
        })
        .map_err(|e| e.in_index(i))?;
        rows.push(row);
        Ok(())
    })?;
    Ok(Some(rows))
}

/// A required field's value, or the missing-field error.
fn required<T>(slot: Option<T>, key: &str) -> Result<T, JsonError> {
    slot.ok_or_else(|| JsonError::missing(key))
}

/// A required array field read as nullable (the request's `x` may be null
/// in the multi-window form): absent is a missing field, null a type
/// mismatch.
fn non_null<T>(slot: Option<Option<T>>, key: &str) -> Result<T, JsonError> {
    required(slot, key)?.ok_or_else(|| JsonError::expected("array", Kind::Null).in_field(key))
}

/// Read one window object in a single pass over its keys. As everywhere
/// in `lip-serde`, the first of duplicate keys wins, unknown keys are
/// skipped, and `null` optional fields are absent. A null `x` or
/// `time_feats`, like an absent one, is reported at the end of the object.
fn read_window(p: &mut Parser<'_>) -> Result<ForecastWindow, JsonError> {
    let (mut x, mut time_feats, mut cov_numerical, mut cov_categorical) = (None, None, None, None);
    p.members(|p, key| {
        match key {
            "x" if x.is_none() => x = Some(field(p, key, rows)?),
            "time_feats" if time_feats.is_none() => time_feats = Some(field(p, key, rows)?),
            "cov_numerical" if cov_numerical.is_none() => {
                cov_numerical = Some(field(p, key, rows)?);
            }
            "cov_categorical" if cov_categorical.is_none() => {
                cov_categorical = Some(field(p, key, FromJson::from_text)?);
            }
            _ => p.skip()?,
        }
        Ok(())
    })?;
    Ok(ForecastWindow {
        x: non_null(x, "x")?,
        time_feats: non_null(time_feats, "time_feats")?,
        cov_numerical: cov_numerical.flatten(),
        cov_categorical: cov_categorical.flatten(),
    })
}

/// Read the `windows` array (or `null`).
fn read_windows(p: &mut Parser<'_>) -> Result<Option<Vec<ForecastWindow>>, JsonError> {
    if p.kind()? == Kind::Null {
        return p.skip().map(|()| None);
    }
    let mut windows = Vec::new();
    p.elements(|p, i| {
        windows.push(read_window(p).map_err(|e| e.in_index(i))?);
        Ok(())
    })?;
    Ok(Some(windows))
}

/// Read a request body in a single pass over its keys, straight into the
/// request's own fields. Whether `x` and `time_feats` are required depends
/// on `windows`, which may come later, so their absence is judged at the
/// end of the body.
fn read_request(p: &mut Parser<'_>) -> Result<ForecastRequest, JsonError> {
    let (mut checkpoint, mut spec, mut x, mut time_feats) = (None, None, None, None);
    let (mut cov_numerical, mut cov_categorical, mut windows) = (None, None, None);
    p.members(|p, key| {
        match key {
            "checkpoint" if checkpoint.is_none() => {
                checkpoint = Some(field(p, key, String::from_text)?);
            }
            "spec" if spec.is_none() => spec = Some(field(p, key, FromJson::from_text)?),
            "x" if x.is_none() => x = Some(field(p, key, rows)?),
            "time_feats" if time_feats.is_none() => time_feats = Some(field(p, key, rows)?),
            "cov_numerical" if cov_numerical.is_none() => {
                cov_numerical = Some(field(p, key, rows)?);
            }
            "cov_categorical" if cov_categorical.is_none() => {
                cov_categorical = Some(field(p, key, FromJson::from_text)?);
            }
            "windows" if windows.is_none() => {
                windows = Some(read_windows(p).map_err(|e| e.in_field(key))?);
            }
            _ => p.skip()?,
        }
        Ok(())
    })?;
    let windows = windows.flatten();
    // the top-level window fields stay required in the legacy form, and
    // may be absent or null in the multi-window form
    let (x, time_feats) = if windows.is_some() {
        (x.flatten().unwrap_or_default(), time_feats.flatten().unwrap_or_default())
    } else {
        (non_null(x, "x")?, non_null(time_feats, "time_feats")?)
    };
    Ok(ForecastRequest {
        checkpoint: required(checkpoint, "checkpoint")?,
        spec: spec.flatten().unwrap_or_else(default_spec),
        x,
        time_feats,
        cov_numerical: cov_numerical.flatten(),
        cov_categorical: cov_categorical.flatten(),
        windows,
    })
}

impl ForecastRequest {
    /// Decode a request body in one pass, mapping parse failures to a
    /// typed 400 that keeps `lip-serde`'s line:column position. The
    /// numbers go straight from the text into the request's rows, with the
    /// values, errors and decode paths of a `lip-serde` tree decode.
    pub fn parse(body: &[u8]) -> Result<ForecastRequest, ServeError> {
        let req = lip_serde::from_slice_with(body, read_request)?;
        req.check_rectangular()?;
        Ok(req)
    }

    /// Validate window shapes: each window must be rectangular, and the
    /// multi-window form must be non-empty, capped, and free of top-level
    /// window fields.
    fn check_rectangular(&self) -> Result<(), ServeError> {
        match &self.windows {
            Some(ws) => {
                let bad = |message: String| ServeError::BadRequest { message, position: None };
                if !self.x.is_empty()
                    || !self.time_feats.is_empty()
                    || self.cov_numerical.is_some()
                    || self.cov_categorical.is_some()
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
                    check_rectangular(
                        &format!("windows[{i}]."),
                        &w.x,
                        &w.time_feats,
                        w.cov_numerical.as_deref(),
                    )?;
                }
                Ok(())
            }
            None => check_rectangular("", &self.x, &self.time_feats, self.cov_numerical.as_deref()),
        }
    }

    /// The request's windows in order — one for the legacy form, the
    /// `windows` array otherwise.
    pub fn into_windows(self) -> Vec<ForecastWindow> {
        match self.windows {
            Some(ws) => ws,
            None => vec![ForecastWindow {
                x: self.x,
                time_feats: self.time_feats,
                cov_numerical: self.cov_numerical,
                cov_categorical: self.cov_categorical,
            }],
        }
    }

    /// Row-major flattening of a `[rows][width]` array.
    pub fn flatten(rows: &[Vec<f32>]) -> Vec<f32> {
        rows.concat()
    }
}

/// One forecast response (see the module docs for the JSON layout).
#[derive(Debug, Clone, PartialEq)]
pub struct ForecastResponse {
    /// The `[pred_len][channels]` forecast.
    pub forecast: Vec<Vec<f32>>,
    /// Hex content hash of the session that served this (cache key).
    pub model: String,
    /// Size of the coalesced batch this window rode in (1 = ran alone).
    pub batched: usize,
    /// Microseconds spent queued before its batch flushed.
    pub queue_us: u64,
    /// Microseconds of the batched forward (shared by the whole batch).
    pub run_us: u64,
}

lip_serde::json_struct!(ForecastResponse {
    forecast,
    model,
    batched,
    queue_us,
    run_us,
});

/// The multi-window response: one forecast per requested window, all of
/// which rode one batch (run as 8-window shards, like a coalesced batch).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchForecastResponse {
    /// Per-window `[pred_len][channels]` forecasts, in request order.
    pub forecasts: Vec<Vec<Vec<f32>>>,
    /// Hex content hash of the session that served this (cache key).
    pub model: String,
    /// The batch size — always the number of requested windows.
    pub batched: usize,
    /// Microseconds of the whole batch's sharded forward.
    pub run_us: u64,
}

lip_serde::json_struct!(BatchForecastResponse {
    forecasts,
    model,
    batched,
    run_us,
});
