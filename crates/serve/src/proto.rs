//! The request/response JSON schema for `POST /forecast`.
//!
//! A request carries one forecasting window — or, with the `windows` field,
//! several at once. Single windows are coalesced with concurrent requests
//! by the micro-batcher; a `windows` array is already a batch and runs as
//! **one** `bind(B)` forward. Row-major nested arrays keep the schema
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
use lip_serde::{FromJson, Json, JsonError, ToJson};

use crate::error::ServeError;

/// Most windows one request may carry: bounds the single `bind(B)` forward
/// a hostile body can demand (the HTTP body-size limit bounds it too, but a
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

impl FromJson for ForecastWindow {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let optional = |key: &str| -> Option<&Json> {
            v.get(key).filter(|j| !matches!(j, Json::Null))
        };
        let cov_numerical = match optional("cov_numerical") {
            Some(j) => Some(
                Vec::<Vec<f32>>::from_json(j)
                    .map_err(|e| e.in_field("cov_numerical"))?,
            ),
            None => None,
        };
        let cov_categorical = match optional("cov_categorical") {
            Some(j) => Some(
                Vec::<Vec<usize>>::from_json(j)
                    .map_err(|e| e.in_field("cov_categorical"))?,
            ),
            None => None,
        };
        Ok(ForecastWindow {
            x: v.field("x")?,
            time_feats: v.field("time_feats")?,
            cov_numerical,
            cov_categorical,
        })
    }
}

impl ForecastWindow {
    /// Reject ragged rows early with a typed error: tensors need uniform
    /// widths, and a precise message beats an opaque shape mismatch later.
    /// `at` names the window in multi-window bodies (`""` for the legacy
    /// top-level form).
    fn check_rectangular(&self, at: &str) -> Result<(), ServeError> {
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
        uniform("x", &self.x)?;
        uniform("time_feats", &self.time_feats)?;
        if let Some(n) = &self.cov_numerical {
            uniform("cov_numerical", n)?;
        }
        if self.x.is_empty() || self.x[0].is_empty() {
            return Err(ServeError::BadRequest {
                message: format!("'{at}x' must be a non-empty [seq_len][channels] array"),
                position: None,
            });
        }
        Ok(())
    }
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
    /// Multi-window form: 1..=[`MAX_WINDOWS`] windows batched through one
    /// forward. Mutually exclusive with the top-level window fields.
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

impl FromJson for ForecastRequest {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let optional = |key: &str| -> Option<&Json> {
            v.get(key).filter(|j| !matches!(j, Json::Null))
        };
        let spec = match optional("spec") {
            Some(j) => CovariateSpec::from_json(j).map_err(|e| e.in_field("spec"))?,
            None => default_spec(),
        };
        let cov_numerical = match optional("cov_numerical") {
            Some(j) => Some(
                Vec::<Vec<f32>>::from_json(j)
                    .map_err(|e| e.in_field("cov_numerical"))?,
            ),
            None => None,
        };
        let cov_categorical = match optional("cov_categorical") {
            Some(j) => Some(
                Vec::<Vec<usize>>::from_json(j)
                    .map_err(|e| e.in_field("cov_categorical"))?,
            ),
            None => None,
        };
        let windows = match optional("windows") {
            Some(j) => Some(
                Vec::<ForecastWindow>::from_json(j)
                    .map_err(|e| e.in_field("windows"))?,
            ),
            None => None,
        };
        // the top-level window fields stay required in the legacy form,
        // and absent in the multi-window form
        let (x, time_feats) = if windows.is_some() {
            let absent = |key: &str| -> Result<Vec<Vec<f32>>, JsonError> {
                match optional(key) {
                    Some(j) => Vec::<Vec<f32>>::from_json(j)
                        .map_err(|e| e.in_field(key)),
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
}

impl ForecastRequest {
    /// Decode a request body, mapping parse failures to a typed 400 that
    /// keeps `lip-serde`'s line:column position.
    pub fn parse(body: &[u8]) -> Result<ForecastRequest, ServeError> {
        let req: ForecastRequest = lip_serde::from_slice(body)?;
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
                    w.check_rectangular(&format!("windows[{i}]."))?;
                }
                Ok(())
            }
            None => self.as_window().check_rectangular(""),
        }
    }

    /// View the legacy top-level fields as a [`ForecastWindow`] (clones).
    fn as_window(&self) -> ForecastWindow {
        ForecastWindow {
            x: self.x.clone(),
            time_feats: self.time_feats.clone(),
            cov_numerical: self.cov_numerical.clone(),
            cov_categorical: self.cov_categorical.clone(),
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
        rows.iter().flat_map(|r| r.iter().copied()).collect()
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
/// which rode one `bind(B)` forward.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchForecastResponse {
    /// Per-window `[pred_len][channels]` forecasts, in request order.
    pub forecasts: Vec<Vec<Vec<f32>>>,
    /// Hex content hash of the session that served this (cache key).
    pub model: String,
    /// The batch size — always the number of requested windows.
    pub batched: usize,
    /// Microseconds of the shared batched forward.
    pub run_us: u64,
}

lip_serde::json_struct!(BatchForecastResponse {
    forecasts,
    model,
    batched,
    run_us,
});
