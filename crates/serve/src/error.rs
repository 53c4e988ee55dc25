//! Typed failure modes: every way a request can go wrong maps to an HTTP
//! status, a stable machine-readable code, and a JSON body — the server
//! answers errors, it never panics a worker.

use lip_serde::{Json, JsonError, JsonErrorKind};

/// Everything the server can report to a client (or log) as a failure.
///
/// `Clone` because session-creation errors are cached alongside the session
/// slot they poisoned (a deterministic compile failure stays failed).
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The request bytes were not a well-formed request (HTTP framing or
    /// JSON). Carries `lip-serde`'s 1-based line/column when the JSON
    /// tokenizer pinpointed the offence.
    BadRequest {
        /// Human-readable description.
        message: String,
        /// `(line, column)` in the request body, when known.
        position: Option<(usize, usize)>,
    },
    /// A number in the request body is not finite in `f32` (`1e39`): it
    /// would reach the model as ±Inf, so it is refused where it is decoded.
    NonFiniteInput {
        /// Decode path to the number, e.g. `windows[1].x[3][0]`.
        path: String,
        /// Human-readable description.
        message: String,
    },
    /// The declared or actual body size exceeds the server limit.
    PayloadTooLarge {
        /// Configured ceiling in bytes.
        limit: usize,
        /// What the client declared (or had already sent).
        got: usize,
    },
    /// The client was too slow: a read timed out or the whole-request
    /// deadline passed.
    Timeout {
        /// Which phase timed out (`"headers"`, `"body"`).
        what: String,
    },
    /// No route for this path.
    NotFound {
        /// The path requested.
        path: String,
    },
    /// The path exists but not for this method.
    MethodNotAllowed {
        /// The method used.
        method: String,
        /// The path requested.
        path: String,
    },
    /// The referenced checkpoint could not be read or decoded.
    Checkpoint {
        /// Underlying `CheckpointError` rendering.
        message: String,
    },
    /// The checkpoint's configuration, or the request's covariate spec,
    /// failed `LiPFormerConfig::check_for` (rejected before any model is
    /// constructed).
    Config {
        /// The rule the configuration or spec broke.
        message: String,
    },
    /// The request's tensors do not satisfy the model's `BatchContract`.
    Contract {
        /// First violation found.
        message: String,
    },
    /// The model could not be compiled for serving.
    Compile {
        /// Underlying `CompileError` rendering.
        message: String,
    },
    /// The forward produced a NaN or ±Inf: inputs finite in `f32` still
    /// overflowed inside the model. A forecast is never encoded with
    /// non-finite values (they would serialize as `null`).
    NonFiniteOutput {
        /// The offending entry of a multi-window request's `windows`;
        /// `None` in the single-window form.
        window: Option<usize>,
    },
    /// The batch runner died or the response channel was severed.
    Internal {
        /// What broke.
        message: String,
    },
}

impl ServeError {
    /// HTTP status code for this error.
    pub fn status(&self) -> u16 {
        match self {
            ServeError::BadRequest { .. } | ServeError::NonFiniteInput { .. } => 400,
            ServeError::PayloadTooLarge { .. } => 413,
            ServeError::Timeout { .. } => 408,
            ServeError::NotFound { .. } => 404,
            ServeError::MethodNotAllowed { .. } => 405,
            ServeError::Checkpoint { .. }
            | ServeError::Config { .. }
            | ServeError::Contract { .. }
            | ServeError::Compile { .. }
            | ServeError::NonFiniteOutput { .. } => 422,
            ServeError::Internal { .. } => 500,
        }
    }

    /// Stable machine-readable code (the `error` field of the JSON body).
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::BadRequest { .. } => "bad_request",
            ServeError::NonFiniteInput { .. } => "non_finite_input",
            ServeError::PayloadTooLarge { .. } => "payload_too_large",
            ServeError::Timeout { .. } => "timeout",
            ServeError::NotFound { .. } => "not_found",
            ServeError::MethodNotAllowed { .. } => "method_not_allowed",
            ServeError::Checkpoint { .. } => "bad_checkpoint",
            ServeError::Config { .. } => "bad_config",
            ServeError::Contract { .. } => "bad_batch",
            ServeError::Compile { .. } => "compile_failed",
            ServeError::NonFiniteOutput { .. } => "non_finite_output",
            ServeError::Internal { .. } => "internal",
        }
    }

    /// Human-readable message.
    pub fn message(&self) -> String {
        match self {
            ServeError::BadRequest { message, .. } | ServeError::NonFiniteInput { message, .. } => {
                message.clone()
            }
            ServeError::PayloadTooLarge { limit, got } => {
                format!("body of {got} bytes exceeds the {limit}-byte limit")
            }
            ServeError::Timeout { what } => format!("timed out reading {what}"),
            ServeError::NotFound { path } => format!("no route for '{path}'"),
            ServeError::MethodNotAllowed { method, path } => {
                format!("method {method} not allowed on '{path}'")
            }
            ServeError::NonFiniteOutput { window } => {
                let what = window.map_or("the window".to_string(), |k| format!("windows[{k}]"));
                format!(
                    "the forecast for {what} is not finite: the input overflowed the \
                     model's forward"
                )
            }
            ServeError::Checkpoint { message }
            | ServeError::Config { message }
            | ServeError::Contract { message }
            | ServeError::Compile { message }
            | ServeError::Internal { message } => message.clone(),
        }
    }

    /// Whether the connection state is still sound after answering this
    /// error (a fully-read request with bad content keeps the connection;
    /// framing and timeout failures close it).
    pub fn recoverable(&self) -> bool {
        !matches!(
            self,
            ServeError::Timeout { .. } | ServeError::PayloadTooLarge { .. }
        )
    }

    /// The JSON error body:
    /// `{"error": code, "message": …[, "line", "column"][, "path"]}`.
    pub fn body(&self) -> Json {
        let mut pairs = vec![
            ("error".to_string(), Json::Str(self.code().to_string())),
            ("message".to_string(), Json::Str(self.message())),
        ];
        match self {
            ServeError::BadRequest { position: Some((line, column)), .. } => {
                pairs.push(("line".to_string(), (*line as u64).into_json()));
                pairs.push(("column".to_string(), (*column as u64).into_json()));
            }
            ServeError::NonFiniteInput { path, .. } => {
                pairs.push(("path".to_string(), Json::Str(path.clone())));
            }
            _ => {}
        }
        Json::Object(pairs)
    }
}

/// Small helper so `error.rs` does not depend on `ToJson` idioms elsewhere.
trait IntoJson {
    fn into_json(self) -> Json;
}

impl IntoJson for u64 {
    fn into_json(self) -> Json {
        Json::Num(lip_serde::Num::U(self))
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({}): {}", self.status(), self.code(), self.message())?;
        if let ServeError::BadRequest { position: Some((l, c)), .. } = self {
            write!(f, " at line {l}, column {c}")?;
        }
        Ok(())
    }
}

impl std::error::Error for ServeError {}

impl From<JsonError> for ServeError {
    fn from(e: JsonError) -> Self {
        match e.kind() {
            JsonErrorKind::NonFinite => ServeError::NonFiniteInput {
                path: e.path().to_string(),
                message: e.to_string(),
            },
            JsonErrorKind::Invalid => ServeError::BadRequest {
                position: e.position(),
                message: e.to_string(),
            },
        }
    }
}
