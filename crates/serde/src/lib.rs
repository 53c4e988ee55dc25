//! # lip-serde
//!
//! Minimal, dependency-free JSON for the workspace: checkpoint headers,
//! layer/config round-trips and the `results/*.json` tables all go through
//! this crate instead of `serde`/`serde_json`.
//!
//! Three pieces:
//!
//! * [`Json`] — an owned JSON value (objects preserve insertion order, so
//!   written files are stable and diffable),
//! * [`ToJson`] / [`FromJson`] — derive-free conversion traits, with the
//!   [`json_struct!`] and [`json_unit_enum!`] macros generating impls for
//!   plain named-field structs and unit-variant enums,
//! * [`to_string`] / [`to_string_pretty`] / [`to_vec`] / [`from_str`] /
//!   [`from_slice`] — the `serde_json`-shaped entry points.
//!
//! Intentional limits (documented, not accidental): numbers are `u64`/`i64`/
//! `f64` (no arbitrary precision), non-finite floats serialize as `null`,
//! an `f32` decodes only from a number that is finite in `f32`, and
//! decoding is strict about types but lenient about extra object keys —
//! the forward-compatibility behaviour checkpoints rely on.

#![forbid(unsafe_code)]

mod parse;
mod write;

pub use parse::parse;

/// An owned JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(Num),
    Str(String),
    Array(Vec<Json>),
    /// Key–value pairs in insertion order (no map: order stability matters
    /// more than lookup speed at these sizes).
    Object(Vec<(String, Json)>),
}

/// A JSON number, kept in its narrowest faithful representation so `u64`
/// seeds and MAC counts survive beyond the 2^53 float window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Num {
    U(u64),
    I(i64),
    F(f64),
}

/// What kind of failure a [`JsonError`] is, for callers that answer the
/// kinds differently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// Malformed text, a type mismatch, a missing field or an integer out
    /// of range.
    Invalid,
    /// A number that is not finite in the float type it decodes to.
    NonFinite,
}

/// Decode / encode failure, optionally carrying the 1-based line/column
/// position in the source text (parse errors attach it; conversion errors
/// are position-less) and the decode path to the offending value
/// (conversion errors record it as they unwind: `windows[1].x[3][0]`).
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    msg: String,
    pos: Option<(usize, usize)>,
    kind: JsonErrorKind,
    /// Rendered decode path, grown at the front as the error unwinds.
    path: String,
}

impl JsonError {
    /// Position-less error (type mismatches, missing fields).
    pub fn new(msg: impl Into<String>) -> Self {
        JsonError {
            msg: msg.into(),
            pos: None,
            kind: JsonErrorKind::Invalid,
            path: String::new(),
        }
    }

    /// Error anchored at a source position (1-based line and column).
    pub fn at(msg: impl Into<String>, line: usize, column: usize) -> Self {
        JsonError {
            pos: Some((line, column)),
            ..JsonError::new(msg)
        }
    }

    /// The source position `(line, column)`, if known.
    pub fn position(&self) -> Option<(usize, usize)> {
        self.pos
    }

    /// What kind of failure this is.
    pub fn kind(&self) -> JsonErrorKind {
        self.kind
    }

    /// Where in the document the failure sits, as `windows[1].x[3][0]`
    /// (empty at the root).
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Record that this error arose inside object field `key`. Decoders
    /// that look fields up without [`Json::field`] call this themselves.
    #[cold]
    pub fn in_field(self, key: &str) -> Self {
        self.inside(key.to_string())
    }

    /// Record that this error arose inside array element `index`.
    #[cold]
    fn in_index(self, index: usize) -> Self {
        self.inside(format!("[{index}]"))
    }

    /// Prepend one path segment; a key that precedes another key gets a `.`.
    fn inside(mut self, mut segment: String) -> Self {
        if self.path.starts_with(|c: char| c != '[') {
            segment.push('.');
        }
        self.path.insert_str(0, &segment);
        self
    }

    /// Prefix the message with surrounding context, keeping the position.
    pub fn with_context(mut self, context: impl std::fmt::Display) -> Self {
        self.msg = format!("{context}: {}", self.msg);
        self
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: ")?;
        if !self.path.is_empty() {
            write!(f, "{}: ", self.path)?;
        }
        write!(f, "{}", self.msg)?;
        if let Some((line, column)) = self.pos {
            write!(f, " at line {line}, column {column}")?;
        }
        Ok(())
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Object lookup by key (None on non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Decode a required object field.
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, JsonError> {
        let v = self
            .get(key)
            .ok_or_else(|| JsonError::new(format!("missing field '{key}'")))?;
        T::from_json(v).map_err(|e| e.in_field(key))
    }

    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(type_err("bool", other)),
        }
    }

    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(type_err("string", other)),
        }
    }

    pub fn as_array(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Array(v) => Ok(v),
            other => Err(type_err("array", other)),
        }
    }

    pub fn as_object(&self) -> Result<&[(String, Json)], JsonError> {
        match self {
            Json::Object(v) => Ok(v),
            other => Err(type_err("object", other)),
        }
    }

    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Num(Num::F(f)) => Ok(*f),
            Json::Num(Num::U(u)) => Ok(*u as f64),
            Json::Num(Num::I(i)) => Ok(*i as f64),
            other => Err(type_err("number", other)),
        }
    }

    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match self {
            Json::Num(Num::U(u)) => Ok(*u),
            Json::Num(Num::I(i)) if *i >= 0 => Ok(*i as u64),
            Json::Num(Num::F(f)) if *f >= 0.0 && f.fract() == 0.0 && *f < 2f64.powi(53) => {
                Ok(*f as u64)
            }
            other => Err(type_err("unsigned integer", other)),
        }
    }

    pub fn as_i64(&self) -> Result<i64, JsonError> {
        match self {
            Json::Num(Num::I(i)) => Ok(*i),
            Json::Num(Num::U(u)) if *u <= i64::MAX as u64 => Ok(*u as i64),
            Json::Num(Num::F(f)) if f.fract() == 0.0 && f.abs() < 2f64.powi(53) => Ok(*f as i64),
            other => Err(type_err("integer", other)),
        }
    }

    /// Compact single-line rendering.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        write::write_compact(self, &mut out);
        out
    }

    /// Indented multi-line rendering (2 spaces, `serde_json`-style).
    pub fn dump_pretty(&self) -> String {
        let mut out = String::new();
        write::write_pretty(self, 0, &mut out);
        out
    }
}

fn type_err(wanted: &str, got: &Json) -> JsonError {
    let kind = match got {
        Json::Null => "null",
        Json::Bool(_) => "bool",
        Json::Num(_) => "number",
        Json::Str(_) => "string",
        Json::Array(_) => "array",
        Json::Object(_) => "object",
    };
    JsonError::new(format!("expected {wanted}, found {kind}"))
}

/// Encode `self` as a [`Json`] value.
pub trait ToJson {
    fn to_json(&self) -> Json;
}

/// Decode `Self` from a [`Json`] value.
pub trait FromJson: Sized {
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

// ---------------------------------------------------------------- primitives

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_bool()
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str().map(str::to_string)
    }
}

macro_rules! json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json { Json::Num(Num::U(*self as u64)) }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let u = v.as_u64()?;
                <$t>::try_from(u).map_err(|_| JsonError::new(
                    format!("{u} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
json_uint!(u8, u16, u32, u64, usize);

macro_rules! json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json { Json::Num(Num::I(*self as i64)) }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let i = v.as_i64()?;
                <$t>::try_from(i).map_err(|_| JsonError::new(
                    format!("{i} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
json_int!(i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(Num::F(*self))
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64()
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        // shortest decimal that round-trips the f32, parsed as f64: keeps
        // files human-readable ("0.1", not "0.10000000149011612") while
        // `as f32` on decode restores the exact bits
        let shortest: f64 = format!("{self:?}").parse().unwrap_or(f64::from(*self));
        Json::Num(Num::F(shortest))
    }
}

impl FromJson for f32 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let wide = v.as_f64()?;
        let narrow = wide as f32;
        if narrow.is_finite() {
            Ok(narrow)
        } else {
            Err(not_finite_f32(wide))
        }
    }
}

/// Kept out of line so the check costs the decode loop one branch.
#[cold]
fn not_finite_f32(wide: f64) -> JsonError {
    JsonError {
        kind: JsonErrorKind::NonFinite,
        ..JsonError::new(format!("{wide:e} is not a finite f32"))
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_array()?
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_json(item).map_err(|e| e.in_index(i)))
            .collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

// ------------------------------------------------------------- entry points

/// Compact encoding, `serde_json::to_string`-shaped.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().dump()
}

/// Pretty (2-space indented) encoding.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().dump_pretty()
}

/// Compact encoding as UTF-8 bytes.
pub fn to_vec<T: ToJson + ?Sized>(value: &T) -> Vec<u8> {
    to_string(value).into_bytes()
}

/// Parse and decode from a `&str`.
pub fn from_str<T: FromJson>(s: &str) -> Result<T, JsonError> {
    T::from_json(&parse(s)?)
}

/// Parse and decode from UTF-8 bytes.
pub fn from_slice<T: FromJson>(bytes: &[u8]) -> Result<T, JsonError> {
    let s = std::str::from_utf8(bytes).map_err(|e| JsonError::new(format!("not utf-8: {e}")))?;
    from_str(s)
}

// ------------------------------------------------------------------- macros

/// Generate [`ToJson`] + [`FromJson`] for a named-field struct. Decoding
/// ignores unknown keys (forward compatible) and requires every listed field.
///
/// ```
/// #[derive(Debug, PartialEq)]
/// struct Point { x: f32, y: f32, label: String }
/// lip_serde::json_struct!(Point { x, y, label });
///
/// let p = Point { x: 1.0, y: -2.5, label: "a".into() };
/// let back: Point = lip_serde::from_str(&lip_serde::to_string(&p)).unwrap();
/// assert_eq!(back, p);
/// ```
#[macro_export]
macro_rules! json_struct {
    ($name:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::ToJson for $name {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Object(vec![
                    $((stringify!($field).to_string(),
                       $crate::ToJson::to_json(&self.$field)),)+
                ])
            }
        }
        impl $crate::FromJson for $name {
            fn from_json(v: &$crate::Json) -> Result<Self, $crate::JsonError> {
                Ok(Self { $($field: v.field(stringify!($field))?,)+ })
            }
        }
    };
}

/// Generate [`ToJson`] + [`FromJson`] for a unit-variant enum, encoded as
/// the variant name string (the representation `serde` used for these
/// enums, so existing result files stay readable).
///
/// ```
/// #[derive(Debug, PartialEq, Clone, Copy)]
/// enum Color { Red, Green }
/// lip_serde::json_unit_enum!(Color { Red, Green });
///
/// assert_eq!(lip_serde::to_string(&Color::Red), "\"Red\"");
/// let c: Color = lip_serde::from_str("\"Green\"").unwrap();
/// assert_eq!(c, Color::Green);
/// ```
#[macro_export]
macro_rules! json_unit_enum {
    ($name:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::ToJson for $name {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Str(match self {
                    $($name::$variant => stringify!($variant).to_string(),)+
                })
            }
        }
        impl $crate::FromJson for $name {
            fn from_json(v: &$crate::Json) -> Result<Self, $crate::JsonError> {
                match v.as_str()? {
                    $(stringify!($variant) => Ok($name::$variant),)+
                    other => Err($crate::JsonError::new(format!(
                        "unknown {} variant '{other}'", stringify!($name)))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrips() {
        assert_eq!(to_string(&true), "true");
        assert_eq!(to_string(&42u64), "42");
        assert_eq!(to_string(&-7i32), "-7");
        assert_eq!(to_string(&1.5f64), "1.5");
        assert_eq!(to_string(&"hi"), "\"hi\"");
        assert!(!from_str::<bool>("false").unwrap());
        assert_eq!(from_str::<usize>("123").unwrap(), 123);
        assert_eq!(from_str::<f32>("0.25").unwrap(), 0.25);
        assert_eq!(from_str::<String>("\"x\\ny\"").unwrap(), "x\ny");
    }

    #[test]
    fn f32_stays_short_and_exact() {
        let v = 0.1f32;
        let s = to_string(&v);
        assert_eq!(s, "0.1");
        assert_eq!(from_str::<f32>(&s).unwrap(), v);
    }

    #[test]
    fn large_u64_survives() {
        let seed = u64::MAX - 3;
        let s = to_string(&seed);
        assert_eq!(from_str::<u64>(&s).unwrap(), seed);
    }

    #[test]
    fn vec_and_option() {
        let v = vec![1usize, 2, 3];
        assert_eq!(to_string(&v), "[1,2,3]");
        assert_eq!(from_str::<Vec<usize>>("[1,2,3]").unwrap(), v);
        assert_eq!(to_string(&Option::<u32>::None), "null");
        assert_eq!(from_str::<Option<u32>>("null").unwrap(), None);
        assert_eq!(from_str::<Option<u32>>("9").unwrap(), Some(9));
    }

    #[derive(Debug, PartialEq)]
    struct Demo {
        n: usize,
        name: String,
        ratio: f32,
        flags: Vec<bool>,
    }
    json_struct!(Demo { n, name, ratio, flags });

    #[test]
    fn struct_macro_roundtrip() {
        let d = Demo {
            n: 8,
            name: "patch".into(),
            ratio: 0.5,
            flags: vec![true, false],
        };
        let s = to_string(&d);
        assert_eq!(s, r#"{"n":8,"name":"patch","ratio":0.5,"flags":[true,false]}"#);
        assert_eq!(from_str::<Demo>(&s).unwrap(), d);
    }

    #[test]
    fn struct_decode_ignores_unknown_keys() {
        let s = r#"{"n":1,"name":"x","ratio":2.0,"flags":[],"future_field":99}"#;
        assert_eq!(from_str::<Demo>(s).unwrap().n, 1);
    }

    #[test]
    fn struct_decode_reports_missing_field() {
        let e = from_str::<Demo>(r#"{"n":1}"#).unwrap_err();
        assert!(e.to_string().contains("missing field 'name'"), "{e}");
    }

    #[derive(Debug, PartialEq, Clone, Copy)]
    enum Mode {
        Fast,
        Slow,
    }
    json_unit_enum!(Mode { Fast, Slow });

    #[test]
    fn enum_macro_roundtrip() {
        assert_eq!(to_string(&Mode::Fast), "\"Fast\"");
        assert_eq!(from_str::<Mode>("\"Slow\"").unwrap(), Mode::Slow);
        assert!(from_str::<Mode>("\"Medium\"").is_err());
    }

    #[test]
    fn pretty_output_is_indented_and_reparses() {
        let d = Demo {
            n: 2,
            name: "p".into(),
            ratio: 1.0,
            flags: vec![true],
        };
        let pretty = to_string_pretty(&d);
        assert!(pretty.contains("\n  \"n\": 2"), "{pretty}");
        assert_eq!(from_str::<Demo>(&pretty).unwrap(), d);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(to_string(&f64::NAN), "null");
        assert_eq!(to_string(&f64::INFINITY), "null");
    }

    #[test]
    fn f32_decode_rejects_overflow() {
        assert_eq!(from_str::<f32>("3.4028235e38").unwrap(), f32::MAX);
        assert_eq!(from_str::<f32>("-3.4028235e38").unwrap(), f32::MIN);
        for big in ["1e39", "-1e39", "1e308"] {
            let err = from_str::<f32>(big).unwrap_err();
            assert!(err.to_string().contains("not a finite f32"), "{big}: {err}");
        }
        assert_eq!(f32::from_json(&Json::Num(Num::F(f64::NAN))).map_err(|_| ()), Err(()));
    }

    #[test]
    fn errors_name_their_decode_path() {
        struct Window {
            _x: Vec<Vec<f32>>,
        }
        impl FromJson for Window {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                Ok(Window { _x: v.field("x")? })
            }
        }
        struct Request {
            _windows: Vec<Window>,
        }
        impl FromJson for Request {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                Ok(Request { _windows: v.field("windows")? })
            }
        }

        let doc = r#"{"windows": [{"x": [[1]]}, {"x": [[1], [2], [3], [1e39]]}]}"#;
        let e = from_str::<Request>(doc).err().unwrap();
        assert_eq!(e.path(), "windows[1].x[3][0]");
        assert_eq!(e.kind(), JsonErrorKind::NonFinite);
        assert_eq!(e.to_string(), "json error: windows[1].x[3][0]: 1e39 is not a finite f32");

        // a missing field names the object it is missing from
        let e = from_str::<Request>(r#"{"windows": [{"x": []}, {}]}"#).err().unwrap();
        assert_eq!((e.path(), e.kind()), ("windows[1]", JsonErrorKind::Invalid));
        assert!(e.to_string().ends_with("windows[1]: missing field 'x'"), "{e}");
        // an array at the root starts the path with its index
        let e = from_str::<Vec<Vec<u8>>>("[[1], [2, 300]]").unwrap_err();
        assert_eq!(e.path(), "[1][1]");
        // parse errors keep their position and carry no path
        let e = from_str::<Request>(r#"{"windows": [}"#).err().unwrap();
        assert!(e.position().is_some() && e.path().is_empty(), "{e}");
    }
}
