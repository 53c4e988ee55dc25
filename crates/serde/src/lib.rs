//! # lip-serde
//!
//! Minimal, dependency-free JSON for the workspace: checkpoint headers,
//! layer/config round-trips, the `results/*.json` tables and the serving
//! protocol all go through this crate instead of `serde`/`serde_json`.
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
//! One grammar reads everything: [`Parser`] builds [`Json`] trees
//! ([`parse`]) and drives the typed decoders. [`from_str`] and
//! [`from_slice`] call [`FromJson::from_text`], which reads numbers,
//! strings, `bool`s, `Vec`s, `Option`s and [`json_struct!`] types straight
//! from the text and, by default, decodes any other type through a
//! [`Json`] tree. [`to_string`] and [`to_vec`] call [`ToJson::write_json`],
//! which writes the same types straight into the output and, by default,
//! renders any other type's tree. Both paths give the tree's exact bytes
//! and values:
//!
//! * a number's value is computed in the scan that checks its syntax:
//!   integers that fit are `u64`/`i64` (so `-0` is the integer 0), and
//!   everything else is the correctly rounded `f64`, by Clinger's exact
//!   fast path for up to 19 significant digits, a mantissa of at most 2^53
//!   and a decimal exponent within ±22, and by `str::parse` otherwise;
//! * an `f32` decodes through that `f64` (`as f32`), and writes as its
//!   shortest round-trip decimal (`{:?}`);
//! * a syntax error anywhere in the document wins over a decode error;
//!   of two decode errors, the first in document order is reported, and a
//!   missing field is found at the end of its object. Of duplicate object
//!   keys the first wins, as in [`Json::get`].
//!
//! Intentional limits (documented, not accidental): numbers are `u64`/`i64`/
//! `f64` (no arbitrary precision), non-finite floats serialize as `null`,
//! an `f32` decodes only from a number that is finite in `f32`, and
//! decoding is strict about types but lenient about extra object keys —
//! the forward-compatibility behaviour checkpoints rely on.

#![forbid(unsafe_code)]

mod parse;
mod write;

pub use parse::{parse, Kind, Parser};

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

impl Num {
    /// The value as an `f64` (integers beyond 2^53 round).
    pub(crate) fn as_f64(self) -> f64 {
        match self {
            Num::F(f) => f,
            Num::U(u) => u as f64,
            Num::I(i) => i as f64,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer (a float only
    /// below 2^53, where it is exact).
    pub(crate) fn as_u64(self) -> Option<u64> {
        match self {
            Num::U(u) => Some(u),
            Num::I(i) if i >= 0 => Some(i as u64),
            Num::F(f) if f >= 0.0 && f.fract() == 0.0 && f < 2f64.powi(53) => Some(f as u64),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer in range (a float only
    /// below 2^53 in magnitude).
    pub(crate) fn as_i64(self) -> Option<i64> {
        match self {
            Num::I(i) => Some(i),
            Num::U(u) if u <= i64::MAX as u64 => Some(u as i64),
            Num::F(f) if f.fract() == 0.0 && f.abs() < 2f64.powi(53) => Some(f as i64),
            _ => None,
        }
    }
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

/// Decode / encode failure. A syntax error carries the 1-based line/column
/// position in the source text and no decode path; a decode error (a type
/// mismatch, a missing field, a number out of range) is position-less and
/// records the decode path to the offending value as it unwinds
/// (`windows[1].x[3][0]`).
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError(Box<ErrorDetail>);

/// Boxed so a `Result` carrying a `JsonError` stays one pointer wide on
/// the decode paths, where errors are rare.
#[derive(Debug, Clone, PartialEq)]
struct ErrorDetail {
    msg: String,
    pos: Option<(usize, usize)>,
    kind: JsonErrorKind,
    /// Rendered decode path, grown at the front as the error unwinds.
    path: String,
}

impl JsonError {
    /// Position-less error (type mismatches, missing fields).
    pub fn new(msg: impl Into<String>) -> Self {
        JsonError(Box::new(ErrorDetail {
            msg: msg.into(),
            pos: None,
            kind: JsonErrorKind::Invalid,
            path: String::new(),
        }))
    }

    /// Error anchored at a source position (1-based line and column).
    pub fn at(msg: impl Into<String>, line: usize, column: usize) -> Self {
        let mut e = JsonError::new(msg);
        e.0.pos = Some((line, column));
        e
    }

    /// The type mismatch `expected {wanted}, found {found}`.
    #[cold]
    pub fn expected(wanted: &str, found: Kind) -> Self {
        JsonError::new(format!("expected {wanted}, found {}", found.name()))
    }

    /// A required object field `key` that is absent.
    #[cold]
    pub fn missing(key: &str) -> Self {
        JsonError::new(format!("missing field '{key}'"))
    }

    /// The source position `(line, column)`, if known.
    pub fn position(&self) -> Option<(usize, usize)> {
        self.0.pos
    }

    /// What kind of failure this is.
    pub fn kind(&self) -> JsonErrorKind {
        self.0.kind
    }

    /// Where in the document the failure sits, as `windows[1].x[3][0]`
    /// (empty at the root).
    pub fn path(&self) -> &str {
        &self.0.path
    }

    /// Record that this error arose inside object field `key`. Decoders
    /// that look fields up without [`Json::field`] call this themselves.
    #[cold]
    pub fn in_field(self, key: &str) -> Self {
        self.inside(key.to_string())
    }

    /// Record that this error arose inside array element `index`.
    #[cold]
    pub fn in_index(self, index: usize) -> Self {
        self.inside(format!("[{index}]"))
    }

    /// Prepend one path segment; a key that precedes another key gets a `.`.
    /// Syntax errors keep their position instead of a path.
    fn inside(mut self, mut segment: String) -> Self {
        if self.0.pos.is_some() {
            return self;
        }
        if self.0.path.starts_with(|c: char| c != '[') {
            segment.push('.');
        }
        self.0.path.insert_str(0, &segment);
        self
    }

    /// Prefix the message with surrounding context, keeping the position.
    pub fn with_context(mut self, context: impl std::fmt::Display) -> Self {
        self.0.msg = format!("{context}: {}", self.0.msg);
        self
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: ")?;
        if !self.0.path.is_empty() {
            write!(f, "{}: ", self.0.path)?;
        }
        write!(f, "{}", self.0.msg)?;
        if let Some((line, column)) = self.0.pos {
            write!(f, " at line {line}, column {column}")?;
        }
        Ok(())
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Object lookup by key (None on non-objects or missing keys; of
    /// duplicate keys the first wins).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Decode a required object field.
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, JsonError> {
        let v = self.get(key).ok_or_else(|| JsonError::missing(key))?;
        T::from_json(v).map_err(|e| e.in_field(key))
    }

    /// The kind of this value, as [`Parser::kind`] reports it from text.
    pub(crate) fn kind(&self) -> Kind {
        match self {
            Json::Null => Kind::Null,
            Json::Bool(_) => Kind::Bool,
            Json::Num(_) => Kind::Number,
            Json::Str(_) => Kind::String,
            Json::Array(_) => Kind::Array,
            Json::Object(_) => Kind::Object,
        }
    }

    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError::expected("bool", other.kind())),
        }
    }

    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(JsonError::expected("string", other.kind())),
        }
    }

    pub fn as_array(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Array(v) => Ok(v),
            other => Err(JsonError::expected("array", other.kind())),
        }
    }

    pub fn as_object(&self) -> Result<&[(String, Json)], JsonError> {
        match self {
            Json::Object(v) => Ok(v),
            other => Err(JsonError::expected("object", other.kind())),
        }
    }

    pub fn as_f64(&self) -> Result<f64, JsonError> {
        self.num("number").map(Num::as_f64)
    }

    pub fn as_u64(&self) -> Result<u64, JsonError> {
        const WANTED: &str = "unsigned integer";
        self.num(WANTED)?
            .as_u64()
            .ok_or_else(|| JsonError::expected(WANTED, Kind::Number))
    }

    pub fn as_i64(&self) -> Result<i64, JsonError> {
        const WANTED: &str = "integer";
        self.num(WANTED)?
            .as_i64()
            .ok_or_else(|| JsonError::expected(WANTED, Kind::Number))
    }

    fn num(&self, wanted: &str) -> Result<Num, JsonError> {
        match self {
            Json::Num(n) => Ok(*n),
            other => Err(JsonError::expected(wanted, other.kind())),
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

/// Encode `self` as a [`Json`] value.
pub trait ToJson {
    fn to_json(&self) -> Json;

    /// Append `self`'s compact encoding to `out`: exactly the bytes of
    /// `self.to_json().dump()`. The default builds that tree; numbers,
    /// strings, `Vec`s, `Option`s and [`json_struct!`] types write
    /// directly.
    fn write_json(&self, out: &mut String) {
        write::write_compact(&self.to_json(), out);
    }
}

/// Decode `Self` from a [`Json`] value.
pub trait FromJson: Sized {
    fn from_json(v: &Json) -> Result<Self, JsonError>;

    /// Read `Self` from the next value in `p`. The value equals
    /// `Self::from_json(&p.value()?)`, and so does the error when the
    /// value holds one fault. The default builds that tree; numbers,
    /// strings, `Vec`s, `Option`s and [`json_struct!`] types read
    /// directly.
    fn from_text(p: &mut Parser<'_>) -> Result<Self, JsonError> {
        Self::from_json(&p.value()?)
    }
}

/// Read the next value in `p` as a number, or the type mismatch naming
/// `wanted`.
fn number(p: &mut Parser<'_>, wanted: &str) -> Result<Num, JsonError> {
    match p.kind()? {
        Kind::Number => p.number(),
        other => Err(JsonError::expected(wanted, other)),
    }
}

/// `w` as a `T`, or the range error naming `ty`.
fn fit<T: TryFrom<W>, W: Copy + std::fmt::Display>(w: W, ty: &str) -> Result<T, JsonError> {
    T::try_from(w).map_err(|_| JsonError::new(format!("{w} out of range for {ty}")))
}

// ---------------------------------------------------------------- primitives

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }

    fn write_json(&self, out: &mut String) {
        write::write_compact(self, out);
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.clone())
    }

    fn from_text(p: &mut Parser<'_>) -> Result<Self, JsonError> {
        p.value()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }

    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_bool()
    }

    fn from_text(p: &mut Parser<'_>) -> Result<Self, JsonError> {
        match p.kind()? {
            Kind::Bool => p.boolean(),
            other => Err(JsonError::expected("bool", other)),
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }

    fn write_json(&self, out: &mut String) {
        write::write_string(self, out);
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }

    fn write_json(&self, out: &mut String) {
        write::write_string(self, out);
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str().map(str::to_string)
    }

    fn from_text(p: &mut Parser<'_>) -> Result<Self, JsonError> {
        match p.kind()? {
            Kind::String => p.string(),
            other => Err(JsonError::expected("string", other)),
        }
    }
}

macro_rules! json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json { Json::Num(Num::U(*self as u64)) }
            fn write_json(&self, out: &mut String) { write::write_num(Num::U(*self as u64), out) }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                fit(v.as_u64()?, stringify!($t))
            }
            fn from_text(p: &mut Parser<'_>) -> Result<Self, JsonError> {
                const WANTED: &str = "unsigned integer";
                let u = number(p, WANTED)?
                    .as_u64()
                    .ok_or_else(|| JsonError::expected(WANTED, Kind::Number))?;
                fit(u, stringify!($t))
            }
        }
    )*};
}
json_uint!(u8, u16, u32, u64, usize);

macro_rules! json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json { Json::Num(Num::I(*self as i64)) }
            fn write_json(&self, out: &mut String) { write::write_num(Num::I(*self as i64), out) }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                fit(v.as_i64()?, stringify!($t))
            }
            fn from_text(p: &mut Parser<'_>) -> Result<Self, JsonError> {
                const WANTED: &str = "integer";
                let i = number(p, WANTED)?
                    .as_i64()
                    .ok_or_else(|| JsonError::expected(WANTED, Kind::Number))?;
                fit(i, stringify!($t))
            }
        }
    )*};
}
json_int!(i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(Num::F(*self))
    }

    fn write_json(&self, out: &mut String) {
        write::write_num(Num::F(*self), out);
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64()
    }

    fn from_text(p: &mut Parser<'_>) -> Result<Self, JsonError> {
        number(p, "number").map(Num::as_f64)
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

    fn write_json(&self, out: &mut String) {
        write::write_f32(*self, out);
    }
}

impl FromJson for f32 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        narrow(v.as_f64()?)
    }

    fn from_text(p: &mut Parser<'_>) -> Result<Self, JsonError> {
        narrow(number(p, "number")?.as_f64())
    }
}

/// An `f64` as the `f32` it rounds to, if that is finite.
fn narrow(wide: f64) -> Result<f32, JsonError> {
    let narrow = wide as f32;
    if narrow.is_finite() {
        Ok(narrow)
    } else {
        Err(not_finite_f32(wide))
    }
}

/// Kept out of line so the check costs the decode loop one branch.
#[cold]
fn not_finite_f32(wide: f64) -> JsonError {
    let mut e = JsonError::new(format!("{wide:e} is not a finite f32"));
    e.0.kind = JsonErrorKind::NonFinite;
    e
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }

    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }

    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out);
        }
        out.push(']');
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

    fn from_text(p: &mut Parser<'_>) -> Result<Self, JsonError> {
        let mut items = Vec::new();
        p.elements(|p, i| {
            items.push(T::from_text(p).map_err(|e| e.in_index(i))?);
            Ok(())
        })?;
        Ok(items)
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
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

    fn from_text(p: &mut Parser<'_>) -> Result<Self, JsonError> {
        if p.kind()? == Kind::Null {
            p.skip().map(|()| None)
        } else {
            T::from_text(p).map(Some)
        }
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }

    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

// ------------------------------------------------------------- entry points

/// Compact encoding, `serde_json::to_string`-shaped.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out);
    out
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
    read_str(s, T::from_text)
}

/// Parse and decode from UTF-8 bytes.
pub fn from_slice<T: FromJson>(bytes: &[u8]) -> Result<T, JsonError> {
    from_slice_with(bytes, T::from_text)
}

/// Decode the one document in `bytes` with `read`, for decoders that are
/// not a [`FromJson`] type (a request walked key by key). `read` consumes
/// one value; trailing text is an error, and a syntax error anywhere in
/// the document is reported in place of any decode error `read` returns.
pub fn from_slice_with<T>(
    bytes: &[u8],
    read: impl FnOnce(&mut Parser<'_>) -> Result<T, JsonError>,
) -> Result<T, JsonError> {
    let s = std::str::from_utf8(bytes).map_err(|e| JsonError::new(format!("not utf-8: {e}")))?;
    read_str(s, read)
}

fn read_str<T>(
    s: &str,
    read: impl FnOnce(&mut Parser<'_>) -> Result<T, JsonError>,
) -> Result<T, JsonError> {
    let mut p = Parser::new(s);
    let read = read(&mut p).and_then(|v| p.finish().map(|()| v));
    read.map_err(|e| match e.position() {
        // the first syntax error in document order, as a tree parse gives
        Some(_) => e,
        None => first_syntax_error(s).unwrap_or(e),
    })
}

/// The syntax error a tree parse of `s` would report, if any.
#[cold]
fn first_syntax_error(s: &str) -> Option<JsonError> {
    let mut p = Parser::new(s);
    p.skip().and_then(|()| p.finish()).err()
}

// ------------------------------------------------------------------- macros

/// Generate [`ToJson`] + [`FromJson`] for a named-field struct. Decoding
/// ignores unknown keys (forward compatible) and requires every listed
/// field; of duplicate keys the first wins. Both directions also get the
/// direct text paths ([`ToJson::write_json`], [`FromJson::from_text`]).
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

            fn write_json(&self, out: &mut String) {
                let open = out.len();
                $(
                    out.push(',');
                    $crate::ToJson::write_json(stringify!($field), out);
                    out.push(':');
                    $crate::ToJson::write_json(&self.$field, out);
                )+
                // the first separator opens the object
                out.replace_range(open..=open, "{");
                out.push('}');
            }
        }
        impl $crate::FromJson for $name {
            fn from_json(v: &$crate::Json) -> Result<Self, $crate::JsonError> {
                Ok(Self { $($field: v.field(stringify!($field))?,)+ })
            }

            fn from_text(p: &mut $crate::Parser<'_>) -> Result<Self, $crate::JsonError> {
                $(let mut $field = None;)+
                p.members(|p, key| {
                    match key {
                        $(stringify!($field) if $field.is_none() => {
                            $field = Some($crate::FromJson::from_text(p)
                                .map_err(|e: $crate::JsonError| e.in_field(key))?);
                        })+
                        _ => p.skip()?,
                    }
                    Ok(())
                })?;
                Ok(Self {
                    $($field: $field
                        .ok_or_else(|| $crate::JsonError::missing(stringify!($field)))?,)+
                })
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

    /// The decode `from_str` did before it read text directly.
    fn tree_decode<T: FromJson>(s: &str) -> Result<T, JsonError> {
        T::from_json(&parse(s)?)
    }

    #[test]
    fn text_decode_keeps_the_tree_decode_rules() {
        // one fault: the same error, position and path as the tree decode
        for doc in [
            r#"{"n":1,"name":"a","ratio":0.5}"#,
            r#"{"n":1,"name":"a","ratio":1e39,"flags":[]}"#,
            r#"{"n":1,"name":"a","ratio":0.5,"flags":[true,0]}"#,
            r#"{"n":-1,"name":"a","ratio":0.5,"flags":[]}"#,
            r#"{"n":1,"name":null,"ratio":0.5,"flags":[]}"#,
            r#"{"n":1,"name":"a","ratio":0.5,"flags":[tru]}"#,
            r#"{"n":1,"name":"a","ratio":0.5,"flags":[]} x"#,
            r#"[{"n":1}]"#,
            "7",
        ] {
            let text = from_str::<Demo>(doc).unwrap_err();
            assert_eq!(Err(text), tree_decode::<Demo>(doc), "{doc}");
        }
        // the first of duplicate keys wins, even over a later bad value
        let doc = r#"{"n":1,"name":"a","n":"two","ratio":0.5,"flags":[]}"#;
        assert_eq!(from_str::<Demo>(doc).unwrap().n, 1);
        assert_eq!(from_str::<Demo>(doc).unwrap(), tree_decode::<Demo>(doc).unwrap());
        // a syntax error later in the document beats an earlier decode error
        let doc = r#"{"n":"one","name":"a","ratio":0.5,"flags":[tru]}"#;
        let e = from_str::<Demo>(doc).unwrap_err();
        assert!(e.position().is_some() && e.path().is_empty(), "{e}");
        assert_eq!(Err(e), tree_decode::<Demo>(doc));
        // a syntax error met inside a nested value carries no decode path
        let e = from_str::<Vec<Vec<f32>>>("[[1, 2], [3, x]]").unwrap_err();
        assert_eq!((e.position(), e.path()), (Some((1, 14)), ""), "{e}");
        // of two decode errors the first in document order is reported,
        // where the tree decode reports the first declared field's
        let doc = r#"{"flags":[1],"n":-1,"name":"a","ratio":0.5}"#;
        assert_eq!(from_str::<Demo>(doc).unwrap_err().path(), "flags[0]");
        assert_eq!(tree_decode::<Demo>(doc).unwrap_err().path(), "n");
        // the nesting limit holds inside a skipped unknown key
        let deep = format!(
            r#"{{"n":1,"name":"a","ratio":0.5,"flags":[],"x":{}{}}}"#,
            "[".repeat(200),
            "]".repeat(200)
        );
        let e = from_str::<Demo>(&deep).unwrap_err();
        assert!(e.to_string().contains("nesting too deep"), "{e}");
        assert_eq!(Err(e), tree_decode::<Demo>(&deep));
    }

    #[test]
    fn integer_minus_zero_decodes_to_positive_zero() {
        // "-0" is the integer 0, so an f32 gets +0.0 (a plain parse as
        // f64 would give -0.0); "-0.0" is a float and keeps its sign
        assert_eq!(from_str::<f32>("-0").unwrap().to_bits(), 0);
        assert_eq!(from_str::<f32>("-0.0").unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(from_str::<Vec<f32>>("[-0]").unwrap()[0].to_bits(), 0);
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
