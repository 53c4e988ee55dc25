//! The one JSON grammar (RFC 8259): a strict recursive-descent [`Parser`]
//! that both builds [`Json`] trees and drives the typed decoders, with a
//! fixed nesting limit so corrupted or hostile inputs fail with an error
//! instead of a stack overflow.

use std::borrow::Cow;

use crate::{Json, JsonError, Num};

const MAX_DEPTH: usize = 128;

/// Exact powers of ten for Clinger's fast path: every one up to 10^22 is
/// an integer below 2^53 · 2^22 whose odd part (5^k ≤ 5^22 < 2^53) fits
/// the f64 mantissa, so each literal is exactly representable.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser::new(input);
    let v = p.value()?;
    p.finish()?;
    Ok(v)
}

/// What the next value is, judged by its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Null,
    Bool,
    Number,
    String,
    Array,
    Object,
}

impl Kind {
    /// The name type-mismatch errors use (`expected array, found null`).
    pub(crate) fn name(self) -> &'static str {
        match self {
            Kind::Null => "null",
            Kind::Bool => "bool",
            Kind::Number => "number",
            Kind::String => "string",
            Kind::Array => "array",
            Kind::Object => "object",
        }
    }
}

/// A cursor over one JSON document. [`Parser::value`] builds a [`Json`]
/// tree from it; typed decoders ([`crate::FromJson::from_text`]) read the
/// same tokens straight into their own types. Syntax errors carry a
/// 1-based line/column and no decode path; every value, however it is
/// read, is checked against the same nesting limit.
pub struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    /// A parser at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 }
    }

    /// Require that nothing but whitespace follows the document.
    pub fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters after document"))
        }
    }

    /// Error anchored at the current byte, reported as 1-based line/column.
    #[cold]
    fn err(&self, msg: impl std::fmt::Display) -> JsonError {
        let (line, column) = self.line_column();
        JsonError::at(msg.to_string(), line, column)
    }

    /// 1-based (line, column) of the current position, counting `\n`s.
    fn line_column(&self) -> (usize, usize) {
        let upto = &self.bytes[..self.pos.min(self.bytes.len())];
        let line = 1 + upto.iter().filter(|&&b| b == b'\n').count();
        let line_start = upto
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        (line, self.pos - line_start + 1)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(format!("invalid literal (expected '{lit}')")))
        }
    }

    /// Skip whitespace and report the kind of the value that starts there.
    /// A position past the nesting limit, the end of input or a byte no
    /// value starts with is a syntax error.
    pub fn kind(&mut self) -> Result<Kind, JsonError> {
        self.skip_ws();
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => Ok(Kind::Object),
            Some(b'[') => Ok(Kind::Array),
            Some(b'"') => Ok(Kind::String),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'n') => Ok(Kind::Null),
            Some(b'-' | b'0'..=b'9') => Ok(Kind::Number),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Read the next value as a [`Json`] tree.
    pub fn value(&mut self) -> Result<Json, JsonError> {
        Ok(match self.kind()? {
            Kind::Object => {
                let mut pairs = Vec::new();
                self.members(|p, key| {
                    let value = p.value()?;
                    pairs.push((key.to_string(), value));
                    Ok(())
                })?;
                Json::Object(pairs)
            }
            Kind::Array => {
                let mut items = Vec::new();
                self.elements(|p, _| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Json::Array(items)
            }
            Kind::String => Json::Str(self.string()?),
            Kind::Bool => Json::Bool(self.boolean()?),
            Kind::Null => {
                self.literal("null")?;
                Json::Null
            }
            Kind::Number => Json::Num(self.number()?),
        })
    }

    /// Check the next value's syntax and step over it.
    pub fn skip(&mut self) -> Result<(), JsonError> {
        match self.kind()? {
            Kind::Object => self.members(|p, _| p.skip()),
            Kind::Array => self.elements(|p, _| p.skip()),
            Kind::String => self.str_token().map(drop),
            Kind::Bool => self.boolean().map(drop),
            Kind::Null => self.literal("null"),
            Kind::Number => self.number().map(drop),
        }
    }

    /// Walk an array, calling `each(parser, index)` once per element; each
    /// call must consume its element (decode or [`Parser::skip`] it). Any
    /// other value is an `expected array` decode error.
    pub fn elements(
        &mut self,
        mut each: impl FnMut(&mut Self, usize) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        let kind = self.kind()?;
        if kind != Kind::Array {
            return Err(JsonError::expected("array", kind));
        }
        self.pos += 1;
        self.depth += 1;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        let mut index = 0;
        loop {
            each(self, index)?;
            index += 1;
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => {
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    /// Walk an object, calling `each(parser, key)` once per member in
    /// document order; each call must consume the member's value (decode
    /// or [`Parser::skip`] it). A value that is not an object is skipped as
    /// if it had no members, the way [`Json::get`] finds no key in it, so
    /// decoders report the fields it lacks.
    pub fn members(
        &mut self,
        mut each: impl FnMut(&mut Self, &str) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if self.kind()? != Kind::Object {
            return self.skip();
        }
        self.pos += 1;
        self.depth += 1;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.str_token().map_err(|e| e.with_context("object key"))?;
            self.skip_ws();
            self.expect(b':')?;
            each(self, &key)?;
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => {
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    /// Read a `true` or `false` literal.
    pub(crate) fn boolean(&mut self) -> Result<bool, JsonError> {
        self.skip_ws();
        if self.peek() == Some(b't') {
            self.literal("true").map(|()| true)
        } else {
            self.literal("false").map(|()| false)
        }
    }

    /// Read a string value.
    pub(crate) fn string(&mut self) -> Result<String, JsonError> {
        self.skip_ws();
        self.str_token().map(Cow::into_owned)
    }

    /// A string token, borrowed from the input when it holds no escapes.
    fn str_token(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // fast path: step over the unescaped run in one go
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // the run stopped on an ASCII byte, so it ends on a char boundary
            let run = &self.text[start..self.pos];
            match self.bump() {
                Some(b'"') if out.is_empty() => return Ok(Cow::Borrowed(run)),
                Some(b'"') => {
                    out.push_str(run);
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    out.push_str(run);
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Decode the escape after a `\` onto `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        match self.bump() {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'b') => out.push('\u{0008}'),
            Some(b'f') => out.push('\u{000C}'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'u') => {
                let hi = self.hex4()?;
                let c = if (0xD800..0xDC00).contains(&hi) {
                    // surrogate pair
                    if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                        return Err(self.err("unpaired surrogate"));
                    }
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    char::from_u32(code).ok_or_else(|| self.err("invalid codepoint"))?
                } else if (0xDC00..0xE000).contains(&hi) {
                    return Err(self.err("unexpected low surrogate"));
                } else {
                    char::from_u32(hi).ok_or_else(|| self.err("invalid codepoint"))?
                };
                out.push(c);
            }
            _ => return Err(self.err("invalid escape")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.bump().ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    /// Read a number, computing its value in the same pass that checks its
    /// syntax. An integer literal that fits is [`Num::U`] (non-negative) or
    /// [`Num::I`] (negative, so `-0` is `I(0)`); anything else is the
    /// correctly rounded [`Num::F`]. Up to 19 significant digits, a
    /// mantissa of at most 2^53 and a decimal exponent within ±22 take
    /// Clinger's fast path — one exact `u64 → f64` conversion and one
    /// correctly rounded multiply or divide by an exact power of ten —
    /// and every other literal goes to `str::parse`.
    pub fn number(&mut self) -> Result<Num, JsonError> {
        self.skip_ws();
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // the digits after leading zeros, while there are at most 19 of
        // them (so they fit a u64); one more sends the literal to the slow
        // path, which then ignores `mantissa` and `exp10`
        let mut mantissa = 0u64;
        let mut digits = 0u32;
        let mut exp10 = 0i64;
        let mut accumulate = |d: u8| {
            if digits < 19 {
                mantissa = mantissa * 10 + u64::from(d - b'0');
                digits += u32::from(mantissa != 0);
            } else {
                digits = 20;
            }
        };
        // integer part
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while let Some(d @ b'0'..=b'9') = self.peek() {
                    accumulate(d);
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required after decimal point"));
            }
            while let Some(d @ b'0'..=b'9') = self.peek() {
                accumulate(d);
                exp10 -= 1;
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            let negative_exp = self.peek() == Some(b'-');
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required in exponent"));
            }
            // saturating: any exponent this large leaves the fast path
            let mut e = 0i64;
            while let Some(d @ b'0'..=b'9') = self.peek() {
                e = (e * 10 + i64::from(d - b'0')).min(1 << 32);
                self.pos += 1;
            }
            exp10 += if negative_exp { -e } else { e };
        }
        let exact = digits <= 19;
        if !is_float && exact {
            if !negative {
                return Ok(Num::U(mantissa));
            }
            if let Ok(i) = i64::try_from(-i128::from(mantissa)) {
                return Ok(Num::I(i));
            }
        }
        if exact && mantissa <= 1 << 53 && exp10.abs() <= 22 {
            let scale = POW10[exp10.unsigned_abs() as usize];
            let magnitude = if exp10 < 0 {
                mantissa as f64 / scale
            } else {
                mantissa as f64 * scale
            };
            return Ok(Num::F(if negative { -magnitude } else { magnitude }));
        }
        self.slow_number(start, is_float)
    }

    /// The general rule for literals the fast path cannot take exactly:
    /// integers parsed at full width, then `str::parse::<f64>`.
    #[cold]
    fn slow_number(&self, start: usize, is_float: bool) -> Result<Num, JsonError> {
        // the scan consumed ASCII only, so both ends are char boundaries
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Some(stripped) = text.strip_prefix('-') {
                if let Ok(u) = stripped.parse::<u64>() {
                    if let Ok(i) = i64::try_from(-i128::from(u)) {
                        return Ok(Num::I(i));
                    }
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Num::U(u));
            }
            // fall through to float on overflow
        }
        text.parse::<f64>()
            .map(Num::F)
            .map_err(|_| self.err("unparseable number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#" {"a": [1, -2.5, {"b": null}], "c": "xAy"} "#).unwrap();
        assert_eq!(v.get("c").unwrap().as_str().unwrap(), "xAy");
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_u64().unwrap(), 1);
        assert_eq!(arr[1].as_f64().unwrap(), -2.5);
        assert_eq!(arr[2].get("b"), Some(&Json::Null));
    }

    #[test]
    fn surrogate_pair_decodes() {
        let v = parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "😀");
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "", "{", "[1,", "tru", "\"unterminated", "01", "1.", "{\"a\" 1}",
            "[1] tail", "nul", "+1", "'single'", "\u{1}",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        let e = parse(&deep).unwrap_err();
        assert!(e.to_string().contains("nesting too deep"), "{e}");
    }

    #[test]
    fn integer_width_preserved() {
        assert_eq!(parse("18446744073709551615").unwrap().as_u64().unwrap(), u64::MAX);
        assert_eq!(
            parse("-9223372036854775808").unwrap().as_i64().unwrap(),
            i64::MIN
        );
        // beyond u64: degrades to float rather than failing
        assert!(parse("18446744073709551616").unwrap().as_f64().unwrap() > 1.8e19);
    }

    #[test]
    fn errors_carry_line_and_column() {
        // the '!' sits on line 3, column 8
        let e = parse("{\n  \"a\": 1,\n  \"b\": !\n}").unwrap_err();
        assert_eq!(e.position(), Some((3, 8)), "{e}");
        assert!(e.to_string().contains("line 3, column 8"), "{e}");
        // single-line input: column counts from 1
        let e = parse("[1, x]").unwrap_err();
        assert_eq!(e.position(), Some((1, 5)), "{e}");
    }

    #[test]
    fn exponents_parse() {
        assert_eq!(parse("1e3").unwrap().as_f64().unwrap(), 1000.0);
        assert_eq!(parse("-2.5E-2").unwrap().as_f64().unwrap(), -0.025);
    }

    #[test]
    fn fast_and_slow_paths_pick_the_same_variants() {
        let num = |s: &str| Parser::new(s).number().unwrap();
        assert_eq!(num("-0"), Num::I(0));
        assert_eq!(num("0"), Num::U(0));
        assert_eq!(num("-9223372036854775808"), Num::I(i64::MIN));
        assert_eq!(num("-9223372036854775809"), Num::F(-9223372036854775809.0));
        assert_eq!(num("9007199254740993"), Num::U(9_007_199_254_740_993));
        assert_eq!(num("9007199254740993.0"), Num::F(9007199254740992.0));
        assert_eq!(num("-0.0").as_f64().to_bits(), (-0.0f64).to_bits());
        assert_eq!(num("1e22"), Num::F(1e22));
        assert_eq!(num("1e23"), Num::F(1e23));
        assert_eq!(num("1e-400"), Num::F(0.0));
        assert_eq!(num("1e309"), Num::F(f64::INFINITY));
        assert_eq!(num("0.000123"), Num::F(0.000123));
        assert_eq!(num("18446744073709551615"), Num::U(u64::MAX));
        assert_eq!(num("18446744073709551616"), Num::F(18446744073709551616.0));
    }
}
