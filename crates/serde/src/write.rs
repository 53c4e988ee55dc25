//! JSON writers: compact (single line) and pretty (2-space indent, the
//! shape `serde_json::to_string_pretty` produced, so existing `results/`
//! files and new ones diff cleanly). The scalar writers also serve the
//! direct [`crate::ToJson::write_json`] paths, so both give the same bytes.

use std::fmt::Write;

use crate::{Json, Num};

pub fn write_compact(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => write_num(*n, out),
        Json::Str(s) => write_string(s, out),
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Json::Object(pairs) => {
            out.push('{');
            for (i, (k, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_compact(val, out);
            }
            out.push('}');
        }
    }
}

pub fn write_pretty(v: &Json, indent: usize, out: &mut String) {
    match v {
        Json::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(indent + 1, out);
                write_pretty(item, indent + 1, out);
            }
            out.push('\n');
            push_indent(indent, out);
            out.push(']');
        }
        Json::Object(pairs) if !pairs.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(indent + 1, out);
                write_string(k, out);
                out.push_str(": ");
                write_pretty(val, indent + 1, out);
            }
            out.push('\n');
            push_indent(indent, out);
            out.push('}');
        }
        other => write_compact(other, out),
    }
}

fn push_indent(levels: usize, out: &mut String) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

pub fn write_num(n: Num, out: &mut String) {
    match n {
        Num::U(u) => push_fmt(out, format_args!("{u}")),
        Num::I(i) => push_fmt(out, format_args!("{i}")),
        Num::F(f) => {
            if f.is_finite() {
                // Debug formatting gives the shortest decimal that
                // round-trips the f64 and always keeps a ".0" on integers,
                // matching serde_json's ryu output for the common cases
                push_fmt(out, format_args!("{f:?}"));
            } else {
                // JSON has no NaN/Infinity; degrade to null like JS
                out.push_str("null");
            }
        }
    }
}

/// An `f32` as `ToJson::to_json` renders it, without the tree: the f64
/// nearest the f32's shortest decimal has that same shortest decimal, and
/// f32 and f64 switch to exponent notation at the same magnitudes, so the
/// f32's own `{:?}` is the tree's text.
pub fn write_f32(v: f32, out: &mut String) {
    if v.is_finite() {
        push_fmt(out, format_args!("{v:?}"));
    } else {
        out.push_str("null");
    }
}

fn push_fmt(out: &mut String, args: std::fmt::Arguments<'_>) {
    out.write_fmt(args).expect("writing to a String cannot fail");
}

pub fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => push_fmt(out, format_args!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use crate::{parse, Json, Num};

    #[test]
    fn compact_writer_roundtrips_through_parser() {
        let v = Json::Object(vec![
            ("s".into(), Json::Str("a\"b\\c\nd\u{1}".into())),
            (
                "nums".into(),
                Json::Array(vec![
                    Json::Num(Num::U(7)),
                    Json::Num(Num::I(-2)),
                    Json::Num(Num::F(0.125)),
                ]),
            ),
            ("empty_arr".into(), Json::Array(vec![])),
            ("empty_obj".into(), Json::Object(vec![])),
            ("b".into(), Json::Bool(false)),
            ("n".into(), Json::Null),
        ]);
        assert_eq!(parse(&v.dump()).unwrap(), v);
        assert_eq!(parse(&v.dump_pretty()).unwrap(), v);
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        assert_eq!(Json::Num(Num::F(3.0)).dump(), "3.0");
        assert_eq!(Json::Num(Num::F(0.1)).dump(), "0.1");
    }

    #[test]
    fn pretty_matches_serde_json_shape() {
        let v = Json::Object(vec![
            ("a".into(), Json::Num(Num::U(1))),
            ("b".into(), Json::Array(vec![Json::Num(Num::U(2))])),
        ]);
        assert_eq!(v.dump_pretty(), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
    }
}
