//! The number scan computes each value in the pass that checks its syntax
//! (Clinger's exact fast path, `str::parse` otherwise). It must give the
//! same `Num` variant and bits as the rule it replaced, kept here verbatim
//! as the reference.

use lip_serde::{parse, Json, Num, Parser};

/// The previous number rule, verbatim but for taking the token as an
/// argument: validate the grammar, then parse the text as `u64` / `i64`,
/// falling back to `f64`.
fn reference_number(text: &str) -> Num {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let peek = |pos: usize| bytes.get(pos).copied();
    if peek(pos) == Some(b'-') {
        pos += 1;
    }
    // integer part
    match peek(pos) {
        Some(b'0') => pos += 1,
        Some(b'1'..=b'9') => {
            while matches!(peek(pos), Some(b'0'..=b'9')) {
                pos += 1;
            }
        }
        _ => panic!("invalid number {text:?}"),
    }
    let mut is_float = false;
    if peek(pos) == Some(b'.') {
        is_float = true;
        pos += 1;
        assert!(matches!(peek(pos), Some(b'0'..=b'9')), "{text:?}");
        while matches!(peek(pos), Some(b'0'..=b'9')) {
            pos += 1;
        }
    }
    if matches!(peek(pos), Some(b'e' | b'E')) {
        is_float = true;
        pos += 1;
        if matches!(peek(pos), Some(b'+' | b'-')) {
            pos += 1;
        }
        assert!(matches!(peek(pos), Some(b'0'..=b'9')), "{text:?}");
        while matches!(peek(pos), Some(b'0'..=b'9')) {
            pos += 1;
        }
    }
    assert_eq!(pos, bytes.len(), "trailing bytes in {text:?}");
    if !is_float {
        if let Some(stripped) = text.strip_prefix('-') {
            if let Ok(i) = stripped.parse::<u64>().map(|u| u as i128).map(|u| -u) {
                if let Ok(i) = i64::try_from(i) {
                    return Num::I(i);
                }
            }
        } else if let Ok(u) = text.parse::<u64>() {
            return Num::U(u);
        }
        // fall through to float on overflow
    }
    Num::F(text.parse::<f64>().expect("a JSON number is a Rust float"))
}

/// Variant and bits, so `-0.0` and `0.0` differ.
fn key(n: Num) -> (u8, u64) {
    match n {
        Num::U(u) => (0, u),
        Num::I(i) => (1, i as u64),
        Num::F(f) => (2, f.to_bits()),
    }
}

/// Check one token through the scan and through the tree parser.
fn check(token: &str) {
    let want = key(reference_number(token));
    let mut p = Parser::new(token);
    let scanned = p.number().unwrap_or_else(|e| panic!("{token:?}: {e}"));
    p.finish().unwrap_or_else(|e| panic!("{token:?}: {e}"));
    assert_eq!(key(scanned), want, "{token:?}: {scanned:?}");
    match parse(token) {
        Ok(Json::Num(n)) => assert_eq!(key(n), want, "{token:?} as a document"),
        other => panic!("{token:?} parsed as {other:?}"),
    }
}

/// splitmix64: a fixed, dependency-free stream for the random tokens.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[test]
fn edge_tokens_match_the_reference() {
    for token in [
        "0",
        "-0",
        "0.0",
        "-0.0",
        "0e0",
        "-0E-0",
        "1e-400",
        "-1e-400",
        "1e309",
        "-1e309",
        "4.9e-324",
        "2.2250738585072014e-308",
        "1.7976931348623157e308",
        "9007199254740992",
        "9007199254740993",
        "9007199254740993.0",
        "-9007199254740993.0",
        "9007199254740992e0",
        "9007199254740993e-1",
        "18446744073709551615",
        "18446744073709551616",
        "-9223372036854775808",
        "-9223372036854775809",
        "9999999999999999999",
        "10000000000000000000",
        "-9999999999999999999",
        "1e22",
        "1e23",
        "1e-22",
        "1e-23",
        "123456789012345678e22",
        "0.1",
        "0.30000000000000004",
        "3.4028235e38",
        "3.4028236e38",
        "1E+2",
        "1e+0022",
        "0.000000000000000000000000000000001",
        "100000000000000000000000000000000000000000",
        "1.00000000000000000000000000000000000000001",
        "1e99999999999999999999999999",
        "1e-99999999999999999999999999",
    ] {
        check(token);
    }
}

#[test]
fn f32_shortest_reprs_match_the_reference() {
    // every 4,093rd finite f32, in its own shortest form and widened to
    // f64 (up to 17 significant digits)
    let mut bits = 0u64;
    let mut count = 0;
    while bits <= u64::from(u32::MAX) {
        let v = f32::from_bits(bits as u32);
        if v.is_finite() {
            check(&format!("{v:?}"));
            check(&format!("{:?}", f64::from(v)));
            count += 2;
        }
        bits += 4_093;
    }
    assert!(count > 2_000_000, "{count}");
}

#[test]
fn random_decimals_match_the_reference() {
    let mut s = Stream(0x5eed_0017);
    let mut token = String::new();
    for _ in 0..300_000 {
        token.clear();
        if s.below(2) == 1 {
            token.push('-');
        }
        // integer part: 0, or up to 25 digits without a leading zero
        let int_digits = s.below(26) as usize;
        if int_digits == 0 {
            token.push('0');
        } else {
            token.push(char::from(b'1' + s.below(9) as u8));
            for _ in 1..int_digits {
                token.push(char::from(b'0' + s.below(10) as u8));
            }
        }
        if s.below(3) > 0 {
            token.push('.');
            for _ in 0..=s.below(25) {
                token.push(char::from(b'0' + s.below(10) as u8));
            }
        }
        if s.below(2) == 1 {
            token.push_str(["e", "E", "e+", "e-", "E-"][s.below(5) as usize]);
            // mostly near the fast path's ±22 window, sometimes far out
            let exp = if s.below(4) == 0 {
                s.below(700)
            } else {
                s.below(40)
            };
            token.push_str(&exp.to_string());
        }
        check(&token);
    }
}
