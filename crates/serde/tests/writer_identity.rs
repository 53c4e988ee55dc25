//! The direct writers (`ToJson::write_json`, behind `to_string` and
//! `to_vec`) must produce exactly the bytes of rendering the value's tree,
//! `value.to_json().dump()`: checkpoints, results files and responses keep
//! their bytes whichever path wrote them.

use lip_serde::{to_string, to_vec, ToJson};

fn same_bytes<T: ToJson + ?Sized + std::fmt::Debug>(v: &T) {
    let tree = v.to_json().dump();
    assert_eq!(to_string(v), tree, "{v:?}");
    assert_eq!(to_vec(v), tree.into_bytes(), "{v:?}");
}

/// f32 edge values: signed zeros, the subnormal range, the normal range's
/// ends, the exponent-notation switch points and the non-finite values,
/// which write `null`.
fn f32_specials() -> Vec<f32> {
    let mut v = vec![
        0.0,
        -0.0,
        f32::from_bits(1),
        -f32::from_bits(1),
        f32::from_bits(0x007f_ffff),
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::EPSILON,
        f32::MAX,
        f32::MIN,
        1e-4,
        9.999_999e-5,
        1e16,
        9.999_999e15,
        0.1,
        1.0,
        16_777_216.0,
        16_777_217.0,
        3e38,
        f32::NAN,
        -f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
    ];
    // neighbours of the switch points, where a shorter decimal might flip
    // the notation
    for edge in [1e-4f32, 1e16f32] {
        for d in 1..=3 {
            v.push(f32::from_bits(edge.to_bits() - d));
            v.push(f32::from_bits(edge.to_bits() + d));
        }
    }
    v
}

#[test]
fn f32_writes_its_tree_bytes_over_a_bit_pattern_sweep() {
    // every 4,093rd bit pattern: both signs, every exponent, NaN payloads
    let mut count = 0u64;
    let mut bits = 0u64;
    while bits <= u64::from(u32::MAX) {
        same_bytes(&f32::from_bits(bits as u32));
        bits += 4_093;
        count += 1;
    }
    assert_eq!(count, 1_049_345);
    for v in f32_specials() {
        same_bytes(&v);
    }
    assert_eq!(to_string(&f32::NAN), "null");
    assert_eq!(to_string(&f32::NEG_INFINITY), "null");
    assert_eq!(to_string(&-0.0f32), "-0.0");
}

#[test]
fn f64_and_integer_specials_write_their_tree_bytes() {
    for v in [
        0.0,
        -0.0,
        f64::from_bits(1),
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        0.1,
        1e-4,
        1e16,
        1e22,
        1e23,
        9_007_199_254_740_993.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ] {
        same_bytes(&v);
    }
    same_bytes(&u64::MAX);
    same_bytes(&0u8);
    same_bytes(&usize::MAX);
    same_bytes(&i64::MIN);
    same_bytes(&i64::MAX);
    same_bytes(&-1i8);
    same_bytes(&i32::MIN);
    same_bytes(&true);
    same_bytes(&false);
}

#[test]
fn strings_that_need_escapes_write_their_tree_bytes() {
    let all_controls: String = (0u8..0x20).map(char::from).collect();
    for s in [
        "",
        "plain",
        "quote \" backslash \\ slash /",
        "\n\r\t\u{8}\u{c}",
        all_controls.as_str(),
        "\u{7f} é 😀 \u{2028}",
    ] {
        same_bytes(s);
        same_bytes(&s.to_string());
    }
}

#[test]
fn nested_vecs_and_options_write_their_tree_bytes() {
    let nested: Vec<Vec<Option<f32>>> = vec![
        vec![Some(0.1), None, Some(-0.0), Some(f32::NAN)],
        vec![],
        vec![None],
    ];
    same_bytes(&nested);
    same_bytes(&Some(nested.clone()));
    same_bytes(&Option::<Vec<f32>>::None);
    let deep: Vec<Vec<Vec<f32>>> = vec![vec![vec![1.5, 2e-7], vec![]], vec![]];
    same_bytes(&deep);
    same_bytes(&deep[0][0][..]);
    same_bytes(&vec![Some(String::from("a\"b")), None]);
    let json = lip_serde::parse(r#"{"a":[1,-2,0.5,null,true,"x"],"b":{}}"#).expect("valid");
    same_bytes(&json);
}

#[derive(Debug)]
struct Inner {
    name: String,
    codes: Vec<usize>,
}
lip_serde::json_struct!(Inner { name, codes });

#[derive(Debug)]
struct Outer {
    seed: u64,
    offset: i32,
    ratio: f32,
    wide: f64,
    on: bool,
    rows: Vec<Vec<f32>>,
    maybe: Option<Inner>,
    many: Vec<Inner>,
    label: String,
}
lip_serde::json_struct!(Outer {
    seed,
    offset,
    ratio,
    wide,
    on,
    rows,
    maybe,
    many,
    label
});

#[test]
fn json_struct_writes_its_tree_bytes() {
    let outer = Outer {
        seed: u64::MAX - 3,
        offset: -7,
        ratio: 0.1,
        wide: 1e300,
        on: true,
        rows: vec![vec![1.0, -2.5], vec![f32::MIN_POSITIVE, 3e38]],
        maybe: Some(Inner {
            name: "tab\there".into(),
            codes: vec![0, 3],
        }),
        many: vec![Inner {
            name: String::new(),
            codes: vec![],
        }],
        label: "\u{1}".into(),
    };
    same_bytes(&outer);
    same_bytes(&Outer {
        maybe: None,
        ratio: f32::NAN,
        ..outer
    });
    // a value written after other output leaves that output alone
    let mut out = String::from("prefix,");
    Inner {
        name: "n".into(),
        codes: vec![1],
    }
    .write_json(&mut out);
    assert_eq!(out, r#"prefix,{"name":"n","codes":[1]}"#);
}
