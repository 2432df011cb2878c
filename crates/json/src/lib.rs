//! # ntc-json
//!
//! The JSON writer behind every file under `results/`: a [`ToJson`]
//! trait, its impls for the primitives and containers the reports use,
//! and [`to_string_pretty`], whose output matches `serde_json`'s pretty
//! printer byte for byte (two-space indent, `"key": value`, `[]` and
//! `{}` for empties, no trailing newline).
//!
//! Nothing is ever parsed back, so there is no reader. Report types get
//! their impl from `#[derive(ToJson)]`, which accepts exactly three
//! shapes:
//!
//! ```
//! use ntc_json::{to_string_pretty, ToJson};
//!
//! /// A newtype is written as its inner value.
//! #[derive(ToJson)]
//! struct Millis(u64);
//!
//! /// A unit-only enum is written as the variant name.
//! #[derive(ToJson)]
//! enum Site {
//!     Edge,
//! }
//!
//! /// A named-field struct is written as an object, fields in order.
//! #[derive(ToJson)]
//! struct Row {
//!     site: Site,
//!     took: Millis,
//!     /// Left out of the object when `None`.
//!     #[json(skip_if_none)]
//!     note: Option<String>,
//!     #[json(skip)]
//!     visits: u32,
//! }
//!
//! let row = Row { site: Site::Edge, took: Millis(7), note: None, visits: 3 };
//! assert_eq!(to_string_pretty(&row), "{\n  \"site\": \"Edge\",\n  \"took\": 7\n}");
//! ```
//!
//! Every other shape is a compile error. A generic type:
//!
//! ```compile_fail
//! #[derive(ntc_json::ToJson)]
//! struct Wrapper<T> {
//!     value: T,
//! }
//! ```
//!
//! A variant that carries data:
//!
//! ```compile_fail
//! #[derive(ntc_json::ToJson)]
//! enum Outcome {
//!     Done,
//!     Failed(String),
//! }
//! ```
//!
//! An attribute other than `skip` and `skip_if_none`:
//!
//! ```compile_fail
//! #[derive(ntc_json::ToJson)]
//! struct Row {
//!     #[json(rename = "id")]
//!     key: u64,
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write;

pub use ntc_json_derive::ToJson;

/// A value that can be written as pretty JSON.
pub trait ToJson {
    /// Appends `self` to `out`; `depth` is the nesting level of the
    /// value, which sets the indent of its nested lines.
    fn write_json(&self, out: &mut String, depth: usize);
}

/// `value` as pretty JSON, laid out as `serde_json::to_string_pretty`
/// lays it out.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out, 0);
    out
}

/// Starts a new line indented for `depth`.
fn newline(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// An object being written: `{`, then one `"key": value` line per
/// [`field`](Self::field), then `}` from [`end`](Self::end).
pub struct Object<'a> {
    out: &'a mut String,
    depth: usize,
    empty: bool,
}

impl<'a> Object<'a> {
    /// Opens an object at nesting level `depth`.
    pub fn begin(out: &'a mut String, depth: usize) -> Self {
        out.push('{');
        Object { out, depth, empty: true }
    }

    /// Writes one member.
    pub fn field<T: ToJson + ?Sized>(&mut self, key: &str, value: &T) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        newline(self.out, self.depth + 1);
        key.write_json(self.out, self.depth + 1);
        self.out.push_str(": ");
        value.write_json(self.out, self.depth + 1);
    }

    /// Closes the object.
    pub fn end(self) {
        if !self.empty {
            newline(self.out, self.depth);
        }
        self.out.push('}');
    }
}

macro_rules! integers {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String, _: usize) {
                write!(out, "{self}").expect("writing to a String cannot fail");
            }
        }
    )*};
}

integers!(u32, u64, u128, usize, i64);

impl ToJson for bool {
    fn write_json(&self, out: &mut String, _: usize) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

/// Shortest round-trip digits, as `serde_json` prints them: plain
/// decimals from 1e-5 up to 1e16 (integral values end in `.0`),
/// scientific notation outside, and `null` for NaN and the infinities.
/// Rust's `{:?}` agrees everywhere except [1e-5, 1e-4), where it already
/// switches to an exponent, so that band is written with `{}`.
impl ToJson for f64 {
    fn write_json(&self, out: &mut String, _: usize) {
        let x = *self;
        let written = if !x.is_finite() {
            out.push_str("null");
            Ok(())
        } else if (1e-5..1e-4).contains(&x.abs()) {
            write!(out, "{x}")
        } else {
            write!(out, "{x:?}")
        };
        written.expect("writing to a String cannot fail");
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String, _: usize) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{8}' => out.push_str("\\b"),
                '\u{c}' => out.push_str("\\f"),
                c if c < ' ' => {
                    write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String, depth: usize) {
        self.as_str().write_json(out, depth);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String, depth: usize) {
        match self {
            Some(v) => v.write_json(out, depth),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String, depth: usize) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            newline(out, depth + 1);
            v.write_json(out, depth + 1);
        }
        if !self.is_empty() {
            newline(out, depth);
        }
        out.push(']');
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn write_json(&self, out: &mut String, depth: usize) {
        self.as_slice().write_json(out, depth);
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String, depth: usize) {
        self.as_slice().write_json(out, depth);
    }
}

impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn write_json(&self, out: &mut String, depth: usize) {
        let mut o = Object::begin(out, depth);
        for (k, v) in self {
            o.field(k, v);
        }
        o.end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json<T: ToJson + ?Sized>(v: &T) -> String {
        to_string_pretty(v)
    }

    #[test]
    fn strings_escape_as_serde_json_does() {
        assert_eq!(json("a\"b\\c"), r#""a\"b\\c""#);
        assert_eq!(json("\n\r\t\u{8}\u{c}"), r#""\n\r\t\b\f""#);
        assert_eq!(json("\u{0}\u{1}\u{1f}"), r#""\u0000\u0001\u001f""#);
        assert_eq!(json("\u{1b}"), r#""\u001b""#, "hex digits are lowercase");
        assert_eq!(json("\u{7f}é日🦀"), "\"\u{7f}é日🦀\"", "DEL and non-ASCII pass through");
        assert_eq!(json(&String::from("/")), r#""/""#);
    }

    #[test]
    fn empty_containers_stay_on_one_line() {
        assert_eq!(json(&Vec::<u64>::new()), "[]");
        assert_eq!(json(&BTreeMap::<String, u64>::new()), "{}");
        assert_eq!(json(&[[0u32; 0]; 1]), "[\n  []\n]");
    }

    #[test]
    fn containers_nest_with_two_space_indent() {
        let mut m = BTreeMap::new();
        m.insert("b".to_string(), vec![1u32, 2]);
        m.insert("a".to_string(), vec![]);
        assert_eq!(json(&m), "{\n  \"a\": [],\n  \"b\": [\n    1,\n    2\n  ]\n}");
        assert_eq!(json(&[Some(true), None]), "[\n  true,\n  null\n]");
    }

    #[test]
    fn integers_print_in_full() {
        assert_eq!(json(&u128::MAX), "340282366920938463463374607431768211455");
        assert_eq!(json(&i64::MIN), "-9223372036854775808");
        assert_eq!(json(&0usize), "0");
    }

    #[test]
    fn floats_match_serde_json_around_every_threshold() {
        let cases: [(f64, &str); 13] = [
            (9.99e-6, "9.99e-6"),
            (-9.99e-6, "-9.99e-6"),
            (1e-5, "0.00001"),
            (2.4795248684641655e-5, "0.000024795248684641655"),
            (-3.5e-5, "-0.000035"),
            (1e-4, "0.0001"),
            (0.1, "0.1"),
            (1.0, "1.0"),
            (-0.0, "-0.0"),
            (1e15, "1000000000000000.0"),
            (1e16, "1e16"),
            (1.5e300, "1.5e300"),
            (5e-324, "5e-324"),
        ];
        for (x, want) in cases {
            assert_eq!(json(&x), want, "{x:e}");
        }
    }

    #[test]
    fn non_finite_floats_are_null() {
        assert_eq!(json(&f64::NAN), "null");
        assert_eq!(json(&f64::INFINITY), "null");
        assert_eq!(json(&f64::NEG_INFINITY), "null");
    }
}
