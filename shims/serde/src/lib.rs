//! Offline shim for the `serde` crate.
//!
//! Instead of serde's zero-copy visitor architecture, this shim routes all
//! (de)serialization through an owned JSON-like [`Value`] tree: `Serialize`
//! renders a value into a tree, `Deserialize` rebuilds one from it, and the
//! companion `serde_json` shim prints/parses the tree as JSON text. That is
//! dramatically simpler than real serde and fully sufficient for the
//! workspace, which only ever serializes owned config/report structs to
//! JSON and back.

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A JSON number. Integers are kept exact (no round-trip through `f64`) so
/// `u64` ids survive serialization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    U(u64),
    I(i64),
    F(f64),
}

impl Number {
    pub fn as_f64(self) -> f64 {
        match self {
            Number::U(v) => v as f64,
            Number::I(v) => v as f64,
            Number::F(v) => v,
        }
    }

    pub fn as_u64(self) -> Option<u64> {
        match self {
            Number::U(v) => Some(v),
            Number::I(v) => u64::try_from(v).ok(),
            Number::F(v) if v.fract() == 0.0 && v >= 0.0 && v <= u64::MAX as f64 => Some(v as u64),
            Number::F(_) => None,
        }
    }

    pub fn as_i64(self) -> Option<i64> {
        match self {
            Number::U(v) => i64::try_from(v).ok(),
            Number::I(v) => Some(v),
            Number::F(v) if v.fract() == 0.0 && v >= i64::MIN as f64 && v <= i64::MAX as f64 => {
                Some(v as i64)
            }
            Number::F(_) => None,
        }
    }
}

/// An owned serialization tree, isomorphic to a JSON document.
///
/// Objects preserve insertion order (fields serialize in declaration order),
/// which keeps emitted JSON stable and diff-friendly.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(Number),
    Str(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Look up a field of an object by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()
            .and_then(|fields| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }

    fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// (De)serialization error: a message plus an outermost-first field path.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    pub fn new(msg: impl Into<String>) -> Error {
        Error { msg: msg.into() }
    }

    /// Prefix the error with the field/context it occurred under.
    pub fn context(self, key: &str) -> Error {
        Error {
            msg: format!("{key}: {}", self.msg),
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

/// Render `self` into a [`Value`] tree.
pub trait Serialize {
    fn serialize(&self) -> Value;
}

/// Rebuild `Self` from a [`Value`] tree.
pub trait Deserialize: Sized {
    fn deserialize(v: &Value) -> Result<Self, Error>;
}

/// Deserialize one field of an object; absent keys deserialize from `Null`
/// (so `Option` fields default to `None`, everything else reports the
/// missing key).
pub fn de_field<T: Deserialize>(fields: &[(String, Value)], key: &str) -> Result<T, Error> {
    match fields.iter().find(|(k, _)| k == key) {
        Some((_, v)) => T::deserialize(v).map_err(|e| e.context(key)),
        None => {
            T::deserialize(&Value::Null).map_err(|_| Error::new(format!("missing field `{key}`")))
        }
    }
}

fn mismatch(expected: &str, got: &Value) -> Error {
    Error::new(format!("expected {expected}, found {}", got.type_name()))
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self) -> Value {
        (**self).serialize()
    }
}

impl Serialize for bool {
    fn serialize(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(mismatch("bool", other)),
        }
    }
}

macro_rules! impl_serde_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                Value::Num(Number::U(*self as u64))
            }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Num(n) => n
                        .as_u64()
                        .and_then(|u| <$t>::try_from(u).ok())
                        .ok_or_else(|| Error::new(concat!("number out of range for ", stringify!($t)))),
                    other => Err(mismatch("number", other)),
                }
            }
        }
    )*};
}
impl_serde_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                Value::Num(Number::I(*self as i64))
            }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Num(n) => n
                        .as_i64()
                        .and_then(|i| <$t>::try_from(i).ok())
                        .ok_or_else(|| Error::new(concat!("number out of range for ", stringify!($t)))),
                    other => Err(mismatch("number", other)),
                }
            }
        }
    )*};
}
impl_serde_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize(&self) -> Value {
        Value::Num(Number::F(*self))
    }
}

impl Deserialize for f64 {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Num(n) => Ok(n.as_f64()),
            other => Err(mismatch("number", other)),
        }
    }
}

impl Serialize for f32 {
    fn serialize(&self) -> Value {
        Value::Num(Number::F(*self as f64))
    }
}

impl Deserialize for f32 {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Num(n) => Ok(n.as_f64() as f32),
            other => Err(mismatch("number", other)),
        }
    }
}

impl Serialize for String {
    fn serialize(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(mismatch("string", other)),
        }
    }
}

impl Serialize for str {
    fn serialize(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn serialize(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => Err(mismatch("single-char string", other)),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self) -> Value {
        match self {
            Some(inner) => inner.serialize(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::deserialize(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::deserialize).collect(),
            other => Err(mismatch("array", other)),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        let items: Vec<T> = Vec::deserialize(v)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| Error::new(format!("expected array of length {N}, found {len}")))
    }
}

impl<T: Serialize + Ord> Serialize for BTreeSet<T> {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::deserialize).collect(),
            other => Err(mismatch("array", other)),
        }
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn serialize(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.serialize()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Object(fields) => fields
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::deserialize(v).map_err(|e| e.context(k))?)))
                .collect(),
            other => Err(mismatch("object", other)),
        }
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn serialize(&self) -> Value {
        // Sort keys so emitted JSON is deterministic.
        let mut fields: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.clone(), v.serialize()))
            .collect();
        fields.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(fields)
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Object(fields) => fields
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::deserialize(v).map_err(|e| e.context(k))?)))
                .collect(),
            other => Err(mismatch("object", other)),
        }
    }
}

macro_rules! impl_serde_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize(&self) -> Value {
                Value::Array(vec![$(self.$idx.serialize()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                const LEN: usize = 0 $(+ { let _ = $idx; 1 })+;
                let items = v.as_array().ok_or_else(|| mismatch("array", v))?;
                if items.len() != LEN {
                    return Err(Error::new(format!(
                        "expected {LEN}-tuple, found array of {}",
                        items.len()
                    )));
                }
                Ok(($($name::deserialize(&items[$idx])?,)+))
            }
        }
    )*};
}
impl_serde_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn number_integer_exactness() {
        let big = u64::MAX - 3;
        let v = big.serialize();
        assert_eq!(u64::deserialize(&v).unwrap(), big);
    }

    #[test]
    fn option_roundtrip_and_missing_fields() {
        let v = Some(3u32).serialize();
        assert_eq!(Option::<u32>::deserialize(&v).unwrap(), Some(3));
        assert_eq!(Option::<u32>::deserialize(&Value::Null).unwrap(), None);
        let fields: Vec<(String, Value)> = Vec::new();
        let got: Option<u32> = de_field(&fields, "absent").unwrap();
        assert_eq!(got, None);
        assert!(de_field::<u32>(&fields, "absent").is_err());
    }

    #[test]
    fn collections_roundtrip() {
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), 1u32);
        m.insert("b".to_string(), 2);
        let back: BTreeMap<String, u32> = Deserialize::deserialize(&m.serialize()).unwrap();
        assert_eq!(back, m);

        let s: BTreeSet<u64> = [3, 1, 2].into_iter().collect();
        let back: BTreeSet<u64> = Deserialize::deserialize(&s.serialize()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn type_mismatch_reports_both_sides() {
        let err = u32::deserialize(&Value::Str("x".into())).unwrap_err();
        assert!(err.to_string().contains("number"));
        assert!(err.to_string().contains("string"));
    }
}
