//! [`Value`]: the dynamically typed scalar of the schema-on-read layer.
//!
//! Records in a data lake are raw bytes; fields only become typed when an
//! `Interpreter` extracts them at read time. `Value` is the result of that
//! extraction and also serves as index key, partition key, and query
//! parameter. It has a *total* order (across types, by a fixed type rank;
//! within floats, by IEEE total ordering) so it can be used directly as a
//! B+-tree key.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// Days since 1970-01-01. TPC-H dates span 1992-01-01 .. 1998-12-31.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date(pub i32);

impl Date {
    /// Construct from a calendar date (proleptic Gregorian).
    pub fn from_ymd(year: i32, month: u32, day: u32) -> Date {
        // Howard Hinnant's days_from_civil algorithm.
        let y = if month <= 2 { year - 1 } else { year };
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = (y - era * 400) as i64;
        let mp = ((month + 9) % 12) as i64;
        let doy = (153 * mp + 2) / 5 + day as i64 - 1;
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
        Date((era as i64 * 146_097 + doe - 719_468) as i32)
    }

    /// Decompose into `(year, month, day)`.
    pub fn to_ymd(self) -> (i32, u32, u32) {
        // Inverse of `from_ymd` (civil_from_days).
        let z = self.0 as i64 + 719_468;
        let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
        let doe = z - era * 146_097;
        let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
        let mp = (5 * doy + 2) / 153;
        let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
        let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
        let year = if m <= 2 { y + 1 } else { y };
        (year as i32, m, d)
    }

    /// Add a number of days.
    pub fn plus_days(self, days: i32) -> Date {
        Date(self.0 + days)
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.to_ymd();
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

/// Type tag of a [`Value`], used for schema descriptions and error messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    Null,
    Bool,
    Int,
    Float,
    Str,
    Date,
    Bytes,
}

/// A dynamically typed scalar with a total order.
///
/// Strings share their backing storage via `Arc<str>` because values are
/// cloned on every queue hop of the massively parallel executor.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(Arc<str>),
    Date(Date),
    Bytes(Arc<[u8]>),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// The type tag of this value.
    pub fn value_type(&self) -> ValueType {
        match self {
            Value::Null => ValueType::Null,
            Value::Bool(_) => ValueType::Bool,
            Value::Int(_) => ValueType::Int,
            Value::Float(_) => ValueType::Float,
            Value::Str(_) => ValueType::Str,
            Value::Date(_) => ValueType::Date,
            Value::Bytes(_) => ValueType::Bytes,
        }
    }

    /// Rank used to order values of different types (Null < Bool < Int <
    /// Float < Str < Date < Bytes).
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Str(_) => 4,
            Value::Date(_) => 5,
            Value::Bytes(_) => 6,
        }
    }

    /// Extract as `i64`, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Extract as `f64`; integers widen losslessly for small magnitudes.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Extract as `&str`, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Extract as [`Date`], if this is a date.
    pub fn as_date(&self) -> Option<Date> {
        match self {
            Value::Date(d) => Some(*d),
            _ => None,
        }
    }

    /// True if this is `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Compact, type-prefixed text encoding used when a `Value` must be
    /// embedded in a raw record payload (e.g. index entries, which are
    /// themselves schema-on-read records). Inverse of [`Value::from_field`].
    pub fn to_field(&self) -> String {
        match self {
            Value::Null => "n:".to_string(),
            Value::Bool(b) => format!("b:{}", *b as u8),
            Value::Int(v) => format!("i:{v}"),
            Value::Float(v) => format!("f:{}", v.to_bits()),
            Value::Str(s) => format!("s:{s}"),
            Value::Date(d) => format!("d:{}", d.0),
            Value::Bytes(b) => {
                let hex: String = b.iter().map(|x| format!("{x:02x}")).collect();
                format!("x:{hex}")
            }
        }
    }

    /// Parse the encoding produced by [`Value::to_field`].
    pub fn from_field(s: &str) -> crate::Result<Value> {
        let bad = || crate::RedeError::Interpret(format!("bad value field: {s:?}"));
        let (tag, body) = s.split_once(':').ok_or_else(bad)?;
        Ok(match tag {
            "n" => Value::Null,
            "b" => Value::Bool(body == "1"),
            "i" => Value::Int(body.parse().map_err(|_| bad())?),
            "f" => Value::Float(f64::from_bits(body.parse().map_err(|_| bad())?)),
            "s" => Value::str(body),
            "d" => Value::Date(Date(body.parse().map_err(|_| bad())?)),
            "x" => {
                // Decoded over bytes, not `str` slices: a multi-byte char
                // in the body must be an error, not a char-boundary panic.
                let hex = body.as_bytes();
                if hex.len() % 2 != 0 {
                    return Err(bad());
                }
                let digit = |c: u8| (c as char).to_digit(16);
                let bytes: Option<Vec<u8>> = hex
                    .chunks_exact(2)
                    .map(|pair| Some((digit(pair[0])? << 4 | digit(pair[1])?) as u8))
                    .collect();
                Value::Bytes(Arc::from(bytes.ok_or_else(bad)?.into_boxed_slice()))
            }
            _ => return Err(bad()),
        })
    }

    /// Byte representation fed to hash partitioners. Stable across runs.
    /// Allocates for the fixed-width variants; [`Value::with_hash_bytes`]
    /// lends the same bytes without allocating.
    pub fn hash_bytes(&self) -> Cow<'_, [u8]> {
        match self {
            Value::Str(s) => Cow::Borrowed(s.as_bytes()),
            Value::Bytes(b) => Cow::Borrowed(b),
            _ => Cow::Owned(self.with_hash_bytes(<[u8]>::to_vec)),
        }
    }

    /// Call `f` on exactly the bytes [`Value::hash_bytes`] returns, built
    /// on the stack: the routing path hashes a key without allocating.
    #[inline]
    pub fn with_hash_bytes<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        match self {
            Value::Null => f(&[]),
            Value::Bool(b) => f(&[*b as u8]),
            Value::Int(v) => f(&v.to_le_bytes()),
            Value::Float(v) => f(&v.to_bits().to_le_bytes()),
            Value::Str(s) => f(s.as_bytes()),
            Value::Date(d) => f(&d.0.to_le_bytes()),
            Value::Bytes(b) => f(b),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (Bytes(a), Bytes(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u8(self.type_rank());
        match self {
            Value::Null => {}
            Value::Bool(b) => state.write_u8(*b as u8),
            Value::Int(v) => state.write_i64(*v),
            Value::Float(v) => state.write_u64(v.to_bits()),
            Value::Str(s) => state.write(s.as_bytes()),
            Value::Date(d) => state.write_i64(d.0 as i64),
            Value::Bytes(b) => state.write(b),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Date(d) => write!(f, "{d}"),
            Value::Bytes(b) => write!(
                f,
                "0x{}",
                b.iter().map(|x| format!("{x:02x}")).collect::<String>()
            ),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<Date> for Value {
    fn from(v: Date) -> Self {
        Value::Date(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_roundtrip() {
        for &(y, m, d) in &[
            (1970, 1, 1),
            (1992, 1, 1),
            (1998, 12, 31),
            (2000, 2, 29),
            (2024, 7, 4),
        ] {
            let date = Date::from_ymd(y, m, d);
            assert_eq!(date.to_ymd(), (y, m, d));
        }
        assert_eq!(Date::from_ymd(1970, 1, 1).0, 0);
        assert_eq!(Date::from_ymd(1970, 1, 2).0, 1);
    }

    #[test]
    fn date_display() {
        assert_eq!(Date::from_ymd(1995, 3, 7).to_string(), "1995-03-07");
    }

    #[test]
    fn total_order_within_types() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::str("a") < Value::str("b"));
        assert!(Value::Float(1.5) < Value::Float(2.5));
        assert!(Value::Date(Date(0)) < Value::Date(Date(1)));
    }

    #[test]
    fn total_order_across_types_is_by_rank() {
        assert!(Value::Null < Value::Bool(false));
        assert!(Value::Bool(true) < Value::Int(i64::MIN));
        assert!(Value::Int(i64::MAX) < Value::Float(f64::NEG_INFINITY));
        assert!(Value::Float(f64::INFINITY) < Value::str(""));
    }

    #[test]
    fn nan_ordering_is_total() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert!(Value::Float(f64::INFINITY) < nan);
    }

    #[test]
    fn eq_hash_consistent() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let bh: BuildHasherDefault<crate::fxhash::FxHasher> = Default::default();
        let a = Value::str("hello");
        let b = Value::str("hello");
        assert_eq!(a, b);
        assert_eq!(bh.hash_one(&a), bh.hash_one(&b));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert!(Value::Null.is_null());
        assert_eq!(Value::str("x").as_int(), None);
    }

    #[test]
    fn field_encoding_roundtrips() {
        let values = [
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::Float(3.25),
            Value::Float(f64::NAN),
            Value::str("hello:world"),
            Value::Date(Date::from_ymd(1995, 6, 17)),
            Value::Bytes(Arc::from(vec![0u8, 255, 16].into_boxed_slice())),
        ];
        for v in values {
            let enc = v.to_field();
            let back = Value::from_field(&enc).unwrap();
            assert_eq!(v, back, "roundtrip failed for {enc}");
        }
    }

    #[test]
    fn field_decoding_rejects_garbage() {
        assert!(Value::from_field("no-colon").is_err());
        assert!(Value::from_field("q:3").is_err());
        assert!(Value::from_field("i:abc").is_err());
        assert!(Value::from_field("x:abc").is_err()); // odd hex length
        assert!(Value::from_field("x:+f").is_err()); // a sign is not a digit
    }

    #[test]
    fn field_decoding_rejects_non_ascii_hex_without_panicking() {
        // "aéb" is four bytes: the old two-byte `str` slicing cut the `é`.
        for field in ["x:a\u{e9}b", "x:\u{e9}\u{e9}", "x:0\u{1f600}0"] {
            assert!(
                matches!(
                    Value::from_field(field),
                    Err(crate::RedeError::Interpret(_))
                ),
                "{field:?}"
            );
        }
    }

    #[test]
    fn hash_bytes_distinguishes_values() {
        assert_ne!(Value::Int(1).hash_bytes(), Value::Int(2).hash_bytes());
        assert_ne!(
            Value::str("ab").hash_bytes().into_owned(),
            Value::str("ba").hash_bytes().into_owned()
        );
    }
}
