//! Scalar values stored in the synthetic database.

use std::fmt;

/// A single cell value: either a 64-bit integer or a string.
///
/// The IMDB schema used by the paper only needs these two types (years, ids,
/// counts are integers; titles, notes, info strings are text).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    Int(i64),
    Str(String),
}

impl Value {
    /// Integer content, if this is an integer value.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Str(_) => None,
        }
    }

    /// String content, if this is a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Int(_) => None,
            Value::Str(s) => Some(s),
        }
    }

    /// A floating-point view of the value (string values have no numeric view).
    pub fn as_f64(&self) -> Option<f64> {
        self.as_int().map(|v| v as f64)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

/// A borrowed view of a [`Value`]: integers are copied, strings are borrowed
/// from the column storage.  Hash/Eq agree with [`Value`], so it can key hash
/// tables (join build sides, group-by-key count maps) without cloning the
/// underlying `String` per row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ValueRef<'a> {
    Int(i64),
    Str(&'a str),
}

impl ValueRef<'_> {
    /// An owned copy of the value.
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Int(v) => Value::Int(v),
            ValueRef::Str(s) => Value::Str(s.to_string()),
        }
    }
}

impl Value {
    /// A borrowed view of this value.
    pub fn as_value_ref(&self) -> ValueRef<'_> {
        match self {
            Value::Int(v) => ValueRef::Int(*v),
            Value::Str(s) => ValueRef::Str(s),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(5).as_int(), Some(5));
        assert_eq!(Value::Int(5).as_str(), None);
        assert_eq!(Value::from("abc").as_str(), Some("abc"));
        assert_eq!(Value::from("abc").as_int(), None);
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
    }

    #[test]
    fn display_quotes_strings() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::from("x").to_string(), "'x'");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(4i64), Value::Int(4));
        assert_eq!(Value::from(String::from("s")), Value::Str("s".into()));
    }

    #[test]
    fn value_ref_round_trips_and_hashes_like_value() {
        use std::collections::HashMap;
        let owned = Value::from("abc");
        let r = owned.as_value_ref();
        assert_eq!(r, ValueRef::Str("abc"));
        assert_eq!(r.to_value(), owned);
        assert_eq!(Value::Int(7).as_value_ref(), ValueRef::Int(7));
        // Borrowed keys behave like owned ones in a hash map.
        let mut m: HashMap<ValueRef<'_>, usize> = HashMap::new();
        m.insert(ValueRef::Str("abc"), 1);
        m.insert(ValueRef::Int(7), 2);
        assert_eq!(m.get(&owned.as_value_ref()), Some(&1));
        assert_eq!(m.get(&ValueRef::Int(7)), Some(&2));
        assert_eq!(m.get(&ValueRef::Str("other")), None);
    }
}
