//! Pre-built schema-on-read filters over delimited columns.

use crate::prebuilt::interpreters::DelimitedInterpreter;
use crate::traits::{Filter, Interpreter};
use rede_common::{Result, Value};
use rede_storage::Record;

/// Passes records whose interpreted column lies in `[lo, hi]` (inclusive).
pub struct FieldRangeFilter {
    interp: DelimitedInterpreter,
    lo: Value,
    hi: Value,
    label: String,
}

impl FieldRangeFilter {
    /// Range filter over a delimited column.
    pub fn new(interp: DelimitedInterpreter, lo: Value, hi: Value) -> FieldRangeFilter {
        let label = format!("{} in [{lo}, {hi}]", interp.name());
        FieldRangeFilter {
            interp,
            lo,
            hi,
            label,
        }
    }
}

impl Filter for FieldRangeFilter {
    fn matches(&self, record: &Record) -> Result<bool> {
        let v = self.interp.value(record)?;
        Ok(v >= self.lo && v <= self.hi)
    }

    fn name(&self) -> &str {
        &self.label
    }
}

/// Passes records whose interpreted column equals one of the given values.
pub struct FieldEqFilter {
    interp: DelimitedInterpreter,
    allowed: Vec<Value>,
    label: String,
}

impl FieldEqFilter {
    /// Equality filter (`IN` semantics for multiple values).
    pub fn new(interp: DelimitedInterpreter, allowed: Vec<Value>) -> FieldEqFilter {
        let label = format!("{} in {} values", interp.name(), allowed.len());
        FieldEqFilter {
            interp,
            allowed,
            label,
        }
    }
}

impl Filter for FieldEqFilter {
    fn matches(&self, record: &Record) -> Result<bool> {
        Ok(self.allowed.contains(&self.interp.value(record)?))
    }

    fn name(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prebuilt::interpreters::FieldType;

    #[test]
    fn range_filter_inclusive_bounds() {
        let f = FieldRangeFilter::new(
            DelimitedInterpreter::pipe(1, FieldType::Int),
            Value::Int(10),
            Value::Int(20),
        );
        assert!(f.matches(&Record::from_text("x|10")).unwrap());
        assert!(f.matches(&Record::from_text("x|20")).unwrap());
        assert!(f.matches(&Record::from_text("x|15")).unwrap());
        assert!(!f.matches(&Record::from_text("x|9")).unwrap());
        assert!(!f.matches(&Record::from_text("x|21")).unwrap());
    }

    #[test]
    fn range_filter_propagates_interpret_errors() {
        let f = FieldRangeFilter::new(
            DelimitedInterpreter::pipe(1, FieldType::Int),
            Value::Int(0),
            Value::Int(1),
        );
        assert!(f.matches(&Record::from_text("x|nope")).is_err());
    }

    #[test]
    fn eq_filter_in_semantics() {
        let f = FieldEqFilter::new(
            DelimitedInterpreter::pipe(0, FieldType::Str),
            vec![Value::str("ASIA"), Value::str("EUROPE")],
        );
        assert!(f.matches(&Record::from_text("ASIA|1")).unwrap());
        assert!(f.matches(&Record::from_text("EUROPE|2")).unwrap());
        assert!(!f.matches(&Record::from_text("AFRICA|3")).unwrap());
    }
}
