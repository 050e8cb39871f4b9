//! Schema-on-read interpreters for delimited (CSV-like) lake files.
//!
//! TPC-H-style files are `|`-separated text lines; an interpreter names a
//! column position and a target type and extracts the value at read time.
//! Nested formats (the claims case study) implement [`Interpreter`]
//! directly in their own crate — that is the point of post hoc access
//! methods.

use crate::traits::Interpreter;
use rede_common::{Date, RedeError, Result, Value};
use rede_storage::Record;

/// Target type of an extracted column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldType {
    Int,
    Float,
    Str,
    /// `YYYY-MM-DD`.
    Date,
}

impl FieldType {
    /// Parse one raw field under this type.
    pub fn parse(&self, raw: &str) -> Result<Value> {
        match self {
            FieldType::Int => raw
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|_| RedeError::Interpret(format!("not an int: {raw:?}"))),
            FieldType::Float => raw
                .parse::<f64>()
                .map(Value::Float)
                .map_err(|_| RedeError::Interpret(format!("not a float: {raw:?}"))),
            FieldType::Str => Ok(Value::str(raw)),
            FieldType::Date => parse_date(raw),
        }
    }
}

/// Parse `YYYY-MM-DD` into a [`Value::Date`].
pub(crate) fn parse_date(raw: &str) -> Result<Value> {
    let bad = || RedeError::Interpret(format!("not a date: {raw:?}"));
    let mut it = raw.splitn(3, '-');
    let y: i32 = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let m: u32 = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let d: u32 = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    if !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return Err(bad());
    }
    Ok(Value::Date(Date::from_ymd(y, m, d)))
}

/// Extracts one delimited column as a typed value.
#[derive(Debug, Clone)]
pub struct DelimitedInterpreter {
    delim: char,
    column: usize,
    ty: FieldType,
    label: String,
}

impl DelimitedInterpreter {
    /// Interpreter for column `column` (0-based) split on `delim`.
    pub fn new(delim: char, column: usize, ty: FieldType) -> DelimitedInterpreter {
        DelimitedInterpreter {
            delim,
            column,
            ty,
            label: format!("col{column}:{ty:?}"),
        }
    }

    /// `|`-separated column (the TPC-H convention).
    pub fn pipe(column: usize, ty: FieldType) -> DelimitedInterpreter {
        Self::new('|', column, ty)
    }

    /// The column's one value: [`Interpreter::extract`] without the `Vec`.
    pub fn value(&self, record: &Record) -> Result<Value> {
        self.ty.parse(record.field(self.column, self.delim)?)
    }
}

impl Interpreter for DelimitedInterpreter {
    fn extract(&self, record: &Record) -> Result<Vec<Value>> {
        Ok(vec![self.value(record)?])
    }

    fn extract_each(&self, record: &Record, emit: &mut dyn FnMut(Value)) -> Result<()> {
        emit(self.value(record)?);
        Ok(())
    }

    fn name(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_typed_columns() {
        let r = Record::from_text("42|hello|1.5|1995-03-07");
        assert_eq!(
            DelimitedInterpreter::pipe(0, FieldType::Int)
                .extract(&r)
                .unwrap(),
            vec![Value::Int(42)]
        );
        assert_eq!(
            DelimitedInterpreter::pipe(1, FieldType::Str)
                .extract(&r)
                .unwrap(),
            vec![Value::str("hello")]
        );
        assert_eq!(
            DelimitedInterpreter::pipe(2, FieldType::Float)
                .extract(&r)
                .unwrap(),
            vec![Value::Float(1.5)]
        );
        assert_eq!(
            DelimitedInterpreter::pipe(3, FieldType::Date)
                .extract(&r)
                .unwrap(),
            vec![Value::Date(Date::from_ymd(1995, 3, 7))]
        );
    }

    #[test]
    fn type_mismatch_is_an_interpret_error() {
        let r = Record::from_text("abc|1");
        assert!(matches!(
            DelimitedInterpreter::pipe(0, FieldType::Int).extract(&r),
            Err(RedeError::Interpret(_))
        ));
    }

    #[test]
    fn missing_column_is_an_interpret_error() {
        let r = Record::from_text("1|2");
        assert!(DelimitedInterpreter::pipe(5, FieldType::Int)
            .extract(&r)
            .is_err());
    }

    #[test]
    fn date_validation() {
        assert!(parse_date("1995-00-01").is_err());
        assert!(parse_date("1995-13-01").is_err());
        assert!(parse_date("1995-01-32").is_err());
        assert!(parse_date("not-a-date").is_err());
        assert!(parse_date("1995-01").is_err());
        assert_eq!(
            parse_date("1992-01-01").unwrap(),
            Value::Date(Date::from_ymd(1992, 1, 1))
        );
    }

    #[test]
    fn custom_delimiter() {
        let r = Record::from_text("a,b,c");
        let i = DelimitedInterpreter::new(',', 2, FieldType::Str);
        assert_eq!(i.extract(&r).unwrap(), vec![Value::str("c")]);
    }
}
