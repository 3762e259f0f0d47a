//! Minimal CSV import/export for relations.
//!
//! §2.3 points out that "encoding and decoding are usually only necessary
//! for input or output: that is, for use by humans" — this module is that
//! input/output path. A deliberately small dialect: comma-separated, one
//! row per line, optional double-quoting for fields containing commas or
//! quotes (doubled quotes escape), no embedded newlines. Fields are typed
//! by the target schema's domain kinds.

use crate::catalog::Catalog;
use crate::domain::{Datum, DomainKind};
use crate::error::RelationError;
use crate::relation::MultiRelation;
use crate::schema::Schema;

/// Split one CSV line into fields (handles double-quoted fields with
/// doubled-quote escapes). Public so consumers working at the rendered-text
/// level (e.g. reading result lines back) use the same dialect as
/// import/export.
pub fn split_line(line: &str) -> Result<Vec<String>, RelationError> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    in_quotes = false;
                }
            }
            '"' if cur.is_empty() => in_quotes = true,
            '"' => {
                return Err(RelationError::DomainMismatch {
                    detail: format!("stray quote in CSV field at line fragment {cur:?}"),
                })
            }
            ',' if !in_quotes => {
                fields.push(std::mem::take(&mut cur));
            }
            c => cur.push(c),
        }
    }
    if in_quotes {
        return Err(RelationError::DomainMismatch {
            detail: "unterminated quoted CSV field".to_string(),
        });
    }
    fields.push(cur);
    Ok(fields)
}

/// Render one field, quoting when necessary (the inverse of
/// [`split_line`]'s unquoting; public for the same text-level consumers).
pub fn render_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Parse a field according to the domain kind.
fn parse_field(kind: DomainKind, field: &str) -> Result<Datum, RelationError> {
    let err = |detail: String| RelationError::DomainMismatch { detail };
    match kind {
        DomainKind::Int => field
            .trim()
            .parse::<i64>()
            .map(Datum::Int)
            .map_err(|e| err(format!("bad integer {field:?}: {e}"))),
        DomainKind::Date => {
            // Accept both a bare day number and the `day#<n>` form that
            // `Datum::Date` renders (and `export_csv` therefore writes), so
            // export → import is the identity for date columns too.
            let trimmed = field.trim();
            let number = trimmed.strip_prefix("day#").unwrap_or(trimmed);
            number
                .parse::<i64>()
                .map(Datum::Date)
                .map_err(|e| err(format!("bad date {field:?}: {e}")))
        }
        DomainKind::Bool => match field.trim() {
            "true" | "1" => Ok(Datum::Bool(true)),
            "false" | "0" => Ok(Datum::Bool(false)),
            other => Err(err(format!("bad boolean {other:?}"))),
        },
        DomainKind::Str => Ok(Datum::Str(field.to_string())),
    }
}

/// Import CSV text as a multi-relation under `schema`, interning new string
/// values into the catalog's domains. A leading header line equal to the
/// schema's column names is skipped if present.
pub fn import_csv(
    catalog: &mut Catalog,
    schema: &Schema,
    text: &str,
) -> Result<MultiRelation, RelationError> {
    let mut out = MultiRelation::empty(schema.clone());
    let mut lines = text.lines().filter(|l| !l.trim().is_empty()).peekable();
    if let Some(first) = lines.peek() {
        let headers: Vec<String> = split_line(first)?;
        let names: Vec<&str> = schema.columns().iter().map(|c| c.name.as_str()).collect();
        if headers.iter().map(|h| h.as_str()).eq(names.iter().copied()) {
            lines.next();
        }
    }
    for line in lines {
        let fields = split_line(line)?;
        if fields.len() != schema.arity() {
            return Err(RelationError::ArityMismatch {
                expected: schema.arity(),
                got: fields.len(),
            });
        }
        let mut datums = Vec::with_capacity(fields.len());
        for (field, col) in fields.iter().zip(schema.columns()) {
            let kind = catalog.domain(col.domain).kind();
            datums.push(parse_field(kind, field)?);
        }
        let row = catalog.encode_row(schema, &datums)?;
        out.push(row)?;
    }
    Ok(out)
}

/// Export a multi-relation as CSV text with a header line.
pub fn export_csv(catalog: &Catalog, rel: &MultiRelation) -> Result<String, RelationError> {
    let mut out = String::new();
    let names: Vec<String> = rel
        .schema()
        .columns()
        .iter()
        .map(|c| render_field(&c.name))
        .collect();
    out.push_str(&names.join(","));
    out.push('\n');
    for row in rel.rows() {
        let datums = catalog.decode_row(rel.schema(), row)?;
        let cells: Vec<String> = datums
            .iter()
            .map(|d| render_field(&d.to_string()))
            .collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;

    fn setup() -> (Catalog, Schema) {
        let mut cat = Catalog::new();
        let names = cat.add_domain("names", DomainKind::Str);
        let ages = cat.add_domain("ages", DomainKind::Int);
        let active = cat.add_domain("active", DomainKind::Bool);
        let schema = Schema::new(vec![
            Column::new("name", names),
            Column::new("age", ages),
            Column::new("active", active),
        ]);
        (cat, schema)
    }

    #[test]
    fn round_trip_with_header() {
        let (mut cat, schema) = setup();
        let text = "name,age,active\nalice,30,true\nbob,25,false\n";
        let rel = import_csv(&mut cat, &schema, text).unwrap();
        assert_eq!(rel.len(), 2);
        let exported = export_csv(&cat, &rel).unwrap();
        // Re-import the export: identical rows.
        let rel2 = import_csv(&mut cat, &schema, &exported).unwrap();
        assert_eq!(rel.rows(), rel2.rows());
    }

    #[test]
    fn headerless_input_is_accepted() {
        let (mut cat, schema) = setup();
        let rel = import_csv(&mut cat, &schema, "carol,40,1\n").unwrap();
        assert_eq!(rel.len(), 1);
        let decoded = cat.decode_row(&schema, &rel.rows()[0]).unwrap();
        assert_eq!(decoded[0], Datum::str("carol"));
        assert_eq!(decoded[2], Datum::Bool(true));
    }

    #[test]
    fn quoted_fields_with_commas_and_quotes() {
        let (mut cat, schema) = setup();
        let text = "\"doe, jane\",22,true\n\"say \"\"hi\"\"\",23,false\n";
        let rel = import_csv(&mut cat, &schema, text).unwrap();
        let d0 = cat.decode_row(&schema, &rel.rows()[0]).unwrap();
        assert_eq!(d0[0], Datum::str("doe, jane"));
        let d1 = cat.decode_row(&schema, &rel.rows()[1]).unwrap();
        assert_eq!(d1[0], Datum::str("say \"hi\""));
        // Export re-quotes correctly.
        let exported = export_csv(&cat, &rel).unwrap();
        assert!(exported.contains("\"doe, jane\""));
        assert!(exported.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn bad_field_counts_and_types_are_errors() {
        let (mut cat, schema) = setup();
        assert!(matches!(
            import_csv(&mut cat, &schema, "only,two\n"),
            Err(RelationError::ArityMismatch { .. })
        ));
        assert!(import_csv(&mut cat, &schema, "x,notanumber,true\n").is_err());
        assert!(import_csv(&mut cat, &schema, "x,1,maybe\n").is_err());
    }

    #[test]
    fn malformed_quotes_are_errors() {
        let (mut cat, schema) = setup();
        assert!(import_csv(&mut cat, &schema, "\"unterminated,1,true\n").is_err());
        assert!(import_csv(&mut cat, &schema, "ab\"cd,1,true\n").is_err());
    }

    #[test]
    fn date_columns_round_trip() {
        let mut cat = Catalog::new();
        let dates = cat.add_domain("hired", DomainKind::Date);
        let schema = Schema::new(vec![Column::new("hired", dates)]);
        let rel = import_csv(&mut cat, &schema, "19000\n-3\n").unwrap();
        assert_eq!(
            cat.decode_row(&schema, &rel.rows()[0]).unwrap(),
            vec![Datum::Date(19000)]
        );
        assert_eq!(
            cat.decode_row(&schema, &rel.rows()[1]).unwrap(),
            vec![Datum::Date(-3)]
        );
        let text = export_csv(&cat, &rel).unwrap();
        assert!(text.contains("day#19000"));
    }

    #[test]
    fn empty_input_gives_empty_relation() {
        let (mut cat, schema) = setup();
        let rel = import_csv(&mut cat, &schema, "").unwrap();
        assert!(rel.is_empty());
        let rel = import_csv(&mut cat, &schema, "\n  \n").unwrap();
        assert!(rel.is_empty());
    }
}
