//! Loader for the UCR Time Series Archive file format.
//!
//! The archive distributes each dataset as `<Name>_TRAIN` / `<Name>_TEST`
//! text files with one series per line: a class label followed by the
//! samples, separated by commas or whitespace (both conventions appear across
//! archive generations). This loader accepts either, skips blank lines, and
//! validates every value.
//!
//! The paper evaluates on ItalyPower, ECG, Face, Wafer, Symbols, TwoPattern
//! and StarLightCurves from this archive. The archive itself is not bundled
//! ([`crate::synth`] stands in for it); drop real files next to the binary
//! and load them here to run the experiments on the original data.

use crate::{Dataset, Result, TimeSeries, TsError};
use std::io::BufRead;
use std::path::Path;

/// Parses one UCR-format line into (label, values).
fn parse_line(line: &str, line_no: usize) -> Result<Option<TimeSeries>> {
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    let mut fields = trimmed
        .split(|c: char| c == ',' || c.is_whitespace())
        .filter(|f| !f.is_empty());
    let label_field = fields.next().ok_or(TsError::Parse {
        line: line_no,
        message: "empty record".to_string(),
    })?;
    // Labels are integers in the archive but occasionally serialized as
    // floats ("1.0000000e+00" in newer drops); accept both.
    let label = label_field
        .parse::<f64>()
        .map_err(|e| TsError::Parse {
            line: line_no,
            message: format!("bad label {label_field:?}: {e}"),
        })?
        .round() as i32;
    let mut values = Vec::new();
    for field in fields {
        let v = field.parse::<f64>().map_err(|e| TsError::Parse {
            line: line_no,
            message: format!("bad value {field:?}: {e}"),
        })?;
        values.push(v);
    }
    if values.is_empty() {
        return Err(TsError::Parse {
            line: line_no,
            message: "record has a label but no samples".to_string(),
        });
    }
    Ok(Some(TimeSeries::with_label(values, label).map_err(
        |e| TsError::Parse {
            line: line_no,
            message: e.to_string(),
        },
    )?))
}

/// Reads a UCR-format dataset from any buffered reader.
pub fn read_ucr<R: BufRead>(name: &str, reader: R) -> Result<Dataset> {
    let mut series = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        if let Some(ts) = parse_line(&line, i + 1)? {
            series.push(ts);
        }
    }
    Ok(Dataset::new(name, series))
}

/// Loads a UCR-format dataset from a file path; the dataset name is the file
/// stem.
pub fn load_ucr_file(path: impl AsRef<Path>) -> Result<Dataset> {
    let path = path.as_ref();
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "ucr".to_string());
    let file = std::fs::File::open(path)?;
    read_ucr(&name, std::io::BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_comma_separated() {
        let input = "1,0.5,0.25,0.125\n2,1.0,2.0,3.0\n";
        let d = read_ucr("t", std::io::Cursor::new(input)).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.get(0).unwrap().label(), Some(1));
        assert_eq!(d.get(0).unwrap().values(), &[0.5, 0.25, 0.125]);
        assert_eq!(d.get(1).unwrap().label(), Some(2));
    }

    #[test]
    fn parses_whitespace_separated_and_scientific_labels() {
        let input = " 1.0000000e+00   2.1  3.2 \n\n-1.0000000e+00\t4.0\t5.0\n";
        let d = read_ucr("t", std::io::Cursor::new(input)).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.get(0).unwrap().label(), Some(1));
        assert_eq!(d.get(1).unwrap().label(), Some(-1));
        assert_eq!(d.get(1).unwrap().values(), &[4.0, 5.0]);
    }

    #[test]
    fn rejects_malformed_value() {
        let input = "1,0.5,oops\n";
        let err = read_ucr("t", std::io::Cursor::new(input)).unwrap_err();
        assert!(matches!(err, TsError::Parse { line: 1, .. }));
    }

    #[test]
    fn rejects_label_only_record() {
        let input = "1\n";
        let err = read_ucr("t", std::io::Cursor::new(input)).unwrap_err();
        assert!(matches!(err, TsError::Parse { line: 1, .. }));
    }

    #[test]
    fn rejects_non_finite_sample() {
        let input = "1,0.5,nan\n";
        // "nan" parses as f64::NAN, which TimeSeries then rejects.
        let err = read_ucr("t", std::io::Cursor::new(input)).unwrap_err();
        assert!(matches!(err, TsError::Parse { line: 1, .. }));
    }

    #[test]
    fn blank_lines_are_skipped() {
        let input = "\n\n1,1.0,2.0\n\n";
        let d = read_ucr("t", std::io::Cursor::new(input)).unwrap();
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn load_from_file() {
        let dir = std::env::temp_dir().join("onex_ucr_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("Toy_TRAIN");
        std::fs::write(&path, "1,0.0,1.0\n2,2.0,3.0\n").unwrap();
        let d = load_ucr_file(&path).unwrap();
        assert_eq!(d.name(), "Toy_TRAIN");
        assert_eq!(d.len(), 2);
        std::fs::remove_file(&path).ok();
    }
}
