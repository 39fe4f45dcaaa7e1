//! The few lines of JSON the benchmark writes (no serializer dependency).

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// `"<samples>x<repeats>"` or a plain count — how much was measured.
    pub samples: String,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: impl ToString) -> Self {
        Metric {
            name,
            value,
            unit,
            samples: samples.to_string(),
        }
    }
}

/// A quoted, escaped JSON string.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit the `f64` has; `null` when not finite.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The driver's result object, one line:
/// `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(m.name),
                number(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(string("µs"), "\"µs\"");
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(3.0), "3");
        assert_eq!(number(0.1 + 0.2).parse::<f64>().unwrap(), 0.1 + 0.2);
        assert_eq!(number(1e-9).parse::<f64>().unwrap(), 1e-9);
        assert!(!number(1e-9).contains('e'));
        assert_eq!(number(f64::NAN), "null");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let m = |name, value, unit| Metric::new(name, value, unit, 1);
        let line = result_line(10, 0, &[m("a_ms", 1.25, "ms"), m("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(result_line(10, 1, &[]).starts_with("{\"correct\": false"));
        assert!(!line.contains('\n'));
    }
}
