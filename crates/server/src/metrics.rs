//! The server's metrics scrape: a small Prometheus text writer, the shape
//! linter, and a series lookup.
//!
//! The server is the only place that names a metric: `Shared::render_metrics`
//! writes every series through `Scrape`, the `stats` verb ships the text
//! verbatim, and clients print or [`lint`] it as is.  Tests and experiments
//! read single series back with [`value`].
//!
//! Every line is `name{labels} value` with an unsigned integer value.
//! Histograms render in cumulative Prometheus shape (`_bucket{le=…}` lines
//! up to `le="+Inf"`, then `_sum` and `_count`) plus `_p50`/`_p95`/`_p99`
//! quantile gauges.

use spanner_slp_core::trace::{bucket_le, HistSnapshot};
use std::collections::HashSet;
use std::fmt::Write;

/// A scrape under construction: one `name{labels} value` line per series.
#[derive(Debug, Default)]
pub(crate) struct Scrape {
    text: String,
}

impl Scrape {
    /// Appends one monotone counter series.
    pub(crate) fn counter(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.line(name, labels, value);
    }

    /// Appends one gauge series (a value that can go down).
    pub(crate) fn gauge(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.line(name, labels, value);
    }

    /// Appends one log2 histogram: cumulative `<name>_bucket` lines for
    /// every bucket up to the last non-empty one, the `le="+Inf"`
    /// terminator, `<name>_sum`, `<name>_count`, and the p50/p95/p99
    /// quantile gauges `<name>_p<q>`.
    pub(crate) fn hist(&mut self, name: &str, labels: &[(&str, &str)], hist: &HistSnapshot) {
        let bucket = format!("{name}_bucket");
        let mut seen = 0u64;
        for (i, count) in hist.clone().trimmed().buckets.iter().enumerate() {
            seen += count;
            let le = bucket_le(i).to_string();
            self.line(&bucket, &[labels, &[("le", le.as_str())]].concat(), seen);
        }
        self.line(&bucket, &[labels, &[("le", "+Inf")]].concat(), hist.count);
        self.line(&format!("{name}_sum"), labels, hist.sum);
        self.line(&format!("{name}_count"), labels, hist.count);
        for (suffix, p) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
            self.line(&format!("{name}_{suffix}"), labels, hist.percentile(p));
        }
    }

    /// The finished scrape text (no trailing newline).
    pub(crate) fn finish(mut self) -> String {
        self.text.pop();
        self.text
    }

    fn line(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.text.push_str(name);
        for (i, (key, val)) in labels.iter().enumerate() {
            let open = if i == 0 { '{' } else { ',' };
            let _ = write!(self.text, "{open}{key}=\"{val}\"");
        }
        if !labels.is_empty() {
            self.text.push('}');
        }
        let _ = writeln!(self.text, " {value}");
    }
}

/// The value of one series (`name` or `name{labels}`, exactly as rendered)
/// in a scrape, or `None` if the scrape has no such line.
pub fn value(text: &str, series: &str) -> Option<u64> {
    text.lines()
        .filter_map(|line| line.rsplit_once(' '))
        .find(|(name, _)| *name == series)
        .and_then(|(_, value)| value.parse().ok())
}

/// One `_bucket` family during linting: the family key (metric name plus
/// non-`le` labels), the `(le bound, cumulative value)` pairs seen so far, and
/// the `+Inf` terminator value once it arrives.
type BucketFamily = (String, Vec<(f64, u64)>, Option<u64>);

/// Validates scrape text well-formedness without a regex engine: every
/// line must be `name{labels} value` with a legal metric name, properly
/// quoted labels, and an unsigned integer value; `_bucket` families must
/// be cumulative and end in a `le="+Inf"` bucket that matches the
/// family's `_count`.  Returns the number of lines checked.
pub fn lint(text: &str) -> Result<usize, String> {
    let name_ok = |name: &str| {
        !name.is_empty()
            && !name.starts_with(|c: char| c.is_ascii_digit())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    };
    let mut seen = HashSet::new();
    let mut families: Vec<BucketFamily> = Vec::new();
    let mut counts: Vec<(String, u64)> = Vec::new();
    let mut lines = 0;
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        lines += 1;
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {lineno}: no value separator"))?;
        let value: u64 = value
            .parse()
            .map_err(|_| format!("line {lineno}: value '{value}' is not an unsigned integer"))?;
        if !seen.insert(series.to_string()) {
            return Err(format!("line {lineno}: duplicate series {series}"));
        }
        let (name, labels) = match series.split_once('{') {
            None => (series, Vec::new()),
            Some((name, rest)) => {
                let body = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {lineno}: unterminated label braces"))?;
                let mut labels = Vec::new();
                for pair in body.split(',') {
                    let (key, val) = pair
                        .split_once('=')
                        .ok_or_else(|| format!("line {lineno}: label '{pair}' has no '='"))?;
                    let val = val
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .ok_or_else(|| format!("line {lineno}: label '{pair}' is not quoted"))?;
                    if !name_ok(key) || val.contains(['"', '\\', '\n']) {
                        return Err(format!("line {lineno}: malformed label '{pair}'"));
                    }
                    labels.push((key.to_string(), val.to_string()));
                }
                (name, labels)
            }
        };
        if !name_ok(name) {
            return Err(format!("line {lineno}: malformed metric name '{name}'"));
        }
        let other_labels: Vec<String> = labels
            .iter()
            .filter(|(k, _)| k != "le")
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        if let Some(base) = name.strip_suffix("_bucket") {
            let key = format!("{base}|{}", other_labels.join(","));
            let le = &labels
                .iter()
                .find(|(k, _)| k == "le")
                .ok_or_else(|| format!("line {lineno}: bucket without le label"))?
                .1;
            let slot = match families.iter_mut().find(|(k, _, _)| *k == key) {
                Some(slot) => slot,
                None => {
                    families.push((key, Vec::new(), None));
                    families.last_mut().expect("just pushed")
                }
            };
            if le == "+Inf" {
                slot.2 = Some(value);
            } else {
                let bound: f64 = le
                    .parse()
                    .map_err(|_| format!("line {lineno}: bucket bound '{le}' is not numeric"))?;
                slot.1.push((bound, value));
            }
        } else if let Some(base) = name.strip_suffix("_count") {
            counts.push((format!("{base}|{}", other_labels.join(",")), value));
        }
    }
    for (key, buckets, inf) in &families {
        let inf =
            inf.ok_or_else(|| format!("bucket family {key} has no le=\"+Inf\" terminator"))?;
        let mut last = (f64::NEG_INFINITY, 0u64);
        for &(bound, cumulative) in buckets {
            if bound <= last.0 {
                return Err(format!("bucket family {key}: le bounds not increasing"));
            }
            if cumulative < last.1 {
                return Err(format!("bucket family {key}: counts not cumulative"));
            }
            last = (bound, cumulative);
        }
        if last.1 > inf {
            return Err(format!("bucket family {key}: +Inf below a finite bucket"));
        }
        if let Some((_, count)) = counts.iter().find(|(k, _)| k == key) {
            if *count != inf {
                return Err(format!("bucket family {key}: +Inf != _count"));
            }
        }
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist_with(samples: &[u64]) -> HistSnapshot {
        let hist = spanner_slp_core::trace::Hist::new();
        for &s in samples {
            hist.observe(s);
        }
        hist.snapshot()
    }

    #[test]
    fn rendered_histograms_pass_the_lint() {
        let mut scrape = Scrape::default();
        scrape.hist(
            "spanner_request_duration_us",
            &[("kind", "count")],
            &hist_with(&[1, 5, 5, 900, 40_000]),
        );
        scrape.hist("spanner_shard_pass_duration_us", &[], &hist_with(&[]));
        let text = scrape.finish();
        assert_eq!(lint(&text).unwrap(), text.lines().count());
        // The cumulative terminator equals the sample count.
        assert!(text.contains("le=\"+Inf\"} 5"));
        assert!(text.contains("spanner_request_duration_us_count{kind=\"count\"} 5"));
    }

    #[test]
    fn lint_rejects_malformed_lines() {
        for (bad, why) in [
            ("spanner_x", "no value separator"),
            ("spanner_x notanumber", "non-numeric value"),
            ("9leading_digit 3", "bad metric name"),
            ("spanner_x{unquoted=3} 1", "unquoted label"),
            ("spanner_x{k=\"v\" 1", "unterminated braces"),
            ("spanner_x 1\nspanner_x 2", "duplicate series"),
            ("spanner_x_bucket{le=\"1\"} 1", "no +Inf terminator"),
            (
                "spanner_x_bucket{le=\"2\"} 5\nspanner_x_bucket{le=\"1\"} 1\nspanner_x_bucket{le=\"+Inf\"} 5",
                "bounds out of order",
            ),
            (
                "spanner_x_bucket{le=\"1\"} 5\nspanner_x_bucket{le=\"2\"} 3\nspanner_x_bucket{le=\"+Inf\"} 5",
                "not cumulative",
            ),
            (
                "spanner_x_bucket{le=\"1\"} 5\nspanner_x_bucket{le=\"+Inf\"} 5\nspanner_x_count 4",
                "+Inf disagrees with _count",
            ),
        ] {
            assert!(lint(bad).is_err(), "lint accepted: {why}");
        }
    }

    #[test]
    fn lint_accepts_plain_counters_and_labelled_gauges() {
        let text = "spanner_requests_total 12\n\
                    spanner_tenant_docs{tenant=\"7\"} 3\n\
                    spanner_store_compaction_duration_us{stat=\"last\"} 0";
        assert_eq!(lint(text).unwrap(), 3);
    }

    #[test]
    fn value_reads_one_series_back() {
        let mut scrape = Scrape::default();
        scrape.counter("spanner_requests_total", &[], 12);
        scrape.gauge("spanner_tenant_docs", &[("tenant", "7")], 3);
        let text = scrape.finish();
        assert_eq!(value(&text, "spanner_requests_total"), Some(12));
        assert_eq!(value(&text, "spanner_tenant_docs{tenant=\"7\"}"), Some(3));
        assert_eq!(value(&text, "spanner_tenant_docs"), None);
    }
}
