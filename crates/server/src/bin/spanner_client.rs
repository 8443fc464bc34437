//! The `spanner-client` binary: drive a running `spanner-server` with a
//! scripted session (CI smoke, demos, ad-hoc poking).
//!
//! ```text
//! spanner-client <addr> [script-file]     # '-' or no file = stdin
//! ```
//!
//! One command per line (`#` starts a comment):
//!
//! ```text
//! ping
//! tenant <t>                          # switch namespace (0 = default)
//! tenant_create <id> <name> <max_docs> <max_bytes> <cache_share> <weight>
//! tenant_update <id> <name> <max_docs> <max_bytes> <cache_share> <weight>
//! add_query <pattern> <alphabet>      # e.g. add_query .*x{ab}.* ab
//! add_doc <text>
//! add_doc_sharded <k> <text>          # k = 0 lets the server auto-tune
//! remove_doc <d>
//! nonempty <q> <d>
//! check <q> <d> <tuple>               # tuple: x0=1,3 x1=- … (start,end; - = unset)
//! count <q> <d>
//! compute <q> <d> <limit|->
//! enum <q> <d> <skip> <limit|->
//! trace <op> <args...>                # run any op sampled; print its span tree
//! stats                               # the server's metrics scrape
//! scrapelint                          # stats + well-formedness check
//! shutdown
//! ```
//!
//! Every reply is printed as one line — except `stats`, which prints the
//! server's own scrape verbatim (`spanner_<name>[{labels}] <value>` lines,
//! rendered server-side; `scrapelint` additionally validates that shape
//! and fails loudly on a malformed line), and `trace`, which re-runs any
//! task command with sampling on and pretty-prints the stitched span tree
//! the server returned, one indented line per span.  `busy` backpressure is retried
//! with a small backoff; any other server error aborts with exit code 1,
//! so a CI script fails loudly.

use spanner::{Span, SpanTuple, Variable};
use spanner_server::{metrics, retry_busy, Client, ClientError, TenantSpec};
use spanner_slp_core::trace::SpanRec;
use std::io::{BufRead, BufReader};
use std::time::Duration;

const RETRIES: usize = 200;
const BACKOFF: Duration = Duration::from_millis(10);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(addr) = args.first() else {
        eprintln!("usage: spanner-client <addr> [script-file]");
        std::process::exit(2);
    };
    let script: Box<dyn BufRead> = match args.get(1).map(String::as_str) {
        None | Some("-") => Box::new(BufReader::new(std::io::stdin())),
        Some(path) => match std::fs::File::open(path) {
            Ok(file) => Box::new(BufReader::new(file)),
            Err(e) => {
                eprintln!("cannot open script {path}: {e}");
                std::process::exit(2);
            }
        },
    };

    let mut client = match Client::connect(addr.as_str()) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };

    for (lineno, line) in script.lines().enumerate() {
        let line = line.unwrap_or_else(|e| fail(lineno, &format!("read error: {e}")));
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match run_command(&mut client, line) {
            Ok(output) => println!("{output}"),
            Err(e) => fail(lineno, &format!("'{line}': {e}")),
        }
    }
}

fn fail(lineno: usize, message: &str) -> ! {
    eprintln!("spanner-client: line {}: {message}", lineno + 1);
    std::process::exit(1);
}

fn run_command(client: &mut Client, line: &str) -> Result<String, ClientError> {
    let mut words = line.split_whitespace();
    let command = words.next().expect("non-empty line");
    let rest: Vec<&str> = words.collect();
    let arg = |i: usize| -> Result<&str, ClientError> {
        rest.get(i)
            .copied()
            .ok_or_else(|| ClientError::Protocol(format!("{command}: missing argument {i}")))
    };
    let num = |i: usize| -> Result<u64, ClientError> {
        arg(i)?
            .parse()
            .map_err(|_| ClientError::Protocol(format!("{command}: argument {i} is not a number")))
    };
    let opt_num = |i: usize| -> Result<Option<u64>, ClientError> {
        let word = arg(i)?;
        if word == "-" {
            Ok(None)
        } else {
            Ok(Some(word.parse().map_err(|_| {
                ClientError::Protocol(format!("{command}: argument {i} is not a number or '-'"))
            })?))
        }
    };

    let spec = || -> Result<TenantSpec, ClientError> {
        Ok(TenantSpec {
            id: num(0)? as u32,
            name: arg(1)?.to_string(),
            max_docs: num(2)?,
            max_corpus_bytes: num(3)?,
            cache_share: num(4)?,
            admission_weight: num(5)? as u32,
        })
    };

    match command {
        "ping" => Ok(format!("pong proto={}", client.ping()?)),
        "tenant" => {
            let t = num(0)? as u32;
            client.set_tenant(t);
            Ok(format!("tenant {t}"))
        }
        "tenant_create" => {
            let spec = spec()?;
            let id = spec.id;
            retry_busy(RETRIES, BACKOFF, || client.tenant_create(spec.clone()))?;
            Ok(format!("tenant {id} created"))
        }
        "tenant_update" => {
            let spec = spec()?;
            let id = spec.id;
            retry_busy(RETRIES, BACKOFF, || client.tenant_update(spec.clone()))?;
            Ok(format!("tenant {id} updated"))
        }
        "add_query" => {
            let id = retry_busy(RETRIES, BACKOFF, || {
                client.add_query(arg(0)?, arg(1)?.as_bytes())
            })?;
            Ok(format!("query {id}"))
        }
        "add_doc" => {
            let receipt = retry_busy(RETRIES, BACKOFF, || client.add_doc(arg(0)?.as_bytes()))?;
            Ok(format!(
                "doc {} shards={} len={}",
                receipt.id, receipt.shards, receipt.len
            ))
        }
        "add_doc_sharded" => {
            let k = num(0)?;
            let receipt = retry_busy(RETRIES, BACKOFF, || {
                client.add_doc_sharded(arg(1)?.as_bytes(), k)
            })?;
            Ok(format!(
                "doc {} shards={} len={}",
                receipt.id, receipt.shards, receipt.len
            ))
        }
        "remove_doc" => {
            let d = num(0)?;
            retry_busy(RETRIES, BACKOFF, || client.remove_doc(d))?;
            Ok(format!("removed {d}"))
        }
        "nonempty" => {
            let (q, d) = (num(0)?, num(1)?);
            let (value, stats) = retry_busy(RETRIES, BACKOFF, || client.non_empty(q, d))?;
            Ok(format!("nonempty {value} cache_hit={}", stats.cache_hit))
        }
        "check" => {
            let (q, d) = (num(0)?, num(1)?);
            let tuple = parse_tuple(rest.get(2..).unwrap_or(&[]))?;
            let (value, _) = retry_busy(RETRIES, BACKOFF, || client.model_check(q, d, &tuple))?;
            Ok(format!("checked {value}"))
        }
        "count" => {
            let (q, d) = (num(0)?, num(1)?);
            let (value, stats) = retry_busy(RETRIES, BACKOFF, || client.count(q, d))?;
            Ok(format!("count {value} cache_hit={}", stats.cache_hit))
        }
        "compute" => {
            let (q, d, limit) = (num(0)?, num(1)?, opt_num(2)?);
            let (tuples, _) = retry_busy(RETRIES, BACKOFF, || client.compute(q, d, limit))?;
            Ok(format!(
                "tuples {} {}",
                tuples.len(),
                render_tuples(&tuples)
            ))
        }
        "enum" => {
            let (q, d, skip, limit) = (num(0)?, num(1)?, num(2)?, opt_num(3)?);
            let mut pages = 0;
            let (tuples, _) = retry_busy(RETRIES, BACKOFF, || {
                pages = 0;
                client.enumerate(q, d, skip, limit, |_| pages += 1)
            })?;
            Ok(format!("enumerated {} pages={pages}", tuples.len()))
        }
        "trace" => {
            let inner = line
                .trim_start()
                .strip_prefix("trace")
                .expect("matched above")
                .trim();
            if inner.is_empty() || inner.starts_with("trace") {
                return Err(ClientError::Protocol(
                    "trace expects a task command to run, e.g. 'trace count 0 0'".into(),
                ));
            }
            client.set_tracing(true);
            let result = run_command(client, inner);
            let tree = client.last_trace().map(render_trace);
            client.set_tracing(false);
            let output = result?;
            match tree {
                Some(tree) => Ok(format!("{output}\n{tree}")),
                None => Ok(format!("{output}\n(no trace returned)")),
            }
        }
        "stats" => client.stats(),
        "scrapelint" => {
            let text = client.stats()?;
            match metrics::lint(&text) {
                Ok(lines) => Ok(format!("{text}\nscrapelint ok lines={lines}")),
                Err(e) => Err(ClientError::Protocol(format!("scrapelint: {e}"))),
            }
        }
        "shutdown" => {
            client.shutdown()?;
            Ok("shutdown acknowledged".to_string())
        }
        other => Err(ClientError::Protocol(format!("unknown command '{other}'"))),
    }
}

/// Pretty-prints a stitched span tree, one indented line per span:
/// `name start..end µs` plus any attributes as `k=v` pairs.  Children
/// appear under their parent in recording order.
fn render_trace(spans: &[SpanRec]) -> String {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut roots = Vec::new();
    for (i, span) in spans.iter().enumerate() {
        match span.parent {
            Some(p) if (p as usize) < spans.len() => children[p as usize].push(i),
            _ => roots.push(i),
        }
    }
    let mut out = Vec::new();
    let mut stack: Vec<(usize, usize)> = roots.into_iter().rev().map(|i| (i, 0)).collect();
    while let Some((i, depth)) = stack.pop() {
        let span = &spans[i];
        let attrs: Vec<String> = span
            .attrs
            .iter()
            .map(|(k, v)| format!(" {k}={v}"))
            .collect();
        out.push(format!(
            "{}{} {}..{}µs{}",
            "  ".repeat(depth),
            span.name,
            span.start_us,
            span.end_us(),
            attrs.join("")
        ));
        for &child in children[i].iter().rev() {
            stack.push((child, depth + 1));
        }
    }
    out.join("\n")
}

/// Parses `x0=1,3 x1=- …` into a span-tuple (variable index, then
/// `start,end` or `-` for undefined).
fn parse_tuple(words: &[&str]) -> Result<SpanTuple, ClientError> {
    let bad = |w: &str| ClientError::Protocol(format!("bad tuple component '{w}'"));
    let mut tuple = SpanTuple::empty(words.len());
    for word in words {
        let (var, span) = word.split_once('=').ok_or_else(|| bad(word))?;
        let index: u8 = var
            .strip_prefix('x')
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad(word))?;
        if span == "-" {
            continue;
        }
        let (start, end) = span.split_once(',').ok_or_else(|| bad(word))?;
        let span = Span::new(
            start.parse().map_err(|_| bad(word))?,
            end.parse().map_err(|_| bad(word))?,
        )
        .map_err(|e| ClientError::Protocol(e.to_string()))?;
        tuple.set(Variable(index), span);
    }
    Ok(tuple)
}

fn render_tuples(tuples: &[SpanTuple]) -> String {
    let shown: Vec<String> = tuples
        .iter()
        .take(3)
        .map(|t| {
            let vars: Vec<String> = (0..t.num_vars())
                .map(|v| match t.get(Variable(v as u8)) {
                    Some(span) => format!("[{},{})", span.start, span.end),
                    None => "-".to_string(),
                })
                .collect();
            format!("({})", vars.join(" "))
        })
        .collect();
    let ellipsis = if tuples.len() > 3 { " …" } else { "" };
    format!("{}{}", shown.join(" "), ellipsis)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_rendering_indents_children_under_parents() {
        let spans = vec![
            SpanRec {
                name: "task_exec".into(),
                start_us: 0,
                dur_us: 100,
                parent: None,
                attrs: vec![("kind".into(), "count".into())],
            },
            SpanRec {
                name: "shard_rpc".into(),
                start_us: 10,
                dur_us: 50,
                parent: Some(0),
                attrs: Vec::new(),
            },
            SpanRec {
                name: "shard_pass".into(),
                start_us: 15,
                dur_us: 40,
                parent: Some(1),
                attrs: Vec::new(),
            },
        ];
        let text = render_trace(&spans);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "task_exec 0..100µs kind=count");
        assert_eq!(lines[1], "  shard_rpc 10..60µs");
        assert_eq!(lines[2], "    shard_pass 15..55µs");
    }
}
