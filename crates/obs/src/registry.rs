//! The metric [`Registry`]: named families of counters, gauges, and
//! histograms, each family holding one series per label set. Registration
//! takes a mutex once (typically at startup) and hands back an `Arc`
//! handle; recording through the handle is lock-free. Rendering walks the
//! registry under the same mutex — scrapes are rare, records are not.

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Scrape-time gauge callback: evaluated at render, not recorded.
/// Used to mirror externally-aggregated values (engine tier counters
/// merged from per-worker cells) into the same exposition payload.
pub type GaugeFn = Box<dyn Fn() -> f64 + Send + Sync>;

/// Scrape-time histogram callback: evaluated at render, not recorded.
/// This is how per-thread histogram *cells* join the snapshot — the
/// callback merges the cells' [`HistogramSnapshot`]s
/// ([`HistogramSnapshot::merge`] is associative with
/// [`HistogramSnapshot::empty`] as identity, so merge order is free) and
/// the result renders exactly like a directly-registered histogram.
pub type HistogramFn = Box<dyn Fn() -> HistogramSnapshot + Send + Sync>;

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
    GaugeFn(GaugeFn),
    HistogramFn(HistogramFn),
}

struct Series {
    /// Rendered label block including braces (`{tier="sparse_h_bfs"}`),
    /// or empty for an unlabelled series.
    labels: String,
    metric: Metric,
}

struct Family {
    name: String,
    help: String,
    type_name: &'static str,
    series: Vec<Series>,
}

/// A named collection of metric families. Cheap to clone (`Arc` inside);
/// all clones see the same metrics.
#[derive(Clone)]
pub struct Registry {
    inner: Arc<Mutex<Vec<Family>>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

/// Render a label set as a Prometheus label block; empty set → empty
/// string. Values are escaped per the text exposition format.
fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| {
            let escaped = v
                .replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n");
            format!("{k}=\"{escaped}\"")
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Splice an extra label (`le="..."`) into an already-rendered block.
fn with_extra_label(labels: &str, extra: &str) -> String {
    if labels.is_empty() {
        format!("{{{extra}}}")
    } else {
        format!("{},{extra}}}", &labels[..labels.len() - 1])
    }
}

fn render_histogram_text(out: &mut String, name: &str, labels: &str, snap: &HistogramSnapshot) {
    let mut cumulative = 0u64;
    for (upper, count) in snap.nonzero_buckets() {
        cumulative += count;
        let le = upper as f64 / 1e9;
        let block = with_extra_label(labels, &format!("le=\"{le}\""));
        let _ = writeln!(out, "{name}_bucket{block} {cumulative}");
    }
    let inf = with_extra_label(labels, "le=\"+Inf\"");
    let _ = writeln!(out, "{name}_bucket{inf} {}", snap.count());
    let _ = writeln!(out, "{name}_sum{labels} {}", snap.sum() as f64 / 1e9);
    let _ = writeln!(out, "{name}_count{labels} {}", snap.count());
}

fn render_histogram_json(s: &HistogramSnapshot) -> String {
    let secs = |ns: u64| ns as f64 / 1e9;
    format!(
        "{{\"count\":{},\"sum_seconds\":{},\"mean_seconds\":{},\
         \"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{},\"max_seconds\":{}}}",
        s.count(),
        secs(s.sum()),
        s.mean() / 1e9,
        secs(s.value_at_quantile(0.50)),
        secs(s.value_at_quantile(0.90)),
        secs(s.value_at_quantile(0.99)),
        secs(s.value_at_quantile(0.999)),
        secs(s.max()),
    )
}

impl Registry {
    pub fn new() -> Self {
        Registry {
            inner: Arc::new(Mutex::new(Vec::new())),
        }
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        type_name: &'static str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Option<Metric> {
        let mut families = self.inner.lock().expect("registry poisoned");
        let rendered = render_labels(labels);
        let family = match families.iter_mut().find(|f| f.name == name) {
            Some(f) => {
                assert_eq!(
                    f.type_name, type_name,
                    "metric {name} re-registered with a different type"
                );
                f
            }
            None => {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    type_name,
                    series: Vec::new(),
                });
                families.last_mut().expect("just pushed")
            }
        };
        if let Some(existing) = family.series.iter().find(|s| s.labels == rendered) {
            // Get-or-register: hand back the existing handle.
            return Some(match &existing.metric {
                Metric::Counter(c) => Metric::Counter(Arc::clone(c)),
                Metric::Gauge(g) => Metric::Gauge(Arc::clone(g)),
                Metric::Histogram(h) => Metric::Histogram(Arc::clone(h)),
                Metric::GaugeFn(_) | Metric::HistogramFn(_) => {
                    panic!("metric {name}{rendered} re-registered as callback")
                }
            });
        }
        family.series.push(Series {
            labels: rendered,
            metric: make(),
        });
        None
    }

    /// Get or register a counter series.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let fresh = Arc::new(Counter::new());
        let handle = Arc::clone(&fresh);
        match self.register(name, help, "counter", labels, move || {
            Metric::Counter(handle)
        }) {
            Some(Metric::Counter(c)) => c,
            Some(_) => panic!("metric {name} is not a counter"),
            None => fresh,
        }
    }

    /// Get or register a gauge series.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let fresh = Arc::new(Gauge::new());
        let handle = Arc::clone(&fresh);
        match self.register(name, help, "gauge", labels, move || Metric::Gauge(handle)) {
            Some(Metric::Gauge(g)) => g,
            Some(_) => panic!("metric {name} is not a gauge"),
            None => fresh,
        }
    }

    /// Get or register a histogram series (nanosecond samples, rendered in
    /// seconds).
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let fresh = Arc::new(Histogram::new());
        let handle = Arc::clone(&fresh);
        match self.register(name, help, "histogram", labels, move || {
            Metric::Histogram(handle)
        }) {
            Some(Metric::Histogram(h)) => h,
            Some(_) => panic!("metric {name} is not a histogram"),
            None => fresh,
        }
    }

    /// Register an externally-computed gauge, evaluated at scrape time.
    /// Registering the same `(name, labels)` twice replaces the callback.
    pub fn gauge_fn(&self, name: &str, help: &str, labels: &[(&str, &str)], f: GaugeFn) {
        let mut families = self.inner.lock().expect("registry poisoned");
        let rendered = render_labels(labels);
        let family = match families.iter_mut().find(|fam| fam.name == name) {
            Some(fam) => fam,
            None => {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    type_name: "gauge",
                    series: Vec::new(),
                });
                families.last_mut().expect("just pushed")
            }
        };
        if let Some(existing) = family.series.iter_mut().find(|s| s.labels == rendered) {
            existing.metric = Metric::GaugeFn(f);
        } else {
            family.series.push(Series {
                labels: rendered,
                metric: Metric::GaugeFn(f),
            });
        }
    }

    /// Register an externally-merged histogram, evaluated at scrape time:
    /// the callback returns the merged snapshot of per-thread cells.
    /// Registering the same `(name, labels)` twice replaces the callback.
    pub fn histogram_fn(&self, name: &str, help: &str, labels: &[(&str, &str)], f: HistogramFn) {
        let mut families = self.inner.lock().expect("registry poisoned");
        let rendered = render_labels(labels);
        let family = match families.iter_mut().find(|fam| fam.name == name) {
            Some(fam) => fam,
            None => {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    type_name: "histogram",
                    series: Vec::new(),
                });
                families.last_mut().expect("just pushed")
            }
        };
        if let Some(existing) = family.series.iter_mut().find(|s| s.labels == rendered) {
            existing.metric = Metric::HistogramFn(f);
        } else {
            family.series.push(Series {
                labels: rendered,
                metric: Metric::HistogramFn(f),
            });
        }
    }

    /// Render everything in the Prometheus text exposition format.
    /// Histogram samples are nanoseconds internally; bucket bounds, sums,
    /// and quantile-free aggregates are emitted in **seconds** per the
    /// Prometheus base-unit convention. Only non-empty buckets are
    /// emitted (plus the mandatory `+Inf`), keeping payloads proportional
    /// to observed spread rather than the 1000+-cell layout.
    pub fn render_prometheus(&self) -> String {
        let families = self.inner.lock().expect("registry poisoned");
        let mut out = String::new();
        for family in families.iter() {
            let _ = writeln!(out, "# HELP {} {}", family.name, family.help);
            let _ = writeln!(out, "# TYPE {} {}", family.name, family.type_name);
            for series in &family.series {
                let name = &family.name;
                let labels = &series.labels;
                match &series.metric {
                    Metric::Counter(c) => {
                        let _ = writeln!(out, "{name}{labels} {}", c.get());
                    }
                    Metric::Gauge(g) => {
                        let _ = writeln!(out, "{name}{labels} {}", g.get());
                    }
                    Metric::GaugeFn(f) => {
                        let _ = writeln!(out, "{name}{labels} {}", f());
                    }
                    Metric::Histogram(h) => {
                        render_histogram_text(&mut out, name, labels, &h.snapshot());
                    }
                    Metric::HistogramFn(f) => {
                        render_histogram_text(&mut out, name, labels, &f());
                    }
                }
            }
        }
        out
    }

    /// Render everything as a single JSON object keyed by
    /// `name{labels}`. Counters and gauges map to numbers; histograms map
    /// to `{count, sum_seconds, mean_seconds, p50..p999, max_seconds}` —
    /// the shape `ftb-loadgen --metrics-out` writes for trajectory
    /// tooling.
    pub fn render_json(&self) -> String {
        let families = self.inner.lock().expect("registry poisoned");
        // BTreeMap for deterministic key order in the output.
        let mut entries: BTreeMap<String, String> = BTreeMap::new();
        for family in families.iter() {
            for series in &family.series {
                let key = format!("{}{}", family.name, series.labels);
                let value = match &series.metric {
                    Metric::Counter(c) => format!("{}", c.get()),
                    Metric::Gauge(g) => format!("{}", g.get()),
                    Metric::GaugeFn(f) => {
                        let v = f();
                        if v.is_finite() {
                            format!("{v}")
                        } else {
                            "null".to_string()
                        }
                    }
                    Metric::Histogram(h) => render_histogram_json(&h.snapshot()),
                    Metric::HistogramFn(f) => render_histogram_json(&f()),
                };
                entries.insert(key, value);
            }
        }
        let mut out = String::from("{");
        for (i, (key, value)) in entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let escaped = key.replace('\\', "\\\\").replace('"', "\\\"");
            let _ = write!(out, "\n  \"{escaped}\": {value}");
        }
        out.push_str("\n}\n");
        out
    }
}

/// A Prometheus text payload read back into its samples: the reader that
/// pairs with [`Registry::render_prometheus`], so one module knows the
/// exposition format. Samples are keyed by series exactly as rendered
/// (`name{k="v",...}`); lookups render their label set the same way
/// registration does. A histogram reads back through its `_count`,
/// `_sum` and `_bucket` series.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Scrape {
    samples: BTreeMap<String, f64>,
}

impl Scrape {
    /// Read every sample line of `text`; comments and lines that are not
    /// `series value` are skipped.
    pub fn parse(text: &str) -> Scrape {
        let samples = text
            .lines()
            .filter(|line| !line.starts_with('#'))
            .filter_map(|line| {
                let (series, value) = line.rsplit_once(' ')?;
                Some((series.to_string(), value.parse().ok()?))
            })
            .collect();
        Scrape { samples }
    }

    /// The value of series `name{labels}`, if the payload carried it.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let key = format!("{name}{}", render_labels(labels));
        self.samples.get(&key).copied()
    }

    /// The value of a counter series, or 0 if the payload lacks it.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.get(name, labels).map_or(0, |v| v as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_register_returns_same_handle() {
        let r = Registry::new();
        let a = r.counter("ftb_test_total", "test", &[("op", "dist")]);
        let b = r.counter("ftb_test_total", "test", &[("op", "dist")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        let other = r.counter("ftb_test_total", "test", &[("op", "path")]);
        assert_eq!(other.get(), 0);
    }

    #[test]
    fn prometheus_rendering_shape() {
        let r = Registry::new();
        r.counter("ftb_requests_total", "requests", &[("op", "dist")])
            .add(3);
        r.gauge("ftb_active", "active", &[]).set(2);
        let h = r.histogram("ftb_latency_seconds", "latency", &[("tier", "sparse")]);
        h.record(1_000_000); // 1ms
        h.record(2_000_000);
        r.gauge_fn("ftb_mirror", "mirror", &[], Box::new(|| 7.5));
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE ftb_requests_total counter"));
        assert!(text.contains("ftb_requests_total{op=\"dist\"} 3"));
        assert!(text.contains("ftb_active 2"));
        assert!(text.contains("# TYPE ftb_latency_seconds histogram"));
        assert!(text.contains("ftb_latency_seconds_bucket{tier=\"sparse\",le=\"+Inf\"} 2"));
        assert!(text.contains("ftb_latency_seconds_count{tier=\"sparse\"} 2"));
        assert!(text.contains("ftb_mirror 7.5"));
        // Cumulative bucket counts end at the total.
        let last_bucket = text
            .lines()
            .rfind(|l| l.starts_with("ftb_latency_seconds_bucket"))
            .unwrap();
        assert!(last_bucket.ends_with(" 2"));
    }

    #[test]
    fn scrape_reads_back_what_the_renderer_writes() {
        let r = Registry::new();
        r.counter("ftb_plain_total", "plain", &[]).add(41);
        r.counter("ftb_answers_total", "by tier", &[("tier", "sparse_h_bfs")])
            .add(5);
        r.counter(
            "ftb_answers_total",
            "by tier",
            &[("tier", "full_graph_bfs")],
        );
        r.gauge("ftb_depth", "depth", &[]).set(-3);
        r.gauge_fn("ftb_startup_seconds", "startup", &[], Box::new(|| 1.25));
        let h = r.histogram("ftb_wait_seconds", "wait", &[("stage", "queue")]);
        h.record(1_000_000);
        h.record(3_000_000);

        let scrape = Scrape::parse(&r.render_prometheus());
        assert_eq!(scrape.counter("ftb_plain_total", &[]), 41);
        let tier = |t| scrape.counter("ftb_answers_total", &[("tier", t)]);
        assert_eq!(tier("sparse_h_bfs"), 5);
        assert_eq!(
            scrape.get("ftb_answers_total", &[("tier", "full_graph_bfs")]),
            Some(0.0)
        );
        assert_eq!(scrape.get("ftb_answers_total", &[("tier", "nope")]), None);
        assert_eq!(scrape.get("ftb_depth", &[]), Some(-3.0));
        assert_eq!(scrape.get("ftb_startup_seconds", &[]), Some(1.25));
        let labels = [("stage", "queue")];
        assert_eq!(scrape.counter("ftb_wait_seconds_count", &labels), 2);
        let sum = scrape.get("ftb_wait_seconds_sum", &labels).unwrap();
        assert!((sum - 0.004).abs() < 1e-12, "sum {sum}");
        let inf = [("stage", "queue"), ("le", "+Inf")];
        assert_eq!(scrape.counter("ftb_wait_seconds_bucket", &inf), 2);
        // Absent series read as zero counters.
        assert_eq!(scrape.counter("ftb_missing_total", &[]), 0);
    }

    #[test]
    fn histogram_fn_renders_merged_cells() {
        use crate::metrics::HistogramSnapshot;
        let r = Registry::new();
        let cell_a = Arc::new(Histogram::new());
        let cell_b = Arc::new(Histogram::new());
        cell_a.record(1_000);
        cell_b.record(2_000);
        cell_b.record(3_000);
        let (a, b) = (Arc::clone(&cell_a), Arc::clone(&cell_b));
        r.histogram_fn(
            "ftb_cells_seconds",
            "merged per-thread cells",
            &[],
            Box::new(move || {
                let mut merged = HistogramSnapshot::empty();
                merged.merge(&a.snapshot());
                merged.merge(&b.snapshot());
                merged
            }),
        );
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE ftb_cells_seconds histogram"));
        assert!(text.contains("ftb_cells_seconds_count 3"));
        // Cells keep recording after registration; scrapes see the updates.
        cell_a.record(10_000);
        assert!(r.render_prometheus().contains("ftb_cells_seconds_count 4"));
        assert!(r.render_json().contains("\"ftb_cells_seconds\""));
    }

    #[test]
    fn json_rendering_is_parseable_shape() {
        let r = Registry::new();
        r.counter("a_total", "a", &[]).add(1);
        let h = r.histogram("b_seconds", "b", &[("stage", "handle")]);
        h.record(5_000);
        let json = r.render_json();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"a_total\": 1"));
        assert!(json.contains("\"b_seconds{stage=\\\"handle\\\"}\""));
        assert!(json.contains("\"count\":1"));
    }
}
