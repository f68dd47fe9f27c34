#![warn(missing_docs)]

//! # dsv-obs — offline tracing + metrics shim
//!
//! A std-only, dependency-free observability layer exposing an
//! upstream-compatible API subset: a `tracing`-style [`span!`] surface
//! plus a metrics registry of counters, gauges, and histograms
//! ([`counter!`], [`gauge!`], [`histogram!`]).
//!
//! ## Design
//!
//! - **Near-zero overhead when off.** Every macro compiles to a branch on a
//!   single relaxed atomic load ([`spans_enabled`] / [`metrics_enabled`]);
//!   no arguments are evaluated and nothing allocates unless a recorder is
//!   installed. The bench crate's `obs_overhead` bench enforces this.
//! - **Aggregating recorder.** A [`Recorder`] collects spans into a call
//!   tree keyed by span *name*: same-named children of a node merge into
//!   one tree node accumulating `count` and busy wall-time. Because
//!   children are keyed (not ordered by arrival), the tree **shape** is
//!   deterministic across thread counts and interleavings — only timings
//!   vary. [`TraceTree::shape`] exposes exactly the deterministic part.
//! - **Context.** Span creation resolves its parent from (in order): the
//!   top of the calling thread's span stack (pushed by [`Span::enter`]),
//!   the thread-local recorder installed by [`with_recorder`], then the
//!   process-global recorder ([`set_global_recorder`]). Worker threads
//!   spawned by `dsv-par` have fresh thread-locals, so code that fans out
//!   across threads passes a [`SpanHandle`] into the closure and opens
//!   children via [`SpanHandle::child`].
//! - **Self-time.** Snapshots report per-node wall time and self time
//!   (wall minus the sum of child wall), so a phase breakdown sums
//!   consistently with the total.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! let recorder = Arc::new(dsv_obs::Recorder::new());
//! dsv_obs::with_recorder(&recorder, || {
//!     let span = dsv_obs::span!("solve", versions = 10u64);
//!     let _guard = span.enter();
//!     dsv_obs::span!("mst").in_scope(|| { /* work */ });
//! });
//! let tree = recorder.snapshot();
//! assert_eq!(
//!     tree.shape(),
//!     vec![("solve".to_string(), 1), ("solve/mst".to_string(), 1)]
//! );
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Fast-path gates
// ---------------------------------------------------------------------------

/// Count of installed span sinks (global recorder + active `with_recorder`
/// scopes). The macros' disabled fast path is one relaxed load of this.
static SPAN_SINKS: AtomicUsize = AtomicUsize::new(0);

/// Non-zero when the metrics registry accepts updates.
static METRICS_ON: AtomicUsize = AtomicUsize::new(0);

/// Returns `true` if at least one span recorder is installed anywhere
/// (globally or in any thread's `with_recorder` scope).
///
/// This is the single relaxed atomic load the [`span!`] macro branches
/// on when disabled.
#[inline(always)]
pub fn spans_enabled() -> bool {
    SPAN_SINKS.load(Ordering::Relaxed) != 0
}

/// Returns `true` if the metrics registry is accepting updates.
///
/// This is the single relaxed atomic load the [`counter!`] / [`gauge!`] /
/// [`histogram!`] macros branch on when disabled.
#[inline(always)]
pub fn metrics_enabled() -> bool {
    METRICS_ON.load(Ordering::Relaxed) != 0
}

/// Turn the metrics registry on or off. Updates issued while off are
/// dropped at the macro call site (one relaxed load, nothing evaluated).
pub fn set_metrics_enabled(on: bool) {
    METRICS_ON.store(usize::from(on), Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Field values
// ---------------------------------------------------------------------------

/// A typed span field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl FieldValue {
    /// Render as a JSON value (numbers/bools bare, strings quoted+escaped).
    fn to_json(&self) -> String {
        match self {
            FieldValue::U64(v) => v.to_string(),
            FieldValue::I64(v) => v.to_string(),
            FieldValue::F64(v) => {
                if v.is_finite() {
                    format!("{v}")
                } else {
                    "null".to_string()
                }
            }
            FieldValue::Bool(v) => v.to_string(),
            FieldValue::Str(v) => json_string(v),
        }
    }
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<i32> for FieldValue {
    fn from(v: i32) -> Self {
        FieldValue::I64(i64::from(v))
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// Minimal JSON string escaping (quotes, backslash, control characters).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------------
// Recorder: the thread-safe subscriber
// ---------------------------------------------------------------------------

/// One node of the aggregated call tree.
struct NodeData {
    name: String,
    children: BTreeMap<String, usize>,
    /// Completed activations (spans closed) on this node.
    count: u64,
    /// Total busy wall time across completed activations, nanoseconds.
    busy_ns: u64,
    /// Recorded fields, last write wins.
    fields: BTreeMap<&'static str, FieldValue>,
}

impl NodeData {
    fn new(name: String) -> Self {
        NodeData {
            name,
            children: BTreeMap::new(),
            count: 0,
            busy_ns: 0,
            fields: BTreeMap::new(),
        }
    }
}

/// Arena of nodes; index 0 is the synthetic root.
struct Tree {
    nodes: Vec<NodeData>,
}

/// A thread-safe span subscriber that aggregates spans into a call tree.
///
/// Same-named children of the same parent merge into one node — counts and
/// busy time accumulate — so the tree *shape* is independent of thread
/// interleavings. Share it via `Arc` and install it with
/// [`set_global_recorder`] or scope it with [`with_recorder`]; snapshot at
/// any time with [`Recorder::snapshot`].
pub struct Recorder {
    tree: Mutex<Tree>,
}

impl Recorder {
    /// Create an empty recorder (not yet installed anywhere).
    pub fn new() -> Self {
        Recorder {
            tree: Mutex::new(Tree {
                nodes: vec![NodeData::new(String::new())],
            }),
        }
    }

    /// Find or create the child of `parent` named `name`; returns its index.
    fn open(&self, parent: usize, name: &str, fields: Vec<(&'static str, FieldValue)>) -> usize {
        let mut tree = self.tree.lock().unwrap();
        let node = match tree.nodes[parent].children.get(name) {
            Some(&idx) => idx,
            None => {
                let idx = tree.nodes.len();
                tree.nodes.push(NodeData::new(name.to_string()));
                tree.nodes[parent].children.insert(name.to_string(), idx);
                idx
            }
        };
        for (k, v) in fields {
            tree.nodes[node].fields.insert(k, v);
        }
        node
    }

    /// Close one activation of `node`, folding in its busy time.
    fn close(&self, node: usize, busy_ns: u64) {
        let mut tree = self.tree.lock().unwrap();
        tree.nodes[node].count += 1;
        tree.nodes[node].busy_ns = tree.nodes[node].busy_ns.saturating_add(busy_ns);
    }

    /// Record (or overwrite) a field on an open node.
    fn record(&self, node: usize, key: &'static str, value: FieldValue) {
        let mut tree = self.tree.lock().unwrap();
        tree.nodes[node].fields.insert(key, value);
    }

    /// Take an immutable snapshot of the call tree collected so far.
    pub fn snapshot(&self) -> TraceTree {
        let tree = self.tree.lock().unwrap();
        fn build(tree: &Tree, idx: usize) -> TraceNode {
            let data = &tree.nodes[idx];
            let children: Vec<TraceNode> =
                data.children.values().map(|&c| build(tree, c)).collect();
            let child_ns: u64 = children.iter().map(|c| c.wall_ns).sum();
            TraceNode {
                name: data.name.clone(),
                count: data.count,
                wall_ns: data.busy_ns,
                self_ns: data.busy_ns.saturating_sub(child_ns),
                fields: data
                    .fields
                    .iter()
                    .map(|(k, v)| ((*k).to_string(), v.clone()))
                    .collect(),
                children,
            }
        }
        let roots: Vec<TraceNode> = tree.nodes[0]
            .children
            .values()
            .map(|&c| build(&tree, c))
            .collect();
        let total_ns = roots.iter().map(|r| r.wall_ns).sum();
        TraceTree { roots, total_ns }
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

// ---------------------------------------------------------------------------
// Installation: global + thread-local
// ---------------------------------------------------------------------------

static GLOBAL: Mutex<Option<Arc<Recorder>>> = Mutex::new(None);

thread_local! {
    /// Recorder installed for this thread by `with_recorder`.
    static LOCAL: RefCell<Option<Arc<Recorder>>> = const { RefCell::new(None) };
    /// Stack of entered spans on this thread: (recorder, node index).
    static STACK: RefCell<Vec<(Arc<Recorder>, usize)>> = const { RefCell::new(Vec::new()) };
}

/// Install (or, with `None`, uninstall) the process-global recorder.
/// New root spans on any thread without a closer context attach to it.
pub fn set_global_recorder(recorder: Option<Arc<Recorder>>) {
    let mut global = GLOBAL.lock().unwrap();
    match (global.is_some(), recorder.is_some()) {
        (false, true) => {
            SPAN_SINKS.fetch_add(1, Ordering::Relaxed);
        }
        (true, false) => {
            SPAN_SINKS.fetch_sub(1, Ordering::Relaxed);
        }
        _ => {}
    }
    *global = recorder;
}

/// Run `f` with `recorder` installed as this thread's recorder: spans
/// created on this thread (without an enclosing entered span) root into
/// it. Scoped and panic-safe; nests (innermost wins); does not leak into
/// `dsv-par` worker threads — pass a [`SpanHandle`] for that.
pub fn with_recorder<R>(recorder: &Arc<Recorder>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<Recorder>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            LOCAL.with(|l| *l.borrow_mut() = self.0.take());
            SPAN_SINKS.fetch_sub(1, Ordering::Relaxed);
        }
    }
    let prev = LOCAL.with(|l| l.borrow_mut().replace(Arc::clone(recorder)));
    SPAN_SINKS.fetch_add(1, Ordering::Relaxed);
    let _restore = Restore(prev);
    f()
}

/// Resolve the context a new span should attach to: innermost entered
/// span, else the thread-local recorder's root, else the global
/// recorder's root.
fn current_context() -> Option<(Arc<Recorder>, usize)> {
    if let Some(top) = STACK.with(|s| s.borrow().last().cloned()) {
        return Some(top);
    }
    if let Some(local) = LOCAL.with(|l| l.borrow().clone()) {
        return Some((local, 0));
    }
    GLOBAL.lock().unwrap().clone().map(|r| (r, 0))
}

// ---------------------------------------------------------------------------
// Span
// ---------------------------------------------------------------------------

struct SpanCtx {
    recorder: Arc<Recorder>,
    node: usize,
    start: Instant,
}

/// A span: one timed activation of a named call-tree node. Dropping the
/// span folds its wall time into the recorder. Created by the [`span!`]
/// macro; a span created with no recorder installed is inert.
pub struct Span {
    ctx: Option<SpanCtx>,
}

impl Span {
    /// An inert span: recording, entering, and timing are all no-ops.
    pub fn disabled() -> Span {
        Span { ctx: None }
    }

    /// Create a span attached to the current context. Prefer the
    /// [`span!`] macro, which skips argument evaluation when disabled.
    #[doc(hidden)]
    pub fn new_in_current(name: &str, fields: Vec<(&'static str, FieldValue)>) -> Span {
        match current_context() {
            None => Span::disabled(),
            Some((recorder, parent)) => {
                let node = recorder.open(parent, name, fields);
                Span {
                    ctx: Some(SpanCtx {
                        recorder,
                        node,
                        start: Instant::now(),
                    }),
                }
            }
        }
    }

    /// `true` if this span is recording into some recorder.
    pub fn is_enabled(&self) -> bool {
        self.ctx.is_some()
    }

    /// Record (or overwrite) a field on this span.
    pub fn record(&self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(ctx) = &self.ctx {
            ctx.recorder.record(ctx.node, key, value.into());
        }
    }

    /// Enter the span: until the guard drops, spans created on this
    /// thread attach beneath it. Spans must be exited in reverse entry
    /// order (the guard enforces this lexically).
    pub fn enter(&self) -> Entered<'_> {
        let pushed = if let Some(ctx) = &self.ctx {
            STACK.with(|s| s.borrow_mut().push((Arc::clone(&ctx.recorder), ctx.node)));
            true
        } else {
            false
        };
        Entered {
            pushed,
            _span: std::marker::PhantomData,
        }
    }

    /// Consume the span into a guard that is entered for its whole
    /// lifetime; the span closes when the guard drops.
    pub fn entered(self) -> EnteredSpan {
        let pushed = if let Some(ctx) = &self.ctx {
            STACK.with(|s| s.borrow_mut().push((Arc::clone(&ctx.recorder), ctx.node)));
            true
        } else {
            false
        };
        EnteredSpan { span: self, pushed }
    }

    /// Run `f` inside the span, then exit (the span itself stays open
    /// for further `record` calls until dropped).
    pub fn in_scope<R>(&self, f: impl FnOnce() -> R) -> R {
        let _guard = self.enter();
        f()
    }

    /// A cloneable, `Send` handle for opening children of this span from
    /// other threads (e.g. inside `dsv_par::par_map` closures, whose
    /// worker threads cannot see this thread's span stack).
    pub fn handle(&self) -> SpanHandle {
        SpanHandle {
            ctx: self.ctx.as_ref().map(|c| (Arc::clone(&c.recorder), c.node)),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(ctx) = self.ctx.take() {
            let busy = ctx.start.elapsed().as_nanos() as u64;
            ctx.recorder.close(ctx.node, busy);
        }
    }
}

/// Guard returned by [`Span::enter`]; pops the span off the thread's
/// stack when dropped.
pub struct Entered<'a> {
    pushed: bool,
    _span: std::marker::PhantomData<&'a Span>,
}

impl Drop for Entered<'_> {
    fn drop(&mut self) {
        if self.pushed {
            STACK.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
}

/// Guard returned by [`Span::entered`]: owns the span, exits and closes
/// it on drop.
pub struct EnteredSpan {
    span: Span,
    pushed: bool,
}

impl EnteredSpan {
    /// Record (or overwrite) a field on the underlying span.
    pub fn record(&self, key: &'static str, value: impl Into<FieldValue>) {
        self.span.record(key, value);
    }

    /// A cross-thread handle to the underlying span (see [`Span::handle`]).
    pub fn handle(&self) -> SpanHandle {
        self.span.handle()
    }
}

impl Drop for EnteredSpan {
    fn drop(&mut self) {
        if self.pushed {
            STACK.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
}

/// A cloneable, `Send + Sync` reference to a live span, used to open
/// children from other threads where the thread-local span stack cannot
/// carry the parent across.
#[derive(Clone)]
pub struct SpanHandle {
    ctx: Option<(Arc<Recorder>, usize)>,
}

impl SpanHandle {
    /// A handle that creates only disabled children.
    pub fn disabled() -> SpanHandle {
        SpanHandle { ctx: None }
    }

    /// Open a child span of the referenced span, regardless of the
    /// calling thread's own span stack.
    pub fn child(&self, name: &str) -> Span {
        match &self.ctx {
            None => Span::disabled(),
            Some((recorder, node)) => {
                let child = recorder.open(*node, name, Vec::new());
                Span {
                    ctx: Some(SpanCtx {
                        recorder: Arc::clone(recorder),
                        node: child,
                        start: Instant::now(),
                    }),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot: TraceTree
// ---------------------------------------------------------------------------

/// One node of a [`TraceTree`] snapshot.
#[derive(Debug, Clone)]
pub struct TraceNode {
    /// Span name.
    pub name: String,
    /// Completed activations.
    pub count: u64,
    /// Total busy wall time, nanoseconds.
    pub wall_ns: u64,
    /// Wall time minus the sum of child wall times (saturating).
    pub self_ns: u64,
    /// Recorded fields in key order.
    pub fields: Vec<(String, FieldValue)>,
    /// Child nodes in name order.
    pub children: Vec<TraceNode>,
}

/// An immutable snapshot of a [`Recorder`]'s call tree.
#[derive(Debug, Clone)]
pub struct TraceTree {
    /// Top-level spans in name order.
    pub roots: Vec<TraceNode>,
    /// Sum of root wall times, nanoseconds.
    pub total_ns: u64,
}

impl TraceTree {
    /// `true` if no spans were recorded.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Look up a node by path of span names from a root.
    pub fn find(&self, path: &[&str]) -> Option<&TraceNode> {
        let (first, rest) = path.split_first()?;
        let mut node = self.roots.iter().find(|n| n.name == *first)?;
        for name in rest {
            node = node.children.iter().find(|n| n.name == *name)?;
        }
        Some(node)
    }

    /// The deterministic part of the tree: `(path, count)` pairs in
    /// depth-first name order. Identical across thread counts for a
    /// deterministic workload — timings are deliberately excluded.
    pub fn shape(&self) -> Vec<(String, u64)> {
        fn walk(node: &TraceNode, prefix: &str, out: &mut Vec<(String, u64)>) {
            let path = if prefix.is_empty() {
                node.name.clone()
            } else {
                format!("{prefix}/{}", node.name)
            };
            out.push((path.clone(), node.count));
            for child in &node.children {
                walk(child, &path, out);
            }
        }
        let mut out = Vec::new();
        for root in &self.roots {
            walk(root, "", &mut out);
        }
        out
    }

    /// Human-readable tree rendering with wall/self milliseconds, counts,
    /// and fields.
    pub fn render(&self) -> String {
        fn ms(ns: u64) -> f64 {
            ns as f64 / 1e6
        }
        fn walk(node: &TraceNode, depth: usize, out: &mut String) {
            let indent = "  ".repeat(depth);
            let mut line = format!(
                "{indent}{:<width$} wall {:>9.3} ms  self {:>9.3} ms  x{}",
                node.name,
                ms(node.wall_ns),
                ms(node.self_ns),
                node.count,
                width = 28usize.saturating_sub(2 * depth),
            );
            if !node.fields.is_empty() {
                let fields: Vec<String> = node
                    .fields
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect();
                line.push_str(&format!("  [{}]", fields.join(", ")));
            }
            out.push_str(&line);
            out.push('\n');
            for child in &node.children {
                walk(child, depth + 1, out);
            }
        }
        let mut out = format!("trace: total {:.3} ms\n", self.total_ns as f64 / 1e6);
        for root in &self.roots {
            walk(root, 0, &mut out);
        }
        out
    }

    /// Machine-readable JSON rendering of the whole tree.
    pub fn to_json(&self) -> String {
        fn node_json(node: &TraceNode) -> String {
            let fields: Vec<String> = node
                .fields
                .iter()
                .map(|(k, v)| format!("{}: {}", json_string(k), v.to_json()))
                .collect();
            let children: Vec<String> = node.children.iter().map(node_json).collect();
            format!(
                "{{\"name\": {}, \"count\": {}, \"wall_ms\": {:.3}, \"self_ms\": {:.3}, \"fields\": {{{}}}, \"children\": [{}]}}",
                json_string(&node.name),
                node.count,
                node.wall_ns as f64 / 1e6,
                node.self_ns as f64 / 1e6,
                fields.join(", "),
                children.join(", "),
            )
        }
        let spans: Vec<String> = self.roots.iter().map(node_json).collect();
        format!(
            "{{\"total_ms\": {:.3}, \"spans\": [{}]}}",
            self.total_ns as f64 / 1e6,
            spans.join(", "),
        )
    }
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// Aggregated samples of one histogram.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistogramData {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Smallest sample (0 when empty).
    pub min: f64,
    /// Largest sample (0 when empty).
    pub max: f64,
}

impl HistogramData {
    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// The process-wide metrics registry: named counters, gauges, and
/// histograms. Obtain it with [`metrics`]; update it through the
/// [`counter!`] / [`gauge!`] / [`histogram!`] macros (gated on
/// [`metrics_enabled`]).
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, f64>>,
    histograms: Mutex<BTreeMap<String, HistogramData>>,
}

/// The process-wide [`MetricsRegistry`].
pub fn metrics() -> &'static MetricsRegistry {
    static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();
    REGISTRY.get_or_init(|| MetricsRegistry {
        counters: Mutex::new(BTreeMap::new()),
        gauges: Mutex::new(BTreeMap::new()),
        histograms: Mutex::new(BTreeMap::new()),
    })
}

impl MetricsRegistry {
    /// Add `delta` to the named counter (creating it at 0).
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut counters = self.counters.lock().unwrap();
        match counters.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Set the named gauge to `value`.
    pub fn gauge_set(&self, name: &str, value: f64) {
        self.gauges.lock().unwrap().insert(name.to_string(), value);
    }

    /// Record one sample into the named histogram.
    pub fn histogram_record(&self, name: &str, value: f64) {
        let mut histograms = self.histograms.lock().unwrap();
        let h = histograms.entry(name.to_string()).or_default();
        if h.count == 0 {
            h.min = value;
            h.max = value;
        } else {
            h.min = h.min.min(value);
            h.max = h.max.max(value);
        }
        h.count += 1;
        h.sum += value;
    }

    /// Clear every metric (used by tests and per-run CLI sessions).
    pub fn reset(&self) {
        self.counters.lock().unwrap().clear();
        self.gauges.lock().unwrap().clear();
        self.histograms.lock().unwrap().clear();
    }

    /// Take an immutable snapshot of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
        }
    }
}

/// An immutable snapshot of the metrics registry, sorted by name.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter name/value pairs.
    pub counters: Vec<(String, u64)>,
    /// Gauge name/value pairs.
    pub gauges: Vec<(String, f64)>,
    /// Histogram name/aggregate pairs.
    pub histograms: Vec<(String, HistogramData)>,
}

impl MetricsSnapshot {
    /// `true` if no metric of any kind was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Human-readable listing, one metric per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(&format!("counter   {name} = {value}\n"));
        }
        for (name, value) in &self.gauges {
            out.push_str(&format!("gauge     {name} = {value}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "histogram {name} = count {} mean {:.2} min {} max {}\n",
                h.count,
                h.mean(),
                h.min,
                h.max
            ));
        }
        out
    }

    /// Machine-readable JSON object with `counters`/`gauges`/`histograms`.
    pub fn to_json(&self) -> String {
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("{}: {}", json_string(k), v))
            .collect();
        let gauges: Vec<String> = self
            .gauges
            .iter()
            .map(|(k, v)| format!("{}: {}", json_string(k), FieldValue::F64(*v).to_json()))
            .collect();
        let histograms: Vec<String> = self
            .histograms
            .iter()
            .map(|(k, h)| {
                format!(
                    "{}: {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}}}",
                    json_string(k),
                    h.count,
                    FieldValue::F64(h.sum).to_json(),
                    FieldValue::F64(h.min).to_json(),
                    FieldValue::F64(h.max).to_json(),
                )
            })
            .collect();
        format!(
            "{{\"counters\": {{{}}}, \"gauges\": {{{}}}, \"histograms\": {{{}}}}}",
            counters.join(", "),
            gauges.join(", "),
            histograms.join(", "),
        )
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Create a [`Span`] named `$name` with optional `key = value` fields.
///
/// When no recorder is installed this is one relaxed atomic load and an
/// inert span — the name and field expressions are **not** evaluated.
///
/// ```
/// let span = dsv_obs::span!("pack", versions = 12u64);
/// span.in_scope(|| { /* work */ });
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::spans_enabled() {
            $crate::Span::new_in_current(
                $name,
                ::std::vec![$((stringify!($key), $crate::FieldValue::from($value))),*],
            )
        } else {
            $crate::Span::disabled()
        }
    };
}

/// Add `$delta` (a `u64`) to the named counter. One relaxed atomic load
/// when metrics are disabled; arguments are not evaluated.
#[macro_export]
macro_rules! counter {
    ($name:expr, $delta:expr) => {
        if $crate::metrics_enabled() {
            $crate::metrics().counter_add($name, $delta);
        }
    };
}

/// Set the named gauge to `$value` (an `f64`). One relaxed atomic load
/// when metrics are disabled; arguments are not evaluated.
#[macro_export]
macro_rules! gauge {
    ($name:expr, $value:expr) => {
        if $crate::metrics_enabled() {
            $crate::metrics().gauge_set($name, $value);
        }
    };
}

/// Record `$value` (an `f64`) into the named histogram. One relaxed
/// atomic load when metrics are disabled; arguments are not evaluated.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $value:expr) => {
        if $crate::metrics_enabled() {
            $crate::metrics().histogram_record($name, $value);
        }
    };
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn disabled_macros_are_inert() {
        // No recorder on this thread and no global recorder: the span is
        // inert whatever other test threads have scoped locally. (The
        // "arguments not evaluated" half is only guaranteed when no sink
        // exists anywhere — `spans_enabled()` is process-global — so it
        // is exercised by the metrics test below, whose gate nothing in
        // this binary enables.)
        let span = crate::span!("never", n = 1u64);
        assert!(!span.is_enabled());
        let _guard = span.enter();
        span.record("after", 2u64);
    }

    #[test]
    fn spans_aggregate_by_name_into_a_tree() {
        let recorder = Arc::new(Recorder::new());
        with_recorder(&recorder, || {
            let outer = crate::span!("outer", n = 3u64);
            let _guard = outer.enter();
            for _ in 0..3 {
                crate::span!("inner").in_scope(|| {});
            }
        });
        let tree = recorder.snapshot();
        assert_eq!(
            tree.shape(),
            vec![("outer".to_string(), 1), ("outer/inner".to_string(), 3)]
        );
        let outer = tree.find(&["outer"]).unwrap();
        assert_eq!(outer.fields, vec![("n".to_string(), FieldValue::U64(3))]);
        // Children are name-ordered and wall >= children wall.
        assert!(outer.wall_ns >= tree.find(&["outer", "inner"]).unwrap().wall_ns);
        assert_eq!(
            outer.self_ns,
            outer.wall_ns - outer.children.iter().map(|c| c.wall_ns).sum::<u64>()
        );
    }

    #[test]
    fn handle_parents_spans_across_threads() {
        let recorder = Arc::new(Recorder::new());
        with_recorder(&recorder, || {
            let solve = crate::span!("solve");
            let handle = solve.handle();
            let _guard = solve.enter();
            thread::scope(|scope| {
                for name in ["mst", "lmg"] {
                    let handle = handle.clone();
                    scope.spawn(move || {
                        let child = handle.child(name);
                        child.record("feasible", true);
                        drop(child);
                    });
                }
            });
        });
        let tree = recorder.snapshot();
        assert_eq!(
            tree.shape(),
            vec![
                ("solve".to_string(), 1),
                ("solve/lmg".to_string(), 1),
                ("solve/mst".to_string(), 1),
            ]
        );
        assert_eq!(
            tree.find(&["solve", "mst"]).unwrap().fields,
            vec![("feasible".to_string(), FieldValue::Bool(true))]
        );
    }

    #[test]
    fn with_recorder_is_scoped_and_nestable() {
        let a = Arc::new(Recorder::new());
        let b = Arc::new(Recorder::new());
        with_recorder(&a, || {
            crate::span!("in_a").in_scope(|| {});
            with_recorder(&b, || {
                crate::span!("in_b").in_scope(|| {});
            });
            crate::span!("in_a_again").in_scope(|| {});
        });
        let shape_a: Vec<String> = a.snapshot().shape().into_iter().map(|(p, _)| p).collect();
        let shape_b: Vec<String> = b.snapshot().shape().into_iter().map(|(p, _)| p).collect();
        assert_eq!(shape_a, vec!["in_a".to_string(), "in_a_again".to_string()]);
        assert_eq!(shape_b, vec!["in_b".to_string()]);
    }

    #[test]
    fn shape_is_identical_across_interleavings() {
        // Two recorders fed the same span structure through different
        // thread interleavings must snapshot to the same shape.
        let run = |threads: usize| {
            let recorder = Arc::new(Recorder::new());
            with_recorder(&recorder, || {
                let root = crate::span!("root");
                let handle = root.handle();
                let _guard = root.enter();
                thread::scope(|scope| {
                    for _ in 0..threads {
                        let handle = handle.clone();
                        scope.spawn(move || {
                            for name in ["a", "b", "c"] {
                                handle.child(name).in_scope(|| {});
                            }
                        });
                    }
                });
            });
            recorder.snapshot().shape()
        };
        let one = run(1);
        let four = run(4);
        let paths = |s: &[(String, u64)]| s.iter().map(|(p, _)| p.clone()).collect::<Vec<_>>();
        assert_eq!(paths(&one), paths(&four));
        assert_eq!(four[0], ("root".to_string(), 1));
        assert_eq!(four[1], ("root/a".to_string(), 4));
    }

    #[test]
    fn tree_renders_and_serializes() {
        let recorder = Arc::new(Recorder::new());
        with_recorder(&recorder, || {
            let span = crate::span!("optimize", label = "demo");
            let _guard = span.enter();
            crate::span!("pack").in_scope(|| {});
        });
        let tree = recorder.snapshot();
        let text = tree.render();
        assert!(text.contains("optimize"));
        assert!(text.contains("pack"));
        assert!(text.contains("label=demo"));
        let json = tree.to_json();
        assert!(json.contains("\"name\": \"optimize\""));
        assert!(json.contains("\"children\": [{\"name\": \"pack\""));
        assert!(json.contains("\"label\": \"demo\""));
    }

    #[test]
    fn metrics_registry_counts_gauges_and_histograms() {
        // The registry is process-global; use names unique to this test
        // and drive the registry directly (enable/disable of the global
        // gate is exercised in `metrics_gate_drops_updates`).
        let m = metrics();
        m.counter_add("test.obs.count", 2);
        m.counter_add("test.obs.count", 3);
        m.gauge_set("test.obs.gauge", 1.5);
        m.histogram_record("test.obs.histo", 2.0);
        m.histogram_record("test.obs.histo", 6.0);
        let snap = m.snapshot();
        let counter = snap
            .counters
            .iter()
            .find(|(k, _)| k == "test.obs.count")
            .unwrap();
        assert_eq!(counter.1, 5);
        let gauge = snap
            .gauges
            .iter()
            .find(|(k, _)| k == "test.obs.gauge")
            .unwrap();
        assert_eq!(gauge.1, 1.5);
        let histo = snap
            .histograms
            .iter()
            .find(|(k, _)| k == "test.obs.histo")
            .unwrap()
            .1;
        assert_eq!(histo.count, 2);
        assert_eq!(histo.min, 2.0);
        assert_eq!(histo.max, 6.0);
        assert_eq!(histo.mean(), 4.0);
        let json = snap.to_json();
        assert!(json.contains("\"test.obs.count\": 5"));
        assert!(json.contains("\"test.obs.histo\""));
        assert!(snap.render().contains("test.obs.gauge"));
    }

    #[test]
    fn metrics_gate_drops_updates() {
        // Disabled (the default): the macro must not evaluate arguments.
        fn boom() -> u64 {
            panic!("evaluated")
        }
        crate::counter!("test.obs.gated", boom());
        assert!(!metrics_enabled());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
