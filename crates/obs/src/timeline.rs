//! Sim-cycle-stamped timeline tracer with Chrome/Perfetto trace-event
//! JSON export.
//!
//! Events follow the trace-event format understood by `ui.perfetto.dev`
//! and `chrome://tracing`: `ph` is the phase (`B`egin / `E`nd duration
//! spans, `X` complete spans with `dur`, `i`nstant markers, `C`ounter
//! samples), `ts`/`dur` are microseconds, and we map `pid` to a chiplet
//! (or a pseudo-process like the command processor) and `tid` to a stream.
//! Metadata (`M`) events name the processes and threads so the Perfetto
//! track labels read "chiplet 0", "stream 1" instead of raw ids.

use crate::{escape_json, push_num};

/// Trace-event phase. Maps 1:1 onto the single-character `ph` field of
/// the Chrome trace-event format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// `B`: duration span begin (paired with a later [`Phase::End`]).
    Begin,
    /// `E`: duration span end.
    End,
    /// `X`: complete span carrying its own `dur`.
    Complete,
    /// `i`: instant marker.
    Instant,
    /// `C`: counter sample (`args` holds the series values).
    Counter,
}

impl Phase {
    /// The `ph` character emitted in JSON.
    pub fn ch(self) -> char {
        match self {
            Phase::Begin => 'B',
            Phase::End => 'E',
            Phase::Complete => 'X',
            Phase::Instant => 'i',
            Phase::Counter => 'C',
        }
    }
}

/// One recorded trace event. Timestamps and durations are microseconds
/// of simulated time (the simulator converts cycles via its clock).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (span label, instant label, or counter series name).
    pub name: String,
    /// Category tag, e.g. `"kernel"`, `"sync"`, `"noc"`.
    pub cat: &'static str,
    /// Phase kind.
    pub ph: Phase,
    /// Timestamp in simulated microseconds.
    pub ts: f64,
    /// Duration in microseconds; only meaningful for [`Phase::Complete`].
    pub dur: f64,
    /// Process id: the chiplet index, or a pseudo-process id.
    pub pid: u32,
    /// Thread id: the stream id within the process.
    pub tid: u32,
    /// Key/value payload rendered into the `args` object.
    pub args: Vec<(&'static str, f64)>,
}

/// Which clock a tracer's `ts`/`dur` microseconds are measured on.
///
/// The simulator stamps events in *simulated* microseconds (cycles
/// through the configured clock) — deterministic, byte-identical across
/// hosts. The campaign's host-side fleet trace stamps events in *wall*
/// microseconds measured on the machine running the sweep —
/// non-deterministic by nature. The domain is recorded in the exported
/// JSON (`otherData.clockDomain`) so a trace can never be mistaken for
/// the other kind. This enum is pure metadata: reading an actual wall
/// clock stays confined to harness/bench code (the `wall-clock` lint
/// keeps it out of sim-path crates, including this one).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ClockDomain {
    /// Timestamps are simulated microseconds (the default).
    #[default]
    SimMicros,
    /// Timestamps are host wall-clock microseconds.
    WallMicros,
}

impl ClockDomain {
    /// The label stamped into the exported JSON.
    pub fn label(self) -> &'static str {
        match self {
            ClockDomain::SimMicros => "sim",
            ClockDomain::WallMicros => "wall",
        }
    }
}

/// A timeline tracer: named tracks plus events in record order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tracer {
    events: Vec<TraceEvent>,
    process_names: Vec<(u32, String)>,
    thread_names: Vec<(u32, u32, String)>,
    clock: ClockDomain,
}

impl Tracer {
    /// Creates a tracer on the simulated clock.
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Creates a tracer whose timestamps are host wall-clock microseconds
    /// (the campaign's fleet trace).
    pub fn new_wall() -> Self {
        Tracer {
            clock: ClockDomain::WallMicros,
            ..Tracer::default()
        }
    }

    /// Which clock this tracer's timestamps are measured on.
    pub fn clock(&self) -> ClockDomain {
        self.clock
    }

    /// Number of recorded events (excluding metadata).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The recorded events, in record order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Names a process track (e.g. `name_process(0, "chiplet 0")`).
    pub fn name_process(&mut self, pid: u32, name: impl Into<String>) {
        self.process_names.push((pid, name.into()));
    }

    /// Names a thread track within a process.
    pub fn name_thread(&mut self, pid: u32, tid: u32, name: impl Into<String>) {
        self.thread_names.push((pid, tid, name.into()));
    }

    fn push(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    /// Records a `B` span-begin event.
    pub fn begin(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        ts: f64,
        pid: u32,
        tid: u32,
    ) {
        self.push(TraceEvent {
            name: name.into(),
            cat,
            ph: Phase::Begin,
            ts,
            dur: 0.0,
            pid,
            tid,
            args: Vec::new(),
        });
    }

    /// Records an `E` span-end event. The name must match the open `B`
    /// event on the same `(pid, tid)` track.
    pub fn end(&mut self, name: impl Into<String>, cat: &'static str, ts: f64, pid: u32, tid: u32) {
        self.push(TraceEvent {
            name: name.into(),
            cat,
            ph: Phase::End,
            ts,
            dur: 0.0,
            pid,
            tid,
            args: Vec::new(),
        });
    }

    /// Records an `X` complete span with explicit duration and payload.
    #[allow(clippy::too_many_arguments)]
    pub fn complete(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        ts: f64,
        dur: f64,
        pid: u32,
        tid: u32,
        args: Vec<(&'static str, f64)>,
    ) {
        self.push(TraceEvent {
            name: name.into(),
            cat,
            ph: Phase::Complete,
            ts,
            dur,
            pid,
            tid,
            args,
        });
    }

    /// Records an `i` instant marker with payload.
    pub fn instant(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        ts: f64,
        pid: u32,
        tid: u32,
        args: Vec<(&'static str, f64)>,
    ) {
        self.push(TraceEvent {
            name: name.into(),
            cat,
            ph: Phase::Instant,
            ts,
            dur: 0.0,
            pid,
            tid,
            args,
        });
    }

    /// Records a `C` counter sample; `args` holds the series values.
    pub fn counter(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        ts: f64,
        pid: u32,
        args: Vec<(&'static str, f64)>,
    ) {
        self.push(TraceEvent {
            name: name.into(),
            cat,
            ph: Phase::Counter,
            ts,
            dur: 0.0,
            pid,
            tid: 0,
            args,
        });
    }

    /// Checks that every `B` event has a matching later `E` on the same
    /// `(pid, tid)` track with the same name, and no stray `E`s. Returns
    /// the offending event name on failure.
    pub fn balanced(&self) -> Result<(), String> {
        let mut open: Vec<(u32, u32, &str)> = Vec::new();
        for ev in &self.events {
            match ev.ph {
                Phase::Begin => open.push((ev.pid, ev.tid, &ev.name)),
                Phase::End => {
                    // Duration events nest per track: E closes the most
                    // recent B on the same (pid, tid).
                    let idx = open
                        .iter()
                        .rposition(|&(p, t, _)| p == ev.pid && t == ev.tid)
                        .ok_or_else(|| {
                            format!(
                                "unmatched E event '{}' on pid={} tid={}",
                                ev.name, ev.pid, ev.tid
                            )
                        })?;
                    let (_, _, name) = open.remove(idx);
                    if name != ev.name {
                        return Err(format!(
                            "E event '{}' closes open B event '{}' on pid={} tid={}",
                            ev.name, name, ev.pid, ev.tid
                        ));
                    }
                }
                _ => {}
            }
        }
        if let Some((pid, tid, name)) = open.first() {
            return Err(format!("unclosed B event '{name}' on pid={pid} tid={tid}"));
        }
        Ok(())
    }

    /// Renders the trace as Chrome/Perfetto trace-event JSON:
    /// `{"traceEvents": [...], "otherData": {...}}`, with `M` metadata
    /// events naming the process and thread tracks first and the clock
    /// domain recorded in `otherData`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        for (pid, name) in &self.process_names {
            push_meta(&mut out, &mut first, "process_name", *pid, None, name);
        }
        for (pid, tid, name) in &self.thread_names {
            push_meta(&mut out, &mut first, "thread_name", *pid, Some(*tid), name);
        }
        for ev in &self.events {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"name\":\"");
            escape_json(&mut out, &ev.name);
            out.push_str("\",\"cat\":\"");
            escape_json(&mut out, ev.cat);
            out.push_str("\",\"ph\":\"");
            out.push(ev.ph.ch());
            out.push_str("\",\"ts\":");
            push_num(&mut out, ev.ts);
            if ev.ph == Phase::Complete {
                out.push_str(",\"dur\":");
                push_num(&mut out, ev.dur);
            }
            out.push_str(",\"pid\":");
            out.push_str(&ev.pid.to_string());
            out.push_str(",\"tid\":");
            out.push_str(&ev.tid.to_string());
            if ev.ph == Phase::Instant {
                // Thread-scoped instants render as ticks on their track.
                out.push_str(",\"s\":\"t\"");
            }
            if !ev.args.is_empty() {
                out.push_str(",\"args\":{");
                for (i, (k, v)) in ev.args.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_json(&mut out, k);
                    out.push_str("\":");
                    push_num(&mut out, *v);
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("],\"otherData\":{\"clockDomain\":\"");
        out.push_str(self.clock.label());
        out.push_str("\"}}");
        out
    }
}

fn push_meta(
    out: &mut String,
    first: &mut bool,
    kind: &str,
    pid: u32,
    tid: Option<u32>,
    name: &str,
) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push_str("{\"name\":\"");
    out.push_str(kind);
    out.push_str("\",\"ph\":\"M\",\"pid\":");
    out.push_str(&pid.to_string());
    if let Some(tid) = tid {
        out.push_str(",\"tid\":");
        out.push_str(&tid.to_string());
    }
    out.push_str(",\"args\":{\"name\":\"");
    escape_json(out, name);
    out.push_str("\"}}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tracer_exports_an_empty_trace() {
        let t = Tracer::new();
        assert!(t.is_empty());
        assert_eq!(
            t.to_chrome_json(),
            "{\"traceEvents\":[],\"otherData\":{\"clockDomain\":\"sim\"}}"
        );
    }

    #[test]
    fn clock_domain_is_stamped_into_the_export() {
        let sim = Tracer::new();
        assert_eq!(sim.clock(), ClockDomain::SimMicros);
        assert!(sim.to_chrome_json().contains("\"clockDomain\":\"sim\""));

        let mut wall = Tracer::new_wall();
        assert_eq!(wall.clock(), ClockDomain::WallMicros);
        wall.complete("cell", "cell", 0.0, 5.0, 0, 1, vec![]);
        let json = wall.to_chrome_json();
        assert!(json.contains("\"clockDomain\":\"wall\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(wall.balanced().is_ok());
    }

    #[test]
    fn balanced_accepts_nested_spans() {
        let mut t = Tracer::new();
        t.begin("outer", "kernel", 0.0, 0, 1);
        t.begin("inner", "sync", 1.0, 0, 1);
        t.end("inner", "sync", 2.0, 0, 1);
        t.end("outer", "kernel", 3.0, 0, 1);
        assert!(t.balanced().is_ok());
    }

    #[test]
    fn balanced_rejects_unclosed_and_mismatched() {
        let mut t = Tracer::new();
        t.begin("open", "kernel", 0.0, 0, 0);
        assert!(t.balanced().unwrap_err().contains("unclosed"));

        let mut t = Tracer::new();
        t.end("stray", "kernel", 0.0, 0, 0);
        assert!(t.balanced().unwrap_err().contains("unmatched"));

        let mut t = Tracer::new();
        t.begin("a", "kernel", 0.0, 0, 0);
        t.end("b", "kernel", 1.0, 0, 0);
        assert!(t.balanced().unwrap_err().contains("closes open"));
    }

    #[test]
    fn spans_on_distinct_tracks_do_not_interfere() {
        let mut t = Tracer::new();
        t.begin("k0", "kernel", 0.0, 0, 1);
        t.begin("k1", "kernel", 0.5, 1, 1);
        t.end("k0", "kernel", 1.0, 0, 1);
        t.end("k1", "kernel", 2.0, 1, 1);
        assert!(t.balanced().is_ok());
    }

    #[test]
    fn json_has_phases_metadata_and_args() {
        let mut t = Tracer::new();
        t.name_process(0, "chiplet 0");
        t.name_thread(0, 1, "stream 1");
        t.begin("kern \"q\"", "kernel", 1.25, 0, 1);
        t.end("kern \"q\"", "kernel", 2.0, 0, 1);
        t.complete("acquire", "sync", 2.0, 0.5, 0, 1, vec![("lines", 7.0)]);
        t.instant("elided", "sync", 2.5, 0, 1, vec![("kind", 1.0)]);
        t.counter("flushed_lines", "sync", 3.0, 0, vec![("lines", 9.0)]);
        let json = t.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":0.5"));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"s\":\"t\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"args\":{\"lines\":7"));
        assert!(json.contains("kern \\\"q\\\""), "names are JSON-escaped");
    }
}
