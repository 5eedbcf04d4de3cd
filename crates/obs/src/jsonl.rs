//! JSONL event sink: one JSON object per line, hand-rolled (no serde in
//! the offline build environment).
//!
//! Field order is fixed per event kind, so output is byte-stable for a
//! deterministic event stream — the sweep-diff CI job relies on this.

use std::io::Write;
use std::sync::Mutex;

use crate::event::ObsEvent;
use crate::Observer;

/// Escapes a string for embedding inside a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s);
    out
}

/// Appends `s` to `out` escaped for a JSON string literal, copying the
/// runs between characters that need escaping in one step. Every such
/// character is ASCII, so each run ends on a char boundary.
pub fn push_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Serializes one event as a single JSON object line (no trailing
/// newline). `label`, when present, is emitted as a `"cell"` field so
/// sweep output can interleave cells unambiguously.
pub fn event_to_json(ev: &ObsEvent, label: Option<&str>) -> String {
    let mut line = String::with_capacity(96);
    line.push_str("{\"ev\":\"");
    line.push_str(ev.name());
    line.push('"');
    if let Some(label) = label {
        line.push_str(",\"cell\":\"");
        push_escaped(&mut line, label);
        line.push('"');
    }
    line.push_str(&format!(",\"at\":{}", ev.at()));
    match *ev {
        ObsEvent::RunStart { .. }
        | ObsEvent::RunEnd { .. }
        | ObsEvent::EpochStart { .. }
        | ObsEvent::EpochRealloc { .. } => {}
        ObsEvent::SfCreated {
            sf,
            sf_type,
            class,
            tid,
            ..
        } => {
            line.push_str(&format!(
                ",\"sf\":{},\"sf_type\":{},\"class\":\"{}\",\"tid\":{}",
                sf,
                sf_type,
                class.name(),
                tid
            ));
        }
        ObsEvent::Enqueued { sf, core, .. } => {
            line.push_str(&format!(",\"sf\":{sf},\"core\":{core}"));
        }
        ObsEvent::Dispatched { sf, core, .. } => {
            line.push_str(&format!(",\"sf\":{sf},\"core\":{core}"));
        }
        ObsEvent::Preempted { sf, core, .. } => {
            line.push_str(&format!(",\"sf\":{sf},\"core\":{core}"));
        }
        ObsEvent::Blocked { sf, .. } | ObsEvent::Completed { sf, .. } => {
            line.push_str(&format!(",\"sf\":{sf}"));
        }
        ObsEvent::Migrated { tid, from, to, .. } => {
            line.push_str(&format!(",\"tid\":{tid},\"from\":{from},\"to\":{to}"));
        }
        ObsEvent::Stolen {
            sf,
            thief,
            victim,
            level,
            ..
        } => {
            line.push_str(&format!(
                ",\"sf\":{},\"thief\":{},\"victim\":{},\"level\":\"{}\"",
                sf,
                thief,
                victim,
                level.name()
            ));
        }
        ObsEvent::IrqRouted { irq, core, .. } => {
            line.push_str(&format!(",\"irq\":{irq},\"core\":{core}"));
        }
        ObsEvent::FaultInjected { kind, .. } => {
            line.push_str(&format!(",\"kind\":\"{}\"", kind.name()));
        }
        ObsEvent::HeatmapStored { core, popcount, .. } => {
            line.push_str(&format!(",\"core\":{core},\"popcount\":{popcount}"));
        }
        ObsEvent::ExactPagesStored { core, pages, .. } => {
            line.push_str(&format!(",\"core\":{core},\"pages\":{pages}"));
        }
    }
    line.push('}');
    line
}

/// Streams every event as one JSON line into a writer.
///
/// Write errors are swallowed (observability must never abort a
/// simulation) but counted; check [`JsonlSink::write_errors`] if loss
/// matters.
#[derive(Debug)]
pub struct JsonlSink<W: Write + Send> {
    label: Option<String>,
    inner: Mutex<SinkInner<W>>,
}

#[derive(Debug)]
struct SinkInner<W> {
    out: W,
    write_errors: u64,
}

impl<W: Write + Send> JsonlSink<W> {
    /// A sink writing into `out` with no cell label.
    pub fn new(out: W) -> Self {
        Self::with_label(out, None)
    }

    /// A sink whose every line carries a `"cell"` label field —
    /// used by the sweep harness so cells can share one output file.
    pub fn with_label(out: W, label: Option<String>) -> Self {
        JsonlSink {
            label,
            inner: Mutex::new(SinkInner {
                out,
                write_errors: 0,
            }),
        }
    }

    /// Number of event lines dropped because the writer errored.
    pub fn write_errors(&self) -> u64 {
        self.inner.lock().expect("jsonl sink poisoned").write_errors
    }
}

impl JsonlSink<Vec<u8>> {
    /// An in-memory sink; the sweep harness buffers each cell this way.
    pub fn buffered() -> Self {
        Self::new(Vec::new())
    }

    /// Takes the buffered JSONL text out of the sink, leaving it empty.
    pub fn take(&self) -> String {
        let mut inner = self.inner.lock().expect("jsonl sink poisoned");
        String::from_utf8_lossy(&std::mem::take(&mut inner.out)).into_owned()
    }
}

impl<W: Write + Send> Observer for JsonlSink<W> {
    fn event(&self, ev: &ObsEvent) {
        let line = event_to_json(ev, self.label.as_deref());
        let mut inner = self.inner.lock().expect("jsonl sink poisoned");
        if writeln!(inner.out, "{line}").is_err() {
            inner.write_errors += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FaultKind, StealLevel};

    #[test]
    fn lines_are_json_objects() {
        let sink = JsonlSink::buffered();
        sink.event(&ObsEvent::Dispatched {
            at: 5,
            sf: 3,
            core: 1,
        });
        sink.event(&ObsEvent::FaultInjected {
            at: 9,
            kind: FaultKind::CoreStall,
        });
        let text = sink.take();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"ev\":\"dispatched\",\"at\":5,\"sf\":3,\"core\":1}"
        );
        assert_eq!(
            lines[1],
            "{\"ev\":\"fault\",\"at\":9,\"kind\":\"core_stall\"}"
        );
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn label_adds_cell_field() {
        let sink = JsonlSink::with_label(Vec::new(), Some("SchedTask:Find".to_owned()));
        sink.event(&ObsEvent::Stolen {
            at: 1,
            sf: 2,
            thief: 0,
            victim: 3,
            level: StealLevel::MaxWaiting,
        });
        let text = sink.take();
        assert!(text.contains("\"cell\":\"SchedTask:Find\""));
        assert!(text.contains("\"level\":\"max_waiting\""));
    }

    #[test]
    fn escape_handles_quotes_and_controls() {
        assert_eq!(escape_json("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
