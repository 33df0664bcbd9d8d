//! # Trace exporters for the NDA reproduction
//!
//! Two [`nda_core::EventSink`] implementations turn the core's pipeline
//! event stream into files standard visualizers open directly:
//!
//! * [`PerfettoSink`] — Chrome trace-event JSON for [Perfetto]
//!   (`ui.perfetto.dev`) / `chrome://tracing`. Each micro-op instance is a
//!   duration slice on the `uops` track; NDA's deferred broadcasts appear
//!   as slices on a dedicated `nda-defer` track whose length is the
//!   complete→broadcast gap — the defense made visible.
//! * [`KonataSink`] — the [Konata] O3 pipeview log (`Kanata 0004`), the
//!   same format gem5's O3PipeView trace converts into. Stage lanes:
//!   `Ds` dispatch wait, `Ex` execute, `Wb` completed-awaiting-broadcast
//!   (the NDA deferral stage), `Cm` broadcast-to-retire.
//!
//! Both sinks are strictly observer-only: they consume events the core
//! buffers anyway and cannot perturb simulated state (the golden tests pin
//! cycle counts bit-exact with tracing on and off).
//!
//! [Perfetto]: https://perfetto.dev
//! [Konata]: https://github.com/shioyadan/Konata

#![forbid(unsafe_code)]

pub mod konata;
pub mod perfetto;

pub use konata::KonataSink;
pub use perfetto::PerfettoSink;

/// Supported `--trace-format` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// Chrome trace-event JSON (Perfetto / `chrome://tracing`).
    Perfetto,
    /// Konata `Kanata 0004` pipeview log.
    Konata,
}

impl TraceFormat {
    /// Parse a CLI argument value.
    pub fn parse(s: &str) -> Option<TraceFormat> {
        match s {
            "perfetto" => Some(TraceFormat::Perfetto),
            "konata" => Some(TraceFormat::Konata),
            _ => None,
        }
    }

    /// The canonical file extension.
    pub fn extension(self) -> &'static str {
        match self {
            TraceFormat::Perfetto => "json",
            TraceFormat::Konata => "log",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_parse_roundtrip() {
        assert_eq!(TraceFormat::parse("perfetto"), Some(TraceFormat::Perfetto));
        assert_eq!(TraceFormat::parse("konata"), Some(TraceFormat::Konata));
        assert_eq!(TraceFormat::parse("vcd"), None);
        assert_eq!(TraceFormat::Perfetto.extension(), "json");
        assert_eq!(TraceFormat::Konata.extension(), "log");
    }
}
