//! Kernel-side observability plumbing: the engine's observer fan-out
//! hub over the structured [`schedtask_obs`] event stream.

use schedtask_obs::{ObsEvent, Observer, SfClass, SpanKind};
use schedtask_workload::SfCategory;
use std::fmt;
use std::sync::Arc;

/// Maps the workload crate's category onto the obs crate's
/// dependency-free class.
pub(crate) fn class_of(category: SfCategory) -> SfClass {
    match category {
        SfCategory::Application => SfClass::Application,
        SfCategory::SystemCall => SfClass::SystemCall,
        SfCategory::Interrupt => SfClass::Interrupt,
        SfCategory::BottomHalf => SfClass::BottomHalf,
    }
}

/// The set of observers attached to an engine.
///
/// This is the zero-overhead-when-disabled contract's enforcement
/// point: every emit helper checks that an observer is attached
/// *before* running the closure that constructs the event, so an
/// unobserved engine pays one predictable branch per hook site and
/// never builds an event value.
#[derive(Default)]
pub(crate) struct ObserverSet {
    observers: Vec<Arc<dyn Observer>>,
}

impl fmt::Debug for ObserverSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObserverSet")
            .field("observers", &self.observers.len())
            .finish()
    }
}

impl ObserverSet {
    /// Attaches an observer.
    pub(crate) fn attach(&mut self, obs: Arc<dyn Observer>) {
        self.observers.push(obs);
    }

    /// True when at least one observer is attached.
    #[inline]
    pub(crate) fn is_enabled(&self) -> bool {
        !self.observers.is_empty()
    }

    /// Builds the event with `make` and fans it out — only when an
    /// observer is attached.
    #[inline]
    pub(crate) fn emit(&self, make: impl FnOnce() -> ObsEvent) {
        if self.is_enabled() {
            let ev = make();
            for obs in &self.observers {
                obs.event(&ev);
            }
        }
    }

    /// Fans out a span open (only when an observer is attached).
    #[inline]
    pub(crate) fn span_enter(&self, core: u32, kind: SpanKind, at: u64) {
        if self.is_enabled() {
            for obs in &self.observers {
                obs.span_enter(core, kind, at);
            }
        }
    }

    /// Fans out a span close (only when an observer is attached).
    #[inline]
    pub(crate) fn span_exit(&self, core: u32, kind: SpanKind, at: u64) {
        if self.is_enabled() {
            for obs in &self.observers {
                obs.span_exit(core, kind, at);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observer_set_gates_on_enabled() {
        let mut set = ObserverSet::default();
        assert!(!set.is_enabled());
        set.emit(|| unreachable!("must not construct events when disabled"));
        set.attach(Arc::new(schedtask_obs::NoopObserver));
        assert!(set.is_enabled());
    }
}
