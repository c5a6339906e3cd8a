//! Exception handler chains.
//!
//! SML's `handle` installs a handler tied to the installing activation
//! record; `raise` transfers control to the innermost handler, discarding
//! every frame above it — possibly jumping past marked frames without
//! running their stubs (§5). The runtime therefore needs *some* mechanism
//! to tell the collector how deep raises have cut. The paper describes
//! two and "implements the first", and so does this crate: each raise
//! lowers the stack watermark `M` immediately
//! ([`Stack::unwind_for_raise`](crate::Stack::unwind_for_raise), a couple
//! of instructions per raise), so the chain itself is only a list of
//! frame depths. The second scheme — record the cut on the handler and
//! have the collector walk the chain at every collection — was carried as
//! an ablation until it was measured to tie the first on every number it
//! printed while making every raise and pop in every mode propagate its
//! records; it is retired (EXPERIMENTS.md, *Retired*).

/// The chain of installed exception handlers, innermost last: the depth of
/// the frame each handler returns control to.
///
/// # Example
///
/// ```
/// use tilgc_runtime::HandlerChain;
///
/// let mut chain = HandlerChain::new();
/// chain.push(3);          // a handler protecting from frame depth 3
/// chain.push(10);
/// assert_eq!(chain.raise(), Some(10));
/// assert_eq!(chain.raise(), Some(3));
/// assert_eq!(chain.raise(), None); // uncaught
/// ```
#[derive(Clone, Debug, Default)]
pub struct HandlerChain {
    handlers: Vec<usize>,
}

impl HandlerChain {
    /// Creates an empty chain.
    pub fn new() -> HandlerChain {
        HandlerChain::default()
    }

    /// Installs a handler anchored at `frame_depth`.
    pub fn push(&mut self, frame_depth: usize) {
        self.handlers.push(frame_depth);
    }

    /// Removes the innermost handler on normal exit from its `handle`
    /// expression.
    ///
    /// # Panics
    ///
    /// Panics if no handler is installed.
    pub fn pop(&mut self) {
        self.handlers.pop().expect("pop on empty handler chain");
    }

    /// Raises an exception: removes the innermost handler and returns the
    /// frame depth control transfers to, or `None` if the exception is
    /// uncaught.
    pub fn raise(&mut self) -> Option<usize> {
        self.handlers.pop()
    }

    /// Number of installed handlers.
    pub fn len(&self) -> usize {
        self.handlers.len()
    }

    /// Whether no handler is installed.
    pub fn is_empty(&self) -> bool {
        self.handlers.is_empty()
    }

    /// The innermost handler's frame depth, if any.
    pub fn innermost_depth(&self) -> Option<usize> {
        self.handlers.last().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raise_unwinds_to_innermost() {
        let mut c = HandlerChain::new();
        c.push(2);
        c.push(8);
        assert_eq!(c.innermost_depth(), Some(8));
        assert_eq!(c.raise(), Some(8));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn uncaught_raise_returns_none() {
        let mut c = HandlerChain::new();
        assert_eq!(c.raise(), None);
    }
}
