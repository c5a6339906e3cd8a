use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A word address in the simulated address space.
///
/// Addresses index 64-bit words in a [`Memory`](crate::Memory). Word 0 is
/// reserved so that `Addr::NULL` can stand for the absent pointer, exactly
/// as a machine null pointer would.
///
/// # Example
///
/// ```
/// use tilgc_mem::Addr;
///
/// let a = Addr::new(16);
/// assert_eq!(a + 4, Addr::new(20));
/// assert_eq!((a + 4) - a, 4);
/// assert!(!a.is_null());
/// assert!(Addr::NULL.is_null());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u32);

impl Addr {
    /// The null address. No object ever lives here.
    pub const NULL: Addr = Addr(0);

    /// Creates an address from a raw word index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        Addr(index)
    }

    /// The raw word index of this address.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw word index as `u32` (the representation stored in headers).
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Returns `true` if this is [`Addr::NULL`].
    #[inline]
    pub const fn is_null(self) -> bool {
        self.0 == 0
    }

    /// The address `words` words past `self`, checking for overflow.
    ///
    /// # Panics
    ///
    /// Panics if the resulting index does not fit in 32 bits.
    #[inline]
    pub fn offset(self, words: usize) -> Addr {
        let idx = u64::from(self.0) + words as u64;
        assert!(
            idx <= u64::from(u32::MAX),
            "address overflow: {self:?} + {words}"
        );
        Addr(idx as u32)
    }
}

impl Add<usize> for Addr {
    type Output = Addr;

    #[inline]
    fn add(self, rhs: usize) -> Addr {
        self.offset(rhs)
    }
}

impl AddAssign<usize> for Addr {
    #[inline]
    fn add_assign(&mut self, rhs: usize) {
        *self = *self + rhs;
    }
}

impl Sub<Addr> for Addr {
    type Output = usize;

    /// Distance in words between two addresses.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is past `self`.
    #[inline]
    fn sub(self, rhs: Addr) -> usize {
        assert!(self.0 >= rhs.0, "address underflow: {self:?} - {rhs:?}");
        (self.0 - rhs.0) as usize
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_null() {
            write!(f, "Addr(NULL)")
        } else {
            write!(f, "Addr({:#x})", self.0)
        }
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_is_zero_and_default() {
        assert_eq!(Addr::NULL, Addr::new(0));
        assert_eq!(Addr::default(), Addr::NULL);
        assert!(Addr::NULL.is_null());
        assert!(!Addr::new(1).is_null());
    }

    #[test]
    fn arithmetic() {
        let a = Addr::new(100);
        assert_eq!(a + 28, Addr::new(128));
        assert_eq!(Addr::new(128) - a, 28);
        let mut b = a;
        b += 1;
        assert_eq!(b.index(), 101);
    }

    #[test]
    #[should_panic(expected = "address underflow")]
    fn sub_underflow_panics() {
        let _ = Addr::new(1) - Addr::new(2);
    }

    #[test]
    fn ordering_follows_index() {
        assert!(Addr::new(1) < Addr::new(2));
    }

    #[test]
    fn debug_formats() {
        assert_eq!(format!("{:?}", Addr::NULL), "Addr(NULL)");
        assert_eq!(format!("{:?}", Addr::new(16)), "Addr(0x10)");
    }
}
