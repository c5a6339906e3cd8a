use std::fmt;

use tilgc_mem::Addr;

/// A mutator-level value.
///
/// TIL is *nearly tag-free*: at runtime a word is just 64 bits, and whether
/// it is a pointer is known only from static information (stack trace
/// tables, record header masks) or from runtime type parameters
/// (§2.2–2.3). `Value` is the typed view the mutator API works with; the
/// moment a value is stored into a stack slot, register or heap field it
/// becomes a bare word again, and the collector must recover its
/// pointerness exactly the way the paper describes.
///
/// # Example
///
/// ```
/// use tilgc_runtime::Value;
/// use tilgc_mem::Addr;
///
/// let v = Value::Ptr(Addr::new(64));
/// assert!(v.is_pointer());
/// assert_eq!(Value::from_ptr_word(v.to_word()), v);
///
/// let n = Value::Int(-3);
/// assert_eq!(Value::from_int_word(n.to_word()), n);
/// ```
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum Value {
    /// An unboxed, untagged word-sized integer.
    Int(i64),
    /// An unboxed IEEE-754 double (TIL does not always box floats).
    Real(f64),
    /// A pointer to a heap object (possibly null).
    Ptr(Addr),
    /// The default contents of an uninitialized slot.
    #[default]
    Uninit,
}

impl Value {
    /// The null pointer.
    pub const NULL: Value = Value::Ptr(Addr::NULL);

    /// Whether this value must be reported to the collector as a root.
    #[inline]
    pub fn is_pointer(self) -> bool {
        matches!(self, Value::Ptr(_))
    }

    /// Encodes the value as the bare word the runtime stores.
    #[inline]
    pub fn to_word(self) -> u64 {
        match self {
            Value::Int(i) => i as u64,
            Value::Real(r) => r.to_bits(),
            Value::Ptr(a) => u64::from(a.raw()),
            Value::Uninit => 0,
        }
    }

    /// Decodes a word known (from traces) to be a pointer.
    #[inline]
    pub fn from_ptr_word(word: u64) -> Value {
        Value::Ptr(Addr::new(word as u32))
    }

    /// Decodes a word known (from traces) to be an integer.
    #[inline]
    pub fn from_int_word(word: u64) -> Value {
        Value::Int(word as i64)
    }

    /// The pointer payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a pointer.
    #[inline]
    pub fn as_ptr(self) -> Addr {
        match self {
            Value::Ptr(a) => a,
            other => panic!("expected pointer, found {other:?}"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(r: f64) -> Value {
        Value::Real(r)
    }
}

impl From<Addr> for Value {
    fn from(a: Addr) -> Value {
        Value::Ptr(a)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Real(r) => write!(f, "{r}"),
            Value::Ptr(a) => write!(f, "{a}"),
            Value::Uninit => f.write_str("<uninit>"),
        }
    }
}

/// What the mutator last wrote into a slot or register.
///
/// Shadow tags are *simulation-only* oracles: the real TIL runtime has no
/// such information (that is the entire difficulty §2.3 describes). The
/// collector never consults them to find roots; they exist so tests can
/// assert that trace-directed scanning reaches exactly the right
/// conclusions, and so that mis-declared frame descriptors in benchmark
/// programs fail fast instead of corrupting the heap.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ShadowTag {
    /// The location holds a non-pointer word (or was never written).
    #[default]
    NonPtr,
    /// The location holds a heap pointer.
    Ptr,
}

impl ShadowTag {
    /// Shadow tag corresponding to a [`Value`].
    #[inline]
    pub fn of(value: Value) -> ShadowTag {
        if value.is_pointer() {
            ShadowTag::Ptr
        } else {
            ShadowTag::NonPtr
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_round_trips() {
        assert_eq!(
            Value::from_int_word(Value::Int(-77).to_word()),
            Value::Int(-77)
        );
        let p = Value::Ptr(Addr::new(123));
        assert_eq!(Value::from_ptr_word(p.to_word()), p);
        assert_eq!(f64::from_bits(Value::Real(6.5).to_word()), 6.5);
    }

    #[test]
    fn pointerness() {
        assert!(Value::NULL.is_pointer());
        assert!(!Value::Int(0).is_pointer());
        assert!(!Value::Uninit.is_pointer());
        assert_eq!(ShadowTag::of(Value::Ptr(Addr::new(1))), ShadowTag::Ptr);
        assert_eq!(ShadowTag::of(Value::Real(0.0)), ShadowTag::NonPtr);
    }

    #[test]
    #[should_panic(expected = "expected pointer")]
    fn as_ptr_on_int_panics() {
        let _ = Value::Int(3).as_ptr();
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(Addr::new(9)), Value::Ptr(Addr::new(9)));
        assert_eq!(Value::from(1.5f64), Value::Real(1.5));
    }
}
