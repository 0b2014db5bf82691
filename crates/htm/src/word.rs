//! Types that fit in one transactional machine word.
//!
//! The emulated HTM tracks memory at word granularity: every
//! [`crate::TxCell`] stores its payload in a single 64-bit
//! [`crate::atomic::ProtocolWord`]. [`TxWord`] is the (sealed-ish)
//! conversion trait between user-visible payload types and that raw word.
//! All implementations are bit-faithful round-trips.

/// A `Copy` type representable in 64 bits, usable as a [`crate::TxCell`]
/// payload. It is `Send + Sync`, so a cell of it is too.
///
/// # Contract
///
/// `from_word(to_word(x)) == x` for every value `x`. Implementations must not
/// read or write anything besides the given word (no side tables), because
/// the HTM redo log stores only the word.
pub trait TxWord: Copy + Send + Sync {
    /// Encodes `self` into a raw 64-bit word.
    fn to_word(self) -> u64;
    /// Decodes a raw word produced by [`TxWord::to_word`].
    fn from_word(w: u64) -> Self;
}

macro_rules! impl_txword_uint {
    ($($t:ty),*) => {$(
        impl TxWord for $t {
            #[inline]
            fn to_word(self) -> u64 { self as u64 }
            #[inline]
            fn from_word(w: u64) -> Self { w as $t }
        }
    )*};
}

impl_txword_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_txword_int {
    ($($t:ty => $u:ty),*) => {$(
        impl TxWord for $t {
            #[inline]
            fn to_word(self) -> u64 { (self as $u) as u64 }
            #[inline]
            fn from_word(w: u64) -> Self { (w as $u) as $t }
        }
    )*};
}

impl_txword_int!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

impl TxWord for bool {
    #[inline]
    fn to_word(self) -> u64 {
        self as u64
    }
    #[inline]
    fn from_word(w: u64) -> Self {
        w != 0
    }
}

impl TxWord for f64 {
    #[inline]
    fn to_word(self) -> u64 {
        self.to_bits()
    }
    #[inline]
    fn from_word(w: u64) -> Self {
        f64::from_bits(w)
    }
}

impl TxWord for char {
    #[inline]
    fn to_word(self) -> u64 {
        self as u64
    }
    #[inline]
    fn from_word(w: u64) -> Self {
        char::from_u32(w as u32).expect("TxWord round-trip of invalid char")
    }
}

/// `Option<NonZeroU32>`-style nullable index, common for arena links.
impl TxWord for Option<core::num::NonZeroU32> {
    #[inline]
    fn to_word(self) -> u64 {
        self.map_or(0, |n| n.get() as u64)
    }
    #[inline]
    fn from_word(w: u64) -> Self {
        core::num::NonZeroU32::new(w as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: TxWord + PartialEq + core::fmt::Debug>(v: T) {
        assert_eq!(T::from_word(v.to_word()), v);
    }

    #[test]
    fn unsigned_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(u16::MAX);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(usize::MAX);
    }

    #[test]
    fn signed_roundtrip() {
        roundtrip(-1i8);
        roundtrip(i16::MIN);
        roundtrip(i32::MIN);
        roundtrip(-42i64);
        roundtrip(isize::MIN);
    }

    #[test]
    fn bool_float_char_roundtrip() {
        roundtrip(true);
        roundtrip(false);
        roundtrip(3.5f64);
        roundtrip(-0.0f64);
        roundtrip('z');
        roundtrip('\u{10ffff}');
    }

    #[test]
    fn nullable_index_roundtrip() {
        roundtrip(None::<core::num::NonZeroU32>);
        roundtrip(core::num::NonZeroU32::new(7));
        roundtrip(core::num::NonZeroU32::new(u32::MAX));
    }
}
