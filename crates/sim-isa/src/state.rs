//! Binary state codec for checkpoint/restore.
//!
//! Every stateful component of the simulator serializes its *mutable*
//! state (never fixed geometry, which is reconstructed from the config)
//! into a [`StateWriter`] and restores it from a [`StateReader`]. The
//! encoding is a flat little-endian byte stream with no self-description:
//! the component itself is the schema, and the whole-checkpoint envelope
//! (see `ucp-core::snapshot`) carries the version and checksum that make
//! a mismatched read detectable before any component decodes a byte.
//!
//! One trait, [`State`], carries both directions, so the encoder and
//! decoder of a type cannot drift apart. Its impls fix the byte shape of
//! each kind of field:
//!
//! * integers, `bool`, `usize` (as a u64) and [`Addr`]: fixed-width
//!   little-endian;
//! * tuples, arrays `[T; N]` and bare slices `[T]`: the elements, no
//!   length;
//! * `Option<T>`: a presence byte, then the value;
//! * `Vec<T>` and `VecDeque<T>` (growable state): a length, then the
//!   elements; restore resizes;
//! * `Box<[T]>` (a fixed-geometry table): a length, then the elements;
//!   restore asserts the length against the table built from the config;
//! * [`Tables<T>`] (equal tables back to back): the table count, then
//!   each table as a fixed table.
//!
//! Structs list their fields once with [`state_fields!`](crate::state_fields),
//! and fieldless enums their byte codes once with
//! [`state_enum!`](crate::state_enum). A component whose bytes are not
//! the default shape writes its impl by hand from the same pieces.
//!
//! Restore panics on underflow, on a failed [`StateReader::check`] marker
//! and on bytes a save never writes. That is deliberate: the
//! envelope checksum and version are validated *before* decoding starts,
//! so a panic here means either a bug or in-memory corruption, and the
//! suite runner's `catch_unwind` isolation converts it into a structured
//! per-workload error instead of a process abort.
//!
//! Determinism contract: a component must write its state in an order
//! that is a pure function of that state — no `HashMap` iteration order,
//! no addresses, no timestamps. The 64-bit FNV-1a digest of the encoded
//! bytes ([`fnv1a64`]) is then a stable fingerprint of the component
//! state, comparable across runs, machines and platforms. A
//! [`StateWriter::hasher`] computes that digest as the bytes are written,
//! without keeping them.

use crate::{Addr, BranchClass};
use std::collections::VecDeque;
use std::fmt::Debug;

/// FNV-1a 64-bit hash — the digest function for component and
/// whole-checkpoint state fingerprints, result-cache keys and envelope
/// checksums. Kept dependency-free here so every crate in the workspace
/// can use it.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV_OFFSET, bytes)
}

/// [`fnv1a64`] of the concatenation of `parts`, folded part by part, so
/// no buffer has to hold the whole.
pub fn fnv1a64_parts(parts: &[&[u8]]) -> u64 {
    parts.iter().copied().fold(FNV_OFFSET, fnv1a64_extend)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a digest `h` over `bytes`.
#[inline]
fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Where a [`StateWriter`]'s bytes go.
#[derive(Debug)]
enum Sink {
    /// Kept, for a checkpoint.
    Bytes(Vec<u8>),
    /// Folded into a running FNV-1a digest and dropped.
    Digest(u64),
}

/// Append-only encoder for component state.
#[derive(Debug)]
pub struct StateWriter {
    sink: Sink,
}

impl Default for StateWriter {
    fn default() -> Self {
        StateWriter {
            sink: Sink::Bytes(Vec::new()),
        }
    }
}

impl StateWriter {
    /// A writer that keeps the encoded bytes.
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer that keeps only the [`fnv1a64`] digest of the encoded
    /// bytes, folded in as they are written: [`StateWriter::digest`]
    /// without the buffer.
    pub fn hasher() -> Self {
        StateWriter {
            sink: Sink::Digest(FNV_OFFSET),
        }
    }

    /// The [`fnv1a64`] digest of the bytes encoded so far.
    pub fn digest(&self) -> u64 {
        match &self.sink {
            Sink::Bytes(buf) => fnv1a64(buf),
            Sink::Digest(h) => *h,
        }
    }

    /// The encoded bytes so far.
    ///
    /// # Panics
    ///
    /// Panics on a [`StateWriter::hasher`], which keeps no bytes.
    pub fn bytes(&self) -> &[u8] {
        match &self.sink {
            Sink::Bytes(buf) => buf,
            Sink::Digest(_) => panic!("a hashing StateWriter keeps no bytes"),
        }
    }

    /// Consumes the writer, returning the encoded bytes.
    ///
    /// # Panics
    ///
    /// Panics on a [`StateWriter::hasher`], which keeps no bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        match self.sink {
            Sink::Bytes(buf) => buf,
            Sink::Digest(_) => panic!("a hashing StateWriter keeps no bytes"),
        }
    }

    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        match &mut self.sink {
            Sink::Bytes(buf) => buf.extend_from_slice(bytes),
            Sink::Digest(h) => *h = fnv1a64_extend(*h, bytes),
        }
    }

    pub fn put_u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    pub fn put_bool(&mut self, v: bool) {
        self.put(&[v as u8]);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.put(&v.to_le_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }

    pub fn put_i8(&mut self, v: i8) {
        self.put(&[v as u8]);
    }

    pub fn put_i32(&mut self, v: i32) {
        self.put(&v.to_le_bytes());
    }

    /// Encodes a `usize` as a fixed-width u64 so checkpoints are
    /// portable across pointer widths.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    pub fn put_addr(&mut self, a: Addr) {
        self.put_u64(a.raw());
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.put(s.as_bytes());
    }

    /// A structural marker. [`StateReader::check`] verifies it during
    /// restore, so a component whose encode/decode drift out of sync
    /// fails fast at the drift point instead of silently mis-decoding
    /// everything after it.
    pub fn mark(&mut self, tag: u32) {
        self.put_u32(tag ^ 0x5AFE_5AFE);
    }
}

/// Decoder over a component state byte slice. Panics on underflow or
/// marker mismatch — see the module docs for why that is safe here.
#[derive(Debug)]
pub struct StateReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> &'a [u8] {
        assert!(
            self.remaining() >= n,
            "checkpoint state underflow: need {n} bytes at offset {}, have {}",
            self.pos,
            self.remaining()
        );
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        s
    }

    pub fn get_u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    pub fn get_bool(&mut self) -> bool {
        match self.get_u8() {
            0 => false,
            1 => true,
            b => panic!("checkpoint state corrupt: bool byte {b:#x}"),
        }
    }

    pub fn get_u16(&mut self) -> u16 {
        u16::from_le_bytes(self.take(2).try_into().unwrap())
    }

    pub fn get_u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take(4).try_into().unwrap())
    }

    pub fn get_u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take(8).try_into().unwrap())
    }

    pub fn get_i8(&mut self) -> i8 {
        self.get_u8() as i8
    }

    pub fn get_i32(&mut self) -> i32 {
        i32::from_le_bytes(self.take(4).try_into().unwrap())
    }

    pub fn get_usize(&mut self) -> usize {
        let v = self.get_u64();
        usize::try_from(v).expect("checkpoint state corrupt: usize overflow")
    }

    pub fn get_addr(&mut self) -> Addr {
        Addr::new(self.get_u64())
    }

    pub fn get_str(&mut self) -> &'a str {
        let n = self.get_usize();
        std::str::from_utf8(self.take(n)).expect("checkpoint state corrupt: non-UTF-8 string")
    }

    /// Verifies a [`StateWriter::mark`] written at the same structural
    /// point during save.
    pub fn check(&mut self, tag: u32) {
        let got = self.get_u32() ^ 0x5AFE_5AFE;
        assert_eq!(
            got, tag,
            "checkpoint state corrupt: marker {got:#x} where {tag:#x} expected"
        );
    }

    /// Asserts the whole slice was consumed — every restore should end
    /// with this so trailing garbage (a schema drift symptom) is caught.
    pub fn finish(self) {
        assert_eq!(
            self.remaining(),
            0,
            "checkpoint state corrupt: {} trailing bytes",
            self.remaining()
        );
    }
}

/// A value whose mutable state round-trips through the checkpoint codec.
///
/// `restore_state` overwrites `self` with what `save_state` wrote; the
/// receiver already has its configured geometry, which restore checks
/// instead of rebuilding.
pub trait State {
    /// Appends this value's state to `w`.
    fn save_state(&self, w: &mut StateWriter);

    /// Overwrites this value with state written by [`State::save_state`].
    fn restore_state(&mut self, r: &mut StateReader);
}

macro_rules! scalar_state {
    ($($t:ty => $put:ident, $get:ident;)*) => {$(
        impl State for $t {
            #[inline]
            fn save_state(&self, w: &mut StateWriter) {
                w.$put(*self);
            }

            #[inline]
            fn restore_state(&mut self, r: &mut StateReader) {
                *self = r.$get();
            }
        }
    )*};
}

scalar_state! {
    u8 => put_u8, get_u8;
    bool => put_bool, get_bool;
    u16 => put_u16, get_u16;
    u32 => put_u32, get_u32;
    u64 => put_u64, get_u64;
    i8 => put_i8, get_i8;
    i32 => put_i32, get_i32;
    usize => put_usize, get_usize;
    Addr => put_addr, get_addr;
}

macro_rules! tuple_state {
    ($($n:tt $t:ident),+) => {
        impl<$($t: State),+> State for ($($t,)+) {
            fn save_state(&self, w: &mut StateWriter) {
                $(self.$n.save_state(w);)+
            }

            fn restore_state(&mut self, r: &mut StateReader) {
                $(self.$n.restore_state(r);)+
            }
        }
    };
}

tuple_state!(0 A, 1 B);
tuple_state!(0 A, 1 B, 2 C);

/// The elements alone: the length is fixed by the geometry.
impl<T: State> State for [T] {
    fn save_state(&self, w: &mut StateWriter) {
        for x in self {
            x.save_state(w);
        }
    }

    fn restore_state(&mut self, r: &mut StateReader) {
        for x in self {
            x.restore_state(r);
        }
    }
}

impl<T: State, const N: usize> State for [T; N] {
    fn save_state(&self, w: &mut StateWriter) {
        self[..].save_state(w);
    }

    fn restore_state(&mut self, r: &mut StateReader) {
        self[..].restore_state(r);
    }
}

/// A fixed-geometry table: the length, then the elements. Restore
/// asserts the saved length against the configured one.
impl<T: State> State for Box<[T]> {
    fn save_state(&self, w: &mut StateWriter) {
        w.put_usize(self.len());
        self[..].save_state(w);
    }

    fn restore_state(&mut self, r: &mut StateReader) {
        let n = r.get_usize();
        assert_eq!(
            n,
            self.len(),
            "checkpoint geometry mismatch: {n}-entry table restored into {} entries",
            self.len()
        );
        self[..].restore_state(r);
    }
}

impl<T: State + Default> State for Option<T> {
    fn save_state(&self, w: &mut StateWriter) {
        w.put_bool(self.is_some());
        if let Some(x) = self {
            x.save_state(w);
        }
    }

    fn restore_state(&mut self, r: &mut StateReader) {
        if r.get_bool() {
            self.get_or_insert_with(T::default).restore_state(r);
        } else {
            *self = None;
        }
    }
}

/// Growable state: the length, then the elements. Restore resizes,
/// reusing the elements already there.
macro_rules! growable_state {
    ($($c:ident: $push:ident),*) => {$(
        impl<T: State + Default> State for $c<T> {
            fn save_state(&self, w: &mut StateWriter) {
                w.put_usize(self.len());
                self.iter().for_each(|x| x.save_state(w));
            }

            fn restore_state(&mut self, r: &mut StateReader) {
                let n = r.get_usize();
                self.truncate(n);
                self.iter_mut().for_each(|x| x.restore_state(r));
                // One element at a time, so a corrupt length underflows
                // the reader instead of allocating.
                for _ in self.len()..n {
                    let mut x = T::default();
                    x.restore_state(r);
                    self.$push(x);
                }
            }
        }
    )*};
}

growable_state!(Vec: push, VecDeque: push_back);

/// Equal-sized fixed tables stored back to back in one allocation (a
/// predictor's tagged banks). It reads as one flat slice and serializes
/// as the table count, then each table as a fixed table.
#[derive(Clone, Debug)]
pub struct Tables<T> {
    flat: Box<[T]>,
    entries: usize,
}

impl<T: Clone> Tables<T> {
    /// `count` tables of `entries` copies of `fill` each.
    pub fn new(count: usize, entries: usize, fill: T) -> Self {
        Tables {
            flat: vec![fill; count * entries].into_boxed_slice(),
            entries,
        }
    }
}

impl<T> std::ops::Deref for Tables<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        &self.flat
    }
}

impl<T> std::ops::DerefMut for Tables<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.flat
    }
}

impl<T: State> State for Tables<T> {
    fn save_state(&self, w: &mut StateWriter) {
        w.put_usize(self.flat.len() / self.entries);
        for t in self.flat.chunks(self.entries) {
            w.put_usize(t.len());
            t.save_state(w);
        }
    }

    fn restore_state(&mut self, r: &mut StateReader) {
        restore_geometry(&(self.flat.len() / self.entries), r, "table count");
        for t in self.flat.chunks_mut(self.entries) {
            restore_geometry(&t.len(), r, "table entries");
            t.restore_state(r);
        }
    }
}

/// Reads a geometry value that [`State::save_state`] wrote as a
/// cross-check and asserts it equals the configured `expected`.
pub fn restore_geometry<T: State + Copy + PartialEq + Debug>(
    expected: &T,
    r: &mut StateReader,
    what: &str,
) {
    let mut saved = *expected;
    saved.restore_state(r);
    assert_eq!(saved, *expected, "checkpoint geometry mismatch: {what}");
}

/// Saves a component that the configuration may leave out: the presence
/// byte and value an `Option` writes.
pub fn save_configured<T: State + ?Sized>(c: Option<&T>, w: &mut StateWriter) {
    w.put_bool(c.is_some());
    if let Some(c) = c {
        c.save_state(w);
    }
}

/// Restores a component saved by [`save_configured`]. The component
/// cannot be built from the bytes, so restore asserts that the saved
/// presence matches the configuration.
pub fn restore_configured<T: State + ?Sized>(c: Option<&mut T>, r: &mut StateReader, what: &str) {
    let present = r.get_bool();
    assert_eq!(present, c.is_some(), "{what} configuration mismatch");
    if let Some(c) = c {
        c.restore_state(r);
    }
}

/// Implements [`State`] for a struct from one ordered list of its fields.
///
/// Fields are written in list order. Entries may also be `mark(tag)`, a
/// [`StateWriter::mark`] checked on restore; `geometry(field)`, a
/// configured value written as a cross-check and asserted, not
/// overwritten, on restore; `rows(field)`, a table's elements without a
/// length (a sibling entry already pins the geometry); or
/// `configured(field)`, an `Option` component that the configuration
/// creates or leaves out (see [`save_configured`]). Every other
/// field — configuration, geometry, telemetry handles, per-cycle scratch
/// — goes in the `skip { … }` list, which is written out even when it is
/// empty. The generated code destructures the struct without `..`, so a
/// field in neither list does not compile.
///
/// ```
/// use sim_isa::{state_fields, State, StateReader, StateWriter};
///
/// #[derive(Default)]
/// struct Counter {
///     hits: u64,
///     recent: Vec<u32>,
///     ways: usize,
/// }
/// state_fields!(Counter { mark(7), hits, recent, geometry(ways) } skip {});
///
/// let c = Counter { hits: 3, recent: vec![1, 2], ways: 4 };
/// let mut w = StateWriter::new();
/// c.save_state(&mut w);
/// let bytes = w.into_bytes();
/// let mut back = Counter { ways: 4, ..Counter::default() };
/// back.restore_state(&mut StateReader::new(&bytes));
/// assert_eq!((back.hits, back.recent), (3, vec![1, 2]));
/// ```
///
/// Leaving a field out of both lists is a compile error:
///
/// ```compile_fail
/// use sim_isa::state_fields;
///
/// struct Counter {
///     hits: u64,
///     misses: u64,
/// }
/// state_fields!(Counter { hits } skip {});
/// ```
#[macro_export]
macro_rules! state_fields {
    ($ty:ident $(<$lt:lifetime>)? { $($entries:tt)* } skip { $($skip:ident),* $(,)? }) => {
        $crate::state_fields!(@munch [$ty $(<$lt>)?] [$($skip)*] [] [] $($entries)*);
    };
    (@munch $head:tt $skip:tt [$($f:ident)*] [$($e:tt)*] mark($tag:expr) $(, $($rest:tt)*)?) => {
        $crate::state_fields!(@munch $head $skip [$($f)*] [$($e)* (mark $tag)] $($($rest)*)?);
    };
    (@munch $head:tt $skip:tt [$($f:ident)*] [$($e:tt)*]
        $kind:ident($g:ident) $(, $($rest:tt)*)?) => {
        $crate::state_fields!(@munch $head $skip [$($f)* $g] [$($e)* ($kind $g)] $($($rest)*)?);
    };
    (@munch $head:tt $skip:tt [$($f:ident)*] [$($e:tt)*] $g:ident $(, $($rest:tt)*)?) => {
        $crate::state_fields!(@munch $head $skip [$($f)* $g] [$($e)* (field $g)] $($($rest)*)?);
    };
    (@munch [$ty:ident $(<$lt:lifetime>)?] [$($skip:ident)*] [$($f:ident)*] [$($e:tt)*]) => {
        impl $(<$lt>)? $crate::State for $ty $(<$lt>)? {
            #[inline]
            fn save_state(&self, w: &mut $crate::StateWriter) {
                let $ty { $($f,)* $($skip: _,)* } = self;
                $($crate::state_fields!(@save w $e);)*
            }

            #[inline]
            fn restore_state(&mut self, r: &mut $crate::StateReader) {
                let $ty { $($f,)* $($skip: _,)* } = self;
                $($crate::state_fields!(@restore r $ty $e);)*
            }
        }
    };
    (@save $w:ident (field $f:ident)) => { $crate::State::save_state($f, $w) };
    (@save $w:ident (geometry $f:ident)) => { $crate::State::save_state($f, $w) };
    (@save $w:ident (rows $f:ident)) => { $crate::State::save_state(&$f[..], $w) };
    (@save $w:ident (configured $f:ident)) => { $crate::state::save_configured($f.as_ref(), $w) };
    (@save $w:ident (mark $tag:expr)) => { $w.mark($tag) };
    (@restore $r:ident $ty:ident (field $f:ident)) => { $crate::State::restore_state($f, $r) };
    (@restore $r:ident $ty:ident (geometry $f:ident)) => {
        $crate::state::restore_geometry(&*$f, $r, concat!(stringify!($ty), ".", stringify!($f)))
    };
    (@restore $r:ident $ty:ident (rows $f:ident)) => {
        $crate::State::restore_state(&mut $f[..], $r)
    };
    (@restore $r:ident $ty:ident (configured $f:ident)) => {
        $crate::state::restore_configured(
            $f.as_mut(),
            $r,
            concat!(stringify!($ty), ".", stringify!($f)),
        )
    };
    (@restore $r:ident $ty:ident (mark $tag:expr)) => { $r.check($tag) };
}

/// Implements [`State`] for a fieldless (or constant-payload) enum as one
/// code byte per variant. Restore rejects a code the list does not name.
///
/// ```
/// use sim_isa::{state_enum, State, StateReader, StateWriter};
///
/// #[derive(Clone, Copy, Debug, PartialEq)]
/// enum Mode {
///     Stream,
///     Build { ideal: bool },
/// }
/// state_enum!(Mode { 0 => Stream, 1 => Build { ideal: false }, 2 => Build { ideal: true } });
///
/// let mut w = StateWriter::new();
/// Mode::Build { ideal: true }.save_state(&mut w);
/// assert_eq!(w.bytes(), &[2]);
/// let mut m = Mode::Stream;
/// m.restore_state(&mut StateReader::new(&[1]));
/// assert_eq!(m, Mode::Build { ideal: false });
/// ```
#[macro_export]
macro_rules! state_enum {
    ($ty:ident { $($code:literal => $v:ident $({ $($payload:tt)* })?),+ $(,)? }) => {
        impl $crate::State for $ty {
            #[inline]
            fn save_state(&self, w: &mut $crate::StateWriter) {
                w.put_u8(match *self {
                    $($ty::$v $({ $($payload)* })? => $code,)+
                });
            }

            #[inline]
            fn restore_state(&mut self, r: &mut $crate::StateReader) {
                *self = match r.get_u8() {
                    $($code => $ty::$v $({ $($payload)* })?,)+
                    b => panic!(
                        concat!("checkpoint state corrupt: ", stringify!($ty), " code {}"),
                        b
                    ),
                };
            }
        }
    };
}

state_enum!(BranchClass {
    0 => CondDirect,
    1 => UncondDirect,
    2 => Call,
    3 => IndirectJump,
    4 => IndirectCall,
    5 => Return,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_primitives() {
        let mut w = StateWriter::new();
        w.mark(1);
        w.put_u8(0xAB);
        w.put_bool(true);
        w.put_bool(false);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_i8(-7);
        w.put_i32(-123_456);
        w.put_usize(42);
        w.put_addr(Addr::new(0x4000));
        w.put_str("µop");
        w.mark(2);

        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        r.check(1);
        assert_eq!(r.get_u8(), 0xAB);
        assert!(r.get_bool());
        assert!(!r.get_bool());
        assert_eq!(r.get_u16(), 0xBEEF);
        assert_eq!(r.get_u32(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64(), u64::MAX - 3);
        assert_eq!(r.get_i8(), -7);
        assert_eq!(r.get_i32(), -123_456);
        assert_eq!(r.get_usize(), 42);
        assert_eq!(r.get_addr(), Addr::new(0x4000));
        assert_eq!(r.get_str(), "µop");
        r.check(2);
        r.finish();
    }

    #[test]
    fn hasher_digest_equals_digest_of_the_buffered_bytes() {
        // Every blanket impl, the string and mark encoders, and the empty
        // stream.
        fn check(write: impl Fn(&mut StateWriter)) {
            let (mut buffered, mut hashed) = (StateWriter::new(), StateWriter::hasher());
            write(&mut buffered);
            write(&mut hashed);
            assert_eq!(hashed.digest(), fnv1a64(buffered.bytes()));
            assert_eq!(buffered.digest(), fnv1a64(buffered.bytes()));
        }
        check(|_| {});
        check(|w| {
            (7u8, true, 0xBEEFu16).save_state(w);
            (0xDEAD_BEEFu32, u64::MAX - 3, -7i8).save_state(w);
            (-123_456i32, 42usize, Addr::new(0x4000)).save_state(w);
            [1u16, 2, 3].save_state(w);
            [4u32, 5][..].save_state(w);
            vec![6u64, 7].into_boxed_slice().save_state(w);
            (Some(8u8), None::<u32>).save_state(w);
            vec![Addr::new(0x40)].save_state(w);
            VecDeque::from([9i8, -9]).save_state(w);
            Tables::new(3, 2, 0xABu8).save_state(w);
            BranchClass::Return.save_state(w);
            w.put_str("µop");
            w.mark(0x11);
        });
    }

    #[test]
    #[should_panic(expected = "keeps no bytes")]
    fn hasher_keeps_no_bytes() {
        let _ = StateWriter::hasher().bytes();
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    proptest::proptest! {
        /// Streaming over any split, empty parts included, is hashing the
        /// whole.
        #[test]
        fn fnv1a64_parts_equals_fnv1a64_of_the_whole(
            bytes in proptest::collection::vec(proptest::any::<u8>(), 0..80),
            cuts in proptest::collection::vec(0usize..81, 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(bytes.len())).collect();
            cuts.sort_unstable();
            let mut parts = Vec::new();
            let mut start = 0;
            for &cut in &cuts {
                parts.push(&bytes[start..cut]);
                start = cut;
            }
            parts.push(&bytes[start..]);
            proptest::prop_assert_eq!(fnv1a64_parts(&parts), fnv1a64(&bytes));
            proptest::prop_assert_eq!(fnv1a64_parts(&[&[], &bytes, &[]]), fnv1a64(&bytes));
        }
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn reader_panics_on_underflow() {
        let mut r = StateReader::new(&[1, 2]);
        r.get_u64();
    }

    #[test]
    #[should_panic(expected = "marker")]
    fn reader_panics_on_marker_mismatch() {
        let mut w = StateWriter::new();
        w.mark(7);
        let b = w.into_bytes();
        StateReader::new(&b).check(8);
    }

    fn saved<T: State + ?Sized>(v: &T) -> Vec<u8> {
        let mut w = StateWriter::new();
        v.save_state(&mut w);
        w.into_bytes()
    }

    fn restored<T: State>(mut into: T, bytes: &[u8]) -> T {
        let mut r = StateReader::new(bytes);
        into.restore_state(&mut r);
        r.finish();
        into
    }

    #[test]
    fn blanket_impls_write_the_put_sequences_they_replace() {
        // Option: presence byte, then the value.
        let mut w = StateWriter::new();
        w.put_bool(true);
        w.put_u64(9);
        w.put_bool(false);
        assert_eq!(saved(&(Some(9u64), None::<u64>)), w.into_bytes());

        // Growable Vec and VecDeque: a length, then the elements.
        let mut w = StateWriter::new();
        w.put_usize(2);
        w.put_addr(Addr::new(0x40));
        w.put_addr(Addr::new(0x80));
        let v = vec![Addr::new(0x40), Addr::new(0x80)];
        assert_eq!(saved(&v), w.bytes());
        assert_eq!(saved(&VecDeque::from(v)), w.bytes());

        // Fixed table: the same length prefix.
        let mut w = StateWriter::new();
        w.put_usize(3);
        for c in [-1i8, 0, 1] {
            w.put_i8(c);
        }
        assert_eq!(saved(&vec![-1i8, 0, 1].into_boxed_slice()), w.into_bytes());

        // Arrays, slices and tuples: the elements, no length.
        let mut w = StateWriter::new();
        for x in [7u16, 8] {
            w.put_u16(x);
        }
        w.put_u8(1);
        w.put_u64(2);
        assert_eq!(saved(&([7u16, 8], (1u8, 2usize))), w.bytes());
        assert_eq!(saved(&[7u16, 8][..]).len(), 4);
    }

    #[test]
    fn blanket_impls_round_trip() {
        let bytes = saved(&(Some(5u32), vec![1u64, 2, 3]));
        // Restore resizes growable state in both directions.
        let back = restored((None, vec![9u64; 5]), &bytes);
        assert_eq!(back, (Some(5u32), vec![1, 2, 3]));
        let back = restored((Some(1u32), Vec::<u64>::new()), &bytes);
        assert_eq!(back, (Some(5), vec![1, 2, 3]));
        let dq = restored(VecDeque::from([4u8]), &saved(&VecDeque::from([1u8, 2])));
        assert_eq!(dq, [1, 2]);
        let none = restored(Some(3u64), &saved(&None::<u64>));
        assert_eq!(none, None);
        let table = restored(
            vec![0u8; 2].into_boxed_slice(),
            &saved(&vec![3u8, 4].into_boxed_slice()),
        );
        assert_eq!(&table[..], &[3, 4]);
    }

    #[test]
    #[should_panic(expected = "geometry mismatch")]
    fn fixed_table_rejects_a_length_mismatch() {
        let bytes = saved(&vec![1u8, 2, 3].into_boxed_slice());
        restored(vec![0u8; 4].into_boxed_slice(), &bytes);
    }

    #[test]
    #[should_panic(expected = "geometry mismatch: ways")]
    fn geometry_entries_are_asserted_not_overwritten() {
        let bytes = saved(&8usize);
        restore_geometry(&4usize, &mut StateReader::new(&bytes), "ways");
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn growable_restore_underflows_on_a_corrupt_length() {
        let mut w = StateWriter::new();
        w.put_usize(usize::MAX >> 1);
        restored(Vec::<u64>::new(), &w.into_bytes());
    }

    #[test]
    #[should_panic(expected = "configuration mismatch")]
    fn configured_component_rejects_a_presence_mismatch() {
        let mut w = StateWriter::new();
        save_configured(Some(&3u32), &mut w);
        let bytes = w.into_bytes();
        restore_configured(None::<&mut u32>, &mut StateReader::new(&bytes), "MRC");
    }

    #[test]
    fn field_lists_write_in_list_order_and_check_marks() {
        #[derive(Debug, Default, PartialEq)]
        struct Part {
            b: u8,
            a: u16,
            rows: Box<[u8]>,
            cfg: u32,
        }
        state_fields!(Part { a, mark(0x11), b, rows(rows) } skip { cfg });

        let part = Part {
            b: 1,
            a: 2,
            rows: vec![5, 6].into_boxed_slice(),
            cfg: 77,
        };
        let mut w = StateWriter::new();
        w.put_u16(2);
        w.mark(0x11);
        w.put_u8(1);
        w.put_u8(5);
        w.put_u8(6);
        assert_eq!(saved(&part), w.bytes());
        let back = restored(
            Part {
                rows: vec![0; 2].into_boxed_slice(),
                cfg: 77,
                ..Part::default()
            },
            w.bytes(),
        );
        assert_eq!(back, part);
    }

    #[test]
    #[should_panic(expected = "checkpoint state corrupt: BranchClass code 6")]
    fn enum_codes_reject_unknown_bytes() {
        let mut c = BranchClass::Call;
        c.restore_state(&mut StateReader::new(&[6]));
    }

    #[test]
    fn branch_class_codes_are_stable() {
        for (code, class) in [
            BranchClass::CondDirect,
            BranchClass::UncondDirect,
            BranchClass::Call,
            BranchClass::IndirectJump,
            BranchClass::IndirectCall,
            BranchClass::Return,
        ]
        .into_iter()
        .enumerate()
        {
            assert_eq!(saved(&class), [code as u8]);
            assert_eq!(restored(BranchClass::CondDirect, &[code as u8]), class);
        }
    }
}
