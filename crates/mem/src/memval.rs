//! Byte-level memory contents (CompCert's `memval`).

use crate::chunk::Chunk;
use crate::value::Val;

/// One byte of memory content.
///
/// Pointers (and any value whose representation must stay abstract) are
/// stored as a sequence of [`MemVal::Fragment`]s — the `i`-th fragment of the
/// value `v`. Loading reconstitutes the value only if all fragments are
/// present, in order, and agree on `v`; otherwise the load yields
/// [`Val::Undef`]. Numeric values are stored as concrete little-endian bytes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum MemVal {
    /// Uninitialized contents.
    #[default]
    Undef,
    /// A concrete byte.
    Byte(u8),
    /// The `usize`-th byte of the abstract value.
    Fragment(Val, u8),
}

/// Encode a value for storage through `chunk` as `chunk.size()` memvals.
pub(crate) fn encode(chunk: Chunk, v: Val) -> Vec<MemVal> {
    let n = chunk.size() as usize;
    let v = chunk.normalize(v);
    // Any64 stores every defined value abstractly, as fragments.
    if chunk == Chunk::Any64 {
        return match v {
            Val::Undef => vec![MemVal::Undef; n],
            _ => (0..n as u8).map(|i| MemVal::Fragment(v, i)).collect(),
        };
    }
    match v {
        Val::Undef => vec![MemVal::Undef; n],
        Val::Ptr(_, _) => (0..n as u8).map(|i| MemVal::Fragment(v, i)).collect(),
        Val::Int(x) => bytes_of(&(x as u32 as u64).to_le_bytes()[..n]),
        Val::Long(x) => bytes_of(&(x as u64).to_le_bytes()[..n]),
        Val::Single(x) => bytes_of(&x.to_bits().to_le_bytes()[..n]),
        Val::Float(x) => bytes_of(&x.to_bits().to_le_bytes()[..n]),
    }
}

fn bytes_of(bs: &[u8]) -> Vec<MemVal> {
    bs.iter().copied().map(MemVal::Byte).collect()
}

/// Encode a value for storage through `chunk` as raw little-endian bytes —
/// the concrete-block fast path of [`crate::mem::Mem::store`]. Returns the
/// full 8-byte buffer plus the number of significant bytes (`chunk.size()`),
/// or `None` when the encoding must stay abstract (`Any64`, pointers,
/// `Undef`), in which case the caller falls back to [`encode`].
///
/// Invariant: when this returns `Some((raw, n))`, `encode(chunk, v)` is
/// exactly `raw[..n]` wrapped in [`MemVal::Byte`]s.
pub(crate) fn encode_scalar_bytes(chunk: Chunk, v: Val) -> Option<([u8; 8], usize)> {
    if chunk == Chunk::Any64 {
        return None;
    }
    let raw = match chunk.normalize(v) {
        Val::Undef | Val::Ptr(_, _) => return None,
        Val::Int(x) => x as u32 as u64,
        Val::Long(x) => x as u64,
        Val::Single(x) => x.to_bits() as u64,
        Val::Float(x) => x.to_bits(),
    };
    Some((raw.to_le_bytes(), chunk.size() as usize))
}

/// Decode raw bytes loaded through `chunk` — the concrete-block fast path
/// of [`crate::mem::Mem::load`]. Mirror of [`decode`]'s concrete branch:
/// agrees with `decode(chunk, bytes_of(bs))` for every chunk (including
/// `Any64`, which only reconstitutes fragments and thus yields `Undef`).
pub(crate) fn decode_scalar_bytes(chunk: Chunk, bs: &[u8]) -> Val {
    debug_assert_eq!(bs.len(), chunk.size() as usize);
    let mut buf = [0u8; 8];
    buf[..bs.len().min(8)].copy_from_slice(&bs[..bs.len().min(8)]);
    let raw = u64::from_le_bytes(buf);
    match chunk {
        Chunk::I8S => Val::Int((raw as u8 as i8) as i32),
        Chunk::I8U => Val::Int(raw as u8 as i32),
        Chunk::I16S => Val::Int((raw as u16 as i16) as i32),
        Chunk::I16U => Val::Int(raw as u16 as i32),
        Chunk::I32 => Val::Int(raw as u32 as i32),
        Chunk::I64 | Chunk::Ptr => Val::Long(raw as i64),
        Chunk::Any64 => Val::Undef, // Many64 only reconstitutes fragments
        Chunk::F32 => Val::Single(f32::from_bits(raw as u32)),
        Chunk::F64 => Val::Float(f64::from_bits(raw)),
    }
}

/// Decode `chunk.size()` memvals loaded through `chunk` back into a value.
pub(crate) fn decode(chunk: Chunk, mvs: &[MemVal]) -> Val {
    debug_assert_eq!(mvs.len(), chunk.size() as usize);
    // Pointer reconstruction: all fragments of the same value, in order.
    if let MemVal::Fragment(v, 0) = &mvs[0] {
        let ok = mvs
            .iter()
            .enumerate()
            .all(|(i, mv)| matches!(mv, MemVal::Fragment(w, j) if w == v && *j == i as u8));
        if ok && mvs.len() == 8 {
            return match chunk {
                Chunk::Any64 => *v,
                Chunk::I64 | Chunk::Ptr if matches!(v, Val::Ptr(_, _)) => *v,
                _ => Val::Undef,
            };
        }
        return Val::Undef;
    }
    // Concrete bytes.
    let mut bs = [0u8; 8];
    for (i, mv) in mvs.iter().enumerate() {
        match mv {
            MemVal::Byte(b) => bs[i] = *b,
            _ => return Val::Undef,
        }
    }
    let raw = u64::from_le_bytes(bs);
    match chunk {
        Chunk::I8S => Val::Int((raw as u8 as i8) as i32),
        Chunk::I8U => Val::Int(raw as u8 as i32),
        Chunk::I16S => Val::Int((raw as u16 as i16) as i32),
        Chunk::I16U => Val::Int(raw as u16 as i32),
        Chunk::I32 => Val::Int(raw as u32 as i32),
        Chunk::I64 | Chunk::Ptr => Val::Long(raw as i64),
        Chunk::Any64 => Val::Undef, // Many64 only reconstitutes fragments
        Chunk::F32 => Val::Single(f32::from_bits(raw as u32)),
        Chunk::F64 => Val::Float(f64::from_bits(raw)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_int() {
        for v in [Val::Int(0), Val::Int(-1), Val::Int(123456)] {
            assert_eq!(decode(Chunk::I32, &encode(Chunk::I32, v)), v);
        }
    }

    #[test]
    fn roundtrip_long_and_ptr() {
        assert_eq!(
            decode(Chunk::I64, &encode(Chunk::I64, Val::Long(-42))),
            Val::Long(-42)
        );
        assert_eq!(
            decode(Chunk::Ptr, &encode(Chunk::Ptr, Val::Ptr(7, 16))),
            Val::Ptr(7, 16)
        );
        // A pointer read back through I64 is still the pointer (Mptr = I64).
        assert_eq!(
            decode(Chunk::I64, &encode(Chunk::Ptr, Val::Ptr(7, 16))),
            Val::Ptr(7, 16)
        );
    }

    #[test]
    fn narrow_roundtrips_truncate() {
        assert_eq!(
            decode(Chunk::I8U, &encode(Chunk::I8U, Val::Int(0x1FF))),
            Val::Int(0xFF)
        );
        assert_eq!(
            decode(Chunk::I16S, &encode(Chunk::I16S, Val::Int(0xFFFF))),
            Val::Int(-1)
        );
    }

    #[test]
    fn partial_pointer_is_undef() {
        let mut enc = encode(Chunk::Ptr, Val::Ptr(1, 0));
        enc[3] = MemVal::Byte(0);
        assert_eq!(decode(Chunk::Ptr, &enc), Val::Undef);
    }

    #[test]
    fn undef_bytes_decode_to_undef() {
        assert_eq!(decode(Chunk::I32, &vec![MemVal::Undef; 4]), Val::Undef);
        let mixed = [
            MemVal::Byte(1),
            MemVal::Undef,
            MemVal::Byte(0),
            MemVal::Byte(0),
        ];
        assert_eq!(decode(Chunk::I32, &mixed), Val::Undef);
    }

    #[test]
    fn scalar_byte_fast_path_agrees_with_memvals() {
        let chunks = [
            Chunk::I8S,
            Chunk::I8U,
            Chunk::I16S,
            Chunk::I16U,
            Chunk::I32,
            Chunk::I64,
            Chunk::Ptr,
            Chunk::F32,
            Chunk::F64,
            Chunk::Any64,
        ];
        let vals = [
            Val::Undef,
            Val::Int(-1),
            Val::Int(0x1234_5678),
            Val::Long(i64::MIN),
            Val::Single(2.5),
            Val::Float(-0.125),
            Val::Ptr(3, 8),
        ];
        for chunk in chunks {
            for v in vals {
                match encode_scalar_bytes(chunk, v) {
                    Some((raw, n)) => {
                        assert_eq!(n, chunk.size() as usize);
                        // Byte-for-byte agreement with the memval encoding…
                        assert_eq!(encode(chunk, v), bytes_of(&raw[..n]), "{chunk:?} {v:?}");
                        // …and with its decoding.
                        assert_eq!(
                            decode_scalar_bytes(chunk, &raw[..n]),
                            decode(chunk, &encode(chunk, v)),
                            "{chunk:?} {v:?}"
                        );
                    }
                    None => {
                        // The abstract cases: Any64, pointers, Undef.
                        assert!(
                            chunk == Chunk::Any64
                                || matches!(chunk.normalize(v), Val::Undef | Val::Ptr(_, _)),
                            "{chunk:?} {v:?} refused the fast path unexpectedly"
                        );
                    }
                }
            }
        }
        // decode_scalar_bytes agrees with decode on arbitrary raw bytes too.
        let bs = [0x80, 0xff, 0x01, 0x7f, 0x00, 0xaa, 0x55, 0x80];
        for chunk in chunks {
            let n = chunk.size() as usize;
            assert_eq!(
                decode_scalar_bytes(chunk, &bs[..n]),
                decode(chunk, &bytes_of(&bs[..n])),
                "{chunk:?}"
            );
        }
    }

    #[test]
    fn floats_roundtrip() {
        assert_eq!(
            decode(Chunk::F64, &encode(Chunk::F64, Val::Float(1.5))),
            Val::Float(1.5)
        );
        assert_eq!(
            decode(Chunk::F32, &encode(Chunk::F32, Val::Single(-2.25))),
            Val::Single(-2.25)
        );
    }
}
