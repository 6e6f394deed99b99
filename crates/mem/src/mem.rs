//! The block-structured memory state (CompCert's `Mem.mem`).

use std::fmt;
use std::sync::Arc;

use crate::chunk::Chunk;
use crate::error::MemError;
use crate::memval::{decode, decode_scalar_bytes, encode, encode_scalar_bytes, MemVal};
use crate::perm::Perm;
use crate::value::Val;

/// Identifier of a memory block.
///
/// Block identifiers are allocated sequentially and never reused; a freed
/// block's identifier stays invalid forever, as in CompCert.
pub type BlockId = u32;

/// The byte contents of one block, in one of two representations.
///
/// Most blocks only ever hold numeric data, whose [`MemVal`] encoding is a
/// sequence of [`MemVal::Byte`]s — an enum per byte, with enum-sized storage
/// and encode/decode traffic on every access. The `Concrete` variant stores
/// such blocks as raw `Vec<u8>`: scalar loads and stores move machine bytes
/// directly (see [`decode_scalar_bytes`]/[`encode_scalar_bytes`]) and skip
/// the `MemVal` round-trip entirely. As soon as a non-byte memval (an
/// `Undef` or a pointer `Fragment`) lands in the block it *demotes* to the
/// general `Abstract` form; when the last non-byte entry is overwritten it
/// promotes back (the `non_concrete` counter makes that check O(1)).
///
/// The two representations are observationally identical — equality is
/// semantic (a `Concrete` block equals the `Abstract` block holding the same
/// bytes), and `tests/block_repr_props.rs` checks the equivalence under
/// random interleavings.
#[derive(Debug, Clone)]
pub(crate) enum BlockContents {
    /// Every byte is a concrete [`MemVal::Byte`], stored raw.
    Concrete(Vec<u8>),
    /// General representation; `non_concrete` counts the entries that are
    /// *not* [`MemVal::Byte`] (invariant: consistent with `mvs`, and > 0 —
    /// an all-byte block is promoted eagerly).
    Abstract {
        mvs: Vec<MemVal>,
        non_concrete: usize,
    },
}

impl BlockContents {
    /// The memval at index `i` (by value; a byte in a concrete block reads
    /// back as [`MemVal::Byte`]).
    fn get(&self, i: usize) -> MemVal {
        match self {
            BlockContents::Concrete(bs) => MemVal::Byte(bs[i]),
            BlockContents::Abstract { mvs, .. } => mvs[i].clone(),
        }
    }

    /// Write the memval at index `i`, demoting to `Abstract` when a
    /// non-byte value lands in a concrete block. Callers doing bulk writes
    /// follow up with [`BlockContents::maybe_promote`].
    fn set(&mut self, i: usize, mv: MemVal) {
        match self {
            BlockContents::Concrete(bs) => match mv {
                MemVal::Byte(b) => bs[i] = b,
                other => {
                    let mut mvs: Vec<MemVal> = bs.iter().map(|b| MemVal::Byte(*b)).collect();
                    mvs[i] = other;
                    *self = BlockContents::Abstract {
                        mvs,
                        non_concrete: 1,
                    };
                    crate::obs::bump(|c| c.demotes += 1);
                }
            },
            BlockContents::Abstract { mvs, non_concrete } => {
                let was = !matches!(mvs[i], MemVal::Byte(_));
                let now = !matches!(mv, MemVal::Byte(_));
                *non_concrete = *non_concrete + usize::from(now) - usize::from(was);
                mvs[i] = mv;
            }
        }
    }

    /// Promote an `Abstract` block whose last non-byte entry was just
    /// overwritten back to the `Concrete` fast path.
    fn maybe_promote(&mut self) {
        if let BlockContents::Abstract {
            mvs,
            non_concrete: 0,
        } = self
        {
            let mut bs = Vec::with_capacity(mvs.len());
            for mv in mvs.iter() {
                match mv {
                    MemVal::Byte(b) => bs.push(*b),
                    // Counter out of sync (cannot happen): stay abstract.
                    _ => return,
                }
            }
            *self = BlockContents::Concrete(bs);
            crate::obs::bump(|c| c.promotes += 1);
        }
    }

    /// Force the general representation (test hook: lets the equivalence
    /// property drive both representations through the same script).
    fn force_abstract(&mut self) {
        if let BlockContents::Concrete(bs) = self {
            *self = BlockContents::Abstract {
                mvs: bs.iter().map(|b| MemVal::Byte(*b)).collect(),
                non_concrete: 0,
            };
        }
    }
}

impl PartialEq for BlockContents {
    /// Semantic equality: the representation of a block never distinguishes
    /// two memory states (`Concrete([1]) == Abstract([Byte(1)])`).
    fn eq(&self, other: &BlockContents) -> bool {
        use BlockContents::{Abstract, Concrete};
        match (self, other) {
            (Concrete(a), Concrete(b)) => a == b,
            (Abstract { mvs: a, .. }, Abstract { mvs: b, .. }) => a == b,
            (Concrete(bs), Abstract { mvs, .. }) | (Abstract { mvs, .. }, Concrete(bs)) => {
                bs.len() == mvs.len()
                    && bs
                        .iter()
                        .zip(mvs)
                        .all(|(b, mv)| matches!(mv, MemVal::Byte(x) if x == b))
            }
        }
    }
}

impl Eq for BlockContents {}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BlockData {
    pub(crate) lo: i64,
    pub(crate) hi: i64,
    pub(crate) contents: BlockContents,
    pub(crate) perms: Vec<Perm>,
}

impl BlockData {
    fn index(&self, ofs: i64) -> Option<usize> {
        if ofs >= self.lo && ofs < self.hi {
            Some((ofs - self.lo) as usize)
        } else {
            None
        }
    }
}

/// A memory state: a finite collection of blocks, each with its own linear
/// address space, byte contents and per-byte permissions (paper §3.1).
///
/// `Mem` is a value type: it implements `Clone` and `PartialEq`, which is what
/// lets simulation conventions relate *snapshots* of memory across calls (the
/// `injp` world of paper Fig. 9 stores two of them).
///
/// # Example
///
/// ```
/// use mem::{Chunk, Mem, Val};
/// # fn main() -> Result<(), mem::MemError> {
/// let mut m = Mem::new();
/// let b = m.alloc(0, 8);
/// m.store(Chunk::Ptr, b, 0, Val::Ptr(b, 4))?;
/// assert_eq!(m.load(Chunk::Ptr, b, 0)?, Val::Ptr(b, 4));
/// m.free(b, 0, 8)?;
/// assert!(m.load(Chunk::I32, b, 0).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Mem {
    // Copy-on-write: cloning a memory state is O(#blocks) pointer copies;
    // mutation clones only the touched block (`Arc::make_mut`). Every batch,
    // the composites' (⊕, ∘, `Closed`) included, mutates memory in place,
    // and resume and the threaded hand-off move it; whole states are cloned
    // at query transport, ring-traced steps and the one-transition
    // `Lts::step` that tests and the Fig. 5 rule printer call.
    blocks: Vec<Option<Arc<BlockData>>>,
    // Total bytes of currently-valid blocks, maintained by `alloc`/`free`.
    // Invariant: `live_bytes == Σ (hi - lo)` over valid blocks, so the
    // derived `Eq` stays consistent. Kept O(1) because the budgeted runner
    // (`compcerto_core::lts::run_budgeted`) polls it every step when a
    // memory quota is set.
    live_bytes: u64,
}

impl Mem {
    /// The empty memory state.
    pub fn new() -> Mem {
        Mem::default()
    }

    /// The identifier the *next* allocation will receive. All identifiers
    /// below this value have been allocated at some point ("support").
    pub fn next_block(&self) -> BlockId {
        self.blocks.len() as BlockId
    }

    /// Is `b` a currently-valid (allocated and not freed) block?
    pub fn valid_block(&self, b: BlockId) -> bool {
        self.block(b).is_some()
    }

    /// Iterator over the identifiers of all currently-valid blocks.
    pub fn blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.blocks
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.as_ref().map(|_| i as BlockId))
    }

    /// Bounds `[lo, hi)` of block `b`.
    ///
    /// # Errors
    /// Fails with [`MemError::InvalidBlock`] if `b` is not valid.
    pub fn bounds(&self, b: BlockId) -> Result<(i64, i64), MemError> {
        let bd = self.block(b).ok_or(MemError::InvalidBlock(b))?;
        Ok((bd.lo, bd.hi))
    }

    /// Allocate a fresh block with bounds `[lo, hi)`, fully `Freeable`.
    ///
    /// Allocation never fails (memory is unbounded in the model); an empty or
    /// negative range yields a zero-sized block that admits no accesses.
    /// The only exception is a deliberately armed [`crate::envfault`]
    /// allocation fault, which simulates allocator exhaustion by panicking —
    /// the resilience layer above contains that panic per work item.
    pub fn alloc(&mut self, lo: i64, hi: i64) -> BlockId {
        crate::envfault::on_alloc();
        let size = (hi - lo).max(0) as usize;
        let id = self.blocks.len() as BlockId;
        // Fresh memory is all-Undef, which has no concrete byte form; a
        // zero-sized block is vacuously concrete.
        let contents = if size == 0 {
            BlockContents::Concrete(Vec::new())
        } else {
            BlockContents::Abstract {
                mvs: vec![MemVal::Undef; size],
                non_concrete: size,
            }
        };
        self.blocks.push(Some(Arc::new(BlockData {
            lo,
            hi: lo + size as i64,
            contents,
            perms: vec![Perm::Freeable; size],
        })));
        self.live_bytes += size as u64;
        crate::obs::bump(|c| {
            c.allocs += 1;
            c.alloc_bytes += size as u64;
        });
        id
    }

    /// Total bytes of all currently-valid blocks, in O(1).
    ///
    /// This is the figure the budgeted runner compares against
    /// `RunBudget::max_mem_bytes`; a fully freed block stops counting, a
    /// partially freed one still counts in full (its footprint remains).
    pub fn allocated_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Free the range `[lo, hi)` of block `b`; if the range covers the whole
    /// block, the block becomes invalid.
    ///
    /// # Errors
    /// Requires `Freeable` permission on the whole range.
    pub fn free(&mut self, b: BlockId, lo: i64, hi: i64) -> Result<(), MemError> {
        self.range_perm(b, lo, hi, Perm::Freeable)?;
        crate::obs::bump(|c| c.frees += 1);
        let (blo, bhi) = self.bounds(b)?;
        if lo <= blo && hi >= bhi {
            self.blocks[b as usize] = None;
            self.live_bytes = self.live_bytes.saturating_sub((bhi - blo).max(0) as u64);
        } else {
            let bd = self.block_mut(b).ok_or(MemError::InvalidBlock(b))?;
            for ofs in lo..hi {
                if let Some(i) = bd.index(ofs) {
                    bd.perms[i] = Perm::None;
                    bd.contents.set(i, MemVal::Undef);
                }
            }
        }
        Ok(())
    }

    /// Lower the permission of the range `[lo, hi)` of `b` to exactly `p`.
    ///
    /// This is the primitive behind the calling convention's protection of the
    /// argument region (paper App. C.2, `free_args`).
    ///
    /// # Errors
    /// The range must currently have at least permission `p` everywhere and be
    /// within bounds.
    pub fn drop_perm(&mut self, b: BlockId, lo: i64, hi: i64, p: Perm) -> Result<(), MemError> {
        self.range_perm(b, lo, hi, p)?;
        let bd = self.block_mut(b).ok_or(MemError::InvalidBlock(b))?;
        for ofs in lo..hi {
            if let Some(i) = bd.index(ofs) {
                bd.perms[i] = p;
            }
        }
        Ok(())
    }

    /// Raise the permission of the range `[lo, hi)` of `b` to at least `p`
    /// (used to restore the argument region after an outgoing call returns,
    /// paper App. C.2 `mix`).
    ///
    /// # Errors
    /// The range must be within the block's bounds.
    pub fn raise_perm(&mut self, b: BlockId, lo: i64, hi: i64, p: Perm) -> Result<(), MemError> {
        let bd = self.block_mut(b).ok_or(MemError::InvalidBlock(b))?;
        if lo < bd.lo || hi > bd.hi {
            return Err(MemError::OutOfBounds { block: b, lo, hi });
        }
        for ofs in lo..hi {
            if let Some(i) = bd.index(ofs) {
                if bd.perms[i] < p {
                    bd.perms[i] = p;
                }
            }
        }
        Ok(())
    }

    /// Permission of byte `(b, ofs)`; `Perm::None` outside any valid block.
    pub fn perm(&self, b: BlockId, ofs: i64) -> Perm {
        match self.block(b) {
            Some(bd) => bd.index(ofs).map(|i| bd.perms[i]).unwrap_or(Perm::None),
            None => Perm::None,
        }
    }

    /// Check that every byte in `[lo, hi)` of `b` has permission `p`.
    ///
    /// # Errors
    /// Reports the first failing offset.
    pub fn range_perm(&self, b: BlockId, lo: i64, hi: i64, p: Perm) -> Result<(), MemError> {
        let bd = self.block(b).ok_or(MemError::InvalidBlock(b))?;
        if lo < bd.lo || hi > bd.hi {
            return Err(MemError::OutOfBounds { block: b, lo, hi });
        }
        for ofs in lo..hi {
            let i = (ofs - bd.lo) as usize;
            if !bd.perms[i].allows(p) {
                return Err(MemError::Permission {
                    block: b,
                    offset: ofs,
                    required: p,
                });
            }
        }
        Ok(())
    }

    /// Load a value of shape `chunk` from `(b, ofs)`.
    ///
    /// # Errors
    /// Requires `Readable` permission over the accessed range and correct
    /// alignment.
    pub fn load(&self, chunk: Chunk, b: BlockId, ofs: i64) -> Result<Val, MemError> {
        self.check_align(chunk, ofs)?;
        self.range_perm(b, ofs, access_end(b, chunk, ofs)?, Perm::Readable)?;
        crate::obs::bump(|c| c.loads += 1);
        let bd = self.block(b).ok_or(MemError::InvalidBlock(b))?;
        let i = (ofs - bd.lo) as usize;
        let n = chunk.size() as usize;
        Ok(match &bd.contents {
            // Fast path: raw bytes straight to the value, no MemVal traffic.
            BlockContents::Concrete(bs) => decode_scalar_bytes(chunk, &bs[i..i + n]),
            BlockContents::Abstract { mvs, .. } => decode(chunk, &mvs[i..i + n]),
        })
    }

    /// Store `v` with shape `chunk` at `(b, ofs)`.
    ///
    /// # Errors
    /// Requires `Writable` permission over the accessed range and correct
    /// alignment.
    pub fn store(&mut self, chunk: Chunk, b: BlockId, ofs: i64, v: Val) -> Result<(), MemError> {
        self.check_align(chunk, ofs)?;
        self.range_perm(b, ofs, access_end(b, chunk, ofs)?, Perm::Writable)?;
        crate::obs::bump(|c| c.stores += 1);
        let fast = encode_scalar_bytes(chunk, v);
        let bd = self.block_mut(b).ok_or(MemError::InvalidBlock(b))?;
        let i = (ofs - bd.lo) as usize;
        match (&mut bd.contents, fast) {
            // Fast path: value to raw bytes in place, no MemVal traffic.
            (BlockContents::Concrete(bs), Some((raw, n))) => {
                bs[i..i + n].copy_from_slice(&raw[..n]);
            }
            (contents, _) => {
                let enc = encode(chunk, v);
                for (k, mv) in enc.into_iter().enumerate() {
                    contents.set(i + k, mv);
                }
                // Overwriting the block's last Undef/Fragment with bytes
                // re-enables the fast path for subsequent accesses.
                contents.maybe_promote();
            }
        }
        Ok(())
    }

    /// Load through a pointer *value*.
    ///
    /// # Errors
    /// Fails with [`MemError::NotAPointer`] if `addr` is not a [`Val::Ptr`].
    pub fn loadv(&self, chunk: Chunk, addr: Val) -> Result<Val, MemError> {
        match addr {
            Val::Ptr(b, ofs) => self.load(chunk, b, ofs),
            _ => Err(MemError::NotAPointer),
        }
    }

    /// Store through a pointer *value*.
    ///
    /// # Errors
    /// Fails with [`MemError::NotAPointer`] if `addr` is not a [`Val::Ptr`].
    pub fn storev(&mut self, chunk: Chunk, addr: Val, v: Val) -> Result<(), MemError> {
        match addr {
            Val::Ptr(b, ofs) => self.store(chunk, b, ofs, v),
            _ => Err(MemError::NotAPointer),
        }
    }

    /// Copy the raw contents *and permissions* of the byte range `[lo, hi)`
    /// of block `b` from `src` into `self` (used by the calling convention's
    /// `mix` operation to restore the argument region, paper App. C.2).
    ///
    /// # Errors
    /// The range must be within `b`'s bounds in both memories.
    pub fn copy_range_from(
        &mut self,
        src: &Mem,
        b: BlockId,
        lo: i64,
        hi: i64,
    ) -> Result<(), MemError> {
        let sbd = src.block(b).ok_or(MemError::InvalidBlock(b))?;
        if lo < sbd.lo || hi > sbd.hi {
            return Err(MemError::OutOfBounds { block: b, lo, hi });
        }
        let src_lo = sbd.lo;
        let copied: Vec<(MemVal, Perm)> = (lo..hi)
            .map(|ofs| {
                let i = (ofs - src_lo) as usize;
                (sbd.contents.get(i), sbd.perms[i])
            })
            .collect();
        let dbd = self.block_mut(b).ok_or(MemError::InvalidBlock(b))?;
        if lo < dbd.lo || hi > dbd.hi {
            return Err(MemError::OutOfBounds { block: b, lo, hi });
        }
        for (ofs, (mv, p)) in (lo..hi).zip(copied) {
            let i = (ofs - dbd.lo) as usize;
            dbd.contents.set(i, mv);
            dbd.perms[i] = p;
        }
        dbd.contents.maybe_promote();
        Ok(())
    }

    /// Raw content of byte `(b, ofs)`, if within a valid block's bounds.
    ///
    /// Returned by value: concrete-representation blocks materialize the
    /// [`MemVal::Byte`] on demand, so there is no stored memval to borrow.
    pub fn content(&self, b: BlockId, ofs: i64) -> Option<MemVal> {
        let bd = self.block(b)?;
        bd.index(ofs).map(|i| bd.contents.get(i))
    }

    /// Force block `b` into the general `Abstract` representation (test
    /// hook for the representation-equivalence property; not part of the
    /// memory model).
    #[doc(hidden)]
    pub fn force_block_abstract(&mut self, b: BlockId) {
        if let Some(bd) = self.block_mut(b) {
            bd.contents.force_abstract();
        }
    }

    /// Whether block `b` currently uses the concrete byte representation
    /// (test hook; `None` for invalid blocks).
    #[doc(hidden)]
    pub fn block_is_concrete(&self, b: BlockId) -> Option<bool> {
        self.block(b)
            .map(|bd| matches!(bd.contents, BlockContents::Concrete(_)))
    }

    fn check_align(&self, chunk: Chunk, ofs: i64) -> Result<(), MemError> {
        if ofs % chunk.align() != 0 {
            Err(MemError::Misaligned {
                offset: ofs,
                align: chunk.align(),
            })
        } else {
            Ok(())
        }
    }

    pub(crate) fn block(&self, b: BlockId) -> Option<&BlockData> {
        self.blocks
            .get(b as usize)
            .and_then(|x| x.as_ref())
            .map(Arc::as_ref)
    }

    fn block_mut(&mut self, b: BlockId) -> Option<&mut BlockData> {
        self.blocks
            .get_mut(b as usize)
            .and_then(|x| x.as_mut())
            .map(Arc::make_mut)
    }
}

/// End of the access `[ofs, ofs + chunk.size())`; an end past `i64::MAX` is
/// out of every block's bounds.
fn access_end(b: BlockId, chunk: Chunk, ofs: i64) -> Result<i64, MemError> {
    ofs.checked_add(chunk.size()).ok_or(MemError::OutOfBounds {
        block: b,
        lo: ofs,
        hi: i64::MAX,
    })
}

impl fmt::Display for Mem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mem<{} blocks>", self.blocks().count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_bytes_track_alloc_and_free() {
        let mut m = Mem::new();
        assert_eq!(m.allocated_bytes(), 0);
        let a = m.alloc(0, 16);
        let b = m.alloc(-8, 8);
        assert_eq!(m.allocated_bytes(), 32);
        // Partial free keeps the footprint.
        m.free(b, -8, 0).unwrap();
        assert_eq!(m.allocated_bytes(), 32);
        // Full free releases it.
        m.free(a, 0, 16).unwrap();
        assert_eq!(m.allocated_bytes(), 16);
        // Zero-sized allocations do not count.
        m.alloc(4, 4);
        m.alloc(8, 0);
        assert_eq!(m.allocated_bytes(), 16);
    }

    #[test]
    fn alloc_gives_fresh_ids() {
        let mut m = Mem::new();
        let a = m.alloc(0, 4);
        let b = m.alloc(0, 4);
        assert_ne!(a, b);
        assert!(m.valid_block(a));
        assert_eq!(m.next_block(), 2);
    }

    #[test]
    fn store_load_roundtrip() {
        let mut m = Mem::new();
        let b = m.alloc(0, 16);
        m.store(Chunk::I32, b, 0, Val::Int(7)).unwrap();
        m.store(Chunk::I64, b, 8, Val::Long(-9)).unwrap();
        assert_eq!(m.load(Chunk::I32, b, 0).unwrap(), Val::Int(7));
        assert_eq!(m.load(Chunk::I64, b, 8).unwrap(), Val::Long(-9));
    }

    #[test]
    fn fresh_memory_is_undef() {
        let mut m = Mem::new();
        let b = m.alloc(0, 8);
        assert_eq!(m.load(Chunk::I32, b, 0).unwrap(), Val::Undef);
    }

    #[test]
    fn free_invalidates() {
        let mut m = Mem::new();
        let b = m.alloc(0, 8);
        m.free(b, 0, 8).unwrap();
        assert!(!m.valid_block(b));
        assert!(matches!(
            m.load(Chunk::I32, b, 0),
            Err(MemError::InvalidBlock(_))
        ));
        // Identifier is not reused.
        let c = m.alloc(0, 8);
        assert_ne!(b, c);
    }

    #[test]
    fn partial_free_removes_permissions() {
        let mut m = Mem::new();
        let b = m.alloc(0, 16);
        m.free(b, 0, 8).unwrap();
        assert!(m.valid_block(b));
        assert!(m.load(Chunk::I32, b, 0).is_err());
        assert!(m.load(Chunk::I32, b, 8).is_ok());
    }

    #[test]
    fn misaligned_access_fails() {
        let mut m = Mem::new();
        let b = m.alloc(0, 16);
        assert!(matches!(
            m.load(Chunk::I32, b, 2),
            Err(MemError::Misaligned { .. })
        ));
        assert!(matches!(
            m.store(Chunk::I64, b, 4, Val::Long(0)),
            Err(MemError::Misaligned { .. })
        ));
    }

    #[test]
    fn out_of_bounds_fails() {
        let mut m = Mem::new();
        let b = m.alloc(0, 4);
        assert!(m.load(Chunk::I64, b, 0).is_err());
        assert!(m.load(Chunk::I32, b, 4).is_err());
    }

    #[test]
    fn drop_perm_blocks_writes() {
        let mut m = Mem::new();
        let b = m.alloc(0, 8);
        m.drop_perm(b, 0, 8, Perm::Readable).unwrap();
        assert!(m.store(Chunk::I32, b, 0, Val::Int(1)).is_err());
        assert!(m.load(Chunk::I32, b, 0).is_ok());
        m.raise_perm(b, 0, 8, Perm::Writable).unwrap();
        assert!(m.store(Chunk::I32, b, 0, Val::Int(1)).is_ok());
    }

    #[test]
    fn drop_perm_to_none_protects_region() {
        let mut m = Mem::new();
        let b = m.alloc(0, 8);
        m.drop_perm(b, 0, 4, Perm::None).unwrap();
        assert!(m.load(Chunk::I32, b, 0).is_err());
        assert!(m.store(Chunk::I32, b, 4, Val::Int(2)).is_ok());
    }

    #[test]
    fn storev_requires_pointer() {
        let mut m = Mem::new();
        assert_eq!(
            m.storev(Chunk::I32, Val::Int(0), Val::Int(1)),
            Err(MemError::NotAPointer)
        );
    }

    #[test]
    fn nonzero_lo_bounds() {
        let mut m = Mem::new();
        let b = m.alloc(-8, 8);
        m.store(Chunk::I32, b, -8, Val::Int(3)).unwrap();
        assert_eq!(m.load(Chunk::I32, b, -8).unwrap(), Val::Int(3));
        assert!(m.load(Chunk::I32, b, -12).is_err());
    }

    #[test]
    fn overlapping_store_scrambles() {
        let mut m = Mem::new();
        let b = m.alloc(0, 16);
        m.store(Chunk::Ptr, b, 0, Val::Ptr(b, 0)).unwrap();
        // Overwrite part of the pointer's fragments with an int.
        m.store(Chunk::I32, b, 4, Val::Int(0)).unwrap();
        assert_eq!(m.load(Chunk::Ptr, b, 0).unwrap(), Val::Undef);
    }

    #[test]
    fn access_ending_past_i64_max_is_out_of_bounds() {
        let mut m = Mem::new();
        let b = m.alloc(0, 16);
        let ofs = i64::MAX - 7; // 8-aligned: the end overflows
        let oob = |r: Result<(), MemError>| matches!(r, Err(MemError::OutOfBounds { .. }));
        assert!(oob(m.load(Chunk::I64, b, ofs).map(drop)));
        assert!(oob(m.store(Chunk::I64, b, ofs, Val::Long(1))));
        assert!(oob(m.loadv(Chunk::I64, Val::Ptr(b, ofs)).map(drop)));
        assert!(oob(m.storev(Chunk::I64, Val::Ptr(b, ofs), Val::Long(1))));
        assert_eq!(m.load(Chunk::I64, b, 8), Ok(Val::Undef));
    }
}
