//! The engine's one block store: present blocks in a sorted list.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use serde::{Content, DeError, Deserialize, Serialize};

use crate::block::Block;

/// A block's `(row, column)` coordinate in its matrix's block grid.
pub type Coord = (usize, usize);

/// The present blocks of one matrix, sorted row-major by grid coordinate;
/// an absent block is all-zero.
///
/// [`BlockedMatrix`](crate::BlockedMatrix) keeps its blocks in one, and a
/// task's local store in `fuseme-exec` keeps one per plan node. Memory and
/// every walk scale with the blocks present rather than with the grid, as
/// MLlib's `BlockMatrix` keeps only its non-empty blocks.
///
/// Lookups binary-search the coordinates. An insert past the last block
/// appends; any other insert shifts the tail, so a caller producing blocks
/// out of row-major order collects them and builds the list once through
/// [`FromIterator`], which sorts once and keeps the last block given for a
/// coordinate.
#[derive(Debug, Default, Clone)]
pub struct BlockList {
    coords: Vec<Coord>,
    blocks: Vec<Arc<Block>>,
    /// Running total of the blocks' `size_bytes`.
    bytes: u64,
    /// Positions into `coords` in column-major order, built by the first
    /// column walk after a change.
    by_col: OnceLock<Vec<u32>>,
}

impl BlockList {
    /// Installs `block` at `coord`, replacing any block already there.
    pub fn insert(&mut self, coord: Coord, block: Arc<Block>) {
        self.bytes += block.size_bytes();
        self.by_col = OnceLock::new();
        if self.coords.last().is_none_or(|&last| last < coord) {
            self.coords.push(coord);
            self.blocks.push(block);
            return;
        }
        match self.coords.binary_search(&coord) {
            Ok(at) => {
                self.bytes -= self.blocks[at].size_bytes();
                self.blocks[at] = block;
            }
            Err(at) => {
                self.coords.insert(at, coord);
                self.blocks.insert(at, block);
            }
        }
    }

    /// The block at `coord`, if present.
    #[inline]
    pub fn get(&self, coord: Coord) -> Option<&Arc<Block>> {
        let at = self.coords.binary_search(&coord).ok()?;
        Some(&self.blocks[at])
    }

    /// The shape and values of the dense block at `coord`, writable in
    /// place, when this list holds the block's only reference. A slice
    /// cannot change the block's shape or format, so [`BlockList::size_bytes`]
    /// stays exact.
    pub fn get_mut(&mut self, coord: Coord) -> Option<((usize, usize), &mut [f64])> {
        let at = self.coords.binary_search(&coord).ok()?;
        match Arc::get_mut(&mut self.blocks[at])? {
            Block::Dense(d) => Some(((d.rows(), d.cols()), d.data_mut())),
            Block::Sparse(_) => None,
        }
    }

    /// Number of present blocks.
    #[inline]
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// `true` when no block is present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Total `size_bytes` of the present blocks.
    #[inline]
    pub fn size_bytes(&self) -> u64 {
        self.bytes
    }

    /// The present coordinates, row-major.
    #[inline]
    pub fn coords(&self) -> &[Coord] {
        &self.coords
    }

    /// The present blocks, row-major.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (Coord, &Arc<Block>)> + '_ {
        self.coords.iter().copied().zip(&self.blocks)
    }

    /// The present blocks with `from <= coord < to` in row-major order.
    #[inline]
    pub fn range(&self, from: Coord, to: Coord) -> impl Iterator<Item = (Coord, &Arc<Block>)> + '_ {
        let at = self.span(from, to);
        self.coords[at.clone()]
            .iter()
            .copied()
            .zip(&self.blocks[at])
    }

    /// The columns `k ∈ ks` present in row `i`, ascending.
    #[inline]
    pub fn row(&self, i: usize, ks: &Range<usize>) -> impl Iterator<Item = usize> + '_ {
        self.range((i, ks.start), (i, ks.end)).map(|(c, _)| c.1)
    }

    /// The rows `k ∈ ks` present in column `j`, ascending.
    #[inline]
    pub fn col(&self, j: usize, ks: &Range<usize>) -> impl Iterator<Item = usize> + '_ {
        self.col_blocks(j, ks).map(|(k, _)| k)
    }

    /// The blocks present in column `j` at rows `k ∈ ks`, with their rows,
    /// ascending.
    #[inline]
    pub fn col_blocks(
        &self,
        j: usize,
        ks: &Range<usize>,
    ) -> impl Iterator<Item = (usize, &Arc<Block>)> + '_ {
        let at = self.col_span(j, ks);
        self.col_order()[at]
            .iter()
            .map(|&p| (self.coords[p as usize].0, &self.blocks[p as usize]))
    }

    /// Number of columns [`BlockList::row`] yields, from two binary
    /// searches.
    #[inline]
    pub fn row_len(&self, i: usize, ks: &Range<usize>) -> usize {
        self.span((i, ks.start), (i, ks.end)).len()
    }

    /// Number of rows [`BlockList::col`] yields, from two binary searches.
    #[inline]
    pub fn col_len(&self, j: usize, ks: &Range<usize>) -> usize {
        self.col_span(j, ks).len()
    }

    /// Positions of the coordinates with `from <= coord < to`.
    #[inline]
    fn span(&self, from: Coord, to: Coord) -> Range<usize> {
        let lo = self.coords.partition_point(|&c| c < from);
        let hi = self.coords.partition_point(|&c| c < to).max(lo);
        lo..hi
    }

    /// Positions into the column order of column `j`'s rows `k ∈ ks`.
    #[inline]
    fn col_span(&self, j: usize, ks: &Range<usize>) -> Range<usize> {
        let key = |p: &u32| {
            let (r, c) = self.coords[*p as usize];
            (c, r)
        };
        let order = self.col_order();
        let lo = order.partition_point(|p| key(p) < (j, ks.start));
        let hi = order.partition_point(|p| key(p) < (j, ks.end)).max(lo);
        lo..hi
    }

    /// Positions into `coords` in column-major order.
    #[inline]
    fn col_order(&self) -> &[u32] {
        self.by_col.get_or_init(|| {
            let mut order: Vec<u32> = (0..self.coords.len() as u32).collect();
            order.sort_unstable_by_key(|&p| {
                let (r, c) = self.coords[p as usize];
                (c, r)
            });
            order
        })
    }
}

impl FromIterator<(Coord, Arc<Block>)> for BlockList {
    fn from_iter<I: IntoIterator<Item = (Coord, Arc<Block>)>>(entries: I) -> Self {
        let mut entries: Vec<_> = entries.into_iter().collect();
        // Stable, so a repeated coordinate's blocks stay in the order given
        // and the last one wins below; sorted input costs one pass.
        entries.sort_by_key(|e| e.0);
        let mut list = BlockList::default();
        list.coords.reserve_exact(entries.len());
        list.blocks.reserve_exact(entries.len());
        for (coord, block) in entries {
            list.insert(coord, block);
        }
        list
    }
}

/// Serialized as the row-major array of `[[row, col], block]` entries.
impl Serialize for BlockList {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(|e| e.to_content()).collect())
    }
}

impl Deserialize for BlockList {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        Ok(Vec::<(Coord, Arc<Block>)>::from_content(c)?
            .into_iter()
            .collect())
    }
}
