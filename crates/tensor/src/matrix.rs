//! Quantized (u8) matrices stored in one of the paper's layouts.

use crate::layout::Layout;
use std::fmt;

/// A dense matrix of unsigned 8-bit quantized values in a given
/// [`Layout`]. Padding bytes introduced by the layout are zero, which is
/// the additive identity for the multiply-accumulate kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixU8 {
    rows: usize,
    cols: usize,
    layout: Layout,
    data: Vec<u8>,
}

impl MatrixU8 {
    /// Creates a zeroed matrix.
    pub fn zeros(rows: usize, cols: usize, layout: Layout) -> Self {
        MatrixU8 {
            rows,
            cols,
            layout,
            data: vec![0; layout.padded_len(rows, cols)],
        }
    }

    /// Wraps raw bytes already in `layout` order (e.g. read back from
    /// simulator memory).
    ///
    /// # Panics
    /// Panics if `data.len() != layout.padded_len(rows, cols)`.
    pub fn from_raw(rows: usize, cols: usize, layout: Layout, data: Vec<u8>) -> Self {
        assert_eq!(
            data.len(),
            layout.padded_len(rows, cols),
            "raw length mismatch"
        );
        MatrixU8 {
            rows,
            cols,
            layout,
            data,
        }
    }

    /// Creates a matrix from row-major data, storing it in `layout`.
    ///
    /// # Panics
    /// Panics if `values.len() != rows * cols`.
    pub fn from_row_major(rows: usize, cols: usize, layout: Layout, values: &[u8]) -> Self {
        assert_eq!(values.len(), rows * cols, "value count mismatch");
        let mut m = Self::zeros(rows, cols, layout);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, values[r * cols + c]);
            }
        }
        m
    }

    /// Builds a matrix by evaluating `f(r, c)` at every position.
    pub fn from_fn(
        rows: usize,
        cols: usize,
        layout: Layout,
        mut f: impl FnMut(usize, usize) -> u8,
    ) -> Self {
        let mut m = Self::zeros(rows, cols, layout);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, f(r, c));
            }
        }
        m
    }

    /// Logical row count (unpadded).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical column count (unpadded).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Storage layout.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// The raw (padded) backing storage in layout order.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Total padded storage size in bytes (the Table II space metric).
    pub fn padded_len(&self) -> usize {
        self.data.len()
    }

    /// Reads element `(r, c)`.
    ///
    /// # Panics
    /// Panics if out of bounds.
    pub fn get(&self, r: usize, c: usize) -> u8 {
        self.data[self.layout.offset(self.rows, self.cols, r, c)]
    }

    /// Writes element `(r, c)`.
    ///
    /// # Panics
    /// Panics if out of bounds.
    pub fn set(&mut self, r: usize, c: usize, x: u8) {
        let o = self.layout.offset(self.rows, self.cols, r, c);
        self.data[o] = x;
    }

    /// Re-stores the matrix in another layout (the runtime side of the
    /// paper's data-transformation edges; the cycle cost of doing this on
    /// the DSP comes from [`crate::transform::transform_cycles`]).
    pub fn to_layout(&self, layout: Layout) -> MatrixU8 {
        if layout == self.layout {
            return self.clone();
        }
        MatrixU8::from_fn(self.rows, self.cols, layout, |r, c| self.get(r, c))
    }

    /// The matrix as a row-major `Vec` (for comparisons in tests).
    pub fn to_row_major_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.rows * self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.push(self.get(r, c));
            }
        }
        out
    }
}

impl fmt::Display for MatrixU8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MatrixU8[{}x{}, {}]", self.rows, self.cols, self.layout)
    }
}

/// A dense matrix of signed 8-bit weights, stored row-major. Weights are
/// consumed from scalar registers (4 bytes at a time) rather than vector
/// loads, so they do not need the special layouts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixI8 {
    rows: usize,
    cols: usize,
    data: Vec<i8>,
}

impl MatrixI8 {
    /// Creates a zeroed weight matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        MatrixI8 {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// Creates a weight matrix from row-major data.
    ///
    /// # Panics
    /// Panics if `values.len() != rows * cols`.
    pub fn from_row_major(rows: usize, cols: usize, values: &[i8]) -> Self {
        Self::from_vec(rows, cols, values.to_vec())
    }

    /// Creates a weight matrix that takes ownership of row-major data —
    /// no copy, for callers that decoded the values into a `Vec` anyway.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<i8>) -> Self {
        assert_eq!(data.len(), rows * cols, "value count mismatch");
        MatrixI8 { rows, cols, data }
    }

    /// Builds a weight matrix by evaluating `f(r, c)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> i8) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, f(r, c));
            }
        }
        m
    }

    /// Logical row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reads element `(r, c)`.
    pub fn get(&self, r: usize, c: usize) -> i8 {
        self.data[r * self.cols + c]
    }

    /// The raw row-major storage (`rows * cols` values, no padding).
    pub fn as_slice(&self) -> &[i8] {
        &self.data
    }

    /// Writes element `(r, c)`.
    pub fn set(&mut self, r: usize, c: usize, x: i8) {
        self.data[r * self.cols + c] = x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_layouts() {
        let values: Vec<u8> = (0..70u32 * 6).map(|i| (i % 251) as u8).collect();
        for l in Layout::ALL {
            let m = MatrixU8::from_row_major(70, 6, l, &values);
            assert_eq!(m.to_row_major_vec(), values, "{l}");
        }
    }

    #[test]
    fn layout_conversion_preserves_values() {
        let values: Vec<u8> = (0..130u32 * 5).map(|i| (i * 7 % 253) as u8).collect();
        let m = MatrixU8::from_row_major(130, 5, Layout::Col1, &values);
        for l in Layout::ALL {
            assert_eq!(m.to_layout(l).to_row_major_vec(), values, "{l}");
        }
    }

    #[test]
    fn padding_is_zero() {
        let m = MatrixU8::from_row_major(10, 3, Layout::Col4, &[9; 30]);
        // Padded to 32 rows x 4 cols = 128 bytes; 30 live values.
        assert_eq!(m.padded_len(), 128);
        let live: u32 = m.as_bytes().iter().map(|&b| b as u32).sum();
        assert_eq!(live, 9 * 30);
    }

    #[test]
    fn weights_row_major() {
        let w = MatrixI8::from_fn(3, 4, |r, c| (r * 4 + c) as i8 - 6);
        assert_eq!(w.get(0, 0), -6);
        assert_eq!(w.get(2, 3), 5);
    }
}
