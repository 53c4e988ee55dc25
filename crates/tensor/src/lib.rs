//! # lip-tensor
//!
//! A dense, row-major, `f32` n-dimensional tensor library that underpins the
//! LiPFormer reproduction. It provides exactly the operations a time-series
//! deep-learning stack needs — NumPy-style broadcasting, batched matrix
//! multiplication, axis reductions, softmax, shape manipulation, random
//! initialization and binary/JSON serialization — with no external
//! linear-algebra dependency.
//!
//! ## Design
//!
//! * Storage is a row-major `Arc<Vec<f32>>`; a [`Tensor`] is a strided view
//!   `{shape, strides, offset}` over it. Cloning is O(1) and mutation is
//!   copy-on-write ([`Tensor::data_mut`] uses `Arc::make_mut`), so views can
//!   alias freely without writes leaking between them.
//! * Layout operations — `permute` / `transpose`, `slice_axis`,
//!   `broadcast_to`, `sliding_window`, and any stride-compatible `reshape` —
//!   are O(1) metadata edits sharing storage. Kernels that need dense
//!   row-major input (matmul packing, reductions, serialization) invoke the
//!   [`Tensor::contiguous`] escape hatch, which gathers a view in logical
//!   order; elementwise kernels walk the actual strides directly.
//! * All kernels partition the *logical* index space through `lip-par`, so
//!   results are bit-identical at any thread count and independent of how
//!   operands happen to be laid out in storage. The [`stats`] module counts
//!   bytes copied vs. bytes avoided per layout op for the `perf_suite`
//!   kernel gate.
//! * Shape errors panic with a descriptive message, mirroring `ndarray` and
//!   PyTorch semantics. Fallible checking is available through
//!   [`shape::broadcast_shapes`].
//!
//! ## Example
//!
//! ```
//! use lip_tensor::Tensor;
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::from_vec(vec![10.0, 20.0], &[2]);
//! let c = a.add(&b); // broadcast over the last axis
//! assert_eq!(c.data(), &[11.0, 22.0, 13.0, 24.0]);
//! let d = a.matmul(&a);
//! assert_eq!(d.shape(), &[2, 2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod elementwise;
mod error;
mod init;
pub mod kernel;
mod matmul;
mod reduce;
mod serialize;
pub mod shape;
pub mod stats;
mod tensor;

pub use elementwise::gelu_grad_scalar;
pub use error::TensorError;
pub use serialize::TensorRepr;
pub use tensor::Tensor;

/// Convenience alias used across the workspace for fallible tensor I/O.
pub type Result<T> = std::result::Result<T, TensorError>;
