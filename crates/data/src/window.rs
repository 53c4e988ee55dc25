//! Sliding-window sampling and mini-batch assembly.
//!
//! A [`WindowDataset`] views one split of a (already standardized) series and
//! yields `(history, target, future-weak-labels)` windows; [`Batch`] stacks a
//! set of windows into the `[b, T, c]` tensors the models consume.

use lip_tensor::Tensor;
use lip_rng::seq::SliceRandom;
use lip_rng::Rng;

use crate::dataset::CovariateSet;

/// One mini-batch of forecasting windows.
#[derive(Debug, Clone)]
pub struct Batch {
    /// History `[b, seq_len, c]`.
    pub x: Tensor,
    /// Ground-truth future `[b, pred_len, c]`.
    pub y: Tensor,
    /// Implicit temporal features of the *future* steps `[b, pred_len, 4]`.
    pub time_feats: Tensor,
    /// Explicit numerical future covariates `[b, pred_len, c_n]`, if any.
    pub cov_numerical: Option<Tensor>,
    /// Explicit categorical future covariates: one flat `[b * pred_len]`
    /// code vector per categorical channel, if any.
    pub cov_categorical: Option<Vec<Vec<usize>>>,
}

impl Batch {
    /// Batch size.
    pub fn len(&self) -> usize {
        self.x.shape()[0]
    }

    /// True when the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The shape contract a [`Batch`] must satisfy for a given window/covariate
/// configuration. The static analyzer (and any pre-flight validation) checks
/// a batch against this before handing it to a model, so malformed data is
/// rejected with a description instead of a kernel panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchContract {
    pub seq_len: usize,
    pub pred_len: usize,
    pub channels: usize,
    /// Width of the implicit temporal features.
    pub time_features: usize,
    /// Expected explicit numerical covariate width (0 = none required).
    pub numerical: usize,
    /// Expected cardinality of each categorical covariate channel.
    pub cardinalities: Vec<usize>,
}

impl BatchContract {
    /// Validate `batch` against this contract; `Err` describes the first
    /// violation found.
    pub fn check(&self, batch: &Batch) -> Result<(), String> {
        if batch.x.rank() != 3 {
            return Err(format!("x must be rank 3, got {:?}", batch.x.shape()));
        }
        let b = batch.x.shape()[0];
        Self::check_shape("x", batch.x.shape(), &[b, self.seq_len, self.channels])?;
        Self::check_shape("y", batch.y.shape(), &[b, self.pred_len, self.channels])?;
        Self::check_shape(
            "time_feats",
            batch.time_feats.shape(),
            &[b, self.pred_len, self.time_features],
        )?;
        self.check_numerical(b, batch.cov_numerical.as_ref().map(Tensor::shape))?;
        self.check_categorical(b, batch.cov_categorical.as_deref().unwrap_or(&[]))
    }

    /// The rule every dense part of a batch or window is held to: its
    /// `got` shape must be the contract's `want`.
    pub fn check_shape(name: &str, got: &[usize], want: &[usize]) -> Result<(), String> {
        if got == want {
            Ok(())
        } else {
            Err(format!("{name} has shape {got:?}, contract wants {want:?}"))
        }
    }

    /// Numerical covariates of shape `got` (`None` when absent) for `b`
    /// windows: required exactly when the contract has a numerical width.
    pub fn check_numerical(&self, b: usize, got: Option<&[usize]>) -> Result<(), String> {
        match (got, self.numerical) {
            (None, 0) => Ok(()),
            (None, w) => Err(format!("missing numerical covariates of width {w}")),
            (Some(shape), w) => Self::check_shape("cov_numerical", shape, &[b, self.pred_len, w]),
        }
    }

    /// Categorical covariate codes for `b` windows, one flat code vector
    /// per channel: the channel count, each channel's length and every
    /// code's range.
    pub fn check_categorical(&self, b: usize, cats: &[Vec<usize>]) -> Result<(), String> {
        if cats.len() != self.cardinalities.len() {
            return Err(format!(
                "{} categorical covariate channels, contract wants {}",
                cats.len(),
                self.cardinalities.len()
            ));
        }
        for (ch, (codes, &card)) in cats.iter().zip(&self.cardinalities).enumerate() {
            if codes.len() != b * self.pred_len {
                return Err(format!(
                    "categorical channel {ch} has {} codes, expected {}",
                    codes.len(),
                    b * self.pred_len
                ));
            }
            if let Some(&bad) = codes.iter().find(|&&c| c >= card) {
                return Err(format!(
                    "categorical channel {ch} contains code {bad} >= cardinality {card}"
                ));
            }
        }
        Ok(())
    }
}

/// A window sampler over one split `[start, end)` of a series.
pub struct WindowDataset {
    values: Tensor,     // [T, c] (standardized)
    time_feats: Tensor, // [T, 4]
    covariates: Option<CovariateSet>,
    seq_len: usize,
    pred_len: usize,
    start: usize,
    end: usize,
}

impl WindowDataset {
    /// Build a sampler. `borders` come from [`crate::split::split_borders`].
    pub fn new(
        values: Tensor,
        time_feats: Tensor,
        covariates: Option<CovariateSet>,
        seq_len: usize,
        pred_len: usize,
        borders: (usize, usize),
    ) -> Self {
        assert_eq!(values.rank(), 2, "values must be [T, c]");
        assert_eq!(time_feats.shape()[0], values.shape()[0], "time features misaligned");
        if let Some(cov) = &covariates {
            assert_eq!(cov.len(), values.shape()[0], "covariates misaligned");
        }
        assert!(seq_len > 0 && pred_len > 0, "window lengths must be positive");
        let (start, end) = borders;
        assert!(end <= values.shape()[0], "borders exceed the series");
        WindowDataset {
            values,
            time_feats,
            covariates,
            seq_len,
            pred_len,
            start,
            end,
        }
    }

    /// Number of complete windows available in this split.
    pub fn len(&self) -> usize {
        let span = self.end - self.start;
        span.saturating_sub(self.seq_len + self.pred_len - 1)
    }

    /// True when the split cannot fit a single window.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of channels.
    pub fn num_channels(&self) -> usize {
        self.values.shape()[1]
    }

    /// History length.
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }

    /// Forecast horizon.
    pub fn pred_len(&self) -> usize {
        self.pred_len
    }

    /// Assemble the windows at `indices` into one batch.
    pub fn batch(&self, indices: &[usize]) -> Batch {
        let b = indices.len();
        let (sl, pl, c) = (self.seq_len, self.pred_len, self.num_channels());
        let mut x = Vec::with_capacity(b * sl * c);
        let mut y = Vec::with_capacity(b * pl * c);
        let mut tf = Vec::with_capacity(b * pl * 4);
        let cn = self.covariates.as_ref().map(|cv| cv.num_numerical());
        let mut cov_num = cn.map(|w| Vec::with_capacity(b * pl * w));
        let mut cov_cat: Option<Vec<Vec<usize>>> = self
            .covariates
            .as_ref()
            .map(|cv| vec![Vec::with_capacity(b * pl); cv.num_categorical()]);

        for &i in indices {
            assert!(i < self.len(), "window index {i} out of {}", self.len());
            let s = self.start + i;
            let mid = s + sl;
            let e = mid + pl;
            x.extend_from_slice(&self.values.data()[s * c..mid * c]);
            y.extend_from_slice(&self.values.data()[mid * c..e * c]);
            tf.extend_from_slice(&self.time_feats.data()[mid * 4..e * 4]);
            if let Some(cov) = &self.covariates {
                let w = cov.num_numerical();
                if let Some(dst) = cov_num.as_mut() {
                    dst.extend_from_slice(&cov.numerical.data()[mid * w..e * w]);
                }
                if let Some(chans) = cov_cat.as_mut() {
                    for (dst, src) in chans.iter_mut().zip(&cov.categorical) {
                        dst.extend_from_slice(&src[mid..e]);
                    }
                }
            }
        }

        Batch {
            x: Tensor::from_vec(x, &[b, sl, c]),
            y: Tensor::from_vec(y, &[b, pl, c]),
            time_feats: Tensor::from_vec(tf, &[b, pl, 4]),
            cov_numerical: cov_num
                .map(|v| Tensor::from_vec(v, &[b, pl, cn.expect("covariate width known")])),
            cov_categorical: cov_cat,
        }
    }

    /// A few-shot view of this split: only the first `n` complete windows
    /// remain samplable (everything if `n >= len()`). Used by the transfer
    /// zoo to fine-tune on a small fraction of a dataset's training windows.
    pub fn truncated(&self, n: usize) -> WindowDataset {
        let keep = n.min(self.len());
        let end = if keep == 0 {
            self.start
        } else {
            self.start + self.seq_len + self.pred_len - 1 + keep
        };
        WindowDataset {
            values: self.values.clone(),
            time_feats: self.time_feats.clone(),
            covariates: self.covariates.clone(),
            seq_len: self.seq_len,
            pred_len: self.pred_len,
            start: self.start,
            end,
        }
    }

    /// Window indices for one epoch, optionally shuffled.
    pub fn epoch_order(&self, shuffle: bool, rng: &mut impl Rng) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.len()).collect();
        if shuffle {
            order.shuffle(rng);
        }
        order
    }

    /// Split an epoch order into batch-sized index chunks (last partial chunk
    /// kept, as PyTorch's `drop_last=False`).
    pub fn batch_indices(order: &[usize], batch_size: usize) -> Vec<Vec<usize>> {
        assert!(batch_size > 0, "batch size must be positive");
        order.chunks(batch_size).map(<[usize]>::to_vec).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lip_rng::rngs::StdRng;
    use lip_rng::SeedableRng;

    fn toy() -> WindowDataset {
        // values[t, 0] = t, values[t, 1] = 100 + t
        let t = 20;
        let mut vals = Vec::new();
        for i in 0..t {
            vals.push(i as f32);
            vals.push(100.0 + i as f32);
        }
        WindowDataset::new(
            Tensor::from_vec(vals, &[t, 2]),
            Tensor::zeros(&[t, 4]),
            None,
            4,
            2,
            (0, t),
        )
    }

    #[test]
    fn window_count() {
        let ds = toy();
        // 20 - (4 + 2 - 1) = 15
        assert_eq!(ds.len(), 15);
    }

    #[test]
    fn batch_contents_align() {
        let ds = toy();
        let b = ds.batch(&[0, 5]);
        assert_eq!(b.x.shape(), &[2, 4, 2]);
        assert_eq!(b.y.shape(), &[2, 2, 2]);
        // window 0: x rows 0..4, y rows 4..6
        assert_eq!(b.x.at(&[0, 0, 0]), 0.0);
        assert_eq!(b.x.at(&[0, 3, 1]), 103.0);
        assert_eq!(b.y.at(&[0, 0, 0]), 4.0);
        // window 5: x rows 5..9, y rows 9..11
        assert_eq!(b.x.at(&[1, 0, 0]), 5.0);
        assert_eq!(b.y.at(&[1, 1, 0]), 10.0);
    }

    #[test]
    fn borders_offset_sampling() {
        let t = 20;
        let vals: Vec<f32> = (0..t).map(|i| i as f32).collect();
        let ds = WindowDataset::new(
            Tensor::from_vec(vals, &[t, 1]),
            Tensor::zeros(&[t, 4]),
            None,
            2,
            1,
            (10, 20),
        );
        assert_eq!(ds.len(), 8);
        let b = ds.batch(&[0]);
        assert_eq!(b.x.to_vec(), vec![10.0, 11.0]);
        assert_eq!(b.y.to_vec(), vec![12.0]);
    }

    #[test]
    fn covariates_sliced_to_future() {
        let t = 10;
        let cov = CovariateSet::new(
            Tensor::from_vec((0..t).map(|i| i as f32 * 10.0).collect(), &[t, 1]),
            vec![(0..t).map(|i| i % 3).collect()],
            vec![3],
            vec!["n".into(), "c".into()],
        );
        let ds = WindowDataset::new(
            Tensor::zeros(&[t, 1]),
            Tensor::zeros(&[t, 4]),
            Some(cov),
            3,
            2,
            (0, t),
        );
        let b = ds.batch(&[1]);
        // future steps of window 1 are rows 4..6
        assert_eq!(b.cov_numerical.unwrap().to_vec(), vec![40.0, 50.0]);
        assert_eq!(b.cov_categorical.unwrap()[0], vec![1, 2]);
    }

    #[test]
    fn shuffled_order_is_permutation() {
        let ds = toy();
        let mut rng = StdRng::seed_from_u64(1);
        let order = ds.epoch_order(true, &mut rng);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..ds.len()).collect::<Vec<_>>());
        // deterministic given the seed
        let mut rng2 = StdRng::seed_from_u64(1);
        assert_eq!(order, ds.epoch_order(true, &mut rng2));
    }

    #[test]
    fn batch_chunking_keeps_remainder() {
        let order: Vec<usize> = (0..7).collect();
        let chunks = WindowDataset::batch_indices(&order, 3);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[2], vec![6]);
    }

    #[test]
    fn batch_contract_accepts_and_rejects() {
        let ds = toy();
        let batch = ds.batch(&[0, 1, 2]);
        let good = BatchContract {
            seq_len: 4,
            pred_len: 2,
            channels: 2,
            time_features: 4,
            numerical: 0,
            cardinalities: vec![],
        };
        assert_eq!(good.check(&batch), Ok(()));

        // wrong horizon: rejected with the offending tensor named
        let bad = BatchContract { pred_len: 3, ..good.clone() };
        let msg = bad.check(&batch).unwrap_err();
        assert!(msg.contains('y'), "{msg}");

        // demanding covariates the batch lacks
        let needs_cov = BatchContract { numerical: 2, ..good.clone() };
        assert!(needs_cov.check(&batch).is_err());
        let needs_cat = BatchContract { cardinalities: vec![5], ..good };
        assert!(needs_cat.check(&batch).is_err());
    }

    #[test]
    fn batch_contract_checks_categorical_codes() {
        let t = 10;
        let cov = CovariateSet::new(
            Tensor::zeros(&[t, 0]),
            vec![(0..t).map(|i| i % 3).collect()],
            vec![3],
            vec!["c".into()],
        );
        let ds = WindowDataset::new(
            Tensor::zeros(&[t, 1]),
            Tensor::zeros(&[t, 4]),
            Some(cov),
            3,
            2,
            (0, t),
        );
        let batch = ds.batch(&[0, 1]);
        let mut contract = BatchContract {
            seq_len: 3,
            pred_len: 2,
            channels: 1,
            time_features: 4,
            numerical: 0,
            cardinalities: vec![3],
        };
        assert_eq!(contract.check(&batch), Ok(()));
        // a tighter cardinality flags the out-of-range code
        contract.cardinalities = vec![2];
        let msg = contract.check(&batch).unwrap_err();
        assert!(msg.contains("cardinality"), "{msg}");
    }

    #[test]
    fn truncated_keeps_a_prefix_of_windows() {
        let ds = toy();
        let few = ds.truncated(3);
        assert_eq!(few.len(), 3);
        // same windows, same contents
        assert_eq!(few.batch(&[2]).x.to_vec(), ds.batch(&[2]).x.to_vec());
        // n >= len keeps everything; n = 0 empties the split
        assert_eq!(ds.truncated(100).len(), ds.len());
        assert!(ds.truncated(0).is_empty());
    }

    #[test]
    fn too_short_split_is_empty() {
        let ds = WindowDataset::new(
            Tensor::zeros(&[5, 1]),
            Tensor::zeros(&[5, 4]),
            None,
            4,
            2,
            (0, 5),
        );
        assert!(ds.is_empty());
    }
}
