//! Per-epoch training statistics shared by every trainable estimator
//! backend.
//!
//! The tree model (`estimator_core::Trainer`) and the MSCN baseline
//! (`mscn::MscnTrainer`) used to report training progress in incompatible
//! shapes (`Vec<EpochStats>` vs a bare `Vec<f64>` of losses), which made the
//! benches treat every backend as a special case.  [`EpochStats`] is the one
//! record both produce: the mean training loss, the mean validation q-error
//! per target, and the epoch's wall time.

/// Statistics of one training epoch (the validation curves of Figures 7/8).
///
/// Single-task backends fill only the q-error field of the target they
/// train; the other field is `f64::NAN` ("not trained"), never silently 1.0.
#[derive(Debug, Clone, Copy)]
pub struct EpochStats {
    /// Epoch index, starting at 0.
    pub epoch: usize,
    /// Mean training loss over the epoch's mini-batches.
    pub train_loss: f64,
    /// Mean cardinality q-error on the held-out validation split
    /// (`f64::NAN` when the backend does not train a cardinality head).
    pub validation_card_qerror_mean: f64,
    /// Mean cost q-error on the held-out validation split (`f64::NAN` when
    /// the backend does not train a cost head).
    pub validation_cost_qerror_mean: f64,
    /// Wall time of the epoch (training + validation), in seconds.
    pub wall_time_secs: f64,
}

impl EpochStats {
    /// The validation metric an early-stop policy should track: the mean of
    /// whichever per-target q-errors were actually measured.
    pub fn validation_metric(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0;
        for q in [self.validation_card_qerror_mean, self.validation_cost_qerror_mean] {
            if q.is_finite() {
                sum += q;
                n += 1;
            }
        }
        if n == 0 {
            f64::NAN
        } else {
            sum / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_metric_averages_finite_targets() {
        let both = EpochStats {
            epoch: 0,
            train_loss: 1.0,
            validation_card_qerror_mean: 2.0,
            validation_cost_qerror_mean: 4.0,
            wall_time_secs: 0.1,
        };
        assert_eq!(both.validation_metric(), 3.0);
        let card_only = EpochStats { validation_cost_qerror_mean: f64::NAN, ..both };
        assert_eq!(card_only.validation_metric(), 2.0);
        let none = EpochStats { validation_card_qerror_mean: f64::NAN, ..card_only };
        assert!(none.validation_metric().is_nan());
    }
}
