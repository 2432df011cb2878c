//! The execution-noise memo: each (job, component) noise factor, drawn
//! on its first read and kept for the input's later reads and runs.

use ntc_simcore::rng::RngStream;
use ntc_taskgraph::ComponentId;
use ntc_workloads::{Archetype, StreamSpec};

/// Execution noise of every (job, component) slot of one input.
///
/// A batch's noise is a pure function of its first member's stream and
/// the component, so it is the same value under every policy run on the
/// input: the memo lives as long as the job stream, and
/// [`reset`](Self::reset) marks every slot not drawn whenever the stream
/// is regenerated. It only saves re-drawing a slot, never changes one.
#[derive(Debug, Default)]
pub(crate) struct NoiseMemo {
    /// Slots per job: the largest component count among the input's
    /// archetypes.
    stride: usize,
    /// Job `ji`'s component `c` at `ji * stride + c`; `NaN` until drawn,
    /// where every drawn factor is positive.
    slots: Vec<f64>,
}

impl NoiseMemo {
    /// Bytes the memo's slots reserve.
    #[cfg(test)]
    pub(crate) fn reserved_bytes(&self) -> usize {
        super::vec_bytes(&self.slots)
    }

    /// Marks every slot of a new input of `jobs` jobs, generated from
    /// `specs`, not drawn.
    pub(crate) fn reset(&mut self, jobs: usize, specs: &[StreamSpec]) {
        self.stride = specs.iter().map(|s| s.archetype.graph().len()).max().unwrap_or(0);
        self.slots.clear();
        self.slots.resize(jobs * self.stride, f64::NAN);
    }

    /// The noise of component `comp` of the batch whose first member is
    /// job `ji`, of archetype `archetype` and stream `rng`: drawn now if
    /// no read has drawn it yet.
    #[inline]
    pub(crate) fn get(
        &mut self,
        ji: u32,
        comp: ComponentId,
        archetype: Archetype,
        rng: &RngStream,
    ) -> f64 {
        let slot = &mut self.slots[ji as usize * self.stride + comp.index()];
        if slot.is_nan() {
            *slot = draw(archetype, rng, comp);
        }
        *slot
    }

    /// How many slots are drawn.
    #[cfg(test)]
    pub(crate) fn drawn(&self) -> usize {
        self.slots.iter().filter(|x| !x.is_nan()).count()
    }

    /// The raw slot of component `comp` of job `ji`: `NaN` if not drawn.
    #[cfg(test)]
    pub(crate) fn slot(&self, ji: u32, comp: ComponentId) -> f64 {
        self.slots[ji as usize * self.stride + comp.index()]
    }
}

/// The execution noise of component `comp` of a batch of `archetype`
/// whose first member's stream is `rng`: the archetype's drift times a
/// lognormal draw from the child `{comp}` of `rng`.
pub(crate) fn draw(archetype: Archetype, rng: &RngStream, comp: ComponentId) -> f64 {
    archetype.demand_drift() * rng.derive(comp).lognormal(0.0, archetype.demand_noise_sigma())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_new_input_never_sees_an_old_jobs_writes() {
        let photo = [StreamSpec::poisson(Archetype::PhotoPipeline, 1.0)];
        let mut memo = NoiseMemo::default();
        memo.reset(100, &photo);
        let rng = RngStream::root(3);
        for ji in 0..100 {
            for c in 0..4 {
                memo.get(ji, ComponentId::from_index(c), Archetype::PhotoPipeline, &rng);
            }
        }
        assert_eq!(memo.drawn(), 400);
        // A new input, wider and longer: every slot starts undrawn.
        let wider = [photo[0].clone(), StreamSpec::poisson(Archetype::VideoTranscode, 1.0)];
        memo.reset(150, &wider);
        assert_eq!((memo.stride, memo.drawn()), (5, 0));
        let got = memo.get(7, ComponentId::from_index(4), Archetype::VideoTranscode, &rng);
        assert_eq!(
            got.to_bits(),
            draw(Archetype::VideoTranscode, &rng, ComponentId::from_index(4)).to_bits()
        );
    }
}
