//! Property-based tests of the RNG key spellings the engine derives its
//! per-batch streams by: a site spells exactly its `Display`, and an
//! injected-fault key spells the text it stands for.

use ntc_check::prelude::*;

use ntc_core::Site;
use ntc_simcore::rng::RngStream;
use ntc_taskgraph::ComponentId;

proptest! {
    /// A site, as an RNG key, spells its `Display` (its name), alone and
    /// inside a `{first}-{comp}-{site}-a{attempt}` fault key.
    #[test]
    fn sites_spell_their_display(
        seed in any::<u64>(),
        site in prop::sample::select(Site::ALL.to_vec()),
        first in any::<u64>(),
        comp in 0usize..64,
        attempt in 1u32..100,
    ) {
        let root = RngStream::root(seed);
        prop_assert_eq!(root.derive(site).next_u64(), root.derive(site.to_string()).next_u64());
        let comp = ComponentId::from_index(comp);
        let label = format!("{first}-{comp}-{site}-a{attempt}");
        let key = (first, "-", comp, "-", site, ("-a", attempt));
        prop_assert_eq!(root.derive(key).next_u64(), root.derive(&label).next_u64());
    }
}
