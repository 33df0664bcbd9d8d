//! Speculation defenses as a border plus a restriction.
//!
//! Every modelled defense asks one question of a micro-op: is it younger
//! than a speculation *border*? The defenses differ only in which border
//! they key on and in what they withhold from a micro-op inside that
//! border's shadow: the two axes on which the hardware-defense SoK
//! classifies them. The out-of-order core computes the four borders once
//! per cycle (its `Shadow`) and runs only the active restriction.

/// A speculation border in the ROB. A micro-op is *in the shadow* of a
/// border while its sequence number is greater than the border's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Border {
    /// The oldest unresolved branch: control speculation (the Spectre
    /// threat model, NDA's propagation border).
    UnresolvedBranch,
    /// The oldest in-flight branch, resolved or not: the shadow lifts only
    /// when the branch commits (ShadowBinding's lazy untaint).
    Branch,
    /// The oldest store that has not completed: memory-order speculation
    /// (NDA's Bypass Restriction border).
    Store,
    /// The ROB head: everything but the oldest micro-op is speculative
    /// (the futuristic threat model, NDA's Load Restriction border).
    Head,
}

/// Which micro-ops in the unresolved-branch shadow NDA marks unsafe
/// (paper §5, Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Propagation {
    /// None: the branch border restricts nothing.
    Off,
    /// Permissive propagation (§5.2): only loads and load-like micro-ops
    /// are unsafe — only loads can introduce *new* secrets.
    Permissive,
    /// Strict propagation (§5.1): every micro-op is unsafe, which also
    /// hinders transmitting secrets already resident in registers.
    Strict,
}

/// The active speculation defense of an out-of-order core.
///
/// The fifteen evaluated configurations are presets of this enum
/// ([`SimConfig::for_variant`](crate::SimConfig::for_variant)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Defense {
    /// Insecure baseline: nothing is restricted.
    None,
    /// NDA (paper §5): an unsafe micro-op completes but withholds its tag
    /// broadcast, so dependents cannot wake.
    DelayBroadcast {
        /// Which micro-ops past the unresolved-branch border are unsafe.
        propagation: Propagation,
        /// Bypass Restriction (§5.2): a load past the store border is
        /// unsafe (defeats speculative store bypass without disabling it).
        bypass_restriction: bool,
        /// Load Restriction (§5.3): a load past the head border is unsafe
        /// (defeats Meltdown-class chosen-code attacks).
        load_restriction: bool,
    },
    /// InvisiSpec (§6.1): a load past the border executes as an invisible
    /// probe and exposes (fills the cache) once the border passes it.
    InvisibleLoad(Border),
    /// STT / ShadowBinding: a load past the border taints its result,
    /// taint flows through dataflow, and a transmitting micro-op may not
    /// issue on a tainted transmit operand.
    GateTransmit {
        /// The border that taints load results.
        border: Border,
        /// STT's wakeup-integrated untaint: an untaint ripples one
        /// dependency level per cycle. Otherwise the whole dependence tree
        /// untaints in the cycle the border passes (ShadowBinding's flash
        /// untaint).
        propagated_untaint: bool,
    },
    /// Delay-on-miss (Sakalis et al., §7): a load past the unresolved
    /// branch border that would miss the L1 does not issue.
    DelayOnMiss,
}

impl Defense {
    /// Every value of the enum, 26 in all: the fifteen presets plus every
    /// other combination of border, propagation rule and restriction.
    pub fn all() -> Vec<Defense> {
        use Border::{Branch, Head, Store, UnresolvedBranch};
        use Propagation::{Off, Permissive, Strict};
        let borders = [UnresolvedBranch, Branch, Store, Head];
        let nda = (0..12).map(|k| Defense::DelayBroadcast {
            propagation: [Off, Permissive, Strict][k / 4],
            bypass_restriction: k & 1 == 1,
            load_restriction: k & 2 == 2,
        });
        let gate = (0..8).map(|k| Defense::GateTransmit {
            border: borders[k / 2],
            propagated_untaint: k % 2 == 1,
        });
        [Defense::None, Defense::DelayOnMiss]
            .into_iter()
            .chain(nda)
            .chain(borders.map(Defense::InvisibleLoad))
            .chain(gate)
            .collect()
    }
}
