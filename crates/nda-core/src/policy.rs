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

impl Border {
    /// Does this border's shadow cover the speculation a `kind` trigger
    /// opens? The branch borders cover control speculation, the store
    /// border memory-order speculation, and the head everything.
    fn shadows(self, kind: TriggerKind) -> bool {
        match self {
            Border::UnresolvedBranch | Border::Branch => kind.is_control(),
            Border::Store => kind == TriggerKind::SsbStore,
            Border::Head => true,
        }
    }
}

/// How a transient window is opened: the attack's *trigger*, the first
/// of the SoK's three attack axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TriggerKind {
    /// Mispredicted conditional branch (either arm may be the wrong path).
    CondBranch,
    /// Mispredicted indirect call/jump target (BTB steering).
    IndirectCall,
    /// Mispredicted return address (RAS steering).
    ReturnMispredict,
    /// Store whose address resolves late: younger loads may bypass it and
    /// read stale data (Spectre v4 / SSB).
    SsbStore,
    /// Architectural fault whose value still propagates transiently
    /// (Meltdown-style implementation flaw).
    Fault,
}

impl TriggerKind {
    /// Stable JSON identifier.
    pub fn name(self) -> &'static str {
        match self {
            TriggerKind::CondBranch => "cond-branch",
            TriggerKind::IndirectCall => "indirect-call",
            TriggerKind::ReturnMispredict => "return",
            TriggerKind::SsbStore => "ssb-store",
            TriggerKind::Fault => "fault",
        }
    }

    /// `true` for control-flow speculation (the class InvisiSpec-Spectre
    /// and NDA's propagation policies defend).
    pub fn is_control(self) -> bool {
        matches!(
            self,
            TriggerKind::CondBranch | TriggerKind::IndirectCall | TriggerKind::ReturnMispredict
        )
    }
}

/// The microarchitectural channel a transmitter encodes the secret into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Channel {
    /// Load with tainted address: d-cache fill keyed by the secret.
    DCacheLoad,
    /// Store with tainted address: d-cache RFO/fill keyed by the secret.
    DCacheStore,
    /// Indirect jump/call/return steered by tainted data: BTB channel.
    Btb,
    /// Conditional branch on tainted data: execution-port / FPU-power /
    /// predictor channel.
    CtrlBranch,
}

impl Channel {
    /// Stable JSON identifier.
    pub fn name(self) -> &'static str {
        match self {
            Channel::DCacheLoad => "dcache-load",
            Channel::DCacheStore => "dcache-store",
            Channel::Btb => "btb",
            Channel::CtrlBranch => "ctrl-branch",
        }
    }
}

/// What of an access→transmit chain, besides the transmitter, executes
/// inside one trigger's transient window (ordered: a load is a chain
/// instruction too).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InWindow {
    /// Only the transmitter: the secret is already in a register.
    Transmitter,
    /// Chain instructions but no load: compute on a register secret.
    Compute,
    /// A load of the chain: the window itself reads the secret.
    Load,
}

/// An attack or gadget on the axes defenses are judged by: its channel,
/// and each trigger that can run it with what runs in that window.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Anatomy {
    /// Channel of the transmitter.
    pub channel: Channel,
    /// Every trigger under which the chain runs transiently.
    pub triggers: Vec<(TriggerKind, InWindow)>,
}

impl Defense {
    /// Does this defense stop a chain of this anatomy? It must block every
    /// trigger that can run it (a chain no trigger runs is no speculative
    /// leak). Untaint timing affects cost, never coverage.
    pub fn blocks(&self, a: &Anatomy) -> bool {
        !a.triggers.is_empty()
            && a.triggers
                .iter()
                .all(|&(kind, reach)| self.blocks_trigger(a.channel, kind, reach))
    }

    fn blocks_trigger(&self, channel: Channel, kind: TriggerKind, reach: InWindow) -> bool {
        let load = reach == InWindow::Load;
        match *self {
            Defense::None => false,
            // InvisiSpec hides speculative *loads* from the cache hierarchy
            // and Delay-On-Miss delays them: only the d-cache load channel
            // is covered, and only for the speculation their border covers.
            Defense::InvisibleLoad(border) => {
                channel == Channel::DCacheLoad && border.shadows(kind)
            }
            Defense::DelayOnMiss => {
                channel == Channel::DCacheLoad && Border::UnresolvedBranch.shadows(kind)
            }
            // STT / ShadowBinding gate *transmitting* uses of tainted data:
            // the explicit channels are covered, the conditional-branch
            // implicit channel is deliberately not. Taint originates at
            // speculative loads only, so a control-triggered chain is dead
            // iff one of its loads runs in the window; chosen-code and
            // memory-order triggers taint the source load itself when the
            // border covers them.
            Defense::GateTransmit { border, .. } => {
                channel != Channel::CtrlBranch
                    && border.shadows(kind)
                    && (!kind.is_control() || load)
            }
            // Load restriction keeps a faulting or stale value from ever
            // broadcasting, bypass restriction forbids the bypass; under
            // control speculation strict propagation holds any chain
            // instruction, permissive (and load restriction) only a load.
            Defense::DelayBroadcast {
                propagation,
                bypass_restriction,
                load_restriction,
            } => match kind {
                TriggerKind::Fault => load_restriction,
                TriggerKind::SsbStore => bypass_restriction || load_restriction,
                _ => {
                    (propagation == Propagation::Strict && reach > InWindow::Transmitter)
                        || ((propagation == Propagation::Permissive || load_restriction) && load)
                }
            },
        }
    }
}
