//! Power-gating policies: when routers are asked to sleep and when whole
//! regions are woken.
//!
//! The *mechanisms* (power-state machine, sleep guards, look-ahead wake
//! signals, NI wake requests) live in `catnap-noc`; this module supplies
//! the *policy* that drives them each cycle via [`GatingPolicy::apply`].

use crate::ni::NodeNi;
use crate::rcs::OrNetwork;
use catnap_noc::power_state::WakeReason;
use catnap_noc::{MeshDims, Network, Port};
use catnap_telemetry::Sink;

/// Which power-gating policy a [`MultiNoc`](crate::MultiNoc) runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GatingPolicy {
    /// No power gating: every router stays active.
    None,
    /// Matsutani-style local-idle gating (ASP-DAC '08), the paper's
    /// baseline for Single-NoC and for round-robin Multi-NoC: any router
    /// whose buffers have been empty for `t_idle_detect` cycles goes to
    /// sleep; wake-ups come from look-ahead signals and NI demand only.
    LocalIdle,
    /// Fine-grained variant (Matsutani et al., TCAD '11): individual
    /// input ports (buffers + incoming link) gate independently while the
    /// crossbar, control and clock stay powered — more sleep opportunity
    /// per unit, less leakage saved per sleeping unit.
    LocalIdlePort,
    /// Catnap's RCS-driven policy (Section 3.3): a router in subnet `h`
    /// sleeps only when, additionally, the regional congestion status of
    /// subnet `h-1` is off; it is woken as soon as that RCS turns on.
    /// Subnet 0 is never gated.
    CatnapRcs,
}

impl GatingPolicy {
    /// Whether this policy ever gates routers.
    pub fn gates(self) -> bool {
        self != GatingPolicy::None
    }

    /// Whether subnet `subnet` may have routers gated at all under this
    /// policy.
    pub fn subnet_gateable(self, subnet: usize) -> bool {
        match self {
            GatingPolicy::None => false,
            GatingPolicy::LocalIdle | GatingPolicy::LocalIdlePort => true,
            GatingPolicy::CatnapRcs => subnet > 0,
        }
    }

    /// Whether the policy gates individual ports rather than routers.
    pub fn is_port_granularity(self) -> bool {
        self == GatingPolicy::LocalIdlePort
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            GatingPolicy::None => "no-gating",
            GatingPolicy::LocalIdle => "local-idle",
            GatingPolicy::LocalIdlePort => "local-idle-port",
            GatingPolicy::CatnapRcs => "catnap-rcs",
        }
    }

    /// Runs one cycle of the policy: issues sleep and wake requests to
    /// the subnet networks. Called by `MultiNoc::step` between NI
    /// injection and the subnet steps.
    ///
    /// The networks veto unsafe requests themselves (sleep guards,
    /// in-flight flit checks), so the policy may ask freely; every
    /// granted transition is reported through each network's telemetry
    /// sink. With `reference` (`MultiNoc::step_reference`) every sweep
    /// runs; otherwise sweeps over a fully sleeping subnet, which can
    /// only be rejected, are skipped.
    pub fn apply<S: Sink>(
        self,
        dims: MeshDims,
        subnets: &mut [Network<S>],
        or_nets: &[OrNetwork],
        nis: &[NodeNi],
        reference: bool,
    ) {
        let k = subnets.len();
        match self {
            GatingPolicy::None => {}
            GatingPolicy::LocalIdle => {
                for net in subnets.iter_mut() {
                    // A fully sleeping subnet rejects every request (the
                    // sleep guard needs an Active machine), so the sweep
                    // is a provable no-op.
                    if !reference && net.all_asleep() {
                        continue;
                    }
                    for node in dims.nodes() {
                        net.request_sleep(node);
                    }
                }
            }
            GatingPolicy::LocalIdlePort => {
                for (s, net) in subnets.iter_mut().enumerate() {
                    for node in dims.nodes() {
                        for port in Port::ALL {
                            // Never gate the local port out from under an
                            // in-flight NI injection.
                            if port == Port::Local && nis[node.index()].wants_subnet(s) {
                                continue;
                            }
                            net.request_sleep_port(node, port);
                        }
                    }
                }
            }
            GatingPolicy::CatnapRcs => {
                for h in 1..k {
                    // With subnet h-1's RCS fully clear, every branch
                    // below is a sleep request; if subnet h is already
                    // fully asleep those are all rejected by the sleep
                    // guard, so the sweep is a provable no-op.
                    if !reference && !or_nets[h - 1].any() && subnets[h].all_asleep() {
                        continue;
                    }
                    for node in dims.nodes() {
                        if or_nets[h - 1].rcs_at(node) {
                            subnets[h].request_wake(node, WakeReason::RegionalCongestion);
                        } else {
                            subnets[h].request_sleep(node);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subnet_zero_protected_only_by_catnap() {
        assert!(!GatingPolicy::CatnapRcs.subnet_gateable(0));
        assert!(GatingPolicy::CatnapRcs.subnet_gateable(1));
        assert!(GatingPolicy::LocalIdle.subnet_gateable(0));
        assert!(!GatingPolicy::None.subnet_gateable(0));
    }

    #[test]
    fn gates_flag() {
        assert!(!GatingPolicy::None.gates());
        assert!(GatingPolicy::LocalIdle.gates());
        assert!(GatingPolicy::CatnapRcs.gates());
    }

    #[test]
    fn names_stable() {
        assert_eq!(GatingPolicy::CatnapRcs.name(), "catnap-rcs");
        assert_eq!(GatingPolicy::LocalIdle.name(), "local-idle");
        assert_eq!(GatingPolicy::None.name(), "no-gating");
    }
}
