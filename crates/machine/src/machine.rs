//! The paper's four-parameter machine cost model, combined with a topology
//! and routing into a complete target-machine description.
//!
//! > "A program is tailored to a certain machine by considering the
//! > following characteristics of the target machine: 1. Processor speed
//! > 2. Process startup time 3. Message passing startup time 4. Message
//! > transmission speed."  — Lewis, ICPP 1994
//!
//! Time is dimensionless ("time units"); weights are "operations" and
//! volumes are "data units". With the defaults, one unit of work takes one
//! time unit on a unit-speed processor.

use crate::routing::RoutingTable;
use crate::topology::{ProcId, Topology, MAX_PROCESSORS};

/// How messages traverse multi-hop routes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SwitchingMode {
    /// 1990s-style store-and-forward: the full message is retransmitted on
    /// every hop, so transfer time scales with `hops * volume`.
    StoreAndForward,
    /// Cut-through / wormhole: the message pipeline crosses hops with a
    /// small per-hop latency; transfer time is `hops * hop_latency +
    /// volume / rate`.
    CutThrough {
        /// Extra latency added per hop.
        hop_latency: f64,
    },
}

/// The paper's four machine parameters plus the switching discipline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineParams {
    /// Operations per time unit executed by a (relative-speed-1) processor.
    pub processor_speed: f64,
    /// Fixed cost added to every task execution (process startup time).
    pub process_startup: f64,
    /// Fixed cost added to every inter-processor message (message-passing
    /// startup time).
    pub msg_startup: f64,
    /// Data units transmitted per time unit on one link.
    pub transmission_rate: f64,
    /// Multi-hop discipline.
    pub switching: SwitchingMode,
}

impl Default for MachineParams {
    /// A neutral machine: unit speed, unit bandwidth, no startup costs,
    /// store-and-forward switching. Schedulers behave like the classic
    /// "communication = volume x hops" model under these defaults.
    fn default() -> Self {
        MachineParams {
            processor_speed: 1.0,
            process_startup: 0.0,
            msg_startup: 0.0,
            transmission_rate: 1.0,
            switching: SwitchingMode::StoreAndForward,
        }
    }
}

impl MachineParams {
    /// Validates that all parameters are usable (positive speeds/rates,
    /// non-negative startups, finite values).
    pub fn validate(&self) -> Result<(), String> {
        if !(self.processor_speed.is_finite() && self.processor_speed > 0.0) {
            return Err(format!(
                "processor_speed must be > 0, got {}",
                self.processor_speed
            ));
        }
        if !(self.transmission_rate.is_finite() && self.transmission_rate > 0.0) {
            return Err(format!(
                "transmission_rate must be > 0, got {}",
                self.transmission_rate
            ));
        }
        if !(self.process_startup.is_finite() && self.process_startup >= 0.0) {
            return Err(format!(
                "process_startup must be >= 0, got {}",
                self.process_startup
            ));
        }
        if !(self.msg_startup.is_finite() && self.msg_startup >= 0.0) {
            return Err(format!(
                "msg_startup must be >= 0, got {}",
                self.msg_startup
            ));
        }
        if let SwitchingMode::CutThrough { hop_latency } = self.switching {
            if !(hop_latency.is_finite() && hop_latency >= 0.0) {
                return Err(format!("hop_latency must be >= 0, got {hop_latency}"));
            }
        }
        Ok(())
    }
}

/// A complete target machine: topology + parameters + routing +
/// (optionally heterogeneous) per-processor relative speeds.
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    topology: Topology,
    params: MachineParams,
    routing: RoutingTable,
    /// Relative speed of each processor (1.0 = nominal).
    speeds: Vec<f64>,
}

impl Machine {
    /// Builds a machine with homogeneous unit-relative-speed processors.
    /// Panics on invalid parameters; use [`Machine::try_new`] to handle
    /// user-supplied descriptions.
    pub fn new(topology: Topology, params: MachineParams) -> Self {
        Machine::try_new(topology, params).expect("invalid machine parameters")
    }

    /// Fallible constructor validating the parameter set and refusing a
    /// topology of more than [`MAX_PROCESSORS`] processors.
    pub fn try_new(topology: Topology, params: MachineParams) -> Result<Self, String> {
        params.validate()?;
        if topology.processors() > MAX_PROCESSORS {
            return Err(format!("more than {MAX_PROCESSORS} processors"));
        }
        let routing = RoutingTable::build(&topology);
        let speeds = vec![1.0; topology.processors()];
        Ok(Machine {
            topology,
            params,
            routing,
            speeds,
        })
    }

    /// Sets a processor's relative speed (heterogeneous machines).
    pub fn set_relative_speed(&mut self, p: ProcId, speed: f64) -> Result<(), String> {
        if !(speed.is_finite() && speed > 0.0) {
            return Err(format!("relative speed must be > 0, got {speed}"));
        }
        let slot = self
            .speeds
            .get_mut(p.index())
            .ok_or_else(|| format!("no processor {p}"))?;
        *slot = speed;
        Ok(())
    }

    /// The interconnection topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The cost parameters.
    pub fn params(&self) -> &MachineParams {
        &self.params
    }

    /// The routing table.
    pub fn routing(&self) -> &RoutingTable {
        &self.routing
    }

    /// Number of processors.
    #[inline]
    pub fn processors(&self) -> usize {
        self.topology.processors()
    }

    /// Iterates over processor ids.
    pub fn proc_ids(&self) -> impl Iterator<Item = ProcId> {
        self.topology.proc_ids()
    }

    /// Relative speed of processor `p`.
    #[inline]
    pub fn relative_speed(&self, p: ProcId) -> f64 {
        self.speeds[p.index()]
    }

    /// Time to execute a task of the given weight on processor `p`:
    /// `process_startup + weight / (processor_speed * relative_speed)`.
    #[inline]
    pub fn exec_time(&self, weight: f64, p: ProcId) -> f64 {
        self.params.process_startup
            + weight / (self.params.processor_speed * self.speeds[p.index()])
    }

    /// Time for `volume` data units to travel from `src` to `dst`.
    /// Zero when `src == dst` (local memory); otherwise the startup cost
    /// plus hop-dependent transmission per the switching mode. Returns
    /// `f64::INFINITY` when the processors are not connected.
    #[inline]
    pub fn comm_time(&self, src: ProcId, dst: ProcId, volume: f64) -> f64 {
        if src == dst {
            return 0.0;
        }
        let hops = match self.routing.hops(src, dst) {
            Some(h) => h as f64,
            None => return f64::INFINITY,
        };
        let transfer = volume / self.params.transmission_rate;
        match self.params.switching {
            SwitchingMode::StoreAndForward => self.params.msg_startup + hops * transfer,
            SwitchingMode::CutThrough { hop_latency } => {
                self.params.msg_startup + hops * hop_latency + transfer
            }
        }
    }

    /// Per-link transfer time of a message of `volume` data units — the
    /// occupancy the simulator charges one link for.
    #[inline]
    pub fn link_transfer_time(&self, volume: f64) -> f64 {
        volume / self.params.transmission_rate
    }

    /// A one-line human description of the machine.
    pub fn describe(&self) -> String {
        format!(
            "{} ({} processors, diameter {}, speed {}, proc-startup {}, msg-startup {}, rate {})",
            self.topology.name(),
            self.processors(),
            self.routing
                .diameter()
                .map(|d| d.to_string())
                .unwrap_or_else(|| "inf".into()),
            self.params.processor_speed,
            self.params.process_startup,
            self.params.msg_startup,
            self.params.transmission_rate,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube() -> Machine {
        Machine::new(
            Topology::hypercube(3),
            MachineParams {
                processor_speed: 2.0,
                process_startup: 0.5,
                msg_startup: 1.0,
                transmission_rate: 4.0,
                switching: SwitchingMode::StoreAndForward,
            },
        )
    }

    #[test]
    fn exec_time_model() {
        let m = cube();
        // 10 ops at speed 2 => 5 time units + 0.5 startup
        assert!((m.exec_time(10.0, ProcId(0)) - 5.5).abs() < 1e-12);
    }

    #[test]
    fn heterogeneous_speed() {
        let mut m = cube();
        m.set_relative_speed(ProcId(1), 2.0).unwrap();
        assert!((m.exec_time(10.0, ProcId(1)) - (0.5 + 10.0 / 4.0)).abs() < 1e-12);
        assert!(m.set_relative_speed(ProcId(1), 0.0).is_err());
        assert!(m.set_relative_speed(ProcId(99), 1.0).is_err());
    }

    #[test]
    fn comm_time_store_and_forward() {
        let m = cube();
        // local
        assert_eq!(m.comm_time(ProcId(3), ProcId(3), 100.0), 0.0);
        // adjacent: startup 1 + 1 * 8/4 = 3
        assert!((m.comm_time(ProcId(0), ProcId(1), 8.0) - 3.0).abs() < 1e-12);
        // diameter (3 hops to processor 7): 1 + 3 * 2 = 7
        assert!((m.comm_time(ProcId(0), ProcId(7), 8.0) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn comm_time_cut_through() {
        let m = Machine::new(
            Topology::hypercube(3),
            MachineParams {
                msg_startup: 1.0,
                transmission_rate: 4.0,
                switching: SwitchingMode::CutThrough { hop_latency: 0.1 },
                ..MachineParams::default()
            },
        );
        // 3 hops: 1 + 3*0.1 + 8/4 = 3.3
        assert!((m.comm_time(ProcId(0), ProcId(7), 8.0) - 3.3).abs() < 1e-12);
    }

    #[test]
    fn disconnected_comm_is_infinite() {
        let t = Topology::from_edges("x", 4, &[(0, 1), (2, 3)]).unwrap();
        let m = Machine::new(t, MachineParams::default());
        assert!(m.comm_time(ProcId(0), ProcId(2), 1.0).is_infinite());
    }

    #[test]
    fn parameter_validation() {
        for bad in [
            MachineParams {
                processor_speed: 0.0,
                ..MachineParams::default()
            },
            MachineParams {
                processor_speed: f64::NAN,
                ..MachineParams::default()
            },
            MachineParams {
                transmission_rate: -1.0,
                ..MachineParams::default()
            },
            MachineParams {
                process_startup: -0.1,
                ..MachineParams::default()
            },
            MachineParams {
                msg_startup: f64::INFINITY,
                ..MachineParams::default()
            },
            MachineParams {
                switching: SwitchingMode::CutThrough { hop_latency: -1.0 },
                ..MachineParams::default()
            },
        ] {
            assert!(
                Machine::try_new(Topology::single(), bad).is_err(),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn more_processors_than_the_cap_are_refused() {
        let ok = Machine::try_new(Topology::linear(MAX_PROCESSORS), MachineParams::default());
        assert_eq!(ok.unwrap().processors(), MAX_PROCESSORS);
        let err = Machine::try_new(Topology::star(MAX_PROCESSORS + 1), MachineParams::default())
            .unwrap_err();
        assert_eq!(err, "more than 256 processors");
    }

    #[test]
    fn defaults_are_neutral() {
        let m = Machine::new(Topology::fully_connected(4), MachineParams::default());
        assert_eq!(m.exec_time(7.0, ProcId(0)), 7.0);
        assert_eq!(m.comm_time(ProcId(0), ProcId(1), 5.0), 5.0);
    }

    #[test]
    fn describe_mentions_key_facts() {
        let d = cube().describe();
        assert!(d.contains("hypercube-3"), "{d}");
        assert!(d.contains("8 processors"), "{d}");
        assert!(d.contains("diameter 3"), "{d}");
    }
}
