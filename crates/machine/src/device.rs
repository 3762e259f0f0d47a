//! Systolic operator devices ("Intersect", "Join", ... in Figure 9-1).
//!
//! Each device wraps one physical fixed-size array; relations larger than
//! the array are decomposed onto it (§8/§9: "relations may have to be
//! decomposed to fit the (fixed) sizes of systolic arrays"). A device
//! executes a [`PlanOp`] by running the corresponding `systolic-core`
//! operator with `Execution::Tiled(limits)`, so the data is processed by
//! the real simulated hardware and the time charged is `pulses x clock`.

use systolic_core::ops::{self, Execution};
use systolic_core::{ArrayLimits, Backend, ExecStats};
use systolic_relation::MultiRelation;

use crate::error::{MachineError, Result};
use crate::plan::PlanOp;

/// The operator family a device implements. §4.3: the comparison array "is
/// sufficiently general that it need not be changed at all" across the
/// intersection-like operations, so one device kind covers them all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceKind {
    /// Intersection, difference, union, remove-duplicates, projection
    /// (the Fig 4-1 array with its accumulation column).
    SetOp,
    /// The join array (§6).
    Join,
    /// The division array (§7).
    Divide,
}

/// One systolic device on the crossbar.
#[derive(Debug, Clone)]
pub struct Device {
    /// Device index (its crossbar port).
    pub id: usize,
    /// Human-readable name for timelines ("setop0", "join0", ...).
    pub name: String,
    /// Operator family.
    pub kind: DeviceKind,
    /// Physical array capacity.
    pub limits: ArrayLimits,
    /// Pulse period in nanoseconds (§8's conservative comparison time).
    pub clock_ns: f64,
    /// How operator runs are computed: pulse simulation or the closed-form
    /// columnar scans. Results and [`ExecStats`] are bit-identical either
    /// way.
    pub backend: Backend,
}

impl Device {
    /// Build a device.
    pub fn new(
        id: usize,
        kind: DeviceKind,
        limits: ArrayLimits,
        clock_ns: f64,
        backend: Backend,
    ) -> Self {
        let name = match kind {
            DeviceKind::SetOp => format!("setop{id}"),
            DeviceKind::Join => format!("join{id}"),
            DeviceKind::Divide => format!("divide{id}"),
        };
        Device {
            id,
            name,
            kind,
            limits,
            clock_ns,
            backend,
        }
    }

    /// Whether this device's array family can run `op`.
    pub fn can_execute(&self, op: &PlanOp) -> bool {
        matches!(
            (self.kind, op),
            (
                DeviceKind::SetOp,
                PlanOp::Intersect
                    | PlanOp::Difference
                    | PlanOp::Union
                    | PlanOp::Dedup
                    | PlanOp::Project(_)
                    | PlanOp::Select(_)
            ) | (DeviceKind::Join, PlanOp::Join(_))
                | (DeviceKind::Divide, PlanOp::DivideBinary { .. })
        )
    }

    /// Execute `op` on staged inputs, returning the result and the array
    /// statistics (from which the scheduler derives the busy time).
    pub fn execute(
        &self,
        op: &PlanOp,
        inputs: &[&MultiRelation],
    ) -> Result<(MultiRelation, ExecStats)> {
        if !self.can_execute(op) {
            return Err(MachineError::NoDevice { kind: op.label() });
        }
        // Pipelined tiles when the column budget allows (E19); the operator
        // front-end falls back to drain-per-tile when columns must split.
        let exec = Execution::TiledPipelined(self.limits);
        let be = self.backend;
        let out = match op {
            PlanOp::Intersect => ops::intersect_with(inputs[0], inputs[1], exec, be)?,
            PlanOp::Difference => ops::difference_with(inputs[0], inputs[1], exec, be)?,
            PlanOp::Union => ops::union_with(inputs[0], inputs[1], exec, be)?,
            PlanOp::Dedup => ops::dedup_with(inputs[0], exec, be)?,
            PlanOp::Project(cols) => ops::project_with(inputs[0], cols, exec, be)?,
            PlanOp::Select(preds) => ops::select_with(inputs[0], preds, exec, be)?,
            PlanOp::Join(specs) => ops::join_with(inputs[0], inputs[1], specs, exec, be)?,
            PlanOp::DivideBinary { key, ca, cb } => {
                ops::divide_binary_with(inputs[0], *key, *ca, inputs[1], *cb, exec, be)?
            }
        };
        Ok(out)
    }

    /// Hardware time for a run, in nanoseconds.
    pub fn run_ns(&self, stats: &ExecStats) -> u64 {
        (stats.pulses as f64 * self.clock_ns).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_core::JoinSpec;
    use systolic_relation::gen::synth_schema;

    fn rel(rows: &[&[i64]]) -> MultiRelation {
        MultiRelation::new(synth_schema(2), rows.iter().map(|r| r.to_vec()).collect()).unwrap()
    }

    fn limits() -> ArrayLimits {
        ArrayLimits::new(4, 4, 2)
    }

    #[test]
    fn kind_gating() {
        let setop = Device::new(0, DeviceKind::SetOp, limits(), 350.0, Backend::Sim);
        let join = Device::new(1, DeviceKind::Join, limits(), 350.0, Backend::Sim);
        let div = Device::new(2, DeviceKind::Divide, limits(), 350.0, Backend::Sim);
        assert!(setop.can_execute(&PlanOp::Intersect));
        assert!(setop.can_execute(&PlanOp::Project(vec![0])));
        assert!(!setop.can_execute(&PlanOp::Join(vec![JoinSpec::eq(0, 0)])));
        assert!(join.can_execute(&PlanOp::Join(vec![JoinSpec::eq(0, 0)])));
        assert!(!join.can_execute(&PlanOp::Dedup));
        assert!(div.can_execute(&PlanOp::DivideBinary {
            key: 0,
            ca: 1,
            cb: 0
        }));
        assert!(!div.can_execute(&PlanOp::Union));
    }

    #[test]
    fn executes_with_tiled_decomposition_and_charges_time() {
        // 10 tuples exceed the 4x4 array: decomposition kicks in.
        let rows_a: Vec<Vec<i64>> = (0..10).map(|i| vec![i, i]).collect();
        let rows_b: Vec<Vec<i64>> = (5..15).map(|i| vec![i, i]).collect();
        let a = MultiRelation::new(synth_schema(2), rows_a).unwrap();
        let b = MultiRelation::new(synth_schema(2), rows_b).unwrap();
        let dev = Device::new(0, DeviceKind::SetOp, limits(), 350.0, Backend::Sim);
        let (out, stats) = dev.execute(&PlanOp::Intersect, &[&a, &b]).unwrap();
        assert_eq!(out.len(), 5);
        assert!(stats.array_runs > 1, "problem was decomposed");
        assert!(dev.run_ns(&stats) >= stats.pulses * 350);
    }

    #[test]
    fn wrong_device_refuses() {
        let join = Device::new(0, DeviceKind::Join, limits(), 350.0, Backend::Sim);
        let a = rel(&[&[1, 1]]);
        assert!(matches!(
            join.execute(&PlanOp::Dedup, &[&a]),
            Err(MachineError::NoDevice { .. })
        ));
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(
            Device::new(3, DeviceKind::Join, limits(), 1.0, Backend::Sim).name,
            "join3"
        );
        assert_eq!(
            Device::new(0, DeviceKind::Divide, limits(), 1.0, Backend::Sim).name,
            "divide0"
        );
    }

    #[test]
    fn columnar_device_is_bit_identical_to_sim_device() {
        let rows_a: Vec<Vec<i64>> = (0..10).map(|i| vec![i, i % 3]).collect();
        let rows_b: Vec<Vec<i64>> = (5..15).map(|i| vec![i, i % 4]).collect();
        let a = MultiRelation::new(synth_schema(2), rows_a).unwrap();
        let b = MultiRelation::new(synth_schema(2), rows_b).unwrap();
        let cases: Vec<(DeviceKind, PlanOp, Vec<&MultiRelation>)> = vec![
            (DeviceKind::SetOp, PlanOp::Intersect, vec![&a, &b]),
            (DeviceKind::SetOp, PlanOp::Union, vec![&a, &b]),
            (DeviceKind::SetOp, PlanOp::Project(vec![1]), vec![&a]),
            (
                DeviceKind::Join,
                PlanOp::Join(vec![JoinSpec::eq(0, 0)]),
                vec![&a, &b],
            ),
            (
                DeviceKind::Divide,
                PlanOp::DivideBinary {
                    key: 1,
                    ca: 0,
                    cb: 0,
                },
                vec![&a, &b],
            ),
        ];
        for (kind, op, inputs) in cases {
            let sim = Device::new(0, kind, limits(), 350.0, Backend::Sim)
                .execute(&op, &inputs)
                .unwrap();
            let fast = Device::new(0, kind, limits(), 350.0, Backend::Columnar)
                .execute(&op, &inputs)
                .unwrap();
            assert_eq!(fast.0.rows(), sim.0.rows(), "{op:?} rows");
            assert_eq!(fast.1, sim.1, "{op:?} stats");
        }
    }
}
