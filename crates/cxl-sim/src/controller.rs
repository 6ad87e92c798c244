//! The CXL controller's snoop bus.
//!
//! In the paper's hardware (Figure 1), near-memory functions sit between the
//! CXL transaction layer and the memory controllers, where they can observe
//! every access address (`PA[47:6]`) flowing from the host CPU to the CXL
//! DRAM. This module models that integration point: a [`CxlController`]
//! owns a set of attached [`CxlDevice`]s and forwards every post-LLC access
//! to CXL DRAM to all of them.
//!
//! Devices are attached by value and retrieved by downcast through their
//! [`DeviceHandle`], so callers (the M5-manager, the profiling scripts) keep
//! typed access to their own hardware while the `System` stays agnostic.
//!
//! Crucially, device updates cost **no host CPU time** — that is the
//! entire point of CXL-driven tracking (§5).

use crate::addr::CacheLineAddr;
use crate::faults::DeviceFault;
use crate::time::Nanos;
use std::any::Any;
use std::fmt;

/// A near-memory hardware function attached to the CXL controller.
///
/// Implementors include the profilers (PAC, WAC) and the M5 trackers
/// (HPT, HWT), as well as [`crate::trace::TraceCapture`].
pub trait CxlDevice: Any + Send {
    /// A short human-readable device name (for reports).
    fn name(&self) -> &str;

    /// Observes one 64 B access to CXL DRAM.
    ///
    /// `line` is `PA[47:6]`; `is_write` distinguishes writeback traffic from
    /// miss-fill reads; `now` is the simulated time of the access.
    fn on_access(&mut self, line: CacheLineAddr, is_write: bool, now: Nanos);

    /// Delivers an injected hardware fault to the device's SRAM state.
    ///
    /// The default implementation ignores faults — a device that opts out
    /// simply cannot be corrupted. Trackers and profilers override this to
    /// model bit flips, counter saturation, and permanent failure.
    fn on_fault(&mut self, _fault: DeviceFault) {}

    /// Upcast for downcasting by [`CxlController::device`].
    fn as_any(&self) -> &dyn Any;

    /// Upcast for downcasting by [`CxlController::device_mut`].
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// A typed handle to a device attached to a controller.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DeviceHandle(usize);

/// One attached near-memory function, dispatched statically where the
/// concrete type lives in this crate.
///
/// The simulator's own devices get their own variants so the per-access
/// snoop fan-out is a direct call with no vtable load; everything defined
/// downstream (profilers, trackers, PEBS, test probes) rides in the
/// [`AttachedDevice::Dyn`] variant, which preserves the original
/// `Box<dyn CxlDevice>` behaviour exactly.
pub enum AttachedDevice {
    /// A [`crate::trace::TraceCapture`], dispatched statically.
    Trace(crate::trace::TraceCapture),
    /// Any other device, dispatched through its vtable.
    Dyn(Box<dyn CxlDevice>),
}

impl AttachedDevice {
    #[inline]
    fn on_access(&mut self, line: CacheLineAddr, is_write: bool, now: Nanos) {
        match self {
            AttachedDevice::Trace(t) => t.on_access(line, is_write, now),
            AttachedDevice::Dyn(d) => d.on_access(line, is_write, now),
        }
    }

    fn on_fault(&mut self, fault: DeviceFault) {
        match self {
            AttachedDevice::Trace(t) => t.on_fault(fault),
            AttachedDevice::Dyn(d) => d.on_fault(fault),
        }
    }

    fn name(&self) -> &str {
        match self {
            AttachedDevice::Trace(t) => t.name(),
            AttachedDevice::Dyn(d) => d.name(),
        }
    }

    fn as_any(&self) -> &dyn Any {
        match self {
            AttachedDevice::Trace(t) => t,
            AttachedDevice::Dyn(d) => d.as_any(),
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        match self {
            AttachedDevice::Trace(t) => t,
            AttachedDevice::Dyn(d) => d.as_any_mut(),
        }
    }
}

/// The controller: a registry of devices plus the snoop fan-out.
#[derive(Default)]
pub struct CxlController {
    devices: Vec<AttachedDevice>,
}

impl CxlController {
    /// An empty controller.
    pub fn new() -> CxlController {
        CxlController::default()
    }

    /// Attaches a device; the returned handle retrieves it later.
    ///
    /// Devices whose concrete type this crate knows are routed to a static
    /// [`AttachedDevice`] variant; anything else is boxed as before.
    pub fn attach<D: CxlDevice>(&mut self, device: D) -> DeviceHandle {
        // Stable-Rust specialization: downcast the concrete `Option<D>`
        // to claim crate-native types by value without a second box.
        let mut slot = Some(device);
        let any: &mut dyn Any = &mut slot;
        let entry = match any.downcast_mut::<Option<crate::trace::TraceCapture>>() {
            Some(t) => AttachedDevice::Trace(
                t.take()
                    .expect("slot was filled above and taken at most once"),
            ),
            None => AttachedDevice::Dyn(Box::new(
                slot.take()
                    .expect("downcast missed, so the slot still holds the device"),
            )),
        };
        self.devices.push(entry);
        DeviceHandle(self.devices.len() - 1)
    }

    /// Attaches an already-boxed device on the dynamic path, bypassing the
    /// static routing in [`CxlController::attach`] — the plugin/test
    /// escape hatch for exercising the vtable dispatch itself.
    pub fn attach_dyn(&mut self, device: Box<dyn CxlDevice>) -> DeviceHandle {
        self.devices.push(AttachedDevice::Dyn(device));
        DeviceHandle(self.devices.len() - 1)
    }

    /// Forwards one CXL DRAM access to every attached device.
    #[inline]
    pub fn snoop(&mut self, line: CacheLineAddr, is_write: bool, now: Nanos) {
        for d in &mut self.devices {
            d.on_access(line, is_write, now);
        }
    }

    /// Whether any device is attached (lets callers skip snoop bookkeeping
    /// entirely on device-free machines).
    #[inline]
    pub fn has_devices(&self) -> bool {
        !self.devices.is_empty()
    }

    /// Delivers an injected fault to every attached device (the blast
    /// radius of SRAM corruption in the shared near-memory block).
    pub fn inject(&mut self, fault: DeviceFault) {
        for d in &mut self.devices {
            d.on_fault(fault);
        }
    }

    /// Borrows an attached device, downcast to its concrete type.
    ///
    /// Returns `None` if the handle is stale or the type does not match.
    pub fn device<D: CxlDevice>(&self, handle: DeviceHandle) -> Option<&D> {
        self.devices.get(handle.0)?.as_any().downcast_ref()
    }

    /// Mutably borrows an attached device, downcast to its concrete type.
    pub fn device_mut<D: CxlDevice>(&mut self, handle: DeviceHandle) -> Option<&mut D> {
        self.devices.get_mut(handle.0)?.as_any_mut().downcast_mut()
    }

    /// Number of attached devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Names of attached devices, in attach order.
    pub fn device_names(&self) -> Vec<&str> {
        self.devices.iter().map(|d| d.name()).collect()
    }
}

impl fmt::Debug for CxlController {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CxlController")
            .field("devices", &self.device_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountingDevice {
        reads: u64,
        writes: u64,
        last: Option<CacheLineAddr>,
    }

    impl CxlDevice for CountingDevice {
        fn name(&self) -> &str {
            "counter"
        }
        fn on_access(&mut self, line: CacheLineAddr, is_write: bool, _now: Nanos) {
            if is_write {
                self.writes += 1;
            } else {
                self.reads += 1;
            }
            self.last = Some(line);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn counting() -> CountingDevice {
        CountingDevice {
            reads: 0,
            writes: 0,
            last: None,
        }
    }

    #[test]
    fn snoop_fans_out_to_all_devices() {
        let mut ctl = CxlController::new();
        let h1 = ctl.attach(counting());
        let h2 = ctl.attach(counting());
        ctl.snoop(CacheLineAddr(7), false, Nanos(1));
        ctl.snoop(CacheLineAddr(8), true, Nanos(2));
        for h in [h1, h2] {
            let d: &CountingDevice = ctl.device(h).unwrap();
            assert_eq!(d.reads, 1);
            assert_eq!(d.writes, 1);
            assert_eq!(d.last, Some(CacheLineAddr(8)));
        }
    }

    #[test]
    fn downcast_to_wrong_type_is_none() {
        struct Other;
        impl CxlDevice for Other {
            fn name(&self) -> &str {
                "other"
            }
            fn on_access(&mut self, _: CacheLineAddr, _: bool, _: Nanos) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut ctl = CxlController::new();
        let h = ctl.attach(counting());
        assert!(ctl.device::<Other>(h).is_none());
        assert!(ctl.device_mut::<CountingDevice>(h).is_some());
    }

    #[test]
    fn debug_lists_device_names() {
        let mut ctl = CxlController::new();
        ctl.attach(counting());
        assert!(format!("{ctl:?}").contains("counter"));
        assert_eq!(ctl.device_count(), 1);
    }

    #[test]
    fn trace_capture_routes_to_static_variant() {
        use crate::trace::TraceCapture;
        let mut ctl = CxlController::new();
        let h = ctl.attach(TraceCapture::new());
        assert!(matches!(ctl.devices[0], AttachedDevice::Trace(_)));
        ctl.snoop(CacheLineAddr(3), true, Nanos(5));
        let t: &TraceCapture = ctl.device(h).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.records()[0].line, CacheLineAddr(3));
        let t: &mut TraceCapture = ctl.device_mut(h).unwrap();
        assert_eq!(t.name(), "trace-capture");
    }

    #[test]
    fn attach_dyn_keeps_the_vtable_path() {
        let mut ctl = CxlController::new();
        // Even a crate-native type stays dynamic when boxed explicitly.
        let h_trace = ctl.attach_dyn(Box::new(crate::trace::TraceCapture::new()));
        let h_count = ctl.attach_dyn(Box::new(counting()));
        assert!(matches!(ctl.devices[0], AttachedDevice::Dyn(_)));
        assert!(matches!(ctl.devices[1], AttachedDevice::Dyn(_)));
        ctl.snoop(CacheLineAddr(1), false, Nanos(0));
        let t: &crate::trace::TraceCapture = ctl.device(h_trace).unwrap();
        assert_eq!(t.len(), 1);
        let d: &CountingDevice = ctl.device(h_count).unwrap();
        assert_eq!(d.reads, 1);
        assert!(ctl.has_devices());
    }
}
