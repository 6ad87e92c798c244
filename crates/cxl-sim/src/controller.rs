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
}

/// A typed handle to a device attached to a controller.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DeviceHandle(usize);

/// The controller: a registry of devices plus the snoop fan-out.
#[derive(Default)]
pub struct CxlController {
    devices: Vec<Box<dyn CxlDevice>>,
}

impl CxlController {
    /// An empty controller.
    pub fn new() -> CxlController {
        CxlController::default()
    }

    /// Attaches a device; the returned handle retrieves it later.
    pub fn attach<D: CxlDevice>(&mut self, device: D) -> DeviceHandle {
        self.devices.push(Box::new(device));
        DeviceHandle(self.devices.len() - 1)
    }

    /// Forwards one CXL DRAM access to every attached device.
    #[inline]
    pub fn snoop(&mut self, line: CacheLineAddr, is_write: bool, now: Nanos) {
        for d in &mut self.devices {
            d.on_access(line, is_write, now);
        }
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
        // Upcast the trait object itself: a `&Box<dyn CxlDevice>` would
        // coerce to `&dyn Any` with the Box's own type id.
        let device: &dyn Any = &**self.devices.get(handle.0)?;
        device.downcast_ref()
    }

    /// Mutably borrows an attached device, downcast to its concrete type.
    pub fn device_mut<D: CxlDevice>(&mut self, handle: DeviceHandle) -> Option<&mut D> {
        let device: &mut dyn Any = &mut **self.devices.get_mut(handle.0)?;
        device.downcast_mut()
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
        use crate::trace::TraceCapture;
        let mut ctl = CxlController::new();
        let h1 = ctl.attach(counting());
        let h_trace = ctl.attach(TraceCapture::new());
        let h2 = ctl.attach(counting());
        ctl.snoop(CacheLineAddr(7), false, Nanos(1));
        ctl.snoop(CacheLineAddr(8), true, Nanos(2));
        for h in [h1, h2] {
            let d: &CountingDevice = ctl.device(h).unwrap();
            assert_eq!(d.reads, 1);
            assert_eq!(d.writes, 1);
            assert_eq!(d.last, Some(CacheLineAddr(8)));
        }
        let t: &TraceCapture = ctl.device(h_trace).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.records()[1].line, CacheLineAddr(8));
        assert!(t.records()[1].is_write);
        let t: &mut TraceCapture = ctl.device_mut(h_trace).unwrap();
        assert_eq!(t.name(), "trace-capture");
    }

    #[test]
    fn downcast_to_wrong_type_is_none() {
        struct Other;
        impl CxlDevice for Other {
            fn name(&self) -> &str {
                "other"
            }
            fn on_access(&mut self, _: CacheLineAddr, _: bool, _: Nanos) {}
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
    }
}
