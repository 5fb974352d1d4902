//! Restrict the calling thread — and every thread it creates from then
//! on — to one CPU.
//!
//! `serve_sat` and `plan_offline` do this, and only because of where
//! this benchmark runs: on the 2-vCPU shared VM a wake-up that crosses
//! vCPUs goes through the hypervisor and costs 50–100 µs, an amount that
//! follows the co-tenants' load, not the engine's code. `serve_sat`'s
//! batch period is a few hundred µs of exactly such hand-offs, and
//! unpinned its median latency moved by 38 % between two sets of
//! identical runs an hour apart (0.230 ms, then 0.317 ms); pinned it
//! repeats within 3 %. `plan_offline`'s tuner starts and joins scoped
//! threads; pinned, an operation is a fifth faster (README, "Host
//! caveats").

/// `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// The affinity to put back when the pin is dropped (threads started
/// meanwhile stay where they are).
pub struct Pinned {
    #[cfg_attr(not(target_os = "linux"), allow(dead_code))]
    previous: CpuSet,
}

impl Pinned {
    /// Pin to the highest-numbered CPU the thread may run on (interrupts
    /// tend to land on the lowest). `None` if the platform or the
    /// sandbox does not allow it; the workload then runs unpinned.
    #[cfg(target_os = "linux")]
    pub fn to_one_cpu() -> Option<Pinned> {
        let mut previous: CpuSet = [0; 16];
        // SAFETY: `previous` is a live, writable buffer of exactly the
        // size passed; pid 0 is the calling thread.
        let got = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut previous) };
        if got != 0 {
            return None;
        }
        let (word, bits) = previous
            .iter()
            .enumerate()
            .rev()
            .find(|(_, bits)| **bits != 0)?;
        let mut one: CpuSet = [0; 16];
        one[word] = 1 << (63 - bits.leading_zeros());
        // SAFETY: `one` is a live buffer of exactly the size passed, and
        // names a CPU the thread was already allowed on.
        let set = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
        (set == 0).then_some(Pinned { previous })
    }

    #[cfg(not(target_os = "linux"))]
    pub fn to_one_cpu() -> Option<Pinned> {
        None
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        // SAFETY: `previous` is the mask `sched_getaffinity` filled in.
        // Failing to widen the mask again is harmless; ignore it.
        unsafe {
            sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &self.previous);
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn pin_narrows_to_one_cpu_and_drop_restores() {
        let allowed = || {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        };
        let before = allowed();
        let Some(pin) = Pinned::to_one_cpu() else {
            return; // not permitted here
        };
        assert_eq!(allowed(), 1);
        // A thread started while pinned inherits the pin.
        assert_eq!(std::thread::spawn(allowed).join().unwrap(), 1);
        drop(pin);
        assert_eq!(allowed(), before);
    }
}
