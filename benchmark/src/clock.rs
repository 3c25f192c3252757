//! How the benchmark measures time: process CPU time, scaled by a
//! host-speed reference.
//!
//! The benchmark shares its host with other virtual machines. Their load
//! makes the same code run up to 1.7 times slower, changing within a
//! second, which no statistic over whole runs can remove. Part of that is
//! time the hypervisor steals from the virtual CPU; CPU time leaves it
//! out. The rest slows every instruction stream on the CPU, so the
//! benchmark times a fixed reference kernel of its own between the
//! measured calls and reports CPU time scaled by [`NOMINAL`] over the
//! reference's time around each call: the time the calls would take on a
//! host that always runs the reference in [`NOMINAL`]. The kernel sorts
//! 60 000 doubles, branchy work held in the L2 cache like the solvers'
//! working sets; of the kernels tried it tracked the solvers' slow
//! periods most closely (see the README).

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Duration;

/// What one reference sample takes on the measuring host at its usual
/// speed.
pub const NOMINAL: Duration = Duration::from_micros(5_500);

/// Doubles sorted per reference sample.
const REFERENCE_LEN: usize = 60_000;

/// CPU time the process has used so far, every thread counted (exited
/// ones too): `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`. The kernel keeps
/// this clock from the scheduler's task clock, which leaves out time a
/// virtual CPU was stolen by the hypervisor.
pub fn process_cpu() -> Duration {
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    compile_error!("the CPU clock is read through the 64-bit Linux `struct timespec`");

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, checked above) and the clock id is a
    // constant the kernel always provides.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always available");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Fills and sorts per reference sample.
const REFERENCE_ROUNDS: usize = 2;

thread_local! {
    /// The reference's buffer, allocated once so that no sample pays for
    /// page faults.
    static REFERENCE_BUF: RefCell<Vec<f64>> = RefCell::new(vec![0.0; REFERENCE_LEN]);
}

/// CPU time of one reference sample: [`REFERENCE_ROUNDS`] times, fill a
/// buffer with the same pseudo-random doubles and sort it.
pub fn reference() -> Duration {
    REFERENCE_BUF.with_borrow_mut(|v| {
        let start = process_cpu();
        for _ in 0..REFERENCE_ROUNDS {
            let mut x = 1u64;
            for slot in v.iter_mut() {
                // xorshift64
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *slot = (x >> 11) as f64;
            }
            v.sort_by(f64::total_cmp);
            black_box(&v);
        }
        process_cpu().saturating_sub(start)
    })
}

/// The factor that scales CPU time measured alongside the reference
/// `samples` to the nominal host: [`NOMINAL`] over the samples' median
/// (their mean, for two).
pub fn scale(samples: &[Duration]) -> f64 {
    let mid = crate::median(samples.iter().map(Duration::as_secs_f64).collect());
    if mid > 0.0 {
        NOMINAL.as_secs_f64() / mid
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let start = process_cpu();
        black_box((0..2_000_000u64).map(black_box).sum::<u64>());
        assert!(process_cpu() > start);
    }

    #[test]
    fn scale_is_nominal_over_the_median() {
        let ms = Duration::from_millis;
        let nominal = NOMINAL.as_secs_f64();
        assert!((scale(&[ms(9), ms(2), ms(4)]) - nominal / 4e-3).abs() < 1e-9);
        assert!((scale(&[ms(2), ms(4)]) - nominal / 3e-3).abs() < 1e-9);
        assert_eq!(scale(&[]), 1.0);
        assert!(reference() > Duration::ZERO);
    }
}
